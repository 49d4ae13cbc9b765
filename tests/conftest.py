from pathlib import Path

import numpy as np
import pytest

from rqvqa.preproc import VideoFrames

# the desk protocol of `rqvqa experiment` and the acceptance suite
DESK_CFG = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"


def make_video(n_frames=8, height=16, width=16, fps=4, seed=0):
    rng = np.random.default_rng(seed)
    frames = rng.integers(0, 256, size=(n_frames, height, width, 3),
                          dtype=np.uint8)
    return VideoFrames.from_array(frames, frame_rate=fps)


@pytest.fixture
def video():
    return make_video()


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """24-video corpus shared by harness/CLI tests."""
    from rqvqa.synthetic import make_synthetic_corpus

    root = tmp_path_factory.mktemp("small_corpus")
    manifest = make_synthetic_corpus(root, 24, seed=11)
    return manifest, root
