"""Per-frame toy extractors: the byte oracle of the stacked ones in
rqvqa.features. One frame or chunk at a time, histograms by np.histogram,
statistics in float64; the stacked forms must give the same bytes."""

import numpy as np

from rqvqa.errors import FeatureError

_LUMA = np.array([0.299, 0.587, 0.114])


def pixelstats(frame: np.ndarray) -> np.ndarray:
    """16 statistics of one (H, W, 3) frame."""
    f = np.asarray(frame, dtype=np.float64)
    means = f.reshape(-1, 3).mean(axis=0) / 255.0
    stds = f.reshape(-1, 3).std(axis=0) / 127.5

    y = f @ _LUMA
    lap = (y[:-2, 1:-1] + y[2:, 1:-1] + y[1:-1, :-2] + y[1:-1, 2:]
           - 4.0 * y[1:-1, 1:-1])
    energy = np.abs(lap)
    if energy.size:
        lap_stats = np.array([energy.mean() / 1020.0, energy.std() / 510.0])
    else:
        lap_stats = np.zeros(2)

    hist, _ = np.histogram(y, bins=8, range=(0.0, 256.0))
    hist = hist / y.size
    return np.concatenate([means, stds, lap_stats, hist])


def motionstats(chunk: np.ndarray) -> np.ndarray:
    """8 statistics of one (F, H, W, 3) chunk."""
    c = np.asarray(chunk, dtype=np.float64)
    if c.shape[0] < 2:
        raise FeatureError("motion statistics need a chunk of >= 2 frames")
    diffs = np.abs(np.diff(c, axis=0))
    per_pair = diffs.reshape(diffs.shape[0], -1).mean(axis=1)
    stats = np.array([per_pair.mean() / 255.0, per_pair.std() / 127.5,
                      per_pair.max() / 255.0])
    hist, _ = np.histogram(diffs, bins=5, range=(0.0, 256.0))
    hist = hist / diffs.size
    return np.concatenate([stats, hist])


def fragmentstats(fragments: np.ndarray) -> np.ndarray:
    """pixelstats of the temporally averaged (F, h, w, 3) fragment volume."""
    return pixelstats(np.asarray(fragments, dtype=np.float64).mean(axis=0))


def pixelstats_rows(frames) -> np.ndarray:
    return np.stack([pixelstats(f) for f in frames])


def motionstats_rows(chunks) -> np.ndarray:
    return np.stack([motionstats(c) for c in chunks])
