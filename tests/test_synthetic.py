from collections import Counter
from inspect import signature

import numpy as np
import pytest

from rqvqa.errors import ManifestError
from rqvqa.features import toy_pixelstats
from rqvqa.harness import load_manifest
from rqvqa.preproc import load_raw_video
from rqvqa.synthetic import (
    degrade,
    gaussian_blur,
    make_synthetic_corpus,
    pristine_clip,
    synthetic_mos,
)


class TestCorpus:
    def test_minimum_size_enforced(self, tmp_path):
        with pytest.raises(ManifestError, match="n >= 20"):
            make_synthetic_corpus(tmp_path, 10, seed=0)

    def test_pristine_clip_has_scene_maximum(self, small_corpus):
        manifest, _ = small_corpus
        by_scene = {}
        for rec in manifest.records:
            by_scene.setdefault(rec.scene_id, []).append(rec)
        for scene, recs in by_scene.items():
            best = max(recs, key=lambda r: r.mos)
            assert best.video_id.endswith("_v0")
            assert best.mos == 5.0
            for other in recs:
                if other is not best:
                    assert other.mos < 5.0

    def test_same_seed_identical_manifest_and_pixels(self, tmp_path):
        m1 = make_synthetic_corpus(tmp_path / "a", 20, seed=3)
        m2 = make_synthetic_corpus(tmp_path / "b", 20, seed=3)
        assert [(r.video_id, r.mos, r.scene_id) for r in m1.records] == \
            [(r.video_id, r.mos, r.scene_id) for r in m2.records]
        for rec1, rec2 in zip(m1.records, m2.records):
            v1 = load_raw_video(rec1.path)
            v2 = load_raw_video(rec2.path)
            np.testing.assert_array_equal(v1.frames, v2.frames)

    def test_manifest_resolvable(self, small_corpus):
        manifest, root = small_corpus
        reloaded = load_manifest(root / "manifest.csv")
        assert len(reloaded) == len(manifest)
        video = load_raw_video(reloaded.records[0].path)
        assert video.frame_count == video.frame_rate * 2

    def test_fixed_geometry(self, small_corpus):
        # every clip is 2 s of 64x64 frames at 4 fps, in scenes of 4
        # videos: the desk protocol's 4x4 grid of 8-pixel patches fits it,
        # and no caller sets another
        assert list(signature(make_synthetic_corpus).parameters) == [
            "out_dir", "n_videos", "seed"]
        manifest, _ = small_corpus
        for rec in manifest.records:
            video = load_raw_video(rec.path)
            assert (video.width, video.height, video.frame_rate,
                    video.frame_count) == (64, 64, 4, 8)
        assert set(Counter(r.scene_id for r in manifest.records).values()) \
            == {4}

    def test_mos_formula(self):
        assert synthetic_mos(0, 0, 0) == 5.0
        assert synthetic_mos(1, 1, 1) == 1.0
        assert synthetic_mos(0.5, 0.0, 0.0) == pytest.approx(4.0)


class TestDegradations:
    def test_blur_zero_is_identity(self):
        rng = np.random.default_rng(0)
        frames = rng.uniform(0, 255, size=(2, 16, 16, 3))
        np.testing.assert_array_equal(gaussian_blur(frames, 0.0), frames)

    def test_laplacian_energy_decreases_with_blur(self):
        # derived measurement: the blur witness statistic must fall
        # monotonically along a blur-only degradation ladder
        rng = np.random.default_rng(1)
        clip = pristine_clip(rng, 64, 64, 4)
        energies = []
        for level in (0.0, 0.25, 0.5, 0.75, 1.0):
            frames = degrade(clip, level, 0.0, 0.0,
                             rng=np.random.default_rng(2))
            energies.append(toy_pixelstats(frames[:1])[0, 6])
        assert all(a > b for a, b in zip(energies, energies[1:]))

    def test_noise_raises_motion_stats(self):
        from rqvqa.features import toy_motionstats
        rng = np.random.default_rng(3)
        clip = pristine_clip(rng, 64, 64, 4)
        quiet = degrade(clip, 0.0, 0.0, 0.0, rng=np.random.default_rng(4))
        noisy = degrade(clip, 0.0, 1.0, 0.0, rng=np.random.default_rng(4))
        assert (toy_motionstats(noisy[None])[0, 0]
                > toy_motionstats(quiet[None])[0, 0])

    def test_degrade_is_seed_deterministic(self):
        rng = np.random.default_rng(5)
        clip = pristine_clip(rng, 32, 32, 2)
        a = degrade(clip, 0.3, 0.6, 0.2, rng=np.random.default_rng(6))
        b = degrade(clip, 0.3, 0.6, 0.2, rng=np.random.default_rng(6))
        np.testing.assert_array_equal(a, b)
