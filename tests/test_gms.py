import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqvqa.errors import GeometryError
from rqvqa.gms import make_plan, sample_fragments

from conftest import make_video


class TestMakePlan:
    def test_zero_slack_forces_origin_offsets(self):
        plan = make_plan(224, 224, grid_count=7, patch_size=32, seed=0)
        assert np.all(plan.offsets == 0)

    def test_offsets_within_slack(self):
        # 448/7 = 64px cells, 32px patches -> offsets in [0, 32]^2
        lo, hi = 64, -64
        for seed in range(10_000):
            plan = make_plan(448, 448, grid_count=7, patch_size=32, seed=seed)
            assert np.all(plan.offsets >= 0)
            assert np.all(plan.offsets <= 32)
            lo = min(lo, int(plan.offsets.min()))
            hi = max(hi, int(plan.offsets.max()))
        assert lo == 0 and hi == 32  # both bounds actually reached

    def test_cell_too_small_names_cell(self):
        with pytest.raises(GeometryError, match=r"cell \(0,0\)"):
            make_plan(64, 64, grid_count=7, patch_size=32, seed=0)

    def test_same_seed_same_plan(self):
        a = make_plan(300, 200, grid_count=3, patch_size=20, seed=42)
        b = make_plan(300, 200, grid_count=3, patch_size=20, seed=42)
        np.testing.assert_array_equal(a.offsets, b.offsets)
        np.testing.assert_array_equal(a.cell_bounds, b.cell_bounds)

    def test_remainder_pixels_go_to_trailing_cells(self):
        plan = make_plan(100, 70, grid_count=3, patch_size=20, seed=0)
        # floor cells are 33 and 23 wide/high; last row/col absorb the rest
        assert list(plan.cell_bounds[0, :, 3]) == [33, 33, 34]
        assert list(plan.cell_bounds[:, 0, 2]) == [23, 23, 24]

    @given(seed=st.integers(0, 2**31), grid=st.integers(1, 6),
           width=st.integers(30, 200), height=st.integers(30, 200))
    @settings(max_examples=60, deadline=None)
    def test_patches_never_cross_cell_boundaries(self, seed, grid, width,
                                                 height):
        patch = min(width // grid, height // grid)
        if patch < 1:
            return
        plan = make_plan(width, height, grid, patch, seed)
        for a in range(grid):
            for b in range(grid):
                y0, x0, ch, cw = plan.cell_bounds[a, b]
                dy, dx = plan.offsets[a, b]
                assert 0 <= dy <= ch - patch
                assert 0 <= dx <= cw - patch


class TestSampleFragments:
    def test_zero_slack_reproduces_input(self):
        video = make_video(n_frames=4, height=224, width=224, fps=4)
        plan = make_plan(224, 224, grid_count=7, patch_size=32, seed=0)
        volume = sample_fragments(video.frames, plan)
        np.testing.assert_array_equal(volume, video.frames)

    def test_single_cell_identity(self):
        video = make_video(n_frames=4, height=64, width=64, fps=4)
        plan = make_plan(64, 64, grid_count=1, patch_size=64, seed=0)
        volume = sample_fragments(video.frames, plan)
        np.testing.assert_array_equal(volume, video.frames)

    def test_constant_frames_give_constant_fragments(self):
        frames = np.empty((2, 96, 96, 3), dtype=np.uint8)
        frames[0], frames[1] = 17, 211
        plan = make_plan(96, 96, grid_count=3, patch_size=16, seed=5)
        volume = sample_fragments(frames, plan)
        assert np.all(volume[0] == 17)
        assert np.all(volume[1] == 211)

    def test_temporal_alignment(self):
        # encode (y, x) coordinates in pixels; every frame must sample the
        # same source coordinates
        h = w = 90
        yy, xx = np.mgrid[0:h, 0:w]
        base = np.stack([yy % 256, xx % 256, np.zeros_like(xx)],
                        axis=2).astype(np.uint8)
        frames = np.stack([base, base])
        frames[1, :, :, 2] = 1  # frame marker channel
        plan = make_plan(w, h, grid_count=3, patch_size=10, seed=9)
        volume = sample_fragments(frames, plan)
        np.testing.assert_array_equal(volume[0, :, :, :2],
                                      volume[1, :, :, :2])
        assert np.all(volume[0, :, :, 2] == 0)
        assert np.all(volume[1, :, :, 2] == 1)

    def test_block_content_matches_plan(self):
        video = make_video(n_frames=2, height=90, width=90, fps=2, seed=3)
        plan = make_plan(90, 90, grid_count=3, patch_size=10, seed=1)
        volume = sample_fragments(video.frames, plan)
        for a in range(3):
            for b in range(3):
                y0, x0 = plan.cell_bounds[a, b, 0], plan.cell_bounds[a, b, 1]
                dy, dx = plan.offsets[a, b]
                expected = video.frames[:, y0 + dy:y0 + dy + 10,
                                        x0 + dx:x0 + dx + 10]
                got = volume[:, a * 10:(a + 1) * 10, b * 10:(b + 1) * 10]
                np.testing.assert_array_equal(got, expected)

    def test_geometry_mismatch_rejected(self):
        video = make_video(n_frames=2, height=64, width=64, fps=2)
        plan = make_plan(90, 90, grid_count=3, patch_size=10, seed=1)
        with pytest.raises(GeometryError, match="plan was made for"):
            sample_fragments(video.frames, plan)
