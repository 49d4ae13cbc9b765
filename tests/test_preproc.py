import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqvqa.errors import GeometryError, VideoFormatError
from rqvqa.preproc import (
    VideoFrames,
    extract_chunks,
    extract_key_frames,
    load_raw_video,
    resize_exact,
    save_raw_video,
)

from conftest import make_video


class TestRawVideoIO:
    def test_round_trip_bit_identical(self, tmp_path, video):
        save_raw_video(video, tmp_path / "v")
        loaded = load_raw_video(tmp_path / "v")
        assert loaded.width == video.width
        assert loaded.frame_rate == video.frame_rate
        np.testing.assert_array_equal(loaded.frames, video.frames)

    def test_direct_read_back(self, tmp_path):
        video = make_video(n_frames=8, height=4, width=4, fps=4)
        save_raw_video(video, tmp_path / "v")
        loaded = load_raw_video(tmp_path / "v")
        assert loaded.frame_count == 8
        assert loaded.frame_rate == 4

    def test_missing_frame_names_index(self, tmp_path, video):
        save_raw_video(video, tmp_path / "v")
        (tmp_path / "v" / "frame_000003.rgb").unlink()
        with pytest.raises(VideoFormatError, match="frame 3 missing"):
            load_raw_video(tmp_path / "v")

    def test_short_frame_file(self, tmp_path, video):
        save_raw_video(video, tmp_path / "v")
        path = tmp_path / "v" / "frame_000002.rgb"
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(VideoFormatError, match="frame 2"):
            load_raw_video(tmp_path / "v")

    def test_meta_not_utf8_rejected(self, tmp_path, video):
        save_raw_video(video, tmp_path / "v")
        meta = tmp_path / "v" / "meta.txt"
        meta.write_bytes(meta.read_bytes().replace(b"fps", b"f\xe9s"))
        with pytest.raises(VideoFormatError, match=(
                "meta.txt: not UTF-8 \\(invalid continuation byte\\)")):
            load_raw_video(tmp_path / "v")

    def test_meta_skips_a_leading_bom(self, tmp_path, video):
        save_raw_video(video, tmp_path / "v")
        plain = load_raw_video(tmp_path / "v")
        meta = tmp_path / "v" / "meta.txt"
        meta.write_bytes(b"\xef\xbb\xbf" + meta.read_bytes())
        loaded = load_raw_video(tmp_path / "v")
        assert loaded.frame_rate == plain.frame_rate
        np.testing.assert_array_equal(loaded.frames, plain.frames)

    def test_declared_frames_found_before_allocation(self, tmp_path):
        # 46.9 GiB of frames declared, none present: the missing last frame
        # fails the load before any frame buffer is allocated
        (tmp_path / "meta.txt").write_text(
            "width=4096\nheight=4096\nfps=1\nframes=1000\n")
        with pytest.raises(VideoFormatError, match=(
                "frame 999 missing .*frame_000999.rgb")):
            load_raw_video(tmp_path)
        save_raw_video(make_video(n_frames=4, fps=4), tmp_path)
        (tmp_path / "meta.txt").write_text(
            "width=4096\nheight=16\nfps=4\nframes=4\n")
        with pytest.raises(VideoFormatError, match=(
                "frame 3 has 768 bytes, expected 196608 .*frame_000003.rgb")):
            load_raw_video(tmp_path)

    def test_metadata_inconsistency(self, tmp_path, video):
        save_raw_video(video, tmp_path / "v")
        meta = tmp_path / "v" / "meta.txt"
        meta.write_text(meta.read_text().replace("width=16", "width=99"))
        with pytest.raises(VideoFormatError):
            load_raw_video(tmp_path / "v")

    def test_missing_meta_key(self, tmp_path, video):
        save_raw_video(video, tmp_path / "v")
        meta = tmp_path / "v" / "meta.txt"
        meta.write_text("width=16\nheight=16\nfps=4\n")
        with pytest.raises(VideoFormatError, match="frames"):
            load_raw_video(tmp_path / "v")

    def test_video_shorter_than_one_second_rejected(self):
        frames = np.zeros((3, 4, 4, 3), dtype=np.uint8)
        with pytest.raises(VideoFormatError, match="shorter than one second"):
            VideoFrames.from_array(frames, frame_rate=4)

    def test_non_integer_frame_rate_rejected(self):
        frames = np.zeros((8, 4, 4, 3), dtype=np.uint8)
        with pytest.raises(VideoFormatError):
            VideoFrames.from_array(frames, frame_rate=2.5)


class TestKeyFramesAndChunks:
    def test_240_frames_at_30fps(self):
        video = make_video(n_frames=240, height=4, width=4, fps=30)
        keys = extract_key_frames(video)
        assert keys.shape == (8, 4, 4, 3)
        for i in range(8):
            np.testing.assert_array_equal(keys[i], video.frames[i * 30])

    def test_trailing_partial_second_discarded(self):
        video = make_video(n_frames=250, height=4, width=4, fps=30)
        keys = extract_key_frames(video)
        assert len(keys) == 8  # frames 240-249 unused

    def test_single_second(self):
        video = make_video(n_frames=30, height=4, width=4, fps=30)
        keys = extract_key_frames(video)
        assert len(keys) == 1
        np.testing.assert_array_equal(keys[0], video.frames[0])

    def test_chunk_bounds(self):
        video = make_video(n_frames=240, height=4, width=4, fps=30)
        chunks = extract_chunks(video)
        assert chunks.shape == (8, 30, 4, 4, 3)
        np.testing.assert_array_equal(chunks[2], video.frames[60:90])

    def test_two_chunks(self):
        video = make_video(n_frames=60, height=4, width=4, fps=30)
        assert len(extract_chunks(video)) == 2

    def test_partition_property(self):
        video = make_video(n_frames=250, height=4, width=4, fps=30)
        chunks = extract_chunks(video)
        stitched = chunks.reshape(-1, 4, 4, 3)
        np.testing.assert_array_equal(stitched, video.frames[:240])

    @given(n_seconds=st.integers(1, 6), extra=st.integers(0, 9),
           fps=st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_keyframe_chunk_pairing(self, n_seconds, extra, fps):
        n = n_seconds * fps + min(extra, fps - 1)
        video = make_video(n_frames=n, height=2, width=2, fps=fps,
                           seed=n)
        keys = extract_key_frames(video)
        chunks = extract_chunks(video)
        assert len(keys) == len(chunks) == n // fps
        for i in range(len(keys)):
            np.testing.assert_array_equal(keys[i], video.frames[i * fps])
            np.testing.assert_array_equal(keys[i], chunks[i][0])


class TestResize:
    def test_exact_shape_contract(self):
        frame = np.zeros((1080, 1920, 3), dtype=np.uint8)
        assert resize_exact(frame, 224, 224).shape == (224, 224, 3)

    def test_exact_identity_pass_through(self):
        rng = np.random.default_rng(1)
        frame = rng.integers(0, 256, size=(224, 224, 3), dtype=np.uint8)
        np.testing.assert_array_equal(resize_exact(frame, 224, 224), frame)

    def test_constant_color_stays_constant(self):
        frame = np.full((50, 70, 3), 137, dtype=np.uint8)
        for w, h in ((224, 224), (33, 91), (7, 5)):
            out = resize_exact(frame, w, h)
            assert out.shape == (h, w, 3)
            assert np.all(out == 137)

    def test_zero_target_rejected(self):
        frame = np.zeros((10, 10, 3), dtype=np.uint8)
        with pytest.raises(GeometryError):
            resize_exact(frame, 0, 5)

    def test_bilinear_midpoint_value(self):
        # downscale 2x along one axis averages neighbour pairs exactly
        frame = np.zeros((2, 4, 3), dtype=np.float64)
        frame[:, :, 0] = [[0, 10, 20, 30], [0, 10, 20, 30]]
        out = resize_exact(frame, 2, 2)
        np.testing.assert_allclose(out[:, :, 0], [[5, 25], [5, 25]])

