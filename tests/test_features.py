import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqvqa.errors import (
    FeatureError,
    SidecarChecksumError,
    SidecarMagicError,
    SidecarNameError,
    SidecarShapeError,
    SidecarTruncatedError,
    SidecarVersionError,
)
from rqvqa.features import (
    ExtractionConfig,
    FeatureBundle,
    FeatureSource,
    assemble_bundle,
    backbone_registry,
    load_sidecar,
    save_sidecar,
    toy_fragmentstats,
    toy_motionstats,
    toy_pixelstats,
    toy_registry,
)
from rqvqa.gms import make_plan, sample_fragments
from rqvqa.synthetic import gaussian_blur

import toy_oracle
from conftest import make_video
from test_fusion import sidecar_bundles

EXTRACTION = ExtractionConfig(gms_grid_count=4, gms_patch_size=4, gms_seed=0)


def keyframe_source(name="feat", dim=6, **kw):
    return FeatureSource(name, "keyframe", dim, **kw)


class TestFeatureSource:
    def test_rows_per_granularity(self):
        rows = [FeatureSource("s", g, 2, token_count=3 * (g == "tokens"))
                .rows(5) for g in ("keyframe", "tokens", "chunk", "video")]
        assert rows == [5, 15, 5, 1]

    @pytest.mark.parametrize("kw, match", [
        (dict(dim=6.0), "^feat: dim must be int, got 6.0$"),
        (dict(dim=True), "^feat: dim must be int, got True$"),
        (dict(granularity="tokens", token_count=4.0),
         "^feat: token_count must be int, got 4.0$"),
        (dict(name=5), "^5: name must be str, got 5$"),
        (dict(probability="yes"), "^feat: probability must be bool"),
        (dict(toy="lumastats"), "^unknown toy extractor 'lumastats'$"),
        (dict(role="quality"), "^unknown role 'quality'$"),
    ])
    def test_spec_fields_checked(self, kw, match):
        with pytest.raises(FeatureError, match=match):
            FeatureSource(**{"name": "feat", "granularity": "keyframe",
                             "dim": 6, **kw})


class TestRegistries:
    def test_declaration_order(self):
        # BackboneCorpus.setup in perfbench draws one random direction per
        # source in this order; another order would change its inputs
        for registry in (backbone_registry(),
                         backbone_registry(spatial_tokens=49)):
            assert isinstance(registry, tuple)
            assert [s.name for s in registry] == [
                "spatial", "temporal", "frame_quality_probs",
                "frame_quality_lmm", "spatiotemporal"]
        assert [s.name for s in toy_registry()] == [
            "pixelstats", "motionstats", "fragmentstats"]


def edit_header(path, fmt, offset, *values):
    """Rewrite header fields of the sidecar at path; the payload CRC
    stays valid, since it covers the payload alone."""
    data = bytearray(path.read_bytes())
    struct.pack_into(fmt, data, offset, *values)
    path.write_bytes(bytes(data))


def zero_count(path):
    """Rewrite the sidecar at path as a signed header declaring count 0 and
    no payload, a file that save_sidecar refuses to write."""
    data = path.read_bytes()
    (name_len,) = struct.unpack_from("<H", data, 6)
    header = bytearray(data[:8 + name_len + 13])
    struct.pack_into("<I", header, 8 + name_len + 1, 0)
    path.write_bytes(bytes(header) + struct.pack("<I", zlib.crc32(b"")))


class TestSidecarRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        src = keyframe_source(dim=12)
        mat = rng.standard_normal((7, 12)).astype(np.float32)
        path = save_sidecar(src, mat, tmp_path / "f.rqvf")
        name, gran, tok, loaded = load_sidecar(path, expect=src)
        assert (name, gran, tok) == ("feat", "keyframe", 0)
        assert loaded.dtype == np.float32
        np.testing.assert_array_equal(loaded, mat)

    def test_round_trip_all_granularities(self, tmp_path):
        rng = np.random.default_rng(1)
        cases = [
            FeatureSource("a", "keyframe", 5),
            FeatureSource("b", "tokens", 3, token_count=4),
            FeatureSource("c", "chunk", 7),
            FeatureSource("d", "video", 9),
        ]
        rows = {"a": 6, "b": 24, "c": 6, "d": 1}
        for src in cases:
            mat = rng.standard_normal((rows[src.name], src.dim)).astype(
                np.float32)
            path = save_sidecar(src, mat, tmp_path / f"{src.name}.rqvf")
            _, _, _, loaded = load_sidecar(path, expect=src)
            np.testing.assert_array_equal(loaded, mat)

    def test_truncated_by_one_byte(self, tmp_path):
        src = keyframe_source()
        path = save_sidecar(src, np.ones((3, 6), dtype=np.float32),
                            tmp_path / "f.rqvf")
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(SidecarTruncatedError, match="truncated payload"):
            load_sidecar(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        src = keyframe_source(dim=4)
        path = save_sidecar(src, np.ones((2, 4), dtype=np.float32),
                            tmp_path / "f.rqvf")
        path.write_bytes(path.read_bytes() + b"junk after crc")
        with pytest.raises(SidecarTruncatedError, match=(
                f"^{path}: 14 bytes after the checksum$")):
            load_sidecar(path, expect=src)

    # "feat" ends at byte 12; count u32 and token_count u32 follow the
    # granularity byte, at 13 and 17
    @pytest.mark.parametrize("fmt, offset, values, rows, match", [
        ("<II", 13, (2, 3), 6, "feat: token_count only valid for tokens"),
        ("<B", 12, (1,), 6, "feat: tokens source needs token_count"),
        ("<BI", 12, (3, 2), 1, "video source with count 2"),
    ], ids=["keyframe-with-tokens", "tokens-without-count", "video-count"])
    def test_header_must_state_a_valid_source(self, tmp_path, fmt, offset,
                                              values, rows, match):
        # each edit keeps the byte count the header declares: a keyframe
        # header stating 2 key frames of 3 tokens read its 6 rows as such
        path = save_sidecar(keyframe_source(dim=4),
                            np.ones((rows, 4), dtype=np.float32),
                            tmp_path / "f.rqvf")
        edit_header(path, fmt, offset, *values)
        with pytest.raises(SidecarShapeError, match=f"^{path}: {match}$"):
            load_sidecar(path)

    @pytest.mark.parametrize("source", [
        keyframe_source(dim=4),
        FeatureSource("feat", "tokens", 4, token_count=3),
        FeatureSource("feat", "chunk", 4),
    ], ids=lambda s: s.granularity)
    def test_zero_count_refused(self, tmp_path, source):
        # a source with no row gives no key-frame count to a sidecar-only
        # video: the save refuses it, and the load names the file
        with pytest.raises(SidecarShapeError, match=(
                f"^feat: 0 rows fit no key-frame count of a "
                f"{source.granularity} source")):
            save_sidecar(source, np.ones((0, 4)), tmp_path / "f.rqvf")
        assert not any(tmp_path.iterdir())
        path = save_sidecar(source, np.ones((source.rows(1), 4)),
                            tmp_path / "f.rqvf")
        zero_count(path)
        with pytest.raises(SidecarShapeError, match=(
                f"^{path}: {source.granularity} source with count 0$")):
            load_sidecar(path)

    def test_bad_magic(self, tmp_path):
        src = keyframe_source()
        path = save_sidecar(src, np.ones((3, 6), dtype=np.float32),
                            tmp_path / "f.rqvf")
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(SidecarMagicError):
            load_sidecar(path)

    def test_version_mismatch(self, tmp_path):
        src = keyframe_source()
        path = save_sidecar(src, np.ones((3, 6), dtype=np.float32),
                            tmp_path / "f.rqvf")
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(SidecarVersionError):
            load_sidecar(path)

    def test_name_mismatch_against_declared_source(self, tmp_path):
        alpha = FeatureSource("alpha", "keyframe", 6)
        path = save_sidecar(alpha, np.ones((3, 6), dtype=np.float32),
                            tmp_path / "beta.rqvf")
        beta = FeatureSource("beta", "keyframe", 6)
        with pytest.raises(SidecarNameError, match="'alpha'"):
            load_sidecar(path, expect=beta)

    def test_name_not_utf8_rejected(self, tmp_path):
        path = save_sidecar(FeatureSource("alpha", "keyframe", 6),
                            np.ones((3, 6), dtype=np.float32),
                            tmp_path / "f.rqvf")
        data = bytearray(path.read_bytes())
        data[10] = 0xFF                        # the 'p' of "alpha"
        path.write_bytes(bytes(data))
        with pytest.raises(SidecarNameError, match=(
                f"{path}: source name is not UTF-8 \\(invalid start byte")):
            load_sidecar(path)

    def test_dim_mismatch_against_declared_source(self, tmp_path):
        src = keyframe_source(dim=6)
        path = save_sidecar(src, np.ones((3, 6), dtype=np.float32),
                            tmp_path / "f.rqvf")
        other = keyframe_source(dim=7)
        with pytest.raises(SidecarShapeError, match="dim mismatch"):
            load_sidecar(path, expect=other)

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        src = keyframe_source()
        path = save_sidecar(src, np.ones((3, 6), dtype=np.float32),
                            tmp_path / "f.rqvf")
        data = bytearray(path.read_bytes())
        data[-10] ^= 0xFF  # flip one payload byte, keep length
        path.write_bytes(bytes(data))
        with pytest.raises(SidecarChecksumError):
            load_sidecar(path)

    def test_save_rejects_wrong_width(self, tmp_path):
        src = keyframe_source(dim=6)
        with pytest.raises(SidecarShapeError):
            save_sidecar(src, np.ones((3, 5), dtype=np.float32),
                         tmp_path / "f.rqvf")
        # rows that no key-frame count gives: 6 rows of 4-token grids, and
        # 2 rows of a per-video source
        tokens = FeatureSource("grid", "tokens", 6, token_count=4)
        with pytest.raises(SidecarShapeError, match=(
                r"^grid: 6 rows fit no key-frame count of a tokens source "
                r"\(token_count 4\)$")):
            save_sidecar(tokens, np.ones((6, 6)), tmp_path / "g.rqvf")
        video = FeatureSource("clip", "video", 6)
        with pytest.raises(SidecarShapeError, match=(
                r"^clip: 2 rows fit no key-frame count of a video source")):
            save_sidecar(video, np.ones((2, 6)), tmp_path / "c.rqvf")
        assert not any(tmp_path.iterdir())


# Gray levels whose luma sits on or next to a multiple of 32 (the luma
# histogram's bin edges), and levels 0/51/52/... whose differences sit on
# either side of the motion histogram's edges 51.2, 102.4, 153.6 and 204.8.
EDGE_LEVELS = sorted({0, 255} | {e + d for e in range(32, 256, 32)
                                 for d in (-1, 0, 1)})
MOTION_LEVELS = (0, 51, 52, 102, 103, 153, 154, 204, 205, 255)


@st.composite
def uint8_stacks(draw, levels, gray):
    """(n, F, H, W, 3) uint8: random pixels, some set to one of `levels`
    (on all three channels when gray, else per channel)."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)),
             draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.integers(0, 256, size=shape + (3,), dtype=np.uint8)
    picked = rng.choice(np.array(levels, dtype=np.uint8),
                        size=shape + ((1,) if gray else (3,)))
    mask = rng.random(shape + (1,)) < draw(st.sampled_from((0.5, 1.0)))
    return np.where(mask, picked, stack)


class TestStackedExtractorsMatchPerFrameOracle:
    @settings(max_examples=150, deadline=None)
    @given(uint8_stacks(EDGE_LEVELS, gray=True))
    def test_pixelstats_bytes(self, stack):
        frames = stack[:, 0]
        assert (toy_pixelstats(frames).tobytes()
                == toy_oracle.pixelstats_rows(frames).tobytes())

    @settings(max_examples=150, deadline=None)
    @given(uint8_stacks(MOTION_LEVELS, gray=False))
    def test_motionstats_bytes(self, stack):
        chunks = np.concatenate([stack, stack[:, ::-1]], axis=1)
        assert (toy_motionstats(chunks).tobytes()
                == toy_oracle.motionstats_rows(chunks).tobytes())

    @settings(max_examples=60, deadline=None)
    @given(uint8_stacks(EDGE_LEVELS, gray=True))
    def test_fragmentstats_bytes(self, stack):
        volume = stack[0]
        assert (toy_fragmentstats(volume).tobytes()
                == toy_oracle.fragmentstats(volume).tobytes())

    def test_edge_levels_reach_every_bin_edge(self):
        gray = np.array(EDGE_LEVELS, dtype=np.uint8)
        y = np.repeat(gray[:, None], 3, axis=1).astype(np.float64) @ np.array(
            [0.299, 0.587, 0.114])
        # some gray lumas land exactly on a multiple of 32 and some a rounding
        # step below one, so both sides of a bin edge are drawn
        gap = np.abs(y[:, None] - np.arange(32, 256, 32)).min(axis=1)
        assert np.any(gap == 0.0) and np.any((gap > 0.0) & (gap < 1e-12))
        frame = np.repeat(gray[None, :, None], 3, axis=2)
        np.testing.assert_array_equal(
            toy_pixelstats(frame[None]), toy_oracle.pixelstats_rows(
                frame[None]))

    def test_float_frames(self):
        rng = np.random.default_rng(4)
        frames = rng.integers(0, 256, size=(3, 9, 11, 3)).astype(np.float64)
        for stack in (gaussian_blur(frames, 1.0), frames + 0.5,
                      rng.uniform(0.0, 255.0, size=(2, 6, 5, 3))):
            assert (toy_pixelstats(stack).tobytes()
                    == toy_oracle.pixelstats_rows(stack).tobytes())

    def test_fragment_mean_frames(self):
        video = make_video(n_frames=8, height=16, width=16, fps=4, seed=8)
        plan = make_plan(16, 16, grid_count=4, patch_size=4, seed=0)
        volume = sample_fragments(video.frames, plan)
        assert (toy_fragmentstats(volume).tobytes()
                == toy_oracle.fragmentstats(volume).tobytes())

    @pytest.mark.parametrize("shape", [(2, 2, 5), (3, 5, 2), (1, 1, 1),
                                       (2, 2, 2)])
    def test_frames_below_3x3_have_zero_laplacian_rows(self, shape):
        rng = np.random.default_rng(3)
        frames = rng.integers(0, 256, size=shape + (3,), dtype=np.uint8)
        v = toy_pixelstats(frames)
        assert v.shape == (shape[0], 16)
        np.testing.assert_array_equal(v[:, 6:8], 0.0)
        assert v.tobytes() == toy_oracle.pixelstats_rows(frames).tobytes()


class TestToyPixelstats:
    def test_constant_gray_frame(self):
        frame = np.full((8, 8, 3), 128, dtype=np.uint8)
        v = toy_pixelstats(frame[None])
        assert v.shape == (1, 16)
        v = v[0]
        np.testing.assert_allclose(v[0:3], 128 / 255)
        np.testing.assert_allclose(v[3:6], 0.0)   # channel stds
        np.testing.assert_allclose(v[6:8], 0.0)   # laplacian energy
        assert v[8:].sum() == pytest.approx(1.0)  # histogram mass

    def test_blur_lowers_laplacian_energy(self):
        # oracle: brute-force 4-neighbour convolution on an 8x8 frame
        rng = np.random.default_rng(4)
        frame = rng.integers(0, 256, size=(8, 8, 3)).astype(np.float64)
        blurred = gaussian_blur(frame[None], 1.0)[0]

        def brute_lap_mean(f):
            y = f @ np.array([0.299, 0.587, 0.114])
            vals = []
            for i in range(1, 7):
                for j in range(1, 7):
                    lap = (y[i - 1, j] + y[i + 1, j] + y[i, j - 1]
                           + y[i, j + 1] - 4 * y[i, j])
                    vals.append(abs(lap))
            return np.mean(vals)

        sharp_vec, blur_vec = toy_pixelstats(np.stack([frame, blurred]))
        assert blur_vec[6] < sharp_vec[6]
        # the packaged statistic must agree with the brute-force oracle
        assert sharp_vec[6] == pytest.approx(brute_lap_mean(frame) / 1020.0)
        assert blur_vec[6] == pytest.approx(brute_lap_mean(blurred) / 1020.0)

    @pytest.mark.parametrize("kind", [
        "uint8-1x1", "uint8-2x5", "uint8-24x17", "temporal-mean-frame",
        "uniform-float", "uniform-float-1x1"])
    def test_channel_moments_equal_the_strided_formula(self, kind):
        # uniform floats are the case where a pairwise sum of the contiguous
        # channel rows moves the last bits; integer pixels hide it
        rng = np.random.default_rng(21)
        if kind.startswith("uint8"):
            h, w = map(int, kind.split("-")[1].split("x"))
            frames = rng.integers(0, 256, size=(3, h, w, 3), dtype=np.uint8)
        elif kind == "temporal-mean-frame":
            volume = rng.integers(0, 256, size=(7, 16, 16, 3), dtype=np.uint8)
            frames = volume.astype(np.float64).mean(axis=0)[None]
        elif kind == "uniform-float":
            frames = rng.uniform(0.0, 255.0, size=(4, 32, 32, 3))
        else:
            frames = rng.uniform(0.0, 255.0, size=(2, 1, 1, 3))
        before = frames.copy()
        pixels = frames.reshape(len(frames), -1, 3).astype(np.float64)
        v = toy_pixelstats(frames)
        assert v[:, 0:3].tobytes() == (pixels.mean(axis=1) / 255.0).tobytes()
        assert v[:, 3:6].tobytes() == (pixels.std(axis=1) / 127.5).tobytes()
        # the running sums work on a copy, even where the channel-major
        # transpose is already contiguous (one float64 pixel per frame)
        assert frames.tobytes() == before.tobytes()

    def test_determinism(self):
        rng = np.random.default_rng(5)
        frames = rng.integers(0, 256, size=(4, 12, 9, 3), dtype=np.uint8)
        stacked = toy_pixelstats(frames)
        np.testing.assert_array_equal(stacked, toy_pixelstats(frames.copy()))
        for i, frame in enumerate(frames):
            assert (toy_pixelstats(frame[None])[0].tobytes()
                    == stacked[i].tobytes())

    def test_all_components_in_unit_interval(self):
        rng = np.random.default_rng(6)
        frames = rng.integers(0, 256, size=(20, 10, 14, 3), dtype=np.uint8)
        v = toy_pixelstats(frames)
        assert v.shape == (20, 16)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)

    @pytest.mark.parametrize("value", [-0.5, 256.5, np.nan])
    def test_luma_outside_histogram_range_rejected(self, value):
        frames = np.full((2, 4, 4, 3), 100.0)
        frames[1, 2, 3] = value
        with pytest.raises(FeatureError, match=r"luma outside \[0, 256\]"):
            toy_pixelstats(frames)

    def test_luma_range_is_inclusive(self):
        frames = np.zeros((2, 4, 4, 3))
        frames[1] = [258.0, 251.0, 276.5]
        assert np.all(frames[1] @ np.array([0.299, 0.587, 0.114]) == 256.0)
        v = toy_pixelstats(frames)
        assert v[0, 8] == 1.0 and v[1, 15] == 1.0  # 256 in the last bin
        assert v.tobytes() == toy_oracle.pixelstats_rows(frames).tobytes()


class TestToyMotionstats:
    def test_static_chunk_is_all_zero_stats(self):
        chunk = np.tile(np.arange(48, dtype=np.uint8).reshape(1, 4, 4, 3),
                        (5, 1, 1, 1))
        v = toy_motionstats(chunk[None])
        assert v.shape == (1, 8)
        v = v[0]
        np.testing.assert_allclose(v[:3], 0.0)
        assert v[3] == pytest.approx(1.0)  # all diffs in the lowest bin

    def test_alternating_black_white(self):
        chunk = np.zeros((4, 4, 4, 3), dtype=np.uint8)
        chunk[1::2] = 255
        v = toy_motionstats(chunk[None])[0]
        assert v[0] == pytest.approx(1.0)  # mean abs diff 255, normalized
        assert v[2] == pytest.approx(1.0)

    def test_single_frame_rejected(self):
        for n in (1, 3):
            with pytest.raises(FeatureError, match=">= 2 frames"):
                toy_motionstats(np.zeros((n, 1, 4, 4, 3), dtype=np.uint8))

    @pytest.mark.parametrize("dtype", [np.float64, np.int16, np.uint16])
    def test_non_uint8_chunks_rejected(self, dtype):
        with pytest.raises(FeatureError, match="uint8 chunks"):
            toy_motionstats(np.zeros((2, 3, 4, 4, 3), dtype=dtype))

    def test_determinism(self):
        rng = np.random.default_rng(7)
        chunks = rng.integers(0, 256, size=(3, 6, 5, 5, 3), dtype=np.uint8)
        stacked = toy_motionstats(chunks)
        np.testing.assert_array_equal(stacked, toy_motionstats(chunks.copy()))
        for i, chunk in enumerate(chunks):
            assert (toy_motionstats(chunk[None])[0].tobytes()
                    == stacked[i].tobytes())


class TestToyFragmentstats:
    def test_matches_pixelstats_of_mean_frame(self):
        video = make_video(n_frames=4, height=16, width=16, fps=4, seed=8)
        plan = make_plan(16, 16, grid_count=4, patch_size=4, seed=0)
        volume = sample_fragments(video.frames, plan)
        expected = toy_pixelstats(volume.astype(np.float64).mean(axis=0)[None])
        np.testing.assert_array_equal(toy_fragmentstats(volume), expected[0])

    def test_constant_volume(self):
        plan = make_plan(16, 16, grid_count=4, patch_size=4, seed=0)
        volume = sample_fragments(
            np.full((4, 16, 16, 3), 128, dtype=np.uint8), plan)
        v = toy_fragmentstats(volume)
        assert v.shape == (16,)
        np.testing.assert_allclose(v[3:8], 0.0)


class TestAssembleBundle:
    def test_toy_shapes(self):
        video = make_video(n_frames=12, height=16, width=16, fps=4)
        bundle = assemble_bundle(video, toy_registry(), video_id="v",
                                 extraction=EXTRACTION)
        assert bundle.n_keyframes == 3
        assert bundle.matrices["pixelstats"].shape == (3, 16)
        assert bundle.matrices["motionstats"].shape == (3, 8)
        assert bundle.matrices["fragmentstats"].shape == (1, 16)

    def test_sidecar_precedence_over_toy(self, tmp_path, video):
        registry = toy_registry()
        override = np.zeros((2, 16), dtype=np.float32)
        override[:, 0] = 0.5
        save_sidecar(registry[0], override,
                     tmp_path / "pixelstats.rqvf")
        bundle = assemble_bundle(video, registry, sidecar_dir=tmp_path,
                                 extraction=EXTRACTION)
        np.testing.assert_array_equal(bundle.matrices["pixelstats"],
                                      override.astype(np.float64))

    @pytest.mark.parametrize("spatial_tokens", [0, 4])
    def test_sidecar_matrices_stay_float32(self, tmp_path, spatial_tokens):
        # load_sidecar's read-only view, 4 bytes a value, not a float64 copy
        registry, bundles, _, _ = sidecar_bundles(tmp_path, spatial_tokens)
        for bundle in bundles:
            for source in registry:
                mat = bundle.matrices[source.name]
                assert mat.dtype == np.float32
                assert mat.nbytes == (
                    4 * source.rows(bundle.n_keyframes) * source.dim)
                assert not mat.flags.writeable

    @pytest.mark.parametrize("rows, message", [
        # float32 accumulation of this row reaches 1.0001, past the 1e-4
        # tolerance; its float64 sum, 1.0000999868, is inside it
        ([[0.2, 0.2, 0.6001]], None),
        ([[0.2, 0.2, 0.6001], [0.2, 0.2, 0.6002]],
         "probs: probability rows must sum to 1 (row 1 sums to 1.000200)"),
    ], ids=["inside", "outside"])
    def test_probability_verdict_same_as_float64_copy(self, rows, message):
        probs = FeatureSource("probs", "keyframe", 3, probability=True)
        mat = np.array(rows, dtype=np.float32)
        assert mat[0].sum() == np.float32(1.0001)
        verdicts = []
        for matrix in (mat, mat.astype(np.float64)):
            bundle = FeatureBundle("v", len(rows), {"probs": matrix})
            try:
                bundle.validate((probs,))
                verdicts.append(None)
            except FeatureError as exc:
                verdicts.append(str(exc))
        assert verdicts == [message, message]

    def test_missing_source_listed(self, video):
        registry = (
            FeatureSource("pixelstats", "keyframe", 16, toy="pixelstats"),
            FeatureSource("external", "keyframe", 4),
        )
        with pytest.raises(FeatureError, match="external"):
            assemble_bundle(video, registry, extraction=EXTRACTION)

    def test_count_mismatch_vs_keyframes(self, tmp_path):
        video = make_video(n_frames=12, height=16, width=16, fps=4)  # N_z=3
        registry = toy_registry()
        save_sidecar(registry[0],
                     np.ones((2, 16), dtype=np.float32),
                     tmp_path / "pixelstats.rqvf")
        with pytest.raises(FeatureError, match=(
                r"^clip: pixelstats: shape \(2, 16\) != expected \(3, 16\) "
                r"\(N_z=3\)$")):
            assemble_bundle(video, registry, sidecar_dir=tmp_path,
                            video_id="clip", extraction=EXTRACTION)

    def test_probability_rows_validated(self, tmp_path, video):
        probs = FeatureSource("probs", "keyframe", 4, probability=True)
        registry = (
            FeatureSource("pixelstats", "keyframe", 16, toy="pixelstats"),
            probs,
        )
        bad = np.full((2, 4), 0.225, dtype=np.float32)  # rows sum to 0.9
        save_sidecar(probs, bad, tmp_path / "probs.rqvf")
        with pytest.raises(FeatureError, match=(
                "^clip: probs: probability rows must sum to 1")):
            assemble_bundle(video, registry, sidecar_dir=tmp_path,
                            video_id="clip", extraction=EXTRACTION)

    def test_probability_flag_off_accepts_logits(self, tmp_path, video):
        source = FeatureSource("logits", "keyframe", 4, probability=False)
        registry = (
            FeatureSource("pixelstats", "keyframe", 16, toy="pixelstats"),
            source,
        )
        logits = np.array([[-3.0, 2.0, 0.5, 9.0]] * 2, dtype=np.float32)
        save_sidecar(source, logits, tmp_path / "logits.rqvf")
        bundle = assemble_bundle(video, registry, sidecar_dir=tmp_path,
                                 extraction=EXTRACTION)
        assert "logits" in bundle.matrices

    def test_registry_order_independent(self, tmp_path, video):
        sources = [
            FeatureSource("pixelstats", "keyframe", 16, role="spatial",
                          toy="pixelstats"),
            FeatureSource("motionstats", "chunk", 8, role="temporal",
                          toy="motionstats"),
        ]
        a = assemble_bundle(video, sources, extraction=EXTRACTION)
        b = assemble_bundle(video, sources[::-1], extraction=EXTRACTION)
        assert a.matrices.keys() == b.matrices.keys()
        for name in a.matrices:
            np.testing.assert_array_equal(a.matrices[name], b.matrices[name])

    def test_sidecar_only_video(self, tmp_path):
        ext_key = FeatureSource("ext_key", "keyframe", 4)
        ext_vid = FeatureSource("ext_vid", "video", 3)
        registry = (ext_key, ext_vid)
        rng = np.random.default_rng(9)
        save_sidecar(ext_key,
                     rng.standard_normal((5, 4)).astype(np.float32),
                     tmp_path / "ext_key.rqvf")
        save_sidecar(ext_vid,
                     rng.standard_normal((1, 3)).astype(np.float32),
                     tmp_path / "ext_vid.rqvf")
        bundle = assemble_bundle(None, registry, sidecar_dir=tmp_path,
                                 video_id="x", extraction=EXTRACTION)
        assert bundle.n_keyframes == 5

        # the first per-index sidecar sets N_z; one that disagrees fails
        ext_b = FeatureSource("ext_b", "keyframe", 2)
        both = (*registry, ext_b)
        save_sidecar(ext_b, np.zeros((3, 2)), tmp_path / "ext_b.rqvf")
        with pytest.raises(FeatureError, match=(
                r"^x: ext_b: shape \(3, 2\) != expected \(5, 2\) "
                r"\(N_z=5\)$")):
            assemble_bundle(None, both, sidecar_dir=tmp_path, video_id="x",
                            extraction=EXTRACTION)
        # per-video sidecars alone do not say how many key frames there are
        with pytest.raises(FeatureError, match=(
                "^x: cannot infer key-frame count from video-granularity "
                "sidecars alone$")):
            assemble_bundle(None, (ext_vid,), sidecar_dir=tmp_path,
                            video_id="x", extraction=EXTRACTION)

