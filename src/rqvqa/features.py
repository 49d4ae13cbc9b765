"""Feature sources, sidecar files, toy extractors, and bundle assembly.

A feature source is a named producer at one of four granularities:

    keyframe   one row per key frame            (count = N_z)
    tokens     T rows per key frame             (count = N_z, stored N_z*T x dim)
    chunk      one row per one-second chunk     (count = N_z)
    video      a single row for the whole clip  (count = 1)

Precomputed backbone outputs arrive through RQVF sidecar files; three built-in
toy extractors provide deterministic desk-scale stand-ins. Sidecar values take
precedence over toys for same-named sources. A registry is a plain tuple of
sources; fusion.ConcatLayout.from_registry orders it and checks its names.

RQVF sidecar layout (little-endian):
    magic 'RQVF' | version u16 | name_len u16 | name utf-8 | granularity u8
    | count u32 | token_count u32 | dim u32
    | rows(count) * dim float32 values (FeatureSource.rows)
    | crc32(payload) u32
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    FeatureError,
    RqvqaError,
    SidecarChecksumError,
    SidecarMagicError,
    SidecarNameError,
    SidecarShapeError,
    SidecarTruncatedError,
    SidecarVersionError,
)
from .gms import make_plan, sample_fragments
from .preproc import VideoFrames, extract_chunks, extract_key_frames

MAGIC = b"RQVF"
VERSION = 1

GRANULARITIES = ("keyframe", "tokens", "chunk", "video")
_GRAN_CODE = {name: code for code, name in enumerate(GRANULARITIES)}

# Concatenation order of source roles in the fused vector: learnable spatial
# first, then temporal motion, then per-frame quality sources, then whole-video
# spatiotemporal sources. Ties within a role break on the source name.
ROLE_ORDER = ("spatial", "temporal", "frame_quality", "video_quality")

# Built-in deterministic extractors a source may fall back on (`toy`).
TOY_EXTRACTORS = ("pixelstats", "motionstats", "fragmentstats")

# Label sets behind the 495-way frame-quality probability vector
# (9 scenes x 11 distortions x 5 levels).
LIQE_SCENES = ("animal", "cityscape", "human", "indoor scene", "landscape",
               "night scene", "plant", "still-life", "others")
LIQE_DISTORTIONS = ("blur", "color-related", "contrast", "JPEG compression",
                    "JPEG2000 compression", "noise", "overexposure",
                    "quantization", "under-exposure", "spatially-localized",
                    "others")
LIQE_LEVELS = ("bad", "poor", "fair", "good", "perfect")


@dataclass(frozen=True)
class FeatureSource:
    """Metadata describing one feature producer."""

    name: str
    granularity: str
    dim: int
    role: str = "frame_quality"
    token_count: int = 0
    probability: bool = False        # rows must be nonneg and sum to 1
    toy: str | None = None           # built-in extractor name, if any

    def __post_init__(self):
        # a spec may come from a checkpoint header: types are checked too
        for key, kind in (("name", str), ("dim", int), ("token_count", int),
                          ("probability", bool)):
            value = getattr(self, key)
            if type(value) is not kind:          # True is no int here
                raise FeatureError(
                    f"{self.name}: {key} must be {kind.__name__}, got "
                    f"{value!r}")
        if self.granularity not in GRANULARITIES:
            raise FeatureError(f"unknown granularity {self.granularity!r}")
        if self.role not in ROLE_ORDER:
            raise FeatureError(f"unknown role {self.role!r}")
        if self.toy is not None and self.toy not in TOY_EXTRACTORS:
            raise FeatureError(f"unknown toy extractor {self.toy!r}")
        if self.dim < 1:
            raise FeatureError(f"{self.name}: dim must be >= 1")
        if self.granularity == "tokens" and self.token_count < 1:
            raise FeatureError(f"{self.name}: tokens source needs token_count")
        if self.granularity != "tokens" and self.token_count:
            raise FeatureError(f"{self.name}: token_count only valid for tokens")

    def rows(self, n_keyframes: int) -> int:
        """Matrix rows of this source for a video of n_keyframes key frames."""
        if self.granularity == "video":
            return 1
        return n_keyframes * max(self.token_count, 1)


def toy_registry() -> tuple[FeatureSource, ...]:
    """The three deterministic stand-in extractors."""
    return (
        FeatureSource("pixelstats", "keyframe", PIXELSTATS_DIM,
                      role="spatial", toy="pixelstats"),
        FeatureSource("motionstats", "chunk", MOTIONSTATS_DIM,
                      role="temporal", toy="motionstats"),
        FeatureSource("fragmentstats", "video", PIXELSTATS_DIM,
                      role="video_quality", toy="fragmentstats"),
    )


def backbone_registry(spatial_dim: int = 1024, temporal_dim: int = 256,
                      lmm_dim: int = 4096, spatiotemporal_dim: int = 768,
                      spatial_tokens: int = 0) -> tuple[FeatureSource, ...]:
    """Sidecar-fed registry shaped like the full-scale pipeline.

    The probability source width is fixed by its label space.
    spatial_tokens > 0 switches the spatial source to an unpooled token grid
    for learnable attention pooling.
    """
    if spatial_tokens:
        spatial = FeatureSource("spatial", "tokens", spatial_dim,
                                role="spatial", token_count=spatial_tokens)
    else:
        spatial = FeatureSource("spatial", "keyframe", spatial_dim,
                                role="spatial")
    return (
        spatial,
        FeatureSource("temporal", "chunk", temporal_dim, role="temporal"),
        FeatureSource("frame_quality_probs", "keyframe",
                      len(LIQE_SCENES) * len(LIQE_DISTORTIONS) * len(LIQE_LEVELS),
                      role="frame_quality", probability=True),
        FeatureSource("frame_quality_lmm", "keyframe", lmm_dim,
                      role="frame_quality"),
        FeatureSource("spatiotemporal", "video", spatiotemporal_dim,
                      role="video_quality"),
    )


def backbone_registry_from_sidecars(
        directory: str | Path) -> tuple[FeatureSource, ...]:
    """backbone_registry at the widths and spatial token count (0: pooled
    rows) of one video's sidecar headers; every video is checked on load."""
    paths = [Path(directory) / f"{name}.rqvf" for name in
             ("spatial", "temporal", "frame_quality_lmm", "spatiotemporal")]
    for path in paths:
        if not path.is_file():
            raise FeatureError(
                f"{path}: sidecar missing; the backbone registry reads the "
                f"source widths from its header")
    headers = [load_sidecar(path) for path in paths]
    return backbone_registry(*(matrix.shape[1] for *_, matrix in headers),
                             spatial_tokens=headers[0][2])


@dataclass
class FeatureBundle:
    """Per-video feature matrices keyed by source name: a sidecar source is
    load_sidecar's read-only float32 matrix, a toy source float64 as
    computed; fusion._forward casts the fused rows to float64, exactly."""

    video_id: str
    n_keyframes: int
    matrices: dict[str, np.ndarray] = field(default_factory=dict)

    def rows_expected(self, source: FeatureSource) -> int:
        return source.rows(self.n_keyframes)

    def validate(self, registry: Sequence[FeatureSource]) -> None:
        missing = [s.name for s in registry if s.name not in self.matrices]
        if missing:
            raise FeatureError(f"missing sources: {', '.join(sorted(missing))}")
        for source in registry:
            mat = self.matrices[source.name]
            expected = (self.rows_expected(source), source.dim)
            if mat.shape != expected:
                raise FeatureError(
                    f"{source.name}: shape {mat.shape} != expected {expected} "
                    f"(N_z={self.n_keyframes})"
                )
            if not np.all(np.isfinite(mat)):
                raise FeatureError(f"{source.name}: non-finite values")
            if source.probability:
                if np.any(mat < 0):
                    raise FeatureError(
                        f"{source.name}: probability rows must be nonnegative")
                # the float64 copy's sum at any width: a dtype= sum casts
                # in 8192-value buffers and regroups a wider row's sum
                sums = np.asarray(mat, dtype=np.float64).sum(axis=1)
                if np.any(np.abs(sums - 1.0) > 1e-4):
                    bad = int(np.argmax(np.abs(sums - 1.0)))
                    raise FeatureError(
                        f"{source.name}: probability rows must sum to 1 "
                        f"(row {bad} sums to {sums[bad]:.6f})"
                    )


# ---------------------------------------------------------------------------
# Sidecar IO


def save_sidecar(source: FeatureSource, matrix: np.ndarray,
                 path: str | Path) -> Path:
    """Write one source's matrix as an RQVF file; round-trips bit-exactly."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float32)
    if matrix.ndim != 2 or matrix.shape[1] != source.dim:
        raise SidecarShapeError(
            f"{source.name}: matrix {matrix.shape} does not match dim {source.dim}")
    rows = matrix.shape[0]
    count = rows // source.rows(1)
    if count == 0 or source.rows(count) != rows:
        raise SidecarShapeError(
            f"{source.name}: {rows} rows fit no key-frame count of a "
            f"{source.granularity} source (token_count {source.token_count})")

    name_bytes = source.name.encode("utf-8")
    header = MAGIC + struct.pack(
        "<HH", VERSION, len(name_bytes)) + name_bytes + struct.pack(
        "<BIII", _GRAN_CODE[source.granularity], count, source.token_count,
        source.dim)
    payload = matrix.tobytes()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(header + payload + struct.pack("<I", zlib.crc32(payload)))
    return path


def load_sidecar(path: str | Path,
                 expect: FeatureSource | None = None):
    """Read an RQVF file; returns (name, granularity, token_count, matrix).

    The header must state a valid source of >= 1 key frame, and the file
    must be exactly that long. The matrix is float32 exactly as stored.
    When `expect` is given, the header's name, dim, granularity and token
    count must agree with the declared source.
    """
    data = Path(path).read_bytes()
    if len(data) < 8:
        raise SidecarTruncatedError(f"{path}: truncated header")
    if data[:4] != MAGIC:
        raise SidecarMagicError(f"{path}: bad magic {data[:4]!r}")
    version, name_len = struct.unpack_from("<HH", data, 4)
    if version != VERSION:
        raise SidecarVersionError(f"{path}: version {version}, expected {VERSION}")
    offset = 8
    if len(data) < offset + name_len + 13:
        raise SidecarTruncatedError(f"{path}: truncated header")
    try:
        name = data[offset:offset + name_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SidecarNameError(
            f"{path}: source name is not UTF-8 ({exc.reason})") from None
    offset += name_len
    gran_code, count, token_count, dim = struct.unpack_from("<BIII", data, offset)
    offset += 13
    if gran_code >= len(GRANULARITIES):
        raise SidecarShapeError(f"{path}: unknown granularity code {gran_code}")
    try:
        stored = FeatureSource(name, GRANULARITIES[gran_code], dim,
                               token_count=token_count)
    except FeatureError as exc:
        raise SidecarShapeError(f"{path}: {exc}") from None
    if count == 0 or (stored.granularity == "video" and count != 1):
        raise SidecarShapeError(
            f"{path}: {stored.granularity} source with count {count}")

    rows = stored.rows(count)
    end = offset + rows * dim * 4
    if len(data) < end + 4:
        raise SidecarTruncatedError(f"{path}: truncated payload")
    if len(data) > end + 4:
        raise SidecarTruncatedError(
            f"{path}: {len(data) - end - 4} bytes after the checksum")
    payload = data[offset:end]
    (crc,) = struct.unpack_from("<I", data, end)
    if crc != zlib.crc32(payload):
        raise SidecarChecksumError(f"{path}: payload checksum mismatch")
    matrix = np.frombuffer(payload, dtype="<f4").reshape(rows, dim)

    if expect is not None:
        if name != expect.name:
            raise SidecarNameError(
                f"{path}: holds source {name!r}, expected {expect.name!r}")
        for key in ("dim", "granularity", "token_count"):
            found, wanted = getattr(stored, key), getattr(expect, key)
            if found != wanted:
                raise SidecarShapeError(
                    f"{path}: {key} mismatch (file {found}, source {wanted})")
    return name, stored.granularity, token_count, matrix


# ---------------------------------------------------------------------------
# Toy extractors

PIXELSTATS_DIM = 16
MOTIONSTATS_DIM = 8

_LUMA = np.array([0.299, 0.587, 0.114])
# First integer of each of np.histogram's 5 equal bins over [0, 256]: the
# edges 51.2, 102.4, 153.6 and 204.8 fall between integers.
_MOTION_BIN_STARTS = np.array([0, 52, 103, 154, 205])


def toy_pixelstats(frames: np.ndarray) -> np.ndarray:
    """(n, 16) deterministic statistics of (n, H, W, 3) frames, each in [0, 1].

    Per frame: per-channel mean and std (6), mean and std of the absolute
    4-neighbour luma Laplacian (2; zeros below 3x3), and an 8-bin histogram
    of luma over [0, 256] (8). The 32-wide bins make the bin index
    floor(y / 32) exact, so one bincount replaces a histogram per frame.
    Each channel sum is the last running sum over a contiguous (n, 3, H*W)
    copy: it adds in pixel order, as mean/std(axis=1) over (n, H*W, 3) do,
    so the bytes are theirs (a pairwise .sum() would move them).
    """
    f = np.asarray(frames, dtype=np.float64)
    n = f.shape[0]
    # a copy even when the transpose is contiguous: it is overwritten below
    dev = f.reshape(n, -1, 3).transpose(0, 2, 1).copy()
    count = dev.shape[2]
    run = np.cumsum(dev, axis=2)
    mean = run[:, :, -1:] / count
    dev -= mean
    dev *= dev
    np.cumsum(dev, axis=2, out=run)
    means = mean[:, :, 0] / 255.0
    stds = np.sqrt(run[:, :, -1] / count) / 127.5

    y = f @ _LUMA
    if not (y.min() >= 0.0 and y.max() <= 256.0):
        raise FeatureError(
            f"luma outside [0, 256]: [{y.min()}, {y.max()}]")
    lap = (y[:, :-2, 1:-1] + y[:, 2:, 1:-1] + y[:, 1:-1, :-2]
           + y[:, 1:-1, 2:] - 4.0 * y[:, 1:-1, 1:-1])
    energy = np.abs(lap).reshape(n, -1)
    if energy.shape[1]:
        lap_stats = np.stack([energy.mean(axis=1) / 1020.0,
                              energy.std(axis=1) / 510.0], axis=1)
    else:
        lap_stats = np.zeros((n, 2))

    bins = (np.minimum((y * (8 / 256)).astype(np.intp), 7).reshape(n, -1)
            + 8 * np.arange(n)[:, None])
    hist = np.bincount(bins.ravel(), minlength=8 * n).reshape(n, 8)
    return np.concatenate([means, stds, lap_stats, hist / bins.shape[1]],
                          axis=1)


def toy_motionstats(chunks: np.ndarray) -> np.ndarray:
    """(n, 8) statistics of consecutive-frame absolute differences of
    (n, F, H, W, 3) uint8 chunks, each in [0, 1].

    Per chunk: mean, std and max of the per-pair mean difference (3), and a
    5-bin histogram of the differences over [0, 256] (5). The differences
    are integers, so int64 sums give the means exactly and one 256-bin
    bincount, summed at the first integer of each bin, gives the histogram.
    """
    c = np.asarray(chunks)
    if c.dtype != np.uint8:
        raise FeatureError(
            f"motion statistics need uint8 chunks, got {c.dtype}")
    n, frames = c.shape[:2]
    if frames < 2:
        raise FeatureError("motion statistics need a chunk of >= 2 frames")
    diffs = np.abs(np.diff(c.astype(np.int16), axis=1)).reshape(
        n, frames - 1, -1)
    per_pair = diffs.sum(axis=2, dtype=np.int64) / diffs.shape[2]
    stats = np.stack([per_pair.mean(axis=1) / 255.0,
                      per_pair.std(axis=1) / 127.5,
                      per_pair.max(axis=1) / 255.0], axis=1)
    levels = diffs.reshape(n, -1) + 256 * np.arange(n)[:, None]
    counts = np.bincount(levels.ravel(), minlength=256 * n).reshape(n, 256)
    hist = np.add.reduceat(counts, _MOTION_BIN_STARTS, axis=1)
    return np.concatenate([stats, hist / levels.shape[1]], axis=1)


def toy_fragmentstats(fragments: np.ndarray) -> np.ndarray:
    """Pixel statistics of the temporally averaged fragment frame."""
    mean_frame = np.asarray(fragments, dtype=np.float64).mean(axis=0)
    return toy_pixelstats(mean_frame[None])[0]


# ---------------------------------------------------------------------------
# Bundle assembly


@dataclass(frozen=True)
class ExtractionConfig:
    """Geometry knobs for the toy extractors (fragment sampling plan)."""

    gms_grid_count: int = 7
    gms_patch_size: int = 32
    gms_seed: int = 0


def _toy_matrix(toy: str, video: VideoFrames,
                extraction: ExtractionConfig) -> np.ndarray:
    if toy == "pixelstats":
        return toy_pixelstats(extract_key_frames(video))
    if toy == "motionstats":
        return toy_motionstats(extract_chunks(video))
    plan = make_plan(video.width, video.height, extraction.gms_grid_count,
                     extraction.gms_patch_size, extraction.gms_seed)
    fragments = sample_fragments(extract_key_frames(video), plan)
    return toy_fragmentstats(fragments)[None, :]


def assemble_bundle(video: VideoFrames | None,
                    registry: Sequence[FeatureSource],
                    sidecar_dir: str | Path | None = None, *,
                    video_id: str = "video",
                    extraction: ExtractionConfig,
                    ) -> FeatureBundle:
    """Resolve every registered source (sidecar first, toy fallback).

    With video=None all sources must resolve from sidecars; N_z is then taken
    from the first per-index sidecar, and validate rejects any source whose
    rows disagree with it. Errors name the video; sidecar errors their file.
    """
    sidecar_dir = Path(sidecar_dir) if sidecar_dir is not None else None
    matrices: dict[str, np.ndarray] = {}
    missing: list[str] = []

    for source in registry:
        sidecar = (sidecar_dir / f"{source.name}.rqvf") if sidecar_dir else None
        if sidecar is not None and sidecar.is_file():
            _, _, _, mat = load_sidecar(sidecar, expect=source)
            matrices[source.name] = mat
        elif source.toy is not None and video is not None:
            try:
                matrices[source.name] = _toy_matrix(source.toy, video,
                                                    extraction)
            except RqvqaError as exc:
                raise type(exc)(f"{video_id}: {exc}") from exc
        else:
            missing.append(source.name)
    if missing:
        raise FeatureError(
            f"{video_id}: unresolvable sources: {', '.join(sorted(missing))}")

    if video is not None:
        n_z = video.frame_count // video.frame_rate
    else:
        first = next((s for s in registry if s.granularity != "video"), None)
        if first is None:
            raise FeatureError(
                f"{video_id}: cannot infer key-frame count from "
                f"video-granularity sidecars alone")
        n_z = len(matrices[first.name]) // first.rows(1)

    bundle = FeatureBundle(video_id=video_id, n_keyframes=n_z, matrices=matrices)
    try:
        bundle.validate(registry)
    except RqvqaError as exc:
        raise type(exc)(f"{video_id}: {exc}") from exc
    return bundle
