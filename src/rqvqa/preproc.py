"""Video representation, key-frame/chunk extraction, and resizing.

Videos are plain directories of raw RGB frames plus a tiny metadata file, so
everything stays deterministic and decoder-free:

    meta.txt            four lines: width=, height=, fps=, frames=
    frame_000000.rgb    height*width*3 bytes, row-major, interleaved RGB

All operations are pure; resizing uses bilinear interpolation with half-pixel
center alignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GeometryError, VideoFormatError

META_NAME = "meta.txt"
FRAME_PATTERN = "frame_{:06d}.rgb"


@dataclass(frozen=True)
class VideoFrames:
    """Decoded frame sequence and its frame rate.

    frames has shape (frame_count, height, width, 3), dtype uint8.
    """

    frames: np.ndarray
    frame_rate: int

    def __post_init__(self):
        f = self.frames
        if f.ndim != 4 or f.shape[3] != 3 or f.dtype != np.uint8:
            raise VideoFormatError(
                f"frames must be (N, H, W, 3) uint8, got {f.shape} {f.dtype}"
            )
        if not isinstance(self.frame_rate, int) or self.frame_rate < 1:
            raise VideoFormatError(
                f"frame rate must be a positive integer, got {self.frame_rate!r}"
            )
        if self.frame_count < self.frame_rate:
            raise VideoFormatError(
                f"video shorter than one second ({self.frame_count} frames @ "
                f"{self.frame_rate} fps)"
            )

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]

    @classmethod
    def from_array(cls, frames: np.ndarray, frame_rate: int) -> "VideoFrames":
        return cls(frames=np.ascontiguousarray(frames, dtype=np.uint8),
                   frame_rate=frame_rate)


def load_raw_video(directory: str | Path) -> VideoFrames:
    """Read a raw video directory back into memory, validating as it goes."""
    directory = Path(directory)
    meta_path = directory / META_NAME
    if not meta_path.is_file():
        raise VideoFormatError(f"{meta_path} missing")

    try:
        text = meta_path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise VideoFormatError(
            f"{meta_path}: not UTF-8 ({exc.reason})") from None
    meta: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise VideoFormatError(f"{meta_path}:{lineno}: expected key=value")
        try:
            meta[key.strip()] = int(value.strip())
        except ValueError:
            raise VideoFormatError(
                f"{meta_path}:{lineno}: {key.strip()} must be an integer, "
                f"got {value.strip()!r}"
            ) from None
    missing = [k for k in ("width", "height", "fps", "frames") if k not in meta]
    if missing:
        raise VideoFormatError(f"{meta_path}: missing keys {missing}")

    w, h, fps, n = meta["width"], meta["height"], meta["fps"], meta["frames"]
    if w < 1 or h < 1 or fps < 1 or n < 1:
        raise VideoFormatError(f"{meta_path}: non-positive metadata {meta}")

    frame_bytes = h * w * 3
    # the last frame is looked up before n frames are allocated, so a
    # meta.txt alone cannot reserve memory for a video that is not there
    last = directory / FRAME_PATTERN.format(n - 1)
    if not last.is_file():
        raise VideoFormatError(f"frame {n - 1} missing ({last})")
    if last.stat().st_size != frame_bytes:
        raise VideoFormatError(
            f"frame {n - 1} has {last.stat().st_size} bytes, expected "
            f"{frame_bytes} ({last})")
    frames = np.empty((n, h, w, 3), dtype=np.uint8)
    for i in range(n):
        path = directory / FRAME_PATTERN.format(i)
        if not path.is_file():
            raise VideoFormatError(f"frame {i} missing ({path})")
        data = path.read_bytes()
        if len(data) != frame_bytes:
            raise VideoFormatError(
                f"frame {i} has {len(data)} bytes, expected {frame_bytes} "
                f"({path})")
        frames[i] = np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3)
    return VideoFrames(frames=frames, frame_rate=fps)


def save_raw_video(video: VideoFrames, directory: str | Path) -> Path:
    """Write a VideoFrames as a raw video directory (inverse of load)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = (f"width={video.width}\nheight={video.height}\n"
            f"fps={video.frame_rate}\nframes={video.frame_count}\n")
    (directory / META_NAME).write_text(meta)
    for i in range(video.frame_count):
        (directory / FRAME_PATTERN.format(i)).write_bytes(
            np.ascontiguousarray(video.frames[i]).tobytes())
    return directory


def extract_key_frames(video: VideoFrames) -> np.ndarray:
    """(N_z, H, W, 3) key frames: key frame i is frame i*r, the first frame
    of second i; the trailing partial second is discarded."""
    r = video.frame_rate
    n_z = video.frame_count // r
    return video.frames[np.arange(n_z) * r]


def extract_chunks(video: VideoFrames) -> np.ndarray:
    """(N_z, r, H, W, 3) view: chunk i spans frames [i*r, (i+1)*r - 1]."""
    r = video.frame_rate
    n_z = video.frame_count // r
    return video.frames[: n_z * r].reshape(n_z, r, video.height,
                                           video.width, 3)


def _resize_axis(img: np.ndarray, out_len: int, axis: int) -> np.ndarray:
    """Bilinear resample of one axis with half-pixel center alignment."""
    in_len = img.shape[axis]
    src = (np.arange(out_len, dtype=np.float64) + 0.5) * (in_len / out_len) - 0.5
    src = np.clip(src, 0.0, in_len - 1)
    i0 = np.floor(src).astype(np.int64)
    i1 = np.minimum(i0 + 1, in_len - 1)
    frac = src - i0
    a = np.take(img, i0, axis=axis).astype(np.float64)
    b = np.take(img, i1, axis=axis).astype(np.float64)
    shape = [1] * img.ndim
    shape[axis] = out_len
    frac = frac.reshape(shape)
    return a * (1.0 - frac) + b * frac


def resize_exact(frame: np.ndarray, width: int, height: int) -> np.ndarray:
    """Scale to width x height, ignoring aspect ratio."""
    if width < 1 or height < 1:
        raise GeometryError(f"target must be >= 1, got {width}x{height}")
    h, w = frame.shape[:2]
    if h < 1 or w < 1:
        raise GeometryError("zero-sized frame")
    if (height, width) == (h, w):
        return frame.copy()  # bit-exact pass-through
    out = _resize_axis(frame, height, axis=0)
    out = _resize_axis(out, width, axis=1)
    if np.issubdtype(frame.dtype, np.integer):
        return np.clip(np.rint(out), 0, 255).astype(frame.dtype)
    return out
