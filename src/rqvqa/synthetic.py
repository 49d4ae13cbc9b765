"""Desk-scale synthetic corpus: procedural clips with graded degradations.

Each scene is one pristine clip and a set of degraded variants sharing its
scene_id. A clip mixes a smooth random texture, a fixed-amplitude fine noise
texture, and a moving sinusoidal gradient with fixed spatial frequency and
speed (random orientation/phase), so content statistics are comparable across
scenes while degradation statistics carry the label signal.

Degradations are blur, blockiness, and additive noise, applied in that order,
each with a level in [0, 1]; the label is the documented monotone function

    mos = 5 - 4 * (0.5 * blur + 0.3 * noise + 0.2 * block)

The first clip of a scene is pristine (maximum MOS in its scene); the others
draw levels stratified into low/mid/high overall-degradation bands so every
scene spans the quality range.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ManifestError
from .preproc import VideoFrames, resize_exact, save_raw_video

# corpus geometry: configs/desk.cfg's 4x4 grid of 8-pixel patches fits it
WIDTH = HEIGHT = 64
FPS = 4
SECONDS = 2
VIDEOS_PER_SCENE = 4

BLUR_SIGMA_MAX = 1.2
NOISE_STD_MAX = 20.0
BLOCK_SIZE = 8

MOS_WEIGHTS = (0.5, 0.3, 0.2)  # blur, noise, block
DEGRADATION_BANDS = ((0.02, 1.0 / 3), (1.0 / 3, 2.0 / 3), (2.0 / 3, 1.0))


def synthetic_mos(blur: float, noise: float, block: float) -> float:
    wb, wn, wk = MOS_WEIGHTS
    return 5.0 - 4.0 * (wb * blur + wn * noise + wk * block)


def gaussian_kernel(sigma: float) -> np.ndarray:
    radius = max(1, int(np.ceil(3.0 * sigma)))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (t / sigma) ** 2)
    return k / k.sum()


def _convolve_axis(arr: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """1-D convolution with reflect padding along one axis."""
    radius = kernel.size // 2
    pad = [(0, 0)] * arr.ndim
    pad[axis] = (radius, radius)
    padded = np.pad(arr, pad, mode="reflect")
    out = np.zeros_like(arr, dtype=np.float64)
    for j, w in enumerate(kernel):
        sl = [slice(None)] * arr.ndim
        sl[axis] = slice(j, j + arr.shape[axis])
        out += w * padded[tuple(sl)]
    return out


def gaussian_blur(frames: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of (F, H, W, 3) float frames."""
    if sigma <= 0.0:
        return np.asarray(frames, dtype=np.float64).copy()
    k = gaussian_kernel(sigma)
    out = _convolve_axis(np.asarray(frames, dtype=np.float64), k, axis=1)
    return _convolve_axis(out, k, axis=2)


def block_average(frames: np.ndarray, block: int = BLOCK_SIZE) -> np.ndarray:
    """Replace each block x block tile by its mean (per frame, per channel)."""
    f = np.asarray(frames, dtype=np.float64)
    n, h, w, c = f.shape
    hb, wb = h // block * block, w // block * block
    out = f.copy()
    tiles = f[:, :hb, :wb].reshape(n, hb // block, block, wb // block, block, c)
    means = tiles.mean(axis=(2, 4), keepdims=True)
    out[:, :hb, :wb] = np.broadcast_to(means, tiles.shape).reshape(n, hb, wb, c)
    return out


def degrade(frames: np.ndarray, blur: float, noise: float, block: float,
            rng: np.random.Generator) -> np.ndarray:
    """Apply blur, then blockiness, then additive noise; returns uint8.

    Noise comes last so its temporal flicker witness is not attenuated by
    the block mixing.
    """
    f = gaussian_blur(frames, BLUR_SIGMA_MAX * blur)
    if block > 0.0:
        f = (1.0 - block) * f + block * block_average(f)
    if noise > 0.0:
        f = f + rng.normal(0.0, NOISE_STD_MAX * noise, size=f.shape)
    return np.clip(np.rint(f), 0, 255).astype(np.uint8)


def pristine_clip(rng: np.random.Generator, width: int, height: int,
                  n_frames: int) -> np.ndarray:
    """Textured noise plus a moving gradient, float64 in [0, 255]."""
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    frames = np.empty((n_frames, height, width, 3))
    for c in range(3):
        coarse = rng.uniform(0.0, 1.0, size=(9, 9, 3))
        smooth = resize_exact(coarse, width, height)[:, :, 0]
        fine = rng.uniform(0.0, 1.0, size=(height, width))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        fx = 1.5 * np.cos(theta) / width
        fy = 1.5 * np.sin(theta) / height
        speed = 0.8 if rng.uniform() < 0.5 else -0.8
        phase = rng.uniform(0.0, 2.0 * np.pi)
        for t in range(n_frames):
            grad = 0.5 + 0.5 * np.sin(
                2.0 * np.pi * (fx * xx + fy * yy) + phase + speed * t)
            frames[t, :, :, c] = 0.30 * smooth + 0.45 * fine + 0.25 * grad
    return frames * 255.0


def draw_levels(rng: np.random.Generator, band) -> tuple[float, float, float]:
    """Rejection-sample levels whose weighted degradation falls in band."""
    lo, hi = band
    wb, wn, wk = MOS_WEIGHTS
    while True:
        lv = tuple(float(v) for v in rng.uniform(0.0, 1.0, size=3))
        if lo <= wb * lv[0] + wn * lv[1] + wk * lv[2] <= hi:
            return lv


def make_synthetic_corpus(out_dir: str | Path, n_videos: int, seed: int):
    """Generate videos plus a manifest.csv whose paths are relative to
    out_dir; returns the manifest as load_manifest reads it back.

    Scene k holds one pristine clip and VIDEOS_PER_SCENE - 1 degraded
    variants cycling through the low/mid/high degradation bands.
    """
    from .harness import (DatasetManifest, ManifestRecord, load_manifest,
                          save_manifest)

    if n_videos < 20:
        raise ManifestError(f"synthetic corpus needs n >= 20, got {n_videos}")
    if seed < 0:
        raise ManifestError(f"synthetic corpus needs seed >= 0, got {seed}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    records = []
    scene = 0
    made = 0
    while made < n_videos:
        scene_id = f"scene{scene:04d}"
        clip = pristine_clip(rng, WIDTH, HEIGHT, FPS * SECONDS)
        for k in range(min(VIDEOS_PER_SCENE, n_videos - made)):
            if k == 0:
                levels = (0.0, 0.0, 0.0)
            else:
                levels = draw_levels(
                    rng, DEGRADATION_BANDS[(k - 1) % len(DEGRADATION_BANDS)])
            video_id = f"{scene_id}_v{k}"
            frames = degrade(clip, *levels, rng=rng)
            video = VideoFrames.from_array(frames, frame_rate=FPS)
            save_raw_video(video, out_dir / video_id)
            records.append(ManifestRecord(
                video_id=video_id, path=video_id,
                mos=synthetic_mos(*levels), scene_id=scene_id))
            made += 1
        scene += 1

    return load_manifest(save_manifest(DatasetManifest(records=records),
                                       out_dir / "manifest.csv"))
