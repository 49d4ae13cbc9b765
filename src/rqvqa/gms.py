"""Grid mini-cube sampling: temporally aligned raw-resolution fragments.

A frame is partitioned into grid_count x grid_count cells (remainder pixels go
to the last row/column). One patch origin is drawn per cell, shared by every
frame, and the patches are reassembled in their grid positions to form a
compact fragment frame per source frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GeometryError


@dataclass(frozen=True)
class GmsPlan:
    grid_count: int
    patch_size: int
    frame_width: int
    frame_height: int
    cell_bounds: np.ndarray  # (G, G, 4): y0, x0, cell_h, cell_w per cell
    offsets: np.ndarray      # (G, G, 2): dy, dx of the patch inside its cell


def _cell_edges(length: int, parts: int) -> np.ndarray:
    """Floor partition start offsets; the last cell absorbs the remainder."""
    base = length // parts
    edges = np.arange(parts + 1) * base
    edges[parts] = length
    return edges


@lru_cache(maxsize=64)
def make_plan(width: int, height: int, grid_count: int, patch_size: int,
              seed: int) -> GmsPlan:
    """Draw one uniform in-cell patch origin per grid cell, deterministically;
    memoized, so every video of one geometry shares one read-only plan."""
    if grid_count < 1:
        raise GeometryError(f"grid_count must be >= 1, got {grid_count}")
    if patch_size < 1:
        raise GeometryError(f"patch_size must be >= 1, got {patch_size}")
    g = grid_count
    base_w, base_h = width // g, height // g
    if base_w < patch_size or base_h < patch_size:
        raise GeometryError(
            f"cell (0,0) is {base_w}x{base_h}px, smaller than patch "
            f"{patch_size}px ({width}x{height} split {g}x{g})"
        )
    xs = _cell_edges(width, g)
    ys = _cell_edges(height, g)
    cell_w = np.diff(xs)  # (g,)
    cell_h = np.diff(ys)

    bounds = np.empty((g, g, 4), dtype=np.int64)
    bounds[:, :, 0] = ys[:g, None]
    bounds[:, :, 1] = xs[None, :g]
    bounds[:, :, 2] = cell_h[:, None]
    bounds[:, :, 3] = cell_w[None, :]

    rng = np.random.default_rng(seed)
    offsets = np.empty((g, g, 2), dtype=np.int64)
    offsets[:, :, 0] = rng.integers(0, (cell_h - patch_size + 1)[:, None],
                                    size=(g, g))
    offsets[:, :, 1] = rng.integers(0, (cell_w - patch_size + 1)[None, :],
                                    size=(g, g))
    bounds.flags.writeable = offsets.flags.writeable = False
    return GmsPlan(grid_count=g, patch_size=patch_size, frame_width=width,
                   frame_height=height, cell_bounds=bounds, offsets=offsets)


def sample_fragments(frames: np.ndarray, plan: GmsPlan) -> np.ndarray:
    """(F, G*patch, G*patch, 3) fragment volume of (F, H, W, 3) frames, one
    plan applied to every frame."""
    frames = np.asarray(frames)
    if frames.ndim != 4 or frames.shape[3] != 3:
        raise GeometryError(f"expected (F, H, W, 3) frames, got {frames.shape}")
    f, h, w = frames.shape[:3]
    if (h, w) != (plan.frame_height, plan.frame_width):
        raise GeometryError(
            f"frames are {w}x{h} but plan was made for "
            f"{plan.frame_width}x{plan.frame_height}"
        )
    g, p = plan.grid_count, plan.patch_size
    out = np.empty((f, g * p, g * p, 3), dtype=frames.dtype)
    for a in range(g):
        for b in range(g):
            y0, x0 = plan.cell_bounds[a, b, 0], plan.cell_bounds[a, b, 1]
            dy, dx = plan.offsets[a, b]
            sy, sx = y0 + dy, x0 + dx
            out[:, a * p:(a + 1) * p, b * p:(b + 1) * p] = \
                frames[:, sy:sy + p, sx:sx + p]
    return out
