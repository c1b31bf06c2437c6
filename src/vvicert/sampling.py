"""Deterministic sample streams: low-discrepancy for small dimension, seeded
uniform otherwise; ball sampling by rejection from the bounding box.

Every stream is a pure function of its arguments, so identical plans expand
to identical sample sequences (the reproducibility contract of the checkers).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np
from scipy.stats import qmc

from .errors import SamplingFailedError

__all__ = [
    "unit_points",
    "box_points",
    "ball_points",
    "ball_pairs",
    "simplex_weights",
]

_LOW_DISCREPANCY_MAX_DIM = 3
# the Halton memo holds at most this many streams (one audit-matrix round
# draws 17, the largest under the default plans 30000 x 6 floats)
_HALTON_CACHE_SIZE = 32
# the simplex-grid memo: one grid per number of active pieces at depth 8
_SIMPLEX_CACHE_SIZE = 16


def unit_points(
    dim: int, count: int, seed: int, base_dim: int | None = None, start: int = 0
) -> np.ndarray:
    """Rows start, ..., start + count - 1 of a stream of points in [0,1)^dim.
    Halton (unscrambled, skipping the origin) when the underlying problem
    dimension is <= 3, otherwise seeded uniform.

    base_dim is the problem dimension driving the choice; dim may be larger
    (pair streams draw 2n coordinates at once). A chunk equals the same rows
    sliced from a longer draw. The uniform stream jumps straight to row
    start; Halton's fast_forward draws and discards the rows before it.

    Halton streams do not depend on the seed and are memoized for the life
    of the process. The returned array is read-only.
    """
    decider = dim if base_dim is None else base_dim
    if decider <= _LOW_DISCREPANCY_MAX_DIM:
        return _halton(dim, count, start)
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(start * dim)  # one 64-bit draw per coordinate
    u = rng.random((count, dim))
    u.setflags(write=False)
    return u


@lru_cache(maxsize=_HALTON_CACHE_SIZE)
def _halton(dim: int, count: int, start: int) -> np.ndarray:
    h = qmc.Halton(d=dim, scramble=False)
    h.fast_forward(1 + start)  # the unscrambled sequence starts at the origin
    u = h.random(count)
    u.setflags(write=False)
    return u


def box_points(box: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Sample a box given as an (n, 2) array of [lo, hi] rows."""
    box = np.asarray(box, dtype=float)
    n = box.shape[0]
    u = unit_points(n, count, seed)
    return box[:, 0] + u * (box[:, 1] - box[:, 0])


def _ball_rows(
    center: np.ndarray, radius: float, count: int, seed: int, copies: int
) -> np.ndarray:
    """(count, copies, n) array of points in B(center, radius): rejection from
    the bounding box over a (copies * n)-dimensional stream, a row accepted
    only when all of its copies land in the ball."""
    if not (np.isfinite(radius) and radius > 0.0):
        # an empty ball spins to the give-up; a point ball makes checks vacuous
        raise SamplingFailedError(f"ball radius must be finite and > 0, got {radius}")
    center = np.asarray(center, dtype=float)
    n = center.shape[0]
    lo, hi = center - radius, center + radius
    # the span is hi - lo, which rounds differently from 2 * radius
    box_lo, box_span = np.tile(lo, copies), np.tile(hi - lo, copies)
    kept = [np.empty((0, copies, n))]
    got = start = 0
    # fixed-size draws keep the stream deterministic regardless of acceptance
    chunk = max((copies + 1) * count, 64)
    while got < count:
        u = unit_points(copies * n, chunk, seed, base_dim=n, start=start)
        start += chunk
        pts = (box_lo + u * box_span).reshape(chunk, copies, n)
        ok = np.all(np.linalg.norm(pts - center, axis=2) <= radius, axis=1)
        kept.append(pts[ok])
        got += int(ok.sum())
        if start > 1000 * max(count, 1):
            raise SamplingFailedError(
                f"rejection sampling drew {start} rows for {count} points in "
                f"B({center.tolist()}, {radius}) and accepted {got}"
            )
    # a read-only copy, which holds no surplus rows of the last chunk
    out = np.concatenate(kept)[:count].copy()
    out.setflags(write=False)
    return out


def ball_points(center: np.ndarray, radius: float, count: int, seed: int) -> np.ndarray:
    """count points in the closed ball B(center, radius), by rejection from
    the bounding box, as a read-only array."""
    return _ball_rows(center, radius, count, seed, 1)[:, 0]


def ball_pairs(
    center: np.ndarray, radius: float, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """count pairs (x, y), both in B(center, radius); a 2n-dimensional stream
    split in half, pairs accepted only when both halves land in the ball.
    The arrays are read-only."""
    pairs = _ball_rows(center, radius, count, seed, 2)
    return pairs[:, 0], pairs[:, 1]


def simplex_weights(k: int, depth: int) -> np.ndarray:
    """Convex-weight grid over k vertices: all lambda with components i/depth.

    Pure vertices come first (so vertex certificates are found before mixtures);
    the remaining grid points follow in lexicographic order. Grids are
    memoized by (k, depth) for the life of the process, and the returned
    array is read-only.
    """
    return _simplex_grid(int(k), max(1, int(depth)))


@lru_cache(maxsize=_SIMPLEX_CACHE_SIZE)
def _simplex_grid(k: int, depth: int) -> np.ndarray:
    rows = [np.eye(k)]
    for combo in combinations_with_replacement(range(k), depth):
        lam = np.bincount(combo, minlength=k) / depth
        if np.max(lam) < 1.0:  # pure vertices are the rows of eye(k)
            rows.append(lam[None])
    grid = np.vstack(rows)
    grid.setflags(write=False)
    return grid
