"""Deterministic sample streams: low-discrepancy for small dimension, seeded
uniform otherwise; ball sampling by rejection from the bounding box.

Every stream is a pure function of its arguments, so identical plans expand
to identical sample sequences (the reproducibility contract of the checkers).
"""

from __future__ import annotations

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


def unit_points(
    dim: int, count: int, seed: int, base_dim: int | None = None, start: int = 0
) -> np.ndarray:
    """Rows start, ..., start + count - 1 of a stream of points in [0,1)^dim.
    Halton (unscrambled, skipping the origin) when the underlying problem
    dimension is <= 3, otherwise seeded uniform.

    base_dim is the problem dimension driving the choice; dim may be larger
    (pair streams draw 2n coordinates at once). Both streams jump straight to
    row start, so a chunk equals the same rows sliced from a longer draw.
    """
    decider = dim if base_dim is None else base_dim
    if decider <= _LOW_DISCREPANCY_MAX_DIM:
        h = qmc.Halton(d=dim, scramble=False)
        h.fast_forward(1 + start)  # the unscrambled sequence starts at the origin
        return h.random(count)
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(start * dim)  # one 64-bit draw per coordinate
    return rng.random((count, dim))


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
    return np.concatenate(kept)[:count]


def ball_points(center: np.ndarray, radius: float, count: int, seed: int) -> np.ndarray:
    """count points in the closed ball B(center, radius), by rejection from
    the bounding box."""
    return _ball_rows(center, radius, count, seed, 1)[:, 0]


def ball_pairs(
    center: np.ndarray, radius: float, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """count pairs (x, y), both in B(center, radius); a 2n-dimensional stream
    split in half, pairs accepted only when both halves land in the ball."""
    pairs = _ball_rows(center, radius, count, seed, 2)
    return pairs[:, 0], pairs[:, 1]


def simplex_weights(k: int, depth: int) -> np.ndarray:
    """Convex-weight grid over k vertices: all lambda with components i/depth.

    Pure vertices come first (so vertex certificates are found before mixtures);
    the remaining grid points follow in lexicographic order.
    """
    if k == 1:
        return np.ones((1, 1))
    depth = max(1, int(depth))
    vertices = np.eye(k)
    rows = []
    for combo in combinations_with_replacement(range(k), depth):
        lam = np.bincount(combo, minlength=k) / depth
        if np.max(lam) == 1.0:
            continue  # pure vertex already listed
        rows.append(lam)
    if rows:
        return np.vstack([vertices, np.array(rows)])
    return vertices
