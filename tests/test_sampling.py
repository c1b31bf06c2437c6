import time

import numpy as np
import pytest
from scipy.stats import qmc

from vvicert import audit, sampling
from vvicert.certify import SamplingPlan
from vvicert.errors import SamplingFailedError


def _reference_ball_points(center, radius, count, seed):
    """The former ball sampler: every chunk sliced from a redrawn prefix."""
    center = np.asarray(center, dtype=float)
    n = center.shape[0]
    box = np.stack([center - radius, center + radius], axis=1)
    out = np.empty((0, n))
    offset = 0
    chunk = max(2 * count, 64)
    while out.shape[0] < count:
        u = sampling.unit_points(n, offset + chunk, seed)[offset:]
        offset += chunk
        pts = box[:, 0] + u * (box[:, 1] - box[:, 0])
        out = np.vstack([out, pts[np.linalg.norm(pts - center, axis=1) <= radius]])
    return out[:count]


def _reference_ball_pairs(center, radius, count, seed):
    """The former pair sampler, in the same prefix-redrawing form."""
    center = np.asarray(center, dtype=float)
    n = center.shape[0]
    box = np.stack([center - radius, center + radius], axis=1)
    lo = np.concatenate([box[:, 0], box[:, 0]])
    span = np.concatenate([box[:, 1] - box[:, 0], box[:, 1] - box[:, 0]])
    xs = np.empty((0, n))
    ys = np.empty((0, n))
    offset = 0
    chunk = max(3 * count, 64)
    while xs.shape[0] < count:
        u = sampling.unit_points(2 * n, offset + chunk, seed, base_dim=n)[offset:]
        offset += chunk
        pts = lo + u * span
        x, y = pts[:, :n], pts[:, n:]
        ok = (np.linalg.norm(x - center, axis=1) <= radius) & (
            np.linalg.norm(y - center, axis=1) <= radius
        )
        xs = np.vstack([xs, x[ok]])
        ys = np.vstack([ys, y[ok]])
    return xs[:count], ys[:count]


class TestStreams:
    def test_unit_points_deterministic(self):
        a = sampling.unit_points(2, 64, seed=1)
        b = sampling.unit_points(2, 64, seed=1)
        assert np.array_equal(a, b)

    def test_low_discrepancy_skips_origin(self):
        pts = sampling.unit_points(1, 8, seed=0)
        assert np.all(pts > 0)

    def test_uniform_path_for_high_dimension(self):
        a = sampling.unit_points(5, 32, seed=3)
        b = sampling.unit_points(5, 32, seed=4)
        assert not np.array_equal(a, b)

    def test_prefix_property(self):
        short = sampling.unit_points(2, 50, seed=0)
        long = sampling.unit_points(2, 200, seed=0)
        assert np.array_equal(short, long[:50])

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_halton_start_equals_slice(self, dim):
        for start, count in [(0, 5), (1, 64), (37, 100), (640, 333)]:
            got = sampling.unit_points(dim, count, 0, base_dim=1, start=start)
            want = sampling.unit_points(dim, start + count, 0, base_dim=1)[start:]
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [4, 8, 16])
    def test_uniform_start_equals_slice(self, dim):
        for seed in (0, 42):
            for start, count in [(0, 5), (1, 64), (37, 100), (640, 333)]:
                got = sampling.unit_points(dim, count, seed, start=start)
                want = sampling.unit_points(dim, start + count, seed)[start:]
                assert got.tobytes() == want.tobytes()


def _uncached_unit_points(dim, count, seed, base_dim, start):
    """The stream drawn anew: Halton or PCG64 straight from its definition."""
    if base_dim <= 3:
        h = qmc.Halton(d=dim, scramble=False)
        h.fast_forward(1 + start)
        return h.random(count)
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(start * dim)
    return rng.random((count, dim))


class TestStreamMemo:
    @pytest.mark.parametrize(
        "dim,base_dim", [(1, 1), (2, 2), (3, 3), (4, 2), (5, 3), (6, 3), (4, 4), (8, 4), (16, 8)]
    )
    def test_memo_equals_uncached_draws(self, dim, base_dim):
        for start in (0, 1, 37, 2500):
            for count in (1, 2, 3, 64, 999, 3000):
                want = _uncached_unit_points(dim, count, 7, base_dim, start)
                for _ in range(2):  # a miss, then a hit
                    got = sampling.unit_points(dim, count, 7, base_dim=base_dim, start=start)
                    assert got.tobytes() == want.tobytes()

    def test_result_is_read_only(self):
        for dim in (2, 5):
            u = sampling.unit_points(dim, 10, 0)
            with pytest.raises(ValueError):
                u[0, 0] = 0.5

    def test_halton_ignores_seed_uniform_keeps_it(self):
        a, b = sampling.unit_points(3, 50, 1), sampling.unit_points(3, 50, 2)
        assert a is b
        a, b = sampling.unit_points(4, 50, 1), sampling.unit_points(4, 50, 2)
        assert not np.array_equal(a, b)

    def test_audit_builds_each_halton_stream_once(self, example5, example23, monkeypatch):
        real = qmc.Halton
        built = []

        class CountingHalton:
            def __init__(self, d, scramble):
                self._h, self._key = real(d=d, scramble=scramble), [d]

            def fast_forward(self, k):
                self._key.append(k - 1)
                self._h.fast_forward(k)

            def random(self, count):
                d, start = self._key
                built.append((d, count, start))
                return self._h.random(count)

        monkeypatch.setattr(sampling.qmc, "Halton", CountingHalton)
        sampling._halton.cache_clear()
        plan = SamplingPlan(ball_sample_count=300, pair_sample_count=300)
        audit.run_matrix(sorted(audit.RULES), [(example5, "xi"), (example23, "x0")], plan)
        assert len(built) > 1
        assert len(built) == len(set(built))
        assert sampling._halton.cache_info().hits > len(built)


class TestBallSampling:
    def test_points_inside_ball(self):
        center = np.array([0.5, -0.25])
        pts = sampling.ball_points(center, 0.3, 500, seed=0)
        assert pts.shape == (500, 2)
        assert np.all(np.linalg.norm(pts - center, axis=1) <= 0.3 + 1e-12)

    def test_ball_prefix_extension(self):
        center = np.zeros(1)
        short = sampling.ball_points(center, 0.5, 100, seed=2)
        long = sampling.ball_points(center, 0.5, 400, seed=2)
        assert np.array_equal(short, long[:100])

    def test_pairs_both_inside(self):
        center = np.zeros(2)
        xs, ys = sampling.ball_pairs(center, 0.4, 300, seed=1)
        assert xs.shape == ys.shape == (300, 2)
        assert np.all(np.linalg.norm(xs, axis=1) <= 0.4 + 1e-12)
        assert np.all(np.linalg.norm(ys, axis=1) <= 0.4 + 1e-12)

    def test_pairs_deterministic(self):
        a = sampling.ball_pairs(np.zeros(1), 0.25, 100, seed=7)
        b = sampling.ball_pairs(np.zeros(1), 0.25, 100, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_streaming_matches_prefix_redraw(self, n):
        rng = np.random.default_rng(n)
        counts = (1, 37, 1000) if n <= 4 else (1, 37, 300)
        for radius in (1e-3, 0.05, 0.25, 0.5):
            center = rng.uniform(-1.0, 1.0, n)
            for count in counts:
                for seed in (0, 42):
                    got = sampling.ball_points(center, radius, count, seed)
                    want = _reference_ball_points(center, radius, count, seed)
                    assert got.tobytes() == want.tobytes()
                    gx, gy = sampling.ball_pairs(center, radius, count, seed)
                    wx, wy = _reference_ball_pairs(center, radius, count, seed)
                    assert gx.tobytes() == wx.tobytes()
                    assert gy.tobytes() == wy.tobytes()

    @pytest.mark.parametrize("radius", [-0.5, 0.0, float("nan")])
    def test_empty_or_point_ball_refused_at_once(self, radius):
        start = time.perf_counter()
        with pytest.raises(SamplingFailedError):
            sampling.ball_points(np.zeros(1), radius, 1000, 42)
        with pytest.raises(SamplingFailedError):
            sampling.ball_pairs(np.zeros(2), radius, 1000, 42)
        assert time.perf_counter() - start < 1.0

    def test_stalled_rejection_raises_toolkit_error(self):
        # in 16 dimensions almost no pair of the bounding box lands in the ball
        start = time.perf_counter()
        with pytest.raises(SamplingFailedError):
            sampling.ball_pairs(np.zeros(8), 0.25, 200, 42)
        assert time.perf_counter() - start < 1.0


class TestSimplexGrid:
    def test_vertices_first(self):
        w = sampling.simplex_weights(3, 4)
        assert np.array_equal(w[:3], np.eye(3))

    def test_rows_are_convex_weights(self):
        w = sampling.simplex_weights(4, 5)
        assert np.all(w >= 0)
        assert np.allclose(w.sum(axis=1), 1.0)

    def test_grid_size_two_vertices_depth_eight(self):
        # compositions of 8 into 2 parts: 9 points, vertices included once
        assert sampling.simplex_weights(2, 8).shape == (9, 2)

    def test_single_vertex(self):
        assert np.array_equal(sampling.simplex_weights(1, 8), np.ones((1, 1)))

    def test_memoized_grid_matches_a_fresh_build_and_is_read_only(self):
        for k, depth in ((1, 8), (2, 8), (3, 8), (4, 5), (3, 1)):
            fresh = sampling._simplex_grid.__wrapped__(k, depth)
            w = sampling.simplex_weights(k, depth)
            assert np.array_equal(w, fresh) and w.dtype == fresh.dtype
            assert sampling.simplex_weights(k, depth) is w
            with pytest.raises(ValueError):
                w[0, 0] = 0.5
