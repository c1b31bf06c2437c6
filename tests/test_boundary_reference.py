"""The array passes of the boundary layer (chord roots, boundary probes and
the continuity check at boundary roots) give exactly what the per-root loops
they replaced gave. Those loops are kept below as private references, and
every comparison is by bytes: same roots, same probe sets, same messages.

The references take switches for three mutations, and the last tests check
that each mutated reference disagrees with the package, so the problem set is
one on which a slip of that kind shows."""

import numpy as np
import pytest

from vvicert import audit, exprlang as el
from vvicert.model import (
    CONTINUITY_TOL,
    TOL_ACTIVE,
    PiecewiseVectorFn,
    _chord_roots,
    boundary_probes,
)

RADII = (0.05, 0.25, 0.5, 1.0)


# ---------------------------------------------------------------------------
# References: one Python loop per root
# ---------------------------------------------------------------------------

def _expressions_reference(f):
    return list(dict.fromkeys(
        g for piece in f.pieces for g in el.boundary_expressions(piece.region)
    ))


def _chord_roots_reference(f, start, radius, zero_case=True, expression_major=False):
    """Yields (g, d, root, first) in scan order. zero_case=False drops the
    exact-zero case of the bisection; expression_major=True scans every chord
    of one expression before the next expression."""
    start = np.asarray(start, dtype=float)
    box = f.inner_box()
    gs = _expressions_reference(f)
    seen = set()

    def emit(g, d, t):
        root = start + t * d
        key = tuple(np.round(root, 12))
        first = key not in seen
        seen.add(key)
        return g, d, root, first

    chords = []
    for axis in range(f.n):
        for sign in (1.0, -1.0):
            d = np.zeros(f.n)
            d[axis] = sign
            if sign > 0:
                tmax = min(radius, box[axis, 1] - start[axis])
            else:
                tmax = min(radius, start[axis] - box[axis, 0])
            if tmax <= 0:
                continue
            chords.append((d, tmax))
    pairs = [(d, tmax, g) for d, tmax in chords for g in gs]
    if expression_major:
        pairs = [(d, tmax, g) for g in gs for d, tmax in chords]
    for d, tmax, g in pairs:
        ts = np.linspace(0.0, tmax, 33)
        pts = start[None, :] + ts[:, None] * d[None, :]
        vals = el.evaluate_many(g, pts)
        for a in range(len(ts) - 1):
            va, vb = vals[a], vals[a + 1]
            if va == 0.0:
                yield emit(g, d, ts[a])
                continue
            if va * vb < 0.0:
                lo_t, hi_t = ts[a], ts[a + 1]
                flo = va
                for _ in range(80):
                    mid = 0.5 * (lo_t + hi_t)
                    fm = el.evaluate(g, start + mid * d)
                    if fm == 0.0 and zero_case:
                        lo_t = hi_t = mid
                        break
                    stalled = mid == lo_t or mid == hi_t
                    if flo * fm < 0.0:
                        hi_t = mid
                    else:
                        lo_t, flo = mid, fm
                    if stalled:
                        break
                yield emit(g, d, 0.5 * (lo_t + hi_t))
        if vals[-1] == 0.0:
            yield emit(g, d, ts[-1])


def _boundary_probes_reference(f, center, radius, by_bytes=True, **mutation):
    """by_bytes=False drops a probe equal in value to an earlier one."""
    center = np.asarray(center, dtype=float)
    out = []
    box = f.inner_box()
    seen = set()

    def record(point):
        point = np.clip(point, box[:, 0], box[:, 1])
        if np.linalg.norm(point - center) > radius:
            return
        key = point.tobytes() if by_bytes else tuple(point)
        if key in seen:
            return
        seen.add(key)
        out.append(point)

    for g, d, root, first in _chord_roots_reference(f, center, radius, **mutation):
        record(root)
        if not first:
            continue
        h = 1e-6
        slope = abs(el.evaluate(g, root + h * d) - el.evaluate(g, root - h * d)) / (2 * h)
        delta = (TOL_ACTIVE / 2.0) / max(slope, 1e-6)
        delta = min(delta, radius / 4.0)
        record(root - delta * d)
    if not out:
        return np.empty((0, f.n))
    arr = np.array(out)
    return arr[np.lexsort(arr.T[::-1])]


def _validate_roots_reference(f, **mutation):
    """The continuity messages of validate() at the boundary roots."""
    problems = []
    center = f.inner_box().mean(axis=1)
    radius = float(np.min(f.inner_box()[:, 1] - f.inner_box()[:, 0]) / 2)
    for _, _, root, first in _chord_roots_reference(f, center, radius, **mutation):
        if not first:
            continue
        rmask = f.active_mask(root[None, :], 0.0)[:, 0]
        vals = [
            np.array([el.evaluate(c, root) for c in f.pieces[j].components])
            for j in range(len(f.pieces))
            if rmask[j]
        ]
        for v in vals[1:]:
            if np.max(np.abs(v - vals[0])) > CONTINUITY_TOL:
                problems.append(
                    f"continuity: pieces disagree by "
                    f"{np.max(np.abs(v - vals[0])):.3e} at boundary point {root.tolist()}"
                )
                break
    return problems


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------

def _fn(domain, pieces, m=1):
    return PiecewiseVectorFn.from_dict({
        "n": len(domain), "m": m, "domain": domain,
        "pieces": [{"region": r, "components": c} for r, c in pieces],
    })


def _hand_problems(example5):
    """Instances on which each mutation of the references shows."""
    return [
        # a center of -0.0 yields the roots 0.0 and -0.0: equal in value,
        # apart in bytes
        ("example5 at -0.0", example5.f, [-0.0]),
        # the chord point 1/32 brackets the boundary 1/64, which the first
        # bisection step hits exactly
        ("dyadic boundary", _fn([[-2.0, 2.0]], [
            ("x1 <= 0.015625", ["x1"]), ("x1 >= 0.015625", ["x1"]),
        ]), [0.0]),
        # at x1 = 0.3 the second and the third active piece both disagree
        # with the first, by 1 and by 2
        ("three-piece jump", _fn([[-1.0, 1.0]], [
            ("x1 <= 0.3", ["x1", "0"]),
            ("x1 >= 0.3", ["x1 + 1", "0"]),
            ("x1 >= 0.3 and x1 <= 0.3", ["x1 + 2", "0"]),
        ], m=2), [0.0]),
        # two crossing boundaries with a jump on each: the chord +x1 meets
        # both before the chord +x2 meets the first one again
        ("crossing jumps", _fn([[-1.0, 1.0]] * 2, [
            ("x1 + x2 <= 0.5 and x1 - x2 <= 0.3", ["x1"]),
            ("x1 + x2 >= 0.5", ["x1 + 1"]),
            ("x1 - x2 >= 0.3 and x1 + x2 <= 0.5", ["x1 + 2"]),
        ]), [0.0, 0.0]),
        # n = 3: two boundary planes that cross, each met by several chords
        ("crossing in three dimensions", _fn([[-1.0, 1.0]] * 3, [
            ("x1 + x2 - x3 <= 0.2 and x1 - 2*x2 + x3 <= 0.1", ["x1*x2 - x3"]),
            ("x1 + x2 - x3 >= 0.2", ["x1*x2 - x3 + 1"]),
            ("x1 - 2*x2 + x3 >= 0.1 and x1 + x2 - x3 <= 0.2", ["x1*x2 + x3^2"]),
        ]), [0.05, -0.02, 0.03]),
        # the chord +x1 ends at the inner box, short of every radius above
        # 0.1, and meets x1 = 0.95 on the way
        ("chord clipped by the box", _fn([[-1.0, 1.0]] * 2, [
            ("x1 <= 0.95", ["x1 + x2"]), ("x1 >= 0.95", ["2*x1 + x2 - 0.95"]),
        ]), [0.9, 0.0]),
        # the center lies on the box face x1 = -1 + 1e-9: the chord -x1 has
        # length 0 and is dropped
        ("center on the box face", _fn([[-1.0, 1.0]] * 2, [
            ("x1 <= -0.97", ["x1 * x2"]), ("x1 >= -0.97", ["x1 * x2 + (x1 + 0.97)^2"]),
        ]), [-1.0 + 1e-9, 0.1]),
        # a box 80 wide, so each radius above is below 1/32 of it, with a
        # boundary 0.02 from the center
        ("radius below a grid step", _fn([[-40.0, 40.0]], [
            ("x1 <= 0.02", ["x1"]), ("x1 >= 0.02", ["3*x1 - 0.04"]),
        ]), [0.0]),
    ]


def _generated(seed, i):
    return audit.generate_instance(audit.RandomInstanceSpec(
        seed=seed, n=1 + i % 3, m=2 + i % 2, piece_count=1 + i % 3, degree=1 + i % 3,
        kernel_kind=["difference", "negNormDifference"][i % 2],
    ))


@pytest.fixture(scope="module")
def problem_set(example5, example23):
    """Both fixtures, the criterion-10 instances (seeds 0-99), the generated
    audit-matrix instances of benchmark seed 1 (seeds 1000-1059) and the
    hand instances, each as f and -f."""
    problems = [("example5", example5.f, [0.0]), ("example23", example23.f, [0.0])]
    for i in range(100):
        inst = _generated(i, i)
        problems.append((f"criterion-10 #{i}", inst.f, inst.point("x0")))
    for i in range(60):
        inst = _generated(1000 + i, i)
        problems.append((f"audit-matrix #{i}", inst.f, inst.point("x0")))
    problems += _hand_problems(example5)
    return [
        (f"{label}{suffix}", g, np.asarray(start, dtype=float))
        for label, f, start in problems
        for suffix, g in (("", f), (" (-f)", f.negated()))
    ]


def _fresh(f):
    # no probe cache shared with f or with -f
    return PiecewiseVectorFn(f.n, f.m, f.domain, f.pieces)


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

class TestAgainstTheLoops:
    def test_chord_roots(self, problem_set):
        for label, f, start in problem_set:
            for radius in RADII:
                gi, d, roots, first = _chord_roots(f, start, radius)
                want = list(_chord_roots_reference(f, start, radius))
                gs = _expressions_reference(f)
                assert len(roots) == len(want), label
                assert [gs[k] for k in gi] == [g for g, *_ in want], label
                assert d.tobytes() == np.array([w[1] for w in want]).reshape(-1, f.n).tobytes()
                assert roots.tobytes() == np.array(
                    [w[2] for w in want]).reshape(-1, f.n).tobytes(), label
                assert first.tolist() == [w[3] for w in want], label

    def test_probe_sets(self, problem_set):
        for label, f, start in problem_set:
            for radius in RADII:
                got = boundary_probes(_fresh(f), start, radius)
                want = _boundary_probes_reference(f, start, radius)
                assert got.shape == want.shape, (label, radius)
                assert got.tobytes() == want.tobytes(), (label, radius)

    def test_validate_messages(self, problem_set):
        for label, f, _ in problem_set:
            got = _fresh(f).validate()
            want = _validate_roots_reference(f)
            # the boundary messages come last, after the sampled checks
            assert got[len(got) - len(want):] == want, label
            assert not any("boundary point" in msg for msg in got[:len(got) - len(want)])

    def test_hand_instances_report_gaps(self, example5):
        messages = {label: _fresh(f).validate() for label, f, _ in _hand_problems(example5)}
        # the second active piece names the gap at x1 = 0.3, not the third
        assert messages["three-piece jump"] == [
            "continuity: pieces disagree by 1.000e+00 at boundary point [0.3]"
        ]
        # in scan order: the chord +x1 meets both boundaries first
        assert messages["crossing jumps"] == [
            f"continuity: pieces disagree by {dev} at boundary point {root}"
            for dev, root in [("1.000e+00", [0.5, 0.0]), ("2.000e+00", [0.3, 0.0]),
                              ("1.000e+00", [0.0, 0.5]), ("2.000e+00", [0.0, -0.3])]
        ]
        assert messages["example5 at -0.0"] == messages["dyadic boundary"] == []


class TestHandGeometry:
    """The hand instances above reach the chord geometry they are named for."""

    @staticmethod
    def _case(example5, label):
        f, start = {lab: (f, s) for lab, f, s in _hand_problems(example5)}[label]
        return f, np.asarray(start, dtype=float)

    def test_crossing_in_three_dimensions(self, example5):
        f, start = self._case(example5, "crossing in three dimensions")
        gi, d, roots, _ = _chord_roots(f, start, 1.0)
        assert f.n == 3 and len(roots) >= 4
        # roots of both crossing planes, on chords of every axis
        assert set(gi.tolist()) >= {0, 1}
        assert np.abs(d).sum(axis=0).all()

    def test_chord_clipped_by_the_box(self, example5):
        f, start = self._case(example5, "chord clipped by the box")
        reach = f.inner_box()[0, 1] - start[0]
        for radius in RADII[1:]:
            assert reach < radius
            _, d, roots, _ = _chord_roots(f, start, radius)
            assert roots[d[:, 0] > 0, 0].tolist() == pytest.approx([0.95])
            assert boundary_probes(_fresh(f), start, radius)[:, 0].max() <= f.inner_box()[0, 1]

    def test_center_on_the_box_face(self, example5):
        f, start = self._case(example5, "center on the box face")
        assert start[0] == f.inner_box()[0, 0]
        for radius in RADII:
            _, d, roots, _ = _chord_roots(f, start, radius)
            assert not (d[:, 0] < 0).any()
        assert roots[d[:, 0] > 0, 0].tolist() == pytest.approx([-0.97])

    def test_radius_below_a_grid_step(self, example5):
        f, start = self._case(example5, "radius below a grid step")
        width = f.domain[0, 1] - f.domain[0, 0]
        for radius in RADII:
            assert radius < width / 32
            _, _, roots, _ = _chord_roots(f, start, radius)
            assert roots[:, 0].tolist() == pytest.approx([0.02])


class TestMutantsShow:
    """Each mutated reference disagrees with the faithful one on some hand
    instance, so the comparisons above would catch that slip."""

    @staticmethod
    def _outputs(f, start, by_bytes=True, **scan):
        probes = [
            _boundary_probes_reference(f, start, r, by_bytes, **scan).tobytes() for r in RADII
        ]
        return probes, _validate_roots_reference(f, **scan)

    @pytest.mark.parametrize("mutation", [
        {"zero_case": False},
        {"by_bytes": False},
        {"expression_major": True},
    ], ids=["bisection-without-zero-case", "dedupe-by-value", "expression-major-scan"])
    def test_mutant_disagrees(self, example5, mutation):
        differs = [
            label
            for label, f, start in _hand_problems(example5)
            if self._outputs(f, start, **mutation) != self._outputs(f, start)
        ]
        assert differs
