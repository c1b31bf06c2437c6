import numpy as np
import pytest

from vvicert import audit
from vvicert.certify import SamplingPlan
from vvicert.cli import load_problem


@pytest.fixture(scope="session")
def example5():
    return load_problem("example5")


@pytest.fixture(scope="session")
def example23():
    return load_problem("example23")


@pytest.fixture()
def light_plan():
    # enough sampling to exercise every code path while keeping the suite fast
    return SamplingPlan(ball_sample_count=1500, pair_sample_count=1500)


@pytest.fixture(scope="session")
def linear_problem():
    """f(x) = (x, x) on a single piece, the running linear counterexample."""
    from vvicert.problem import Problem

    return Problem.from_dict(
        {
            "version": "vvicert/1",
            "name": "linear",
            "n": 1,
            "m": 2,
            "domain": [[-2.0, 2.0]],
            "pieces": [{"region": "0 <= 1", "components": ["x1", "x1"]}],
            "cone": {"orthant": 2},
            "kernel": {"kind": "difference"},
            "e": [0.1, 0.1],
            "points": {"xi": [0.0]},
        },
        name="linear",
    )


def criterion_10_instances(example5, example23) -> list:
    """(problem, point) pairs of the criterion-10 audit: both fixtures and
    100 generated instances in a rotation of shapes and kernels."""
    instances = [(example5, "xi"), (example23, "x0")]
    for i in range(100):
        spec = audit.RandomInstanceSpec(
            seed=i,
            n=1 + i % 3,
            m=2 + i % 2,
            piece_count=1 + i % 3,
            degree=1 + i % 3,
            kernel_kind=["difference", "negNormDifference"][i % 2],
        )
        inst = audit.generate_instance(spec)
        instances.append((inst, inst.point("x0")))
    return instances


def random_smooth_expr(rng: np.random.Generator, dim: int, depth: int = 3):
    """Random rational expression text, pole-free on [-1, 1]^dim."""
    def term():
        kind = rng.integers(0, 3)
        if kind == 0:
            return f"{round(float(rng.uniform(-2, 2)), 2)}"
        j = int(rng.integers(1, dim + 1))
        if kind == 1:
            return f"x{j}"
        return f"x{j}^{int(rng.integers(2, 4))}"

    def build(d):
        if d == 0:
            return term()
        op = rng.integers(0, 4)
        a, b = build(d - 1), build(d - 1)
        if op == 0:
            return f"({a} + {b})"
        if op == 1:
            return f"({a} - {b})"
        if op == 2:
            return f"({a})*({b})"
        # denominators of the form (c + xj^2) stay away from zero on the box
        j = int(rng.integers(1, dim + 1))
        c = round(float(rng.uniform(1.5, 3.0)), 2)
        return f"({a})/({c} + x{j}^2)"

    return build(depth)
