import itertools

import numpy as np
import pytest
from hypothesis import settings

from vvicert import audit
from vvicert.certify import SamplingPlan
from vvicert.cli import load_problem

# every property test replays the same examples, with no time limit and no
# example database; a test sets only its max_examples
settings.register_profile("vvicert", derandomize=True, deadline=None, database=None)
settings.load_profile("vvicert")


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
    the 100 generated instances of `vvicert audit --generated 100 --seed 0`."""
    return [(example5, "xi"), (example23, "x0")] + audit.generated_instances(100, 0)


def cross_cone(m) -> tuple:
    """The cross cone {v : |v_i| <= v_m for i < m}: its 2(m - 1) normals
    (rows) and its 2^(m - 1) extreme rays (columns), neither normalized."""
    normals = np.zeros((2 * (m - 1), m))
    normals[:, -1] = 1.0
    for i in range(m - 1):
        normals[2 * i, i], normals[2 * i + 1, i] = 1.0, -1.0
    rays = np.array([s + (1.0,) for s in itertools.product((1.0, -1.0), repeat=m - 1)]).T
    return normals, rays


# the payload-producing commands of acceptance criterion 11
CRITERION_11_COMMANDS = [
    ["jacobian", "--problem", "example5", "--at", "0"],
    ["check", "vvi", "--variant", "svvi", "--problem", "example5", "--at", "0",
     "--samples", "2000"],
    ["check", "efficiency", "--problem", "example5", "--at", "0",
     "--e", "0.5,0.5", "--r", "0.25", "--samples", "2000"],
    ["check", "invex", "--class", "pseudo2", "--problem", "example5",
     "--at", "0", "--r", "0.5", "--e", "0.5,0.5", "--samples", "2000"],
    ["check", "invex", "--class", "invex", "--problem", "example23",
     "--at", "0", "--e", "0.5,0.5", "--r", "0.25", "--kernel", "difference",
     "--samples", "2000"],
    ["check", "critical", "--problem", "example5", "--at", "0"],
    ["audit", "--rules", "all", "--problem", "example5", "--at", "0",
     "--samples", "800"],
    ["gen", "--seed", "5"],
]


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
