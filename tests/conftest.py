"""Shared fixtures: the published worked-example data."""

import pytest

from sl2betti.poly import GradedRing, parse_polynomial

PAPER_WEIGHTS = (3, 3, 2, 3, 2, 3, 3, 2, 2, 3)


def tuple_weighted_key(weights):
    """Reference for the weighted order as tuples: weighted degree, then
    reverse lexicographic."""
    return lambda m: (sum(e * w for e, w in zip(m, weights)),) + tuple(-e for e in reversed(m))

# ten relation generators of the worked 3V1+V2 example, in x1..x10
J_TEXT = [
    "-x5*x7 + x6*x8 + x9*x10",
    "x5*x6 - x2*x8 - x1*x9",
    "-x1*x8 + x4*x9 + x5*x10",
    "-x6^2 + x2*x7 - 1/2*x3*x9^2",
    "-x4*x6 - 1/2*x3*x5*x8 - x1*x10",
    "-x1*x6 - 1/2*x3*x5*x9 + x2*x10",
    "-x1*x7 - 1/2*x3*x8*x9 + x6*x10",
    "-x1^2 - x2*x4 - 1/2*x3*x5^2",
    "-x4*x7 - 1/2*x3*x8^2 - x10^2",
    "x2*x4*x8 + 1/2*x3*x5^2*x8 + x1*x4*x9 + x1*x5*x10",
]

# ten minimal generating invariants of 3V1+V2 as published, coefficient ring
# x0 x1 y0 y1 u0 u1 v0 v1 v2
L_TEXT = [
    "-x0*u1*v1 + x0*u0*v2 - x1*u0*v1 + x1*u1*v0",
    "-2*u0*u1*v1 + u0^2*v2 + u1^2*v0",
    "-2*v1^2 + 2*v0*v2",
    "-x1^2*v0 - x0^2*v2 + 2*x0*x1*v1",
    "-x0*u1 + x1*u0",
    "y1*u1*v0 - y1*u0*v1 - y0*u1*v1 + y0*u0*v2",
    "y1^2*v0 - 2*y0*y1*v1 + y0^2*v2",
    "-x0*y1 + x1*y0",
    "-y0*u1 + y1*u0",
    "x0*y0*v2 - x0*y1*v1 - x1*y0*v1 + x1*y1*v0",
]

WORKED_BETTI = {
    (0, 0): 1,
    (1, 5): 3,
    (1, 6): 6,
    (2, 8): 8,
    (2, 9): 8,
    (3, 11): 6,
    (3, 12): 3,
    (4, 17): 1,
}


@pytest.fixture(scope="session")
def paper_ring():
    return GradedRing(tuple(f"x{i}" for i in range(1, 11)), PAPER_WEIGHTS)


@pytest.fixture(scope="session")
def paper_J(paper_ring):
    return [parse_polynomial(s, paper_ring) for s in J_TEXT]


@pytest.fixture(scope="session")
def paper_L_ring():
    return GradedRing(
        ("x0", "x1", "y0", "y1", "u0", "u1", "v0", "v1", "v2"), (1,) * 9
    )


@pytest.fixture(scope="session")
def paper_L(paper_L_ring):
    return [parse_polynomial(s, paper_L_ring) for s in L_TEXT]
