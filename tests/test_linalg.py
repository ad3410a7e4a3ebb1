"""Exact sparse elimination tests."""

import random
from fractions import Fraction

from sl2betti.linalg import Echelon, intify, nullspace


def test_intify_clears_denominators():
    assert intify({0: Fraction(1, 2), 3: Fraction(-2, 3)}) == {0: 3, 3: -4}
    assert intify({1: Fraction(0)}) == {}


def test_echelon_rank_and_membership():
    e = Echelon()
    assert e.add({0: 1, 1: 2}) is not None
    assert e.add({1: 1, 2: 1}) is not None
    assert e.add({0: 1, 1: 4, 2: 2}) is None  # dependent
    assert e.rank == 2
    assert e.contains({0: 2, 1: 4})
    assert not e.contains({2: 5, 3: 1})


def test_echelon_scaling_bug_regression():
    # reduction must scale the whole vector, not only the pivot's support
    e = Echelon()
    e.add({0: 2, 1: 1})
    rem = e.reduce({0: 1, 2: 1})
    # 2*(1,0,1) - 1*(2,1,0) = (0,-1,2), normalized to leftmost-positive
    assert rem == {1: 1, 2: -2}


def test_nullspace_known_kernel():
    # x + y + z = 0, y - z = 0  ->  kernel spanned by (2, -1, -1)... over Q: x = -2t? solve:
    rows = [{0: 1, 1: 1, 2: 1}, {1: 1, 2: -1}]
    basis = nullspace(rows, range(3))
    assert len(basis) == 1
    (v,) = basis
    # v satisfies both rows
    assert v[0] + v[1] + v[2] == 0
    assert v[1] - v[2] == 0


def test_nullspace_full_rank():
    rows = [{0: 1}, {1: 3}]
    assert nullspace(rows, range(2)) == []


def test_random_nullspace_annihilates():
    rng = random.Random(11)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = []
        for _ in range(nrows):
            row = {
                j: rng.randint(-4, 4)
                for j in range(ncols)
                if rng.random() < 0.6
            }
            rows.append({k: v for k, v in row.items() if v})
        basis = nullspace(rows, range(ncols))
        ech = Echelon()
        for r in rows:
            ech.add(r)
        assert ech.rank + len(basis) == ncols
        for v in basis:
            for r in rows:
                assert sum(r.get(j, 0) * v.get(j, 0) for j in set(r) | set(v)) == 0

