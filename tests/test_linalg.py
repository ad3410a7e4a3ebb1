"""Exact sparse elimination tests."""

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from sl2betti.linalg import Echelon, nullspace, primitive


def test_primitive_clears_denominators():
    assert primitive({0: Fraction(1, 2), 3: Fraction(-2, 3)}) == ({0: 3, 3: -4}, (6, 1))
    assert primitive({1: Fraction(0)}) == ({}, (1, 1))


def test_primitive_integer_row_is_returned_as_is():
    row = {0: 3, 2: -5}
    ints, scale = primitive(row, 0)
    assert ints is row and scale == (1, 1)
    assert primitive({0: -4, 1: 6}, 0) == ({0: 2, 1: -3}, (1, -2))
    assert primitive({0: 0, 1: 6}) == ({1: 1}, (1, 6))


_values = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=50).filter(lambda f: abs(f) < 10**6),
)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(0, 9), _values, max_size=8), st.data())
def test_primitive_contract(vec, data):
    nonzero = [k for k, v in vec.items() if v]
    lead = data.draw(st.sampled_from([None] + nonzero))
    ints, (den, g) = primitive(vec, lead)
    assert set(ints) == set(nonzero)
    assert den > 0 and g != 0
    for k, c in ints.items():
        assert type(c) is int
        assert c == vec[k] * Fraction(den, g)
    if ints:
        assert gcd(*ints.values()) == 1
        if lead is None:
            assert all((c > 0) == (vec[k] > 0) for k, c in ints.items())
        else:
            assert ints[lead] > 0
    assert primitive(ints, lead) == (ints, (1, 1))


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

