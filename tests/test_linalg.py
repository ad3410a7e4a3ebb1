"""Exact sparse elimination tests."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2betti import linalg
from sl2betti.linalg import Echelon, nullspace, primitive

P0 = (1 << 61) - 1  # the first modulus of the modular nullspace


def reference_nullspace(rows, columns, stop_rank=None):
    """The fraction-free nullspace the modular one replaced: Echelon rows,
    back-substitution in Fractions, one vector per free column."""
    ech = Echelon()
    for r in rows:
        ech.add(r)
        if stop_rank is not None and ech.rank >= stop_rank:
            break
    pivots = sorted(ech.rows)
    basis = []
    for f in columns:
        if f in ech.rows:
            continue
        x = {f: Fraction(1)}
        for p in reversed(pivots):
            row = ech.rows[p]
            s = sum((c * x[k] for k, c in row.items() if k != p and k in x), Fraction(0))
            if s:
                x[p] = -s / row[p]
        basis.append(primitive(x, min(x))[0])
    return basis


@pytest.fixture()
def primes_used(monkeypatch):
    """The moduli of every modular elimination, with its rows read."""
    calls = []
    kernel_mod = linalg._kernel_mod

    def spy(rows, columns, stop_rank, p):
        out = kernel_mod(rows, columns, stop_rank, p)
        calls.append((p, out[2]))
        return out

    monkeypatch.setattr(linalg, "_kernel_mod", spy)
    return calls


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
        assert basis == reference_nullspace(rows, range(ncols))
        ech = Echelon()
        for r in rows:
            ech.add(r)
        assert ech.rank + len(basis) == ncols
        for v in basis:
            for r in rows:
                assert sum(r.get(j, 0) * v.get(j, 0) for j in set(r) | set(v)) == 0


def _random_rows(rng, nrows, ncols, bits, rank):
    """nrows integer rows spanned by `rank` random rows (so of that rank for
    these seeds), entries of about `bits` bits, shuffled."""
    base = [
        {j: rng.randint(-(1 << bits), 1 << bits) for j in range(ncols) if rng.random() < 0.8}
        for _ in range(rank)
    ]
    rows = list(base)
    while len(rows) < nrows:
        a, b = rng.sample(base, 2)
        u, v = rng.randint(-9, 9), rng.randint(-9, 9)
        row = {j: u * a.get(j, 0) + v * b.get(j, 0) for j in set(a) | set(b)}
        rows.append({j: c for j, c in row.items() if c})
    rng.shuffle(rows)
    return [r for r in rows if r]


def test_large_entries_need_several_primes(primes_used):
    rng = random.Random(5)
    for _ in range(6):
        rank = rng.randint(2, 4)
        ncols = rank + rng.randint(1, 3)
        rows = _random_rows(rng, rank + 2, ncols, 200, rank)
        got = nullspace(rows, range(ncols))
        assert got == reference_nullspace(rows, range(ncols))
        # kernel entries are rank x rank minors, far beyond one 61-bit prime
        assert len(primes_used) > 2
        assert max(abs(c) for v in got for c in v.values()).bit_length() > 200
        primes_used.clear()


def test_singular_modulo_first_prime_retries(primes_used):
    # det = P0: full rank over Q, rank 1 modulo the first prime
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1 + P0}]
    assert nullspace(rows, range(2)) == []
    assert [p for p, _ in primes_used][:1] == [P0] and len(primes_used) == 2
    primes_used.clear()
    # the first prime moves the pivot from column 0 to column 1
    rows = [{0: P0, 1: 1, 2: 3}, {1: 2, 2: 5}]
    got = nullspace(rows, range(3))
    assert got == reference_nullspace(rows, range(3))
    assert got == [{0: 1, 1: 5 * P0, 2: -2 * P0}]
    assert len(primes_used) > 1


@pytest.mark.parametrize("reached", [True, False])
def test_stop_rank(reached, primes_used):
    rng = random.Random(7 + reached)
    for _ in range(5):
        rank, ncols = 3, 6
        rows = _random_rows(rng, 8, ncols, 30, rank)
        stop = rank if reached else rank + 1
        got = nullspace(rows, range(ncols), stop_rank=stop)
        assert got == reference_nullspace(rows, range(ncols))
        assert got == reference_nullspace(rows, range(ncols), stop_rank=stop)
        # the rows read stop at the bound, or run out without reaching it
        assert all((used < len(rows)) == reached for _, used in primes_used)
        primes_used.clear()


def test_primes_are_the_primes_from_2_61():
    gen = linalg._primes()
    got = [next(gen) for _ in range(4)]
    assert got == [P0, P0 + 16, P0 + 22, P0 + 58]
    assert [n for n in range(1, 60) if linalg._is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
    ]
    # strong pseudoprimes to several small bases
    assert not linalg._is_prime(3215031751)
    assert not linalg._is_prime(3825123056546413051)
