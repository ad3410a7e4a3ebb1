"""Exact sparse elimination tests."""

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import islice
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2betti import linalg
from sl2betti.linalg import Echelon, nullspace, primitive

P0 = (1 << 80) + 13  # the first modulus of the modular nullspace


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


def reference_kernel_mod(rows, columns, stop_rank, p):
    """The modular elimination with the working row kept in a dict, as
    `linalg._kernel_mod` was before its row became a dense list."""
    tails = {}
    used = 0
    for used, r in enumerate(rows, 1):
        v = dict(r)
        heap = list(v)
        heapify(heap)
        while heap:
            c0 = heappop(heap)
            f = v.pop(c0) % p
            if not f:
                continue
            tail = tails.get(c0)
            if tail is None:
                inv = pow(f, -1, p)
                tails[c0] = {k: c * inv % p for k, c in v.items() if c % p}
                break
            for k, c in tail.items():
                if k in v:
                    v[k] -= f * c
                else:
                    v[k] = -f * c
                    heappush(heap, k)
        if stop_rank is not None and len(tails) >= stop_rank:
            break
    pivots = sorted(tails)
    kernel = []
    for f in columns:
        if f in tails:
            continue
        x = {f: 1}
        for c in reversed([c for c in pivots if c < f]):
            s = sum(t * x[k] for k, t in tails[c].items() if k in x) % p
            if s:
                x[c] = p - s
        kernel.append(x)
    return pivots, kernel, used


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


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_nullspace_ignores_row_order(data):
    # rows spanned by a few random ones, so kernels are often nonzero
    ncols = data.draw(st.integers(1, 7))
    row = st.dictionaries(st.integers(0, ncols - 1), st.integers(-9, 9), max_size=ncols)
    base = data.draw(st.lists(row, min_size=1, max_size=4))
    mix = st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base))
    rows = []
    for coeffs in data.draw(st.lists(mix, min_size=1, max_size=7)):
        combo = {}
        for u, r in zip(coeffs, base):
            for j, c in r.items():
                combo[j] = combo.get(j, 0) + u * c
        rows.append({j: c for j, c in combo.items() if c})
    permuted = data.draw(st.permutations(rows))
    ech = Echelon()
    for r in rows:
        ech.add(r)
    for stop in (None, ech.rank):
        got = nullspace(permuted, range(ncols), stop_rank=stop)
        assert got == nullspace(rows, range(ncols), stop_rank=stop)
        assert got == reference_nullspace(rows, range(ncols))


def test_pivot_brought_in_by_elimination():
    # the second row lacks column 2 until the first row's tail brings it in,
    # and then column 2 is its pivot
    rows = [{0: 1, 2: 1}, {0: 1, 3: 1}]
    pivots, _, used = linalg._kernel_mod(rows, range(4), None, P0)
    assert pivots == [0, 2] and used == 2
    for stop in (None, 2):
        got = nullspace(rows, range(4), stop_rank=stop)
        assert got == reference_nullspace(rows, range(4), stop_rank=stop)
        assert got == [{1: 1}, {0: 1, 2: -1, 3: -1}]


_entries = st.integers(-9, 9).filter(bool)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_certificate_agrees_with_pairwise_definition(data):
    ncols = data.draw(st.integers(1, 6))
    row = st.dictionaries(st.integers(0, ncols - 1), _entries, max_size=ncols)
    rows = data.draw(st.lists(row, min_size=1, max_size=5))
    basis = reference_nullspace(rows, range(ncols))
    # bad vectors among the good ones: one, or one and its negative, whose
    # products cancel in any sum taken across vectors
    bad = data.draw(st.dictionaries(st.integers(0, ncols - 1), _entries, min_size=1))
    for v in data.draw(st.sampled_from([[], [bad], [bad, {k: -c for k, c in bad.items()}]])):
        basis.insert(data.draw(st.integers(0, len(basis))), v)
    # rows that share no column with the basis
    far = st.dictionaries(st.integers(ncols, ncols + 3), _entries)
    rows = data.draw(st.permutations(rows + data.draw(st.lists(far, max_size=2))))
    pairwise = all(sum(r.get(k, 0) * v[k] for k in v) == 0 for r in rows for v in basis)
    assert linalg._annihilates_all(rows, basis) == pairwise


def test_primes_are_the_primes_from_2_80():
    gen = linalg._primes()
    got = [next(gen) for _ in range(4)]
    assert got == [P0, P0 + 72, P0 + 222, P0 + 240]
    assert [n for n in range(1, 60) if linalg._is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
    ]
    # strong pseudoprimes to several small bases
    assert not linalg._is_prime(3215031751)
    assert not linalg._is_prime(3825123056546413051)


def test_is_prime_exact_to_its_bound():
    # the smallest strong pseudoprime to the bases 2..37 (Sorenson-Webster)
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    assert not linalg._is_prime(n)
    assert linalg._is_prime(399165290221) and linalg._is_prime(798330580441)


def test_primes_are_found_once(monkeypatch):
    first = list(islice(linalg._primes(), 3))

    def searched(n):
        raise AssertionError("the primes were searched again")

    monkeypatch.setattr(linalg, "_is_prime", searched)
    assert list(islice(linalg._primes(), 3)) == first


def test_entries_up_to_39_bits_need_one_prime(primes_used):
    rng = random.Random(3)
    for bits in range(32, 40):
        a = rng.randrange(1 << (bits - 1), 1 << bits)
        b = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        a //= gcd(a, b)
        rows = [{0: a, 1: b}, {0: 3 * a, 1: 3 * b}]
        got = nullspace(rows, range(2))
        assert got == reference_nullspace(rows, range(2)) == [{0: b, 1: -a}]
        assert max(a, b).bit_length() >= 32
        assert len(primes_used) == 1
        primes_used.clear()


@pytest.mark.parametrize("rows, columns", [
    ([{0: 1, 3: 2}], range(3)),
    ([{0: 1}, {-1: 1}], range(3)),
    ([{1: 1}], [0, 2]),
    ([{0: 1}], [-1, 0]),
])
def test_entry_outside_columns_raises(rows, columns):
    with pytest.raises(ValueError):
        nullspace(rows, columns)


def test_column_cancelled_and_refilled():
    # in the third row, column 2 cancels to 0 under pivot 0's tail, then
    # pivot 1's tail fills it again, and it becomes the pivot
    rows = [{0: 1, 1: 1, 2: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]
    for stop in (None, 3):
        got = linalg._kernel_mod(rows, range(4), stop, P0)
        assert got == reference_kernel_mod(rows, range(4), stop, P0)
        assert got == ([0, 1, 2], [{3: 1}], 3)


_small_primes = st.sampled_from([2, 3, 5, 7, 101, P0])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_mod_matches_dict_reference(data):
    # small entries, so that columns cancel to exactly 0 and are refilled
    ncols = data.draw(st.integers(1, 8))
    row = st.dictionaries(st.integers(0, ncols - 1), st.integers(-2, 2).filter(bool))
    rows = data.draw(st.lists(row, max_size=9))
    p = data.draw(_small_primes)
    stop = data.draw(st.sampled_from([None, 0, 1, ncols // 2, ncols]))
    got = linalg._kernel_mod(rows, range(ncols), stop, p)
    assert got == reference_kernel_mod(rows, range(ncols), stop, p)
