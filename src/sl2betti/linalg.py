"""Sparse exact linear algebra over the integers and rationals.

Vectors are dicts mapping column index to a nonzero coefficient.  Pivots
are always the leftmost (smallest) column index, so results are
deterministic and exact.  `Echelon` is fraction-free: rows are kept with
coprime integer entries, and updates are cross-multiplications followed by
content removal.  `nullspace` eliminates modulo 81-bit primes and
returns a kernel only after checking it exactly over the integers.

`primitive` is the package's one normalization: every layer that turns a
rational vector, a polynomial, a remainder or a syzygy trace into coprime
integers with a fixed sign goes through it.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm
from typing import (
    Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar,
)

Vector = Dict[int, int]
K = TypeVar("K", bound=Hashable)


def primitive(
    vec: Dict[K, object], lead: Optional[K] = None
) -> Tuple[Dict[K, int], Tuple[int, int]]:
    """Coprime integer multiple of an int or Fraction vector: (ints, (den, g)).

    ints[k] == vec[k] * den / g for every nonzero entry; zero entries are
    dropped.  den > 0 clears the denominators and |g| is the content of the
    cleared vector.  g < 0 exactly when the entry at `lead` would otherwise
    be negative; without `lead` the sign is unchanged.  The zero vector
    gives ({}, (1, 1)).  An int vector that needs no change comes back as
    the same dict object.
    """
    values = vec.values()
    try:
        # math.gcd takes only ints: integer rows never build a Fraction
        g = gcd(*values)
        den = 1
        ints = vec if all(values) else {k: v for k, v in vec.items() if v}
    except TypeError:
        den = lcm(*(v.denominator for v in values))
        ints = {k: v.numerator * (den // v.denominator) for k, v in vec.items() if v}
        g = gcd(*ints.values())
    if not ints:
        return {}, (1, 1)
    if lead is not None and ints[lead] < 0:
        g = -g
    if g != 1:
        ints = {k: v // g for k, v in ints.items()}
    return ints, (den, g)


class Echelon:
    """Incremental fraction-free row echelon form with leftmost pivots."""

    def __init__(self) -> None:
        self.rows: Dict[int, Vector] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vector) -> Vector:
        """Eliminate pivot columns from a copy of vec; result content-normalized."""
        v = dict(vec)
        rows = self.rows
        while v:
            p = min(v)
            row = rows.get(p)
            if row is None:
                break
            a = row[p]
            b = v[p]
            g = gcd(a, b)
            fa, fb = a // g, b // g
            # v := fa*v - fb*row clears column p exactly
            if fa != 1:
                for k in v:
                    v[k] *= fa
            for k, c in row.items():
                s = v.get(k, 0) - fb * c
                if s:
                    v[k] = s
                else:
                    v.pop(k, None)
            g2 = 0
            for c in v.values():
                g2 = gcd(g2, c)
            if g2 > 1:
                for k in v:
                    v[k] //= g2
        return primitive(v, min(v))[0] if v else v

    def add(self, vec: Vector) -> Optional[Vector]:
        """Reduce and insert; returns the stored row, or None if vec was dependent."""
        v = self.reduce(vec)
        if not v:
            return None
        self.rows[min(v)] = v
        return v

    def contains(self, vec: Vector) -> bool:
        return not self.reduce(vec)


def nullspace(
    rows: Iterable[Vector],
    columns: Sequence[int],
    stop_rank: Optional[int] = None,
) -> List[Vector]:
    """Kernel basis of the linear map with the given integer rows, over the
    column set.

    Rows are functionals on the columns; the kernel vectors returned are
    integer, content-free, with positive leftmost entry, one per free
    column, ordered by free column index.  Vector f is the kernel vector
    that is zero on every other free column; this basis is the reduced
    echelon form of the kernel with respect to the reversed column order, so
    it depends only on the kernel.  In particular any permutation of the
    rows gives the identical basis, with or without stop_rank, because
    leftmost pivots make the pivot set that of the row space.

    stop_rank, when given, must be an upper bound on the rank (e.g. from an
    independent dimension count); reaching it proves the remaining rows
    dependent, so they are skipped.  If the true rank is smaller the bound
    is simply never reached and every row is processed.

    The elimination runs modulo the primes above 2^80.  The images
    of the kernel vectors are combined by CRT and lifted by rational
    reconstruction, and a lift is returned only once every vector satisfies
    every certifying row exactly over the integers.  The certifying rows are
    the rows read when the modular rank reached stop_rank (their rank over
    Q is at least that, so they span the row space), and all rows
    otherwise.  A certified vector is an exact kernel vector that is 1 on
    its own free column and 0 on the other free columns and right of its
    own; there are at least as many as the nullity, so they are the basis
    above whatever pivots the primes gave.
    """
    rows = list(rows)
    known = set(columns)
    if min(known, default=0) < 0:
        raise ValueError("columns must be nonnegative")
    if not all(known.issuperset(r) for r in rows):
        raise ValueError("a row has an entry outside the columns")
    best: Optional[List[int]] = None
    images: List[Vector] = []
    modulus = 1
    for p in _primes():
        pivots, image, used = _kernel_mod(rows, columns, stop_rank, p)
        # a bad prime can only lower the rank or move pivots right, so the
        # larger rank wins, then the leftmost pivots
        if best is None or (-len(pivots), pivots) < (-len(best), best):
            best, images, modulus = pivots, image, p
        elif pivots == best:
            images = [_crt(a, modulus, b, p) for a, b in zip(images, image)]
            modulus *= p
        else:
            continue
        basis = []
        for x in images:
            v = _lift(x, modulus)
            if v is None:
                break
            basis.append(primitive(v, min(v))[0])
        else:
            if _annihilates_all(rows[:used], basis):
                return basis


def _kernel_mod(
    rows: List[Vector], columns: Sequence[int], stop_rank: Optional[int], p: int
) -> Tuple[List[int], List[Vector], int]:
    """(pivot columns, kernel vectors, rows read) of the rows modulo p.

    Leftmost pivots with the stop_rank early exit of `nullspace`; kernel
    vector f has entry 1 on free column f and 0 on the other free columns.
    Every row entry must lie on one of the columns, which are nonnegative.
    """
    # tails[c]: the row with pivot column c, scaled to pivot 1, pivot dropped
    tails: Dict[int, Vector] = {}
    # the working row, dense by column; all 0 between rows
    v = [0] * (max(columns, default=-1) + 1)
    used = 0
    for used, r in enumerate(rows, 1):
        # entries are reduced mod p only when they become the pivot; a tail
        # lies right of its pivot, so the heap pops each column once in
        # increasing order, as min(v) would.  A column that cancels to 0 and
        # is refilled is pushed again; its second pop reads the 0 left by
        # the first.
        for k, c in r.items():
            v[k] = c
        heap = list(r)
        heapify(heap)
        while heap:
            c0 = heappop(heap)
            f = v[c0] % p
            v[c0] = 0
            if not f:
                continue
            tail = tails.get(c0)
            if tail is None:
                inv = pow(f, -1, p)
                new = tails[c0] = {}
                for k in heap:
                    c = v[k] % p
                    if c:
                        new[k] = c * inv % p
                    v[k] = 0
                break
            for k, c in tail.items():
                x = v[k]
                if x:
                    v[k] = x - f * c
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
        # a tail lies right of its pivot, so only pivots left of f are
        # reached, solved right to left
        for c in reversed(pivots[: bisect_left(pivots, f)]):
            s = 0
            for k, t in tails[c].items():
                if k in x:
                    s += t * x[k]
            s %= p
            if s:
                x[c] = p - s
        kernel.append(x)
    return pivots, kernel, used


def _crt(a: Vector, m: int, b: Vector, p: int) -> Vector:
    """The vector that is a mod m and b mod p, entries in [0, m*p)."""
    u = pow(m, -1, p)
    out = {}
    for k in a.keys() | b.keys():
        x = a.get(k, 0)
        out[k] = x + m * ((b.get(k, 0) - x) * u % p)
    return out


def _lift(x: Vector, m: int) -> Optional[Vector]:
    """Integer vector d*y for the rational y whose image mod m is x, or None.

    One common denominator d grows as entries need it.  Each entry is
    reconstructed with numerator and denominator at most sqrt(m/2), so once
    m is large enough for y the lift is y itself; the caller's exact check
    rejects a wrong lift from a modulus that is still too small.
    """
    bound = isqrt(m >> 1)
    den = 1
    out: Vector = {}
    for k in sorted(x):
        a = x[k] * den % m
        if a > m >> 1:
            a -= m
        if abs(a) > bound:
            q = _reconstruct(a % m, m, bound)
            if q is None:
                return None
            a, d = q
            den *= d
            if den > bound:
                return None
            out = {j: c * d for j, c in out.items()}
        if a:
            out[k] = a
    return out


def _reconstruct(a: int, m: int, bound: int) -> Optional[Tuple[int, int]]:
    """(n, d) with n == a*d mod m, |n| <= bound, 0 < d <= bound, gcd 1
    (Wang's half extended Euclid), or None."""
    r0, r1, t0, t1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _annihilates_all(rows: Iterable[Vector], basis: Sequence[Vector]) -> bool:
    """Whether every vector of basis is 0 on every row, exactly over the
    integers.  Through a column index of the basis, each row's products are
    summed only over the columns it shares with the basis."""
    index: Dict[int, List[Tuple[int, int]]] = {}
    for i, v in enumerate(basis):
        for k, c in v.items():
            index.setdefault(k, []).append((i, c))
    for r in rows:
        acc = [0] * len(basis)
        for k, c in r.items():
            for i, e in index.get(k, ()):
                acc[i] += c * e
        if any(acc):
            return False
    return True


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first thirteen prime bases, 2 to 41: exact below
    3317044064679887385961981 (Sorenson-Webster, Math. Comp. 86, 2017)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for a in bases:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the primes `_primes` has found so far, in increasing order
_FOUND: List[int] = []


def _primes() -> Iterator[int]:
    """The primes above 2^80 in increasing order, without end; each is found
    once per process and kept in `_FOUND`.  They fit in three 30-bit CPython
    digits, and one of them lifts kernel entries of up to 39 bits.
    `_is_prime` stays exact for more primes than any computation can use."""
    i = 0
    while True:
        if i == len(_FOUND):
            n = _FOUND[-1] + 2 if _FOUND else (1 << 80) + 1
            while not _is_prime(n):
                n += 2
            _FOUND.append(n)
        yield _FOUND[i]
        i += 1
