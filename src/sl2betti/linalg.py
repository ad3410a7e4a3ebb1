"""Sparse exact linear algebra over the integers and rationals.

Vectors are dicts mapping column index to a nonzero coefficient.  All
elimination is fraction-free: rows are kept with coprime integer entries,
updates are cross-multiplications followed by content removal, and pivots
are always the leftmost (smallest) column index, so results are
deterministic and exact.

`primitive` is the package's one normalization: every layer that turns a
rational vector, a polynomial, a remainder or a syzygy trace into coprime
integers with a fixed sign goes through it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, TypeVar

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

    def pivot_columns(self) -> List[int]:
        return sorted(self.rows)


def nullspace(
    rows: Iterable[Vector],
    columns: Sequence[int],
    stop_rank: Optional[int] = None,
) -> List[Vector]:
    """Kernel basis of the linear map with the given rows, over the column set.

    Rows are functionals on the columns; the kernel vectors returned are
    integer, content-free, with positive leftmost entry, one per free
    column, ordered by free column index.

    stop_rank, when given, must be an upper bound on the rank (e.g. from an
    independent dimension count); reaching it proves the remaining rows
    dependent, so they are skipped.  If the true rank is smaller the bound
    is simply never reached and every row is processed.
    """
    ech = Echelon()
    for r in rows:
        ech.add(r)
        if stop_rank is not None and ech.rank >= stop_rank:
            break
    return kernel_from_echelon(ech, columns)


def kernel_from_echelon(ech: Echelon, columns: Sequence[int]) -> List[Vector]:
    pivots = ech.pivot_columns()
    pivot_set = set(pivots)
    free = [c for c in columns if c not in pivot_set]
    basis: List[Vector] = []
    for f in free:
        x: Dict[int, Fraction] = {f: Fraction(1)}
        # rows have pivot = leftmost column, so solve bottom-up
        for p in reversed(pivots):
            row = ech.rows[p]
            s = Fraction(0)
            for k, c in row.items():
                if k != p and k in x:
                    s += c * x[k]
            if s:
                x[p] = -s / row[p]
        basis.append(primitive(x, min(x))[0])
    return basis

