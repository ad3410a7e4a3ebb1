"""Sparse exact linear algebra over the integers and rationals.

Vectors are dicts mapping column index to a nonzero coefficient.  All
elimination is fraction-free: rows are kept with coprime integer entries,
updates are cross-multiplications followed by content removal, and pivots
are always the leftmost (smallest) column index, so results are
deterministic and exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence

Vector = Dict[int, int]


def intify(vec: Dict[int, object]) -> Vector:
    """Clear denominators and remove content; empty dict for the zero vector."""
    num = 0
    den = 1
    items = []
    for k, v in vec.items():
        f = v if isinstance(v, Fraction) else Fraction(v)
        if f == 0:
            continue
        items.append((k, f))
        den = den * f.denominator // gcd(den, f.denominator)
    out: Vector = {}
    for k, f in items:
        c = f.numerator * (den // f.denominator)
        out[k] = c
        num = gcd(num, c)
    if num > 1:
        for k in out:
            out[k] //= num
    return out


def normalize_vector(vec: Vector) -> Vector:
    """Divide by the gcd of the entries and make the leftmost entry positive."""
    if not vec:
        return vec
    g = 0
    for v in vec.values():
        g = gcd(g, v)
    lead = min(vec)
    if vec[lead] < 0:
        g = -g
    if g != 1:
        vec = {k: v // g for k, v in vec.items()}
    return vec


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
        return normalize_vector(v)

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
        basis.append(normalize_vector(intify(x)))
    return basis

