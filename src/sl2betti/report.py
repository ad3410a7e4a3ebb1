"""Betti diagram rendering, Hilbert-Poincare recovery, palindromy checking.

The Poincare numerator alternates in the homological index i, which is the
convention that reproduces complete-intersection numerators such as
(1 - z^8)(1 - z^12); output notes record that convention explicitly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .groebner import RationalSeries
from .invariants import ProblemSpec
from .resolution import BettiTable

POINCARE_SIGN_NOTE = (
    "poincare_numerator coefficients use the sign (-1)^i in the homological "
    "index i, the convention that factors complete intersections correctly"
)


@dataclass
class PalindromyVerdict:
    """Result of the symmetry check beta_{l-i, j*-j} == beta_{i,j}."""

    holds: bool
    length: int
    j_star: int
    witness: Optional[Tuple[int, int]] = None  # first (i, j) violating the symmetry

    def __str__(self) -> str:
        if self.holds:
            return f"palindromic (l = {self.length}, j* = {self.j_star})"
        i, j = self.witness
        return (
            f"not palindromic: beta_({i},{j}) != "
            f"beta_({self.length - i},{self.j_star - j})"
        )


def check_palindromy(t: BettiTable) -> PalindromyVerdict:
    """Check beta_{l-i, j*-j} == beta_{i,j} for every entry, absent = 0.

    The witness is the first violation in lexicographic (i, j) order.
    """
    l, js = t.length, t.j_star
    points = set(t.entries)
    points.update((l - i, js - j) for (i, j) in t.entries)
    for (i, j) in sorted(points):
        if t.get(i, j) != t.get(l - i, js - j):
            return PalindromyVerdict(False, l, js, (i, j))
    return PalindromyVerdict(True, l, js)


def poincare_from_betti(t: BettiTable, weights: Sequence[int]) -> RationalSeries:
    """Hilbert-Poincare series sum_i (-1)^i sum_j beta_{i,j} z^j over
    prod(1 - z^deg(f_i))."""
    numerator: Dict[int, int] = {}
    for (i, j), b in t.entries.items():
        v = numerator.get(j, 0) + (b if i % 2 == 0 else -b)
        if v:
            numerator[j] = v
        else:
            numerator.pop(j, None)
    return RationalSeries(numerator, tuple(weights))


def expected_hd(spec: ProblemSpec, m: int) -> int:
    """Expected resolution length m - (sum(d_i + 1) - 3).

    Valid when the invariant ring has Krull dimension sum(d_i + 1) - 3,
    i.e. when a generic point has a finite stabilizer; a negative value
    signals an incomplete generating set upstream.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    value = m - (sum(d + 1 for d in spec.degrees) - 3)
    if value < 0:
        raise ValueError(
            f"expected homological dimension {value} is negative; "
            "the generating set is incomplete"
        )
    return value


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_betti(t: BettiTable) -> str:
    """ASCII Betti diagram: columns 0..l, rows the occurring shifts."""
    cols = list(range(t.length + 1))
    rows = sorted({j for (_, j) in t.entries})
    cells: List[List[str]] = []
    for j in rows:
        cells.append([str(t.get(i, j)) if t.get(i, j) else "-" for i in cols])
    head = ["-j\\i"] + [str(i) for i in cols]
    widths = [len(head[0])] + [
        max(len(head[k + 1]), max((len(r[k]) for r in cells), default=1))
        for k in range(len(cols))
    ]
    widths[0] = max(widths[0], max((len(str(j)) for j in rows), default=1))
    lines = [
        " ".join(h.rjust(w) for h, w in zip(head, widths)),
        "-" * (sum(widths) + len(widths) - 1),
    ]
    for j, row in zip(rows, cells):
        lines.append(
            " ".join([str(j).rjust(widths[0])] + [c.rjust(w) for c, w in zip(row, widths[1:])])
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# machine-readable output
# ---------------------------------------------------------------------------

def report_json(
    t: BettiTable, weights: Sequence[int], degrees: Optional[Sequence[int]] = None
) -> str:
    """Structured document with bit-exact integer values."""
    series = poincare_from_betti(t, weights)
    verdict = check_palindromy(t)
    doc = {
        "degrees": list(degrees) if degrees is not None else None,
        "generator_weights": list(weights),
        "length": t.length,
        "betti": [[i, j, t.entries[(i, j)]] for (i, j) in sorted(t.entries)],
        "j_star": t.j_star,
        "palindromic": verdict.holds,
        "poincare_numerator": series.numerator_coefficients(),
        "notes": [POINCARE_SIGN_NOTE],
    }
    return json.dumps(doc, indent=2, sort_keys=False)
