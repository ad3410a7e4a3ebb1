"""Built-in catalog: every case with hd <= 8, with golden resolution data.

Betti tables are transcribed from the published resolution displays.  Two
transcription notes: the 5V1 diagram's printed entries disagree with its own
resolution display (which has exponents 5, 5, 1), and the printed hd-6 table
for 2V1+2V2 duplicates the 4V2 table; in both cases the resolution display
is authoritative and is what the golden data below encodes.  The stretch
cases (hd 6 and 8, plus V8) are excluded from `verify all` by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

BettiEntries = Dict[Tuple[int, int], int]


@dataclass(frozen=True)
class CaseRecord:
    label: str
    degrees: Tuple[int, ...]
    bound: int                       # generator search degree bound
    weights: Tuple[int, ...]         # expected generator degree multiset, sorted
    betti: Dict[Tuple[int, int], int]
    stretch: bool = False
    hd_formula_valid: bool = True    # m - (sum(d_i+1) - 3) equals the true length
    note: str = ""

    @property
    def expected_length(self) -> int:
        return max(i for (i, _) in self.betti)

    @property
    def expected_j_star(self) -> int:
        return max(j for (_, j) in self.betti)

    @property
    def relation_degrees(self) -> List[int]:
        out: List[int] = []
        for (i, j), b in sorted(self.betti.items()):
            if i == 1:
                out.extend([j] * b)
        return out

    @property
    def horizon(self) -> int:
        """Certification horizon for the degreewise kernel."""
        rel = self.relation_degrees
        return max(2 * max(rel, default=0), self.expected_j_star + 1, 12)


def _table(shape: Dict[int, Dict[int, int]]) -> BettiEntries:
    """shape: homological index -> {shift: count}; row 0 implied."""
    entries: BettiEntries = {(0, 0): 1}
    for i, shifts in shape.items():
        for j, b in shifts.items():
            entries[(i, j)] = b
    return entries


def _free(label: str, degrees: Sequence[int], bound: int, weights: Sequence[int]) -> CaseRecord:
    return CaseRecord(
        label=label,
        degrees=tuple(degrees),
        bound=bound,
        weights=tuple(sorted(weights)),
        betti={(0, 0): 1},
        hd_formula_valid=len(weights) - (sum(d + 1 for d in degrees) - 3) == 0,
    )


def _hypersurface(
    label: str, degrees: Sequence[int], bound: int, weights: Sequence[int], w: int
) -> CaseRecord:
    return CaseRecord(
        label=label,
        degrees=tuple(degrees),
        bound=bound,
        weights=tuple(sorted(weights)),
        betti=_table({1: {w: 1}}),
    )


CASES: List[CaseRecord] = [
    # ---- hd 0: free invariant rings -------------------------------------
    _free("V1", (1,), 2, ()),
    _free("V2", (2,), 2, (2,)),
    _free("V3", (3,), 4, (4,)),
    _free("V4", (4,), 3, (2, 3)),
    _free("2V1", (1, 1), 2, (2,)),
    _free("V1+V2", (1, 2), 3, (2, 3)),
    _free("2V2", (2, 2), 2, (2, 2, 2)),
    _free("3V1", (1, 1, 1), 2, (2, 2, 2)),
    # ---- hd 1: hypersurfaces --------------------------------------------
    _hypersurface("V5", (5,), 18, (4, 8, 12, 18), 36),
    _hypersurface("V6", (6,), 15, (2, 4, 6, 10, 15), 30),
    _hypersurface("V1+V3", (1, 3), 6, (4, 4, 4, 6), 12),
    _hypersurface("V1+V4", (1, 4), 9, (2, 3, 5, 6, 9), 18),
    _hypersurface("V2+V3", (2, 3), 7, (2, 3, 4, 5, 7), 14),
    _hypersurface("V2+V4", (2, 4), 6, (2, 2, 3, 3, 4, 6), 12),
    _hypersurface("V4+V4", (4, 4), 4, (2, 2, 2, 3, 3, 3, 3, 4), 12),
    _hypersurface("2V1+V2", (1, 1, 2), 3, (2, 2, 3, 3, 3), 6),
    _hypersurface("V1+2V2", (1, 2, 2), 4, (2, 2, 2, 3, 3, 4), 8),
    _hypersurface("3V2", (2, 2, 2), 3, (2, 2, 2, 2, 2, 2, 3), 6),
    _hypersurface("4V1", (1, 1, 1, 1), 2, (2, 2, 2, 2, 2, 2), 4),
    # ---- hd 2 -------------------------------------------------------------
    CaseRecord(
        label="V3+V3",
        degrees=(3, 3),
        bound=6,
        weights=(2, 4, 4, 4, 4, 4, 6),
        betti=_table({1: {8: 1, 12: 1}, 2: {20: 1}}),
    ),
    # ---- hd 3 -------------------------------------------------------------
    CaseRecord(
        label="V8",
        degrees=(8,),
        bound=10,
        weights=(2, 3, 4, 5, 6, 7, 8, 9, 10),
        betti=_table(
            {
                1: {16: 1, 17: 1, 18: 1, 19: 1, 20: 1},
                2: {25: 1, 26: 1, 27: 1, 28: 1, 29: 1},
                3: {45: 1},
            }
        ),
        stretch=True,
        note="runs in about 6 s; the Groebner basis of the "
        "degree-certified kernel is its largest part",
    ),
    CaseRecord(
        label="5V1",
        degrees=(1, 1, 1, 1, 1),
        bound=2,
        weights=(2,) * 10,
        betti=_table({1: {4: 5}, 2: {6: 5}, 3: {10: 1}}),
        note="diagram entries follow the resolution display (ranks 5, 5, 1)",
    ),
    # ---- hd 4 -------------------------------------------------------------
    CaseRecord(
        label="3V1+V2",
        degrees=(1, 1, 1, 2),
        bound=3,
        weights=(2, 2, 2, 2, 3, 3, 3, 3, 3, 3),
        betti=_table(
            {1: {5: 3, 6: 6}, 2: {8: 8, 9: 8}, 3: {11: 6, 12: 3}, 4: {17: 1}}
        ),
    ),
    # ---- hd 5 -------------------------------------------------------------
    CaseRecord(
        label="V1+3V2",
        degrees=(1, 2, 2, 2),
        bound=4,
        weights=(2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4),
        betti=_table(
            {
                1: {6: 4, 7: 4, 8: 6},
                2: {9: 3, 10: 12, 11: 12, 12: 8},
                3: {13: 8, 14: 12, 15: 12, 16: 3},
                4: {17: 6, 18: 4, 19: 4},
                5: {25: 1},
            }
        ),
    ),
    CaseRecord(
        label="4V2",
        degrees=(2, 2, 2, 2),
        bound=3,
        weights=(2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3),
        betti=_table(
            {
                1: {5: 4, 6: 10},
                2: {8: 15, 9: 20},
                3: {11: 20, 12: 15},
                4: {14: 10, 15: 4},
                5: {20: 1},
            }
        ),
    ),
    # ---- hd 6 (stretch) ----------------------------------------------------
    CaseRecord(
        label="2V1+2V2",
        degrees=(1, 1, 2, 2),
        bound=4,
        weights=(2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 4, 4, 4),
        betti=_table(
            {
                1: {6: 6, 7: 8, 8: 6},
                2: {9: 8, 10: 24, 11: 24, 12: 8},
                3: {12: 3, 13: 24, 14: 36, 15: 24, 16: 3},
                4: {16: 8, 17: 24, 18: 24, 19: 8},
                5: {20: 6, 21: 8, 22: 6},
                6: {28: 1},
            }
        ),
        stretch=True,
        note="golden data from the resolution display; the printed hd-6 table "
        "duplicates the 4V2 table and is inconsistent with the display",
    ),
    CaseRecord(
        label="6V1",
        degrees=(1, 1, 1, 1, 1, 1),
        bound=2,
        weights=(2,) * 15,
        betti=_table(
            {
                1: {4: 15},
                2: {6: 35},
                3: {8: 21, 10: 21},
                4: {12: 35},
                5: {14: 15},
                6: {18: 1},
            }
        ),
        stretch=True,
    ),
    # ---- hd 8 (stretch) ----------------------------------------------------
    CaseRecord(
        label="2V1+V3",
        degrees=(1, 1, 3),
        bound=6,
        weights=(2, 4, 4, 4, 4, 4, 4, 4, 4, 6, 6, 6, 6),
        betti=_table(
            {
                1: {8: 10, 10: 15, 12: 10},
                2: {12: 20, 14: 60, 16: 60, 18: 20},
                3: {16: 15, 18: 90, 20: 140, 22: 90, 24: 15},
                4: {20: 4, 22: 60, 24: 160, 26: 160, 28: 60, 30: 4},
                5: {26: 15, 28: 90, 30: 140, 32: 90, 34: 15},
                6: {32: 20, 34: 60, 36: 60, 38: 20},
                7: {38: 10, 40: 15, 42: 10},
                8: {50: 1},
            }
        ),
        stretch=True,
        note="verifies through j* = 50 in about 2 s modulo its 4 regular variables",
    ),
]

BY_LABEL: Dict[str, CaseRecord] = {c.label: c for c in CASES}


def find_case(label: str) -> Optional[CaseRecord]:
    return BY_LABEL.get(normalize_label(label))


def case_for_degrees(degrees: Sequence[int]) -> Optional[CaseRecord]:
    key = tuple(sorted(degrees))
    for c in CASES:
        if tuple(sorted(c.degrees)) == key:
            return c
    return None


def normalize_label(label: str) -> str:
    """Accept e.g. `3V1+V2`, `v3+v3`, `2v3` and map to the catalog spelling."""
    label = label.strip().upper().replace(" ", "")
    parts = label.split("+")
    degrees: List[int] = []
    for part in parts:
        if "V" not in part:
            return label
        mult_s, _, deg_s = part.partition("V")
        try:
            mult = int(mult_s) if mult_s else 1
            deg = int(deg_s)
        except ValueError:
            return label
        degrees.extend([deg] * mult)
    rec = case_for_degrees(degrees)
    return rec.label if rec else label


def parse_degree_list(text: str) -> Tuple[int, ...]:
    """Comma-separated positive integers; repetition is multiplicity.  An
    empty entry, as in '5,,' or ',5', is an error, not skipped."""
    try:
        degrees = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"bad degree list {text!r}") from None
    if any(d < 1 for d in degrees):
        raise ValueError(f"bad degree list {text!r}")
    return degrees

