"""Graded free resolutions, Betti tables, and the Koszul homology oracle.

Resolutions are built level by level by `resolve`: a module Groebner basis of
the current (minimal) generators is computed with full cofactor tracking,
every treated S-pair that reduces to zero leaves a syzygy of those
generators, and the syzygies become the next level's generators.  Building
each level from a minimal generating set makes the resulting chain minimal,
and this level-minimal mode is the only one the pipeline uses.  The raw mode
keeps every Schreyer syzygy instead; raw mode followed by `minimize` is an
independent cross-check of the Betti numbers, used by the tests.

A `Resolution` holds each differential as its columns, each one a sparse
module vector {(row, exponent): coefficient} over the generators of the
module below: the integer vectors `resolve` computes, as the Groebner engine
keys them.  Coefficients are ints, except that `minimize` leaves a Fraction
where it divides by a unit other than +-1.  The consumers read the columns
as they are; `format_resolution` alone builds polynomial entries, to print
them.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .groebner import (
    BuchbergerEngine,
    GroebnerBasis,
    Ideal,
    MVec,
    RationalSeries,
    Reducer,
    _poly_to_mvec,
    base_keyfn,
    buchberger,
    hilbert_numerator_monomial,
    standard_monomials,
)
from .linalg import Echelon, primitive
from .poly import (
    Exponent,
    GradedRing,
    Polynomial,
    WEIGHTED,
    monomial_mul,
)


@dataclass(frozen=True)
class FreeModule:
    """Graded free module: generator k has weighted degree shifts[k]."""

    shifts: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.shifts)


@dataclass
class Resolution:
    """Chain F_l -> ... -> F_1 -> F_0 = R with differentials d_i: F_i -> F_{i-1}.

    differentials[i][c] is column c of d_{i+1}, the image of generator c of
    F_{i+1} as a module vector over F_i (see the module docstring).
    """

    ring: GradedRing
    modules: List[FreeModule]
    differentials: List[List[MVec]]

    @property
    def length(self) -> int:
        return len(self.modules) - 1

    def differential(self, i: int) -> List[MVec]:
        """The columns of d_i: F_i -> F_{i-1}, for 1 <= i <= length."""
        return self.differentials[i - 1]

    def is_minimal(self) -> bool:
        """No column has a constant term."""
        return all(any(m) for d in self.differentials for col in d for _, m in col)


@dataclass
class BettiTable:
    """Graded Betti numbers beta_{i,j} plus length and maximal shift."""

    entries: Dict[Tuple[int, int], int]
    length: int
    j_star: int

    @classmethod
    def from_entries(cls, entries: Dict[Tuple[int, int], int]) -> "BettiTable":
        entries = {k: v for k, v in entries.items() if v}
        entries.setdefault((0, 0), 1)
        length = max(i for i, _ in entries)
        j_star = max(j for _, j in entries)
        return cls(entries, length, j_star)

    def get(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self.entries == other.entries


# ---------------------------------------------------------------------------
# resolutions
# ---------------------------------------------------------------------------

def resolve(I: Ideal, *, minimalize_levels: bool = True) -> Resolution:
    """Free resolution of R/I by iterated module Groebner bases and syzygies.

    With minimalize_levels (the default) each level keeps only a minimal
    generating set of the syzygy module, so the output chain is minimal.
    The raw mode keeps every Schreyer syzygy; `minimize` removes the junk.
    Terminates within the variable count by the syzygy theorem.
    """
    ring = I.ring
    gens = I.nonzero_generators()
    modules = [FreeModule((0,))]
    diffs: List[List[MVec]] = []
    if not gens:
        return Resolution(ring, modules, diffs)
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError("resolve requires homogeneous generators")

    # level data: inputs as mvecs over the previous module
    inputs: List[MVec] = []
    input_degrees: List[int] = []
    for g in gens:
        inputs.append(primitive(_poly_to_mvec(g), (0, g.leading_monomial()))[0])
        input_degrees.append(g.weighted_degree())
    keyfn = base_keyfn(ring)
    level = 1
    while inputs:
        if level > ring.nvars + 1:
            raise AssertionError("resolution exceeded the syzygy theorem bound")
        prev_module = modules[-1]
        engine = BuchbergerEngine(
            ring,
            inputs,
            prev_module.shifts,
            keyfn,
            want_syzygies=True,
        )
        engine.run()
        if minimalize_levels:
            kept = [i for i in range(len(inputs)) if i not in engine.redundant]
            traces = engine.syzygies
        else:
            kept = list(range(len(inputs)))
            traces = engine.syzygies + [t for _, t in engine.input_traces]
        pos_of_input = {idx: pos for pos, idx in enumerate(kept)}
        module = FreeModule(tuple(input_degrees[i] for i in kept))
        modules.append(module)
        diffs.append([inputs[idx] for idx in kept])

        # syzygies of the kept inputs become the next level's inputs
        next_inputs: List[MVec] = []
        next_degrees: List[int] = []
        tagged: List[Tuple[int, MVec]] = []
        for t in traces:
            try:
                vec = {(pos_of_input[idx], m): c for (idx, m), c in t.items()}
            except KeyError:
                # the engine never emits a syzygy that touches a redundant input
                raise AssertionError("syzygy references a dropped generator") from None
            deg = _mvec_degree(ring, module, vec)
            tagged.append((deg, vec))
        tagged.sort(key=lambda dv: dv[0])
        for deg, vec in tagged:
            next_inputs.append(vec)
            next_degrees.append(deg)
        # Schreyer order induced by the kept inputs' leading terms
        tags = [keyfn.decode(max(engine.keyed_inputs[idx])) for idx in kept]
        keyfn = keyfn.induced(tags)
        inputs = next_inputs
        input_degrees = next_degrees
        level += 1
    return Resolution(ring, modules, diffs)


def _mvec_degree(ring: GradedRing, module: FreeModule, vec: MVec) -> int:
    degs = {
        ring.weighted_degree(m) + module.shifts[pos] for (pos, m) in vec
    }
    if len(degs) != 1:
        raise AssertionError("syzygy trace is not homogeneous")
    return degs.pop()


# ---------------------------------------------------------------------------
# minimization by unit cancellation
# ---------------------------------------------------------------------------

def minimize(res: Resolution, rng: Optional[random.Random] = None) -> Resolution:
    """Cancel the constant terms of the differentials until the complex is
    minimal.

    In a graded complex the constant term u of column c of d_{i+1} at row r
    is that column's whole entry in row r, a unit.  Cancelling it is
    Gaussian elimination: it removes e_c from F_{i+1} and e_r from F_i,
    d_{i+1} becomes its Schur complement on u, d_{i+2} loses row c and d_i
    loses column r.  The Schur complement divides by u, so a unit other
    than +-1 leaves Fraction coefficients.

    Deterministic scan from the highest homological index downward unless an
    rng is supplied, in which case the cancellation order is randomized; the
    Betti data of the output is independent of that order.
    """
    zero = res.ring.zero_exponent()
    mods: List[Dict[int, int]] = [
        {k: s for k, s in enumerate(m.shifts)} for m in res.modules
    ]
    diffs: List[Dict[int, MVec]] = [
        {c: dict(col) for c, col in enumerate(d)} for d in res.differentials
    ]

    def find_units() -> List[Tuple[int, int, int]]:
        found = []
        for i in range(len(diffs) - 1, -1, -1):
            for c in sorted(diffs[i]):
                for r in sorted(r for r, m in diffs[i][c] if not any(m)):
                    found.append((i, r, c))
        return found

    while True:
        units = find_units()
        if not units:
            break
        if rng is None:
            i, r, c = units[0]
        else:
            i, r, c = units[rng.randrange(len(units))]
        d = diffs[i]
        col_c = d.pop(c)
        u = col_c.pop((r, zero))
        inv = u if u in (1, -1) else 1 / Fraction(u)
        # Schur complement on d_{i+1}: every other column loses its row r
        # entry g and gains -g / u times the rest of column c
        for col in d.values():
            row_entry = [(m, b) for (rr, m), b in col.items() if rr == r]
            for m, b in row_entry:
                del col[(r, m)]
                for (rr, ma), a in col_c.items():
                    key = (rr, monomial_mul(ma, m))
                    new = col.get(key, 0) - a * b * inv
                    if new:
                        col[key] = new
                    else:
                        del col[key]
        # d_{i+2} loses row c and d_i loses column r
        if i + 1 < len(diffs):
            for col in diffs[i + 1].values():
                for key in [key for key in col if key[0] == c]:
                    del col[key]
        if i >= 1:
            del diffs[i - 1][r]
        del mods[i + 1][c]
        del mods[i][r]

    # repack indices and drop empty tail modules
    new_modules: List[FreeModule] = []
    remaps: List[Dict[int, int]] = []
    for live in mods:
        remap = {old: new for new, old in enumerate(sorted(live))}
        remaps.append(remap)
        new_modules.append(FreeModule(tuple(live[old] for old in sorted(live))))
    new_diffs = [
        [
            {(remaps[i][r], m): a for (r, m), a in d[c].items()}
            for c in sorted(mods[i + 1])
        ]
        for i, d in enumerate(diffs)
    ]
    while new_modules and new_modules[-1].rank == 0:
        new_modules.pop()
        if new_diffs:
            new_diffs.pop()
    return Resolution(res.ring, new_modules, new_diffs)


def betti(res: Resolution) -> BettiTable:
    """Graded Betti numbers of a minimal resolution."""
    if not res.is_minimal():
        raise ValueError("betti requires a minimal resolution; run minimize first")
    entries: Dict[Tuple[int, int], int] = {(0, 0): 1}
    if res.modules and res.modules[0].shifts != (0,):
        raise ValueError("resolution must start at F_0 = R")
    for i, mod in enumerate(res.modules[1:], start=1):
        for s in mod.shifts:
            entries[(i, s)] = entries.get((i, s), 0) + 1
    return BettiTable.from_entries(entries)


# ---------------------------------------------------------------------------
# regular sequences of variables
# ---------------------------------------------------------------------------

def _set_to_zero(p: Polynomial, target: GradedRing, rest: Sequence[int]) -> Polynomial:
    """p with the variables outside `rest` set to 0, as an element of `target`,
    the ring of the variables in `rest`."""
    terms: Dict[Exponent, Fraction] = {}
    for m, c in p.terms.items():
        if sum(m) == sum(m[v] for v in rest):
            terms[tuple(m[v] for v in rest)] = c
    return Polynomial._raw(target, terms)


def _without(ring: GradedRing, dropped: Sequence[int]) -> Tuple[GradedRing, List[int]]:
    rest = [v for v in range(ring.nvars) if v not in dropped]
    return (
        GradedRing(tuple(ring.names[v] for v in rest), tuple(ring.weights[v] for v in rest)),
        rest,
    )


@dataclass
class Reduction:
    """I modulo the variables that form a regular sequence on R/I."""

    kept: Tuple[int, ...]  # those variables, in index order
    ideal: Ideal  # I with them set to 0, in the ring of the other variables
    basis: GroebnerBasis  # the reduced basis of ideal, weighted order
    series: RationalSeries  # HS(R/I) over R's weights, from the basis of I


def regular_variables(I: Ideal, gb: Optional[GroebnerBasis] = None) -> Reduction:
    """Variables that form a regular sequence on R/I, and I modulo them.

    gb, when given, is `buchberger(I)`, the reduced Groebner basis of I in
    the weighted order; the result does not depend on it.

    The variables are tried in index order.  x_v is kept when, with J the
    ideal I plus the variables kept so far,
    HS(R/(J + x_v)) = (1 - t^w_v) HS(R/J), an exact identity of rational
    series.  By the exact sequence
    0 -> (0:x)(-w) -> M(-w) -> M -> M/xM -> 0 for M = R/J it holds iff x_v is
    a nonzerodivisor on M.  Setting the kept variables to 0 gives an ideal
    whose graded Betti numbers over the ring of the other variables are
    those of R/I over R (Bruns-Herzog, Cohen-Macaulay Rings, 1993,
    section 1.1).

    Let J be I plus the variables kept so far and G its reduced Groebner
    basis in the weighted order.  If no leading monomial of G involves x_v,
    then x_v is regular on M = R/J without a Hilbert trial.  Proof: in(J) is
    generated by monomials free of x_v, so x_v is regular on R/in(J) and
    in(J + x_v) contains in(J) + (x_v); hence, coefficientwise,
    HS(M/x_v M) <= HS(R/(in(J) + x_v)) = (1 - t^w) HS(R/in(J))
    = (1 - t^w) HS(M).  The exact sequence in `regular_variables` gives
    HS(M/x_v M) = (1 - t^w) HS(M) + t^w HS(0 :_M x_v) >= (1 - t^w) HS(M).
    So equality holds, 0 :_M x_v = 0, and in(J + x_v) = in(J) + (x_v).  The
    weighted order restricts to the weighted order of the ring without x_v,
    and each g in G keeps its leading term when x_v is set to 0, so these
    images have the leading terms of G, which generate the initial ideal of
    the trial: they are its reduced basis once their content is taken out.
    Otherwise the trial's basis and series are computed from its
    generators.
    """
    if not I.is_homogeneous():
        raise ValueError("regular_variables requires a homogeneous ideal")
    if gb is None:
        gb = buchberger(I)
    elif gb.ring != I.ring or gb.order != WEIGHTED:
        raise ValueError("regular_variables needs a weighted-order basis of the ideal's ring")
    leads = gb.leading_monomials()
    series = RationalSeries(hilbert_numerator_monomial(leads, I.ring), I.ring.weights)
    kept: List[int] = []
    reduced = I
    for v in range(I.ring.nvars):
        target, rest = _without(I.ring, kept + [v])
        trial = Ideal(target, [_set_to_zero(g, target, rest) for g in I.generators])
        # (1 - t^w_v) HS(R/J): the numerator of HS(R/J) over the
        # denominator of the smaller ring
        want = RationalSeries(series.numerator, target.weights)
        pos = v - len(kept)  # x_v in the ring of J: every kept variable precedes v
        if not any(m[pos] for m in leads):
            others = [k for k in range(reduced.ring.nvars) if k != pos]
            elements, trial_leads = [], []
            for g, lead in zip(gb.elements, leads):
                lead = tuple(lead[k] for k in others)
                ints, _ = primitive(_set_to_zero(g, target, others).terms, lead)
                elements.append(Polynomial._raw(target, ints))
                trial_leads.append(lead)
            trial_gb, regular = GroebnerBasis(target, gb.order, elements), True
        else:
            trial_gb = buchberger(trial)
            trial_leads = trial_gb.leading_monomials()
            numerator = hilbert_numerator_monomial(trial_leads, target)
            regular = RationalSeries(numerator, target.weights).equals(want)
        if regular:
            kept.append(v)
            reduced, gb, leads = trial, trial_gb, trial_leads
    return Reduction(tuple(kept), reduced, gb, series)


# ---------------------------------------------------------------------------
# Koszul homology oracle
# ---------------------------------------------------------------------------

class _NormalFormTable:
    """Standard monomials of each weighted degree modulo a Groebner basis,
    and the normal forms of the other monomials."""

    def __init__(self, gb: GroebnerBasis):
        self.ring = gb.ring
        self._leads = gb.leading_monomials()
        self._keyfn = gb.order.key_function(gb.ring)
        self._std: Dict[int, List[Exponent]] = {}
        self._reducer = Reducer(base_keyfn(self.ring, gb.order))
        for g in gb.elements:
            vec = self._reducer.keyfn.encode(_poly_to_mvec(g))
            self._reducer.add(primitive(vec, max(vec))[0])
        self._nf_cache: Dict[Exponent, Dict[Exponent, object]] = {}

    def standard(self, degree: int) -> List[Exponent]:
        """The standard monomials of the degree, in decreasing order."""
        got = self._std.get(degree)
        if got is None:
            got = standard_monomials(self.ring, self._leads, degree)
            got.sort(key=self._keyfn, reverse=True)
            self._std[degree] = got
        return got

    def nf_vector(self, mono: Exponent) -> Dict[Exponent, object]:
        """NF(mono) of a non-standard monomial, {standard monomial: coefficient}.

        Coefficients are ints; a Fraction appears only for a normal form
        that is not integral.
        """
        got = self._nf_cache.get(mono)
        if got is None:
            # mono * den / g == sum(q * basis) + rem
            rem, _, (den, g) = self._reducer._divide({self._reducer.keyfn((0, mono)): 1})
            got = {
                mm[1]: c * g if den == 1 else Fraction(c * g, den)
                for mm, c in self._reducer.keyfn.decode_vec(rem).items()
            }
            self._nf_cache[mono] = got
        return got


def _koszul_complex(ring: GradedRing) -> Resolution:
    """The Koszul complex K(x_1..x_m) of the ring, a resolution of its
    residue field.

    F_i has one generator e_S for each i-subset S of the variables, in
    `combinations` order, of degree sum_{t in S} w_t, and
    d(e_S) = sum_k (-1)^k x_{t_k} e_{S - t_k} for S = (t_0 < t_1 < ...).
    """
    m = ring.nvars
    subsets = [list(combinations(range(m), i)) for i in range(m + 1)]
    modules = [
        FreeModule(tuple(sum(ring.weights[t] for t in S) for S in level))
        for level in subsets
    ]
    units = [tuple(int(v == t) for v in range(m)) for t in range(m)]
    diffs: List[List[MVec]] = []
    for i in range(1, m + 1):
        row = {S: r for r, S in enumerate(subsets[i - 1])}
        diffs.append([
            {(row[S[:k] + S[k + 1:]], units[t]): (-1) ** k for k, t in enumerate(S)}
            for S in subsets[i]
        ])
    return Resolution(ring, modules, diffs)


def _strand_homology(
    res: Resolution, table: _NormalFormTable, degrees: Iterable[int]
) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """Strandwise homology of the complex res tensored with R/G, for G the
    Groebner basis of `table`.

    The degree-j piece of F_i (x) R/G has the basis of pairs (c, u): a
    generator c of F_i and a standard monomial u of degree j - shift c, in
    generator order, then in `table.standard` order.  The strand map d_i
    sends (c, u) to u times the column of d_i at c, each product brought to
    normal form.  Returns {(i, j): (dim ker d_i, rank d_{i+1})} for
    0 <= i <= res.length, with d_0 = d_{length+1} = 0; the homology at
    (F_i (x) R/G)_j has dimension ker - rank.

    The complex must satisfy d o d = 0: then the image of d_i lies in the
    kernel of d_{i-1}, of dimension dim (F_{i-1} (x) R/G)_j - rank d_{i-1},
    and once the rank of d_i reaches that bound, the remaining columns
    cannot add to it and are not built.
    """
    top = res.length
    shifts = [mod.shifts for mod in res.modules]
    # d_i's columns as coprime integers: scaling a column does not change the rank
    cols = [[primitive(col)[0] for col in d] for d in res.differentials]
    out: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for j in degrees:

        def piece(i: int):
            for c, s in enumerate(shifts[i]):
                if s <= j:
                    for u in table.standard(j - s):
                        yield c, u

        def columns(i: int, index: Dict[Tuple[int, Exponent], int]):
            for c, s in enumerate(shifts[i]):
                col = cols[i - 1][c]
                if s > j or not col:
                    continue
                for u in table.standard(j - s):
                    # multiplying by u is injective: standard products never collide
                    vec: Dict[int, object] = {}
                    rest = []
                    for (r, m), a in col.items():
                        prod = monomial_mul(m, u)
                        k = index.get((r, prod))
                        if k is None:
                            rest.append((r, prod, a))
                        else:
                            vec[k] = a
                    if rest:
                        # normal forms may cancel terms and carry denominators
                        for r, prod, a in rest:
                            for mm, b in table.nf_vector(prod).items():
                                k = index[(r, mm)]
                                vec[k] = vec.get(k, 0) + a * b
                        vec = primitive(vec)[0]
                    if vec:
                        yield vec

        dims = [
            sum(len(table.standard(j - s)) for s in shifts[i] if s <= j)
            for i in range(top + 1)
        ]
        ranks = [0]  # ranks[i] = rank of d_i in degree j
        for i in range(1, top + 1):
            bound = dims[i - 1] - ranks[i - 1]
            ech = Echelon()
            if bound:
                index = {key: k for k, key in enumerate(piece(i - 1))}
                for vec in columns(i, index):
                    ech.add(vec)
                    if ech.rank == bound:
                        break
            ranks.append(ech.rank)
        ranks.append(0)
        for i in range(top + 1):
            out[(i, j)] = (dims[i] - ranks[i], ranks[i + 1])
    return out


def koszul_betti(gb: GroebnerBasis, j_cap: int) -> BettiTable:
    """Betti numbers up to shift j_cap via Koszul strand homology.

    beta_{i,j} = dim of the degree-j strand homology of K(x_1..x_m) (x) R/I,
    with R the ring of the Groebner basis gb and I its ideal, computed
    degreewise by exact linear algebra; independent of any resolution.  The
    strands are built over the basis as given: `Reduction.basis`, the ideal
    modulo its `regular_variables`, has the Betti numbers of the full ideal
    in fewer variables.  Cost grows quickly with j_cap, which the caller
    bounds.
    """
    if not all(g.is_homogeneous() for g in gb.elements):
        raise ValueError("koszul_betti requires a homogeneous basis")
    homology = _strand_homology(
        _koszul_complex(gb.ring), _NormalFormTable(gb), range(j_cap + 1)
    )
    return BettiTable.from_entries(
        {key: ker - im for key, (ker, im) in homology.items()}
    )


# ---------------------------------------------------------------------------
# complex verification
# ---------------------------------------------------------------------------

def format_resolution(res: Resolution) -> str:
    """Dump: per homological index the shift list, then each differential as
    sparse (row, col, polynomial) triples in the text grammar.  A column's
    terms of one row become a polynomial here, for printing only."""
    from .poly import format_polynomial

    lines = []
    for i, mod in enumerate(res.modules):
        lines.append(f"module {i} shifts {' '.join(map(str, mod.shifts))}")
    for i in range(1, res.length + 1):
        lines.append(f"differential {i}")
        for c, col in enumerate(res.differential(i)):
            entries: Dict[int, Dict[Exponent, object]] = {}
            for (r, m), a in col.items():
                entries.setdefault(r, {})[m] = a
            for r in sorted(entries):
                p = Polynomial._raw(res.ring, entries[r])
                lines.append(f"  {r} {c} {format_polynomial(p)}")
    return "\n".join(lines) + "\n"


@dataclass
class ComplexReport:
    ok: bool
    message: str = "complex verified"
    failure: Optional[Tuple[str, int, int]] = None  # (kind, level, degree)


def _image_dims(res: Resolution, e_cap: int) -> List[List[int]]:
    """dim (M_i)_e for e <= e_cap, 1 <= i <= res.length, for M_i = im d_i.

    One engine per level runs on the nonzero columns of d_i through degree
    e_cap, so its leading terms generate the initial module of M_i in those
    degrees, and a module and its initial module have the same Hilbert
    function (Eisenbud, Commutative Algebra, 1995, ch. 15).  The quotient
    F_{i-1} / in(M_i) is one monomial quotient per position, shifted by its
    degree.  The order is the Schreyer order `resolve` builds: the ring order
    at level 1, then the order induced by the columns' leading terms, where
    a zero column stands for the first position of the module below (any
    module order gives the same dimensions).
    """
    ring = res.ring
    base = keyfn = base_keyfn(ring)
    out: List[List[int]] = []
    for i in range(1, res.length + 1):
        cols = res.differential(i)
        shifts = res.modules[i - 1].shifts
        engine = BuchbergerEngine(ring, [col for col in cols if col], shifts, keyfn)
        engine.run(upto=e_cap)
        leads: Dict[int, List[Exponent]] = {}
        for pos, m in engine.leads:
            leads.setdefault(pos, []).append(m)
        # HS(M_i) = sum_p t^shift_p (1 - N_p) / prod(1 - t^w), N_p the
        # numerator of R / (the leads at p)
        num: Dict[int, int] = {}
        for pos, monos in leads.items():
            s = shifts[pos]
            num[s] = num.get(s, 0) + 1
            for d, v in hilbert_numerator_monomial(monos, ring).items():
                num[d + s] = num.get(d + s, 0) - v
        out.append(RationalSeries({d: v for d, v in num.items() if v}, ring.weights)
                   .coefficients(e_cap))
        tags = [keyfn.decode(max(map(keyfn, col))) if col else (0, ring.zero_exponent())
                for col in cols]
        # below a module of rank 0 the zero columns stand for the ring's 1
        keyfn = (keyfn if shifts else base).induced(tags)
    return out


def verify_complex(res: Resolution, e_cap: int) -> ComplexReport:
    """Assert d.d = 0 exactly and degreewise exactness at F_i for i >= 1.

    The complex is checked as given, over its own ring, in every degree up
    to e_cap.  Exactness comes from the Hilbert functions of the image
    modules M_i = im d_i, by `_image_dims`: F is exact at F_i in degree e
    iff dim (M_{i+1})_e = dim (F_i)_e - dim (M_i)_e, with M_{length+1} = 0,
    since d o d = 0 puts M_{i+1} inside ker d_i.  To certify a resolution of
    R/I cheaply, pass the resolution of `regular_variables(I).ideal`, as
    `cli.verify_case` does: it has the Betti numbers of R/I in fewer
    variables.
    """
    ring = res.ring
    # d_{i-1} o d_i = 0, column by column, as sparse products
    for i in range(2, res.length + 1):
        d_lo = res.differential(i - 1)
        for c, col in enumerate(res.differential(i)):
            acc: Dict[Tuple[int, Exponent], object] = {}
            for (mid, m), a in col.items():
                for (r, mm), b in d_lo[mid].items():
                    key = (r, monomial_mul(m, mm))
                    acc[key] = acc.get(key, 0) + a * b
            if any(acc.values()):
                return ComplexReport(
                    False, f"d_{i-1} o d_{i} != 0 at column {c}", ("dd", i, -1)
                )
    # homogeneity: every term of column c of d_i has degree shift c
    for i in range(1, res.length + 1):
        hi, lo = res.modules[i].shifts, res.modules[i - 1].shifts
        for c, col in enumerate(res.differential(i)):
            for r, m in col:
                if ring.weighted_degree(m) + lo[r] != hi[c]:
                    return ComplexReport(
                        False,
                        f"entry ({r},{c}) of d_{i} is not homogeneous of the right degree",
                        ("degree", i, -1),
                    )
    # degreewise exactness at F_i, i >= 1
    images = _image_dims(res, e_cap) + [[0] * (e_cap + 1)]
    for i in range(1, res.length + 1):
        free = RationalSeries(dict(Counter(res.modules[i].shifts)), ring.weights)
        for e, dim in enumerate(free.coefficients(e_cap)):
            ker, im_next = dim - images[i - 1][e], images[i][e]
            if ker != im_next:
                return ComplexReport(
                    False,
                    f"homology at F_{i} in degree {e}: ker {ker} != im {im_next}",
                    ("exactness", i, e),
                )
    return ComplexReport(True, f"d o d = 0, homogeneous, exact for degrees <= {e_cap}")
