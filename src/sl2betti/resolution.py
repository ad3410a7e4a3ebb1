"""Graded free resolutions, Betti tables, and the Koszul homology oracle.

Resolutions are built level by level by `resolve`: a module Groebner basis of
the current (minimal) generators is computed with full cofactor tracking,
every treated S-pair that reduces to zero leaves a syzygy of those
generators, and the syzygies become the next level's generators.  Building
each level from a minimal generating set makes the resulting chain minimal,
and this level-minimal mode is the only one the pipeline uses.  The raw mode
keeps every Schreyer syzygy instead; raw mode followed by `minimize` is an
independent cross-check of the Betti numbers, used by the tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .groebner import (
    BuchbergerEngine,
    GroebnerBasis,
    Ideal,
    ModMono,
    RationalSeries,
    Reducer,
    _poly_to_mvec,
    base_keyfn,
    buchberger,
    hilbert_series_quotient,
    monomials_of_degree,
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


Matrix = Dict[int, Dict[int, Polynomial]]  # column -> row -> entry


@dataclass
class Resolution:
    """Chain F_l -> ... -> F_1 -> F_0 = R with differentials d_i: F_i -> F_{i-1}."""

    ring: GradedRing
    modules: List[FreeModule]
    differentials: List[Matrix]  # differentials[i] = d_{i+1}: F_{i+1} -> F_i
    flags: List[str] = field(default_factory=list)

    @property
    def length(self) -> int:
        return len(self.modules) - 1

    def differential(self, i: int) -> Matrix:
        """d_i: F_i -> F_{i-1}, for 1 <= i <= length."""
        return self.differentials[i - 1]

    def is_minimal(self) -> bool:
        for d in self.differentials:
            for col in d.values():
                for p in col.values():
                    if not p.is_zero() and p.weighted_degree() == 0:
                        return False
        return True


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
    flags: List[str] = []
    if len(gens) != len(I.generators):
        flags.append("zero generators dropped")
    modules = [FreeModule((0,))]
    diffs: List[Matrix] = []
    if not gens:
        return Resolution(ring, modules, diffs, flags)
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError("resolve requires homogeneous generators")

    # level data: inputs as mvecs over the previous module
    inputs: List[Dict[ModMono, int]] = []
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
        res = engine.run()
        if minimalize_levels:
            kept = [i for i in range(len(inputs)) if i not in res.redundant_inputs]
            if res.redundant_inputs and level == 1:
                flags.append("input generators were not minimal")
            traces = list(res.syzygies)
        else:
            kept = list(range(len(inputs)))
            traces = list(res.syzygies) + [t for _, t in res.input_traces]
        pos_of_input = {idx: pos for pos, idx in enumerate(kept)}
        module = FreeModule(tuple(input_degrees[i] for i in kept))
        matrix: Matrix = {}
        for pos, idx in enumerate(kept):
            col: Dict[int, Dict[Exponent, Fraction]] = {}
            for (row, m), c in inputs[idx].items():
                col.setdefault(row, {})[m] = Fraction(c)
            matrix[pos] = {
                row: Polynomial._raw(ring, d) for row, d in col.items()
            }
        modules.append(module)
        diffs.append(matrix)

        # syzygies of the kept inputs become the next level's inputs
        next_inputs: List[Dict[ModMono, int]] = []
        next_degrees: List[int] = []
        tagged: List[Tuple[int, Dict[ModMono, int]]] = []
        for t in traces:
            try:
                vec = {(pos_of_input[idx], m): c for (idx, m), c in t.items()}
            except KeyError:
                # trace touching a dropped input: only possible in raw mode,
                # where nothing is dropped
                raise AssertionError("syzygy references a dropped generator") from None
            if not vec:
                continue
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
    return Resolution(ring, modules, diffs, flags)


def _mvec_degree(ring: GradedRing, module: FreeModule, vec: Dict[ModMono, int]) -> int:
    degs = {
        ring.weighted_degree(m) + module.shifts[pos] for (pos, m) in vec
    }
    if len(degs) != 1:
        raise AssertionError("syzygy trace is not homogeneous")
    return degs.pop()


# ---------------------------------------------------------------------------
# minimization by unit cancellation
# ---------------------------------------------------------------------------

def _constant_value(p: Polynomial) -> Optional[Fraction]:
    if len(p.terms) != 1:
        return None
    (m, c), = p.terms.items()
    if any(m):
        return None
    return c


def minimize(res: Resolution, rng: Optional[random.Random] = None) -> Resolution:
    """Cancel scalar differential entries until the complex is minimal.

    Deterministic scan from the highest homological index downward unless an
    rng is supplied, in which case the cancellation order is randomized; the
    Betti data of the output is independent of that order.
    """
    ring = res.ring
    mods: List[Dict[int, int]] = [
        {k: s for k, s in enumerate(m.shifts)} for m in res.modules
    ]
    diffs: List[Dict[int, Dict[int, Polynomial]]] = [
        {c: dict(rows) for c, rows in d.items()} for d in res.differentials
    ]

    def find_units() -> List[Tuple[int, int, int]]:
        found = []
        for i in range(len(diffs) - 1, -1, -1):
            for c in sorted(diffs[i]):
                for r in sorted(diffs[i][c]):
                    if _constant_value(diffs[i][c][r]) is not None:
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
        u = _constant_value(diffs[i][c][r])
        d = diffs[i]
        col_c = d.pop(c)
        col_entries = {rr: p for rr, p in col_c.items() if rr != r}
        row_entries = {}
        for cc in list(d):
            p = d[cc].pop(r, None)
            if p is not None and not p.is_zero():
                row_entries[cc] = p
            if not d[cc]:
                del d[cc]
        # Schur complement on d_i
        for cc, rowp in row_entries.items():
            for rr, colp in col_entries.items():
                upd = d.setdefault(cc, {})
                cur = upd.get(rr, ring.zero())
                new = cur - colp * rowp.scale(Fraction(1) / u)
                if new.is_zero():
                    upd.pop(rr, None)
                    if not upd:
                        del d[cc]
                else:
                    upd[rr] = new
        # d_{i+1}: row c disappears; redistribute through the column entries
        if i + 1 < len(diffs):
            dn = diffs[i + 1]
            for t in list(dn):
                val = dn[t].pop(c, None)
                if val is not None and not val.is_zero():
                    for rr, colp in col_entries.items():
                        cur = dn[t].get(rr, ring.zero())
                        new = cur - colp * val.scale(Fraction(1) / u)
                        if new.is_zero():
                            dn[t].pop(rr, None)
                        else:
                            dn[t][rr] = new
                if not dn[t]:
                    del dn[t]
        # d_{i-1}: column r disappears; redistribute through the row entries
        if i - 1 >= 0:
            dp = diffs[i - 1]
            col_r = dp.pop(r, None)
            if col_r:
                for cc, rowp in row_entries.items():
                    tgt = dp.setdefault(cc, {})
                    for rr, p in col_r.items():
                        cur = tgt.get(rr, ring.zero())
                        new = cur - p * rowp.scale(Fraction(1) / u)
                        if new.is_zero():
                            tgt.pop(rr, None)
                        else:
                            tgt[rr] = new
                    if not tgt:
                        dp.pop(cc, None)
        del mods[i + 1][c]
        del mods[i][r]

    # repack indices and drop empty tail modules
    new_modules: List[FreeModule] = []
    remaps: List[Dict[int, int]] = []
    for live in mods:
        remap = {old: new for new, old in enumerate(sorted(live))}
        remaps.append(remap)
        new_modules.append(FreeModule(tuple(live[old] for old in sorted(live))))
    new_diffs: List[Matrix] = []
    for i, d in enumerate(diffs):
        out: Matrix = {}
        for c, rows in d.items():
            out[remaps[i + 1][c]] = {
                remaps[i][r]: p for r, p in rows.items() if not p.is_zero()
            }
        new_diffs.append(out)
    while new_modules and new_modules[-1].rank == 0:
        new_modules.pop()
        if new_diffs:
            new_diffs.pop()
    return Resolution(ring, new_modules, new_diffs, list(res.flags))


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
    series = hilbert_series_quotient(I, gb=gb)
    kept: List[int] = []
    reduced = I
    for v in range(I.ring.nvars):
        target, rest = _without(I.ring, kept + [v])
        trial = Ideal(target, [_set_to_zero(g, target, rest) for g in I.generators])
        # (1 - t^w_v) HS(R/J): the numerator of HS(R/J) over the
        # denominator of the smaller ring
        want = RationalSeries(series.numerator, target.weights)
        pos = v - len(kept)  # x_v in the ring of J: every kept variable precedes v
        if not any(m[pos] for m in gb.leading_monomials()):
            others = [k for k in range(reduced.ring.nvars) if k != pos]
            elements = []
            for g in gb.elements:
                image = _set_to_zero(g, target, others)
                ints, _ = primitive(dict(image.terms), image.leading_monomial(gb.order))
                elements.append(Polynomial._raw(target, {m: Fraction(c) for m, c in ints.items()}))
            trial_gb, regular = GroebnerBasis(target, gb.order, elements), True
        else:
            trial_gb = buchberger(trial)
            regular = hilbert_series_quotient(trial, gb=trial_gb).equals(want)
        if regular:
            kept.append(v)
            reduced, gb = trial, trial_gb
    return Reduction(tuple(kept), reduced, gb, series)


# ---------------------------------------------------------------------------
# Koszul homology oracle
# ---------------------------------------------------------------------------

class _NormalFormTable:
    """Normal forms of monomials modulo a Groebner basis, as vectors over
    the standard monomials of each weighted degree."""

    def __init__(self, gb: GroebnerBasis):
        self.gb = gb
        self.ring = gb.ring
        self._keyfn = gb.order.key_function(gb.ring)
        self.std: Dict[int, List[Exponent]] = {}
        self.index: Dict[int, Dict[Exponent, int]] = {}
        self._reducer = Reducer(self.ring, [0], base_keyfn(self.ring, gb.order))
        for g in gb.elements:
            vec = self._reducer.keyfn.encode(_poly_to_mvec(g))
            self._reducer.add(primitive(vec, max(vec))[0])
        self._nf_cache: Dict[Exponent, Dict[int, object]] = {}

    def standard(self, degree: int) -> List[Exponent]:
        got = self.std.get(degree)
        if got is None:
            got = standard_monomials(self.gb, degree)
            got.sort(key=self._keyfn, reverse=True)
            self.std[degree] = got
            self.index[degree] = {m: i for i, m in enumerate(got)}
        return got

    def nf_vector(self, mono: Exponent) -> Dict[int, object]:
        """NF(mono) as {standard-monomial index: coefficient} in its degree.

        Coefficients are ints; a Fraction appears only for a normal form
        that is not integral.
        """
        got = self._nf_cache.get(mono)
        if got is not None:
            return got
        degree = self.ring.weighted_degree(mono)
        self.standard(degree)
        idx = self.index[degree]
        if mono in idx:
            out = {idx[mono]: 1}
        else:
            # mono * den / g == sum(q * basis) + rem
            rem, _, (den, g) = self._reducer._divide({self._reducer.keyfn((0, mono)): 1})
            out = {
                idx[mm[1]]: c * g if den == 1 else Fraction(c * g, den)
                for mm, c in self._reducer.keyfn.decode_vec(rem).items()
            }
        self._nf_cache[mono] = out
        return out


def _strand_homology(
    dim: Callable[[int, int], int],
    columns: Callable[[int, int], Iterable[Dict[int, int]]],
    top: int,
    degrees: Iterable[int],
) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """Strandwise homology of a graded complex C_top -> ... -> C_1 -> C_0.

    dim(i, j) is dim C_{i,j}, and columns(i, j) yields the columns of the
    strand map d_i: C_{i,j} -> C_{i-1,j} as integer vectors over a
    basis of C_{i-1,j}.  Returns {(i, j): (dim ker d_i, rank d_{i+1})} in
    degree j for 0 <= i <= top, with d_0 = d_{top+1} = 0; the homology at
    C_{i,j} has dimension ker - rank.

    The complex must satisfy d o d = 0: then the image of d_i lies in the
    kernel of d_{i-1}, of dimension dim C_{i-1,j} - rank d_{i-1}, and once
    the rank of d_i reaches that bound, the remaining columns cannot add to
    it and are not built.
    """
    out: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for j in degrees:
        ranks = [0]  # ranks[i] = rank of d_i in degree j
        for i in range(1, top + 1):
            bound = dim(i - 1, j) - ranks[i - 1]
            ech = Echelon()
            if bound:
                for vec in columns(i, j):
                    ech.add(vec)
                    if ech.rank == bound:
                        break
            ranks.append(ech.rank)
        ranks.append(0)
        for i in range(top + 1):
            out[(i, j)] = (dim(i, j) - ranks[i], ranks[i + 1])
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
    ring = gb.ring
    table = _NormalFormTable(gb)
    m = ring.nvars
    weights = ring.weights

    def subset_degree(S: Tuple[int, ...]) -> int:
        return sum(weights[t] for t in S)

    # strand bases: (i, j) -> list of (subset, std monomial)
    bases: Dict[Tuple[int, int], List[Tuple[Tuple[int, ...], Exponent]]] = {}

    def strand_basis(i: int, j: int) -> List[Tuple[Tuple[int, ...], Exponent]]:
        key = (i, j)
        got = bases.get(key)
        if got is not None:
            return got
        out: List[Tuple[Tuple[int, ...], Exponent]] = []
        if 0 <= i <= m:
            for S in combinations(range(m), i):
                d = j - subset_degree(S)
                if d < 0:
                    continue
                for u in table.standard(d):
                    out.append((S, u))
        bases[key] = out
        return out

    def columns(i: int, j: int):
        """The strand map (K_i (x) R/I)_j -> (K_{i-1} (x) R/I)_j."""
        idx = {b: k for k, b in enumerate(strand_basis(i - 1, j))}
        for (S, u) in strand_basis(i, j):
            colvec: Dict[int, object] = {}
            for k, t in enumerate(S):
                S2 = S[:k] + S[k + 1:]
                mono = tuple(
                    e + (1 if v == t else 0) for v, e in enumerate(u)
                )
                nf = table.nf_vector(mono)
                if not nf:
                    continue
                d2 = j - subset_degree(S2)
                std2 = table.std[d2]
                sign = -1 if k % 2 else 1
                for pos, c in nf.items():
                    tgt = idx[(S2, std2[pos])]
                    s = colvec.get(tgt, 0) + sign * c
                    if s:
                        colvec[tgt] = s
                    else:
                        colvec.pop(tgt, None)
            if colvec:
                yield primitive(colvec)[0]

    homology = _strand_homology(
        lambda i, j: len(strand_basis(i, j)), columns, m, range(j_cap + 1)
    )
    return BettiTable.from_entries(
        {key: ker - im for key, (ker, im) in homology.items()}
    )


# ---------------------------------------------------------------------------
# complex verification
# ---------------------------------------------------------------------------

def format_resolution(res: Resolution) -> str:
    """Dump: per homological index the shift list, then each differential as
    sparse (row, col, polynomial) triples in the text grammar."""
    from .poly import format_polynomial

    lines = []
    for i, mod in enumerate(res.modules):
        lines.append(f"module {i} shifts {' '.join(map(str, mod.shifts))}")
    for i in range(1, res.length + 1):
        lines.append(f"differential {i}")
        d = res.differential(i)
        for c in sorted(d):
            for r in sorted(d[c]):
                p = d[c][r]
                if not p.is_zero():
                    lines.append(f"  {r} {c} {format_polynomial(p)}")
    return "\n".join(lines) + "\n"


@dataclass
class ComplexReport:
    ok: bool
    message: str = "complex verified"
    failure: Optional[Tuple[str, int, int]] = None  # (kind, level, degree)


def verify_complex(res: Resolution, e_cap: int) -> ComplexReport:
    """Assert d.d = 0 exactly and degreewise exactness at F_i for i >= 1.

    The complex is checked as given, over its own ring, in every degree up
    to e_cap.  To certify a resolution of R/I cheaply, pass the resolution
    of `regular_variables(I).ideal`, as `cli.verify_case` does: it has the
    Betti numbers of R/I in fewer variables.
    """
    ring = res.ring
    # composition check
    for i in range(2, res.length + 1):
        d_hi = res.differential(i)
        d_lo = res.differential(i - 1)
        for c, rows in d_hi.items():
            acc: Dict[int, Polynomial] = {}
            for mid, p in rows.items():
                for r, q in d_lo.get(mid, {}).items():
                    cur = acc.get(r, ring.zero())
                    acc[r] = cur + q * p
            for r, p in acc.items():
                if not p.is_zero():
                    return ComplexReport(
                        False, f"d_{i-1} o d_{i} != 0 at column {c}", ("dd", i, -1)
                    )
    # homogeneity of entries
    for i in range(1, res.length + 1):
        d = res.differential(i)
        hi, lo = res.modules[i], res.modules[i - 1]
        for c, rows in d.items():
            for r, p in rows.items():
                if p.is_zero():
                    continue
                if not p.is_homogeneous() or p.weighted_degree() != hi.shifts[c] - lo.shifts[r]:
                    return ComplexReport(
                        False,
                        f"entry ({r},{c}) of d_{i} is not homogeneous of the right degree",
                        ("degree", i, -1),
                    )
    # degreewise exactness at F_i, i >= 1
    counts = RationalSeries({0: 1}, ring.weights).coefficients(e_cap)
    monos: Dict[int, List[Exponent]] = {}

    def dim(i: int, e: int) -> int:
        """dim (F_i)_e: counts[d] is the number of monomials of degree d."""
        return sum(counts[e - s] for s in res.modules[i].shifts if e - s >= 0)

    def columns(i: int, e: int):
        """(d_i)_e on the basis of generator times monomial."""
        d = res.differential(i)
        hi = res.modules[i]
        # row coordinates: (target gen, monomial)
        row_index: Dict[Tuple[int, Exponent], int] = {}

        def row_id(key: Tuple[int, Exponent]) -> int:
            got = row_index.get(key)
            if got is None:
                got = len(row_index)
                row_index[key] = got
            return got

        for c in sorted(d):
            deg = e - hi.shifts[c]
            if deg < 0:
                continue
            mults = monos.get(deg)
            if mults is None:
                mults = monos[deg] = monomials_of_degree(ring, deg)
            # the column as coprime integers: scaling does not change the rank
            col, _ = primitive(
                {(r, m): coef for r, p in d[c].items() for m, coef in p.terms.items()}
            )
            for mult in mults:
                yield {row_id((r, monomial_mul(m, mult))): coef for (r, m), coef in col.items()}

    homology = _strand_homology(dim, columns, res.length, range(e_cap + 1))
    for i in range(1, res.length + 1):
        for e in range(e_cap + 1):
            ker, im_next = homology[(i, e)]
            if ker != im_next:
                return ComplexReport(
                    False,
                    f"homology at F_{i} in degree {e}: ker {ker} != im {im_next}",
                    ("exactness", i, e),
                )
    return ComplexReport(True, f"d o d = 0, homogeneous, exact for degrees <= {e_cap}")
