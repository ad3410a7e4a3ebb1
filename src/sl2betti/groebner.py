"""Buchberger engine with cofactor tracking, minimalization and Hilbert series.

The engine works uniformly over free-module monomials (position, exponent);
an ideal is the rank-1 case.  Inputs are processed in ascending (sugar)
degree with FIFO tie-breaking, S-pairs are pruned by the Gebauer-Moeller
criteria, and every treated pair that reduces to zero leaves a syzygy trace
expressed over the original inputs.  Those traces are what the resolution
module consumes.  `Reducer` is the division step on its own; the engine
extends it, and `normal_form` and the Koszul oracle's normal-form table
use it directly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .linalg import Echelon, primitive
from .poly import (
    Exponent,
    GradedRing,
    MonomialOrder,
    Polynomial,
    RingMismatchError,
    WEIGHTED,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

ModMono = Tuple[int, Exponent]          # (position, exponent)
MVec = Dict[ModMono, object]            # module element, int or Fraction coeffs
PolyDict = Dict[Exponent, Fraction]     # ring element as plain dict


@dataclass
class Ideal:
    """Finitely generated ideal in a graded ring."""

    ring: GradedRing
    generators: List[Polynomial]

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.ring != self.ring:
                raise RingMismatchError("generator outside the ideal's ring")

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def nonzero_generators(self) -> List[Polynomial]:
        return [g for g in self.generators if not g.is_zero()]


# ---------------------------------------------------------------------------
# integer term-map helpers
# ---------------------------------------------------------------------------

def _poly_dict_add(acc: PolyDict, other: PolyDict, scale: Fraction) -> None:
    if not scale:
        return
    for m, c in other.items():
        s = acc.get(m)
        if s is None:
            acc[m] = c * scale
        else:
            s = s + c * scale
            if s:
                acc[m] = s
            else:
                del acc[m]


def _poly_dict_mul_mono(p: PolyDict, mono: Exponent, scale: Fraction) -> PolyDict:
    if not scale:
        return {}
    return {monomial_mul(m, mono): c * scale for m, c in p.items()}


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

@dataclass
class EngineResult:
    basis: List[Dict[ModMono, int]]
    redundant_inputs: Set[int]
    syzygies: List[Dict[int, Dict[Exponent, int]]]  # traces over input indices
    input_traces: List[Tuple[int, Dict[int, Dict[Exponent, int]]]]


class Reducer:
    """Full division of module elements by a growing list of divisors.

    shifts:   weighted-degree shift per position.
    keyfn:    fixed-length sort key on module monomials; bigger = larger.
    """

    def __init__(
        self,
        ring: GradedRing,
        shifts: Sequence[int],
        keyfn: Callable[[ModMono], tuple],
    ) -> None:
        self.ring = ring
        self.shifts = list(shifts)
        self.keyfn = keyfn
        self.basis: List[MVec] = []
        self.leads: List[ModMono] = []
        self.lead_coeffs: List[object] = []
        self.by_pos: Dict[int, List[int]] = {}

    def add(self, vec: MVec) -> int:
        """Append a nonzero divisor; returns its index."""
        lead = max(vec, key=self.keyfn)
        idx = len(self.basis)
        self.basis.append(vec)
        self.leads.append(lead)
        self.lead_coeffs.append(vec[lead])
        self.by_pos.setdefault(lead[0], []).append(idx)
        return idx

    def _find_reducer(self, mm: ModMono) -> Optional[int]:
        pos, e = mm
        for idx in self.by_pos.get(pos, ()):
            le = self.leads[idx][1]
            ok = True
            for a, b in zip(le, e):
                if a > b:
                    ok = False
                    break
            if ok:
                return idx
        return None

    def _divide(self, vec: MVec) -> Tuple[Dict[ModMono, Fraction], Dict[int, PolyDict]]:
        """Full normal form: vec = sum(quotients * basis) + remainder."""
        keyfn = self.keyfn
        work: Dict[ModMono, Fraction] = {
            m: (c if isinstance(c, Fraction) else Fraction(c)) for m, c in vec.items()
        }
        heap: List[tuple] = [(tuple(-x for x in keyfn(m)), m) for m in work]
        heapq.heapify(heap)
        rem: Dict[ModMono, Fraction] = {}
        quotients: Dict[int, PolyDict] = {}
        while heap:
            _, mm = heapq.heappop(heap)
            c = work.get(mm)
            if not c:
                continue
            idx = self._find_reducer(mm)
            if idx is None:
                rem[mm] = c
                del work[mm]
                continue
            lead = self.leads[idx]
            delta = tuple(a - b for a, b in zip(mm[1], lead[1]))
            factor = c / self.lead_coeffs[idx]
            q = quotients.setdefault(idx, {})
            s = q.get(delta)
            q[delta] = s + factor if s is not None else factor
            if q[delta] == 0:
                del q[delta]
            for bm, bc in self.basis[idx].items():
                tm = (bm[0], tuple(a + b for a, b in zip(bm[1], delta)))
                old = work.get(tm)
                if old is None:
                    nv = -factor * bc
                    if nv:
                        work[tm] = nv
                        heapq.heappush(heap, (tuple(-x for x in keyfn(tm)), tm))
                else:
                    nv = old - factor * bc
                    if nv:
                        work[tm] = nv
                    else:
                        del work[tm]
        return rem, quotients


class BuchbergerEngine(Reducer):
    """Degree-synchronized Buchberger over a free module.

    inputs:   module elements as {(pos, exponent): coefficient}.
    is_ideal: rank-one input, where the product criterion applies.
    """

    def __init__(
        self,
        ring: GradedRing,
        inputs: Sequence[MVec],
        shifts: Sequence[int],
        keyfn: Callable[[ModMono], tuple],
        *,
        track_cofactors: bool = True,
        want_syzygies: bool = False,
        is_ideal: bool = False,
    ) -> None:
        super().__init__(ring, shifts, keyfn)
        self.weights = ring.weights
        self.track = track_cofactors or want_syzygies
        self.want_syzygies = want_syzygies
        self.is_ideal = is_ideal

        self.sugars: List[int] = []
        self.cofactors: List[Dict[int, PolyDict]] = []

        self.redundant: Set[int] = set()
        self.syzygies: List[Dict[int, Dict[Exponent, int]]] = []
        self.input_traces: List[Tuple[int, Dict[int, Dict[Exponent, int]]]] = []
        self._koszul_pairs: List[Tuple[int, int]] = []

        self.pairs: Set[Tuple[int, int]] = set()
        self._tasks: List[tuple] = []
        self._seq = 0
        self._inputs = [dict(v) for v in inputs]
        for idx, vec in enumerate(self._inputs):
            if not vec:
                self.redundant.add(idx)
                continue
            self._push(self._sugar_of(vec), 1, idx)

    # -- degrees -----------------------------------------------------------

    def _mono_wdeg(self, mm: ModMono) -> int:
        pos, e = mm
        d = self.shifts[pos]
        for x, w in zip(e, self.weights):
            d += x * w
        return d

    def _sugar_of(self, vec: MVec) -> int:
        return max(self._mono_wdeg(mm) for mm in vec)

    # -- task queue ----------------------------------------------------------

    def _push(self, degree: int, kind: int, payload) -> None:
        # kind 0 = S-pair, 1 = input: pairs of a degree run before inputs of it
        heapq.heappush(self._tasks, (degree, kind, self._seq, payload))
        self._seq += 1

    # -- cofactor bookkeeping --------------------------------------------------

    def _combine_cofactor(
        self,
        source: Dict[int, PolyDict],
        quotients: Dict[int, PolyDict],
        factor: Fraction,
    ) -> Dict[int, PolyDict]:
        """factor * (source - sum quotients*basis-cofactors), over input indices."""
        acc: Dict[int, PolyDict] = {}
        for inp, p in source.items():
            acc[inp] = {m: c * factor for m, c in p.items()}
        for bidx, q in quotients.items():
            for inp, p in self.cofactors[bidx].items():
                slot = acc.setdefault(inp, {})
                for qm, qc in q.items():
                    _poly_dict_add(slot, _poly_dict_mul_mono(p, qm, Fraction(1)), -qc * factor)
        return {inp: p for inp, p in acc.items() if p}

    @staticmethod
    def _normalize_trace(trace: Dict[int, PolyDict]) -> Dict[int, Dict[Exponent, int]]:
        flat: Dict[Tuple[int, Exponent], Fraction] = {}
        for inp, p in trace.items():
            for m, c in p.items():
                flat[(inp, m)] = c
        ints, _ = primitive(flat, min(flat, default=None))
        out: Dict[int, Dict[Exponent, int]] = {}
        for (inp, m), c in ints.items():
            out.setdefault(inp, {})[m] = c
        return out

    # -- pair management -------------------------------------------------------

    def _update_pairs(self, new_idx: int) -> None:
        """Gebauer-Moeller update when basis element new_idx arrives."""
        lead_new = self.leads[new_idx]
        pos = lead_new[0]
        peers = [i for i in self.by_pos.get(pos, ()) if i != new_idx]
        lcms = {
            i: monomial_lcm(self.leads[i][1], lead_new[1])
            for i in peers
        }
        survivors = set()
        for (i, j) in self.pairs:
            li, lj = self.leads[i], self.leads[j]
            if li[0] == pos and lj[0] == pos:
                old_lcm = monomial_lcm(li[1], lj[1])
                if (
                    monomial_divides(lead_new[1], old_lcm)
                    and old_lcm != lcms[i]
                    and old_lcm != lcms[j]
                ):
                    continue
            survivors.add((i, j))
        self.pairs = survivors

        candidates: Dict[Exponent, List[int]] = {}
        for i in peers:
            candidates.setdefault(lcms[i], []).append(i)
        kept_lcms: List[Exponent] = []
        for L in sorted(candidates, key=lambda e: self.keyfn((pos, e))):
            if all(not monomial_divides(Lk, L) for Lk in kept_lcms):
                kept_lcms.append(L)
        chosen: List[Tuple[int, int]] = []
        for L in kept_lcms:
            group = candidates[L]
            coprime = [
                i for i in group
                if monomial_mul(self.leads[i][1], lead_new[1]) == L
            ]
            if self.is_ideal and coprime:
                # product criterion
                for i in coprime:
                    self._koszul_pairs.append((i, new_idx))
                continue
            chosen.append((min(group), new_idx))

        for (i, j) in chosen:
            self.pairs.add((i, j))
            lcm = monomial_lcm(self.leads[i][1], self.leads[j][1])
            deg = self._mono_wdeg((pos, lcm))
            sug = max(
                self.sugars[i] + deg - self._mono_wdeg(self.leads[i]),
                self.sugars[j] + deg - self._mono_wdeg(self.leads[j]),
            )
            self._push(max(deg, sug), 0, (i, j))

    # -- element insertion ------------------------------------------------------

    def _insert(
        self,
        rem: Dict[ModMono, Fraction],
        source: Dict[int, PolyDict],
        quotients: Dict[int, PolyDict],
        sugar: int,
    ) -> None:
        """Add a nonzero remainder, scaled to coprime integers with positive lead."""
        ints, (den, g) = primitive(rem, max(rem, key=self.keyfn))
        cof = self._combine_cofactor(source, quotients, Fraction(den, g)) if self.track else {}
        idx = self.add(ints)
        self.sugars.append(sugar)
        self.cofactors.append(cof)
        self._update_pairs(idx)

    # -- main loop ----------------------------------------------------------------

    def run(self) -> EngineResult:
        while self._tasks:
            degree, kind, _, payload = heapq.heappop(self._tasks)
            if kind == 1:
                self._process_input(payload, degree)
            else:
                if payload not in self.pairs:
                    continue
                self.pairs.discard(payload)
                self._process_pair(payload, degree)
        if self.want_syzygies:
            for (i, j) in self._koszul_pairs:
                self._emit_koszul(i, j)
        return EngineResult(
            basis=self.basis,
            redundant_inputs=self.redundant,
            syzygies=self.syzygies,
            input_traces=self.input_traces,
        )

    def _process_input(self, idx: int, sugar: int) -> None:
        vec = self._inputs[idx]
        rem, quotients = self._divide(vec)
        source = {idx: {self.ring.zero_exponent(): Fraction(1)}} if self.track else {}
        if not rem:
            self.redundant.add(idx)
            if self.want_syzygies:
                trace = self._combine_cofactor(source, quotients, Fraction(1))
                self.input_traces.append((idx, self._normalize_trace(trace)))
            return
        self._insert(rem, source, quotients, sugar)

    def _process_pair(self, pair: Tuple[int, int], sugar: int) -> None:
        i, j = pair
        li, lj = self.leads[i], self.leads[j]
        pos = li[0]
        lcm = monomial_lcm(li[1], lj[1])
        mi = tuple(a - b for a, b in zip(lcm, li[1]))
        mj = tuple(a - b for a, b in zip(lcm, lj[1]))
        ci, cj = self.lead_coeffs[i], self.lead_coeffs[j]
        spair: Dict[ModMono, int] = {}
        for mm, c in self.basis[i].items():
            spair[(mm[0], monomial_mul(mm[1], mi))] = c * cj
        for mm, c in self.basis[j].items():
            key = (mm[0], monomial_mul(mm[1], mj))
            s = spair.get(key, 0) - c * ci
            if s:
                spair[key] = s
            else:
                spair.pop(key, None)
        source: Dict[int, PolyDict] = {}
        if self.track:
            for inp, p in self.cofactors[i].items():
                _poly_dict_add(source.setdefault(inp, {}), _poly_dict_mul_mono(p, mi, Fraction(cj)), Fraction(1))
            for inp, p in self.cofactors[j].items():
                _poly_dict_add(source.setdefault(inp, {}), _poly_dict_mul_mono(p, mj, Fraction(ci)), Fraction(-1))
            source = {inp: p for inp, p in source.items() if p}
        if not spair:
            if self.want_syzygies and source:
                self.syzygies.append(self._normalize_trace(source))
            return
        rem, quotients = self._divide(spair)
        if not rem:
            if self.want_syzygies:
                trace = self._combine_cofactor(source, quotients, Fraction(1))
                if trace:
                    self.syzygies.append(self._normalize_trace(trace))
            return
        self._insert(rem, source, quotients, sugar)

    def _emit_koszul(self, i: int, j: int) -> None:
        """Trivial syzygy g_j*eps_i - g_i*eps_j for a product-criterion skip."""
        gi, gj = self.basis[i], self.basis[j]
        trace: Dict[int, PolyDict] = {}
        for inp, p in self.cofactors[i].items():
            slot = trace.setdefault(inp, {})
            for mm, c in gj.items():
                _poly_dict_add(slot, _poly_dict_mul_mono(p, mm[1], Fraction(c)), Fraction(1))
        for inp, p in self.cofactors[j].items():
            slot = trace.setdefault(inp, {})
            for mm, c in gi.items():
                _poly_dict_add(slot, _poly_dict_mul_mono(p, mm[1], Fraction(c)), Fraction(-1))
        trace = {inp: p for inp, p in trace.items() if p}
        if trace:
            self.syzygies.append(self._normalize_trace(trace))

    def _interreduce(self) -> None:
        """Tail-reduce the completed basis; `buchberger` calls this after `run`.

        Resolution levels read only syzygies and traces and skip it.
        """
        removed = set()
        for idx in range(len(self.basis)):
            own = self.basis[idx]
            self.by_pos[self.leads[idx][0]].remove(idx)
            rem, quotients = self._divide(own)
            if not rem:
                # lead divisible by another element's lead: redundant in the
                # completed basis (possible only for non-homogeneous runs)
                removed.add(idx)
                continue
            self.by_pos[self.leads[idx][0]].append(idx)
            self.by_pos[self.leads[idx][0]].sort()
            if not quotients:
                continue
            lead = max(rem, key=self.keyfn)
            # tail reduction of a completed basis cannot move the lead
            assert lead == self.leads[idx], "interreduction changed a lead term"
            ints, (den, g) = primitive(rem, lead)
            self.basis[idx] = ints
            self.lead_coeffs[idx] = ints[lead]
            if self.track:
                source = {
                    inp: dict(p) for inp, p in self.cofactors[idx].items()
                }
                self.cofactors[idx] = self._combine_cofactor(source, quotients, Fraction(den, g))
        if removed:
            keep = [i for i in range(len(self.basis)) if i not in removed]
            self.basis = [self.basis[i] for i in keep]
            self.leads = [self.leads[i] for i in keep]
            self.lead_coeffs = [self.lead_coeffs[i] for i in keep]
            self.sugars = [self.sugars[i] for i in keep]
            self.cofactors = [self.cofactors[i] for i in keep]
            self.by_pos = {}
            for new_idx, lead in enumerate(self.leads):
                self.by_pos.setdefault(lead[0], []).append(new_idx)


# ---------------------------------------------------------------------------
# public ideal-level operations
# ---------------------------------------------------------------------------

def base_keyfn(ring: GradedRing, order: MonomialOrder = WEIGHTED) -> Callable[[ModMono], tuple]:
    """Key on rank-one module monomials: the ring order."""
    base = order.key_function(ring)
    return lambda mm: base(mm[1])


def _poly_to_mvec(p: Polynomial) -> MVec:
    return {(0, m): c for m, c in p.terms.items()}


def _mvec_to_poly(ring: GradedRing, vec: Dict[ModMono, int]) -> Polynomial:
    return Polynomial._raw(ring, {mm[1]: Fraction(c) for mm, c in vec.items()})


@dataclass
class GroebnerBasis:
    ring: GradedRing
    order: MonomialOrder
    elements: List[Polynomial]
    cofactors: List[List[Polynomial]]   # row i expresses elements[i] over the inputs
    inputs: List[Polynomial]

    def leading_monomials(self) -> List[Exponent]:
        return [g.leading_monomial(self.order) for g in self.elements]

    def reduce(self, p: Polynomial) -> Polynomial:
        r, _ = normal_form(p, self.elements, self.order)
        return r

    def contains(self, p: Polynomial) -> bool:
        return self.reduce(p).is_zero()


def normal_form(
    p: Polynomial,
    reducers: Sequence[Polynomial],
    order: MonomialOrder = WEIGHTED,
) -> Tuple[Polynomial, List[Polynomial]]:
    """Division remainder and cofactors: p = sum(cof*g) + remainder.

    Deterministic: each step reduces by the first divisor in list order.
    """
    ring = p.ring
    for g in reducers:
        if g.ring != ring:
            raise RingMismatchError("reducers from a different ring")
        if g.is_zero():
            raise ValueError("zero reducer")
    reducer = Reducer(ring, [0], base_keyfn(ring, order))
    for g in reducers:
        reducer.add(_poly_to_mvec(g))
    rem, quotients = reducer._divide(_poly_to_mvec(p))
    remainder = Polynomial._raw(ring, {mm[1]: c for mm, c in rem.items()})
    cofs = []
    for i in range(len(reducers)):
        q = quotients.get(i, {})
        cofs.append(Polynomial._raw(ring, dict(q)))
    return remainder, cofs


def buchberger(
    gens: Ideal,
    order: MonomialOrder = WEIGHTED,
    *,
    track_cofactors: bool = True,
) -> GroebnerBasis:
    """Reduced Groebner basis with exact cofactor rows over the inputs."""
    ring = gens.ring
    inputs = gens.nonzero_generators()
    engine = BuchbergerEngine(
        ring,
        [_poly_to_mvec(p) for p in inputs],
        [0],
        base_keyfn(ring, order),
        track_cofactors=track_cofactors,
        is_ideal=True,
    )
    engine.run()
    engine._interreduce()
    elements = [_mvec_to_poly(ring, vec) for vec in engine.basis]
    cof_rows: List[List[Polynomial]] = []
    if track_cofactors:
        for cof in engine.cofactors:
            row = []
            for i in range(len(inputs)):
                row.append(Polynomial._raw(ring, dict(cof.get(i, {}))))
            cof_rows.append(row)
    return GroebnerBasis(ring, order, elements, cof_rows, inputs)


def ideals_equal(a: Ideal, b: Ideal, order: MonomialOrder = WEIGHTED) -> bool:
    """Mutual reduction to zero of generators against the other's basis."""
    gb_a = buchberger(a, order, track_cofactors=False)
    gb_b = buchberger(b, order, track_cofactors=False)
    return all(gb_a.contains(g) for g in b.generators) and all(
        gb_b.contains(g) for g in a.generators
    )


# ---------------------------------------------------------------------------
# graded minimal generators
# ---------------------------------------------------------------------------

def monomials_of_degree(ring: GradedRing, degree: int) -> List[Exponent]:
    """All monomials of exact weighted degree, in a fixed deterministic order."""
    out: List[Exponent] = []
    n = ring.nvars
    w = ring.weights
    def rec(i: int, remaining: int, prefix: List[int]) -> None:
        if i == n:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        if remaining < 0:
            return
        # bound exponent by remaining weight budget
        top = remaining // w[i]
        for e in range(top + 1):
            prefix.append(e)
            rec(i + 1, remaining - e * w[i], prefix)
            prefix.pop()
    rec(0, degree, [])
    return out


def minimal_generators(
    I: Ideal,
    order: MonomialOrder = WEIGHTED,
    gb: Optional[GroebnerBasis] = None,
) -> List[Tuple[Polynomial, int]]:
    """Minimal homogeneous generating set with degrees, ascending.

    Per weighted degree, the span of monomial multiples of lower-degree
    output elements is computed inside the degree piece and a complement
    basis of the ideal's piece is appended; the degree multiset of the
    output is independent of all choices.
    """
    ring = I.ring
    gens = I.nonzero_generators()
    if not gens:
        return []
    if not I.is_homogeneous():
        raise ValueError("minimal_generators requires a homogeneous ideal")
    if gb is None:
        gb = buchberger(I, order, track_cofactors=False)
    degrees = sorted({g.weighted_degree() for g in gens})
    max_deg = degrees[-1]
    min_deg = degrees[0]
    keyfn = order.key_function(ring)
    chosen: List[Tuple[Polynomial, int]] = []
    for e in range(min_deg, max_deg + 1):
        monos = monomials_of_degree(ring, e)
        if not monos:
            continue
        monos.sort(key=keyfn, reverse=True)
        index = {m: i for i, m in enumerate(monos)}
        ech = Echelon()
        for g, d in chosen:
            ints, _ = primitive(g.terms)
            for mult in monomials_of_degree(ring, e - d):
                ech.add({index[monomial_mul(m, mult)]: c for m, c in ints.items()})
        new_rows: List[Dict[int, int]] = []
        for g in gb.elements:
            d = g.weighted_degree()
            if d > e:
                continue
            ints, _ = primitive(g.terms)
            for mult in monomials_of_degree(ring, e - d):
                rem = ech.add({index[monomial_mul(m, mult)]: c for m, c in ints.items()})
                if rem is not None:
                    new_rows.append(rem)
        for row in new_rows:
            terms = {monos[i]: Fraction(c) for i, c in row.items()}
            chosen.append((Polynomial._raw(ring, terms).normalize(order), e))
    return chosen


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------

@dataclass
class RationalSeries:
    """numerator / prod(1 - z^w) with integer numerator coefficients."""

    numerator: Dict[int, int]
    denominator_weights: Tuple[int, ...]

    def coefficients(self, upto: int) -> List[int]:
        c = [0] * (upto + 1)
        for d, v in self.numerator.items():
            if 0 <= d <= upto:
                c[d] += v
        for w in self.denominator_weights:
            for i in range(w, upto + 1):
                c[i] += c[i - w]
        return c

    def numerator_coefficients(self) -> List[int]:
        if not self.numerator:
            return [0]
        top = max(self.numerator)
        return [self.numerator.get(i, 0) for i in range(top + 1)]

    def equals(self, other: "RationalSeries") -> bool:
        left = dict(self.numerator)
        right = dict(other.numerator)
        for w in other.denominator_weights:
            left = _poly1_mul_cyclotomic(left, w)
        for w in self.denominator_weights:
            right = _poly1_mul_cyclotomic(right, w)
        return left == right


def _poly1_mul_cyclotomic(p: Dict[int, int], w: int) -> Dict[int, int]:
    out = dict(p)
    for d, v in p.items():
        s = out.get(d + w, 0) - v
        if s:
            out[d + w] = s
        else:
            out.pop(d + w, None)
    return {d: v for d, v in out.items() if v}


def hilbert_numerator_monomial(
    lead_terms: Sequence[Exponent], ring: GradedRing
) -> Dict[int, int]:
    """Numerator of the Hilbert series of R/(monomial ideal).

    Divide-and-conquer pivot recursion: split on a variable shared by at
    least two minimal generators, with coprime products as the base case.
    """
    weights = ring.weights

    def wdeg(m: Exponent) -> int:
        return sum(e * w for e, w in zip(m, weights))

    def minimalize(gens: List[Exponent]) -> List[Exponent]:
        gens = sorted(set(gens), key=lambda m: (wdeg(m), m))
        out: List[Exponent] = []
        for g in gens:
            if not any(monomial_divides(h, g) for h in out):
                out.append(g)
        return out

    def rec(gens: List[Exponent]) -> Dict[int, int]:
        gens = minimalize(gens)
        if not gens:
            return {0: 1}
        if any(all(e == 0 for e in g) for g in gens):
            return {}
        occupancy = [0] * len(weights)
        for g in gens:
            for i, e in enumerate(g):
                if e:
                    occupancy[i] += 1
        pivot = max(range(len(weights)), key=lambda i: occupancy[i])
        if occupancy[pivot] <= 1:
            # pairwise coprime generators
            num = {0: 1}
            for g in gens:
                num = _poly1_mul_cyclotomic(num, wdeg(g))
            return num
        # I = (I + (x_pivot)) union z^w * (I : x_pivot)
        added = [g for g in gens if g[pivot] == 0] + [
            tuple(1 if i == pivot else 0 for i in range(len(weights)))
        ]
        colon = [
            tuple(e - 1 if i == pivot and e > 0 else e for i, e in enumerate(g))
            for g in gens
        ]
        a = rec(added)
        b = rec(colon)
        w = weights[pivot]
        out = dict(a)
        for d, v in b.items():
            s = out.get(d + w, 0) + v
            if s:
                out[d + w] = s
            else:
                out.pop(d + w, None)
        return out

    return rec(list(lead_terms))


def hilbert_series_quotient(
    I: Ideal,
    ring: Optional[GradedRing] = None,
    order: MonomialOrder = WEIGHTED,
    gb: Optional[GroebnerBasis] = None,
) -> RationalSeries:
    """Hilbert-Poincare series of R/I over prod(1 - z^w_i)."""
    ring = ring or I.ring
    if not I.is_homogeneous():
        raise ValueError("hilbert_series_quotient requires a homogeneous ideal")
    gens = I.nonzero_generators()
    if not gens:
        return RationalSeries({0: 1}, ring.weights)
    if gb is None:
        gb = buchberger(I, order, track_cofactors=False)
    leads = gb.leading_monomials()
    return RationalSeries(hilbert_numerator_monomial(leads, ring), ring.weights)


def standard_monomials(
    gb: GroebnerBasis, degree: int
) -> List[Exponent]:
    """Monomials of the given weighted degree outside the leading-term ideal."""
    leads = gb.leading_monomials()
    out = []
    for m in monomials_of_degree(gb.ring, degree):
        if not any(monomial_divides(lt, m) for lt in leads):
            out.append(m)
    return out
