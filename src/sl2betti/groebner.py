"""Buchberger engine with syzygy traces, minimalization and Hilbert series.

The engine works uniformly over free-module monomials (position, exponent);
an ideal is the rank-1 case.  Inputs must be homogeneous.  Each input and
S-pair is treated at its own degree, in ascending order with FIFO
tie-breaking; S-pairs are pruned by the Gebauer-Moeller criteria, and,
when asked, every treated pair that reduces to zero leaves a syzygy trace
expressed over the original inputs.  Those traces are what
the resolution module consumes.  `Reducer` is the division step on its
own; the engine extends it, and `normal_form` and the Koszul oracle's
strands use it directly.  `BuchbergerEngine.quotient_series` is the
Hilbert series of the quotient by the engine's leading terms, and
`standard_monomials` lists a basis of such a quotient in one degree.
Inside them a module monomial is one
int, its `ModuleKey` value, and every monomial test is an int operation:
division, the pair update (each live pair keeps its lcm's key, so lcm
equality is an int comparison and divisibility one masked subtraction) and
`standard_monomials`.  Exponent tuples are decoded only at the edges and
for the cofactor shifts.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .linalg import primitive
from .poly import (
    FIELD_BITS,
    MAX_EXPONENT,
    Exponent,
    GradedRing,
    MonomialOrder,
    PackedKey,
    Polynomial,
    RingMismatchError,
    WEIGHTED,
    graded_monomials,
    monomial_mul,
)

ModMono = Tuple[int, Exponent]          # (position, exponent)
MVec = Dict[ModMono, int]               # integer module element
KVec = Dict[int, int]                   # the same, keyed by ModuleKey values


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
# module orders as integers
# ---------------------------------------------------------------------------

def exponent_overflow() -> ValueError:
    return ValueError(f"an exponent exceeds the supported maximum {MAX_EXPONENT}")


class ModuleKey:
    """A module order as one int: key(pos, m) = base(prods[pos] * m) << tie_bits | ties[pos].

    base is the ring order's `PackedKey`, so the key is affine in m:
    key(pos, m * q) = key(pos, m) + key(pos, q) - key(pos, 1).  prods[pos]
    is the monomial position pos stands for in the ring (1 in a free
    module, the product of the Schreyer tags in a resolution), and
    ties[pos] < 2**tie_bits the position tie-break, whose lowest pos_bits
    bits are rank - 1 - pos.  So the lowest tie_bits + nvars*FIELD_BITS
    bits of a key hold the position and MAX_EXPONENT - e[i] for the
    exponent e of prods[pos] * m, with every guard bit clear.

    `ModuleKey(base)` is the ring order on the rank-one module R, where
    every resolution starts; `induced` builds the Schreyer order of the
    next module.
    """

    __slots__ = ("base", "prods", "ties", "tie_bits", "pos_mask", "top", "consts",
                 "coeffs", "low", "guard", "value", "_shifts", "_monos")

    def __init__(self, base: PackedKey) -> None:
        self._layout(base, [(0,) * base.nvars], [0], 0, 0)

    def induced(self, tags: Sequence[ModMono]) -> "ModuleKey":
        """Order induced by the leading terms tags, position tie-break.

        The same total order as the composition
        key(pos, m) = (self((tpos, tmono * m)), -pos) with (tpos, tmono) = tags[pos]:
        position pos stands for prods[tpos] * tmono, and its tie is
        ties[tpos] << b | (rank - 1 - pos), the lowest level most
        significant, with b the bits of rank - 1.
        """
        rank = len(tags)
        bits = max(rank - 1, 0).bit_length()
        key = ModuleKey.__new__(ModuleKey)
        key._layout(
            self.base,
            [monomial_mul(self.prods[tpos], tmono) for tpos, tmono in tags],
            [self.ties[tpos] << bits | (rank - 1 - pos) for pos, (tpos, _) in enumerate(tags)],
            self.tie_bits + bits,
            bits,
        )
        return key

    def _layout(
        self,
        base: PackedKey,
        prods: Sequence[Exponent],
        ties: Sequence[int],
        tie_bits: int,
        pos_bits: int,
    ) -> None:
        self.base = base
        self.prods = tuple(prods)
        self.ties = tuple(ties)
        self.tie_bits = tie_bits
        self.pos_mask = (1 << pos_bits) - 1
        self.top = len(self.ties) - 1
        # key(pos, m) = consts[pos] + sum(m[i] * coeffs[i])
        self.consts = tuple(base(p) << tie_bits | t for p, t in zip(self.prods, self.ties))
        self.coeffs = tuple(q << tie_bits for q in base.coeffs)
        n, f = base.nvars, FIELD_BITS
        self.low = (1 << (tie_bits + n * f)) - 1
        self.guard = sum(1 << (tie_bits + f * i + f - 1) for i in range(n))
        self.value = self.low ^ self.guard ^ ((1 << tie_bits) - 1)
        self._shifts = tuple(tie_bits + f * i for i in range(n))
        self._monos: Dict[int, Exponent] = {}

    def __call__(self, mm: ModMono) -> int:
        pos, m = mm
        if max(map(add, self.prods[pos], m), default=0) > MAX_EXPONENT:
            raise exponent_overflow()
        return self.consts[pos] + sum(map(mul, m, self.coeffs))

    def decode(self, key: int) -> ModMono:
        pos = self.top - (key & self.pos_mask)
        full = self.base.decode(key >> self.tie_bits)
        return pos, tuple(map(sub, full, self.prods[pos]))

    def monomial(self, code: int) -> Exponent:
        """The exponent whose fields `code` holds at the key's field
        positions with guard and tie bits clear: for a divisor's lead l and
        a term t it divides, (masks entry - t) & value holds t / l."""
        got = self._monos.get(code)
        if got is None:
            mask = (1 << FIELD_BITS) - 1
            got = self._monos[code] = tuple((code >> s) & mask for s in self._shifts)
        return got

    def encode(self, vec: MVec) -> KVec:
        return {self(mm): c for mm, c in vec.items()}

    def decode_vec(self, vec: KVec) -> MVec:
        return {self.decode(k): c for k, c in vec.items()}


# ---------------------------------------------------------------------------
# integer term-map helpers
# ---------------------------------------------------------------------------

def _add_shifted(acc: MVec, vec: MVec, mono: Exponent, scale: int) -> None:
    """acc += scale * x^mono * vec, for integer dicts keyed by (index, exponent)."""
    for (pos, e), c in vec.items():
        key = (pos, tuple(map(add, e, mono)))
        v = acc.get(key, 0) + scale * c
        if v:
            acc[key] = v
        else:
            del acc[key]


def _add_offset(acc: KVec, vec: KVec, offset: int, scale: int, guard: int) -> None:
    """acc += scale * vec shifted by a monomial whose key difference is offset.

    The shifted exponents stay below 2 * MAX_EXPONENT, so an exponent past
    MAX_EXPONENT sets the guard bit of its field.
    """
    for k, c in vec.items():
        k += offset
        if k & guard:
            raise exponent_overflow()
        v = acc.get(k, 0) + scale * c
        if v:
            acc[k] = v
        else:
            del acc[k]


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class Reducer:
    """Full division of integer module elements by a growing list of divisors.

    keyfn is the `ModuleKey` of the module order.  Module elements are
    KVecs, {keyfn((pos, m)): coefficient}, and keyfn.encode /
    keyfn.decode_vec convert MVecs.  The key is an int that is affine in m,
    so shifting a divisor by a monomial adds one integer to each of its
    keys, and the lead of a divisor divides a term of the same position iff
    subtracting the term's key from the divisor's `masks` entry (its lowest
    key bits with every guard bit set) leaves every guard bit set.
    Divisors are stored once, keyed; their lead coefficients may be any
    nonzero integer.  Division runs on integers only (see `_divide`).
    """

    def __init__(self, keyfn: ModuleKey) -> None:
        self.keyfn = keyfn
        self.basis: List[KVec] = []
        self.leads: List[ModMono] = []
        self.lead_keys: List[int] = []
        self.lead_coeffs: List[int] = []
        self.masks: List[int] = []
        self.by_pos: Dict[int, List[int]] = {}

    def add(self, vec: KVec) -> int:
        """Append a nonzero integer divisor; returns its index."""
        lead = max(vec)
        idx = len(self.basis)
        self.basis.append(vec)
        self.leads.append(self.keyfn.decode(lead))
        self.lead_keys.append(lead)
        self.lead_coeffs.append(vec[lead])
        self.masks.append(lead & self.keyfn.low | self.keyfn.guard)
        self.by_pos.setdefault(self.leads[idx][0], []).append(idx)
        return idx

    def _divide(self, vec: KVec) -> Tuple[KVec, Dict[int, Dict[Exponent, int]], Tuple[int, int]]:
        """Full normal form in integers: (rem, quotients, (den, g)) with
        vec * den / g == sum(quotients[k] * basis[k]) + rem.

        vec may carry int or Fraction coefficients; it is made primitive
        once, with scale (den, g).  When a lead coefficient a does not divide
        the current term c, the whole state (work, remainder and quotients)
        is multiplied by |a| / gcd(c, a), and den keeps that factor.  Terms
        are treated in decreasing key order, which is also the order of rem
        and of each quotient.
        """
        work, (den, g) = primitive(vec)
        if work is vec:
            work = dict(vec)
        key = self.keyfn
        top, pos_mask, guard, value = key.top, key.pos_mask, key.guard, key.value
        lead_keys, lead_coeffs, masks = self.lead_keys, self.lead_coeffs, self.masks
        basis, by_pos = self.basis, self.by_pos
        heap = [-k for k in work]
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        rem: KVec = {}
        quotients: Dict[int, Dict[Exponent, int]] = {}
        while heap:
            k = -pop(heap)
            c = work.get(k)
            if c is None:
                continue
            for idx in by_pos.get(top - (k & pos_mask), ()):
                d = masks[idx] - k
                if d & guard == guard:
                    break
            else:
                rem[k] = c
                del work[k]
                continue
            a = lead_coeffs[idx]
            f, r = divmod(c, a)
            if r:
                s = abs(a) // gcd(c, a)
                den *= s
                for t in work:
                    work[t] *= s
                for t in rem:
                    rem[t] *= s
                for q in quotients.values():
                    for t in q:
                        q[t] *= s
                f = c * s // a
            # each term is reduced at most once: later terms are smaller
            quotients.setdefault(idx, {})[key.monomial(d & value)] = f
            offset = k - lead_keys[idx]
            for t, bc in basis[idx].items():
                t += offset
                old = work.get(t)
                if old is None:
                    # a key with a guard bit set belongs to no valid monomial,
                    # so an overflowing term is always a new one
                    if t & guard:
                        raise exponent_overflow()
                    work[t] = -f * bc
                    push(heap, -t)
                else:
                    nv = old - f * bc
                    if nv:
                        work[t] = nv
                    else:
                        del work[t]
        return rem, quotients, (den, g)


class BuchbergerEngine(Reducer):
    """Degree-synchronized Buchberger over a free module.

    inputs:        nonzero homogeneous module elements as
                   {(pos, exponent): coefficient}, MVecs with int or Fraction
                   coefficients, each of degree the one value of
                   `_mono_wdeg` over its terms; `add_input`
                   raises ValueError for any other.  The engine keys them by
                   `keyfn` once, into `keyed_inputs`.  `_divide` makes each
                   one primitive before it is used, so rational inputs give
                   the same basis; their scale ends up in the cofactors.
    shifts:        weighted-degree shift per position.
    keyfn:         the `ModuleKey` of the module order.
    want_syzygies: record the syzygy and input traces.  They are built from
                   the cofactors, so cofactors are tracked exactly then.

    The basis holds KVecs (see `Reducer`).  With want_syzygies, basis
    element k is cofactors[k] / cof_dens[k] over the inputs: an integer MVec
    keyed by (input index, exponent) and one positive denominator, so no
    per-term rational arithmetic is needed.  The product criterion applies
    when the module has rank one, where the order is a ring order.

    Each input runs at its degree and each S-pair at its lcm's degree, in
    (degree, kind, seq) order, and `run(upto=e)` stops before the first
    task of degree above e; the basis is then complete through degree e.
    An input added by `add_input` after such a run, of degree at least e,
    takes the place it would have had among the inputs of one engine built
    with all of them: inputs of one degree run in index order, after that
    degree's pairs, and pairs keep their push order.  So growing the inputs
    degree by degree treats the same tasks in the same order and ends in
    the same basis.
    """

    def __init__(
        self,
        ring: GradedRing,
        inputs: Sequence[MVec],
        shifts: Sequence[int],
        keyfn: ModuleKey,
        *,
        want_syzygies: bool = False,
    ) -> None:
        super().__init__(keyfn)
        self.ring = ring
        self.shifts = list(shifts)
        self.weights = ring.weights
        self.want_syzygies = want_syzygies

        self.cofactors: List[MVec] = []
        self.cof_dens: List[int] = []

        self.redundant: Set[int] = set()
        self.syzygies: List[MVec] = []
        self.input_traces: List[Tuple[int, MVec]] = []
        self._koszul_pairs: List[Tuple[int, int]] = []

        # live S-pairs and the lcm of their leading monomials, as
        # (key, position, exponent)
        self.pairs: Dict[Tuple[int, int], Tuple[int, int, Exponent]] = {}
        self._tasks: List[tuple] = []
        self._seq = 0
        self.keyed_inputs: List[KVec] = []
        for vec in inputs:
            self.add_input(vec)

    def add_input(self, vec: MVec) -> None:
        """Queue one more input, with the next index, at its degree.

        Raises ValueError unless vec is nonzero and homogeneous.
        """
        degrees = {self._mono_wdeg(mm) for mm in vec}
        if len(degrees) != 1:
            raise ValueError("BuchbergerEngine requires nonzero homogeneous inputs")
        idx = len(self.keyed_inputs)
        self.keyed_inputs.append(self.keyfn.encode(vec))
        self._push(degrees.pop(), 1, idx)

    # -- degrees -----------------------------------------------------------

    def _mono_wdeg(self, mm: ModMono) -> int:
        pos, e = mm
        d = self.shifts[pos]
        for x, w in zip(e, self.weights):
            d += x * w
        return d

    # -- task queue ----------------------------------------------------------

    def _push(self, degree: int, kind: int, payload) -> None:
        # kind 0 = S-pair, 1 = input: pairs of a degree run before inputs of it
        heapq.heappush(self._tasks, (degree, kind, self._seq, payload))
        self._seq += 1

    # -- cofactor bookkeeping --------------------------------------------------

    def _combine_cofactor(
        self,
        source: MVec,
        sden: int,
        quotients: Dict[int, Dict[Exponent, int]],
        scale: Tuple[int, int],
        g2: int = 1,
    ) -> Tuple[MVec, int]:
        """(num, den) of (vec * d / g - sum quotients*basis) / g2 over the inputs.

        vec = source / sden, (d, g) is the scale `_divide` returned for it
        and g2 a further content to take out; den > 0.
        """
        d, g = scale
        dens = self.cof_dens
        common = lcm(sden * g, *(dens[k] for k in quotients))
        f0 = d * (common // (sden * g))
        num = {k: c * f0 for k, c in source.items()} if f0 != 1 else dict(source)
        for k, q in quotients.items():
            fk = common // dens[k]
            cof = self.cofactors[k]
            for qm, qc in q.items():
                _add_shifted(num, cof, qm, -qc * fk)
        den = common * g2
        if den != 1:
            h = gcd(den, *num.values())
            if den < 0:
                h = -h
            if h != 1:
                num = {k: c // h for k, c in num.items()}
                den //= h
        return num, den

    @staticmethod
    def _normalize_trace(trace: MVec) -> MVec:
        return primitive(trace, min(trace, default=None))[0]

    # -- pair management -------------------------------------------------------

    def _update_pairs(self, new_idx: int) -> None:
        """Gebauer-Moeller update when basis element new_idx arrives.

        Every test is on `ModuleKey` ints of position pos.  A lead with
        `masks` entry M divides a monomial of key K iff (M - K) keeps every
        guard bit, the test `_divide` uses, and an lcm's own mask is
        K & low | guard.  Candidates are grouped by lcm key and taken in
        increasing key order, which is the module order.
        """
        key = self.keyfn
        pos, lead_new = self.leads[new_idx]
        guard, low = key.guard, key.low
        const, coeffs = key.consts[pos], key.coeffs
        leads, lead_keys = self.leads, self.lead_keys
        peers = [i for i in self.by_pos.get(pos, ()) if i != new_idx]
        lcm_monos: Dict[int, Exponent] = {}
        lcm_keys: Dict[int, int] = {}
        for i in peers:
            L = lcm_monos[i] = tuple(map(max, leads[i][1], lead_new))
            lcm_keys[i] = const + sum(map(mul, L, coeffs))

        # B-criterion: drop (i, j) when lead_new divides its lcm and that lcm
        # is neither lcm(i, new) nor lcm(j, new)
        mask = self.masks[new_idx]
        pairs = self.pairs
        doomed = [
            (i, j) for (i, j), (K, p, _) in pairs.items()
            if p == pos and (mask - K) & guard == guard
            and K != lcm_keys[i] and K != lcm_keys[j]
        ]
        for ij in doomed:
            del pairs[ij]

        candidates: Dict[int, List[int]] = {}
        for i in peers:
            candidates.setdefault(lcm_keys[i], []).append(i)
        kept_masks: List[int] = []
        chosen: List[int] = []
        # lead_i * lead_new has key lead_keys[i] + k_coprime; unless the two
        # are coprime it is a proper multiple of their lcm, with a larger
        # key, so key equality is the coprimality test
        k_coprime = lead_keys[new_idx] - const
        for K in sorted(candidates):
            if any((m - K) & guard == guard for m in kept_masks):
                continue
            kept_masks.append(K & low | guard)
            group = candidates[K]
            coprime = [i for i in group if lead_keys[i] + k_coprime == K]
            if coprime and len(self.shifts) == 1:
                # product criterion
                for i in coprime:
                    self._koszul_pairs.append((i, new_idx))
                continue
            chosen.append(min(group))

        shift, weights = self.shifts[pos], self.weights
        for i in chosen:
            L = lcm_monos[i]
            pairs[(i, new_idx)] = (lcm_keys[i], pos, L)
            self._push(shift + sum(map(mul, L, weights)), 0, (i, new_idx))

    # -- element insertion ------------------------------------------------------

    def _insert(
        self,
        rem: MVec,
        source: MVec,
        sden: int,
        quotients: Dict[int, Dict[Exponent, int]],
        scale: Tuple[int, int],
    ) -> None:
        """Add a nonzero remainder, scaled to coprime integers with positive lead."""
        ints, (_, g2) = primitive(rem, max(rem))
        cof, den = (
            self._combine_cofactor(source, sden, quotients, scale, g2)
            if self.want_syzygies else ({}, 1)
        )
        idx = self.add(ints)
        self.cofactors.append(cof)
        self.cof_dens.append(den)
        self._update_pairs(idx)

    # -- main loop ----------------------------------------------------------------

    def run(self, upto: Optional[int] = None) -> "BuchbergerEngine":
        """Treat the queued tasks, with upto only those of degree <= upto;
        the basis is then complete through degree upto.  Returns the engine:
        callers read `basis`, `redundant`, `syzygies` and `input_traces`.

        Product-criterion syzygies are emitted once the queue is empty, each
        once, so a truncated run holds only the syzygies so far.
        """
        tasks = self._tasks
        while tasks and (upto is None or tasks[0][0] <= upto):
            _, kind, _, payload = heapq.heappop(tasks)
            if kind == 1:
                self._process_input(payload)
            else:
                lcm_ij = self.pairs.pop(payload, None)
                if lcm_ij is None:
                    continue
                self._process_pair(payload, lcm_ij)
        if self.want_syzygies and not tasks:
            for (i, j) in self._koszul_pairs:
                self._emit_koszul(i, j)
            self._koszul_pairs = []
        return self

    def _process_input(self, idx: int) -> None:
        vec = self.keyed_inputs[idx]
        rem, quotients, scale = self._divide(vec)
        source = {(idx, self.ring.zero_exponent()): 1} if self.want_syzygies else {}
        if not rem:
            self.redundant.add(idx)
            if self.want_syzygies:
                trace, _ = self._combine_cofactor(source, 1, quotients, scale)
                self.input_traces.append((idx, self._normalize_trace(trace)))
            return
        self._insert(rem, source, 1, quotients, scale)

    def _process_pair(self, pair: Tuple[int, int], lcm_ij: Tuple[int, int, Exponent]) -> None:
        i, j = pair
        lcm_key, _, lcm_mono = lcm_ij
        ci, cj = self.lead_coeffs[i], self.lead_coeffs[j]
        guard = self.keyfn.guard
        spair: KVec = {}
        _add_offset(spair, self.basis[i], lcm_key - self.lead_keys[i], cj, guard)
        _add_offset(spair, self.basis[j], lcm_key - self.lead_keys[j], -ci, guard)
        # spair = source / sden over the inputs
        source: MVec = {}
        sden = 1
        if self.want_syzygies:
            di, dj = self.cof_dens[i], self.cof_dens[j]
            sden = lcm(di, dj)
            mi = tuple(map(sub, lcm_mono, self.leads[i][1]))
            mj = tuple(map(sub, lcm_mono, self.leads[j][1]))
            _add_shifted(source, self.cofactors[i], mi, cj * (sden // di))
            _add_shifted(source, self.cofactors[j], mj, -ci * (sden // dj))
        if not spair:
            if source:
                self.syzygies.append(self._normalize_trace(source))
            return
        rem, quotients, scale = self._divide(spair)
        if not rem:
            if self.want_syzygies:
                trace, _ = self._combine_cofactor(source, sden, quotients, scale)
                if trace:
                    self.syzygies.append(self._normalize_trace(trace))
            return
        self._insert(rem, source, sden, quotients, scale)

    def _emit_koszul(self, i: int, j: int) -> None:
        """Trivial syzygy g_j*eps_i - g_i*eps_j for a product-criterion skip."""
        di, dj = self.cof_dens[i], self.cof_dens[j]
        common = lcm(di, dj)
        trace: MVec = {}
        for (_, m), c in self.keyfn.decode_vec(self.basis[j]).items():
            _add_shifted(trace, self.cofactors[i], m, c * (common // di))
        for (_, m), c in self.keyfn.decode_vec(self.basis[i]).items():
            _add_shifted(trace, self.cofactors[j], m, -c * (common // dj))
        if trace:
            self.syzygies.append(self._normalize_trace(trace))

    def quotient_series(self) -> "RationalSeries":
        """HS(F / in M), F the free module of the shifts and in M the module
        the leading terms so far generate: one monomial quotient per
        position, shifted by its degree.  After `run(upto=e)` these are the
        leads of a basis complete through e, so its coefficients through e
        are those of F / M."""
        leads: List[List[Exponent]] = [[] for _ in self.shifts]
        for pos, m in self.leads:
            leads[pos].append(m)
        num: Dict[int, int] = {}
        for s, monos in zip(self.shifts, leads):
            for d, v in hilbert_numerator_monomial(monos, self.ring).items():
                num[d + s] = num.get(d + s, 0) + v
        return RationalSeries({d: v for d, v in num.items() if v}, self.weights)

    def reduced_basis(self, order: MonomialOrder) -> "GroebnerBasis":
        """Finish the run and return the reduced basis; order is the ring
        order keyfn packs.  For an engine without syzygies."""
        self.run()
        self._interreduce()
        return GroebnerBasis(
            self.ring,
            order,
            [_mvec_to_poly(self.ring, self.keyfn.decode_vec(vec)) for vec in self.basis],
        )

    def _interreduce(self) -> None:
        """Tail-reduce the completed basis; `reduced_basis` calls this after
        `run`, on an engine without syzygies, so no cofactors are updated.

        Resolution levels read only syzygies and traces and skip it.  No
        lead divides another: a later element has equal or higher degree
        and was reduced by the earlier ones, so each element keeps its lead.
        """
        for idx in range(len(self.basis)):
            by_pos = self.by_pos[self.leads[idx][0]]
            by_pos.remove(idx)
            rem, quotients, _ = self._divide(self.basis[idx])
            by_pos.append(idx)
            by_pos.sort()
            if not quotients:
                continue
            lead = self.lead_keys[idx]
            # tail reduction of a completed basis cannot move the lead
            assert rem and max(rem) == lead, "interreduction changed a lead term"
            ints, _ = primitive(rem, lead)
            self.basis[idx] = ints
            self.lead_coeffs[idx] = ints[lead]


# ---------------------------------------------------------------------------
# public ideal-level operations
# ---------------------------------------------------------------------------

def base_keyfn(ring: GradedRing, order: MonomialOrder = WEIGHTED) -> ModuleKey:
    """Key on rank-one module monomials: the ring order."""
    return ModuleKey(order.key_function(ring))


def _poly_to_mvec(p: Polynomial) -> Dict[ModMono, Fraction]:
    return {(0, m): c for m, c in p.terms.items()}


def _mvec_to_poly(ring: GradedRing, vec: MVec) -> Polynomial:
    return Polynomial._raw(ring, {mm[1]: c for mm, c in vec.items()})


@dataclass
class GroebnerBasis:
    ring: GradedRing
    order: MonomialOrder
    elements: List[Polynomial]

    def leading_monomials(self) -> List[Exponent]:
        return [g.leading_monomial(self.order) for g in self.elements]


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
    # divide by primitive integer multiples r_i = g_i * d_i / h_i; then
    # p * den / g = sum(q_i * r_i) + rem
    key = base_keyfn(ring, order)
    reducer = Reducer(key)
    scales = []
    for g in reducers:
        ints, sc = primitive(key.encode(_poly_to_mvec(g)))
        reducer.add(ints)
        scales.append(sc)
    rem, quotients, (den, g0) = reducer._divide(key.encode(_poly_to_mvec(p)))

    def exact(num: int, den: int):
        # an int wherever the value is one
        q, r = divmod(num, den)
        return Fraction(num, den) if r else q

    remainder = Polynomial._raw(
        ring, {mm[1]: exact(c * g0, den) for mm, c in key.decode_vec(rem).items()}
    )
    cofs = []
    for i, (d, h) in enumerate(scales):
        q = quotients.get(i, {})
        cofs.append(Polynomial._raw(ring, {m: exact(c * d * g0, h * den) for m, c in q.items()}))
    return remainder, cofs


def buchberger(gens: Ideal, order: MonomialOrder = WEIGHTED) -> GroebnerBasis:
    """Reduced Groebner basis of a homogeneous ideal, each element scaled to
    coprime integers with a positive lead coefficient.  The engine tracks no
    cofactors and keeps no syzygies; it raises ValueError for an
    inhomogeneous generator."""
    ring = gens.ring
    inputs = gens.nonzero_generators()
    if not inputs:
        return GroebnerBasis(ring, order, [])
    engine = BuchbergerEngine(
        ring, [_poly_to_mvec(p) for p in inputs], [0], base_keyfn(ring, order)
    )
    return engine.reduced_basis(order)


def ideals_equal(a: Ideal, b: Ideal, order: MonomialOrder = WEIGHTED) -> bool:
    """Equality of the two reduced bases, each as {lead: terms}; a reduced
    basis scaled as `buchberger` scales it is unique, so this is exact.
    Both ideals must be homogeneous and in one ring."""
    if a.ring != b.ring:
        raise RingMismatchError("ideals from different rings")

    def reduced(I: Ideal) -> Dict[Exponent, Dict[Exponent, Fraction]]:
        return {g.leading_monomial(order): g.terms for g in buchberger(I, order).elements}

    return reduced(a) == reduced(b)


# ---------------------------------------------------------------------------
# graded minimal generators
# ---------------------------------------------------------------------------

def monomials_of_degree(ring: GradedRing, degree: int) -> List[Exponent]:
    """All monomials of exact weighted degree, in ascending lexicographic order."""
    return graded_monomials([(w,) for w in ring.weights], (degree,))


def minimal_generators(I: Ideal) -> List[Tuple[Polynomial, int]]:
    """Minimal homogeneous generating set with degrees: the generators the
    engine does not find redundant, normalized, by (degree, position).

    One `BuchbergerEngine` runs on the nonzero generators up to their top
    degree.  Each input is treated at its degree after every S-pair of that
    degree, so it reduces to zero exactly when the inputs treated before it
    generate it.  By graded Nakayama the kept inputs are then a minimal
    generating set; `resolve` applies the same rule at every level.
    """
    gens = I.nonzero_generators()
    if not gens:
        return []
    if not I.is_homogeneous():
        raise ValueError("minimal_generators requires a homogeneous ideal")
    ring = I.ring
    degrees = [g.weighted_degree() for g in gens]
    engine = BuchbergerEngine(ring, [_poly_to_mvec(g) for g in gens], [0], base_keyfn(ring))
    engine.run(upto=max(degrees))
    kept = sorted((d, i) for i, d in enumerate(degrees) if i not in engine.redundant)
    return [(gens[i].normalize(WEIGHTED), d) for d, i in kept]


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------

@dataclass
class RationalSeries:
    """numerator / prod(1 - z^w) with integer numerator coefficients; the
    numerator stores no zero coefficient."""

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
        # cross-multiply by the denominator factors the two do not share
        mine = Counter(self.denominator_weights)
        theirs = Counter(other.denominator_weights)
        left = self.numerator
        right = other.numerator
        for w in (theirs - mine).elements():
            left = _poly1_mul_cyclotomic(left, w)
        for w in (mine - theirs).elements():
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

    Pivot recursion with Bigatti's median pivot (J. Pure Appl. Algebra 119,
    1997): for a monomial p, 0 -> R/(I : p)(-deg p) -> R/I -> R/(I + p) -> 0
    gives N(I) = N(I + p) + z^deg(p) N(I : p).  The pivot is p = x_i^k, with
    x_i the variable in the most minimal generators and k the median of its
    positive exponents in those that are not pure powers of x_i.  One such
    generator g has g_i >= k, and I + p replaces it by its proper divisor
    p, while I : p lowers every positive g_i; so both branches lower the
    sum of the minimal generators' exponents.  Splitting at the median
    keeps the recursion shallow where a pivot x_i, which lowers exponents
    by one per level, would recurse as deep as the largest shared exponent.
    Pairwise coprime generators are the base case.
    """
    weights = ring.weights
    n = len(weights)

    def minimalize(gens: List[Exponent]) -> List[Exponent]:
        # a proper divisor has a smaller exponent sum, so it comes first
        out: List[Exponent] = []
        for g in sorted(set(gens), key=sum):
            for h in out:
                for a, b in zip(h, g):
                    if a > b:
                        break
                else:
                    break
            else:
                out.append(g)
        return out

    def rec(gens: List[Exponent]) -> Dict[int, int]:
        gens = minimalize(gens)
        if not gens:
            return {0: 1}
        if not any(gens[0]):
            return {}
        occupancy = [0] * n
        for g in gens:
            for i, e in enumerate(g):
                if e:
                    occupancy[i] += 1
        i = max(range(n), key=occupancy.__getitem__)
        if occupancy[i] <= 1:
            # pairwise coprime generators
            num = {0: 1}
            for g in gens:
                num = _poly1_mul_cyclotomic(num, sum(map(mul, g, weights)))
            return num
        exps = sorted(g[i] for g in gens if g[i] and (any(g[:i]) or any(g[i + 1:])))
        k = exps[len(exps) // 2]
        pivot = (0,) * i + (k,) + (0,) * (n - i - 1)
        added = [g for g in gens if g[i] < k] + [pivot]
        colon = [g[:i] + (max(g[i] - k, 0),) + g[i + 1:] for g in gens]
        out = rec(added)
        shift = k * weights[i]
        for d, v in rec(colon).items():
            s = out.get(d + shift, 0) + v
            if s:
                out[d + shift] = s
            else:
                out.pop(d + shift, None)
        return out

    return rec(list(lead_terms))


def hilbert_series_quotient(I: Ideal, gb: Optional[GroebnerBasis] = None) -> RationalSeries:
    """Hilbert-Poincare series of R/I over prod(1 - z^w_i); gb, when given, is
    a Groebner basis of I in any order."""
    ring = I.ring
    if not I.is_homogeneous():
        raise ValueError("hilbert_series_quotient requires a homogeneous ideal")
    if gb is None:
        gb = buchberger(I)
    leads = gb.leading_monomials()
    return RationalSeries(hilbert_numerator_monomial(leads, ring), ring.weights)


def standard_monomials(
    ring: GradedRing, leads: Sequence[Exponent], degree: int
) -> List[Exponent]:
    """Monomials of the given weighted degree outside the ideal of leads,
    in decreasing weighted order.

    Each monomial is keyed once, in the weighted order, tested against the
    leads' masks, as `Reducer` does, and sorted by that key; so no exponent
    may exceed MAX_EXPONENT.
    """
    key = base_keyfn(ring)
    guard, low = key.guard, key.low
    masks = [key((0, lt)) & low | guard for lt in leads]
    out = []
    for m in monomials_of_degree(ring, degree):
        k = key((0, m))
        if all((mask - k) & guard != guard for mask in masks):
            out.append((k, m))
    out.sort(reverse=True)
    return [m for _, m in out]
