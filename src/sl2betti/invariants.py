"""Minimal generating sets of SL2-invariants of tuples of binary forms.

Works over the coefficient ring of V_d1 + ... + V_dn in the binomial
convention: the i-th form is sum_k C(d_i,k) a_k x^(d_i-k) y^k, the
coefficient a_k carries sl2-weight d_i - 2k, and invariants are the
weight-zero polynomials annihilated by the raising operator.  Everything
is exact integer linear algebra on weight-graded pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .linalg import Echelon, nullspace, primitive
from .poly import (
    MAX_EXPONENT,
    Exponent,
    GradedRing,
    Polynomial,
    WEIGHTED,
    graded_monomials,
)

_FORM_PREFIXES = ("x", "y", "u", "v", "w", "s", "t", "p", "q", "r")


@dataclass(frozen=True)
class ProblemSpec:
    """A tuple of binary-form degrees plus a generator search bound."""

    degrees: Tuple[int, ...]
    degree_bound: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        if not self.degrees or any(d < 1 for d in self.degrees):
            raise ValueError("form degrees must be positive integers")
        if self.degree_bound < 1:
            raise ValueError("degree bound must be positive")

    @property
    def n_forms(self) -> int:
        return len(self.degrees)


class CoefficientRing:
    """Coordinate ring of V_d with per-variable sl2-weights and form blocks."""

    def __init__(self, degrees: Sequence[int]):
        self.form_degrees = tuple(int(d) for d in degrees)
        names: List[str] = []
        form_of_var: List[int] = []
        index_in_form: List[int] = []
        sl2_weights: List[int] = []
        for i, d in enumerate(self.form_degrees):
            prefix = _FORM_PREFIXES[i] if i < len(_FORM_PREFIXES) else f"c{i}_"
            for k in range(d + 1):
                names.append(f"{prefix}{k}")
                form_of_var.append(i)
                index_in_form.append(k)
                sl2_weights.append(d - 2 * k)
        self.ring = GradedRing(tuple(names), (1,) * len(names))
        self.form_of_var = tuple(form_of_var)
        self.index_in_form = tuple(index_in_form)
        self.sl2_weights = tuple(sl2_weights)
        # var_index[(form, k)] -> position in the ring
        self.var_index = {
            (f, k): v for v, (f, k) in enumerate(zip(form_of_var, index_in_form))
        }
        # the isobaric grading: a_k of form f has grade (e_f, k)
        self.grades = tuple(
            tuple(int(g == f) for g in range(len(self.form_degrees))) + (k,)
            for f, k in zip(form_of_var, index_in_form)
        )
        self.blocks = []
        start = 0
        for d in self.form_degrees:
            self.blocks.append(range(start, start + d + 1))
            start += d + 1

    @property
    def nvars(self) -> int:
        return self.ring.nvars

    def sl2_weight(self, m: Exponent) -> int:
        return sum(e * w for e, w in zip(m, self.sl2_weights))


# ---------------------------------------------------------------------------
# sl2 action
# ---------------------------------------------------------------------------

def _operator_moves(cring: CoefficientRing, kind: str) -> List[Tuple[int, int, int]]:
    """(source var, target var, scalar) triples of the first-order operator."""
    moves = []
    for v in range(cring.nvars):
        f = cring.form_of_var[v]
        k = cring.index_in_form[v]
        d = cring.form_degrees[f]
        if kind == "raising":
            if k >= 1:
                moves.append((v, cring.var_index[(f, k - 1)], k))
        elif kind == "lowering":
            if k <= d - 1:
                moves.append((v, cring.var_index[(f, k + 1)], d - k))
        else:
            raise ValueError(f"unknown operator kind {kind!r}")
    return moves


def _apply_moves_int(m: Exponent, moves) -> List[Tuple[Exponent, int]]:
    """(target, integer coefficient) of every move that applies to m."""
    out = []
    for src, dst, scal in moves:
        e = m[src]
        if not e:
            continue
        lst = list(m)
        lst[src] -= 1
        lst[dst] += 1
        out.append((tuple(lst), scal * e))
    return out


def _operator_image(
    cring: CoefficientRing, kind: str, terms: Dict[Exponent, object]
) -> Dict[Exponent, object]:
    """Terms of the image of a polynomial's terms under the raising or
    lowering sl2 operator; int coefficients give an int image, so an
    invariance check runs on the integer multiple `primitive` gives."""
    moves = _operator_moves(cring, kind)
    out: Dict[Exponent, object] = {}
    for m, c in terms.items():
        for key, scal in _apply_moves_int(m, moves):
            s = out.get(key, 0) + c * scal
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def apply_operator(kind: str, p: Polynomial, cring: CoefficientRing) -> Polynomial:
    """Image of p under the raising or lowering sl2 operator (exact, linear)."""
    return Polynomial._raw(cring.ring, _operator_image(cring, kind, p.terms))


# ---------------------------------------------------------------------------
# weight counts
# ---------------------------------------------------------------------------

def _weight_counts(weights: Sequence[int], upto: int) -> List[Dict[int, int]]:
    """acc[e][w]: monomials of degree e and total weight w in variables of
    the given weights, for e <= upto; one unbounded-knapsack pass."""
    acc: List[Dict[int, int]] = [{0: 1}] + [{} for _ in range(upto)]
    for w in weights:
        # ascending e: acc[e - 1] already counts this variable's powers
        for e in range(1, upto + 1):
            tgt = acc[e]
            for wt, c in acc[e - 1].items():
                tgt[wt + w] = tgt.get(wt + w, 0) + c
    return acc


@lru_cache(maxsize=None)
def _form_table(d: int, upto: int) -> List[Dict[int, int]]:
    return _weight_counts(range(d, -d - 1, -2), upto)


def _form_weight_counts(d: int, m: int) -> Dict[int, int]:
    """Weight distribution of degree-m monomials in the d+1 coefficients of V_d."""
    # tables grow by doubling, so a degree is rebuilt O(log m) times at most
    return _form_table(d, 1 << m.bit_length())[m]


def _check_multidegree(spec: ProblemSpec, multidegree: Sequence[int]) -> None:
    if len(multidegree) != spec.n_forms:
        raise ValueError("multidegree length does not match the form count")
    if min(multidegree, default=0) < 0:
        raise ValueError("multidegree entries must be nonnegative")


def weight_multiplicity(
    spec: ProblemSpec, multidegree: Sequence[int], weight: int
) -> int:
    """Number of coefficient monomials of the multidegree with the sl2-weight."""
    _check_multidegree(spec, multidegree)
    acc: Dict[int, int] = {0: 1}
    for d, m in zip(spec.degrees, multidegree):
        nxt: Dict[int, int] = {}
        for w1, c1 in acc.items():
            for w2, c2 in _form_weight_counts(d, m).items():
                nxt[w1 + w2] = nxt.get(w1 + w2, 0) + c1 * c2
        acc = nxt
    return acc.get(weight, 0)


def cayley_sylvester_dim(spec: ProblemSpec, multidegree: Sequence[int]) -> int:
    """dim of the invariant space of the multidegree: N(0) - N(2), purely
    combinatorial weight-space counting."""
    _check_multidegree(spec, multidegree)
    if sum(m * d for m, d in zip(multidegree, spec.degrees)) % 2:
        return 0
    return weight_multiplicity(spec, multidegree, 0) - weight_multiplicity(
        spec, multidegree, 2
    )


def cs_total_dims(spec: ProblemSpec, upto: int) -> List[int]:
    """Sum of cayley_sylvester_dim over all multidegrees, per total degree."""
    return list(_cs_total_dims(spec.degrees, upto))


@lru_cache(maxsize=1)
def _cs_total_dims(form_degrees: Tuple[int, ...], upto: int) -> Tuple[int, ...]:
    """The table of `cs_total_dims`.  The degree-certified kernel and the
    hilbert check of `verify_case` read the same table in a row, so one
    entry is enough."""
    # acc[e] = weight distribution of the degree-e piece of the whole ring
    weights = [d - 2 * k for d in form_degrees for k in range(d + 1)]
    acc = _weight_counts(weights, upto)
    return tuple(acc[e].get(0, 0) - acc[e].get(2, 0) for e in range(upto + 1))


# ---------------------------------------------------------------------------
# invariant bases by exact nullspace
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _weight_zero_columns(
    form_degrees: Tuple[int, ...], multidegree: Tuple[int, ...]
) -> Tuple[Exponent, ...]:
    """The weight-0 monomials of one multidegree piece, in descending
    weighted order: the columns of every matrix built on the piece.  The
    generator search reads a piece twice in a row, for the product span and
    then in `invariant_basis`, so one entry is enough.

    a_k of a form of degree d has sl2-weight d - 2k, so a monomial alpha of
    multidegree m has weight sum(d_i * m_i) - 2 * sum(k * alpha): it has
    weight 0 iff its isobaric grade sum(k * alpha) is sum(d_i * m_i) / 2,
    the last entry of its grade in `CoefficientRing.grades`."""
    half, odd = divmod(sum(m * d for m, d in zip(multidegree, form_degrees)), 2)
    if odd:
        return ()
    cring = CoefficientRing(form_degrees)
    cols = graded_monomials(cring.grades, multidegree + (half,))
    cols.sort(key=WEIGHTED.key_function(cring.ring), reverse=True)
    return tuple(cols)


def invariant_basis(
    spec: ProblemSpec, multidegree: Sequence[int]
) -> List[Polynomial]:
    """Basis of the invariants of one multidegree piece.

    Kernel of the raising operator on the weight-0 subspace, by the modular
    nullspace with its exact certificate; deterministic and normalized: the
    certified vectors are coprime and positive on their leftmost column,
    which is the leading monomial, so they are the coefficients as they
    come.  Empty when the total weight sum(m_i * d_i) is odd.  The kernel
    dimension is the Cayley-Sylvester count, so the rank bound
    #columns - dimension lets the elimination stop once it is reached.

    The rows go to `nullspace` in Cayley's order: descending a0 + a1
    exponent of the row's target monomial, ties in ascending weighted
    order, where a0, a1 are the first two coefficients of the first form
    with a nonzero entry in the multidegree.  The raising operator is
    E = a0 d/da1 + E', and E' does not differentiate by a1, so each
    a1-power of an invariant is solved from the lower ones by dividing by
    a0 (Cayley's reconstruction of seminvariants: Olver, *Classical
    Invariant Theory*, 1999, ch. 2; Kung-Rota, *Bull. AMS* 10, 1984).  In
    this order the matrix is close to triangular, so the elimination is
    far cheaper; the ascending tie-break fills in less than the descending
    one.  The order cannot change the result: the elimination
    always pivots on the leftmost column, so its pivot set is the
    canonical one of the row space whatever the order, and the basis
    `nullspace` returns depends only on the kernel.
    """
    _check_multidegree(spec, multidegree)
    cring = CoefficientRing(spec.degrees)
    cols = _weight_zero_columns(spec.degrees, tuple(multidegree))
    if not cols:
        return []
    keyfn = WEIGHTED.key_function(cring.ring)
    moves = _operator_moves(cring, "raising")
    rows: Dict[Exponent, Dict[int, int]] = {}
    for j, m in enumerate(cols):
        for target, c in _apply_moves_int(m, moves):
            row = rows.setdefault(target, {})
            row[j] = row.get(j, 0) + c
    # rows in Cayley's order, elimination stopped at the weight-count rank
    form = next((f for f, m in enumerate(multidegree) if m), 0)
    a0, a1 = cring.var_index[(form, 0)], cring.var_index[(form, 1)]
    expected = cayley_sylvester_dim(spec, multidegree)
    kernel = nullspace(
        [rows[t] for t in sorted(rows, key=lambda t: (-t[a0] - t[a1], keyfn(t)))],
        range(len(cols)),
        stop_rank=len(cols) - expected,
    )
    if len(kernel) != expected:
        raise AssertionError(
            f"invariant piece {tuple(multidegree)}: nullspace dimension "
            f"{len(kernel)} differs from the weight count {expected}"
        )
    basis = []
    for vec in kernel:
        terms = {cols[j]: c for j, c in vec.items()}
        if _operator_image(cring, "raising", terms):
            raise AssertionError("nullspace vector not annihilated by the operator")
        basis.append(Polynomial._raw(cring.ring, terms))
    return basis


# ---------------------------------------------------------------------------
# generator search
# ---------------------------------------------------------------------------

@dataclass
class GeneratorSet:
    """Minimal generating invariants with their degrees, ascending."""

    cring: CoefficientRing
    spec: ProblemSpec
    generators: List[Polynomial]
    degrees: List[int]
    multidegrees: List[Tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.generators)


class _ImageCache:
    """Memoized products of polynomials f_1, ..., f_m of one ring, held as
    integer products of the normalized f_i together with the exact rational
    factor relating them to the true ones:
    f^alpha = factor(alpha) * image(alpha).

    Exponents are bit-packed into single integers (`pack`) so that the
    product inner loop is integer addition; `unpack` restores tuples.  `add`
    appends a polynomial; products cached before keep their keys, because
    alpha is read without its trailing zeros.

    With a nonempty `zeros`, every normalized f_i is first restricted to the
    slice a0 = 1 and a_v = 0 for the ring variables v in `zeros` (see
    `_on_slice`), so the cache holds the restrictions of the products.  Only
    invariants may be restricted.
    """

    PACK_BITS = MAX_EXPONENT.bit_length()

    def __init__(
        self,
        ring: GradedRing,
        images: Sequence[Polynomial] = (),
        zeros: Sequence[int] = (),
    ):
        self.nvars = ring.nvars
        self.zeros = tuple(zeros)
        self.images: List[Dict[int, int]] = []
        self.image_factors: List[Fraction] = []
        # per image, the largest exponent of any variable in any term
        self.max_exps: List[int] = []
        self.cache: Dict[Exponent, Dict[int, int]] = {}
        for f in images:
            self.add(f)

    def add(self, f: Polynomial) -> None:
        """Append f; its image is the coprime integer multiple of f, so a
        normalized f is its own image, with factor 1.  The image's sign is
        that of f: relations are normalized afterwards."""
        ints, (den, g) = primitive(f.terms)
        if self.zeros:
            ints = _on_slice(ints, self.zeros)
        top = max((max(m, default=0) for m in ints), default=0)
        self._guard(top)
        self.max_exps.append(top)
        self.image_factors.append(Fraction(g, den))
        self.images.append({self.pack(m): c for m, c in ints.items()})

    @staticmethod
    def _guard(bound: int) -> None:
        """Refuse exponents that could carry out of a packed field."""
        if bound > MAX_EXPONENT:
            raise ValueError(
                f"exponents up to {bound} exceed the supported maximum {MAX_EXPONENT}"
            )

    def pack(self, m: Exponent) -> int:
        out = 0
        for e in m:
            out = (out << self.PACK_BITS) | e
        return out

    def unpack(self, code: int) -> Exponent:
        mask = (1 << self.PACK_BITS) - 1
        out = [0] * self.nvars
        for i in range(self.nvars - 1, -1, -1):
            out[i] = code & mask
            code >>= self.PACK_BITS
        return tuple(out)

    def factor(self, alpha: Exponent) -> Fraction:
        out = Fraction(1)
        for fac, e in zip(self.image_factors, alpha):
            if e:
                out *= fac ** e
        return out

    def image(self, alpha: Exponent) -> Dict[int, int]:
        """f^alpha / factor(alpha), keyed by packed exponents."""
        n = len(alpha)
        while n and not alpha[n - 1]:
            n -= 1
        if not n:
            return {0: 1}
        if n < len(alpha):
            alpha = alpha[:n]
        got = self.cache.get(alpha)
        if got is not None:
            return got
        self._guard(sum(a * e for a, e in zip(alpha, self.max_exps)))
        # peel off the factor with the fewest terms for the cheapest product
        best = min(
            (i for i, e in enumerate(alpha) if e),
            key=lambda i: len(self.images[i]),
        )
        prev = list(alpha)
        prev[best] -= 1
        base = self.image(tuple(prev))
        f = self.images[best]
        out: Dict[int, int] = {}
        get = out.get
        for m1, c1 in base.items():
            for m2, c2 in f.items():
                key = m1 + m2
                s = get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        self.cache[alpha] = out
        return out


def _on_slice(terms: Dict[Exponent, int], zeros: Sequence[int]) -> Dict[Exponent, int]:
    """Restriction to the slice a0 = 1 (ring variable 0) and a_v = 0 for v in
    `zeros`: terms with a positive exponent of some a_v are dropped and the
    exponent of a0 is set to 0.  This is a ring homomorphism, so it commutes
    with the products of the cache, and it never raises an exponent, so the
    exponent guard stays sound.

    `kernel_by_degrees` restricts the invariants f_i to the slice of the
    first form, of degree d: zeros (a1, a_{d-1}) when d >= 3, and (a1,) when
    d <= 2, where a_{d-1} is a0 or a1.  A combination G of products of the
    f_i is itself an invariant, and two independent arguments show that G
    vanishes exactly when its restriction to the slice S does.

    - Geometry.  S has codimension 3 (2 when d <= 2) and SL2 has dimension
      3.  At a point p of S, the (a0, a1, a_{d-1}) components of h.p, e.p
      and f.p, for the weight, raising and lowering operators, form the
      matrix [[d, 0, 0], [0, 1, (d-1) a_{d-2}], [0, (d-1) a2, a_d]], of
      determinant d (a_d - (d-1)^2 a2 a_{d-2}), which is not identically 0
      on S.  So the action map SL2 x S -> V_d (times the other forms, which
      it moves along) is dominant, the orbits through S are dense, and an
      invariant that vanishes on S vanishes everywhere.  For d <= 2 the
      unipotent x -> x + s*y clears a1 and the torus scales a0 to 1 on the
      dense set a0 != 0 (the Tschirnhaus reduction; Olver, Classical
      Invariant Theory, 1999, on canonical forms).
    - Counting, which needs no geometry.  Restriction can only enlarge the
      kernel of the degree-e matrix of products, and the unrestricted
      matrix has rank at most the invariant dimension cs[e], so nullity at
      least hf[e] - cs[e].  A restricted nullity of exactly hf[e] - cs[e],
      which `kernel_by_degrees` asserts, therefore proves that the two
      kernels are equal.  Any slice is certified whenever it succeeds; a
      slice that is too small raises instead.  The count cs[e] must be
      right: one that is too small is caught by the substitution of each
      relation, not by the nullity.
    """
    out: Dict[Exponent, int] = {}
    for m, c in terms.items():
        if not any(m[v] for v in zeros):
            key = (0,) + m[1:]
            out[key] = out.get(key, 0) + c
    return {m: c for m, c in out.items() if c}


def _product_span(
    span: _ImageCache,
    multidegrees: Sequence[Tuple[int, ...]],
    target: Tuple[int, ...],
    cols: Sequence[Exponent],
    dim: int,
) -> Tuple[Echelon, Dict[int, int]]:
    """Echelon form of the products of the span's polynomials (of the given
    multidegrees) that lie in the target piece, on its columns, and the
    column index keyed by packed exponents.  Products of invariants cannot
    exceed the invariant dimension `dim`, so the span stops there."""
    col_index = {span.pack(m): i for i, m in enumerate(cols)}
    ech = Echelon()
    for expo in graded_monomials(multidegrees, target):
        if ech.rank == dim:
            break
        ech.add({col_index[m]: c for m, c in span.image(expo).items()})
    return ech, col_index


def minimal_invariant_generators(spec: ProblemSpec) -> GeneratorSet:
    """Search total degrees 1..bound, multidegrees in lexicographic order;
    append a complement basis of the invariants beyond the span of products
    of previously found generators.  Deterministic, degrees ascending."""
    cring = CoefficientRing(spec.degrees)
    span = _ImageCache(cring.ring)
    gens: List[Polynomial] = []
    degs: List[int] = []
    mdegs: List[Tuple[int, ...]] = []
    for e in range(1, spec.degree_bound + 1):
        for md in graded_monomials([(1,)] * spec.n_forms, (e,)):
            dim_inv = cayley_sylvester_dim(spec, md)
            if dim_inv == 0:
                continue
            cols = _weight_zero_columns(spec.degrees, md)
            ech, col_index = _product_span(span, mdegs, md, cols, dim_inv)
            if ech.rank == dim_inv:
                continue
            for b in invariant_basis(spec, md):
                vec = {col_index[span.pack(m)]: c for m, c in b.terms.items()}
                rem = ech.add(vec)
                if rem is None:
                    continue
                # rem is coprime and positive on its leftmost column, the
                # leading monomial: the generator is normalized as it is
                g = Polynomial._raw(cring.ring, {cols[i]: c for i, c in rem.items()})
                gens.append(g)
                degs.append(e)
                mdegs.append(md)
                span.add(g)
                if ech.rank == dim_inv:
                    break
    return GeneratorSet(cring, spec, gens, degs, mdegs)
