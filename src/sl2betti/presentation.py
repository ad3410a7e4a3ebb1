"""Presentation of the invariant algebra: kernel of x_i -> f_i.

The source ring carries weights deg(x_i) = deg(f_i).  Two kernel routes are
provided: `kernel` eliminates the coefficient variables from the ideal
(x_i - f_i) in a combined ring under a block order, which works for any
explicit generator list; `present` drives the full pipeline and finds the
kernel degree by degree with exact linear algebra, certified against the
combinatorial dimension count up to a stated horizon.

The degree-by-degree route works on a slice of the first form, of degree
d: a0 = 1, a1 = 0, and also a_{d-1} = 0 when d >= 3.  A polynomial G in
SL2-invariants is itself invariant, and it vanishes exactly when it vanishes
on the slice; `invariants._on_slice` proves this twice, once from the
SL2-orbits through the slice and once from the dimension count that
`kernel_by_degrees` asserts in every degree.  Products restricted to the
slice have far fewer terms.  The argument needs invariant images, so
`kernel_by_degrees` checks them first; `kernel` and `substitute` without a
cache, which take arbitrary images, keep the full products.  Both kernels
check each relation they return with `substitute`: `kernel_by_degrees` on
the slice products, which also catches an invariant count that is too small.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .groebner import (
    BuchbergerEngine,
    GroebnerBasis,
    Ideal,
    RationalSeries,
    _poly_to_mvec,
    base_keyfn,
    buchberger,
    hilbert_numerator_monomial,
    standard_monomials,
)
from .invariants import (
    CoefficientRing,
    GeneratorSet,
    ProblemSpec,
    _ImageCache,
    _operator_image,
    cs_total_dims,
    minimal_invariant_generators,
)
from .linalg import nullspace, primitive
from .poly import (
    Exponent,
    GradedRing,
    Polynomial,
    WEIGHTED,
    elimination_order,
)


@dataclass
class AlgebraMap:
    """phi: K[x_1..x_m] -> K[V_d], x_i -> f_i, with deg(x_i) = deg(f_i)."""

    source: GradedRing
    images: List[Polynomial]

    def __post_init__(self) -> None:
        if len(self.images) != self.source.nvars:
            raise ValueError("image count must match source variable count")
        for w, f in zip(self.source.weights, self.images):
            if f.is_zero() or not f.is_homogeneous():
                raise ValueError("images must be nonzero and homogeneous")
            if f.weighted_degree() != w:
                raise ValueError("source weights must equal image degrees")

    @property
    def target_ring(self) -> GradedRing:
        return self.images[0].ring if self.images else GradedRing((), ())


def algebra_map_from_generators(genset: GeneratorSet) -> AlgebraMap:
    names = tuple(f"f{i+1}" for i in range(len(genset.generators)))
    source = GradedRing(names, tuple(genset.degrees))
    return AlgebraMap(source, list(genset.generators))


def _check_invariant(amap: AlgebraMap, spec: ProblemSpec) -> None:
    """Raise ValueError unless every image is an SL2-invariant of the forms
    of spec: a polynomial of the coefficient ring whose terms all have
    sl2-weight 0 and which the raising operator kills.  Such an image spans
    a trivial sl2-module, so it is invariant under the connected group SL2."""
    cring = CoefficientRing(spec.degrees)
    for i, f in enumerate(amap.images, 1):
        if f.ring != cring.ring:
            raise ValueError(f"image {i} is not in the coefficient ring of {spec.degrees}")
        ints = primitive(f.terms)[0]
        if any(map(cring.sl2_weight, f.terms)) or _operator_image(cring, "raising", ints):
            raise ValueError(f"image {i} is not an SL2-invariant")


def substitute(amap: AlgebraMap, p: Polynomial, cache: Optional[_ImageCache] = None) -> Polynomial:
    """phi(p), exact; with a cache built on a slice, its restriction there."""
    if p.ring != amap.source:
        raise ValueError("polynomial is not in the source ring of the map")
    cache = cache or _ImageCache(amap.target_ring, amap.images)
    # phi(p) = sum c * factor(alpha) * image(alpha): fold the rational
    # scalars into integers over one denominator, accumulate in integers
    ints, (den, g) = primitive(
        {alpha: c * cache.factor(alpha) for alpha, c in p.terms.items()}
    )
    acc: Dict[int, int] = {}
    get = acc.get
    for alpha, s in ints.items():
        for m, v in cache.image(alpha).items():
            acc[m] = get(m, 0) + s * v
    return Polynomial._raw(
        amap.target_ring,
        {cache.unpack(m): Fraction(c * g, den) for m, c in acc.items() if c},
    )


# ---------------------------------------------------------------------------
# elimination kernel
# ---------------------------------------------------------------------------

def kernel(amap: AlgebraMap) -> Ideal:
    """Full kernel of phi by block-order elimination of the coefficient block.

    Forms (x_i - f_i) in K[coefficient vars, x vars], takes a Groebner basis
    under an order eliminating the coefficient block, and keeps the elements
    free of coefficient variables; every output is checked to map to zero
    under phi.
    """
    src = amap.source
    m = src.nvars
    if m == 0:
        return Ideal(src, [])
    # built first, so that its exponent guard runs before the elimination
    cache = _ImageCache(amap.target_ring, amap.images)
    tgt = amap.target_ring
    nc = tgt.nvars
    names = tuple(f"c{i}" for i in range(nc)) + tuple(f"z{i}" for i in range(m))
    # x_i - f_i is homogeneous once x_i weighs deg f_i in the target's grading
    weights = tgt.weights + src.weights
    combined = GradedRing(names, weights)
    order = elimination_order(nc)
    gens: List[Polynomial] = []
    for i, f in enumerate(amap.images):
        terms: Dict[Exponent, object] = {}
        e = [0] * (nc + m)
        e[nc + i] = 1
        terms[tuple(e)] = 1
        for mono, c in f.terms.items():
            key = tuple(mono) + (0,) * m
            terms[key] = terms.get(key, 0) - c
        gens.append(Polynomial._raw(combined, terms))
    gb = buchberger(Ideal(combined, gens), order)
    out: List[Polynomial] = []
    for g in gb.elements:
        if all(all(e == 0 for e in mono[:nc]) for mono in g.terms):
            out.append(
                Polynomial._raw(
                    src, {mono[nc:]: c for mono, c in g.terms.items()}
                ).normalize(WEIGHTED)
            )
    keyfn = WEIGHTED.key_function(src)
    out.sort(key=lambda p: (p.weighted_degree(), keyfn(p.leading_monomial(WEIGHTED))))
    for g in out:
        if not substitute(amap, g, cache).is_zero():
            raise AssertionError("kernel element does not map to zero")
    return Ideal(src, out)


# ---------------------------------------------------------------------------
# degreewise kernel with a dimension certificate
# ---------------------------------------------------------------------------

@dataclass
class PresentInfo:
    horizon: int
    relation_degrees: List[int]
    basis: GroebnerBasis  # `buchberger` of the kernel, in the weighted order


def kernel_by_degrees(
    amap: AlgebraMap,
    spec: ProblemSpec,
    horizon: Optional[int] = None,
) -> Tuple[Ideal, PresentInfo]:
    """Minimal kernel generators found degree by degree.

    At each weighted degree e the map phi is restricted to the standard
    monomials modulo the kernel found so far; new minimal generators are an
    exact nullspace basis.  The Hilbert function of the quotient is compared
    with the weight-counting dimension of the invariant algebra for every
    e <= horizon, which certifies completeness through that range.  A degree
    whose dimensions cannot be matched raises, so a returned result is
    always certified.  Without a horizon, it starts at `default_horizon` of
    no relations and grows to `default_horizon` of the relations found so
    far, so the certificate reaches twice the largest relation degree.

    The images must be SL2-invariants of the forms of spec; this is checked
    first, and a ValueError is raised otherwise.  That makes the slice
    arguments of `invariants._on_slice` apply: the degree-e matrices use the
    images restricted to a0 = 1, a1 = 0 and, when the first form has degree
    d >= 3, a_{d-1} = 0.  The nullity assertion below certifies that each
    restricted matrix has the kernel of the full one, so the normalized
    relations are the same polynomials as without the slice.  `nullspace`
    stops once its rank reaches the count cs[e], so each relation is also
    substituted into the restricted products: that check rejects a vector
    outside the kernel, which an invariant count that is too small would
    give.

    One `BuchbergerEngine` grows the basis of the kernel found so far: at
    degree e it runs to e, so its leading terms are complete through e and
    give hf[e] and the standard monomials of degree e; the new relations are
    added as inputs and the engine runs to e again.  hf is recomputed only
    when the basis or the horizon grew.  The engine treats the tasks of one
    `buchberger` call on all the relations in that call's order, so the
    info's basis, that of the returned ideal, is that call's reduced basis.
    """
    src = amap.source
    grow = horizon is None
    if grow:
        horizon = default_horizon([], src.weights)
    cs = cs_total_dims(spec, horizon)
    _check_invariant(amap, spec)
    d = spec.degrees[0]
    cache = _ImageCache(amap.target_ring, amap.images, (1, d - 1) if d >= 3 else (1,))
    keyfn = WEIGHTED.key_function(src)
    engine = BuchbergerEngine(src, [], [0], base_keyfn(src))
    gens: List[Polynomial] = []
    relation_degrees: List[int] = []
    hf = _quotient_dims(engine, horizon)
    counted = 0  # the basis size hf was computed for
    e = 0
    while e < horizon:
        e += 1
        engine.run(upto=e)
        if len(engine.basis) != counted:
            hf, counted = _quotient_dims(engine, horizon), len(engine.basis)
        need = hf[e] - cs[e]
        if need < 0:
            raise ValueError(
                f"quotient dimension below invariant dimension at degree {e}; "
                "the generator set upstream is incomplete"
            )
        if need == 0:
            continue
        std = standard_monomials(src, [m for _, m in engine.leads], e)
        std.sort(key=keyfn, reverse=True)
        rows: Dict[Exponent, Dict[int, int]] = {}
        for j, alpha in enumerate(std):
            for mono, c in cache.image(alpha).items():
                rows.setdefault(mono, {})[j] = c
        kern = nullspace(
            [rows[k] for k in sorted(rows)],
            range(len(std)),
            stop_rank=len(std) - need,
        )
        if len(kern) != need:
            raise AssertionError(
                f"degree {e}: found {len(kern)} kernel vectors, expected {need}"
            )
        for vec in kern:
            # the matrix used the normalized images; undo their scale factors
            terms = {std[j]: c / cache.factor(std[j]) for j, c in vec.items()}
            g = Polynomial._raw(src, terms).normalize(WEIGHTED)
            if not substitute(amap, g, cache).is_zero():
                raise AssertionError(f"degree {e}: kernel vector not in the kernel")
            gens.append(g)
            engine.add_input(_poly_to_mvec(g))
            relation_degrees.append(e)
        if grow and default_horizon(relation_degrees, src.weights) > horizon:
            horizon = default_horizon(relation_degrees, src.weights)
            cs = cs_total_dims(spec, horizon)
        engine.run(upto=e)
        hf, counted = _quotient_dims(engine, horizon), len(engine.basis)
        if hf[e] != cs[e]:
            raise AssertionError(f"degree {e}: quotient dimension still off")
    basis = engine.reduced_basis(WEIGHTED)
    return Ideal(src, gens), PresentInfo(horizon, relation_degrees, basis)


def _quotient_dims(engine: BuchbergerEngine, upto: int) -> List[int]:
    """dim (S / in G)_d for d <= upto, G the engine's basis so far: the
    Hilbert function of S / I in every degree the basis is complete."""
    leads = [m for _, m in engine.leads]
    numerator = hilbert_numerator_monomial(leads, engine.ring)
    return RationalSeries(numerator, engine.ring.weights).coefficients(upto)


def default_horizon(relation_degrees: Sequence[int], weights: Sequence[int]) -> int:
    base = 2 * max(relation_degrees, default=0)
    return max(base, 2 * max(weights, default=1), 12)


def present(
    spec: ProblemSpec,
    *,
    genset: Optional[GeneratorSet] = None,
    horizon: Optional[int] = None,
) -> Tuple[AlgebraMap, Ideal, PresentInfo]:
    """Full pipeline front half: generators, map, degree-certified minimal kernel."""
    genset = genset or minimal_invariant_generators(spec)
    amap = algebra_map_from_generators(genset)
    ideal, info = kernel_by_degrees(amap, spec, horizon)
    return amap, ideal, info
