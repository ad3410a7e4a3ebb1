"""Presentation maps and kernel computation, both routes."""

from collections import Counter

import pytest

from sl2betti.groebner import Ideal, hilbert_series_quotient, ideals_equal, minimal_generators
from sl2betti.invariants import (
    CoefficientRing,
    ProblemSpec,
    cs_total_dims,
    minimal_invariant_generators,
)
from sl2betti import invariants, presentation
from sl2betti.cases import BY_LABEL
from sl2betti.poly import GradedRing
from sl2betti.presentation import (
    AlgebraMap,
    algebra_map_from_generators,
    default_horizon,
    kernel,
    kernel_by_degrees,
    present,
    substitute,
)


def twisted_cubic_map():
    cring = GradedRing(("t",), (1,))
    t = cring.variable(0)
    source = GradedRing(("x", "y"), (2, 3))
    return AlgebraMap(source, [t * t, t * t * t]), cring


class TestAlgebraMap:
    def test_weights_must_match_degrees(self):
        cring = GradedRing(("t",), (1,))
        t = cring.variable(0)
        source = GradedRing(("x",), (5,))
        with pytest.raises(ValueError):
            AlgebraMap(source, [t * t])

    def test_substitute(self):
        amap, cring = twisted_cubic_map()
        x, y = amap.source.variable(0), amap.source.variable(1)
        t = cring.variable(0)
        assert substitute(amap, y * y - x * x * x).is_zero()
        assert substitute(amap, x * y) == t ** 5

    def test_substitute_keeps_full_images(self):
        # without a cache the images are not restricted to the slice
        # a0 = 1, a1 = 0, where the discriminant of V2 leaves only x2
        gs = minimal_invariant_generators(ProblemSpec((2,), 2))
        amap = algebra_map_from_generators(gs)
        f = amap.source.variable(0)
        assert substitute(amap, f * f) == gs.generators[0] ** 2
        assert len(substitute(amap, f).terms) == 2

    def test_exponent_limit_guarded(self):
        # exponents above 4095 would carry into the neighbouring packed field
        cring = GradedRing(("s", "t"), (1, 1))
        s, t = cring.variable(0), cring.variable(1)
        big = AlgebraMap(GradedRing(("x",), (5000,)), [t ** 5000])
        with pytest.raises(ValueError, match="4095"):
            kernel(big)
        amap = AlgebraMap(GradedRing(("x", "y"), (3000, 1)), [t ** 3000, s])
        x = amap.source.variable(0)
        assert substitute(amap, x) == t ** 3000
        with pytest.raises(ValueError, match="4095"):
            substitute(amap, x * x)


class TestKernelElimination:
    def test_free_case_zero_kernel(self):
        # algebraically independent images: single invariant of one quadratic
        gs = minimal_invariant_generators(ProblemSpec((2,), 2))
        amap = algebra_map_from_generators(gs)
        assert kernel(amap).generators == []

    def test_twisted_cubic(self):
        amap, cring = twisted_cubic_map()
        ker = kernel(amap)
        assert len(ker.generators) == 1
        g = ker.generators[0]
        assert substitute(amap, g).is_zero()
        # Hilbert series of K[x,y]/(g) matches the image subalgebra K[t^2,t^3]
        hs = hilbert_series_quotient(ker)
        # dims of K[t^2,t^3]: 1 except in degree 1
        assert hs.coefficients(8) == [1, 0, 1, 1, 1, 1, 1, 1, 1]

    def test_published_generators_give_published_relations(
        self, paper_ring, paper_J, paper_L
    ):
        gs = minimal_invariant_generators(ProblemSpec((1, 1, 1, 2), 3))
        amap = algebra_map_from_generators(gs)
        ker = kernel(amap)
        ours = Ideal(amap.source, ker.generators)
        # reindex the published ideal into our source ring: the weight
        # multiset is a permutation, so compare through the weight-sorted
        # variable matching is not canonical; instead check the invariant-
        # theoretic statement: the two ideals define the same variety of
        # relations, i.e. substituting our generators kills our kernel and
        # the published kernel has the same degree multiset.
        from sl2betti.groebner import minimal_generators

        mine = sorted(d for _, d in minimal_generators(ours))
        theirs = sorted(
            d for _, d in minimal_generators(Ideal(paper_ring, paper_J))
        )
        assert mine == theirs == [5, 5, 5, 6, 6, 6, 6, 6, 6]
        for g in ker.generators:
            assert substitute(amap, g).is_zero()

    def test_weighted_target_ring(self):
        # x weighs 1 and y weighs 2: z_i - f_i is homogeneous only when the
        # elimination ring grades the target variables by the same weights
        T = GradedRing(("x", "y"), (1, 2))
        x, y = T.variable(0), T.variable(1)
        S = GradedRing(("f1", "f2", "f3"), (2, 2, 4))
        f1, f2, f3 = (S.variable(i) for i in range(3))
        ker = kernel(AlgebraMap(S, [x * x, y, x * x * y]))
        assert ideals_equal(Ideal(S, ker.generators), Ideal(S, [f1 * f2 - f3]))

    def test_soundness_and_homogeneity(self):
        gs = minimal_invariant_generators(ProblemSpec((1, 1, 2), 3))
        amap = algebra_map_from_generators(gs)
        ker = kernel(amap)
        for g in ker.generators:
            assert g.is_homogeneous()
            assert substitute(amap, g).is_zero()

    def test_published_L_kernel_equals_published_J(
        self, paper_ring, paper_J, paper_L
    ):
        # feed the published generators in their printed order: the source
        # weight line is then exactly (3,3,2,3,2,3,3,2,2,3), and the kernel
        # must equal the published relation ideal by mutual reduction
        weights = tuple(f.weighted_degree() for f in paper_L)
        assert weights == (3, 3, 2, 3, 2, 3, 3, 2, 2, 3)
        amap = AlgebraMap(paper_ring, list(paper_L))
        ker = kernel(amap)
        assert ideals_equal(
            Ideal(paper_ring, ker.generators), Ideal(paper_ring, paper_J)
        )


class TestKernelByDegrees:
    def test_agrees_with_elimination(self):
        for degrees, bound in [((1, 1, 2), 3), ((1, 1, 1, 2), 3), ((2, 2), 2)]:
            spec = ProblemSpec(degrees, bound)
            gs = minimal_invariant_generators(spec)
            amap = algebra_map_from_generators(gs)
            lin, info = kernel_by_degrees(amap, spec, 14)
            elim = kernel(amap)
            assert ideals_equal(
                Ideal(amap.source, lin.generators),
                Ideal(amap.source, elim.generators),
            )
            # the certificate: quotient dimensions equal the invariant count
            hs = hilbert_series_quotient(lin)
            assert hs.coefficients(info.horizon) == cs_total_dims(spec, 14)

    def test_incomplete_generators_detected(self):
        spec = ProblemSpec((1, 1, 1), 2)
        gs = minimal_invariant_generators(spec)
        crippled = type(gs)(
            gs.cring, spec, gs.generators[:2], gs.degrees[:2],
            gs.multidegrees[:2],
        )
        amap = algebra_map_from_generators(crippled)
        with pytest.raises(ValueError):
            kernel_by_degrees(amap, spec, 8)

    def test_non_invariant_images_refused(self):
        # the kernel runs on the slice a0 = 1, a1 = 0, which is exact only
        # for invariants; x0 and x1 have sl2-weights 2 and 0 and restrict to
        # 1 and 0 there
        spec = ProblemSpec((2,), 2)
        cring = CoefficientRing(spec.degrees)
        x0, x1, x2 = (cring.ring.variable(i) for i in range(3))
        amap = AlgebraMap(GradedRing(("f1", "f2"), (1, 1)), [x0, x1])
        with pytest.raises(ValueError, match="not an SL2-invariant"):
            kernel_by_degrees(amap, spec, 4)
        # sl2-weight 0, but the raising operator maps x0*x2 to 2*x0*x1;
        # unchecked, the slice would certify it as the invariant of V2
        amap = AlgebraMap(GradedRing(("f1",), (2,)), [x0 * x2])
        with pytest.raises(ValueError, match="not an SL2-invariant"):
            kernel_by_degrees(amap, spec, 4)
        # images outside the coefficient ring of V2
        amap, _ = twisted_cubic_map()
        with pytest.raises(ValueError, match="coefficient ring"):
            kernel_by_degrees(amap, spec, 6)

    def test_too_small_slice_raises(self, monkeypatch):
        # a slice that also sets a2 of the quintic to 0 meets too few orbits:
        # the degree-36 restricted matrix has six kernel vectors where the
        # dimension count allows one, and the nullity certificate raises
        # rather than return wrong relations
        spec = ProblemSpec((5,), BY_LABEL["V5"].bound)
        amap = algebra_map_from_generators(minimal_invariant_generators(spec))
        true_slice = invariants._on_slice
        monkeypatch.setattr(
            invariants, "_on_slice", lambda terms, zeros: true_slice(terms, (*zeros, 2))
        )
        with pytest.raises(AssertionError, match="degree 36: found 6 kernel vectors, expected 1"):
            kernel_by_degrees(amap, spec)


class TestPresent:
    def test_worked_case(self):
        spec = ProblemSpec((1, 1, 1, 2), 3)
        amap, ker, info = present(spec)
        assert sorted(Counter(amap.source.weights).items()) == [(2, 4), (3, 6)]
        assert sorted(info.relation_degrees) == [5, 5, 5, 6, 6, 6, 6, 6, 6]
        assert info.horizon == default_horizon(info.relation_degrees, amap.source.weights)

    def test_two_cubics(self, monkeypatch):
        # the horizon grows from 12 to 24 inside one kernel pass
        calls = []
        inner = presentation.kernel_by_degrees

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(presentation, "kernel_by_degrees", counted)
        amap, ker, info = present(ProblemSpec((3, 3), 6))
        assert len(calls) == 1
        assert sorted(info.relation_degrees) == [8, 12]
        assert info.horizon == 24
        assert info.horizon == default_horizon(info.relation_degrees, amap.source.weights)

    def test_free_case(self):
        amap, ker, info = present(ProblemSpec((2,), 2))
        assert ker.generators == []
        assert amap.source.weights == (2,)
        assert info.horizon == default_horizon([], amap.source.weights)

    def test_elimination_route_matches(self):
        # the degree-certified kernel and the elimination kernel agree
        spec = ProblemSpec((1, 1, 2), 3)
        amap, ker, info = present(spec)
        mins = minimal_generators(kernel(amap))
        assert ideals_equal(
            Ideal(amap.source, ker.generators),
            Ideal(amap.source, [g for g, _ in mins]),
        )
        assert sorted(info.relation_degrees) == sorted(d for _, d in mins) == [6]

    def test_no_invariants_at_all(self):
        amap, ker, info = present(ProblemSpec((1,), 2))
        assert amap.source.nvars == 0
        assert ker.generators == []

    def test_completeness_desk_scale(self):
        # quotient dimensions match the weight count to twice the largest
        # relation degree
        spec = ProblemSpec((1, 2, 2), 4)
        amap, ker, info = present(spec)
        hs = hilbert_series_quotient(ker)
        depth = 2 * max(info.relation_degrees)
        assert hs.coefficients(depth) == cs_total_dims(spec, depth)
