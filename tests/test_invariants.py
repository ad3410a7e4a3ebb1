"""sl2 operators, weight counting, and the generator search."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2betti import invariants
from sl2betti.invariants import (
    _form_weight_counts,
    _weight_zero_columns,
    _ImageCache,
    CoefficientRing,
    ProblemSpec,
    apply_operator,
    cayley_sylvester_dim,
    cs_total_dims,
    invariant_basis,
    minimal_invariant_generators,
    weight_multiplicity,
)
from sl2betti.linalg import Echelon, primitive
from sl2betti.poly import GradedRing, Polynomial, WEIGHTED, graded_monomials
from sl2betti.presentation import algebra_map_from_generators, kernel_by_degrees


def monomials_of_weight(cr, md, weight):
    """The monomials of the multidegree with the sl2-weight, through the
    isobaric grading: weight sum(d_i * m_i) - 2 * sum(k * alpha)."""
    half, odd = divmod(sum(d * m for d, m in zip(cr.form_degrees, md)) - weight, 2)
    return [] if odd else graded_monomials(cr.grades, tuple(md) + (half,))


class TestOperators:
    def test_constants_die(self):
        cr = CoefficientRing((2,))
        c = cr.ring.constant(5)
        assert apply_operator("raising", c, cr).is_zero()
        assert apply_operator("lowering", c, cr).is_zero()

    def test_published_generators_annihilated(self, paper_L):
        cr = CoefficientRing((1, 1, 1, 2))
        assert [n for n in cr.ring.names] == list(paper_L[0].ring.names)
        for g in paper_L:
            p = Polynomial(cr.ring, dict(g.terms))
            assert apply_operator("raising", p, cr).is_zero(), str(g)
            assert apply_operator("lowering", p, cr).is_zero(), str(g)

    def test_weight_shift(self):
        cr = CoefficientRing((3,))
        rng = random.Random(2)
        for _ in range(20):
            mono = tuple(rng.randint(0, 2) for _ in range(4))
            p = Polynomial(cr.ring, {mono: Fraction(1)})
            w = cr.sl2_weight(mono)
            up = apply_operator("raising", p, cr)
            for m in up.monomials():
                assert cr.sl2_weight(m) == w + 2
            down = apply_operator("lowering", p, cr)
            for m in down.monomials():
                assert cr.sl2_weight(m) == w - 2

    def test_unknown_kind(self):
        cr = CoefficientRing((1,))
        with pytest.raises(ValueError):
            apply_operator("sideways", cr.ring.one(), cr)


class TestCayleySylvester:
    def test_quartic_degree_two(self):
        assert cayley_sylvester_dim(ProblemSpec((4,), 2), (2,)) == 1

    def test_cubic_degree_four(self):
        assert cayley_sylvester_dim(ProblemSpec((3,), 4), (4,)) == 1

    def test_odd_weight_zero(self):
        assert cayley_sylvester_dim(ProblemSpec((3,), 4), (1,)) == 0
        assert cayley_sylvester_dim(ProblemSpec((5,), 6), (3,)) == 0

    @pytest.mark.parametrize("md", [(2, 0, 5), (2,)])
    def test_multidegree_length_mismatch(self, md):
        # a multidegree of the wrong length is refused, not cut to the forms
        # it pairs with: (2, 0, 5) would count as (2, 0), which has one
        spec = ProblemSpec((2, 3), 6)
        with pytest.raises(ValueError, match="multidegree length does not match"):
            cayley_sylvester_dim(spec, md)
        with pytest.raises(ValueError, match="multidegree length does not match"):
            weight_multiplicity(spec, md, 0)

    def test_negative_multidegree_rejected(self):
        # a negative degree would index the weight table from its end and
        # count the piece of another degree
        spec = ProblemSpec((2,), 4)
        with pytest.raises(ValueError, match="nonnegative"):
            cayley_sylvester_dim(spec, (-1,))
        with pytest.raises(ValueError, match="nonnegative"):
            invariant_basis(spec, (-2,))

    def test_weight_multiplicity_counts_monomials(self):
        spec = ProblemSpec((2, 1), 3)
        cr = CoefficientRing((2, 1))
        for md in [(2, 0), (1, 1), (2, 2)]:
            for w in (0, 2, 4):
                count = len(monomials_of_weight(cr, md, w))
                assert count == weight_multiplicity(spec, md, w)

    def test_enumeration_matches_brute_force(self):
        # the isobaric grading gives exactly the monomials of the
        # multidegree with the weight, in ascending lexicographic order;
        # negative and odd isobaric targets give none
        rng = random.Random(1009)
        for _ in range(60):
            degrees = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
            md = tuple(rng.randint(0, 3) for _ in degrees)
            bound = sum(d * m for d, m in zip(degrees, md))
            weight = rng.randint(-bound - 1, bound + 1)
            cr = CoefficientRing(degrees)
            per_form = [
                [c for c in itertools.product(range(m + 1), repeat=d + 1) if sum(c) == m]
                for d, m in zip(degrees, md)
            ]
            want = sorted(
                m
                for m in (sum(parts, ()) for parts in itertools.product(*per_form))
                if cr.sl2_weight(m) == weight
            )
            got = monomials_of_weight(cr, md, weight)
            assert got == want, (degrees, md, weight)

    def test_total_dims_aggregate(self):
        spec = ProblemSpec((1, 1, 1, 2), 3)
        totals = cs_total_dims(spec, 5)
        for e in range(6):
            by_cell = sum(
                cayley_sylvester_dim(spec, md)
                for md in graded_monomials([(1,)] * 4, (e,))
            )
            assert totals[e] == by_cell
        assert totals[:4] == [1, 0, 4, 6]


def reference_form_weight_counts(d, m):
    """Weight distribution of degree-m monomials in the coefficients of V_d,
    by the recursion over the coefficients that the knapsack replaced."""

    table = {}

    def rec(k, rem):
        if k == d:
            return {rem * (d - 2 * k): 1}
        if (k, rem) not in table:
            acc = table[k, rem] = {}
            for e in range(rem + 1):
                for w, c in rec(k + 1, rem - e).items():
                    acc[e * (d - 2 * k) + w] = acc.get(e * (d - 2 * k) + w, 0) + c
        return table[k, rem]

    return rec(0, m)


def reference_cs_total_dims(degrees, upto):
    """The two-level convolution the knapsack replaced: per form, every
    split of the total degree, each form's table rebuilt per degree."""
    acc = [{0: 1}] + [{} for _ in range(upto)]
    for d in degrees:
        nxt = [{} for _ in range(upto + 1)]
        tables = [reference_form_weight_counts(d, m) for m in range(upto + 1)]
        for e1 in range(upto + 1):
            for m in range(upto + 1 - e1):
                tgt = nxt[e1 + m]
                for w1, c1 in acc[e1].items():
                    for w2, c2 in tables[m].items():
                        tgt[w1 + w2] = tgt.get(w1 + w2, 0) + c1 * c2
        acc = nxt
    return [acc[e].get(0, 0) - acc[e].get(2, 0) for e in range(upto + 1)]


class TestWeightCountDP:
    @pytest.mark.parametrize(
        "degrees, upto", [((5,), 72), ((1, 1, 1, 2), 24), ((1, 1, 3), 24), ((2, 3), 20)]
    )
    def test_total_dims_match_convolution(self, degrees, upto):
        assert cs_total_dims(ProblemSpec(degrees), upto) == reference_cs_total_dims(
            degrees, upto
        )

    def test_form_counts_match_recursion(self):
        # degrees out of order, so the doubling tables are extended and reused
        for d, m in [(5, 3), (5, 17), (5, 0), (5, 8), (2, 9), (8, 12), (1, 1)]:
            assert _form_weight_counts(d, m) == reference_form_weight_counts(d, m)


class TestInvariantBasis:
    def test_quadratic_discriminant(self):
        basis = invariant_basis(ProblemSpec((2,), 2), (2,))
        assert len(basis) == 1
        s = str(basis[0])
        assert s in ("x1^2 - x0*x2", "-x1^2 + x0*x2")

    def test_odd_parity_empty(self):
        assert invariant_basis(ProblemSpec((3,), 2), (1,)) == []

    @pytest.mark.parametrize("md", [(2,), (2, 0, 1)])
    def test_multidegree_length_mismatch(self, md):
        with pytest.raises(ValueError, match="multidegree length does not match"):
            invariant_basis(ProblemSpec((2, 3), 6), md)

    def test_bracket(self):
        basis = invariant_basis(ProblemSpec((1, 1), 2), (1, 1))
        assert len(basis) == 1
        assert str(basis[0]) == "x1*y0 - x0*y1"

    def test_dimension_agreement_small_pieces(self):
        # nullspace dimension equals the weight-count on every small piece
        for degrees in [(1, 1, 1, 2), (2, 3), (4,), (5,)]:
            spec = ProblemSpec(degrees, 12)
            n = len(degrees)
            for total in range(1, 13):
                for md in graded_monomials([(1,)] * n, (total,)):
                    if sum(m * d for m, d in zip(md, degrees)) > 12:
                        continue
                    if sum(m * d for m, d in zip(md, degrees)) % 2:
                        continue
                    got = len(invariant_basis(spec, md))
                    want = cayley_sylvester_dim(spec, md)
                    assert got == want, (degrees, md)

    @pytest.mark.parametrize("degrees, md", [
        ((2,), (2,)), ((4,), (3,)), ((5,), (8,)), ((1, 1, 1, 2), (1, 1, 0, 1)), ((2, 3), (3, 2)),
    ])
    def test_basis_is_normalized(self, degrees, md):
        # the certified vectors are handed on as they are, without normalize
        basis = invariant_basis(ProblemSpec(degrees, 1), md)
        assert basis
        for b in basis:
            normal = b.normalize(WEIGHTED)
            assert b == normal and b.terms == normal.terms


class TestCayleyRowOrder:
    """`invariant_basis` hands its rows to `nullspace` by descending a0 + a1
    exponent of the target, ties in ascending weighted order, with a0, a1
    the first two coefficients of the first form the multidegree involves."""

    @pytest.mark.parametrize("degrees, md, a0", [
        ((5,), (18,), 0),
        # the first form is absent: a0, a1 are y0, y1
        ((1, 2, 2, 2), (0, 2, 2, 0), 2),
    ])
    def test_rows_in_cayley_order(self, monkeypatch, degrees, md, a0):
        seen = []
        solve = invariants.nullspace

        def capture(rows, columns, stop_rank=None):
            rows = list(rows)
            seen.append(rows)
            return solve(rows, columns, stop_rank)

        monkeypatch.setattr(invariants, "nullspace", capture)
        assert invariant_basis(ProblemSpec(degrees, 1), md)
        cr = CoefficientRing(degrees)
        keyfn = WEIGHTED.key_function(cr.ring)
        moves = invariants._operator_moves(cr, "raising")
        by_target = {}
        for j, m in enumerate(_weight_zero_columns(degrees, md)):
            for t, c in invariants._apply_moves_int(m, moves):
                row = by_target.setdefault(t, {})
                row[j] = row.get(j, 0) + c
        cayley = sorted(by_target, key=lambda t: (-t[a0] - t[a0 + 1], keyfn(t)))
        plain = sorted(by_target, key=keyfn, reverse=True)
        assert cayley != plain  # the piece tells the two orders apart
        assert seen == [[by_target[t] for t in cayley]]


def _nonzero_poly(ring, data):
    terms = {}
    for _ in range(data.draw(st.integers(1, 3))):
        mono = tuple(data.draw(st.integers(0, 3)) for _ in range(ring.nvars))
        c = data.draw(st.integers(-5, 5).filter(bool))
        terms[mono] = Fraction(c, data.draw(st.integers(1, 4)))
    return Polynomial(ring, terms)


def _on_slice_oracle(p, zeros):
    """p at a0 = 1 and a_v = 0 for v in zeros, in the same ring."""
    out = {}
    for m, c in p.terms.items():
        if not any(m[v] for v in zeros):
            key = (0,) + m[1:]
            out[key] = out.get(key, 0) + c
    return Polynomial(p.ring, out)


class TestImageCache:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_products_match_polynomial_arithmetic(self, data):
        # factor(alpha) * image(alpha) is f^alpha (restricted to the slice
        # when the zero set is nonempty: a0 = 1 and a1, a2 or both 0), also
        # for products cached before further images were added
        R = GradedRing(("a", "b", "c"), (1, 1, 1))
        polys = [_nonzero_poly(R, data) for _ in range(data.draw(st.integers(1, 3)))]
        zeros = tuple(sorted(data.draw(st.sets(st.integers(1, 2)))))
        first = data.draw(st.integers(0, len(polys)))
        alphas = data.draw(st.lists(
            st.tuples(*(st.integers(0, 3) for _ in polys)), min_size=1, max_size=4
        ))
        cache = _ImageCache(R, polys[:first], zeros=zeros)

        def check(alpha):
            want = R.one()
            for f, e in zip(polys, alpha):
                want = want * f ** e
            if zeros:
                want = _on_slice_oracle(want, zeros)
            got = {cache.unpack(m): c * cache.factor(alpha) for m, c in cache.image(alpha).items()}
            assert Polynomial(R, got) == want

        for alpha in alphas:
            check(alpha[:first])
        for f in polys[first:]:
            cache.add(f)
        for alpha in alphas:
            check(alpha)
            check(alpha[:first])


class TestSlice:
    @pytest.mark.parametrize("d", range(3, 11))
    def test_orbits_through_the_slice_are_dense(self, d):
        # at a point p with a0 = 1, a1 = a_{d-1} = 0, the (a0, a1, a_{d-1})
        # block of (h.p, e.p, f.p) has rank 3, so SL2 moves the slice of
        # `kernel_by_degrees` onto a dense set of V_d; an operator move
        # (v, w, c) adds c * p[w] to the a_v-component of its vector
        rng = random.Random(d)
        cr = CoefficientRing((d,))
        p = [1, 0] + [rng.randint(-9, 9) for _ in range(d - 1)]
        p[d - 1] = 0
        vectors = [{v: cr.sl2_weights[v] * p[v] for v in range(cr.nvars)}]
        for kind in ("raising", "lowering"):
            vec = dict.fromkeys(range(cr.nvars), 0)
            for v, w, c in invariants._operator_moves(cr, kind):
                vec[v] += c * p[w]
            vectors.append(vec)
        ech = Echelon()
        for vec in vectors:
            ech.add({j: vec[v] for j, v in enumerate((0, 1, d - 1)) if vec[v]})
        assert ech.rank == 3


class TestGeneratorSearch:
    def test_worked_case_degrees(self):
        gs = minimal_invariant_generators(ProblemSpec((1, 1, 1, 2), 3))
        assert len(gs) == 10
        assert sorted(gs.degrees) == [2, 2, 2, 2, 3, 3, 3, 3, 3, 3]

    def test_single_quadratic(self):
        gs = minimal_invariant_generators(ProblemSpec((2,), 2))
        assert gs.degrees == [2]

    def test_two_linear_forms(self):
        gs = minimal_invariant_generators(ProblemSpec((1, 1), 2))
        assert gs.degrees == [2]
        assert gs.multidegrees == [(1, 1)]

    def test_all_generators_invariant(self):
        gs = minimal_invariant_generators(ProblemSpec((2, 3), 7))
        cr = gs.cring
        for g in gs.generators:
            assert apply_operator("raising", g, cr).is_zero()
            assert apply_operator("lowering", g, cr).is_zero()
            assert all(cr.sl2_weight(m) == 0 for m in g.monomials())

    def test_quintic_search_enumerates_each_piece_once(self, monkeypatch):
        # V5 to degree 18 has five nonzero invariant pieces; generators come
        # from four of them, and each piece is enumerated once: one call
        # with the coefficients' isobaric grading per piece
        enumerated, based = [], []
        enumerate_graded = invariants.graded_monomials
        basis_of_piece = invariants.invariant_basis
        coefficient_grades = CoefficientRing((5,)).grades

        def counting_enumerate(grades, target):
            if grades == coefficient_grades:
                enumerated.append(tuple(target[:-1]))
            return enumerate_graded(grades, target)

        def counting_basis(spec, md):
            based.append(tuple(md))
            return basis_of_piece(spec, md)

        monkeypatch.setattr(invariants, "graded_monomials", counting_enumerate)
        monkeypatch.setattr(invariants, "invariant_basis", counting_basis)
        _weight_zero_columns.cache_clear()
        gs = minimal_invariant_generators(ProblemSpec((5,), 18))
        assert gs.degrees == [4, 8, 12, 18]
        assert enumerated == [(4,), (8,), (12,), (16,), (18,)]
        assert based == [(4,), (8,), (12,), (18,)]

    def test_degree_multiset_invariant_under_permutation(self):
        a = minimal_invariant_generators(ProblemSpec((1, 1, 2), 3))
        b = minimal_invariant_generators(ProblemSpec((2, 1, 1), 3))
        c = minimal_invariant_generators(ProblemSpec((1, 2, 1), 3))
        assert sorted(a.degrees) == sorted(b.degrees) == sorted(c.degrees)

    def test_published_spans_match_by_degree(self, paper_L):
        """The computed generators span the published ones degree by degree,
        and conversely, in every degree <= 3."""
        gs = minimal_invariant_generators(ProblemSpec((1, 1, 1, 2), 3))
        ring = gs.cring.ring
        keyfn = WEIGHTED.key_function(ring)
        theirs = [Polynomial(ring, dict(g.terms)) for g in paper_L]

        def span_rank(polys, extra=()):
            index = {}
            ech = Echelon()
            for p in list(polys) + list(extra):
                vec = {}
                for m, c in p.terms.items():
                    if m not in index:
                        index[m] = len(index)
                    vec[index[m]] = c
                ech.add(primitive(vec)[0])
            return ech.rank

        for e in (2, 3):
            ours_e = [g for g in gs.generators if g.weighted_degree() == e]
            theirs_e = [g for g in theirs if g.weighted_degree() == e]
            assert len(ours_e) == len(theirs_e)
            r = span_rank(ours_e)
            assert span_rank(ours_e, theirs_e) == r  # same span both ways
            assert span_rank(theirs_e) == r


class TestCompleteness:
    def test_missing_generator_detected(self):
        # the bracket algebra of three linear forms needs all three brackets;
        # without one, the kernel's dimension certificate fails in the
        # dropped generator's degree
        spec = ProblemSpec((1, 1, 1), 2)
        gs = minimal_invariant_generators(spec)
        assert len(gs) == 3
        crippled = type(gs)(
            gs.cring, spec, gs.generators[:2], gs.degrees[:2],
            gs.multidegrees[:2],
        )
        amap = algebra_map_from_generators(crippled)
        with pytest.raises(
            ValueError, match="at degree 2; the generator set upstream is incomplete"
        ):
            kernel_by_degrees(amap, spec, 6)
