"""Buchberger engine, minimal generators, Hilbert series."""

import random
from fractions import Fraction
from itertools import product
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2betti.groebner import (
    BuchbergerEngine,
    Ideal,
    RationalSeries,
    Reducer,
    base_keyfn,
    buchberger,
    hilbert_numerator_monomial,
    hilbert_series_quotient,
    ideals_equal,
    minimal_generators,
    monomials_of_degree,
    normal_form,
    standard_monomials,
)
from sl2betti.linalg import Echelon, primitive
from sl2betti.resolution import koszul_betti
from sl2betti.poly import (
    LEX,
    MAX_EXPONENT,
    GradedRing,
    Polynomial,
    RingMismatchError,
    WEIGHTED,
    elimination_order,
    monomial_mul,
)
from conftest import tuple_weighted_key


def spoly(f, g, order=WEIGHTED):
    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    mf = tuple(a - b for a, b in zip(lcm, lf))
    mg = tuple(a - b for a, b in zip(lcm, lg))
    return f.mul_monomial(mf, g.leading_coefficient(order)) - g.mul_monomial(
        mg, f.leading_coefficient(order)
    )


class TestNormalForm:
    def test_member_reduces_to_zero(self):
        R = GradedRing(("x", "y"), (1, 1))
        x = R.variable(0)
        r, _ = normal_form(x, [x])
        assert r.is_zero()

    def test_quotient(self):
        R = GradedRing(("x", "y"), (1, 1))
        x, y = R.variable(0), R.variable(1)
        r, cofs = normal_form(x * x, [x])
        assert r.is_zero() and cofs[0] == x

    def test_partial(self):
        R = GradedRing(("x", "y"), (1, 1))
        x, y = R.variable(0), R.variable(1)
        r, cofs = normal_form(x * x + y, [x])
        assert r == y and cofs[0] == x

    def test_division_identity_random(self):
        rng = random.Random(3)
        R = GradedRing(("x", "y", "z"), (1, 1, 1))
        for _ in range(25):
            polys = [_random_poly(R, rng) for _ in range(3)]
            reducers = [p for p in polys[:2] if not p.is_zero()]
            if not reducers:
                continue
            p = polys[2]
            r, cofs = normal_form(p, reducers)
            acc = r
            for c, g in zip(cofs, reducers):
                acc = acc + c * g
            assert acc == p
            # no remainder monomial divisible by a leading monomial
            for m in r.monomials():
                for g in reducers:
                    lg = g.leading_monomial(WEIGHTED)
                    assert any(a < b for a, b in zip(m, lg))


class TestReducer:
    def test_integer_division_identity_random(self):
        # rational dividends, integer divisors with non-unit and negative
        # leads, over a rank-3 module: vec*den/g == sum(q*b) + rem in
        # integers, and no remainder term is divisible by a lead in its
        # position
        rng = random.Random(11)
        R = GradedRing(("x", "y", "z"), (1, 1, 1))
        keyfn = base_keyfn(R).induced([(0, R.zero_exponent())] * 3)
        negative_leads = scaled = 0
        for _ in range(40):
            reducer = Reducer(keyfn)
            for _ in range(rng.randint(1, 4)):
                b = _random_mvec(rng, R, lambda: rng.choice([-6, -5, -4, -3, -2, 2, 3, 4, 5, 6]))
                if b:
                    reducer.add(keyfn.encode(b))
            negative_leads += sum(a < 0 for a in reducer.lead_coeffs)
            vec = _random_mvec(rng, R, lambda: Fraction(rng.randint(-7, 7), rng.randint(1, 6)))
            rem, quotients, (den, g) = reducer._divide(keyfn.encode(vec))
            rem = keyfn.decode_vec(rem)
            scaled += den != primitive(vec)[1][0]
            assert all(type(c) is int for c in rem.values())
            acc = dict(rem)
            for k, q in quotients.items():
                for qm, qc in q.items():
                    assert type(qc) is int
                    for (pos, e), c in keyfn.decode_vec(reducer.basis[k]).items():
                        key = (pos, monomial_mul(e, qm))
                        acc[key] = acc.get(key, 0) + qc * c
            assert {mm: c for mm, c in acc.items() if c} == {
                mm: c * den / g for mm, c in vec.items() if c
            }
            for pos, e in rem:
                for lpos, le in reducer.leads:
                    assert lpos != pos or any(a < b for a, b in zip(e, le))
        # the run met negative leads and leads that do not divide a term
        assert negative_leads and scaled


def _tuple_block(weights, k):
    front, back = tuple_weighted_key(weights[:k]), tuple_weighted_key(weights[k:])
    return lambda m: front(m[:k]) + back(m[k:])


class TestPackedKeys:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_int_keys_order_like_tuple_keys(self, data):
        # the weighted, lex and block orders and a two-level Schreyer chain:
        # the int key is injective, decodes back, and sorts like the tuple key
        # small values as well as wide ones, so that heads tie often
        weight = st.one_of(st.integers(1, 3), st.integers(1, 3000))
        weights = data.draw(st.lists(weight, min_size=1, max_size=5))
        n = len(weights)
        R = GradedRing(tuple(f"x{i}" for i in range(n)), weights)
        exponent = st.one_of(st.sampled_from([0, 1, MAX_EXPONENT]), st.integers(0, MAX_EXPONENT))
        expo = st.tuples(*(exponent for _ in range(n)))
        monos = data.draw(st.lists(expo, min_size=2, max_size=12, unique=True))
        orders = [(WEIGHTED, tuple_weighted_key(weights)), (LEX, lambda m: m)]
        if n > 1:
            k = data.draw(st.integers(1, n - 1))
            orders.append((elimination_order(k), _tuple_block(weights, k)))
        for order, ref in orders:
            key = order.key_function(R)
            assert sorted(monos, key=key) == sorted(monos, key=ref)
            assert [key.decode(key(m)) for m in monos] == monos
            assert all(key(m) >= 0 for m in monos)

        # Schreyer chain F_2 -> F_1 -> F_0 = R over the weighted order
        small = st.tuples(*(st.integers(0, MAX_EXPONENT // 4) for _ in range(n)))
        tags1 = [(0, t) for t in data.draw(st.lists(small, min_size=1, max_size=4))]
        r1 = len(tags1)
        tags2 = data.draw(
            st.lists(st.tuples(st.integers(0, r1 - 1), small), min_size=1, max_size=5)
        )
        flat1 = base_keyfn(R).induced(tags1)
        flat2 = flat1.induced(tags2)
        ring_ref = tuple_weighted_key(weights)
        ref1 = lambda mm: ring_ref(monomial_mul(tags1[mm[0]][1], mm[1])) + (-mm[0],)
        ref2 = lambda mm: ref1((tags2[mm[0]][0], monomial_mul(tags2[mm[0]][1], mm[1]))) + (-mm[0],)
        # module monomials whose products with the tags reach MAX_EXPONENT
        terms = set()
        for pos in data.draw(st.lists(st.integers(0, len(tags2) - 1), min_size=2, max_size=12)):
            prod = flat2.prods[pos]
            full = data.draw(st.tuples(*(st.integers(p, MAX_EXPONENT) for p in prod)))
            terms.add((pos, tuple(f - p for f, p in zip(full, prod))))
        terms = sorted(terms)
        assert sorted(terms, key=flat2) == sorted(terms, key=ref2)
        assert [flat2.decode(flat2(mm)) for mm in terms] == terms


def _standard_by_tuples(ring, leads, degree):
    """Reference for `standard_monomials`: every exponent vector of the
    degree, in ascending lexicographic order, that no lead divides."""
    boxes = (range(degree // w + 1) for w in ring.weights)
    return [
        m for m in product(*boxes)
        if ring.weighted_degree(m) == degree
        and not any(all(map(le, lt, m)) for lt in leads)
    ]


class TestPackedDivisibility:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_mask_test_is_tuple_divisibility(self, data):
        # on a ring order and on the Schreyer order `induced` builds from it,
        # with exponents up to MAX_EXPONENT: among keys of one position, a
        # lead divides a term iff the lead's mask minus the term's key keeps
        # every guard bit; and two leads are coprime iff their product has
        # the key of their lcm
        n = data.draw(st.integers(1, 4))
        weights = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        R = GradedRing(tuple(f"x{i}" for i in range(n)), weights)
        orders = [WEIGHTED, LEX] + ([elimination_order(1)] if n > 1 else [])
        ring_key = base_keyfn(R, data.draw(st.sampled_from(orders)))
        small = st.tuples(*(st.integers(0, MAX_EXPONENT // 4) for _ in range(n)))
        tags = [(0, t) for t in data.draw(st.lists(small, min_size=1, max_size=4))]
        for key in (ring_key, ring_key.induced(tags)):
            rank = len(key.prods)

            def monomial(pos, floor):
                # prods[pos] * m stays within MAX_EXPONENT
                return tuple(
                    data.draw(st.one_of(
                        st.sampled_from([lo, MAX_EXPONENT - p]),
                        st.integers(lo, MAX_EXPONENT - p),
                    ))
                    for lo, p in zip(floor, key.prods[pos])
                )

            for _ in range(6):
                lpos = data.draw(st.integers(0, rank - 1))
                lead = monomial(lpos, (0,) * n)
                near = data.draw(st.booleans())
                tpos = lpos if near else data.draw(st.integers(0, rank - 1))
                term = monomial(tpos, lead if near else (0,) * n)
                if near and data.draw(st.booleans()):
                    # a multiple with one exponent lowered below the lead's
                    i = data.draw(st.integers(0, n - 1))
                    if lead[i]:
                        term = term[:i] + (lead[i] - 1,) + term[i + 1:]
                mask = key((lpos, lead)) & key.low | key.guard
                packed = (mask - key((tpos, term))) & key.guard == key.guard
                assert (lpos == tpos and packed) == (lpos == tpos and all(map(le, lead, term)))
                if lpos == tpos:
                    lcm = tuple(map(max, lead, term))
                    coprime = not any(a and b for a, b in zip(lead, term))
                    product_key = key((lpos, lead)) + key((lpos, term)) - key.consts[lpos]
                    assert (product_key == key((lpos, lcm))) == coprime

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_standard_monomials_match_tuple_filter(self, data):
        # one variable reaches degrees and exponents up to MAX_EXPONENT
        n = data.draw(st.integers(1, 4))
        weights = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
        R = GradedRing(tuple(f"x{i}" for i in range(n)), weights)
        top = MAX_EXPONENT if n == 1 else 4
        leads = data.draw(st.lists(st.tuples(*(st.integers(0, top) for _ in range(n))), max_size=6))
        degree = data.draw(st.integers(0, MAX_EXPONENT if n == 1 else 9))
        want = _standard_by_tuples(R, leads, degree)
        want.sort(key=WEIGHTED.key_function(R), reverse=True)
        assert standard_monomials(R, leads, degree) == want


class TestExponentGuard:
    # an exponent past MAX_EXPONENT would carry out of its packed key field
    R = GradedRing(("x", "y"), (1, 1))

    def test_normal_form_step(self):
        x, y = self.R.variable(0), self.R.variable(1)
        # x^2 -> y^2 turns x^4094*y^4095 into x^4092*y^4097
        with pytest.raises(ValueError, match="4095"):
            normal_form(x ** 4094 * y ** 4095, [x * x - y * y])
        # reaching MAX_EXPONENT itself is fine
        r, _ = normal_form(x * x * y ** 4093, [x * x - y * y])
        assert r == y ** 4095

    def test_engine_reduction_and_s_pair(self):
        x, y = self.R.variable(0), self.R.variable(1)
        with pytest.raises(ValueError, match="4095"):
            buchberger(Ideal(self.R, [x * x - y * y, x ** 4094 * y ** 4095]))
        # the S-pair of x^2 - y^2 and x*y^4095 holds y^4097
        with pytest.raises(ValueError, match="4095"):
            buchberger(Ideal(self.R, [x * x - y * y, x * y ** 4095]))

    def test_input_exponent(self):
        x = self.R.variable(0)
        with pytest.raises(ValueError, match="4095"):
            buchberger(Ideal(self.R, [x ** 4096]))
        with pytest.raises(ValueError, match="4095"):
            normal_form(x ** 5000, [x])


def _random_mvec(rng, ring, coeff, rank=3, deg=3, terms=5):
    out = {}
    for _ in range(rng.randint(1, terms)):
        mono = [0] * ring.nvars
        for _ in range(rng.randint(0, deg)):
            mono[rng.randrange(ring.nvars)] += 1
        c = coeff()
        if c:
            out[(rng.randrange(rank), tuple(mono))] = c
    return out


def _random_poly(ring, rng, deg=3, terms=4):
    out = {}
    for _ in range(rng.randint(1, terms)):
        total = rng.randint(0, deg)
        mono = [0] * ring.nvars
        for _ in range(total):
            mono[rng.randrange(ring.nvars)] += 1
        c = rng.randint(-4, 4)
        if c:
            out[tuple(mono)] = Fraction(c)
    return Polynomial(ring, out)


def _random_homogeneous(ring, rng, deg, terms=4):
    monos = monomials_of_degree(ring, deg)
    if not monos:
        return ring.zero()
    out = {}
    for _ in range(rng.randint(1, terms)):
        c = rng.randint(-3, 3)
        if c:
            out[monos[rng.randrange(len(monos))]] = Fraction(c)
    return Polynomial(ring, out)


class TestBuchberger:
    def test_single_generator(self):
        R = GradedRing(("x", "y"), (1, 1))
        x = R.variable(0)
        gb = buchberger(Ideal(R, [x]))
        assert [str(g) for g in gb.elements] == ["x"]

    def test_twisted_cubic_elimination(self):
        # kernel of t -> (t^2, t^3): the t-free part generates (y^2 - x^3)
        T = GradedRing(("t", "x", "y"), (1, 2, 3))
        t, x, y = (T.variable(i) for i in range(3))
        gb = buchberger(Ideal(T, [x - t * t, y - t * t * t]), elimination_order(1))
        t_free = [g for g in gb.elements if all(m[0] == 0 for m in g.monomials())]
        assert len(t_free) == 1
        # oracle: substitute x = t^2, y = t^3 and check vanishing
        for g in t_free:
            sub = T.zero()
            for m, c in g.terms.items():
                term = T.one().scale(c) * (x ** 0)
                term = term * (t ** (2 * m[1] + 3 * m[2]))
                sub = sub + term.mul_monomial((0, 0, 0))
            # g(t^2, t^3) as polynomial in t must vanish
            acc = T.zero()
            for m, c in g.terms.items():
                acc = acc + (t ** (2 * m[1] + 3 * m[2])).scale(c)
            assert acc.is_zero()

    def test_paper_relations_reduce_to_zero(self, paper_ring, paper_J):
        gb = buchberger(Ideal(paper_ring, paper_J))
        for g in paper_J:
            assert normal_form(g, gb.elements)[0].is_zero()

    def test_cofactor_soundness_random(self):
        # with syzygies on, the engine tracks cofactors: basis element k
        # times cof_dens[k] is the combination cofactors[k] of the inputs
        rng = random.Random(5)
        R = GradedRing(("x", "y", "z"), (1, 1, 1))
        key = base_keyfn(R)
        checked = 0
        for trial in range(30):
            gens = [
                g for g in (_random_homogeneous(R, rng, rng.randint(1, 3)) for _ in range(3))
                if not g.is_zero()
            ]
            if trial >= 15:
                # rational inputs: the engine runs on their primitive
                # multiples, the cofactors are over the inputs themselves
                gens = [Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 6)) * g for g in gens]
            if not gens:
                continue
            engine = BuchbergerEngine(
                R,
                [{(0, m): c for m, c in g.terms.items()} for g in gens],
                [0],
                key,
                want_syzygies=True,
            )
            engine.run()
            for vec, cof, den in zip(engine.basis, engine.cofactors, engine.cof_dens):
                acc = R.zero()
                for (i, m), c in cof.items():
                    acc = acc + gens[i].mul_monomial(m).scale(Fraction(c))
                el = Polynomial(R, {m: Fraction(c) for (_, m), c in key.decode_vec(vec).items()})
                assert acc == el.scale(Fraction(den))
                checked += 1
        assert checked > 30

    def test_inhomogeneous_input_rejected(self):
        # the engine treats each input at its one degree
        R = GradedRing(("x", "y"), (1, 1))
        x, y = R.variable(0), R.variable(1)
        with pytest.raises(ValueError):
            buchberger(Ideal(R, [x * x - y]))
        engine = BuchbergerEngine(R, [], [0], base_keyfn(R))
        with pytest.raises(ValueError):
            engine.add_input({(0, m): c for m, c in (x * x - y).terms.items()})

    def test_spolynomials_reduce_to_zero_random_homogeneous(self):
        rng = random.Random(9)
        for trial in range(12):
            n = rng.randint(2, 4)
            R = GradedRing(tuple("xyzw"[:n]), (1,) * n)
            gens = [
                _random_homogeneous(R, rng, rng.randint(1, 3))
                for _ in range(rng.randint(1, 4))
            ]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            gb = buchberger(Ideal(R, gens))
            for i in range(len(gb.elements)):
                for j in range(i + 1, len(gb.elements)):
                    s = spoly(gb.elements[i], gb.elements[j])
                    if s.is_zero():
                        continue
                    r, _ = normal_form(s, gb.elements)
                    assert r.is_zero()

    def test_reduced_basis(self, paper_ring, paper_J):
        gb = buchberger(Ideal(paper_ring, paper_J))
        leads = gb.leading_monomials()
        for k, g in enumerate(gb.elements):
            for m in g.monomials():
                for l, lead in enumerate(leads):
                    if l == k:
                        continue
                    assert any(a < b for a, b in zip(m, lead)), (
                        "reduced basis has a divisible monomial"
                    )


def _grown_basis(R, gens):
    """The basis of gens grown as the degreewise kernel grows it: the
    inputs of degree e are added between two runs up to e."""
    engine = BuchbergerEngine(R, [], [0], base_keyfn(R))
    by_degree = sorted(gens, key=lambda g: g.weighted_degree())
    for e in range(max(g.weighted_degree() for g in gens) + 1):
        engine.run(upto=e)
        for g in by_degree:
            if g.weighted_degree() == e:
                engine.add_input({(0, m): c for m, c in g.terms.items()})
        engine.run(upto=e)
    return engine.reduced_basis(WEIGHTED)


class TestTruncatedEngine:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_grown_basis_is_buchbergers(self, data):
        # same tasks in the same order, so the same reduced basis, element
        # for element, whatever the input order
        n = data.draw(st.integers(2, 4))
        weights = tuple(data.draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)))
        R = GradedRing(tuple("xyzw"[:n]), weights)
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        gens = [
            _random_homogeneous(R, rng, data.draw(st.integers(1, 4)))
            for _ in range(data.draw(st.integers(1, 5)))
        ]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            return
        assert _grown_basis(R, gens).elements == buchberger(Ideal(R, gens)).elements

    def test_paper_J(self, paper_ring, paper_J):
        want = buchberger(Ideal(paper_ring, paper_J)).elements
        assert _grown_basis(paper_ring, paper_J).elements == want

    def test_truncated_runs_emit_each_syzygy_once(self, paper_ring, paper_J):
        # J has three relations of degree 5; product-criterion syzygies wait
        # for the empty queue, so stepwise runs end with one run's syzygies
        def engine():
            return BuchbergerEngine(
                paper_ring,
                [{(0, m): c for m, c in g.terms.items()} for g in paper_J],
                [0],
                base_keyfn(paper_ring),
                want_syzygies=True,
            )

        stepwise = engine()
        assert len(stepwise.run(upto=5).basis) == 3
        for e in range(6, 20):
            stepwise.run(upto=e)
        got = list(stepwise.run().syzygies)
        want = engine().run()
        assert stepwise.run().syzygies == got == want.syzygies
        assert stepwise.basis == want.basis


class TestIdealsEqual:
    def test_same_ideal_different_generators(self):
        R = GradedRing(("x", "y"), (1, 1))
        x, y = R.variable(0), R.variable(1)
        assert ideals_equal(Ideal(R, [x, y]), Ideal(R, [x + y, y]))
        assert not ideals_equal(Ideal(R, [x]), Ideal(R, [y]))

    def test_different_rings_rejected(self):
        R = GradedRing(("x", "y"), (1, 1))
        S = GradedRing(("x", "y"), (1, 2))
        with pytest.raises(RingMismatchError):
            ideals_equal(Ideal(R, [R.variable(0)]), Ideal(S, [S.variable(0)]))


class TestMinimalGenerators:
    def test_redundancy_removal(self):
        R = GradedRing(("x", "y"), (1, 1))
        x = R.variable(0)
        mg = minimal_generators(Ideal(R, [x, x * x]))
        assert [(str(g), d) for g, d in mg] == [("x", 1)]

    def test_zero_ideal(self):
        R = GradedRing(("x",), (1,))
        assert minimal_generators(Ideal(R, [])) == []

    def test_paper_J_minimalizes_to_nine(self, paper_ring, paper_J):
        mg = minimal_generators(Ideal(paper_ring, paper_J))
        assert sorted(d for _, d in mg) == [5, 5, 5, 6, 6, 6, 6, 6, 6]

    def test_degree_multiset_invariant_under_shuffle(self, paper_ring, paper_J):
        rng = random.Random(17)
        want = [5, 5, 5, 6, 6, 6, 6, 6, 6]
        for _ in range(4):
            shuffled = paper_J[:]
            rng.shuffle(shuffled)
            mg = minimal_generators(Ideal(paper_ring, shuffled))
            assert sorted(d for _, d in mg) == want

    def test_requires_homogeneous(self):
        R = GradedRing(("x", "y"), (1, 1))
        x, y = R.variable(0), R.variable(1)
        with pytest.raises(ValueError):
            minimal_generators(Ideal(R, [x + x * y]))

    @pytest.mark.parametrize("seed", range(8))
    def test_planted_redundancy(self, seed):
        # random generators plus a combination of them one degree up and a
        # rescaled duplicate, given in shuffled degree order; beta_1 from the
        # Koszul oracle is the independent count
        rng = random.Random(seed)
        R = GradedRing(("x", "y", "z"), (1, 1, 2))
        base = [_random_homogeneous(R, rng, rng.randint(2, 3)) for _ in range(3)]
        base = [g for g in base if not g.is_zero()]
        top = max(g.weighted_degree() for g in base) + 1
        combo = R.zero()
        for g in base:
            combo = combo + _random_homogeneous(R, rng, top - g.weighted_degree()) * g
        gens = base + [Fraction(-3, 2) * rng.choice(base)]
        if not combo.is_zero():
            gens.append(combo)
        rng.shuffle(gens)
        I = Ideal(R, gens)

        mg = minimal_generators(I)
        normalized = [str(g.normalize()) for g in gens]
        assert all(str(g) == str(g.normalize()) and str(g) in normalized for g, _ in mg)
        assert len(mg) < len(gens)
        degrees = [d for _, d in mg]
        assert degrees == sorted(degrees)
        assert [d for g, d in mg] == [g.weighted_degree() for g, _ in mg]
        beta1 = koszul_betti(buchberger(I), top).entries
        assert degrees == sorted(j for (i, j), b in beta1.items() if i == 1 for _ in range(b))
        assert ideals_equal(Ideal(R, [g for g, _ in mg]), I)


class TestHilbertSeries:
    def test_free_ring(self):
        R = GradedRing(("x",), (1,))
        hs = hilbert_series_quotient(Ideal(R, []))
        assert hs.numerator == {0: 1}
        assert hs.coefficients(4) == [1, 1, 1, 1, 1]

    def test_hypersurface(self):
        R = GradedRing(("x",), (1,))
        x = R.variable(0)
        hs = hilbert_series_quotient(Ideal(R, [x * x]))
        # numerator (1 - z^2) over (1 - z): counts 1, x
        assert hs.coefficients(5) == [1, 1, 0, 0, 0, 0]
        assert hs.equals(RationalSeries({0: 1, 1: 1}, ()))

    def test_non_homogeneous_rejected(self):
        R = GradedRing(("x", "y"), (1, 1))
        x, y = R.variable(0), R.variable(1)
        with pytest.raises(ValueError):
            hilbert_series_quotient(Ideal(R, [x + x * y]))

    def test_brute_force_dimensions_random(self):
        rng = random.Random(23)
        for trial in range(10):
            n = rng.randint(2, 3)
            R = GradedRing(tuple("xyz"[:n]), tuple(rng.randint(1, 2) for _ in range(n)))
            gens = [
                _random_homogeneous(R, rng, rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))
            ]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            I = Ideal(R, gens)
            hs = hilbert_series_quotient(I)
            coeffs = hs.coefficients(8)
            for e in range(9):
                monos = monomials_of_degree(R, e)
                index = {m: i for i, m in enumerate(monos)}
                ech = Echelon()
                for g in gens:
                    d = g.weighted_degree()
                    if d > e:
                        continue
                    for mult in monomials_of_degree(R, e - d):
                        vec = {
                            index[monomial_mul(m, mult)]: c
                            for m, c in g.terms.items()
                        }
                        ech.add(primitive(vec)[0])
                assert coeffs[e] == len(monos) - ech.rank, (trial, e)

    def test_series_equals_cross_multiplication(self):
        a = RationalSeries({0: 1, 2: -1}, (1,))
        b = RationalSeries({0: 1, 1: 1}, ())
        assert a.equals(b)
        assert not a.equals(RationalSeries({0: 1}, ()))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_series_equals_agrees_with_full_cross_multiplication(self, data):
        # a = N (1-t^A) / (1-t^S)(1-t^A) and b = N (1-t^B) / (1-t^S)(1-t^B)
        # are one series; shared, repeated and disjoint weights are drawn,
        # and b's numerator is sometimes perturbed
        weights = st.lists(st.integers(1, 4), max_size=3)
        shared, only_a, only_b = data.draw(weights), data.draw(weights), data.draw(weights)
        num = data.draw(st.dictionaries(st.integers(0, 6), st.integers(-3, 3)))
        num = {d: c for d, c in num.items() if c}

        def times(p, ws):
            p = dict(p)
            for w in ws:
                out = dict(p)
                for d, c in p.items():
                    out[d + w] = out.get(d + w, 0) - c
                p = {d: c for d, c in out.items() if c}
            return p

        a = RationalSeries(times(num, only_a), tuple(shared + only_a))
        b_num = times(num, only_b)
        if data.draw(st.booleans()):
            d = data.draw(st.integers(0, 8))
            b_num[d] = b_num.get(d, 0) + data.draw(st.sampled_from([-1, 1]))
            b_num = {d: c for d, c in b_num.items() if c}
        b = RationalSeries(b_num, tuple(only_b + shared))
        full = times(a.numerator, b.denominator_weights) == times(
            b.numerator, a.denominator_weights
        )
        assert a.equals(b) == full
        assert b.equals(a) == full


def _times_monomial(num, d):
    """N(m J) from N(J), deg m = d: m J is J shifted by d, so
    N(m J) = 1 - z^d (1 - N(J))."""
    out = {0: 1}
    for k, v in num.items():
        out[k + d] = out.get(k + d, 0) + v
    out[d] = out.get(d, 0) - 1
    return {k: v for k, v in out.items() if v}


class TestHilbertNumerator:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_counts_standard_monomials(self, data):
        # empty, unit and pure-power ideals among the drawn ones
        n = data.draw(st.integers(1, 4))
        weights = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
        R = GradedRing(tuple(f"x{i}" for i in range(n)), weights)
        expo = st.tuples(*(st.integers(0, 4) for _ in range(n)))
        power = st.builds(
            lambda i, k: tuple(k if j == i else 0 for j in range(n)),
            st.integers(0, n - 1),
            st.integers(0, 5),
        )
        gens = data.draw(st.lists(st.one_of(expo, power), max_size=7))
        top = 10
        got = RationalSeries(hilbert_numerator_monomial(gens, R), weights).coefficients(top)
        for e in range(top + 1):
            std = [
                m for m in monomials_of_degree(R, e)
                if not any(all(a <= b for a, b in zip(g, m)) for g in gens)
            ]
            assert got[e] == len(std), (gens, e)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_monomial_multiple(self, data):
        # exponents of m up to MAX_EXPONENT - 3
        n = data.draw(st.integers(1, 3))
        weights = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
        R = GradedRing(tuple(f"x{i}" for i in range(n)), weights)
        small = st.tuples(*(st.integers(0, 3) for _ in range(n)))
        J = data.draw(st.lists(small, min_size=1, max_size=5))
        m = data.draw(st.tuples(*(st.integers(0, MAX_EXPONENT - 3) for _ in range(n))))
        d = sum(a * w for a, w in zip(m, weights))
        got = hilbert_numerator_monomial([monomial_mul(m, g) for g in J], R)
        assert got == _times_monomial(hilbert_numerator_monomial(J, R), d)

    def test_high_shared_exponents(self):
        # x^4000 (y^2, x y) = x^4000 y (y, x)
        R = GradedRing(("x", "y"), (1, 1))
        got = hilbert_numerator_monomial([(4000, 2), (4001, 1)], R)
        assert got == {0: 1, 4002: -2, 4003: 1}
        # x^3000 y^2000 z^1000 (x, y, z)^2 in weights 1, 2, 3
        R3 = GradedRing(("x", "y", "z"), (1, 2, 3))
        square = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
        base = hilbert_numerator_monomial(square, R3)
        # standard monomials 1, x, y, z: (1 + z + z^2 + z^3)(1 - z)(1 - z^2)(1 - z^3)
        assert base == {0: 1, 2: -1, 3: -1, 4: -1, 5: 1, 6: 1, 7: 1, 9: -1}
        got = hilbert_numerator_monomial([monomial_mul((3000, 2000, 1000), g) for g in square], R3)
        assert got == _times_monomial(base, 3000 + 2 * 2000 + 3 * 1000)


class TestQuotientSeries:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_counts_standard_module_monomials(self, data):
        # monomial inputs over a free module of rank 2 or 3 with unequal
        # shifts; one position gets no input, so it keeps no lead
        n = data.draw(st.integers(1, 3))
        weights = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
        R = GradedRing(tuple(f"x{i}" for i in range(n)), weights)
        rank = data.draw(st.integers(2, 3))
        shifts = data.draw(st.lists(st.integers(0, 4), min_size=rank, max_size=rank, unique=True))
        bare = data.draw(st.integers(0, rank - 1))
        expo = st.tuples(*(st.integers(0, 3) for _ in range(n)))
        leads = [[] if pos == bare else data.draw(st.lists(expo, max_size=4)) for pos in range(rank)]
        top = data.draw(st.integers(0, 10))
        keyfn = base_keyfn(R).induced([(0, R.zero_exponent())] * rank)
        inputs = [{(pos, m): 1} for pos, monos in enumerate(leads) for m in monos]
        engine = BuchbergerEngine(R, inputs, shifts, keyfn).run(upto=top)
        got = engine.quotient_series().coefficients(top)
        for e in range(top + 1):
            want = sum(
                len(_standard_by_tuples(R, monos, e - s))
                for s, monos in zip(shifts, leads) if s <= e
            )
            assert got[e] == want, (leads, shifts, e)


class TestStandardMonomials:
    def test_counts_match_series(self, paper_ring, paper_J):
        I = Ideal(paper_ring, paper_J)
        gb = buchberger(I)
        hs = hilbert_series_quotient(I, gb=gb)
        coeffs = hs.coefficients(8)
        for e in range(9):
            assert len(standard_monomials(paper_ring, gb.leading_monomials(), e)) == coeffs[e]
