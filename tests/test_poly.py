"""Ring, order, and arithmetic tests for the polynomial layer."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2betti.poly import (
    MAX_EXPONENT,
    GradedRing,
    LEX,
    Polynomial,
    RingMismatchError,
    WEIGHTED,
    compare,
    elimination_order,
    format_polynomial,
    format_session,
    graded_monomials,
    monomial_mul,
    parse_header,
    parse_polynomial,
    parse_session,
)

PAPER_WEIGHTS = (3, 3, 2, 3, 2, 3, 3, 2, 2, 3)


def ring10():
    return GradedRing(tuple(f"x{i}" for i in range(1, 11)), PAPER_WEIGHTS)


class TestGradedRing:
    def test_validation(self):
        with pytest.raises(RingMismatchError):
            GradedRing(("x", "y"), (1,))
        with pytest.raises(RingMismatchError):
            GradedRing(("x", "x"), (1, 1))
        with pytest.raises(RingMismatchError):
            GradedRing(("x",), (0,))

    def test_empty_ring(self):
        R = GradedRing((), ())
        assert R.one().num_terms() == 1
        assert R.zero().is_zero()


class TestGradedMonomials:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        # every exponent vector in the box each variable's grade allows,
        # filtered by its grade: the same list, in the same order
        rows = data.draw(st.integers(1, 3))
        grade = st.tuples(*[st.integers(0, 3)] * rows).filter(any)
        grades = data.draw(st.lists(grade, max_size=5))
        target = data.draw(st.tuples(*[st.integers(0, 6)] * rows))
        box = [
            range(min(t // x for t, x in zip(target, g) if x) + 1) for g in grades
        ]
        want = sorted(
            alpha
            for alpha in itertools.product(*box)
            if all(
                sum(a * g[j] for a, g in zip(alpha, grades)) == target[j]
                for j in range(rows)
            )
        )
        assert graded_monomials(grades, target) == want

    def test_negative_target_is_empty(self):
        assert graded_monomials([(1, 0), (0, 1)], (2, -1)) == []
        assert graded_monomials([], (-1,)) == []

    @pytest.mark.parametrize(
        "grades, message",
        [
            ([(1, 0), (1,)], "length does not match"),
            ([(1, -1)], "nonnegative"),
            ([(1, 0), (0, 0)], "nonzero"),
        ],
    )
    def test_bad_grades_rejected(self, grades, message):
        with pytest.raises(ValueError, match=message):
            graded_monomials(grades, (2, 2))


class TestWeightedDegree:
    def test_zero_exponent(self):
        R = ring10()
        assert R.weighted_degree(R.zero_exponent()) == 0

    def test_paper_weights_x5_x8(self):
        # x5 and x8 both carry weight 2 under the published weight line
        R = ring10()
        m = [0] * 10
        m[4] = 1
        m[7] = 1
        assert R.weighted_degree(tuple(m)) == 4

    def test_paper_weights_x2_x4_x8(self):
        R = ring10()
        m = [0] * 10
        m[1] = 1
        m[3] = 1
        m[7] = 1
        assert R.weighted_degree(tuple(m)) == 8

    def test_length_mismatch(self):
        R = ring10()
        with pytest.raises(RingMismatchError):
            R.weighted_degree((1, 0))


class TestCompare:
    def test_reflexive(self):
        R = GradedRing(("x", "y"), (1, 1))
        assert compare(WEIGHTED, R, (1, 1), (1, 1)) == 0

    def test_degrevlex_tie(self):
        R = GradedRing(("x", "y"), (1, 1))
        assert compare(WEIGHTED, R, (2, 0), (1, 1)) == 1  # x^2 > xy

    def test_weight_dominates(self):
        R = GradedRing(("x", "y"), (2, 3))
        assert compare(WEIGHTED, R, (2, 0), (0, 1)) == 1  # deg 4 beats deg 3

    def test_elimination_front_block(self):
        R = GradedRing(("t", "x"), (1, 5))
        order = elimination_order(1)
        # any power of t beats any monomial in x alone
        assert compare(order, R, (1, 0), (0, 3)) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_total_multiplicative_order(self, data):
        R = GradedRing(("x", "y", "z"), (1, 2, 1))
        mono = st.tuples(*(st.integers(0, 4) for _ in range(3)))
        a, b, c = data.draw(mono), data.draw(mono), data.draw(mono)
        for order in (WEIGHTED, LEX, elimination_order(1)):
            ca, cb = compare(order, R, a, b), compare(order, R, b, c)
            if ca > 0 and cb > 0:
                assert compare(order, R, a, c) > 0
            if ca != 0:
                # multiplicative: scaling by c preserves strict comparisons
                assert compare(order, R, monomial_mul(a, c), monomial_mul(b, c)) == ca

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(st.integers(0, 5), st.integers(0, 5)))
    def test_one_is_minimal(self, m):
        R = GradedRing(("x", "y"), (1, 3))
        if any(m):
            assert compare(WEIGHTED, R, m, (0, 0)) == 1


def small_polys(ring, data, nterms=4, cmax=5, emax=3):
    terms = {}
    for _ in range(data.draw(st.integers(0, nterms))):
        mono = tuple(
            data.draw(st.integers(0, emax)) for _ in range(ring.nvars)
        )
        terms[mono] = Fraction(
            data.draw(st.integers(-cmax, cmax)), data.draw(st.integers(1, 3))
        )
    return Polynomial(ring, terms)


class TestArithmetic:
    def test_multiply_by_one_and_zero(self):
        R = GradedRing(("x", "y"), (1, 1))
        x, y = R.variable(0), R.variable(1)
        p = 3 * x * y - y * y
        assert p * R.one() == p
        assert (p * R.zero()).is_zero()

    def test_difference_of_squares(self):
        R = GradedRing(("x", "y"), (1, 1))
        x, y = R.variable(0), R.variable(1)
        assert (x - y) * (x + y) == x * x - y * y

    def test_ring_mismatch(self):
        R1 = GradedRing(("x",), (1,))
        R2 = GradedRing(("y",), (1,))
        with pytest.raises(RingMismatchError):
            R1.variable(0) * R2.variable(0)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_ring_axioms(self, data):
        R = GradedRing(("x", "y"), (1, 2))
        p = small_polys(R, data)
        q = small_polys(R, data)
        r = small_polys(R, data)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_degree_additive_on_monomials(self, data):
        R = GradedRing(("x", "y", "z"), (2, 1, 3))
        mono = st.tuples(*(st.integers(0, 4) for _ in range(3)))
        a, b = data.draw(mono), data.draw(mono)
        assert R.weighted_degree(monomial_mul(a, b)) == (
            R.weighted_degree(a) + R.weighted_degree(b)
        )


class TestNormalize:
    def test_content_removal(self):
        R = GradedRing(("x", "y"), (1, 1))
        x, y = R.variable(0), R.variable(1)
        assert (2 * x - 2 * y).normalize() == x - y

    def test_sign_convention(self):
        R = GradedRing(("x", "y"), (1, 1))
        x, y = R.variable(0), R.variable(1)
        assert (-x + y).normalize() == x - y  # leading monomial is x

    def test_rational_content(self):
        R = GradedRing(("x",), (1,))
        x = R.variable(0)
        assert (Fraction(3, 2) * (x * x)).normalize() == x * x

    def test_zero_signal(self):
        R = GradedRing(("x",), (1,))
        z = R.zero().normalize()
        assert z.is_zero()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_idempotent_and_scale_invariant(self, data):
        R = GradedRing(("x", "y"), (1, 2))
        p = small_polys(R, data)
        if p.is_zero():
            return
        lam = Fraction(
            data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        ) * data.draw(st.sampled_from([1, -1]))
        n = p.normalize()
        assert n.normalize() == n
        assert (lam * p).normalize() == n


class TestGrammar:
    def test_parse_term_forms(self):
        R = GradedRing(("x1", "x2"), (1, 1))
        p = parse_polynomial("-1/2*x1^2*x2 + x2 - 3", R)
        assert p.terms[(2, 1)] == Fraction(-1, 2)
        assert p.terms[(0, 1)] == 1
        assert p.terms[(0, 0)] == -3

    def test_whitespace_and_caret_one(self):
        R = GradedRing(("x", "y"), (1, 1))
        assert parse_polynomial(" x ^1 * y - y ", R) == parse_polynomial("x*y - y", R)

    def test_header(self):
        ring, order = parse_header("ring a b c ; weights 2 3 4 ; order weighted ;")
        assert ring.names == ("a", "b", "c")
        assert ring.weights == (2, 3, 4)
        assert order is WEIGHTED

    def test_header_block_order(self):
        _, order = parse_header("ring a b ; weights 1 1 ; order block 1 ;")
        assert order.kind == "block" and order.block == 1

    @pytest.mark.parametrize("text, head", [
        ("ring x y ; weights 1 1 ; weights 2 3 ;", "weights"),
        ("ring x y ; order lex ; order weighted ;", "order"),
        ("ring x y ; ring x y z ;", "ring"),
    ])
    def test_header_repeated_clause_rejected(self, text, head):
        # a later clause would silently replace the earlier one
        with pytest.raises(ValueError, match=f"repeated header clause '{head}'"):
            parse_header(text)

    def test_exponent_notation_rejected(self):
        # Fraction("1e999999999") would build a billion-digit integer
        R = GradedRing(("x",), (1,))
        with pytest.raises(ValueError, match="exponent notation"):
            parse_polynomial("1e999999999*x", R)

    def test_unknown_variable(self):
        R = GradedRing(("x",), (1,))
        with pytest.raises(ValueError):
            parse_polynomial("x + q", R)

    # the grammar fuzzing reaches these rejections only when it draws them
    def test_dangling_sign_rejected(self):
        R = GradedRing(("x", "y"), (1, 1))
        with pytest.raises(ValueError, match="dangling sign"):
            parse_polynomial("x + - y", R)

    @pytest.mark.parametrize("text, message", [
        ("ring x y ; order ;", "order clause needs a kind"),
        ("ring x y ; order sideways ;", "unknown order kind 'sideways'"),
        ("ring x y ; grading 1 1 ;", "unknown header clause 'grading'"),
    ])
    def test_header_bad_clause_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_header(text)

    def test_session_round_trip(self):
        R = GradedRing(("x1", "x2", "x3"), (2, 2, 3))
        polys = [
            parse_polynomial("x1*x3 - 2*x2*x3", R),
            parse_polynomial("-1/3*x1^2 + x2^2", R),
        ]
        text = format_session(R, WEIGHTED, polys)
        R2, order2, polys2 = parse_session(text)
        assert R2 == R and polys2 == polys

    @pytest.mark.parametrize("terms, text", [
        ({(1, 0): 1, (0, 1): -1}, "x - y"),
        ({(1, 0): -1, (0, 1): 1}, "-x + y"),
        ({(2, 0): -3, (1, 1): 4}, "-3*x^2 + 4*x*y"),
        ({(1, 1): 1, (0, 0): -7}, "x*y - 7"),
        ({(0, 0): 5}, "5"),
    ])
    def test_int_coefficients_print_like_fractions(self, terms, text):
        # normalized polynomials hold ints, parsed ones Fractions
        R = GradedRing(("x", "y"), (1, 1))
        ints = Polynomial._raw(R, dict(terms))
        fracs = Polynomial(R, {m: Fraction(c) for m, c in terms.items()})
        assert all(type(c) is int for c in ints.terms.values())
        assert all(type(c) is Fraction for c in fracs.terms.values())
        assert format_polynomial(ints) == format_polynomial(fracs) == text
        assert format_session(R, WEIGHTED, [ints]) == format_session(R, WEIGHTED, [fracs])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_format_parse_round_trip(self, data):
        R = GradedRing(("x", "y", "zz"), (1, 2, 1))
        p = small_polys(R, data)
        if p.is_zero():
            return
        assert parse_polynomial(format_polynomial(p), R) == p


class TestGrammarFuzz:
    """Any text either parses or raises ValueError, promptly."""

    R = GradedRing(("x", "y"), (1, 2))
    _alphabet = st.sampled_from(list("xyz0123456789^*/+-.eE_ ;#\n\t") + ["ring", "weights", "order", "block"])

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.text(max_size=40), st.lists(_alphabet, max_size=20).map("".join)))
    def test_arbitrary_text(self, text):
        for parse in (lambda t: parse_polynomial(t, self.R), parse_session):
            try:
                parse(text)
            except ValueError:
                pass

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.text("0123456789", min_size=1, max_size=30), min_size=1, max_size=3),
        st.sampled_from(["", "2*", "-1/3*"]),
    )
    def test_exponent_terms(self, digits, coeff):
        text = coeff + "*".join(f"x^{d}" for d in digits)
        total = sum(int(d) for d in digits)
        if total > MAX_EXPONENT:
            with pytest.raises(ValueError, match="exceeds"):
                parse_polynomial(text, self.R)
            with pytest.raises(ValueError, match="exceeds"):
                parse_session("ring x y ;\n" + text + "\n")
        else:
            assert parse_polynomial(text, self.R).terms == {
                (total, 0): Fraction(coeff[:-1] or 1)
            }
