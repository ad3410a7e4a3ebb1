"""Resolutions, Schreyer syzygies, minimization, Betti tables, Koszul oracle."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from sl2betti import groebner, resolution
from sl2betti.cases import BY_LABEL
from sl2betti.groebner import (
    BuchbergerEngine,
    GroebnerBasis,
    Ideal,
    RationalSeries,
    base_keyfn,
    buchberger,
    hilbert_series_quotient,
    minimal_generators,
    monomials_of_degree,
)
from sl2betti.invariants import ProblemSpec, minimal_invariant_generators
from sl2betti.linalg import Echelon, primitive
from sl2betti.poly import LEX, WEIGHTED, GradedRing, Polynomial, monomial_mul
from sl2betti.presentation import present
from sl2betti.resolution import (
    FreeModule,
    Resolution,
    _NormalFormTable,
    _koszul_complex,
    _set_to_zero,
    _strand_homology,
    _without,
    betti,
    format_resolution,
    koszul_betti,
    minimize,
    regular_variables,
    resolve,
    verify_complex,
)
from conftest import WORKED_BETTI, tuple_weighted_key


def minimal_ideal(ring, gens):
    mg = minimal_generators(Ideal(ring, gens))
    return Ideal(ring, [g for g, _ in mg])


def column(entries):
    """The column {(row, exponent): coefficient} of polynomial entries {row: p}."""
    return {
        (r, m): int(c) if c.denominator == 1 else c
        for r, p in entries.items()
        for m, c in p.terms.items()
    }


def entries(ring, col):
    """Column col as polynomial entries {row: p}."""
    rows = {}
    for (r, m), c in col.items():
        rows.setdefault(r, {})[m] = Fraction(c)
    return {r: Polynomial(ring, terms) for r, terms in rows.items()}


@pytest.fixture(scope="module")
def worked_resolution(paper_ring, paper_J):
    I = minimal_ideal(paper_ring, paper_J)
    return resolve(I)


class TestModuleGroebner:
    def test_rank_one_matches_ideal_basis(self):
        # the engine as resolve runs it on level 1 (syzygy traces on) finds
        # the same reduced basis as the ideal-level buchberger
        R = GradedRing(("x", "y"), (1, 1))
        x, y = R.variable(0), R.variable(1)
        gens = [x * x - y * y, x * y]
        engine = BuchbergerEngine(
            R,
            [{(0, m): c for m, c in g.terms.items()} for g in gens],
            [0],
            base_keyfn(R),
            want_syzygies=True,
        )
        basis = engine.run().basis
        ideal_gb = buchberger(Ideal(R, gens))
        assert sorted(
            str(Polynomial(R, {mm[1]: c for mm, c in engine.keyfn.decode_vec(vec).items()}))
            for vec in basis
        ) == sorted(str(g) for g in ideal_gb.elements)

    def test_unit_vectors_no_pairs(self):
        # leads in different positions never form an S-pair
        R = GradedRing(("x",), (1,))
        engine = BuchbergerEngine(
            R,
            [{(0, (0,)): 1}, {(1, (0,)): 1}],
            [0, 0],
            base_keyfn(R).induced([(0, R.zero_exponent())] * 2),
            want_syzygies=True,
        )
        result = engine.run()
        assert len(result.basis) == 2
        assert result.syzygies == [] and result.input_traces == []


class TestSyzygies:
    def test_koszul_pair(self):
        R = GradedRing(("x", "y"), (1, 1))
        x, y = R.variable(0), R.variable(1)
        res = resolve(Ideal(R, [x, y]))
        assert res.modules[2].shifts == (2,)
        # the single second syzygy is (y, -x) up to sign
        col = entries(R, res.differential(2)[0])
        comps = [str(col[r]) for r in (0, 1)]
        assert comps in (["y", "-x"], ["-y", "x"])

    def test_single_element_domain(self):
        R = GradedRing(("x",), (1,))
        res = resolve(Ideal(R, [R.variable(0)]))
        assert res.length == 1

    def test_monomial_triple(self):
        # (yz, xz, xy): two minimal syzygies, both of shift 3
        R = GradedRing(("x", "y", "z"), (1, 1, 1))
        x, y, z = (R.variable(i) for i in range(3))
        I = Ideal(R, [y * z, x * z, x * y])
        res = minimize(resolve(I))
        assert res.modules[2].shifts == (3, 3)
        # brute-force kernel dimension at degree 3 confirms two syzygies
        assert betti(res).entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}

    def test_syzygies_generate_kernel(self):
        # every emitted syzygy maps to zero and together they generate the
        # kernel, in both the level-minimal and the raw Schreyer mode
        R = GradedRing(("x", "y", "z"), (1, 1, 1))
        x, y, z = (R.variable(i) for i in range(3))
        I = Ideal(R, [x * x - y * z, x * y, z * z - x * x])
        assert verify_complex(resolve(I), 8).ok
        assert verify_complex(resolve(I, minimalize_levels=False), 8).ok


def _nested_schreyer_key(prev_keyfn, tags):
    """Reference Schreyer order: one composition with the previous level's key."""

    def key(mm):
        pos, m = mm
        tpos, tmono = tags[pos]
        return prev_keyfn((tpos, monomial_mul(tmono, m))) + (-pos,)

    return key


class TestSchreyerKey:
    def test_flat_key_matches_nested_composition(self, paper_ring, paper_J):
        # every level of the worked example's resolution: the flat int key is
        # injective and sorts exactly like the nested composition of tuple
        # keys, on the columns' monomials and on their products with every
        # variable
        R = paper_ring
        res = resolve(minimal_ideal(R, paper_J))
        assert res.length == 4
        flat = base_keyfn(R)
        ring_key = tuple_weighted_key(R.weights)
        nested = lambda mm: ring_key(mm[1])
        variables = [tuple(int(k == v) for k in range(R.nvars)) for v in range(R.nvars)]
        for i in range(1, res.length + 1):
            columns = res.differential(i)
            monos = {mm for col in columns for mm in col}
            monos |= {(pos, monomial_mul(m, v)) for pos, m in monos for v in variables}
            monos = sorted(monos)
            assert len({flat(mm) for mm in monos}) == len(monos)
            assert all(flat.decode(flat(mm)) == mm for mm in monos)
            assert sorted(monos, key=flat) == sorted(monos, key=nested)
            tags = [max(col, key=flat) for col in columns]
            assert tags == [max(col, key=nested) for col in columns]
            flat = flat.induced(tags)
            nested = _nested_schreyer_key(nested, tags)


class TestResolve:
    def test_zero_ideal(self):
        R = GradedRing(("x",), (1,))
        res = resolve(Ideal(R, []))
        assert res.length == 0
        assert betti(res).entries == {(0, 0): 1}

    def test_principal_ideal(self):
        R = GradedRing(("x", "y"), (1, 1))
        x, y = R.variable(0), R.variable(1)
        res = minimize(resolve(Ideal(R, [x * y * y - x * x * y])))
        assert res.length == 1
        assert res.modules[1].shifts == (3,)

    def test_principal_degree_twelve(self):
        # hypersurface relation in weighted degree 12
        R = GradedRing(("a", "b"), (4, 6))
        a, b = R.variable(0), R.variable(1)
        res = minimize(resolve(Ideal(R, [a ** 3 - b ** 2])))
        assert res.length == 1 and res.modules[1].shifts == (12,)

    def test_worked_case_shape(self, worked_resolution):
        shapes = [sorted(Counter(m.shifts).items()) for m in worked_resolution.modules]
        assert shapes == [
            [(0, 1)],
            [(5, 3), (6, 6)],
            [(8, 8), (9, 8)],
            [(11, 6), (12, 3)],
            [(17, 1)],
        ]

    def test_non_minimal_input_flagged(self, paper_ring, paper_J):
        # the redundant generators of J are dropped from F_1
        res = resolve(Ideal(paper_ring, paper_J))
        assert res.modules[1].rank < len(paper_J)
        assert betti(minimize(res)).entries == WORKED_BETTI

    def test_columns_are_primitive_integer_vectors(self, paper_ring, paper_J):
        # resolve stores the engine's vectors as they are: integer columns
        # with content 1, in both modes
        I = minimal_ideal(paper_ring, paper_J)
        for res in (resolve(I), resolve(I, minimalize_levels=False)):
            for d in res.differentials:
                for col in d:
                    assert col and all(type(a) is int for a in col.values())
                    assert primitive(col)[0] == col

    def test_length_bound(self):
        rng = random.Random(31)
        for _ in range(8):
            n = rng.randint(2, 4)
            R = GradedRing(tuple("xyzw"[:n]), (1,) * n)
            monos = monomials_of_degree(R, 2)
            gens = []
            for _ in range(rng.randint(1, 4)):
                terms = {}
                for m in monos:
                    if rng.random() < 0.3:
                        terms[m] = Fraction(rng.randint(-2, 2))
                p = Polynomial(R, terms)
                if not p.is_zero():
                    gens.append(p)
            if not gens:
                continue
            I = minimal_ideal(R, gens)
            if not I.generators:
                continue
            res = minimize(resolve(I))
            assert res.length <= R.nvars


def _random_form(R, rng, degree):
    """A nonzero form of the given degree with small integer coefficients."""
    monos = monomials_of_degree(R, degree)
    while True:
        p = Polynomial(R, {m: Fraction(rng.randint(-2, 2)) for m in monos})
        if not p.is_zero():
            return p


def _entangled_pair(res, level, seed, unit=1):
    """res with a trivial pair R(-s) --unit--> R(-s) added from F_{level+1}
    to F_level, then conjugated by elementary graded automorphisms of both
    modules that mix the pair's generators into the others and back.

    Conjugation keeps a complex a complex with the same homology, so the
    output minimizes to res's Betti table.  An automorphism e_b -> e_b + g e_a
    of F_j is a row operation on d_{j+1} and the inverse column operation
    on d_j.
    """
    R = res.ring
    rng = random.Random(seed)
    shifts = [list(m.shifts) for m in res.modules]
    diffs = [{c: entries(R, col) for c, col in enumerate(d)} for d in res.differentials]
    s = rng.choice(sorted(set(shifts[level] + shifts[level + 1])))
    diffs[level][len(shifts[level + 1])] = {len(shifts[level]): R.constant(unit)}
    shifts[level].append(s)
    shifts[level + 1].append(s)

    def elementary(j, a, b, g):
        if j < len(diffs):
            for col in diffs[j].values():
                if b in col:
                    col[a] = col.get(a, R.zero()) + g * col[b]
        lower = diffs[j - 1]
        if a in lower:
            col_b = lower.setdefault(b, {})
            for r, p in lower[a].items():
                col_b[r] = col_b.get(r, R.zero()) - g * p
        for d in diffs[j - 1: j + 1]:
            for c in list(d):
                d[c] = {r: p for r, p in d[c].items() if not p.is_zero()}
                if not d[c]:
                    del d[c]

    for j in (level, level + 1):
        new = len(shifts[j]) - 1
        for _ in range(3):
            for a, b in ((new, rng.randrange(new)), (rng.randrange(new), new)):
                if shifts[j][b] >= shifts[j][a]:
                    elementary(j, a, b, _random_form(R, rng, shifts[j][b] - shifts[j][a]))
    columns = [
        [column(d.get(c, {})) for c in range(len(shifts[i + 1]))]
        for i, d in enumerate(diffs)
    ]
    return Resolution(R, [FreeModule(tuple(sh)) for sh in shifts], columns)


class TestMinimize:
    def test_entangled_pair_cancels(self):
        # a unit whose row and column carry other entries: its cancellation
        # must leave the neighbouring differentials a complex, minus one row
        # and one column
        R = GradedRing(("x", "y", "z"), (1, 1, 1))
        x, y, z = (R.variable(i) for i in range(3))
        for gens in ([x * y - z * z, y * y, x * z], [x * x, y * y, z * z, x * y * z]):
            res = resolve(Ideal(R, gens))
            want = betti(res).entries
            for level in (1, 2):
                for seed in range(6):
                    junk = _entangled_pair(res, level, seed)
                    assert verify_complex(junk, 7).ok
                    mn = minimize(junk)
                    assert mn.is_minimal()
                    assert betti(mn).entries == want
                    assert verify_complex(mn, 7).ok

    def test_unit_two_cancels_over_the_rationals(self):
        # the junk pair's unit is 2: the Schur complement divides by it and
        # leaves Fraction coefficients, and the complex still minimizes to
        # the table of the resolution
        R = GradedRing(("x", "y", "z"), (1, 1, 1))
        x, y, z = (R.variable(i) for i in range(3))
        res = resolve(Ideal(R, [x * y - z * z, y * y, x * z]))
        want = betti(res).entries
        rational = 0
        for level in (1, 2):
            for seed in range(4):
                junk = _entangled_pair(res, level, seed, unit=2)
                assert verify_complex(junk, 7).ok
                mn = minimize(junk)
                assert betti(mn).entries == want
                assert verify_complex(mn, 7).ok
                rational += any(
                    type(a) is Fraction for d in mn.differentials for col in d for a in col.values()
                )
        assert rational

    def test_fixpoint_on_minimal(self, worked_resolution):
        again = minimize(worked_resolution)
        assert [m.shifts for m in again.modules] == [
            m.shifts for m in worked_resolution.modules
        ]

    def test_level_minimal_resolve_unchanged(self, worked_resolution):
        # the pipeline skips minimize because resolve is already minimal
        assert worked_resolution.is_minimal()
        assert format_resolution(minimize(worked_resolution)) == format_resolution(
            worked_resolution
        )

    def test_trivial_complex_cancels(self):
        # R(-3) --1--> R(-3) appended as a junk pair to a principal resolution
        R = GradedRing(("x",), (1,))
        x = R.variable(0)
        modules = [
            FreeModule((0,)),
            FreeModule((2, 3)),
            FreeModule((3,)),
        ]
        d1 = [column({0: x * x}), column({0: x * x * x})]
        d2 = [column({1: R.one()})]
        res = Resolution(R, modules, [d1, d2])
        mn = minimize(res)
        assert mn.length == 1
        assert mn.modules[1].shifts == (2,)
        assert betti(mn).entries == {(0, 0): 1, (1, 2): 1}

    def test_raw_schreyer_minimizes_to_published_shape(self, paper_ring, paper_J):
        I = minimal_ideal(paper_ring, paper_J)
        raw = resolve(I, minimalize_levels=False)
        assert any(
            mod.rank > want
            for mod, want in zip(raw.modules[1:], (9, 16, 9, 1))
        )
        mn = minimize(raw)
        assert [m.rank for m in mn.modules] == [1, 9, 16, 9, 1]
        assert betti(mn).entries == WORKED_BETTI

    def test_order_independence(self, paper_ring, paper_J):
        # criterion: random cancellation orders give identical Betti tables
        I = minimal_ideal(paper_ring, paper_J)
        raw = resolve(I, minimalize_levels=False)
        want = betti(minimize(raw)).entries
        for seed in range(20):
            rng = random.Random(seed)
            assert betti(minimize(raw, rng=rng)).entries == want

    def test_homology_preserved(self):
        # minimization keeps the complex a complex and keeps it exact
        R = GradedRing(("x", "y", "z"), (1, 1, 1))
        x, y, z = (R.variable(i) for i in range(3))
        I = minimal_ideal(R, [x * y - z * z, y * y, x * z])
        raw = resolve(I, minimalize_levels=False)
        mn = minimize(raw)
        assert verify_complex(mn, 8).ok


class TestBetti:
    def test_rejects_non_minimal(self):
        R = GradedRing(("x",), (1,))
        x = R.variable(0)
        modules = [FreeModule((0,)), FreeModule((0,))]
        res = Resolution(R, modules, [[column({0: R.one()})]])
        with pytest.raises(ValueError):
            betti(res)

    def test_worked_case(self, worked_resolution):
        t = betti(worked_resolution)
        assert t.entries == WORKED_BETTI
        assert t.length == 4 and t.j_star == 17

    def test_zero_ideal(self):
        R = GradedRing(("x",), (1,))
        t = betti(resolve(Ideal(R, [])))
        assert t.entries == {(0, 0): 1} and t.length == 0 and t.j_star == 0


class TestKoszulOracle:
    def test_hypersurface(self):
        R = GradedRing(("x",), (1,))
        x = R.variable(0)
        t = koszul_betti(buchberger(Ideal(R, [x * x])), 4)
        assert t.entries == {(0, 0): 1, (1, 2): 1}

    def test_two_monomials(self):
        R = GradedRing(("x", "y", "z"), (1, 1, 1))
        x, y, z = (R.variable(i) for i in range(3))
        t = koszul_betti(buchberger(Ideal(R, [x * y, x * z])), 4)
        assert t.entries == {(0, 0): 1, (1, 2): 2, (2, 3): 1}

    def test_inhomogeneous_basis_rejected(self):
        R = GradedRing(("x", "y"), (1, 1))
        x, y = R.variable(0), R.variable(1)
        with pytest.raises(ValueError, match="koszul_betti requires a homogeneous basis"):
            koszul_betti(GroebnerBasis(R, WEIGHTED, [x + x * y]), 2)

    def test_worked_case_full_range(self, paper_ring, paper_J, worked_resolution, monkeypatch):
        # the strands are built modulo x1, x2, x7, x8, a regular sequence on
        # R/J, and a strand rank stops growing at dim ker d_{i-1}: 4,016
        # columns against the 144,218 of the full loop over all ten
        # variables, and the table is unchanged
        red = regular_variables(Ideal(paper_ring, paper_J))
        assert red.kept == (0, 1, 6, 7)
        adds = []
        add = Echelon.add
        monkeypatch.setattr(Echelon, "add", lambda self, vec: adds.append(1) or add(self, vec))
        t = koszul_betti(red.basis, 17)
        assert t.entries == WORKED_BETTI
        assert len(adds) <= 4016

    def test_oracle_equivalence_random(self):
        rng = random.Random(41)
        for trial in range(15):
            n = rng.randint(2, 4)
            R = GradedRing(tuple("xyzw"[:n]), (1,) * n)
            gens = []
            for _ in range(rng.randint(1, 4)):
                d = rng.randint(1, 3)
                monos = monomials_of_degree(R, d)
                terms = {}
                for m in monos:
                    if rng.random() < 0.4:
                        terms[m] = Fraction(rng.randint(-3, 3))
                p = Polynomial(R, terms)
                if not p.is_zero():
                    gens.append(p)
            if not gens:
                continue
            I_raw = Ideal(R, gens)
            I = minimal_ideal(R, gens)
            if not I.generators:
                continue
            t = betti(minimize(resolve(I)))
            k = koszul_betti(buchberger(I_raw), t.j_star)
            assert t.entries == k.entries, (trial, [str(g) for g in gens])


class TestKoszulComplex:
    """K(x) over weights (1, 2, 3) resolves the residue field, so both
    certificates have a known answer on it."""

    R = GradedRing(("x", "y", "z"), (1, 2, 3))
    # beta_{i,j}(k) = the number of i-subsets of the weights summing to j
    SUBSETS = Counter(
        (len(S), sum(w for _, w in S))
        for i in range(4)
        for S in combinations(enumerate((1, 2, 3)), i)
    )

    def test_shape(self):
        K = _koszul_complex(self.R)
        assert [m.shifts for m in K.modules] == [(0,), (1, 2, 3), (3, 4, 5), (6,)]
        assert K.is_minimal() and betti(K).entries == dict(self.SUBSETS)
        # d(e_xyz) = z e_xy - y e_xz + x e_yz, as a signed unit column
        d3 = K.differential(3)
        assert d3 == [{(0, (0, 0, 1)): 1, (1, (0, 1, 0)): -1, (2, (1, 0, 0)): 1}]
        assert all(type(a) is int for a in d3[0].values())

    def test_exact(self):
        rep = verify_complex(_koszul_complex(self.R), 8)
        assert rep.ok, rep.message

    def test_oracle_on_the_ring_is_free(self):
        # K(x) (x) R has homology k in degree 0: R is free over itself
        t = koszul_betti(GroebnerBasis(self.R, WEIGHTED, []), 8)
        assert t.entries == {(0, 0): 1}

    def test_oracle_on_the_residue_field(self):
        # K(x) (x) R/(x, y, z) has zero differentials
        gens = [self.R.variable(t) for t in range(3)]
        t = koszul_betti(GroebnerBasis(self.R, WEIGHTED, gens), 8)
        assert t.entries == dict(self.SUBSETS)

    def test_no_variables(self):
        K = _koszul_complex(GradedRing((), ()))
        assert K.length == 0 and verify_complex(K, 3).ok


class TestRegularVariables:
    def test_product_keeps_no_variable(self):
        R = GradedRing(("x", "y"), (1, 1))
        x, y = R.variable(0), R.variable(1)
        red = regular_variables(Ideal(R, [x * y]))
        assert red.kept == () and red.ideal.ring == R

    def test_product_keeps_free_variable(self):
        R = GradedRing(("x", "y", "z"), (1, 1, 1))
        x, y = R.variable(0), R.variable(1)
        red = regular_variables(Ideal(R, [x * y]))
        assert red.kept == (2,)
        assert red.ideal.ring == GradedRing(("x", "y"), (1, 1))

    def test_square_keeps_other_variable(self):
        R = GradedRing(("x", "y"), (1, 1))
        x = R.variable(0)
        red = regular_variables(Ideal(R, [x * x]))
        assert red.kept == (1,)
        assert [str(g) for g in red.ideal.generators] == ["x^2"]

    def test_non_homogeneous_rejected_before_any_basis(self, monkeypatch):
        def no_basis(*args, **kwargs):
            raise AssertionError("a Groebner basis was computed")

        monkeypatch.setattr("sl2betti.resolution.buchberger", no_basis)
        R = GradedRing(("x", "y"), (1, 1))
        x, y = R.variable(0), R.variable(1)
        with pytest.raises(ValueError, match="regular_variables requires a homogeneous"):
            regular_variables(Ideal(R, [x + x * y]))

    def test_basis_of_another_order_rejected(self):
        R = GradedRing(("x", "y"), (1, 2))
        x, y = R.variable(0), R.variable(1)
        I = Ideal(R, [x * x * y + y * y])
        with pytest.raises(ValueError, match="weighted-order basis"):
            regular_variables(I, buchberger(I, LEX))
        other = GradedRing(("x", "z"), (1, 2))
        with pytest.raises(ValueError, match="weighted-order basis"):
            regular_variables(I, GroebnerBasis(other, WEIGHTED, []))

    def test_padded_random_ideals(self):
        # variables the generators do not use are regular on R/I wherever
        # they sit, and the oracle over the reduced ideal still gives the
        # table of resolve
        rng = random.Random(77)
        done = 0
        while done < 12:
            n = rng.randint(2, 4)
            width = n + rng.randint(1, 2)
            used = sorted(rng.sample(range(width), n))
            R = GradedRing(
                tuple(f"x{v}" for v in range(width)),
                tuple(1 if v in used else rng.randint(1, 3) for v in range(width)),
            )
            small = GradedRing(tuple(f"x{v}" for v in used), (1,) * n)
            gens = []
            for _ in range(rng.randint(1, 3)):
                terms = {}
                for m in monomials_of_degree(small, rng.randint(1, 3)):
                    if rng.random() < 0.4:
                        e = [0] * width
                        for v, k in zip(used, m):
                            e[v] = k
                        terms[tuple(e)] = Fraction(rng.randint(-3, 3))
                p = Polynomial(R, terms)
                if not p.is_zero():
                    gens.append(p)
            if not gens:
                continue
            I = minimal_ideal(R, gens)
            red = regular_variables(I)
            assert set(range(width)) - set(used) <= set(red.kept), (red.kept, used)
            assert regular_variables(I, buchberger(I)) == red
            # a variable rejected once stays a zero-divisor modulo the kept ones
            assert regular_variables(red.ideal).kept == ()
            t = betti(minimize(resolve(I)))
            assert koszul_betti(red.basis, t.j_star).entries == t.entries
            done += 1

    def test_catalog_reduced_ideal_keeps_no_variable(self):
        # x_v is rejected only as a zero-divisor on R/(I + the variables kept
        # before it); the variables kept after it are regular there, and a
        # zero-divisor on a graded module M stays one on M/yM for y regular
        # of positive degree (take m of least degree with xm = 0: m = ym'
        # would give xm' = 0 in lower degree), so the reduced ideal has no
        # regular variable left
        for label in ("3V1+V2", "5V1", "4V2", "V1+3V2", "V3+V3"):
            rec = BY_LABEL[label]
            spec = ProblemSpec(rec.degrees, rec.bound)
            _, I, info = present(spec, genset=minimal_invariant_generators(spec), horizon=rec.horizon)
            red = regular_variables(I, info.basis)
            assert regular_variables(red.ideal, red.basis).kept == (), label


def _trial_only(I):
    """`regular_variables` without the leading-term shortcut: a Groebner
    basis and a Hilbert trial for every variable.  Returns the kept tuple,
    the reduced basis and the kept variables the shortcut would have taken,
    after checking their Hilbert identity."""
    kept, gb = [], buchberger(I)
    series = hilbert_series_quotient(I, gb=gb)
    shortcut = []
    for v in range(I.ring.nvars):
        target, rest = _without(I.ring, kept + [v])
        trial = Ideal(target, [_set_to_zero(g, target, rest) for g in I.generators])
        trial_gb = buchberger(trial)
        got = hilbert_series_quotient(trial, gb=trial_gb)
        regular = got.equals(RationalSeries(series.numerator, target.weights))
        if not any(m[v - len(kept)] for m in gb.leading_monomials()):
            assert regular, f"shortcut would keep x_{v}, which is not regular"
            shortcut.append(v)
        if regular:
            kept.append(v)
            gb, series = trial_gb, got
    return tuple(kept), gb, shortcut


class TestRegularVariableShortcut:
    @pytest.mark.parametrize("label", ["3V1+V2", "5V1", "V3+V3", "V4+V4", "4V2"])
    def test_matches_trial_only_path(self, label, monkeypatch):
        # a variable absent from the leading monomials is kept without a
        # basis of its own, and the kept tuple and the reduced basis are
        # those of a Hilbert trial for every variable
        rec = BY_LABEL[label]
        spec = ProblemSpec(rec.degrees, rec.bound)
        _, I, info = present(spec, genset=minimal_invariant_generators(spec), horizon=rec.horizon)
        kept, gb, shortcut = _trial_only(I)
        assert shortcut
        calls = []
        basis = resolution.buchberger
        monkeypatch.setattr(resolution, "buchberger", lambda J: calls.append(1) or basis(J))
        red = regular_variables(I)
        assert red.kept == kept
        assert [g.terms for g in red.basis.elements] == [g.terms for g in gb.elements]
        assert len(calls) == 1 + I.ring.nvars - len(shortcut)
        # the kernel's own basis gives the same reduction, one basis fewer
        calls.clear()
        given = regular_variables(I, info.basis)
        assert given.kept == red.kept
        assert given.ideal == red.ideal
        assert given.basis.elements == red.basis.elements
        assert given.basis.order == red.basis.order and given.basis.ring == red.basis.ring
        assert given.series == red.series
        assert len(calls) == I.ring.nvars - len(shortcut)

    def test_content_taken_out(self):
        # x is absent from the lead a^2, and setting it to 0 leaves
        # 2a^2 + 2ab, whose content the trial's reduced basis does not have
        R = GradedRing(("x", "a", "b"), (1, 1, 1))
        x, a, b = (R.variable(i) for i in range(3))
        I = Ideal(R, [(a * a + a * b).scale(Fraction(2)) + (x * b).scale(Fraction(3))])
        kept, gb, shortcut = _trial_only(I)
        assert kept[0] == 0 and shortcut[0] == 0
        red = regular_variables(I)
        assert red.kept == kept
        assert [g.terms for g in red.basis.elements] == [g.terms for g in gb.elements]


class TestResolutionDump:
    def test_format_lists_shifts_and_triples(self, worked_resolution):
        from sl2betti.resolution import format_resolution

        text = format_resolution(worked_resolution)
        lines = text.splitlines()
        assert lines[0] == "module 0 shifts 0"
        assert lines[1] == "module 1 shifts 5 5 5 6 6 6 6 6 6"
        assert "differential 1" in lines
        # triples are row col polynomial; count entries of d_1
        d1 = worked_resolution.differential(1)
        n_entries = sum(len({r for r, _ in col}) for col in d1)
        start = lines.index("differential 1") + 1
        got = 0
        while start + got < len(lines) and lines[start + got].startswith("  "):
            got += 1
        assert got == n_entries


class TestVerifyComplex:
    def test_worked_case_passes_to_twenty(self, worked_resolution):
        assert verify_complex(worked_resolution, 20).ok

    def test_corrupted_sign_detected(self, worked_resolution):
        R = worked_resolution.ring
        bad_diffs = [list(d) for d in worked_resolution.differentials]
        col = entries(R, bad_diffs[1][0])
        r0 = min(col)
        col[r0] = -col[r0]
        bad_diffs[1][0] = column(col)
        bad = Resolution(
            worked_resolution.ring, list(worked_resolution.modules), bad_diffs
        )
        rep = verify_complex(bad, 10)
        assert not rep.ok and rep.failure[0] == "dd"

    @pytest.mark.parametrize("level, failure", [
        (1, ("exactness", 1, 8)),
        (2, ("exactness", 2, 11)),
        (3, ("exactness", 3, 17)),
    ])
    def test_truncated_resolution_not_exact(self, paper_ring, paper_J, level, failure):
        # the paper's J, and J modulo its regular variables, resolved and cut
        # after d_level: the first homology sits at F_level in the degree of
        # the first dropped syzygy, which the two resolutions share
        J = Ideal(paper_ring, paper_J)
        for ideal in (J, regular_variables(J).ideal):
            res = resolve(ideal)
            cut = Resolution(ideal.ring, res.modules[: level + 1], res.differentials[:level])
            rep = verify_complex(cut, 17)
            assert not rep.ok and rep.failure == failure, ideal.ring

    def test_reduced_resolution_builds_no_basis(self, paper_ring, paper_J, monkeypatch):
        # the complex is checked as given, over its own ring: no regular
        # sequence is searched for, so no Groebner basis is built
        res = resolve(regular_variables(Ideal(paper_ring, paper_J)).ideal)
        calls = []
        basis = groebner.buchberger

        def counted(*args, **kwargs):
            calls.append(1)
            return basis(*args, **kwargs)

        for module in (groebner, resolution):
            monkeypatch.setattr(module, "buchberger", counted)
        assert verify_complex(res, 17).ok
        assert len(calls) == 0

    def test_trivial_complex(self):
        R = GradedRing(("x",), (1,))
        res = Resolution(R, [FreeModule((0,))], [])
        assert verify_complex(res, 5).ok

    def test_homogeneity_check(self):
        R = GradedRing(("x", "y"), (1, 1))
        x = R.variable(0)
        modules = [FreeModule((0,)), FreeModule((3,))]
        res = Resolution(R, modules, [[column({0: x})]])  # entry degree 1 != 3
        rep = verify_complex(res, 4)
        assert not rep.ok and rep.failure[0] == "degree"


def _strand_verdict(res, e_cap):
    """(ok, failure, message) of `verify_complex` with its exactness part
    read from the strands of res (x) R/(0) by `_strand_homology`: dimensions
    by exact ranks in each degree, not by Hilbert series."""
    rep = verify_complex(res, e_cap)
    if rep.failure is not None and rep.failure[0] != "exactness":
        # the d o d = 0 and homogeneity checks run first either way
        return rep.ok, rep.failure, rep.message
    empty = _NormalFormTable(GroebnerBasis(res.ring, WEIGHTED, []))
    homology = _strand_homology(res, empty, range(e_cap + 1))
    for i in range(1, res.length + 1):
        for e in range(e_cap + 1):
            ker, im = homology[(i, e)]
            if ker != im:
                message = f"homology at F_{i} in degree {e}: ker {ker} != im {im}"
                return False, ("exactness", i, e), message
    return True, None, f"d o d = 0, homogeneous, exact for degrees <= {e_cap}"


def _cut(res, top):
    return Resolution(res.ring, res.modules[: top + 1], res.differentials[:top])


def _dropped(res, i, c):
    """res without generator c of F_i: column c of d_i and row c of d_{i+1}."""
    shifts = [list(m.shifts) for m in res.modules]
    diffs = [list(d) for d in res.differentials]
    del shifts[i][c]
    del diffs[i - 1][c]
    if i < res.length:
        diffs[i] = [
            {(r - (r > c), m): a for (r, m), a in col.items() if r != c} for col in diffs[i]
        ]
    return Resolution(res.ring, [FreeModule(tuple(sh)) for sh in shifts], diffs)


def _scaled(res, i, c, factor):
    diffs = [list(d) for d in res.differentials]
    diffs[i - 1][c] = {k: factor * a for k, a in diffs[i - 1][c].items()} if factor else {}
    return Resolution(res.ring, list(res.modules), diffs)


class TestExactnessMatchesStrands:
    """The exactness check reads dimensions from the leading terms of the
    image modules; the strands' exact ranks give the same verdict, failure
    and message on complexes that are exact, inexact and not complexes."""

    def check(self, res, e_cap):
        rep = verify_complex(res, e_cap)
        want = _strand_verdict(res, e_cap)
        assert (rep.ok, rep.failure, rep.message) == want
        return rep.failure[0] if rep.failure else None

    def test_paper_resolutions_cut_after_each_level(self, paper_ring, paper_J):
        J = Ideal(paper_ring, paper_J)
        for ideal in (J, regular_variables(J).ideal):
            res = resolve(ideal)
            for top in range(1, res.length + 1):
                self.check(_cut(res, top), 17)

    def test_koszul_complex(self):
        assert self.check(_koszul_complex(TestKoszulComplex.R), 8) is None

    def test_module_of_rank_zero_below_another(self):
        # 0 -> R(-2) -> 0 -> R: the zero column of d_2 has no row to stand for
        R = GradedRing(("x", "y"), (1, 1))
        modules = [FreeModule((0,)), FreeModule(()), FreeModule((2,))]
        res = Resolution(R, modules, [[], [{}]])
        assert self.check(res, 4) == "exactness"

    @pytest.mark.parametrize("label", ["V3+V3", "5V1", "3V1+V2"])
    def test_seeded_damage(self, label):
        # cut after a random level, then drop, double or zero one column of
        # the top two differentials: the top keeps d o d = 0, the level
        # below mostly does not
        rec = BY_LABEL[label]
        *_, ideal, info = present(ProblemSpec(rec.degrees, rec.bound), horizon=rec.horizon)
        res = resolve(regular_variables(ideal, info.basis).ideal)
        j_star = betti(res).j_star
        kinds = Counter()
        for seed in range(8):
            rng = random.Random(seed)
            top = rng.randint(1, res.length)
            cut = _cut(res, top)
            i = rng.randint(max(1, top - 1), top)
            c = rng.randrange(res.modules[i].rank)
            for bad in (_dropped(cut, i, c), _scaled(cut, i, c, 2), _scaled(cut, i, c, 0)):
                kinds[self.check(bad, j_star)] += 1
        assert kinds["exactness"] and kinds[None]
