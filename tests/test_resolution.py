"""Resolutions, Schreyer syzygies, minimization, Betti tables, Koszul oracle."""

import random
from collections import Counter
from fractions import Fraction

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
from sl2betti.linalg import Echelon
from sl2betti.poly import LEX, WEIGHTED, GradedRing, Polynomial, monomial_mul
from sl2betti.presentation import present
from sl2betti.resolution import (
    FreeModule,
    Resolution,
    _set_to_zero,
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
        col = res.differential(2)[0]
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
            columns = [
                {(r, m): c for r, p in col.items() for m, c in p.terms.items()}
                for _, col in sorted(res.differential(i).items())
            ]
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
        res = resolve(Ideal(paper_ring, paper_J))
        assert "input generators were not minimal" in res.flags
        assert betti(minimize(res)).entries == WORKED_BETTI

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


class TestMinimize:
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
        d1 = {0: {0: x * x}, 1: {0: x * x * x}}
        d2 = {0: {1: R.one()}}
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
        res = Resolution(R, modules, [{0: {0: R.one()}}])
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
        n_entries = sum(len(rows) for rows in d1.values())
        start = lines.index("differential 1") + 1
        got = 0
        while start + got < len(lines) and lines[start + got].startswith("  "):
            got += 1
        assert got == n_entries


class TestVerifyComplex:
    def test_worked_case_passes_to_twenty(self, worked_resolution):
        assert verify_complex(worked_resolution, 20).ok

    def test_corrupted_sign_detected(self, worked_resolution):
        bad_diffs = [
            {c: dict(rows) for c, rows in d.items()}
            for d in worked_resolution.differentials
        ]
        c0 = sorted(bad_diffs[1])[0]
        r0 = sorted(bad_diffs[1][c0])[0]
        bad_diffs[1][c0][r0] = -bad_diffs[1][c0][r0]
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
        res = Resolution(R, modules, [{0: {0: x}}])  # entry degree 1 != 3
        rep = verify_complex(res, 4)
        assert not rep.ok and rep.failure[0] == "degree"
