"""Acceptance suite: the nine exit criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is exact (integer equality); the Koszul oracle of
criterion 5 runs to full j* on every case, and the only relaxations are
the two documented exclusions in criterion 8 (V1 and V2 have
positive-dimensional generic stabilizers, so the dimension count behind
the length formula does not apply to them).
"""

import random
import time
from fractions import Fraction

import pytest

from sl2betti.cases import BY_LABEL, CASES
from sl2betti.groebner import (
    Ideal,
    buchberger,
    hilbert_series_quotient,
    minimal_generators,
    monomials_of_degree,
)
from sl2betti.invariants import (
    ProblemSpec,
    apply_operator,
    cayley_sylvester_dim,
    cs_total_dims,
    invariant_basis,
    minimal_invariant_generators,
    CoefficientRing,
)
from sl2betti.poly import GradedRing, Polynomial, graded_monomials
from sl2betti.presentation import present
from sl2betti.report import check_palindromy, expected_hd, poincare_from_betti
from sl2betti.resolution import (
    BettiTable,
    betti,
    koszul_betti,
    minimize,
    regular_variables,
    resolve,
    verify_complex,
)
from conftest import WORKED_BETTI

NON_STRETCH = [c for c in CASES if not c.stretch]


def _announce(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status}" + (f" :: {detail}" if detail else ""))
    assert ok, f"criterion {criterion} failed: {detail}"


class _Pipelines:
    """Each catalog case is run once and shared across criteria."""

    def __init__(self):
        self.results = {}
        self.reduced_results = {}

    @staticmethod
    def _present(rec):
        spec = ProblemSpec(rec.degrees, rec.bound)
        genset = minimal_invariant_generators(spec)
        return (spec, genset) + present(spec, genset=genset, horizon=rec.horizon)

    def get(self, label):
        if label not in self.results:
            rec = BY_LABEL[label]
            t0 = time.time()
            spec, genset, amap, ideal, info = self._present(rec)
            res = minimize(resolve(ideal))
            table = betti(res)
            self.results[label] = {
                "rec": rec,
                "spec": spec,
                "genset": genset,
                "amap": amap,
                "ideal": ideal,
                "info": info,
                "res": res,
                "table": table,
                "seconds": time.time() - t0,
            }
        return self.results[label]

    def reduced(self, label):
        """The resolution modulo the regular variables, as `verify` builds
        it; it skips the full-ring resolution, which is slow on the stretch
        cases."""
        if label not in self.reduced_results:
            *_, ideal, info = self._present(BY_LABEL[label])
            res = resolve(regular_variables(ideal, info.basis).ideal)
            self.reduced_results[label] = {"res": res, "table": betti(res)}
        return self.reduced_results[label]


@pytest.fixture(scope="session")
def pipelines():
    return _Pipelines()


@pytest.fixture(scope="session")
def worked_ideal_in(paper_ring, paper_J):
    t0 = time.time()
    mins = minimal_generators(Ideal(paper_ring, paper_J))
    ideal = Ideal(paper_ring, [g for g, _ in mins])
    res = minimize(resolve(ideal))
    return {
        "ideal_raw": Ideal(paper_ring, paper_J),
        "ideal": ideal,
        "res": res,
        "table": betti(res),
        "seconds": time.time() - t0,
    }


def test_criterion_1_ideal_in_mode(worked_ideal_in):
    """Published relations + weight line reproduce the worked Betti table."""
    table = worked_ideal_in["table"]
    ok = (
        table.entries == WORKED_BETTI
        and table.length == 4
        and table.j_star == 17
        and worked_ideal_in["seconds"] < 120
    )
    _announce(
        1,
        ok,
        f"ideal-in Betti table exact, l=4, j*=17 in {worked_ideal_in['seconds']:.1f}s",
    )


def test_criterion_2_full_pipeline(pipelines):
    """resolve 1,1,1,2: generators, kernel, and table all match."""
    data = pipelines.get("3V1+V2")
    genset, info, table = data["genset"], data["info"], data["table"]
    ok = (
        sorted(genset.degrees) == [2, 2, 2, 2, 3, 3, 3, 3, 3, 3]
        and sorted(info.relation_degrees) == [5, 5, 5, 6, 6, 6, 6, 6, 6]
        and table.entries == WORKED_BETTI
        and data["seconds"] < 600
    )
    _announce(
        2,
        ok,
        f"10 generators (2^4 3^6), kernel 3 quintics + 6 sextics, table exact "
        f"in {data['seconds']:.1f}s",
    )


HD1_CASES = {
    "V5": 36, "V6": 30, "V1+V3": 12, "V1+V4": 18, "V2+V3": 14,
    "V2+V4": 12, "V4+V4": 12, "2V1+V2": 6, "V1+2V2": 8, "3V2": 6, "4V1": 4,
}
FREE_CASES = ["V1", "V2", "V3", "V4", "2V1", "V1+V2", "2V2", "3V1"]


def test_criterion_3_hd_le_1_catalog(pipelines):
    details = []
    ok = True
    for label, w in HD1_CASES.items():
        data = pipelines.get(label)
        table = data["table"]
        good = table.entries == {(0, 0): 1, (1, w): 1}
        budget = 1800 if label in ("V5", "V6") else 300
        good = good and data["seconds"] < budget
        ok = ok and good
        details.append(f"{label}:R(-{w}) {data['seconds']:.0f}s")
    for label in FREE_CASES:
        data = pipelines.get(label)
        good = data["table"].entries == {(0, 0): 1} and data["res"].length == 0
        ok = ok and good
    _announce(3, ok, "; ".join(details) + "; free cases length 0")


def test_criterion_4_hd_2_to_5(pipelines):
    ok = True
    details = []
    for label in ("V3+V3", "5V1", "3V1+V2", "V1+3V2", "4V2"):
        data = pipelines.get(label)
        good = data["table"].entries == data["rec"].betti
        ok = ok and good
        details.append(f"{label} exact")
    _announce(4, ok, "; ".join(details))


def test_criterion_5_oracle_equivalence(pipelines, paper_ring, paper_J):
    ok = True
    details = []
    for rec in NON_STRETCH:
        data = pipelines.get(rec.label)
        table = data["table"]
        if not data["genset"].generators:
            continue
        # the oracle builds its strands over the quotient modulo the
        # regular variables, to full j*
        red = regular_variables(data["ideal"])
        details.append(f"{rec.label} full")
        kt = koszul_betti(red.basis, table.j_star)
        ok = ok and kt.entries == table.entries
    # 50 random homogeneous ideals, <= 4 vars, <= 4 gens, degree <= 3
    rng = random.Random(2024)
    done = 0
    while done < 50:
        n = rng.randint(2, 4)
        R = GradedRing(tuple("xyzw"[:n]), (1,) * n)
        gens = []
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(1, 3)
            terms = {}
            for m in monomials_of_degree(R, d):
                if rng.random() < 0.4:
                    terms[m] = Fraction(rng.randint(-3, 3))
            p = Polynomial(R, terms)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        mins = minimal_generators(Ideal(R, gens))
        if not mins:
            continue
        I = Ideal(R, [g for g, _ in mins])
        t = betti(minimize(resolve(I)))
        k = koszul_betti(buchberger(Ideal(R, gens)), t.j_star)
        ok = ok and t.entries == k.entries
        done += 1
    _announce(
        5,
        ok,
        "catalog: " + ", ".join(details) + "; 50 random ideals all equal",
    )


def test_criterion_6_hilbert_identity(pipelines):
    ok = True
    for rec in NON_STRETCH:
        data = pipelines.get(rec.label)
        genset, table = data["genset"], data["table"]
        if not genset.generators:
            continue
        series = poincare_from_betti(table, tuple(genset.degrees))
        quotient = hilbert_series_quotient(data["ideal"])
        depth = table.j_star
        good = series.equals(quotient) and series.coefficients(depth) == quotient.coefficients(depth)
        # and both agree with the independent weight-counting series
        good = good and series.coefficients(depth) == cs_total_dims(data["spec"], depth)
        ok = ok and good
    _announce(6, ok, "numerator identity + serieswise equality through j* for all cases")


def test_criterion_7_palindromy(pipelines):
    ok = True
    for rec in NON_STRETCH:
        data = pipelines.get(rec.label)
        verdict = check_palindromy(data["table"])
        ok = ok and verdict.holds
    bad = BettiTable.from_entries({(0, 0): 1, (1, 2): 2, (2, 5): 1})
    verdict = check_palindromy(bad)
    ok = ok and (not verdict.holds) and verdict.witness == (1, 2)
    _announce(7, ok, "holds on all cases; constructed table rejected with witness (1,2)")


# the length formula's dimension count presumes a finite generic stabilizer,
# which fails exactly for V1 and V2 among the catalog cases
FORMULA_EXCEPTIONS = {"V1", "V2"}


def test_criterion_8_length_law(pipelines):
    ok = True
    checked = 0
    for rec in NON_STRETCH:
        data = pipelines.get(rec.label)
        m = len(data["genset"].generators)
        length = data["table"].length
        if rec.label in FORMULA_EXCEPTIONS:
            assert not rec.hd_formula_valid
            if m:
                formula = m - (sum(d + 1 for d in rec.degrees) - 3)
                assert formula != length, "exception case unexpectedly satisfies the formula"
            continue
        good = expected_hd(data["spec"], m) == length
        ok = ok and good
        checked += 1
    _announce(
        8,
        ok,
        f"l = m - (sum(d_i+1) - 3) on {checked} cases; V1, V2 documented "
        "exceptions (positive-dimensional generic stabilizer)",
    )


class TestCriterion9Properties:
    """Standalone property suites."""

    def test_operator_annihilation_of_published_generators(self, paper_L):
        cr = CoefficientRing((1, 1, 1, 2))
        for g in paper_L:
            p = Polynomial(cr.ring, dict(g.terms))
            assert apply_operator("raising", p, cr).is_zero()
            assert apply_operator("lowering", p, cr).is_zero()
        _announce("9a", True, "all 10 published generators annihilated by both operators")

    def test_complex_identities(self, pipelines):
        ok = True
        for label in ("3V1+V2", "V3+V3", "5V1"):
            data = pipelines.get(label)
            rep = verify_complex(data["res"], data["table"].j_star)
            ok = ok and rep.ok
        _announce("9b", ok, "d o d = 0 and differential homogeneity on three cases")

    def test_minimization_order_independence(self, paper_ring, paper_J):
        mins = minimal_generators(Ideal(paper_ring, paper_J))
        raw = resolve(
            Ideal(paper_ring, [g for g, _ in mins]), minimalize_levels=False
        )
        want = betti(minimize(raw)).entries
        ok = all(
            betti(minimize(raw, rng=random.Random(seed))).entries == want
            for seed in range(20)
        )
        _announce("9c", ok, "20 random cancellation orders, identical tables")

    def test_dimension_agreement_small_pieces(self):
        ok = True
        for degrees in [(1, 1, 1, 2), (2, 3), (4,), (5,), (2, 2, 2)]:
            spec = ProblemSpec(degrees, 12)
            for total in range(1, 13):
                for md in graded_monomials([(1,)] * len(degrees), (total,)):
                    s = sum(m * d for m, d in zip(md, degrees))
                    if s > 12 or s % 2:
                        continue
                    got = len(invariant_basis(spec, md))
                    if got != cayley_sylvester_dim(spec, md):
                        ok = False
        _announce("9d", ok, "nullspace vs weight-count dims on all pieces with sum <= 12")


def test_certificate_reach_is_pinned(pipelines):
    """The exactness check passes through j* on the reduced resolutions of
    the three largest stretch cases."""
    for label, j_star in (("6V1", 18), ("2V1+2V2", 28), ("2V1+V3", 50)):
        data = pipelines.reduced(label)
        assert data["table"].j_star == BY_LABEL[label].expected_j_star == j_star
        rep = verify_complex(data["res"], j_star)
        assert rep.ok, rep.message
        assert rep.message.endswith(f"exact for degrees <= {j_star}")
