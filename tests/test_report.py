"""Diagram rendering, Poincare recovery, palindromy, length formula."""

import json

import pytest

from sl2betti.groebner import Ideal, RationalSeries, hilbert_series_quotient
from sl2betti.invariants import ProblemSpec, cs_total_dims
from sl2betti.report import (
    check_palindromy,
    expected_hd,
    poincare_from_betti,
    render_betti,
    report_json,
)
from sl2betti.resolution import BettiTable
from conftest import WORKED_BETTI


def table(entries):
    return BettiTable.from_entries(dict(entries))


class TestPoincare:
    def test_complete_intersection_two_cubics(self):
        t = table({(0, 0): 1, (1, 8): 1, (1, 12): 1, (2, 20): 1})
        series = poincare_from_betti(t, (2, 4, 4, 4, 4, 4, 6))
        assert series.numerator == {0: 1, 8: -1, 12: -1, 20: 1}
        # numerator factors as (1 - z^8)(1 - z^12)
        assert series.equals(
            RationalSeries({0: 1, 8: -1}, ())
        ) is False  # sanity: not that
        prod = {0: 1, 8: -1, 12: -1, 20: 1}
        assert series.numerator == prod

    def test_free_case(self):
        t = table({(0, 0): 1})
        assert poincare_from_betti(t, (2,)).numerator == {0: 1}

    def test_worked_case_numerator_and_expansion(self, paper_ring, paper_J):
        t = table(WORKED_BETTI)
        series = poincare_from_betti(t, (2, 2, 2, 2, 3, 3, 3, 3, 3, 3))
        assert series.numerator == {
            0: 1, 5: -3, 6: -6, 8: 8, 9: 8, 11: -6, 12: -3, 17: 1
        }
        # expansion equals the weight-counting dimensions of the invariant ring
        cs = cs_total_dims(ProblemSpec((1, 1, 1, 2), 3), 12)
        assert series.coefficients(12) == cs
        # and equals the quotient's Hilbert series exactly
        hq = hilbert_series_quotient(Ideal(paper_ring, paper_J))
        assert series.equals(hq)


class TestRender:
    def test_worked_case_rows(self):
        text = render_betti(table(WORKED_BETTI))
        lines = text.splitlines()
        row_labels = [ln.split()[0] for ln in lines[2:]]
        assert row_labels == ["0", "5", "6", "8", "9", "11", "12", "17"]
        assert lines[0].split() == ["-j\\i", "0", "1", "2", "3", "4"]
        # the final row carries the single rightmost 1
        assert lines[-1].split()[-1] == "1"

    def test_single_entry(self):
        text = render_betti(table({(0, 0): 1}))
        assert text.splitlines()[-1].split() == ["0", "1"]

    def test_five_linear_forms(self):
        t = table({(0, 0): 1, (1, 4): 5, (2, 6): 5, (3, 10): 1})
        text = render_betti(t)
        rows = {ln.split()[0]: ln.split()[1:] for ln in text.splitlines()[2:]}
        assert rows["4"] == ["-", "5", "-", "-"]
        assert rows["6"] == ["-", "-", "5", "-"]
        assert rows["10"] == ["-", "-", "-", "1"]

    def test_round_trip(self):
        for entries in (
            WORKED_BETTI,
            {(0, 0): 1},
            {(0, 0): 1, (1, 4): 5, (2, 6): 5, (3, 10): 1},
            {(0, 0): 1, (1, 2): 2, (2, 5): 1},
        ):
            # each cell of row j, column i reads back as beta_{i,j}
            t = table(entries)
            head, _, *rows = render_betti(t).splitlines()
            assert head.split() == ["-j\\i"] + [str(i) for i in range(t.length + 1)]
            got = {}
            for row in rows:
                j, *cells = row.split()
                got.update({(i, int(j)): int(c) for i, c in enumerate(cells) if c != "-"})
            assert got == t.entries

    def test_byte_stable(self):
        t = table(WORKED_BETTI)
        assert render_betti(t) == render_betti(table(dict(WORKED_BETTI)))


class TestPalindromy:
    def test_worked_case_holds(self):
        v = check_palindromy(table(WORKED_BETTI))
        assert v.holds and v.length == 4 and v.j_star == 17

    def test_trivial_table(self):
        v = check_palindromy(table({(0, 0): 1}))
        assert v.holds and v.length == 0 and v.j_star == 0

    def test_constructed_counterexample(self):
        v = check_palindromy(table({(0, 0): 1, (1, 2): 2, (2, 5): 1}))
        assert not v.holds
        assert v.witness == (1, 2)  # beta_(1,2) = 2 but beta_(1,3) = 0

    def test_witness_indices_within_range(self):
        v = check_palindromy(table({(0, 0): 1, (1, 2): 2, (2, 5): 1}))
        assert 0 <= v.witness[0] <= v.length
        assert 0 <= v.witness[1] <= v.j_star


class TestExpectedHd:
    def test_worked_case(self):
        assert expected_hd(ProblemSpec((1, 1, 1, 2), 3), 10) == 4

    def test_five_linear_forms(self):
        assert expected_hd(ProblemSpec((1, 1, 1, 1, 1), 2), 10) == 3

    def test_two_cubics(self):
        assert expected_hd(ProblemSpec((3, 3), 6), 7) == 2

    def test_negative_is_error(self):
        with pytest.raises(ValueError):
            expected_hd(ProblemSpec((1, 1, 1, 2), 3), 2)

    def test_m_zero_is_error(self):
        with pytest.raises(ValueError):
            expected_hd(ProblemSpec((1,), 2), 0)


class TestJson:
    def test_schema(self):
        t = table(WORKED_BETTI)
        doc = json.loads(report_json(t, (2, 2, 2, 2, 3, 3, 3, 3, 3, 3), (1, 1, 1, 2)))
        assert doc["degrees"] == [1, 1, 1, 2]
        assert doc["generator_weights"] == [2, 2, 2, 2, 3, 3, 3, 3, 3, 3]
        assert doc["length"] == 4
        assert doc["j_star"] == 17
        assert doc["palindromic"] is True
        assert [1, 5, 3] in doc["betti"] and [4, 17, 1] in doc["betti"]
        coeffs = doc["poincare_numerator"]
        assert coeffs[0] == 1 and coeffs[5] == -3 and coeffs[17] == 1
        assert isinstance(doc["notes"], list)
