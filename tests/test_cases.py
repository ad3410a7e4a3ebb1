"""Golden catalog self-consistency."""

from sl2betti.cases import (
    CASES,
    BY_LABEL,
    case_for_degrees,
    find_case,
    normalize_label,
    parse_degree_list,
)
from sl2betti.report import check_palindromy
from sl2betti.resolution import BettiTable


def test_labels_unique():
    assert len(BY_LABEL) == len(CASES)


def test_tables_start_at_one():
    for rec in CASES:
        assert rec.betti[(0, 0)] == 1
        assert all(v > 0 for v in rec.betti.values())


def test_weights_consistent_with_length_formula():
    for rec in CASES:
        if not rec.hd_formula_valid:
            continue
        m = len(rec.weights)
        if m == 0:
            continue
        formula = m - (sum(d + 1 for d in rec.degrees) - 3)
        assert formula == rec.expected_length, rec.label


def test_bounds_cover_weights():
    for rec in CASES:
        if rec.weights:
            assert rec.bound >= max(rec.weights), rec.label


def test_golden_tables_palindromic():
    # the published conjecture holds on every catalog table
    for rec in CASES:
        verdict = check_palindromy(BettiTable.from_entries(dict(rec.betti)))
        assert verdict.holds, rec.label


def test_label_parsing():
    assert normalize_label("3v1+v2") == "3V1+V2"
    assert normalize_label("V1+V1+V2") == "2V1+V2"
    assert normalize_label("2v3") == "V3+V3"
    assert find_case("5V1").degrees == (1, 1, 1, 1, 1)
    assert find_case("nonsense") is None


def test_degree_lookup():
    assert case_for_degrees((2, 1, 1)).label == "2V1+V2"
    assert case_for_degrees((9, 9)) is None


def test_parse_degree_list():
    assert parse_degree_list("1,1,1,2") == (1, 1, 1, 2)
    import pytest

    with pytest.raises(ValueError):
        parse_degree_list("1,0")
    with pytest.raises(ValueError):
        parse_degree_list("")
    assert parse_degree_list(" 1, 2") == (1, 2)
    # an empty entry is an error, not skipped
    for text in ("5,,", ",5", "1,,2", "1, ,2", "5,"):
        with pytest.raises(ValueError, match="bad degree list"):
            parse_degree_list(text)


def test_stretch_flags():
    stretch = {c.label for c in CASES if c.stretch}
    assert stretch == {"V8", "2V1+2V2", "6V1", "2V1+V3"}
