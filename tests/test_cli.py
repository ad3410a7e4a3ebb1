"""Command-line behavior: outputs, determinism, exit codes."""

import json
import runpy
import sys
from pathlib import Path

import pytest

from sl2betti import cli, groebner, presentation, resolution
from sl2betti.cases import BY_LABEL, CASES
from sl2betti.cli import CaseResult, CheckResult, run, verify_case
from sl2betti.invariants import ProblemSpec
from conftest import J_TEXT


@pytest.fixture()
def j_file(tmp_path):
    path = tmp_path / "J.txt"
    head = (
        "ring x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 ; "
        "weights 3 3 2 3 2 3 3 2 2 3 ; order weighted ;\n"
    )
    path.write_text(head + "\n".join(J_TEXT) + "\n")
    return str(path)


@pytest.fixture()
def gens_file(tmp_path):
    # invariants of two linear forms plus a quadratic: five generators
    path = tmp_path / "gens.txt"
    out = run(["invariants", "1,1,2"])
    assert out == 0
    # regenerate through the library to avoid capturing stdout plumbing here
    from sl2betti.invariants import ProblemSpec, minimal_invariant_generators
    from sl2betti.poly import WEIGHTED, format_session

    gs = minimal_invariant_generators(ProblemSpec((1, 1, 2), 3))
    path.write_text(format_session(gs.cring.ring, WEIGHTED, gs.generators))
    return str(path)


class TestBettiCommand:
    def test_published_diagram(self, j_file, capsys):
        code = run(["betti", "--gens", j_file, "--weights", "3,3,2,3,2,3,3,2,2,3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "palindromic: true" in out
        assert "0 -> R(-17) -> R(-11)^6 (+) R(-12)^3" in out
        assert "1 - 3*z^5 - 6*z^6 + 8*z^8 + 8*z^9 - 6*z^11 - 3*z^12 + z^17" in out

    def test_json_format(self, j_file, capsys):
        code = run(["betti", "--gens", j_file, "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["length"] == 4 and doc["j_star"] == 17
        assert doc["palindromic"] is True
        assert [2, 8, 8] in doc["betti"]

    def test_table_matches_recorded_output(self, j_file, capsys):
        # the table is printed from the resolution of the ideal modulo its
        # regular variables; its shape line reads the same shifts
        data = Path(__file__).parent / "data"
        code = run(["betti", "--gens", j_file, "--weights", "3,3,2,3,2,3,3,2,2,3"])
        assert code == 0
        assert capsys.readouterr().out == (data / "betti_J.txt").read_text()

    def test_dump_matches_recorded_output(self, j_file, tmp_path, capsys):
        # nine of the ten relations are kept; the dump resolves them over
        # the full ring
        data = Path(__file__).parent / "data"
        dump = tmp_path / "dump.txt"
        assert run(["betti", "--gens", j_file, "--dump", str(dump)]) == 0
        assert capsys.readouterr().out == (data / "betti_J.txt").read_text()
        assert dump.read_bytes() == (data / "betti_J.dump").read_bytes()

    def test_deterministic_output(self, j_file, capsys):
        run(["betti", "--gens", j_file])
        first = capsys.readouterr().out
        run(["betti", "--gens", j_file])
        second = capsys.readouterr().out
        assert first == second

    def test_weights_mismatch_is_usage_error(self, j_file, capsys):
        code = run(["betti", "--gens", j_file, "--weights", "1,1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_empty_weight_entry_is_usage_error(self, j_file, capsys):
        # skipping the empty entry would leave the ten correct weights
        weights = "3,3,2,3,2,,3,3,2,2,3"
        assert run(["betti", "--gens", j_file, "--weights", weights]) == 2
        assert capsys.readouterr().err == f"error: bad degree list {weights!r}\n"

    def test_inhomogeneous_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("ring x y ; weights 1 1 ; order weighted ;\nx + x*y\n")
        code = run(["betti", "--gens", str(path)])
        assert code == 2

    def test_weights_option_reweights_the_ring(self, tmp_path, capsys):
        path = tmp_path / "gens.txt"
        path.write_text("ring x y ; weights 1 1 ;\nx^2\nx*y\n")
        code = run(["betti", "--gens", str(path), "--weights", "2,3", "--format", "json"])
        assert code == 0
        got = {(i, j): b for i, j, b in json.loads(capsys.readouterr().out)["betti"]}
        assert got == {(0, 0): 1, (1, 4): 1, (1, 5): 1, (2, 7): 1}

    def test_repeated_header_clause_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "gens.txt"
        path.write_text("ring x y ; weights 1 1 ;\nweights 2 3 ;\nx^2\nx*y\n")
        assert run(["betti", "--gens", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: repeated header clause 'weights'\n"

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("ring x ; weights 1 ; order weighted ;\nx + q*z\n")
        assert run(["betti", "--gens", str(path)]) == 2

    def test_zero_denominator_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("ring x ; weights 1 ; order weighted ;\n1/0*x\n")
        assert run(["betti", "--gens", str(path)]) == 2
        assert "error: zero denominator" in capsys.readouterr().err

    def test_block_order_without_size_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("ring x y ; weights 1 1 ; order block ;\nx\n")
        assert run(["betti", "--gens", str(path)]) == 2
        assert "error: block order needs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["betti"], ["kernel"], ["resolve"]], ids=["betti", "kernel", "resolve"]
    )
    @pytest.mark.parametrize("order", ["lex", "block 1"])
    def test_non_weighted_order_is_usage_error(self, command, order, tmp_path, capsys):
        # generator files are always read in the weighted order, so any other
        # order clause is refused instead of silently ignored
        path = tmp_path / "gens.txt"
        path.write_text(f"ring x y ; weights 1 1 ; order {order} ;\nx*y\n")
        assert run(command + ["--gens", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: unsupported clause 'order {order}'")

    @pytest.mark.parametrize("order", ["weighted", "degrevlex"])
    def test_weighted_order_names_are_accepted(self, order, tmp_path, capsys):
        path = tmp_path / "gens.txt"
        path.write_text(f"ring x y ; weights 1 1 ; order {order} ;\nx*y\n")
        assert run(["betti", "--gens", str(path)]) == 0

    def test_high_shared_exponents_resolve(self, tmp_path, capsys):
        # the Hilbert numerator pivots on a median power of x, so its
        # recursion stays shallow where one power of x per level would
        # run 1500 levels deep
        path = tmp_path / "gens.txt"
        path.write_text("ring x y\nx^1500*y^2\nx^1501*y\n")
        assert run(["betti", "--gens", str(path)]) == 0
        assert "poincare numerator: 1 - 2*z^1502 + z^1503" in capsys.readouterr().out

    def test_huge_exponent_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("ring x ;\nx^99999999999999999\n")
        assert run(["betti", "--gens", str(path)]) == 2
        assert "error: exponent of x exceeds 4095" in capsys.readouterr().err

    def test_exponent_overflow_in_engine_is_input_error(self, tmp_path, capsys):
        # every input exponent is at most 4095, but dividing x^4094*y^4095 by
        # x^2 - y^2 would reach y^4097
        path = tmp_path / "big.txt"
        path.write_text("ring x y ;\nx^2 - y^2\nx^4094*y^4095\n")
        assert run(["betti", "--gens", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "4095" in err


class TestResolveCommand:
    def test_two_cubics(self, capsys):
        code = run(["resolve", "3,3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 -> R(-20) -> R(-8) (+) R(-12) -> R" in out
        assert "palindromic: true" in out

    def test_json(self, capsys):
        code = run(["resolve", "3,3", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["degrees"] == [3, 3]
        assert doc["length"] == 2 and doc["j_star"] == 20

    @pytest.mark.parametrize("command", ["kernel", "resolve"])
    @pytest.mark.parametrize("entry", ["0", "x0^2 + x1"])
    def test_gens_file_bad_entry_is_usage_error(self, command, entry, tmp_path, capsys):
        path = tmp_path / "gens.txt"
        path.write_text(f"ring x0 x1 ;\nx0*x1\n{entry}\n")
        assert run([command, "--gens", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: generator file entries must be nonzero homogeneous\n"

    @pytest.mark.parametrize("command", ["betti", "kernel", "resolve"])
    @pytest.mark.parametrize("entry", ["3", "-1/2"])
    def test_gens_file_constant_entry_is_usage_error(self, command, entry, tmp_path, capsys):
        path = tmp_path / "gens.txt"
        path.write_text(f"ring x0 x1 ;\nx0*x1\n{entry}\n")
        assert run([command, "--gens", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: generator file entry {entry} is a nonzero constant: "
            "the ideal it generates is the whole ring\n"
        )

    @pytest.mark.parametrize("command", ["resolve", "betti"])
    def test_unwritable_dump_prints_no_report(self, command, tmp_path, capsys):
        path = tmp_path / "gens.txt"
        path.write_text("ring x y ;\nx^2\nx*y\ny^2\n")
        dump = tmp_path / "missing" / "dump.txt"
        for fmt in ("table", "json"):
            argv = [command, "--gens", str(path), "--format", fmt, "--dump", str(dump)]
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")

    def test_gens_file_route(self, gens_file, capsys):
        code = run(["resolve", "--gens", gens_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 -> R(-6) -> R" in out

    def test_unknown_degrees_need_bound(self, capsys):
        code = run(["resolve", "9,9"])
        assert code == 2
        assert "--bound" in capsys.readouterr().err

    @pytest.mark.parametrize("degrees, bound", [("4", "2"), ("7", "2"), ("3", "3")])
    def test_bound_below_first_invariant_fails(self, degrees, bound, capsys):
        # an empty or short generator search must fail the dimension
        # certificate instead of printing the trivial diagram
        code = run(["resolve", degrees, "--bound", bound])
        captured = capsys.readouterr()
        assert code == 2
        assert "the generator set upstream is incomplete" in captured.err
        assert "palindromic" not in captured.out

    def test_matches_recorded_outputs(self, tmp_path, capsys):
        data = Path(__file__).parent / "data"
        code = run(["resolve", "1,1,1,2", "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out == (data / "resolve_1112.json").read_text()
        dump = tmp_path / "dump.txt"
        code = run(["resolve", "1,1,1,2", "--dump", str(dump)])
        assert code == 0
        assert dump.read_bytes() == (data / "resolve_1112.dump").read_bytes()

    def test_table_matches_recorded_output(self, capsys):
        data = Path(__file__).parent / "data"
        code = run(["resolve", "1,1,1,2"])
        assert code == 0
        assert capsys.readouterr().out == (data / "resolve_1112.txt").read_text()

    def test_hd8_case_resolves(self, capsys):
        # 2V1+V3 resolves modulo its 4 regular variables of 13; over the
        # full ring the resolution ran for more than ten minutes
        rec = BY_LABEL["2V1+V3"]
        code = run(["resolve", "1,1,3", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        got = {(i, j): b for i, j, b in doc["betti"]}
        assert got == rec.betti
        ranks = [sum(b for (i, _), b in got.items() if i == k) for k in range(doc["length"] + 1)]
        assert ranks == [1, 35, 160, 350, 448, 350, 160, 35, 1]

    def test_five_level_matches_recorded_outputs(self, tmp_path, capsys):
        # 4V2 resolves in five levels, so the Schreyer order is composed
        # four times
        data = Path(__file__).parent / "data"
        code = run(["resolve", "2,2,2,2", "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out == (data / "resolve_2222.json").read_text()
        dump = tmp_path / "dump.txt"
        code = run(["resolve", "2,2,2,2", "--dump", str(dump)])
        assert code == 0
        assert dump.read_bytes() == (data / "resolve_2222.dump").read_bytes()

    @pytest.mark.parametrize("command", ["invariants", "kernel"])
    def test_front_half_matches_recorded_outputs(self, command, capsys):
        # these outputs pass through Polynomial.normalize in the invariant
        # search and in the degree-certified kernel
        data = Path(__file__).parent / "data"
        code = run([command, "1,1,1,2", "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out == (data / f"{command}_1112.json").read_text()

    @pytest.mark.parametrize("degrees, name", [("1,1,2,2", "1122"), ("1,2,2,2", "1222")])
    def test_kernel_across_degrees_matches_recorded_outputs(self, degrees, name, capsys):
        # relations in degrees 6, 7 and 8: the kernel's basis grows by the
        # relations of each degree between truncated engine runs
        data = Path(__file__).parent / "data"
        code = run(["kernel", degrees, "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out == (data / f"kernel_{name}.json").read_text()

    @pytest.mark.parametrize(
        "degrees, name", [("5", "5"), ("6", "6"), ("4,4", "44"), ("3,3", "33")]
    )
    def test_sliced_kernel_matches_recorded_outputs(self, degrees, name, capsys):
        # the degree-certified kernel runs on the slice a0 = 1, a1 = 0,
        # a_{d-1} = 0 of the first form, of degree d >= 3; V5 has the
        # degree-36 relation and V6 the degree-30 one, V3+V3 is the smallest
        # d = 3 case (a_{d-1} = a2), and for V4+V4 and V3+V3 the slice fixes
        # only the first of the two forms; recorded with the slice
        # a0 = 1, a1 = 0 and a substitution check on every relation
        data = Path(__file__).parent / "data"
        code = run(["kernel", degrees, "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out == (data / f"kernel_{name}.json").read_text()

    def test_quintic_invariants_match_recorded_output(self, capsys):
        # the degree-18 invariant of V5 comes out of a 967-column modular
        # nullspace; the recorded output is the fraction-free one
        data = Path(__file__).parent / "data"
        code = run(["invariants", "5", "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out == (data / "invariants_5.json").read_text()

    @pytest.mark.parametrize(
        "degrees, name",
        [("6", "6"), ("1,2,2,2", "1222"), ("1,1,1,1,1,1", "111111"), ("1,1,3", "113")],
    )
    def test_invariants_match_recorded_output(self, degrees, name, capsys):
        # recorded with the rows in plain weighted order; V6's degree-15
        # piece has 1636 columns, and V1+3V2's pieces without the linear
        # form take a0, a1 from the first quadratic they involve; 6V1 spans
        # products over six forms, and V1+V1+V3 has pieces of mixed degree
        data = Path(__file__).parent / "data"
        code = run(["invariants", degrees, "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out == (data / f"invariants_{name}.json").read_text()

    def test_failed_certificate_exits_one_and_names_it(self, monkeypatch, capsys):
        # an invariant count one short at degree 4 makes the degree-4 kernel
        # search return a vector that the substitution check rejects
        true_dims = presentation.cs_total_dims

        def short(spec, upto):
            dims = true_dims(spec, upto)
            dims[4] -= 1
            return dims

        monkeypatch.setattr(presentation, "cs_total_dims", short)
        code = run(["kernel", "1,1,2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "check failed: degree 4: kernel vector not in the kernel\n"
        assert "Traceback" not in captured.err


class TestKernelCommand:
    def test_pipeline_route(self, capsys):
        code = run(["kernel", "1,1,2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "degrees: 6" in out
        assert "certified" in out

    def test_gens_file_route(self, gens_file, capsys):
        code = run(["kernel", "--gens", gens_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "minimal kernel generators: 1" in out

    def test_gens_file_matches_recorded_output(self, tmp_path, capsys):
        # the invariants of 1,1,1,2 read back: nine minimal relations
        path = tmp_path / "gens.txt"
        assert run(["invariants", "1,1,1,2"]) == 0
        path.write_text(capsys.readouterr().out)
        assert run(["kernel", "--gens", str(path)]) == 0
        data = Path(__file__).parent / "data"
        assert capsys.readouterr().out == (data / "kernel_gens_1112.txt").read_text()

    def test_missing_args(self, capsys):
        assert run(["kernel"]) == 2

    def test_gens_file_with_weighted_header(self, tmp_path, capsys):
        path = tmp_path / "gens.txt"
        path.write_text("ring x y ; weights 1 2 ;\nx^2\ny\nx^2*y\n")
        assert run(["kernel", "--gens", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "source_weights": [2, 2, 4],
            "relation_degrees": [4],
            "generators": ["f1*f2 - f3"],
        }

    def test_weights_disagreeing_with_image_degrees(self, tmp_path, capsys):
        path = tmp_path / "gens.txt"
        path.write_text("ring x y ;\nx^2\ny^2\n")
        assert run(["kernel", "--gens", str(path), "--weights", "9,9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "(9, 9)" in captured.err and "(2, 2)" in captured.err

    @pytest.mark.parametrize(
        "images",
        [
            # y^6000 in f1^2 would carry into x's packed exponent field
            ["y^3000", "y^2000", "x"],
            ["x*y^5000", "x", "y^2500"],
        ],
    )
    def test_exponent_limit_is_input_error(self, images, tmp_path, capsys):
        path = tmp_path / "gens.txt"
        path.write_text("ring x y ;\n" + "\n".join(images) + "\n")
        assert run(["kernel", "--gens", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "4095" in err

    def test_empty_generator_search_not_certified(self, capsys):
        code = run(["kernel", "7", "--bound", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "certified" not in captured.out
        assert "the generator set upstream is incomplete" in captured.err


class TestOptionsThatDoNotApply:
    """An option the chosen input ignores is a usage error naming it."""

    def test_weights_without_gens(self, capsys):
        code = run(["kernel", "2,2", "--bound", "2", "--weights", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --weights validates the --gens images; it needs --gens\n"

    @pytest.mark.parametrize("command", ["kernel", "resolve"])
    def test_bound_with_gens(self, command, gens_file, capsys):
        capsys.readouterr()
        code = run([command, "--gens", gens_file, "--bound", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --bound applies to a degree list, not to --gens\n"

    @pytest.mark.parametrize("command", ["kernel", "resolve"])
    def test_degrees_with_gens(self, command, gens_file, capsys):
        capsys.readouterr()
        code = run([command, "1,1,2", "--gens", gens_file])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: {command} takes a degree list or --gens FILE, not both\n"
        )


class TestInvariantsCommand:
    def test_bracket(self, capsys):
        code = run(["invariants", "1,1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "x1*y0 - x0*y1" in out
        assert "form 1 (degree 1): x0 x1" in out

    def test_bad_degree_list(self, capsys):
        assert run(["invariants", "1,0,2"]) == 2

    @pytest.mark.parametrize("text", ["5,,", ",5", "1,,2"])
    def test_empty_degree_entry_is_usage_error(self, text, capsys):
        assert run(["invariants", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad degree list {text!r}\n"

    def test_two_cubics_match_recorded_output(self, capsys):
        # products of earlier generators span only part of the pieces (2,2)
        # and (3,3), so the printed generators depend on the column order and
        # on the order of the products
        data = Path(__file__).parent / "data"
        code = run(["invariants", "3,3", "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out == (data / "invariants_33.json").read_text()


class TestVerifyCommand:
    def test_small_case_passes(self, capsys):
        code = run(["verify", "4V1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] 4V1" in out
        assert "all checks passed" in out

    def test_label_normalization(self, capsys):
        code = run(["verify", "v1+v1+v2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] 2V1+V2" in out

    def test_unknown_label(self, capsys):
        assert run(["verify", "V99"]) == 2

    def test_base_field_checks_are_informational(self, capsys):
        # V1 has no invariants: no length formula and no Koszul complex
        assert run(["verify", "V1"]) == 0
        out = capsys.readouterr().out
        assert "expected-hd  info no generators (base field)" in out
        assert "koszul       info trivial for the base field" in out

    def test_invalid_length_formula_is_informational(self, capsys):
        # V2's generic stabilizer is positive-dimensional
        assert run(["verify", "V2", "--format", "json"]) == 0
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["cases"][0]["checks"]}
        assert checks["expected-hd"]["informational"] and checks["expected-hd"]["ok"]
        assert "length formula gives 1 but the true length is 0" in checks["expected-hd"]["detail"]
        assert not checks["koszul"]["informational"]

    def test_stretch_excluded_by_default(self, capsys):
        # 'all' must not contain the stretch labels unless asked
        from sl2betti.cases import CASES

        non_stretch = [c.label for c in CASES if not c.stretch]
        assert "V8" not in non_stretch
        assert "2V1+V3" not in non_stretch

    @pytest.mark.parametrize("label", ["3V1+V2", "V1+3V2", "V5", "2V1+2V2"])
    def test_json_matches_recorded_output(self, label, capsys):
        # every field but the timing is deterministic; 2V1+2V2 is a stretch
        # case whose exactness check runs to j* = 28
        code = run(["verify", label, "--format", "json"])
        assert code == 0
        got = json.loads(capsys.readouterr().out)
        for case in got["cases"]:
            del case["seconds"]
        data = Path(__file__).parent / "data"
        want = json.loads((data / f"verify_{label.replace('+', '_')}.json").read_text())
        assert got == want


class TestOneKernelBasis:
    """The Groebner basis of the presentation ideal is grown by the kernel
    search itself, never rebuilt by `buchberger`, and is reused by the
    reduction, the hilbert check and the oracle."""

    def _count(self, monkeypatch, label):
        rec = BY_LABEL[label]
        spec = ProblemSpec(rec.degrees, rec.bound)
        _, ideal, _ = presentation.present(spec, horizon=rec.horizon)
        calls = []
        basis = groebner.buchberger

        def counted(J, *args):
            calls.append(J.ring == ideal.ring and J.generators == ideal.generators)
            return basis(J, *args)

        for module in (groebner, presentation, resolution):
            monkeypatch.setattr(module, "buchberger", counted)
        return rec, calls

    def test_verify_case(self, monkeypatch):
        rec, calls = self._count(monkeypatch, "3V1+V2")
        assert verify_case(rec).ok
        assert calls and sum(calls) == 0

    def test_resolve(self, monkeypatch, capsys):
        _, calls = self._count(monkeypatch, "3V1+V2")
        assert run(["resolve", "1,1,1,2", "--format", "json"]) == 0
        capsys.readouterr()
        assert calls and sum(calls) == 0

    @pytest.mark.parametrize("label", ["3V1+V2", "4V2", "2V1+2V2"])
    def test_grown_basis_is_buchbergers(self, label):
        rec = BY_LABEL[label]
        _, ideal, info = presentation.present(ProblemSpec(rec.degrees, rec.bound))
        assert info.basis.elements == groebner.buchberger(ideal).elements


def _child_env(**extra):
    """The environment of a child interpreter that imports this sl2betti."""
    import os

    import sl2betti

    src = str(Path(sl2betti.__file__).resolve().parent.parent)
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return {**os.environ, "PYTHONPATH": path, **extra}


class TestDeterminism:
    def test_byte_identical_across_processes(self, j_file):
        import subprocess
        import sys

        outs = []
        for seed in ("0", "1234"):
            proc = subprocess.run(
                [sys.executable, "-m", "sl2betti.cli", "betti", "--gens", j_file],
                capture_output=True,
                text=True,
                env=_child_env(PYTHONHASHSEED=seed),
            )
            assert proc.returncode == 0
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


class TestModuleEntryPoint:
    def test_python_dash_m_matches_run(self, capsys):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "sl2betti", "resolve", "1,1,1,2", "--format", "json"],
            capture_output=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert run(["resolve", "1,1,1,2", "--format", "json"]) == 0
        assert proc.stdout == capsys.readouterr().out.encode()


class TestVerifyFailurePath:
    def test_wrong_golden_data_fails(self, capsys):
        # verify must report FAIL and exit 1 when the table cannot match
        from dataclasses import replace
        from sl2betti.cli import verify_case

        rec = BY_LABEL["4V1"]
        sabotaged = replace(rec, betti={(0, 0): 1, (1, 4): 2})
        result = verify_case(sabotaged)
        assert not result.ok
        assert any(c.name == "betti" and not c.ok for c in result.checks)


class TestVerifyExitCodes:
    """`verify` with `verify_case` replaced by a stub: which cases run, and
    how a failed check that raises nothing sets the exit code."""

    @staticmethod
    def _stub(monkeypatch, failing=()):
        def stub(rec):
            return CaseResult(rec.label, [CheckResult("betti", rec.label not in failing, "stub")])

        monkeypatch.setattr(cli, "verify_case", stub)

    def test_all_runs_the_non_stretch_cases(self, monkeypatch, capsys):
        self._stub(monkeypatch)
        assert run(["verify", "all", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        labels = [case["label"] for case in doc["cases"]]
        assert doc["ok"] is True and len(labels) == 24
        assert labels == [c.label for c in CASES if not c.stretch]

    def test_include_stretch_runs_every_case(self, monkeypatch, capsys):
        self._stub(monkeypatch)
        assert run(["verify", "all", "--include-stretch", "--format", "json"]) == 0
        labels = [case["label"] for case in json.loads(capsys.readouterr().out)["cases"]]
        assert len(labels) == 28 and labels == [c.label for c in CASES]

    def test_failed_check_exits_one(self, monkeypatch, capsys):
        self._stub(monkeypatch, failing={"4V1"})
        assert run(["verify", "all"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] 4V1" in out and "[PASS] V1" in out
        assert out.splitlines()[-1] == "verify: FAILURES above"
        assert run(["verify", "4V1", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False and doc["cases"][0]["ok"] is False

    def test_module_entry_point_exits_two_on_unknown_label(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["sl2betti", "verify", "V99"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("sl2betti", run_name="__main__")
        assert exc.value.code == 2
        assert "unknown case label 'V99'" in capsys.readouterr().err
