"""Tests of the benchmark itself, on a tiny workload of fast catalog cases.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from workloads import (  # noqa: E402
    CASE_METRICS, COUNT_METRICS, END_TO_END, PER_LAYER, Workload, case_metric, reference_name,
)

TINY_CASES = ("4V1", "V1+V3")
TINY_DEGREES = {"4V1": "1,1,1,1", "V1+V3": "1,3"}


def tiny(kind: str) -> Workload:
    return Workload(f"tiny-{kind}", kind, TINY_CASES, "", "", "")


@pytest.fixture(scope="module")
def reference(tmp_path_factory) -> Path:
    """Reference `resolve --format json` outputs of the tiny cases."""
    out = tmp_path_factory.mktemp("reference")
    for label, degrees in TINY_DEGREES.items():
        doc = subprocess.run(
            [sys.executable, "-m", "sl2betti.cli", "resolve", degrees, "--format", "json"],
            env=bench.child_env(), capture_output=True, text=True, check=True,
        ).stdout
        (out / reference_name(label)).write_text(doc)
    return out


@pytest.mark.parametrize("kind", ["verify", "resolve"])
def test_end_to_end_run_is_correct(kind, reference):
    result, _ = bench.measure(tiny(kind), seed=3, seconds=0, trace=0, reference=reference)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(TINY_CASES)
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _ in END_TO_END]
    for name, unit in END_TO_END:
        assert metrics[name]["unit"] == unit
        assert metrics[name]["value"] > 0


def test_tampered_reference_fails_every_case(reference, tmp_path):
    for label in TINY_CASES:
        text = (reference / reference_name(label)).read_text()
        (tmp_path / reference_name(label)).write_text(text.replace('"length": 1', '"length": 2'))
    result, _ = bench.measure(tiny("resolve"), seed=3, seconds=0, trace=0, reference=tmp_path)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] == 1


def test_tracer_reports_every_layer_metric_with_exact_counts(reference):
    got = {}
    for kind in ("verify", "resolve"):
        first, second = (
            bench.measure(tiny(kind), seed=seed, seconds=0, trace=1, reference=reference)[0]
            for seed in (1, 2)
        )
        assert first["correct"] and second["correct"]
        assert list(first["metrics"]) == [name for name, _ in PER_LAYER]
        for name in COUNT_METRICS:
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
        got[kind] = {name: m["value"] for name, m in first["metrics"].items()}
    verify, resolve = got["verify"], got["resolve"]
    # verify_case reaches every layer
    for name in (
        "invariants.invariant_basis.calls", "linalg.nullspace.calls",
        "linalg.Echelon.reduce.calls", "linalg.Echelon.add.coef_bits_max",
        "presentation.substitute.calls", "groebner.BuchbergerEngine.run.calls",
        "resolution.resolve.ranks", "resolution.koszul_betti.cap",
        "resolution.verify_complex.ecap", "report.s", "cli.verify_case.s",
    ):
        assert verify[name] > 0, name
    assert 0 < verify["linalg.Echelon.add.useful_ratio"] <= 1
    assert resolve["cli.run.s"] > 0 and resolve["resolution.resolve.ranks"] > 0
    assert resolve["resolution.koszul_betti.cap"] == 0


def test_traced_run_reports_resolve_case_seconds():
    w = Workload("resolve-6V1", "resolve", ("6V1",), "", "", "")
    result, _ = bench.measure(w, seed=1, seconds=0, trace=1)
    assert result["correct"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for name, _ in CASE_METRICS:
        assert (metrics[name] > 0) == (name == case_metric("6V1")), name
    assert metrics["trace_overhead_frac"] > -1


def test_tracer_wraps_every_binding():
    code = """
import sl2betti, sl2betti.cli as cli, sl2betti.invariants as inv
import sl2betti.presentation as pres, sl2betti.resolution as res, sl2betti.linalg as la
from tracer import Tracer
Tracer().install()
wrapped = lambda f: hasattr(f, "__wrapped__")
assert inv.nullspace is pres.nullspace is la.nullspace and wrapped(la.nullspace)
for name in ("resolve", "koszul_betti", "verify_complex"):
    assert getattr(cli, name) is getattr(res, name) is getattr(sl2betti, name)
    assert wrapped(getattr(cli, name))
assert cli.present is pres.present and wrapped(cli.present)
assert cli.minimal_invariant_generators is inv.minimal_invariant_generators
assert wrapped(cli.minimal_invariant_generators)
assert wrapped(la.Echelon.reduce) and wrapped(la.Echelon.add)
assert wrapped(sl2betti.groebner.BuchbergerEngine.run)
"""
    subprocess.run(
        [sys.executable, "-c", code], env=bench.child_env(), cwd=BENCH, check=True,
    )


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        cmd + ["--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
