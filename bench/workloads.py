"""The benchmark's workloads and metric definitions.

Each workload is a fixed list of golden-catalog cases run through a public
entry point.  `verify` workloads call `sl2betti.cli.verify_case(record)` and
require `CaseResult.ok`; `resolve` workloads call
`sl2betti.cli.run(["resolve", <degrees>, "--format", "json"])` and require
exit code 0, the catalog Betti table and stdout byte-identical to the
reference file in `reference/`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "verify" or "resolve"
    cases: Tuple[str, ...]    # catalog labels
    why: str
    exercises: str
    bypasses: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="hypersurface",
            kind="verify",
            cases=("V5",),
            why="verify_case on V5 (n = 1): the generator search and kernel "
            "take ~100% of the time, in ~400-bit nullspaces and _ImageCache "
            "products; target of the modular nullspace item",
            exercises="invariants.invariant_basis, linalg (large coefficients), "
            "presentation.kernel_by_degrees and substitute",
            bypasses="groebner and resolution (about 0 s); multigrading gains "
            "nothing when n = 1",
        ),
        Workload(
            name="oracle",
            kind="verify",
            cases=("3V1+V2",),
            why="verify_case on 3V1+V2, the worked example: the uncapped "
            "Koszul oracle at j* = 17 is ~90% of the time, Echelon sees 159k "
            "3-bit rows, half dependent; target of the multigrading item",
            exercises="resolution.koszul_betti and verify_complex, linalg "
            "(small coefficients, many dependent rows)",
            bypasses="invariants and presentation (generators plus kernel "
            "about 0.03 s)",
        ),
        Workload(
            name="resolve",
            kind="resolve",
            cases=("6V1", "4V2", "V1+3V2", "2V1+2V2"),
            why="`sl2betti resolve <d> --format json` at hd 5 and 6: "
            "BuchbergerEngine.run (module bases, Schreyer syzygies) is ~93% "
            "of the time; target of _divide and resolve_level work",
            exercises="groebner.BuchbergerEngine.run, resolution.resolve",
            bypasses="linalg (about 0 s); no certificates run",
        ),
    )
}

# end-to-end metrics, measured with tracing off; the times are seconds
# scaled to reference machine speed by the calibration in run.py
END_TO_END = (
    ("wall_ref_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer metrics from the tracer: (name, unit)
TRACED = (
    ("invariants.minimal_invariant_generators.s", "s"),
    ("invariants.invariant_basis.calls", "count"),
    ("invariants.invariant_basis.s", "s"),
    ("linalg.nullspace.calls", "count"),
    ("linalg.nullspace.s", "s"),
    ("linalg.nullspace.columns", "count"),
    ("linalg.nullspace.rank", "count"),
    ("linalg.Echelon.reduce.calls", "count"),
    ("linalg.Echelon.reduce.s", "s"),
    ("linalg.Echelon.add.calls", "count"),
    ("linalg.Echelon.add.useful_ratio", "ratio"),
    ("linalg.Echelon.add.coef_bits_max", "bits"),
    ("presentation.present.s", "s"),
    ("presentation.kernel_by_degrees.s", "s"),
    ("presentation.kernel_by_degrees.self_s", "s"),
    ("presentation.substitute.calls", "count"),
    ("presentation.substitute.s", "s"),
    ("groebner.BuchbergerEngine.run.calls", "count"),
    ("groebner.BuchbergerEngine.run.s", "s"),
    ("groebner.BuchbergerEngine.run.basis", "count"),
    ("groebner.BuchbergerEngine.run.syzygies", "count"),
    ("groebner.buchberger.s", "s"),
    ("groebner.hilbert_series_quotient.s", "s"),
    ("resolution.resolve.s", "s"),
    ("resolution.resolve.self_s", "s"),
    ("resolution.resolve.ranks", "count"),
    ("resolution.minimize.s", "s"),
    ("resolution.koszul_betti.s", "s"),
    ("resolution.koszul_betti.self_s", "s"),
    ("resolution.koszul_betti.cap", "count"),
    ("resolution.verify_complex.s", "s"),
    ("resolution.verify_complex.ecap", "count"),
    ("report.s", "s"),
    ("cli.verify_case.s", "s"),
    ("cli.verify_case.self_s", "s"),
    ("cli.run.s", "s"),
    ("cli.run.self_s", "s"),
)


def case_key(label: str) -> str:
    """A catalog label in file and metric names: `+` becomes `_`."""
    return label.replace("+", "_")


def case_metric(label: str) -> str:
    return "case_ref_s." + case_key(label)


# seconds per case of the resolve workload, from the untraced passes of a
# traced run and scaled like `wall_ref_s`, so a slowdown of a small case
# does not hide inside the 2V1+2V2 total; 0 on the other workloads
CASE_METRICS = tuple((case_metric(c), "s") for c in WORKLOADS["resolve"].cases)

PER_LAYER = TRACED + CASE_METRICS + (("trace_overhead_frac", "ratio"),)

# per-layer metrics that are exact counts: equal across traced runs of one commit
COUNT_METRICS = tuple(name for name, unit in TRACED if unit in ("count", "bits"))


def reference_name(label: str) -> str:
    """File name of a case's reference output."""
    return case_key(label) + ".json"


def layer_metrics(raw: Dict[str, float]) -> Dict[str, float]:
    """TRACED values of one traced pass from the tracer's raw aggregates.

    Spans that never ran read 0.
    """
    offered = raw.get("linalg.Echelon.add.calls", 0)
    derived = {
        "linalg.Echelon.add.useful_ratio":
            raw.get("linalg.Echelon.add.useful", 0) / offered if offered else 0.0,
        "linalg.Echelon.add.coef_bits_max": raw.get("linalg.Echelon.add.bits", 0),
    }
    return {name: derived.get(name, raw.get(name, 0)) for name, _ in TRACED}
