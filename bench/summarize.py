"""Median and quartiles of each metric over saved benchmark runs.

    python3 bench/run.py --workload oracle --seed 1 > runs/oracle_1.txt
    ...
    python3 bench/summarize.py runs/oracle_*.txt
    python3 bench/summarize.py --baseline runs traces > bench/baseline.json

Reads the last line (the result object) of each file and prints, per
metric, the number of runs, the median, the quartiles and the spread: the
distance between the quartiles as a share of the median, as computed by
`statistics.quantiles(values, n=4)`.  Every run must be correct.

With `--baseline`, files are named `<workload>_<seed>.txt`: untraced runs
in the first directory, traced runs in the second.  It prints the baseline
document: per workload its cases, why it was chosen, the layers it
exercises and bypasses, the end-to-end summary, the per-layer metrics of
the first traced run and whether every count repeated across traced runs,
plus the machine the runs were made on.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import COUNT_METRICS, WORKLOADS  # noqa: E402


def load(path) -> dict:
    with open(path) as fh:
        result = json.loads(fh.read().strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{path}: run was not correct")
    return result


def summarize(paths: List[str]) -> Dict[str, dict]:
    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    for path in paths:
        for name, m in load(path)["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    out = {}
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        out[name] = {
            "unit": units[name], "runs": len(v), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
    return out


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
        cwd=Path(__file__).resolve().parent,
    ).stdout.strip()
    return {
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
        "commit": commit or None,
    }


def baseline(untraced: Path, traced: Path) -> dict:
    def runs(directory: Path, workload: str) -> Dict[int, Path]:
        files = directory.glob(f"{workload}_*.txt")
        return dict(sorted((int(f.stem.rsplit("_", 1)[1]), f) for f in files))

    doc = {
        "note": "Ten untraced runs per workload and two traced runs, seeds as "
        "listed, on the machine below.  Spread is (q3 - q1) / median.",
        "machine": machine(),
        "workloads": {},
    }
    for name, w in WORKLOADS.items():
        plain, traces = runs(untraced, name), runs(traced, name)
        results = [load(f)["metrics"] for f in traces.values()]
        doc["workloads"][name] = {
            "kind": w.kind, "cases": list(w.cases), "why": w.why,
            "exercises": w.exercises, "bypasses": w.bypasses,
            "seeds": list(plain),
            "end_to_end": summarize(list(plain.values())),
            "traced": {
                "seeds": list(traces),
                "counts_identical": all(
                    r[k]["value"] == results[0][k]["value"] for r in results for k in COUNT_METRICS
                ),
                "per_layer": {k: m["value"] for k, m in results[0].items()} if results else {},
            },
        }
    return doc


def main(argv: List[str]) -> int:
    if len(argv) == 3 and argv[0] == "--baseline":
        print(json.dumps(baseline(Path(argv[1]), Path(argv[2])), indent=2))
        return 0
    if not argv or argv[0].startswith("--"):
        print(__doc__, file=sys.stderr)
        return 2
    for name, s in summarize(argv).items():
        print(
            f"{name:<44} n={s['runs']:<3} median {s['median']:<12.6g} "
            f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {s['unit']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
