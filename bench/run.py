"""sl2betti benchmark.

    python3 bench/run.py --workload resolve --seed 1 --seconds 42 --trace 0
    python3 bench/run.py --workload all          # every workload in turn

Run from anywhere inside a checkout; the program is imported from `src/`.
One closed-loop caller runs one pass at a time.  Each pass is a fresh
interpreter (`worker.py`) that runs every case of the workload once, in an
order drawn from the seed, and checks every output.  Passes repeat until
`--seconds` would be exceeded (at least one).  Set-up is timed separately:
`setup_s` is the median of several `python3 -c "import sl2betti"` runs.

Machine speed on a shared host swings by 20% and more within minutes,
which would swamp any change under test.  So a fixed pure-Python
calibration kernel, independent of sl2betti, is timed in this process
around the set-up samples and after every pass, and each measurement is
scaled by `CAL_REF_S / calibration` (the mean of the calibrations around
it) into reference seconds.  `wall_ref_s` and `setup_s` are in those units;
the raw seconds are printed as well.

With `--trace 0` the metrics are the end-to-end ones, medians over the
passes.  With `--trace 1` every untraced pass is followed by a traced pass
of the same case order, and the metrics are the per-layer ones: from the
traced passes (times as medians, counts from the first traced pass), the
resolve cases' reference seconds from the untraced passes, and
`trace_overhead_frac` from both in reference seconds.  Human-readable lines come first; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Exits 2 without a result if the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"
sys.path.insert(0, str(BENCH))

from workloads import (  # noqa: E402
    CASE_METRICS, END_TO_END, PER_LAYER, TRACED, WORKLOADS, Workload, case_key, case_metric,
    layer_metrics,
)

RUN_LIMIT_S = 165.0      # one workload's run, set-up included, stays below this
SETUP_SAMPLES = 15
CAL_REF_S = 0.18         # calibration seconds that count as reference speed
CAL_SAMPLES = 3


class Pass:
    """One worker process: per-case outcome and seconds, pass totals."""

    def __init__(self, cases: List[str], lines: List[dict]):
        done = {d["case"]: d for d in lines if "case" in d}
        self.ok = {c: bool(done.get(c, {}).get("ok")) for c in cases}
        self.case_s = {c: done[c]["s"] for c in cases if c in done}
        totals = next((d for d in lines if "wall_s" in d), {})
        self.wall_s = sum(self.case_s.values())
        self.peak_rss_mb = totals.get("peak_rss_mb", 0.0)
        self.layers = totals.get("layers")
        self.scale = 1.0     # reference seconds per measured second

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.ok.values())


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: Dict[str, str]) -> float:
    """Median seconds for interpreter start plus `import sl2betti`."""
    cmd = [sys.executable, "-c", "import sl2betti"]
    subprocess.run(cmd, env=env, check=True)   # writes bytecode caches; untimed
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(perf_counter() - t0)
    return median(times)


def calibration_kernel() -> None:
    """Fixed work shaped like sl2betti's inner loops: dicts keyed by tuples,
    big-integer and Fraction arithmetic, gcd, sorting."""
    rows = {}
    big = 3 ** 120
    for i in range(1, 30001):
        key = (i % 101, i % 7, i % 3)
        rows[key] = rows.get(key, 0) + big * i
        if i % 5 == 0:
            rows[(i,)] = Fraction(i, i % 17 + 1)
    acc = Fraction(0)
    for k, v in sorted(rows.items(), key=lambda kv: kv[0]):
        acc += Fraction(v) / (k[0] + 1)
        gcd(acc.numerator, 1234567)


def calibrate() -> float:
    """Median seconds of the calibration kernel."""
    times = []
    for _ in range(CAL_SAMPLES):
        t0 = perf_counter()
        calibration_kernel()
        times.append(perf_counter() - t0)
    return median(times)


def run_pass(
    w: Workload, order: List[str], trace: int, env: Dict[str, str], timeout: float,
    reference: Path = REFERENCE,
) -> Pass:
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--kind", w.kind,
        "--cases", ",".join(order), "--trace", str(trace),
        "--reference", str(reference),
    ]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except ValueError:
            continue
    return Pass(order, [d for d in lines if isinstance(d, dict)])


def measure(w: Workload, seed: int, seconds: float, trace: int, reference: Path = REFERENCE):
    """Run passes of one workload.

    Returns the result object and details for the human-readable lines:
    pass counts, raw medians, and the median seconds of each case over the
    untraced passes.
    """
    deadline = perf_counter() + RUN_LIMIT_S
    env = child_env()
    rng = random.Random(seed)
    cal_before = calibrate()
    raw_setup_s = measure_setup(env)
    cal = calibrate()
    setup_s = raw_setup_s * CAL_REF_S / ((cal_before + cal) / 2)
    start = perf_counter()
    plain: List[Pass] = []
    traced: List[Pass] = []
    while True:
        order = list(w.cases)
        rng.shuffle(order)
        for t in (0, 1) if trace else (0,):
            p = run_pass(w, order, t, env, deadline - perf_counter(), reference)
            cal_after = calibrate()
            p.scale = CAL_REF_S / ((cal + cal_after) / 2)
            cal = cal_after
            (traced if t else plain).append(p)
        elapsed = perf_counter() - start
        per_round = elapsed / len(plain)
        if elapsed + per_round > seconds or perf_counter() + 1.5 * per_round > deadline:
            break

    passes = plain + traced
    attempted = sum(len(p.ok) for p in passes)
    failed = sum(p.failed for p in passes)
    wall_s = median(p.wall_s for p in plain)
    wall_ref_s = median(p.wall_s * p.scale for p in plain)

    def case_medians(scaled: bool) -> Dict[str, float]:
        return {
            c: median(p.case_s[c] * (p.scale if scaled else 1.0) for p in plain if c in p.case_s)
            for c in w.cases if any(c in p.case_s for p in plain)
        }

    if trace:
        values = layer_metrics(traced[0].layers or {})
        for name, unit in TRACED:
            if unit == "s":
                values[name] = median(layer_metrics(p.layers or {})[name] for p in traced)
        case_ref_s = {case_metric(c): s for c, s in case_medians(scaled=True).items()}
        values.update({name: case_ref_s.get(name, 0.0) for name, _ in CASE_METRICS})
        traced_ref_s = median(p.wall_s * p.scale for p in traced)
        # no case finished in any untraced pass: the run failed, report 0
        values["trace_overhead_frac"] = traced_ref_s / wall_ref_s - 1 if wall_ref_s else 0.0
        units = PER_LAYER
    else:
        values = {
            "wall_ref_s": wall_ref_s,
            "setup_s": setup_s,
            "peak_rss_mb": median(p.peak_rss_mb for p in plain),
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    detail = {
        "passes": (len(plain), len(traced)),
        "wall_s": wall_s,
        "setup_s": raw_setup_s,
        "scale": median(p.scale for p in plain),
        "case_s": case_medians(scaled=False),
    }
    return result, detail


def describe(w: Workload, seed: int, result: dict, detail: dict) -> List[str]:
    """Human-readable lines: every metric by name with its unit."""
    n_plain, n_traced = detail["passes"]
    lines = [
        f"# workload {w.name} ({w.kind}: {', '.join(w.cases)}), seed {seed}, "
        f"{n_plain} untraced + {n_traced} traced passes; "
        f"Python {sys.version.split()[0]}, nproc {os.cpu_count()}",
    ]
    for name, m in result["metrics"].items():
        lines.append(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    fail_frac = result["failed"] / result["attempted"]
    lines.append(
        f"{'fail_frac':<44} {fail_frac:>14.6g} ratio "
        f"({result['failed']} of {result['attempted']} cases)"
    )
    lines.append(f"{'raw wall_s':<44} {detail['wall_s']:>14.6g} s")
    lines.append(f"{'raw setup_s':<44} {detail['setup_s']:>14.6g} s")
    lines.append(f"{'reference s per raw s':<44} {detail['scale']:>14.6g} ratio")
    for label, s in detail["case_s"].items():
        lines.append(f"{'raw case_s.' + case_key(label):<44} {s:>14.6g} s")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description="sl2betti benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=42.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "sl2betti" / "__init__.py").is_file():
        print(f"error: no sl2betti sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        w = WORKLOADS[name]
        result, detail = measure(w, args.seed, args.seconds, args.trace)
        print("\n".join(describe(w, args.seed, result, detail)), flush=True)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
