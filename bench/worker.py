"""One benchmark pass in a fresh interpreter.

    PYTHONPATH=src python3 bench/worker.py --kind resolve --cases 6V1,4V2 \
        --trace 0 --reference bench/reference

Runs the cases in the order given, prints one JSON line per case as it
finishes (`{"case", "ok", "s", "error"}`) and a last line with the pass
totals (`{"wall_s", "peak_rss_mb", "layers"}`).  `layers` holds the tracer's
raw aggregates when `--trace 1`, else null.  Only these lines go to stdout;
the program's own output is captured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from sl2betti import cases as catalog
from sl2betti import cli

from workloads import reference_name


def check_verify(label: str, reference: Path) -> None:
    rec = catalog.find_case(label)
    result = cli.verify_case(rec)
    if not result.ok:
        failed = [c.name for c in result.checks if not c.ok and not c.informational]
        raise AssertionError(f"verify_case failed checks {failed}")


def check_resolve(label: str, reference: Path) -> None:
    rec = catalog.find_case(label)
    argv = ["resolve", ",".join(map(str, rec.degrees)), "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    if code != 0:
        raise AssertionError(f"exit code {code}")
    text = out.getvalue()
    got = {(i, j): b for i, j, b in json.loads(text)["betti"]}
    if got != rec.betti:
        raise AssertionError("Betti table differs from the catalog")
    if text != (reference / reference_name(label)).read_text():
        raise AssertionError("output differs from the reference bytes")


CHECKS = {"verify": check_verify, "resolve": check_resolve}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--kind", choices=sorted(CHECKS), required=True)
    p.add_argument("--cases", required=True, help="comma-separated catalog labels")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", type=Path, required=True)
    args = p.parse_args(argv)
    check = CHECKS[args.kind]
    emit = sys.stdout

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    wall = 0.0
    for label in args.cases.split(","):
        error = None
        t0 = perf_counter()
        try:
            check(label, args.reference)
        except Exception as exc:  # a failed case is reported, never raised
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        s = perf_counter() - t0
        wall += s
        emit.write(json.dumps({"case": label, "ok": error is None, "s": s, "error": error}) + "\n")
        emit.flush()

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit.write(json.dumps({
        "wall_s": wall,
        "peak_rss_mb": peak_kb * 1024 / 1e6,
        "layers": tracer.metrics() if tracer else None,
    }) + "\n")
    emit.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
