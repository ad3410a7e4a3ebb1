"""Write every deterministic CLI output of the catalog into one directory.

Usage: PYTHONPATH=src python tools/record_outputs.py OUTDIR

Two trees written by two versions of the program are byte-identical iff
`diff -r OUTDIR_A OUTDIR_B` prints nothing.  The outputs, all with
`--format json`:

- `invariants <d> --bound <b>` on every catalog case;
- `kernel <d>` on every case;
- `resolve <d>` on the non-stretch cases plus 6V1, 2V1+2V2 and V8;
- `resolve 1,1,1,2 --dump` and `resolve 2,2,2,2 --dump`, the dump files;
- `verify all` and `verify 2V1+2V2`, each with the `seconds` fields removed;
- the `--gens` paths: the table outputs of `invariants 1,1,2`,
  `invariants 1,1,1,2` and `kernel 1,1,2,2` are written as generator
  files, then read back by `resolve --gens`, `kernel --gens` and
  `betti --gens` respectively; the `betti --gens` read-back runs once more
  with `--dump`, and its dump file is kept.

Each file holds the exit code on its first line, then stdout; the
generator files and the dump files hold their contents alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from typing import List

from sl2betti.cases import CASES
from sl2betti.cli import run

RESOLVE_STRETCH = ("6V1", "2V1+2V2", "V8")
DUMPS = ("1,1,1,2", "2,2,2,2")
VERIFY = ("all", "2V1+2V2")
# (command writing a generator file, degrees, command reading it back)
GENS = (
    ("invariants", "1,1,2", "resolve"),
    ("invariants", "1,1,1,2", "kernel"),
    ("kernel", "1,1,2,2", "betti"),
)


def _capture(argv: List[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return f"{code}\n{out.getvalue()}"


def _name(label: str) -> str:
    return label.replace("+", "_")


def record(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)

    def write(name: str, argv: List[str]) -> None:
        print(name, file=sys.stderr, flush=True)
        (outdir / name).write_text(_capture(argv))

    for rec in CASES:
        d = ",".join(map(str, rec.degrees))
        write(f"invariants_{_name(rec.label)}.json",
              ["invariants", d, "--bound", str(rec.bound), "--format", "json"])
        write(f"kernel_{_name(rec.label)}.json", ["kernel", d, "--format", "json"])
        if not rec.stretch or rec.label in RESOLVE_STRETCH:
            write(f"resolve_{_name(rec.label)}.json", ["resolve", d, "--format", "json"])
    for d in DUMPS:
        dump = outdir / f"dump_{d.replace(',', '')}.txt"
        write(f"dump_{d.replace(',', '')}.stdout", ["resolve", d, "--dump", str(dump)])
    for label in VERIFY:
        name = f"verify_{_name(label)}.json"
        text = _capture(["verify", label, "--format", "json"])
        code, _, body = text.partition("\n")
        got = json.loads(body)
        for case in got["cases"]:
            del case["seconds"]
        print(name, file=sys.stderr, flush=True)
        (outdir / name).write_text(f"{code}\n{json.dumps(got, indent=2)}\n")
    for source, d, reader in GENS:
        gens = outdir / f"gens_{source}_{d.replace(',', '')}.txt"
        code, _, body = _capture([source, d]).partition("\n")
        if code != "0":
            sys.exit(f"{source} {d} exited {code}")
        print(gens.name, file=sys.stderr, flush=True)
        gens.write_text(body)
        write(f"{reader}_gens_{d.replace(',', '')}.json",
              [reader, "--gens", str(gens), "--format", "json"])
        if reader == "betti":
            dump = outdir / f"dump_betti_gens_{d.replace(',', '')}.txt"
            write(f"{dump.stem}.stdout", [reader, "--gens", str(gens), "--dump", str(dump)])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: record_outputs.py OUTDIR")
    record(Path(sys.argv[1]))
