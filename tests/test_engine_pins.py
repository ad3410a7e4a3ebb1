"""The Buchberger engine's exact behaviour, pinned element by element.

The files tests/data/engine_*.json hold what the engine produced on fixed
inputs: the basis of `buchberger` on the worked example's relations J,
every level of `resolve` on two catalog cases (syzygies in order, redundant
inputs, input traces and the unreduced basis, in level-minimal and raw
mode), and the basis the kernel search grows on 2V1+2V2.  A change to the
pair update, the task order or the division shows up here even where the
tables stay the same.

Regenerate with `PYTHONPATH=src python tests/test_engine_pins.py`, and only
for a change that is meant to alter the engine's output.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

import pytest

from sl2betti import groebner, presentation, resolution
from sl2betti.cases import BY_LABEL
from sl2betti.groebner import Ideal, buchberger
from sl2betti.invariants import ProblemSpec
from sl2betti.poly import GradedRing, parse_polynomial
from sl2betti.presentation import present
from sl2betti.resolution import regular_variables, resolve
from conftest import J_TEXT, PAPER_WEIGHTS

DATA = Path(__file__).parent / "data"
RESOLVE_CASES = ("3V1+V2", "2V1+2V2")


def _mvec(vec):
    """An MVec as [position, exponent, coefficient] rows, in dict order."""
    return [[pos, list(m), c] for (pos, m), c in vec.items()]


def _poly(p):
    return [[list(m), str(c)] for m, c in p.terms.items()]


class _Recorder:
    """Swaps a module's `BuchbergerEngine` for a subclass that records every
    run that drains the queue, and the basis `reduced_basis` interreduces."""

    def __init__(self, module):
        self.module = module
        self.runs = []
        self.bases = []

    @contextlib.contextmanager
    def active(self):
        base = self.module.BuchbergerEngine
        rec = self

        class Recording(base):
            def run(self, upto=None):
                out = super().run(upto)
                if not self._tasks:
                    rec.runs.append({
                        "basis": [_mvec(self.keyfn.decode_vec(v)) for v in self.basis],
                        "redundant_inputs": sorted(out.redundant),
                        "syzygies": [_mvec(s) for s in out.syzygies],
                        "input_traces": [[i, _mvec(t)] for i, t in out.input_traces],
                    })
                return out

            def reduced_basis(self, order):
                self.run()
                rec.bases.append([_mvec(self.keyfn.decode_vec(v)) for v in self.basis])
                return super().reduced_basis(order)

        self.module.BuchbergerEngine = Recording
        try:
            yield self
        finally:
            self.module.BuchbergerEngine = base


def _presented(label):
    rec = BY_LABEL[label]
    return present(ProblemSpec(rec.degrees, rec.bound), horizon=rec.horizon)


def capture_buchberger_J():
    ring = GradedRing(tuple(f"x{i}" for i in range(1, 11)), PAPER_WEIGHTS)
    J = [parse_polynomial(s, ring) for s in J_TEXT]
    with _Recorder(groebner).active() as rec:
        gb = buchberger(Ideal(ring, J))
    return {"engine_basis": rec.bases[0], "reduced_basis": [_poly(g) for g in gb.elements]}


def capture_resolve(label):
    _, ideal, info = _presented(label)
    reduced = regular_variables(ideal, info.basis).ideal
    out = {}
    for mode, minimal in (("minimal", True), ("raw", False)):
        with _Recorder(resolution).active() as rec:
            resolve(reduced, minimalize_levels=minimal)
        out[mode] = rec.runs
    return out


def capture_kernel(label):
    with _Recorder(presentation).active() as rec:
        _, _, info = _presented(label)
    return {
        "engine_basis": rec.bases[0],
        "reduced_basis": [_poly(g) for g in info.basis.elements],
    }


def _captures():
    yield "engine_buchberger_J.json", capture_buchberger_J
    for label in RESOLVE_CASES:
        yield f"engine_resolve_{label.replace('+', '_')}.json", lambda l=label: capture_resolve(l)
    yield "engine_kernel_2V1_2V2.json", lambda: capture_kernel("2V1+2V2")


def _roundtrip(obj):
    return json.loads(json.dumps(obj))


@pytest.mark.parametrize("name,capture", list(_captures()), ids=lambda v: v if isinstance(v, str) else "")
def test_engine_output_is_pinned(name, capture):
    want = json.loads((DATA / name).read_text())
    got = _roundtrip(capture())
    for key in want:
        assert got[key] == want[key], f"{name}: {key} differs"
    assert got.keys() == want.keys()


if __name__ == "__main__":
    import sys

    for name, capture in _captures():
        (DATA / name).write_text(json.dumps(capture(), separators=(",", ":")) + "\n")
        print(name, file=sys.stderr)
