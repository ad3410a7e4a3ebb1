"""Command-line front end: invariants, kernel, resolve, verify, betti.

Exit codes: 0 all requested checks passed, 1 a check failed, 2 usage or
input error.  Table output is byte-stable across runs; JSON output follows
the report module schema.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .cases import CASES, CaseRecord, case_for_degrees, find_case, parse_degree_list
from .groebner import (
    GroebnerBasis,
    Ideal,
    RationalSeries,
    minimal_generators,
)
from .invariants import (
    ProblemSpec,
    cs_total_dims,
    minimal_invariant_generators,
)
from .poly import (
    GradedRing,
    Polynomial,
    WEIGHTED,
    format_polynomial,
    format_session,
    parse_session,
)
from .presentation import (
    AlgebraMap,
    kernel,
    present,
)
from .report import (
    check_palindromy,
    expected_hd,
    poincare_from_betti,
    render_betti,
    report_json,
)
from .resolution import (
    BettiTable,
    Reduction,
    Resolution,
    betti,
    format_resolution,
    koszul_betti,
    regular_variables,
    resolve,
    verify_complex,
)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# shared pipeline steps
# ---------------------------------------------------------------------------

def _spec_for(degrees: Tuple[int, ...], bound: Optional[int]) -> ProblemSpec:
    if bound is None:
        rec = case_for_degrees(degrees)
        if rec is None:
            raise UsageError(
                f"no built-in degree bound for d = {','.join(map(str, degrees))}; "
                "pass --bound N"
            )
        bound = rec.bound
    return ProblemSpec(degrees, bound)


def _pipeline(degrees: Tuple[int, ...], bound: Optional[int]):
    """Generators and certified kernel; a catalog case uses its horizon."""
    spec = _spec_for(degrees, bound)
    genset = minimal_invariant_generators(spec)
    rec = case_for_degrees(degrees)
    _, ideal, info = present(
        spec, genset=genset, horizon=rec.horizon if rec is not None else None
    )
    return genset, ideal, info


def _resolution_of(red: Reduction) -> Tuple[Resolution, BettiTable]:
    """Minimal resolution of the ideal modulo its `regular_variables`, over
    the ring of the other variables, and its Betti table, which is that of
    R/I.  Every printed table and check reads only its shifts."""
    res = resolve(red.ideal)
    # resolve keeps a minimal generating set at every level, so its chain is
    # already minimal; betti() rejects it loudly if that ever fails
    return res, betti(res)


def _shape(res: Resolution) -> str:
    parts = ["0"]
    for mod in reversed(res.modules[1:]):
        groups = sorted(Counter(mod.shifts).items())
        parts.append(
            " (+) ".join(
                f"R(-{s})" + (f"^{c}" if c > 1 else "") for s, c in groups
            )
        )
    parts.append("R")
    return " -> ".join(parts)


def _poly_in_z(coeffs: Sequence[int]) -> str:
    pieces = []
    for d, c in enumerate(coeffs):
        if not c:
            continue
        mag = abs(c)
        body = "1" if (mag == 1 and d) else str(mag)
        if d:
            body = (body + "*" if mag != 1 else "") + (f"z^{d}" if d > 1 else "z")
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces) or "0"


# ---------------------------------------------------------------------------
# budget heuristics for the expensive verifiers
# ---------------------------------------------------------------------------

# estimated exact row operations each verifier may spend
KOSZUL_BUDGET = 2_000_000_000
EXACTNESS_BUDGET = 60_000_000


def auto_koszul_cap(ring: GradedRing, hf: Sequence[int], j_star: int) -> int:
    """Largest shift cap whose estimated strand-elimination work fits the budget.

    ring and hf are the ring and the Hilbert function of the quotient the
    strands are built over: for `koszul_betti`, the ideal modulo its
    `regular_variables`.
    """
    m = ring.nvars
    # wsub[i][d] = number of i-subsets of the variables with weight sum d
    max_w = sum(ring.weights)
    wsub = [[0] * (max_w + 1) for _ in range(m + 1)]
    wsub[0][0] = 1
    for w in ring.weights:
        for i in range(m, 0, -1):
            for d in range(max_w, w - 1, -1):
                wsub[i][d] += wsub[i - 1][d - w]
    total = 0
    cap = 0
    for j in range(j_star + 1):
        dims = []
        for i in range(m + 1):
            dim = 0
            for d in range(min(j, max_w) + 1):
                if wsub[i][d] and j - d < len(hf):
                    dim += wsub[i][d] * hf[j - d]
            dims.append(dim)
        work = sum(dims[i] * dims[i - 1] for i in range(1, m + 1))
        total += work
        if total > KOSZUL_BUDGET:
            break
        cap = j
    return cap


def auto_exactness_cap(res: Resolution, e_star: int) -> int:
    """Largest degree cap whose estimated exactness-check work fits the budget.

    The strands are counted in the ring of the resolution, which is the ring
    `verify_complex` checks it over.
    """
    counts = RationalSeries({0: 1}, res.ring.weights).coefficients(e_star)
    total = 0
    cap = 0
    for e in range(e_star + 1):
        dims = []
        for mod in res.modules:
            dims.append(sum(counts[e - s] for s in mod.shifts if e - s >= 0))
        work = sum(d * d for d in dims)
        total += work
        if total > EXACTNESS_BUDGET:
            break
        cap = e
    return cap


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    informational: bool = False


@dataclass
class CaseResult:
    label: str
    checks: List[CheckResult] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks if not c.informational)


def verify_case(
    rec: CaseRecord,
    jcap: Optional[int] = None,
    ecap: Optional[int] = None,
) -> CaseResult:
    t0 = time.time()
    out = CaseResult(rec.label)
    say = out.checks.append

    spec = ProblemSpec(rec.degrees, rec.bound)
    genset = minimal_invariant_generators(spec)
    got_w = tuple(sorted(genset.degrees))
    say(
        CheckResult(
            "generators",
            got_w == rec.weights,
            f"degree multiset {got_w}",
        )
    )
    _, ideal, info = present(spec, genset=genset, horizon=rec.horizon)
    rel = sorted(info.relation_degrees)
    say(
        CheckResult(
            "kernel",
            rel == sorted(rec.relation_degrees),
            f"relation degrees {rel}, certified to degree {info.horizon}",
        )
    )
    red = regular_variables(ideal, info.basis)
    res, table = _resolution_of(red)
    say(
        CheckResult(
            "betti",
            table.entries == rec.betti
            and table.length == rec.expected_length
            and table.j_star == rec.expected_j_star,
            f"l = {table.length}, j* = {table.j_star}",
        )
    )

    m = len(genset.generators)
    if m == 0:
        say(
            CheckResult(
                "expected-hd",
                True,
                "no generators (base field); length formula needs m >= 1",
                informational=True,
            )
        )
    else:
        formula = m - (sum(d + 1 for d in rec.degrees) - 3)
        if rec.hd_formula_valid:
            say(
                CheckResult(
                    "expected-hd",
                    expected_hd(spec, m) == table.length,
                    f"m - (sum(d_i+1) - 3) = {formula} vs computed {table.length}",
                )
            )
        else:
            say(
                CheckResult(
                    "expected-hd",
                    True,
                    f"length formula gives {formula} but the true length is "
                    f"{table.length}: the generic stabilizer is positive-"
                    "dimensional, so the dimension count behind the formula "
                    "does not apply",
                    informational=True,
                )
            )

    # Hilbert identity: Betti alternating sum over all m generator weights
    # equals the quotient series of R/I, equals the weight-counting series.
    # The table comes from the reduced resolution, so this re-certifies that
    # the reduction kept the numerator.
    series_b = poincare_from_betti(table, tuple(genset.degrees))
    depth = max(table.j_star, info.horizon)
    cs = cs_total_dims(spec, depth)
    ok_h = series_b.equals(red.series) and series_b.coefficients(depth) == cs
    say(
        CheckResult(
            "hilbert",
            ok_h,
            f"numerator identity and series match to degree {depth}",
        )
    )

    verdict = check_palindromy(table)
    say(CheckResult("palindromy", verdict.holds, str(verdict)))

    # both certificates run modulo the variables that are regular on R/I,
    # in the ring of the resolution; their caps estimate that smaller work
    e_cap = ecap if ecap is not None else auto_exactness_cap(res, table.j_star)
    comp = verify_complex(res, e_cap)
    say(
        CheckResult(
            "complex",
            comp.ok,
            comp.message
            + ("" if e_cap >= table.j_star else f" (exactness capped at degree {e_cap})"),
        )
    )

    if m:
        # setting regular variables to 0 keeps the numerator of the series
        hf = RationalSeries(red.series.numerator, res.ring.weights).coefficients(table.j_star)
        cap = jcap if jcap is not None else auto_koszul_cap(res.ring, hf, table.j_star)
        kt = koszul_betti(red.basis, cap)
        want = {k: v for k, v in rec.betti.items() if k[1] <= cap}
        say(
            CheckResult(
                "koszul",
                kt.entries == want,
                ("full j*" if cap >= table.j_star else f"capped at shift {cap}")
                + f", {len(kt.entries)} entries",
            )
        )
    else:
        say(CheckResult("koszul", True, "trivial for the base field", informational=True))

    out.seconds = time.time() - t0
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_invariants(args) -> int:
    degrees = parse_degree_list(args.degrees)
    spec = _spec_for(degrees, args.bound)
    genset = minimal_invariant_generators(spec)
    ring = genset.cring.ring
    if args.format == "json":
        print(json.dumps({
            "degrees": list(degrees),
            "bound": spec.degree_bound,
            "variables": list(ring.names),
            "generator_degrees": list(genset.degrees),
            "generators": [format_polynomial(g) for g in genset.generators],
        }, indent=2))
        return 0
    blocks = ", ".join(
        f"form {i + 1} (degree {d}): "
        + " ".join(ring.names[v] for v in genset.cring.blocks[i])
        for i, d in enumerate(spec.degrees)
    )
    print(f"# invariants of d = {','.join(map(str, degrees))}; "
          f"{len(genset)} generators, search bound {spec.degree_bound}")
    print(f"# coefficient variables per form: {blocks}")
    print(f"# generator degrees: {' '.join(map(str, genset.degrees))}")
    print(format_session(ring, WEIGHTED, genset.generators), end="")
    return 0


def _load_generator_file(path: str, weights_arg: Optional[str]):
    with open(path) as fh:
        text = fh.read()
    ring, order, polys = parse_session(text)
    if order != WEIGHTED:
        # the kernel and the resolution always work in the weighted order
        clause = f"{order.kind} {order.block}" if order.kind == "block" else order.kind
        raise UsageError(
            f"unsupported clause 'order {clause}': generator files must use "
            "order weighted (or degrevlex)"
        )
    if weights_arg:
        weights = parse_degree_list(weights_arg)
        if len(weights) != ring.nvars:
            raise UsageError(
                f"--weights lists {len(weights)} values for {ring.nvars} variables"
            )
        if ring.weights != weights:
            ring = GradedRing(ring.names, weights)
            polys = [Polynomial._raw(ring, dict(p.terms)) for p in polys]
    return ring, polys


def _kernel_of_file(path: str, weights_arg: Optional[str]) -> Tuple[Ideal, List[int]]:
    """Minimal generators and their degrees of the kernel of x_i -> f_i for
    the images f_i in a generator file; weights_arg, when given, must list
    the image degrees."""
    _, images = _load_generator_file(path, None)
    for f in images:
        if f.is_zero() or not f.is_homogeneous():
            raise UsageError("generator file entries must be nonzero homogeneous")
    weights = tuple(f.weighted_degree() for f in images)
    if weights_arg:
        declared = parse_degree_list(weights_arg)
        if tuple(declared) != weights:
            raise UsageError(
                f"--weights {declared} disagree with image degrees {weights}"
            )
    source = GradedRing(tuple(f"f{i+1}" for i in range(len(images))), weights)
    ker = kernel(AlgebraMap(source, list(images)))
    mins = minimal_generators(ker) if ker.generators else []
    return Ideal(source, [g for g, _ in mins]), [d for _, d in mins]


def _check_source(args) -> None:
    """`kernel` and `resolve` take a degree list or --gens FILE, not both;
    --bound applies to a degree list only."""
    if args.gens is None:
        if args.degrees is None:
            raise UsageError(f"{args.command} needs a degree list or --gens FILE")
    elif args.degrees is not None:
        raise UsageError(f"{args.command} takes a degree list or --gens FILE, not both")
    elif args.bound is not None:
        raise UsageError("--bound applies to a degree list, not to --gens")


def _cmd_kernel(args) -> int:
    _check_source(args)
    if args.gens is not None:
        ideal, degs = _kernel_of_file(args.gens, args.weights)
    else:
        if args.weights is not None:
            raise UsageError("--weights validates the --gens images; it needs --gens")
        degrees = parse_degree_list(args.degrees)
        _, ideal, info = _pipeline(degrees, args.bound)
        degs = info.relation_degrees
        if args.format == "table":
            print(f"# completeness: certified to degree {info.horizon}")
    if args.format == "json":
        print(json.dumps({
            "source_weights": list(ideal.ring.weights),
            "relation_degrees": list(degs),
            "generators": [format_polynomial(g) for g in ideal.generators],
        }, indent=2))
        return 0
    print(f"# minimal kernel generators: {len(ideal.generators)}; "
          f"degrees: {' '.join(map(str, degs)) if degs else '(none)'}")
    print(format_session(ideal.ring, WEIGHTED, ideal.generators), end="")
    return 0


def _print_resolution(
    args,
    ideal: Ideal,
    weights: Sequence[int],
    degrees: Optional[Sequence[int]],
    header: Optional[str],
    gb: Optional[GroebnerBasis] = None,
) -> int:
    """Resolve the ideal and print it as a table (after the header line) or
    as JSON; with --dump, also write the differentials to that file.  gb,
    when given, is the ideal's basis for `regular_variables`.

    The dump writes the differentials over the full ring, so with --dump the
    full ideal is resolved and everything is printed from that resolution.
    """
    if args.dump:
        res = resolve(ideal)
        table = betti(res)
    else:
        res, table = _resolution_of(regular_variables(ideal, gb))
    if args.format == "json":
        print(report_json(table, weights, degrees))
    else:
        verdict = check_palindromy(table)
        series = poincare_from_betti(table, weights)
        if header is not None:
            print(header)
        print("resolution:", _shape(res))
        print()
        print(render_betti(table))
        print()
        print(f"poincare numerator: {_poly_in_z(series.numerator_coefficients())}")
        print(f"palindromic: {'true' if verdict.holds else 'false'}"
              + ("" if verdict.holds else f"  (witness beta_{verdict.witness})"))
    if args.dump:
        with open(args.dump, "w") as fh:
            fh.write(format_resolution(res))
        print(f"# resolution dump written to {args.dump}", file=sys.stderr)
    return 0


def _cmd_resolve(args) -> int:
    _check_source(args)
    if args.gens is not None:
        ideal, _ = _kernel_of_file(args.gens, None)
        return _print_resolution(args, ideal, ideal.ring.weights, None, None)
    degrees = parse_degree_list(args.degrees)
    genset, ideal, info = _pipeline(degrees, args.bound)
    weights = tuple(genset.degrees)
    header = (f"# d = {','.join(map(str, degrees))}; "
              f"generator weights {' '.join(map(str, weights))}")
    return _print_resolution(args, ideal, weights, degrees, header, info.basis)


def _cmd_betti(args) -> int:
    ring, gens = _load_generator_file(args.gens, args.weights)
    for g in gens:
        if not g.is_homogeneous():
            raise UsageError(f"inhomogeneous generator: {format_polynomial(g)}")
    mins = minimal_generators(Ideal(ring, gens)) if gens else []
    header = (f"# minimal generators: {len(mins)} of {len(gens)} given; degrees "
              f"{' '.join(str(d) for _, d in mins) or '(none)'}")
    return _print_resolution(args, Ideal(ring, [g for g, _ in mins]), ring.weights, None, header)


def _cmd_verify(args) -> int:
    for flag, cap in (("--jcap", args.jcap), ("--ecap", args.ecap)):
        if cap is not None and cap < 0:
            raise UsageError(f"{flag} must be a non-negative integer, got {cap}")
    if args.case == "all":
        records = [c for c in CASES if args.include_stretch or not c.stretch]
    else:
        rec = find_case(args.case)
        if rec is None:
            raise UsageError(f"unknown case label {args.case!r}")
        records = [rec]
    all_ok = True
    results = []
    for rec in records:
        result = verify_case(rec, jcap=args.jcap, ecap=args.ecap)
        all_ok = all_ok and result.ok
        results.append(result)
        if args.format == "table":
            status = "PASS" if result.ok else "FAIL"
            print(f"[{status}] {rec.label} ({result.seconds:.1f}s)"
                  + (f"  # {rec.note}" if rec.note else ""))
            for c in result.checks:
                mark = "info" if c.informational else ("ok" if c.ok else "FAIL")
                print(f"    {c.name:<12} {mark:<4} {c.detail}")
    if args.format == "json":
        print(json.dumps({
            "ok": all_ok,
            "cases": [
                {
                    "label": r.label,
                    "ok": r.ok,
                    "seconds": round(r.seconds, 2),
                    "checks": [
                        {
                            "name": c.name,
                            "ok": c.ok,
                            "informational": c.informational,
                            "detail": c.detail,
                        }
                        for c in r.checks
                    ],
                }
                for r in results
            ],
        }, indent=2))
    else:
        print("verify:", "all checks passed" if all_ok else "FAILURES above")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sl2betti",
        description="Exact minimal free resolutions and Betti diagrams of "
        "algebras of SL2-invariants of binary forms.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("invariants", help="minimal generating invariants")
    pi.add_argument("degrees", help="comma-separated form degrees, e.g. 1,1,1,2")
    pi.add_argument("--bound", type=int, default=None, help="generator degree bound")
    pi.add_argument("--format", choices=("table", "json"), default="table")
    pi.set_defaults(func=_cmd_invariants)

    pk = sub.add_parser("kernel", help="minimal presentation-kernel generators")
    pk.add_argument("degrees", nargs="?", default=None)
    pk.add_argument("--gens", help="file of invariant generators (poly grammar)")
    pk.add_argument("--weights", help="expected source weights (validated)")
    pk.add_argument("--bound", type=int, default=None)
    pk.add_argument("--format", choices=("table", "json"), default="table")
    pk.set_defaults(func=_cmd_kernel)

    pr = sub.add_parser("resolve", help="full pipeline: resolution and diagram")
    pr.add_argument("degrees", nargs="?", default=None)
    pr.add_argument("--gens", help="file of invariant generators (poly grammar)")
    pr.add_argument("--bound", type=int, default=None)
    pr.add_argument("--format", choices=("table", "json"), default="table")
    pr.add_argument("--dump", help="write the shift/differential dump to a file")
    pr.set_defaults(func=_cmd_resolve)

    pb = sub.add_parser("betti", help="resolution of an explicit ideal")
    pb.add_argument("--gens", required=True, help="ideal generator file")
    pb.add_argument("--weights", help="ring weights, comma-separated")
    pb.add_argument("--format", choices=("table", "json"), default="table")
    pb.add_argument("--dump", help="write the shift/differential dump to a file")
    pb.set_defaults(func=_cmd_betti)

    pv = sub.add_parser("verify", help="run the golden catalog checks")
    pv.add_argument("case", help="case label (e.g. 3V1+V2) or 'all'")
    pv.add_argument("--jcap", type=int, default=None, help="Koszul shift cap")
    pv.add_argument("--ecap", type=int, default=None, help="exactness degree cap")
    pv.add_argument("--include-stretch", action="store_true",
                    help="include the hd 6/8 stretch cases and V8")
    pv.add_argument("--format", choices=("table", "json"), default="table")
    pv.set_defaults(func=_cmd_verify)
    return p


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # the certificates raise AssertionError naming the check that failed
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
