"""Command-line front door: build algebras, run verification suites, emit reports.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage error.
A reader that closes standard output early, as ``head`` does, ends the
process by SIGPIPE where the platform has it, so neither a traceback nor one
of these codes reports a verdict that was never written.  The environment
variable NULLVAR_MAX_G caps the ambient algebra dimension (default 10);
raise it to admit larger types.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import sys
from datetime import datetime, timezone

from . import __version__
from .algebra import Subspace, build_algebra
from .grassmann import equation_set, linear_membership, plucker
from .linalg import parse_rational
from .roots import UnsupportedTypeError, algebra_dimension, build_root_datum, dim_gamma_two_rho, parse_type_label
from .suites import SUITES, SuiteConfig, run_suites
from .variety import chart, degenerate, is_nullspace, parabolic_profile

DEFAULT_MAX_G = 10
# argparse takes a value that starts with "-" and is not a single number for the next option, so
# a list with a leading minus sign is joined to its flag by "="
T_HELP = "comma-separated rationals, one per simple root; a leading minus needs the form --t=-1,2"


class UsageError(Exception):
    pass


def _max_g() -> int:
    raw = os.environ.get("NULLVAR_MAX_G", str(DEFAULT_MAX_G))
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"NULLVAR_MAX_G must be an integer, got {raw!r}") from exc


def _load_datum(label: str):
    """The root datum of ``label``, built only once its dimension is known to be within the cap."""
    family, rank = parse_type_label(label)
    g, cap = algebra_dimension(family, rank), _max_g()
    if g > cap:
        raise UsageError(f"type {label} has dimension {g} above the cap {cap}; raise NULLVAR_MAX_G to allow it")
    return build_root_datum(family, rank)


def _parse_fractions(raw: str, expected: int, what: str):
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != expected:
        raise UsageError(f"{what} needs {expected} comma-separated values, got {len(parts)}")
    try:
        return tuple(parse_rational(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed {what}: {raw!r} ({exc})") from exc


def _parse_ints(raw: str, expected: int, what: str):
    vals = _parse_fractions(raw, expected, what)
    if any(v.denominator != 1 for v in vals):
        raise UsageError(f"{what} must be integers")
    return tuple(int(v) for v in vals)


def _dump(data: dict, fh) -> None:
    """Stream ``data`` into ``fh`` as indented JSON and a newline, without building the whole text."""
    json.dump(data, fh, indent=2)
    fh.write("\n")


def _write(out: str, data: dict | None, mode: str = "w") -> None:
    """``_dump`` ``data`` into the file ``out``; with None, only open it, which checks that it can be written."""
    try:
        with open(out, mode) as fh:
            if data is not None:
                _dump(data, fh)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror}") from exc


def _emit(data: dict, out: str | None) -> None:
    if out:
        _write(out, data)
    else:
        _dump(data, sys.stdout)


def cmd_info(args) -> int:
    rd = _load_datum(args.type)
    payload = {
        "type": rd.label(),
        "g": rd.g,
        "l": rd.rank,
        "d": rd.d,
        "positive_roots": rd.n_positive,
        "dim_gamma_2rho": dim_gamma_two_rho(rd),
    }
    print(json.dumps(payload))
    return 0


def cmd_verify(args) -> int:
    rd = _load_datum(args.type)
    corrupt = None
    if args.corrupt:
        corrupt = _parse_ints(args.corrupt, 3, "--corrupt")
        if any(i < 0 or i >= rd.g for i in corrupt):
            raise UsageError("--corrupt indices out of range")
        if corrupt[0] == corrupt[1]:
            raise UsageError("--corrupt needs I != J: C_ii^k is shifted and shifted back")
    for flag, value in (("--samples", args.samples), ("--chart-samples", args.chart_samples)):
        if value < 1:
            raise UsageError(f"{flag} must be at least 1, got {value}")
    config = SuiteConfig(
        family=rd.family,
        rank=rd.rank,
        suite=args.suite,
        seed=args.seed,
        samples=args.samples,
        chart_samples=args.chart_samples,
        corrupt=corrupt,
    )
    if args.out:
        # an unwritable path fails before the suites run; appending nothing truncates nothing
        _write(args.out, None, "a")
    report = run_suites(config)
    if not args.no_timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    _emit(report, args.out)
    if args.out:
        failed = [r["name"] for r in report["records"] if not r["ok"]]
        status = "ok" if report["ok"] else f"FAILED ({len(failed)}): " + ", ".join(failed[:5])
        print(f"{rd.label()} suite={args.suite} records={len(report['records'])} {status}")
    return 0 if report["ok"] else 1


def cmd_chart(args) -> int:
    rd = _load_datum(args.type)
    L = build_algebra(rd)
    t = _parse_fractions(args.t, rd.rank, "--t")
    _emit(chart(L, t).to_json(), args.out)
    return 0


def cmd_membership(args) -> int:
    rd = _load_datum(args.type)
    L = build_algebra(rd)
    try:
        with open(args.basis) as fh:
            data = json.load(fh)
        S = Subspace.from_json(L, data)
    except (OSError, ValueError, KeyError) as exc:
        raise UsageError(f"cannot read subspace from {args.basis}: {exc}") from exc
    payload = {"dim": S.dim, "is_nullspace": is_nullspace(L, S)}
    if S.dim == L.d:
        payload["linear_membership"] = linear_membership(L, plucker(L, S))
    _emit(payload, args.out)
    return 0


def cmd_equations(args) -> int:
    rd = _load_datum(args.type)
    L = build_algebra(rd)
    _emit(equation_set(L), args.out)
    return 0


def cmd_degenerate(args) -> int:
    rd = _load_datum(args.type)
    L = build_algebra(rd)
    t = _parse_fractions(args.t, rd.rank, "--t")
    weight = _parse_ints(args.weight, rd.rank, "--weight")
    try:
        limit = degenerate(L, chart(L, t), weight)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit(limit.to_json(), args.out)
    return 0


def cmd_orbits(args) -> int:
    rd = _load_datum(args.type)
    L = build_algebra(rd)
    rows = []
    for pattern in itertools.product((0, 1), repeat=rd.rank):
        nonzero = [i for i, x in enumerate(pattern) if x]
        dim_p, included = parabolic_profile(L, chart(L, pattern))
        rows.append(
            {
                "pattern": list(pattern),
                "I": nonzero,
                "codim": rd.rank - len(nonzero),
                "dim_parabolic": dim_p,
                "negative_simple_spaces": list(included),
            }
        )
    _emit({"type": rd.label(), "orbits": rows}, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullvar",
        description="Exact verification of maximal nullspace varieties of the invariant trilinear form.",
    )
    parser.add_argument("--version", action="version", version=f"nullvar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="dimension bookkeeping for a type")
    p_info.add_argument("--type", required=True, help="type label such as A2 or C2")
    p_info.set_defaults(fn=cmd_info)

    p_verify = sub.add_parser(
        "verify",
        help="run verification suites and write a report",
        description="Run the named verification suites and write a JSON report. The exterior suite checks "
        "the zeta identity on every basis wedge of one weight block per Weyl orbit (of every block when the "
        "Tits lifts of the simple reflections are not certified automorphisms), and the vanishing squares and "
        "the invariance of the wedge and contraction operators on the degrees that decide them.",
    )
    p_verify.add_argument("--type", required=True)
    p_verify.add_argument("--suite", default="all", choices=("all", *SUITES))
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--samples", type=int, default=200, help="membership equivalence sample count")
    p_verify.add_argument("--chart-samples", type=int, default=50, dest="chart_samples")
    p_verify.add_argument("--corrupt", default=None, metavar="I,J,K",
                          help="testing hook: shift the structure constant C_ij^k (I != J) before verifying")
    p_verify.add_argument("--out", default=None, help="write the JSON report to this path")
    p_verify.add_argument("--no-timestamp", action="store_true", dest="no_timestamp")
    p_verify.set_defaults(fn=cmd_verify)

    p_chart = sub.add_parser("chart", help="nullspace from chart parameters")
    p_chart.add_argument("--type", required=True)
    p_chart.add_argument("--t", required=True, help=T_HELP)
    p_chart.add_argument("--out", default=None)
    p_chart.set_defaults(fn=cmd_chart)

    p_mem = sub.add_parser("membership", help="test a subspace from a JSON file")
    p_mem.add_argument("--type", required=True)
    p_mem.add_argument("--basis", required=True, help="path to a subspace JSON file")
    p_mem.add_argument("--out", default=None)
    p_mem.set_defaults(fn=cmd_membership)

    p_eq = sub.add_parser("equations", help="emit the linear equation set on Plucker coordinates")
    p_eq.add_argument("--type", required=True)
    p_eq.add_argument("--out", default=None)
    p_eq.set_defaults(fn=cmd_equations)

    p_deg = sub.add_parser("degenerate", help="limit of a chart point under a one-parameter weight")
    p_deg.add_argument("--type", required=True)
    p_deg.add_argument("--t", required=True, help=T_HELP)
    p_deg.add_argument("--weight", required=True,
                       help="comma-separated integers, one per simple root; a leading minus needs the form --weight=-1,-2")
    p_deg.add_argument("--out", default=None)
    p_deg.set_defaults(fn=cmd_degenerate)

    p_orb = sub.add_parser("orbits", help="orbit bookkeeping over the chart zero patterns")
    p_orb.add_argument("--type", required=True)
    p_orb.add_argument("--out", default=None)
    p_orb.set_defaults(fn=cmd_orbits)

    return parser


def main(argv=None) -> int:
    if hasattr(signal, "SIGPIPE"):
        # Python turns SIGPIPE into BrokenPipeError; the default action ends the process quietly instead
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, UnsupportedTypeError) as exc:
        # unknown families, malformed labels and ranks below a family's minimum are usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
