"""Command-line interface: compute family members, enumerate tilings,
expand generating functions, and verify the identity catalog.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
All results go to stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Sequence

from . import identities, tilings
from . import tribonacci as trib
from .poly import Polynomial

# family -> (function in tribpoly.tribonacci, number of indices); the
# function is looked up when called, as the identity checks do, so that
# whatever replaces a module attribute (a tracer, a test) sees the call
FAMILIES = {
    "trib-number": ("tribonacci_number", 1),
    "trib-poly": ("tribonacci_poly", 1),
    "incomplete-poly": ("incomplete_tribonacci_poly", 2),
    "incomplete-number": ("incomplete_tribonacci_number", 2),
    "b-poly": ("triangle_poly", 2),
    "fib-incomplete": ("incomplete_fibonacci_poly", 2),
    "r-poly": ("overshoot_poly", 2),
}


def _range_arg(text: str) -> tuple[int, int]:
    """Parse 'a..b' (inclusive) or a single 'a' as the degenerate range."""
    lo, sep, hi = text.partition("..")
    if not sep:
        value = int(text)
        return (value, value)
    return (int(lo), int(hi))


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default: text)",
    )
    shared.add_argument(
        "--cap",
        type=int,
        default=tilings.DEFAULT_CAP,
        help=f"enumeration length cap (default: {tilings.DEFAULT_CAP})",
    )
    shared.add_argument(
        "--order",
        type=int,
        default=None,
        help="series truncation order where applicable",
    )

    parser = argparse.ArgumentParser(
        prog="tribpoly",
        description="Exact tribonacci-polynomial toolkit: compute, enumerate, expand, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", parents=[shared], help="evaluate one family member")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("indices", nargs="+", type=int)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser(
        "enumerate", parents=[shared], help="list tilings and their weight distribution"
    )
    p.add_argument("n", type=int)
    p.add_argument(
        "--max-longer",
        type=int,
        default=None,
        help="keep only tilings with at most this many dominos/trominos",
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "verify", parents=[shared], help="check identities over a parameter grid"
    )
    p.add_argument(
        "identity",
        type=str.upper,
        choices=("ALL",) + identities.ALL_IDENTITY_IDS,
        help="identity id, or 'all' for the whole catalog",
    )
    p.add_argument("--n", type=_range_arg, default=None, dest="n_range", help="n range a..b")
    p.add_argument("--s", type=_range_arg, default=None, dest="s_range", help="s range a..b")
    p.add_argument("--h", type=_range_arg, default=None, dest="h_range", help="h range a..b")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "gf", parents=[shared], help="expand a restriction-level generating function"
    )
    p.add_argument("--s", type=int, required=True, help="restriction level")
    p.add_argument("--x1", action="store_true", help="evaluate coefficients at x = 1")
    p.set_defaults(func=_cmd_gf)

    return parser


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_compute(args: argparse.Namespace) -> int:
    name, arity = FAMILIES[args.family]
    if len(args.indices) != arity:
        return _fail_usage(
            f"family '{args.family}' expects {arity} index argument(s), got {len(args.indices)}"
        )
    try:
        value = getattr(trib, name)(*args.indices)
    except ValueError as exc:
        return _fail_usage(str(exc))
    poly = isinstance(value, Polynomial)
    if args.format == "text":
        print(value)
    elif args.format == "json":
        payload = {"family": args.family, "indices": list(args.indices)}
        if poly:
            payload["coeffs"] = value.to_coeff_strings()
        else:
            payload["value"] = str(value)
        print(json.dumps(payload, indent=2))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        if poly:
            writer.writerows([("exponent", "coefficient"), *enumerate(value.coeffs)])
        else:
            writer.writerows([("value",), (value,)])
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        if args.max_longer is not None:
            members = tilings.enumerate_restricted(args.n, args.max_longer, cap=args.cap)
        else:
            members = tilings.enumerate_tilings(args.n, cap=args.cap)
    except (ValueError, tilings.EnumerationCapError) as exc:
        return _fail_usage(str(exc))
    distribution = tilings.weight_distribution(members)
    if args.format == "text":
        for member in members:
            print(member.word())
        print(f"count: {len(members)}")
        print(f"weight: {distribution}")
    elif args.format == "json":
        print(
            json.dumps(
                {
                    "n": args.n,
                    "max_longer": args.max_longer,
                    "count": len(members),
                    "tilings": [m.word() for m in members],
                    "weight": {"coeffs": distribution.to_coeff_strings()},
                },
                indent=2,
            )
        )
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["tiling", "squares", "dominos", "trominos", "weight_exponent"])
        for member in members:
            writer.writerow(
                [member.word(), member.squares, member.dominos, member.trominos, member.weight_exponent]
            )
    return 0


_PARAM_COLUMNS = ("n", "s", "h", "order")


def _cmd_verify(args: argparse.Namespace) -> int:
    config = identities.GridConfig(
        n_range=args.n_range,
        s_range=args.s_range,
        h_range=args.h_range,
        series_order=args.order,
        cap=args.cap,
    )
    wanted = None if args.identity == "ALL" else [args.identity]
    reports = identities.run_grid(config, wanted)
    summary = identities.summarize(reports)
    ok = identities.all_passed(reports)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "reports": [r.to_json_dict() for r in reports],
                    "summary": summary,
                    "ok": ok,
                },
                indent=2,
            )
        )
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["identity_id", *_PARAM_COLUMNS, "passed", "elapsed_ms"])
        for r in reports:
            if r.status not in (identities.PASSED, identities.FAILED):
                continue
            row = [r.identity_id]
            row.extend(r.params.get(col, "") for col in _PARAM_COLUMNS)
            row.extend([str(r.passed).lower(), f"{r.elapsed_ms:.3f}"])
            writer.writerow(row)
    else:
        by_id: dict[str, dict[str, int]] = {}
        for r in reports:
            by_id.setdefault(r.identity_id, dict.fromkeys(identities.summarize([]), 0))
            by_id[r.identity_id][r.status] += 1
        for identity_id, counts in by_id.items():
            print(
                f"{identity_id}: {counts['passed']} passed, {counts['failed']} failed, "
                f"{counts['filtered']} filtered, {counts['resource_limited']} resource-limited"
            )
        for r in reports:
            if r.status == identities.FAILED:
                point = " ".join(f"{k}={v}" for k, v in r.params.items())
                print(f"FAIL {r.identity_id} {point}")
                print(f"  lhs: {r.lhs}")
                print(f"  rhs: {r.rhs}")
        print(f"overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_gf(args: argparse.Namespace) -> int:
    if args.s < 0:
        return _fail_usage(f"restriction level must be >= 0, got {args.s}")
    if args.order is None:
        return _fail_usage("gf requires --order")
    if args.order < 2 * args.s + 1:
        return _fail_usage(
            f"order {args.order} is below the series offset {2 * args.s + 1}; nothing to show"
        )
    series = identities.closed_form_generating_series(args.s, args.order, x1=args.x1)
    if args.format == "text":
        for coefficient in series.coeffs:
            print(coefficient)
    elif args.format == "json":
        print(json.dumps(series.to_json_dict(), indent=2))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["z_power", "coefficient"])
        for power, coefficient in enumerate(series.coeffs):
            writer.writerow([power, str(coefficient)])
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
