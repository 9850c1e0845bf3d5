"""Command-line interface: compute family members, enumerate tilings,
expand generating functions, and verify the identity catalog.

Each subcommand computes its result once and hands three views to
``_write``, the one writer: text lines, a JSON document as a callable, and
CSV rows as a generator, so that only the view asked for is built.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
All results go to stdout; diagnostics go to stderr.  A stdout closed
before all output is written (``tribpoly verify all | head``) exits 1
quietly.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from typing import Callable, Iterable, Iterator, Sequence

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
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default: text)",
    )
    capped = argparse.ArgumentParser(add_help=False, parents=[formatted])
    capped.add_argument(
        "--cap",
        type=int,
        default=tilings.DEFAULT_CAP,
        help=f"enumeration length cap (default: {tilings.DEFAULT_CAP})",
    )

    parser = argparse.ArgumentParser(
        prog="tribpoly",
        description="Exact tribonacci-polynomial toolkit: compute, enumerate, expand, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", parents=[formatted], help="evaluate one family member")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("indices", nargs="+", type=int)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser(
        "enumerate", parents=[capped], help="list tilings and their weight distribution"
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
        "verify", parents=[capped], help="check identities over a parameter grid"
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
    p.add_argument("--order", type=int, default=None, help="series order of THM2/COR2/REMARK_A")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "gf", parents=[formatted], help="expand a restriction-level generating function"
    )
    p.add_argument("--s", type=int, required=True, help="restriction level")
    p.add_argument("--order", type=int, required=True, help="series truncation order")
    p.add_argument("--x1", action="store_true", help="evaluate coefficients at x = 1")
    p.set_defaults(func=_cmd_gf)

    return parser


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _write(fmt: str, lines: Iterable, doc: Callable, header: Sequence, rows: Iterable) -> None:
    """Print the view that ``fmt`` names: ``lines``, ``doc()``, or ``header`` and ``rows``."""
    if fmt == "text":
        for line in lines:
            print(line)
    elif fmt == "json":
        print(json.dumps(doc(), indent=2))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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
    key, shown = ("coeffs", value.to_coeff_strings) if poly else ("value", value.__str__)
    _write(
        args.format,
        [value],
        lambda: {"family": args.family, "indices": list(args.indices), key: shown()},
        ("exponent", "coefficient") if poly else ("value",),
        enumerate(value.coeffs) if poly else [(value,)],
    )
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        if args.max_longer is not None:
            members = tilings.enumerate_restricted(args.n, args.max_longer, cap=args.cap)
        else:
            members = tilings.enumerate_tilings(args.n, cap=args.cap)
    except (ValueError, tilings.EnumerationCapError) as exc:
        return _fail_usage(str(exc))
    words = [m.word() for m in members]
    distribution = tilings.weight_distribution(members)
    _write(
        args.format,
        [*words, f"count: {len(words)}", f"weight: {distribution}"],
        lambda: {
            "n": args.n,
            "max_longer": args.max_longer,
            "count": len(words),
            "tilings": words,
            "weight": {"coeffs": distribution.to_coeff_strings()},
        },
        ("tiling", "squares", "dominos", "trominos", "weight_exponent"),
        ((w, m.squares, m.dominos, m.trominos, m.weight_exponent) for w, m in zip(words, members)),
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
    ok = identities.all_passed(reports)
    _write(
        args.format,
        _verify_lines(reports, ok),
        lambda: {
            "reports": [r.to_json_dict() for r in reports],
            "summary": identities.summarize(reports),
            "ok": ok,
        },
        ("identity_id", *_PARAM_COLUMNS, "passed", "elapsed_ms"),
        (
            [r.identity_id, *(r.params.get(col, "") for col in _PARAM_COLUMNS)]
            + [str(r.passed).lower(), f"{r.elapsed_ms:.3f}"]
            for r in reports
            if r.status in (identities.PASSED, identities.FAILED)
        ),
    )
    return 0 if ok else 1


def _verify_lines(reports: Sequence[identities.IdentityReport], ok: bool) -> Iterator[str]:
    """The text view of a verify run: each identity's status counts, each
    failed point with its two sides, then the verdict."""
    for identity_id, group in itertools.groupby(reports, key=lambda r: r.identity_id):
        counts = identities.summarize(list(group)).items()
        yield f"{identity_id}: " + ", ".join(f"{n} {s.replace('_', '-')}" for s, n in counts)
    for r in reports:
        if r.status == identities.FAILED:
            point = " ".join(f"{k}={v}" for k, v in r.params.items())
            yield f"FAIL {r.identity_id} {point}\n  lhs: {r.lhs}\n  rhs: {r.rhs}"
    yield f"overall: {'PASS' if ok else 'FAIL'}"


def _cmd_gf(args: argparse.Namespace) -> int:
    if args.s < 0:
        return _fail_usage(f"restriction level must be >= 0, got {args.s}")
    if args.order < 2 * args.s + 1:
        return _fail_usage(
            f"order {args.order} is below the series offset {2 * args.s + 1}; nothing to show"
        )
    series = identities.closed_form_generating_series(args.s, args.order, x1=args.x1)
    coeffs = series.coeffs
    _write(args.format, coeffs, series.to_json_dict, ("z_power", "coefficient"), enumerate(coeffs))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to devnull, so
        # the flush at exit cannot raise again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
