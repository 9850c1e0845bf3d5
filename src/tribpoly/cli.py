"""Command-line interface: compute family members, enumerate tilings,
expand generating functions, and verify the identity catalog.

Each subcommand computes its result once and hands three views to
``_write``, the one writer: text lines, a JSON document as a callable, and
CSV rows as a generator, so that only the view asked for is built.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
``main`` is the one place that turns bad input into exit 2: the
``ValueError``, ``OverflowError``, ``MemoryError`` or ``EnumerationCapError``
a subcommand raises, before any output, becomes one ``error:`` line on
stderr.  Results go to stdout.  A stdout closed before all output is
written (``tribpoly verify all | head``) exits 1 quietly.

Only ``poly`` and ``tribonacci`` load with this module; every other module
loads in the commands that use it.  ``gf`` adds ``generating`` and
``series``, ``enumerate`` adds ``tilings``, ``verify`` adds ``identities``
with the rest and ``dataclasses``, and ``csv`` loads for CSV output alone.
The parser reads the identity ids and the enumeration cap only when it
shows or checks them, so ``compute`` starts without any of these.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from . import tribonacci as trib
from .poly import Polynomial

if TYPE_CHECKING:
    from . import identities
    from .series import TruncatedSeries

FAMILIES = {
    "trib-number": trib.tribonacci_number,
    "trib-poly": trib.tribonacci_poly,
    "incomplete-poly": trib.incomplete_tribonacci_poly,
    "incomplete-number": trib.incomplete_tribonacci_number,
    "b-poly": trib.triangle_poly,
    "fib-incomplete": trib.incomplete_fibonacci_poly,
    "r-poly": trib.overshoot_poly,
}


class _Deferred:
    """A choice list or help value that argparse reads through ``read()``
    only when it shows or checks it, so that building the parser imports
    no command's modules."""

    def __init__(self, read: Callable[[], object]) -> None:
        self.read = read

    def __iter__(self) -> Iterator:
        return iter(self.read())

    def __str__(self) -> str:
        return str(self.read())


def _identity_choices() -> tuple[str, ...]:
    from .identities import ALL_IDENTITY_IDS

    return ("ALL", *ALL_IDENTITY_IDS)


def _library_cap() -> int:
    from .tilings import DEFAULT_CAP

    return DEFAULT_CAP


def _usage_errors() -> tuple[type[Exception], ...]:
    """What ``main`` turns into exit 2; read only once something is raised."""
    from .tilings import EnumerationCapError

    return (ValueError, OverflowError, MemoryError, EnumerationCapError)


def _arity(function: Callable) -> int:
    """How many indices ``function`` takes, read through any wrapper that
    sets ``__wrapped__`` (``functools.wraps`` does) to the function itself."""
    while hasattr(function, "__wrapped__"):
        function = function.__wrapped__
    return function.__code__.co_argcount


def _range_arg(text: str) -> tuple[int, int]:
    """Parse 'a..b' (inclusive) or a single 'a' as the degenerate range."""
    lo, sep, hi = text.partition("..")
    try:
        return (int(lo), int(hi if sep else lo))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a..b or a single integer, got {text!r}")


_RANGE_FLAGS = ("--n", "--s", "--h")


def _glue_ranges(argv: Sequence[str]) -> list[str]:
    """``--n -1..2`` as ``--n=-1..2``.  argparse reads a token that starts
    with ``-`` and is not a plain number as an option, so a range with a
    negative lower end is glued to its flag before parsing."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _RANGE_FLAGS and token[:1] == "-" and token[1:2].isdigit():
            out[-1] += f"={token}"
        else:
            out.append(token)
    return out


def build_parser() -> argparse.ArgumentParser:
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default: text)",
    )
    capped = argparse.ArgumentParser(add_help=False, parents=[formatted])
    cap = capped.add_argument(
        "--cap",
        type=int,
        help="enumeration cap; unset, the library's own applies (default: %(library_cap)s)",
    )
    cap.library_cap = _Deferred(_library_cap)  # argparse fills %(...)s from the action

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
        "--max-longer", type=int, help="keep only tilings with at most this many dominos/trominos"
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "verify", parents=[capped], help="check identities over a parameter grid"
    )
    identity = p.add_argument(
        "identity", type=str.upper, help="identity id, or 'all' for the whole catalog"
    )
    # set after add_argument, which would read a choice list to check its metavar
    identity.choices = _Deferred(_identity_choices)
    p.add_argument("--n", type=_range_arg, dest="n_range", metavar="A..B", help="n range a..b")
    p.add_argument("--s", type=_range_arg, dest="s_range", metavar="A..B", help="s range a..b")
    p.add_argument("--h", type=_range_arg, dest="h_range", metavar="A..B", help="h range a..b")
    p.add_argument(
        "--order",
        type=int,
        dest="series_order",
        metavar="ORDER",
        help="series order of THM2/COR2/REMARK_A",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "gf", parents=[formatted], help="expand a restriction-level generating function"
    )
    p.add_argument("--s", type=int, required=True, help="restriction level")
    p.add_argument("--order", type=int, required=True, help="series truncation order")
    p.add_argument("--x1", action="store_true", help="evaluate coefficients at x = 1")
    p.set_defaults(func=_cmd_gf)

    return parser


def _write(fmt: str, lines: Iterable, doc: Callable, header: Sequence, rows: Iterable) -> None:
    """Print the view that ``fmt`` names: ``lines``, ``doc()``, or ``header`` and ``rows``."""
    if fmt == "text":
        for line in lines:
            print(line)
    elif fmt == "json":
        print(json.dumps(doc(), indent=2))
    else:
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_compute(args: argparse.Namespace) -> int:
    function = FAMILIES[args.family]
    arity = _arity(function)
    if len(args.indices) != arity:
        raise ValueError(
            f"family '{args.family}' expects {arity} index argument(s), got {len(args.indices)}"
        )
    value = function(*args.indices)
    poly = isinstance(value, Polynomial)
    _write(
        args.format,
        [value],
        lambda: {"family": args.family, "indices": list(args.indices), **_value_doc(value)},
        ("exponent", "coefficient") if poly else ("value",),
        enumerate(value.coeffs) if poly else [(value,)],
    )
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from . import tilings

    max_longer = args.n if args.max_longer is None else args.max_longer
    options = {} if args.cap is None else {"cap": args.cap}
    members = tilings.enumerate_restricted(args.n, max_longer, **options)
    words = [m.word() for m in members]
    _write(
        args.format,
        _enumerate_lines(words, members),
        lambda: {
            "n": args.n,
            "max_longer": args.max_longer,
            "count": len(words),
            "tilings": words,
            "weight": _value_doc(tilings.weight_distribution(members)),
        },
        ("tiling", "squares", "dominos", "trominos", "weight_exponent"),
        ((w, m.squares, m.dominos, m.trominos, m.weight_exponent) for w, m in zip(words, members)),
    )
    return 0


def _enumerate_lines(words: list[str], members: Sequence) -> Iterator[str]:
    """The text view of an enumeration: each tiling, the count, then the
    weight distribution, which only this view and the JSON one show."""
    from . import tilings

    yield from words
    yield f"count: {len(words)}"
    yield f"weight: {tilings.weight_distribution(members)}"


def _cmd_verify(args: argparse.Namespace) -> int:
    import dataclasses

    from . import identities

    fields = dataclasses.fields(identities.GridConfig)
    config = identities.GridConfig(**{f.name: getattr(args, f.name) for f in fields})
    reports = identities.run_grid(config, None if args.identity == "ALL" else [args.identity])
    columns = tuple(dict.fromkeys(p for entry in identities.CATALOG.values() for p in entry.params))
    ok = identities.all_passed(reports)
    _write(
        args.format,
        _verify_lines(reports, ok),
        lambda: {
            "reports": [_report_doc(r) for r in reports],
            "summary": identities.summarize(reports),
            "ok": ok,
        },
        ("identity_id", *columns, "passed", "elapsed_ms"),
        (
            [r.identity_id, *(r.params.get(col, "") for col in columns)]
            + [str(r.passed).lower(), f"{r.elapsed_ms:.3f}"]
            for r in reports
            if r.status in (identities.PASSED, identities.FAILED)
        ),
    )
    return 0 if ok else 1


def _value_doc(value: int | Polynomial | TruncatedSeries) -> dict:
    """The JSON view of an int, its ``value`` string, of a polynomial, its ``coeffs``
    strings, or of a series, its ``order`` and the view of each z-coefficient in ``z_coeffs``."""
    if isinstance(value, int):
        return {"value": str(value)}
    if isinstance(value, Polynomial):
        return {"coeffs": value.to_coeff_strings()}
    return {"order": value.order, "z_coeffs": [_value_doc(c) for c in value.coeffs]}


def _report_doc(r: identities.IdentityReport) -> dict:
    """The JSON view of one report; a failed point adds its two sides as data."""
    from . import identities

    failed = r.status == identities.FAILED
    sides = {"lhs": _value_doc(r.lhs), "rhs": _value_doc(r.rhs)} if failed else {}
    return {
        "identity_id": r.identity_id,
        "params": dict(r.params),
        "status": r.status,
        "passed": r.passed,
        "elapsed_ms": round(r.elapsed_ms, 3),
        **sides,
    }


def _verify_lines(reports: Sequence[identities.IdentityReport], ok: bool) -> Iterator[str]:
    """The text view of a verify run: each identity's status counts, each
    failed point with its two sides, then the verdict."""
    from . import identities

    for identity_id, group in itertools.groupby(reports, key=lambda r: r.identity_id):
        counts = identities.summarize(list(group)).items()
        yield f"{identity_id}: " + ", ".join(f"{n} {s.replace('_', '-')}" for s, n in counts)
    for r in reports:
        if r.status == identities.FAILED:
            point = " ".join(f"{k}={v}" for k, v in r.params.items())
            yield f"FAIL {r.identity_id} {point}\n  lhs: {r.lhs}\n  rhs: {r.rhs}"
    yield f"overall: {'PASS' if ok else 'FAIL'}"


def _cmd_gf(args: argparse.Namespace) -> int:
    if args.order < 2 * args.s + 1:
        raise ValueError(
            f"order {args.order} is below the series offset {2 * args.s + 1}; nothing to show"
        )
    from .generating import closed_form_generating_series

    series = closed_form_generating_series(args.s, args.order, x1=args.x1)
    _write(
        args.format,
        series.coeffs,
        lambda: _value_doc(series),
        ("z_power", "coefficient"),
        enumerate(series.coeffs),
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(_glue_ranges(sys.argv[1:] if argv is None else argv))
    # Python (3.10.7 on) refuses str(int) past 4,300 digits, and family
    # values get longer; lift that limit for this call only, if there is one
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except _usage_errors() as exc:
        # str(MemoryError()) is empty
        print(f"error: {str(exc) or 'the result is too large to hold in memory'}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to devnull, so
        # the flush at exit cannot raise again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
