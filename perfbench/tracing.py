"""Per-layer timing from outside the package: wrappers on module and class
attributes of tribpoly, installed only for a traced run.

Every wrapper keeps ``[calls, total_s, self_s, errors]`` for its layer key.
Self time is a call's duration minus the time its traced children cover.
Calls into the non-hot layers are also kept as spans (name, start, end,
parent span, op id), up to a fixed number so memory stays bounded.  The hot
``Polynomial`` methods are aggregated only: one series-deep pass makes about
700 000 ``Polynomial`` constructor calls.
"""

from __future__ import annotations

import sys
from time import perf_counter

SPAN_LIMIT = 20_000

# A product is "large" when both operands have at least this many
# coefficients; below it a multiply kernel change is not expected to matter.
LARGE_MUL_LEN = 16

IDENTITY_FUNCS = {
    "EQ4": "verify_eq4",
    "ID1": "verify_id1",
    "ID2": "verify_id2",
    "ID3": "verify_id3",
    "REMARK_A": "verify_remark_a",
    "ID4": "verify_id4",
    "ID5": "verify_id5",
    "ID6": "verify_id6",
    "EQ12": "verify_eq12",
    "EQ13": "verify_eq13",
    "THM1": "verify_thm1",
    "THM2": "verify_thm2",
    "COR2": "verify_cor2",
}
TRIB_FUNCS = (
    "tribonacci_number",
    "tribonacci_poly",
    "tribonacci_poly_explicit",
    "triangle_poly",
    "incomplete_tribonacci_poly",
    "incomplete_tribonacci_number",
    "incomplete_fibonacci_poly",
    "overshoot_poly",
)
GS_FUNCS = (
    "overshoot_generating_series",
    "direct_generating_series",
    "closed_form_generating_series",
)

ALL = {"catalog", "series-deep", "big-index"}

# layer key -> workloads on which the table in README.md predicts calls.
# A predicted key with 0 calls means a wrapper missed its target.
PREDICTED = {
    "poly.init": ALL,
    "poly.mul": ALL,
    "poly.add": ALL,
    "poly.times_monomial": ALL,
    "series.mul": {"catalog", "series-deep"},
    "series.inverse": {"catalog", "series-deep"},
    "series.pow": {"catalog", "series-deep"},
    "series.rational_expand": {"catalog", "series-deep"},
    "tribonacci.tribonacci_number": {"catalog", "series-deep"},
    "tribonacci.tribonacci_poly": ALL,
    "tribonacci.tribonacci_poly_explicit": {"big-index"},
    "tribonacci.triangle_poly": {"catalog", "big-index"},
    "tribonacci.incomplete_tribonacci_poly": ALL,
    "tribonacci.incomplete_tribonacci_number": {"catalog", "series-deep"},
    "tribonacci.incomplete_fibonacci_poly": {"catalog", "big-index"},
    "tribonacci.overshoot_poly": {"catalog", "big-index"},
    "tilings.enumerate": {"catalog", "big-index"},
    "tilings.weight_distribution": {"catalog", "big-index"},
    "identities.run_grid": ALL,
    "cli.main": ALL,
    **{f"identities.{i}": {"catalog"} for i in IDENTITY_FUNCS},
    "identities.THM2": {"catalog", "series-deep"},
    "identities.COR2": {"catalog", "series-deep"},
    "identities.EQ12": {"catalog", "big-index"},
    "identities.EQ13": {"catalog", "big-index"},
    "identities.ID2": {"catalog", "big-index"},
    "identities.ID3": {"catalog", "big-index"},
    "identities.THM1": {"catalog", "big-index"},
    "identities.overshoot_generating_series": {"catalog", "series-deep"},
    "identities.direct_generating_series": {"catalog", "series-deep"},
    "identities.closed_form_generating_series": {"catalog", "series-deep"},
}


class Tracer:
    """Accumulators, spans and the call stack of one traced process."""

    def __init__(self) -> None:
        self.acc: dict[str, list] = {}
        self.stats = {
            "poly.mul.term_products": 0,
            "poly.mul.max_coeff_bits": 0,
            "tilings.enumerate.tilings": 0,
            "tribonacci.tribonacci_poly.max_index": 0,
        }
        self.spans: list[tuple] = []
        self.op_id: int | None = None
        self._stack = [[0.0]]  # one frame per open call: time its children took
        self._current_span: int | None = None
        self._next_span = 0

    def _slot(self, key: str) -> list:
        return self.acc.setdefault(key, [0, 0.0, 0.0, 0])

    def wrap(self, key: str, fn, *, span: bool, observe=None, extra_key=None):
        """Time ``fn`` under ``key`` (and ``extra_key`` when it returns one
        for the call's arguments); ``observe(args, result)`` runs untimed."""
        slot = self._slot(key)
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if span:
                parent = tracer._current_span
                span_id = tracer._next_span
                tracer._next_span += 1
                tracer._current_span = span_id
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                slot[3] += 1
                raise
            finally:
                end = perf_counter()
                elapsed = end - start
                stack.pop()
                stack[-1][0] += elapsed
                own = elapsed - frame[0]
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += own
                if extra_key is not None:
                    extra = tracer._slot(extra_key(args))
                    extra[0] += 1
                    extra[1] += elapsed
                    extra[2] += own
                if span:
                    tracer._current_span = parent
                    if len(tracer.spans) < SPAN_LIMIT:
                        tracer.spans.append((span_id, key, start, end, parent, tracer.op_id))
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # observers for the counts kept beside the timings

    def _observe_mul(self, args, result) -> None:
        a, b = args
        blen = len(b.coeffs) if hasattr(b, "coeffs") else 1
        self.stats["poly.mul.term_products"] += len(a.coeffs) * blen
        coeffs = getattr(result, "coeffs", ())
        if coeffs:
            bits = max(max(coeffs), -min(coeffs)).bit_length()
            if bits > self.stats["poly.mul.max_coeff_bits"]:
                self.stats["poly.mul.max_coeff_bits"] = bits

    def _observe_enumerate(self, args, result) -> None:
        self.stats["tilings.enumerate.tilings"] += len(result)

    def _observe_trib_poly(self, args, result) -> None:
        if args and args[0] > self.stats["tribonacci.tribonacci_poly.max_index"]:
            self.stats["tribonacci.tribonacci_poly.max_index"] = args[0]

    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary of the imported tribpoly package."""
        from tribpoly import cli, identities, poly, series, tilings, tribonacci

        P, S = poly.Polynomial, series.TruncatedSeries

        def mul_size(args):
            a, b = args
            small = not hasattr(b, "coeffs") or min(len(a.coeffs), len(b.coeffs)) < LARGE_MUL_LEN
            return "poly.mul.small" if small else "poly.mul.large"

        # (owner, attribute, layer key, record spans, observer, extra key)
        plan = [
            (P, "__init__", "poly.init", False, None, None),
            (P, "__mul__", "poly.mul", False, self._observe_mul, mul_size),
            (P, "__add__", "poly.add", False, None, None),
            (P, "__sub__", "poly.add", False, None, None),
            (P, "__rsub__", "poly.add", False, None, None),
            (P, "__neg__", "poly.add", False, None, None),
            (P, "times_monomial", "poly.times_monomial", False, None, None),
            (S, "__mul__", "series.mul", True, None, None),
            (S, "inverse", "series.inverse", True, None, None),
            (S, "__pow__", "series.pow", True, None, None),
            (series, "rational_expand", "series.rational_expand", True, None, None),
            (tilings, "enumerate_tilings", "tilings.enumerate", True, self._observe_enumerate, None),
            (tilings, "enumerate_restricted", "tilings.enumerate", True, self._observe_enumerate, None),
            (tilings, "enumerate_colored", "tilings.enumerate", True, self._observe_enumerate, None),
            (tilings, "weight_distribution", "tilings.weight_distribution", True, None, None),
            (tilings, "colored_weight_distribution", "tilings.weight_distribution", True, None, None),
            (identities, "run_grid", "identities.run_grid", True, None, None),
            (cli, "main", "cli.main", True, None, None),
        ]
        for name in TRIB_FUNCS:
            observe = self._observe_trib_poly if name == "tribonacci_poly" else None
            plan.append((tribonacci, name, f"tribonacci.{name}", True, observe, None))
        for ident, name in IDENTITY_FUNCS.items():
            plan.append((identities, name, f"identities.{ident}", True, None, None))
        for name in GS_FUNCS:
            plan.append((identities, name, f"identities.{name}", True, None, None))

        # A target the package no longer has is skipped; its layer then shows
        # as unmeasured where it is predicted.
        targets = [(getattr(owner, attr, None), *rest) for owner, attr, *rest in plan]
        replace = {
            id(fn): self.wrap(key, fn, span=span, observe=observe, extra_key=extra)
            for fn, key, span, observe, extra in targets
            if fn is not None
        }
        owners = [P, S] + [
            module
            for name, module in sorted(sys.modules.items())
            if name == "tribpoly" or name.startswith("tribpoly.")
        ]
        for owner in owners:
            _rebind(owner, replace)

    def snapshot(self) -> dict:
        """Accumulators and counts, JSON-ready, for merging across processes."""
        return {"acc": {k: list(v) for k, v in self.acc.items()}, "stats": dict(self.stats)}


def _rebind(owner, replace: dict) -> None:
    """Point every attribute of ``owner`` that holds a wrapped original at its
    wrapper, also inside module-level dicts, lists and tuples, so that an
    identity catalog declared as data is still traced."""
    for name, value in list(vars(owner).items()):
        if id(value) in replace:
            setattr(owner, name, replace[id(value)])
        elif isinstance(value, dict):
            for k, v in list(value.items()):
                if id(v) in replace:
                    value[k] = replace[id(v)]
                else:
                    _rebind_fields(v, replace)
        elif isinstance(value, (list, tuple)):
            items = [replace.get(id(v), v) for v in value]
            for v in items:
                _rebind_fields(v, replace)
            if isinstance(value, list):
                value[:] = items
            elif type(value) is tuple and any(a is not b for a, b in zip(items, value)):
                setattr(owner, name, tuple(items))


def _rebind_fields(obj, replace: dict) -> None:
    """Rebind the fields of one catalog entry (a frozen dataclass included)."""
    fields = getattr(obj, "__dict__", None)
    if not isinstance(fields, dict) or isinstance(obj, type) or callable(obj):
        return
    for k, v in list(fields.items()):
        if id(v) in replace:
            object.__setattr__(obj, k, replace[id(v)])


def merge(snapshots: list[dict]) -> dict:
    """Sum accumulators and take the maximum of each count that is a maximum."""
    acc: dict[str, list] = {}
    stats: dict[str, int] = {}
    for snap in snapshots:
        for key, vals in snap["acc"].items():
            slot = acc.setdefault(key, [0, 0.0, 0.0, 0])
            for i, v in enumerate(vals):
                slot[i] += v
        for key, v in snap["stats"].items():
            if key.endswith((".max_coeff_bits", ".max_index")):
                stats[key] = max(stats.get(key, 0), v)
            else:
                stats[key] = stats.get(key, 0) + v
    return {"acc": acc, "stats": stats}


# the layers reported as calls and self time
_TIMED_LAYERS = (
    "poly.init",
    "poly.mul",
    "poly.mul.small",
    "poly.mul.large",
    "poly.add",
    "poly.times_monomial",
    "series.mul",
    "series.inverse",
    "series.pow",
    *(f"tribonacci.{name}" for name in TRIB_FUNCS),
    "tilings.enumerate",
)


def layer_metrics(workload, passes, n_passes, cli, n_cli, cli_bytes):
    """Per-pass layer metrics from merged pass snapshots, per-run CLI metrics
    from merged CLI snapshots, and the predicted layers that recorded no call.
    Returns ({name: (value, unit)}, [unmeasured layer keys])."""
    acc, stats = passes["acc"], passes["stats"]

    def get(key, i):
        return acc.get(key, (0, 0.0, 0.0, 0))[i]

    out: dict[str, tuple[float, str]] = {}
    for key in _TIMED_LAYERS:
        out[f"{key}.calls"] = (get(key, 0) / n_passes, "count")
        out[f"{key}.self_s"] = (get(key, 2) / n_passes, "s")
    out["poly.mul.term_products"] = (stats.get("poly.mul.term_products", 0) / n_passes, "count")
    out["poly.mul.max_coeff_bits"] = (stats.get("poly.mul.max_coeff_bits", 0), "bits")
    out["series.rational_expand.calls"] = (get("series.rational_expand", 0) / n_passes, "count")
    out["series.rational_expand.s"] = (get("series.rational_expand", 1) / n_passes, "s")
    out["tribonacci.tribonacci_poly.max_index"] = (
        stats.get("tribonacci.tribonacci_poly.max_index", 0),
        "index",
    )
    out["tilings.enumerate.tilings"] = (stats.get("tilings.enumerate.tilings", 0) / n_passes, "count")
    out["tilings.weight_distribution.self_s"] = (get("tilings.weight_distribution", 2) / n_passes, "s")
    out["tilings.cap_errors"] = (get("tilings.enumerate", 3) / n_passes, "count")
    for ident in IDENTITY_FUNCS:
        out[f"identities.{ident}.points"] = (get(f"identities.{ident}", 0) / n_passes, "count")
        out[f"identities.{ident}.s"] = (get(f"identities.{ident}", 1) / n_passes, "s")
    for name in GS_FUNCS:
        out[f"identities.{name}.self_s"] = (get(f"identities.{name}", 2) / n_passes, "s")
    verify_self = sum(get(f"identities.{ident}", 2) for ident in IDENTITY_FUNCS)
    out["identities.verify.self_s"] = (verify_self / n_passes, "s")
    out["identities.run_grid.self_s"] = (get("identities.run_grid", 2) / n_passes, "s")
    cli_main = cli["acc"].get("cli.main", (0, 0.0, 0.0, 0))
    out["cli.main.self_s"] = (cli_main[2] / max(1, n_cli), "s")
    out["cli.output_bytes"] = (cli_bytes / max(1, n_cli), "bytes")

    unmeasured = []
    for key, predicted in PREDICTED.items():
        source = cli["acc"] if key == "cli.main" else acc
        if workload in predicted and source.get(key, (0,))[0] == 0:
            unmeasured.append(key)
    return out, unmeasured
