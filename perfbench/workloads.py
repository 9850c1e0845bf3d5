"""The three workloads: the ops each one runs, drawn from the seed, how one op
is timed, and the exact output each op and CLI run must produce.

An op is one call the benchmark times, described as JSON so that a fresh
interpreter can run it:

* ``{"kind": "identity", "id": ..., "params": {...}}`` re-runs one point as
  ``run_grid(GridConfig(<the point's n/s/h/order>), [id])``;
* ``{"kind": "family", "fn": ..., "args": [...]}`` calls one public family
  function.

Why each workload exists is written down in README.md beside this file.
"""

from __future__ import annotations

import json
import random
from time import perf_counter

import oracle

WORKLOADS = ("catalog", "series-deep", "big-index")


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


# What the default grid must judge: 820 reports.
CATALOG_SUMMARY = {"passed": 642, "failed": 0, "filtered": 178, "resource_limited": 0}

# Per workload: the passes and CLI runs a run makes at least, however long
# they take.  The minimum pass count fixes the sample count the printed tail
# percentile is chosen for.
PLAN = {
    "catalog": {"min_passes": 16, "min_cli": 5},
    "series-deep": {"min_passes": 4, "min_cli": 3},
    "big-index": {"min_passes": 4, "min_cli": 3},
}
SMOKE_PLAN = {"min_passes": 1, "min_cli": 1}

SERIES_IDS = ("THM2", "COR2")
SERIES_LEVELS = range(5)
GF_LEVEL = 4


def series_order(smoke: bool) -> int:
    return 30 if smoke else 120


def warm_up(tp, workload: str):
    """Work done once before the first timed pass; part of ``setup_s``.

    catalog: one default ``run_grid()``, whose passed points are the ops.
    series-deep: the default-order THM2/COR2 grid, which touches every code
    path of the ops at a tenth of their cost.  big-index: nothing, because
    its point is a cold memo.
    """
    if workload == "catalog":
        return tp.run_grid()
    if workload == "series-deep":
        return tp.run_grid(tp.GridConfig(), list(SERIES_IDS))
    return None


def catalog_points(reports) -> list[dict]:
    """Ops for the passed points of a default ``run_grid()``, which must
    match the seed's summary exactly."""
    counts = {status: 0 for status in CATALOG_SUMMARY}
    for r in reports:
        counts[r.status] += 1
    if counts != CATALOG_SUMMARY:
        raise BenchError(f"default grid summary {counts} != {CATALOG_SUMMARY}")
    return [
        {"kind": "identity", "id": r.identity_id, "params": dict(r.params)}
        for r in reports
        if r.status == "passed"
    ]


def build_ops(workload: str, seed: int, smoke: bool, points: list[dict] | None = None) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog":
        ops = [dict(p) for p in points]
        rng.shuffle(ops)
        if smoke:  # the first point of each identity, so every layer runs
            firsts = {op["id"]: op for op in reversed(ops)}
            ops = [op for op in ops if firsts[op["id"]] is op]
        return ops
    if workload == "series-deep":
        order = series_order(smoke)
        ops = [
            {"kind": "identity", "id": ident, "params": {"s": s, "order": order}}
            for ident in SERIES_IDS
            for s in SERIES_LEVELS
        ]
        rng.shuffle(ops)
        return ops
    return _big_index_ops(rng, smoke)


def _big_index_ops(rng: random.Random, smoke: bool) -> list[dict]:
    """Indices from narrow fixed ranges, so that inputs change with the seed
    while a pass costs nearly the same; tribonacci_poly runs first so the
    identity ops read the memo it extended."""
    def draw(centre: int) -> int:
        if smoke:
            centre = max(4, centre // 20)
        spread = max(1, centre // 200)
        return rng.randint(centre - spread, centre + spread)

    def family(fn, *args):
        return {"kind": "family", "fn": fn, "args": list(args)}

    def identity(ident, status="passed", **params):
        op = {"kind": "identity", "id": ident, "params": params}
        if status != "passed":
            op["status"] = status
        return op

    eq12_n, eq13_n = draw(300), draw(300)
    eq12_s = 2 if smoke else 20
    cap_n = 8 if smoke else 18
    idn = 10 if smoke else 200
    return [
        family("tribonacci_poly", draw(1400)),
        family("tribonacci_poly_explicit", draw(900)),
        family("incomplete_tribonacci_poly", draw(1000), draw(250)),
        family("overshoot_poly", draw(300), draw(150)),
        family("triangle_poly", draw(400), draw(200)),
        family("incomplete_fibonacci_poly", draw(500), draw(200)),
        identity("EQ12", n=eq12_n, s=eq12_s),
        identity("EQ13", n=eq13_n, s=eq13_n // 4),
        identity("ID2", n=idn),
        identity("ID3", n=idn),
        *(identity("THM1", n=cap_n, s=s) for s in range(cap_n // 2 + 1)),
        # one past the enumeration cap: the limit must hold, cheaply
        identity("THM1", "resource_limited", n=19, s=9),
    ]


def cli_argv(workload: str, ops: list[dict], smoke: bool) -> list[str]:
    """The CLI command a user of this workload would run."""
    if workload == "catalog":
        return ["verify", "all", "--format", "json"]
    if workload == "series-deep":
        level = 2 if smoke else GF_LEVEL
        return ["gf", "--s", str(level), "--order", str(series_order(smoke)), "--format", "json"]
    m, level = ops[2]["args"]  # the pass's incomplete_tribonacci_poly op
    return ["compute", "incomplete-poly", str(m), str(level), "--format", "json"]


# ----------------------------------------------------------------------
# running one op


def _point(params: dict, axis: str):
    return (params[axis], params[axis]) if axis in params else None


def run_op(tp, op: dict) -> tuple[float, object]:
    """Time one op; return (seconds, observation).  Evaluating the result
    for the check happens after the clock stops."""
    if op["kind"] == "identity":
        p = op["params"]
        config = tp.GridConfig(
            n_range=_point(p, "n"),
            s_range=_point(p, "s"),
            h_range=_point(p, "h"),
            series_order=p.get("order"),
        )
        start = perf_counter()
        reports = tp.run_grid(config, [op["id"]])
        elapsed = perf_counter() - start
        return elapsed, [[r.identity_id, r.status, dict(r.params)] for r in reports]
    fn = getattr(tp, op["fn"])
    start = perf_counter()
    value = fn(*op["args"])
    elapsed = perf_counter() - start
    return elapsed, {
        "at1": hex(oracle.evaluate(value.coeffs, 1)),
        "at2": hex(oracle.evaluate(value.coeffs, 2)),
    }


def run_pass(tp, ops: list[dict], refs, tracer=None) -> tuple[list, list]:
    """Run every op once; a raising op gets time None and an error observation.
    Between ops, ``refs`` (a ``host.RefSampler``) times its loop when one is
    due."""
    times, observations = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        try:
            elapsed, obs = run_op(tp, op)
        except Exception as exc:  # counted as a failed op, the pass goes on
            elapsed, obs = None, {"error": f"{type(exc).__name__}: {exc}"}
        times.append(elapsed)
        observations.append(obs)
        refs.due()
    return times, observations


# ----------------------------------------------------------------------
# expected outputs


def expected(op: dict):
    """What the op must return: an identity point comes back once, with the
    same params and the expected status; a family value matches the
    independent oracle at x = 1 and x = 2."""
    if op["kind"] == "identity":
        return [[op["id"], op.get("status", "passed"), op["params"]]]
    return oracle.family_values(op["fn"], op["args"])


def corrupt(value):
    """One wrong expected value, for the negative control."""
    if isinstance(value, dict):
        return {**value, "at1": hex(int(value["at1"], 16) + 1)}
    (ident, status, params), = value
    return [[ident, status, {**params, "n": params.get("n", 0) + 1}]]


def cli_checker(workload: str, argv: list[str]):
    """Return check(returncode, stdout) -> error message or None."""
    if workload == "catalog":
        def check(code, out):
            doc = json.loads(out)
            if code != 0 or doc["summary"] != CATALOG_SUMMARY or doc["ok"] is not True:
                return f"exit {code}, summary {doc['summary']}, ok {doc['ok']}"
            if len(doc["reports"]) != sum(CATALOG_SUMMARY.values()):
                return f"{len(doc['reports'])} reports"
            return None
        return check

    if workload == "series-deep":
        level, order = int(argv[2]), int(argv[4])
        want = [
            (oracle.incomplete_tribonacci_poly(k, level, 1), oracle.incomplete_tribonacci_poly(k, level, 2))
            if k >= 2 * level + 1
            else (0, 0)
            for k in range(order + 1)
        ]

        def check(code, out):
            doc = json.loads(out)
            got = [
                (oracle.evaluate(c, 1), oracle.evaluate(c, 2))
                for c in ([int(v) for v in z["coeffs"]] for z in doc["z_coeffs"])
            ]
            if code != 0 or doc["order"] != order or got != want:
                return f"exit {code}: generating series differs from the oracle"
            return None
        return check

    m, level = int(argv[2]), int(argv[3])
    want = (
        oracle.incomplete_tribonacci_poly(m, level, 1),
        oracle.incomplete_tribonacci_poly(m, level, 2),
    )

    def check(code, out):
        doc = json.loads(out)
        coeffs = [int(v) for v in doc["coeffs"]]
        got = (oracle.evaluate(coeffs, 1), oracle.evaluate(coeffs, 2))
        if code != 0 or doc["indices"] != [m, level] or got != want:
            return f"exit {code}: incomplete-poly {m} {level} differs from the oracle"
        return None
    return check
