"""tribpoly benchmark: runs one workload, checks every output exactly and
prints every metric by name with its unit.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 40 --trace 0

Run it from anywhere; it benchmarks the sources in ``src/`` beside this
directory.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from a separate traced run.  ``--smoke`` runs the workload at
tiny sizes in a few seconds; ``--negative-control`` feeds one wrong expected
value, so the run must report a failed op.  See README.md for the workloads,
the metrics and the layer each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

import host  # noqa: E402  (all three live beside this file)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 150
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0)
CLI_SHARE = 0.15  # of a run's window spent in CLI runs


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def child(request: dict) -> dict | None:
    """Run child.py in a fresh interpreter; None when it did not finish cleanly."""
    request = {"src": str(SRC), **request}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")],
            input=json.dumps(request),
            capture_output=True,
            text=True,
            env=_child_env(),
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"child {request['mode']} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"child {request['mode']} exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def tail(samples: list[float], planned: int) -> tuple[float, float, int]:
    """Nearest-rank value at the highest ladder percentile that leaves at
    least ten samples beyond it in a run of ``planned`` samples; the choice
    depends on the planned count only, so every run uses the same percentile."""
    pct = next((p for p in TAIL_LADDER if planned * (100.0 - p) / 100.0 >= 10), 50.0)
    ranked = sorted(samples)
    k = max(0, math.ceil(pct / 100.0 * len(ranked)) - 1)
    return ranked[k], pct, len(ranked) - k - 1


# ----------------------------------------------------------------------
# where passes run


class InProcess:
    """catalog and series-deep: passes run in this process, after a warm-up."""

    def __init__(self, workload: str, refs: host.RefSampler) -> None:
        sys.path.insert(0, str(SRC))
        import tribpoly

        if SRC.resolve() not in Path(tribpoly.__file__).resolve().parents:
            raise workloads.BenchError(f"imported tribpoly from {tribpoly.__file__}, not {SRC}")
        self.tp = tribpoly
        self.refs = refs
        warm = workloads.warm_up(tribpoly, workload)
        self.points = workloads.catalog_points(warm) if workload == "catalog" else None
        self.tracer = None

    def trace_on(self) -> None:
        self.tracer = tracing.Tracer()
        self.tracer.install()

    def run_pass(self, ops: list[dict]) -> tuple[list, list, float]:
        times, obs = workloads.run_pass(self.tp, ops, self.refs, self.tracer)
        return times, obs, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def trace_result(self) -> tuple[dict, list]:
        spans = [["main", *s] for s in self.tracer.spans]
        return self.tracer.snapshot(), spans


class FreshInterpreter:
    """big-index: every pass runs in a new interpreter, so the memo is cold."""

    points = None

    def __init__(self, refs: host.RefSampler) -> None:
        self.refs = refs
        self.traced = False
        self.snapshots: list[dict] = []
        self.spans: list[list] = []

    def trace_on(self) -> None:
        self.traced = True

    def run_pass(self, ops: list[dict]) -> tuple[list, list, float | None]:
        # passes are alike, so the spans of the first traced one are kept
        out = child({"mode": "pass", "ops": ops, "trace": self.traced, "spans": not self.spans})
        if out is None:
            return [None] * len(ops), [{"error": "pass process failed"}] * len(ops), None
        self.refs.samples.extend(out["refs"])
        if self.traced:
            self.snapshots.append(out["trace"])
            tag = f"pass-{len(self.snapshots)}"
            self.spans.extend([tag, *s] for s in out["spans"])
        return out["times"], out["obs"], out["rss_kb"] / 1024.0

    def trace_result(self) -> tuple[dict, list]:
        return tracing.merge(self.snapshots), self.spans


# ----------------------------------------------------------------------


class Tally:
    """Ops attempted and failed; the first few failures are kept for stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{label}: {error}")

    def check_pass(self, ops, times, observations, want) -> None:
        for op, elapsed, obs, exp in zip(ops, times, observations, want):
            error = None
            if elapsed is None or obs != exp:
                error = f"got {json.dumps(obs)[:300]}, want {json.dumps(exp)[:300]}"
            self.add(json.dumps({k: v for k, v in op.items() if k != "kind"}), error)


def run_cli(argv: list[str], check, tally: Tally, traced: bool, spans: bool = False) -> dict | None:
    """One CLI run: a plain ``python -m tribpoly`` subprocess, or a traced
    child calling ``cli.main``.  Returns timing and, when traced, the trace."""
    label = "tribpoly " + " ".join(argv)
    if traced:
        out = child({"mode": "cli", "argv": argv, "trace": True, "spans": spans})
        if out is None:
            tally.add(label, "traced CLI process failed")
            return None
        code, stdout, elapsed = out["code"], out["output"], None
    else:
        start = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "tribpoly", *argv],
                capture_output=True,
                text=True,
                env=_child_env(),
                cwd=ROOT,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            tally.add(label, "timed out")
            return None
        elapsed = perf_counter() - start
        code, stdout, out = proc.returncode, proc.stdout, {}
    try:
        error = check(code, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        error = f"unreadable output: {type(exc).__name__}: {exc}"
    tally.add(label, error)
    return {**out, "elapsed": elapsed, "bytes": len(stdout.encode())}


def run(args: argparse.Namespace) -> tuple[dict, Tally, list[str]]:
    workload = args.workload
    plan = workloads.SMOKE_PLAN if args.smoke else workloads.PLAN[workload]
    window = 0.0 if args.smoke else float(args.seconds)
    lines = [f"host: {host.host_info()}"]
    refs = host.RefSampler()
    for _ in range(3):
        refs.sample()

    setups: list[float] = []

    def set_up() -> None:
        out = child({"mode": "setup", "workload": workload})
        if out is None:
            raise workloads.BenchError("tribpoly could not be imported and warmed up")
        setups.append(out["import_s"] + out["warmup_s"])
        refs.due()

    set_up()
    runner = FreshInterpreter(refs) if workload == "big-index" else InProcess(workload, refs)
    ops = workloads.build_ops(workload, args.seed, args.smoke, runner.points)
    want = [workloads.expected(op) for op in ops]
    if args.negative_control:
        want[0] = workloads.corrupt(want[0])
    argv = workloads.cli_argv(workload, ops, args.smoke)
    check_cli = workloads.cli_checker(workload, argv)

    tally = Tally()
    per_op: list[list[float]] = [[] for _ in ops]  # latencies of op i, one per pass
    untraced: list[list[float]] = [[] for _ in ops]
    rss: list[float] = []
    clis: list[dict] = []

    def one_pass(samples: list[list[float]]) -> None:
        times, obs, peak = runner.run_pass(ops)
        tally.check_pass(ops, times, obs, want)
        for i, t in enumerate(times):
            if t is not None:
                samples[i].append(t)
        if peak is not None:
            rss.append(peak)
        refs.due()

    start = perf_counter()
    deadline = start + window

    def spread_set_ups() -> None:
        # set-up samples spread evenly over the window, so drift hits them
        # as it hits the passes
        if not args.smoke and len(setups) < 1 + (SETUP_SAMPLES - 1) * min(
            1.0, (perf_counter() - start) / window
        ):
            set_up()

    def measure(until: float, samples: list[list[float]], traced: bool, min_passes: int, min_cli: int) -> int:
        """Passes and CLI runs until the deadline, the CLI runs taking about
        CLI_SHARE of the time; each step ends at the step end nearest the
        deadline once the minimums are met.  Returns the passes run."""
        began, cli_time, done, runs = perf_counter(), 0.0, 0, 0
        while True:
            step = perf_counter()
            if runs == 0 or cli_time < CLI_SHARE * (step - began):
                clis.append(run_cli(argv, check_cli, tally, traced=traced, spans=not clis))
                refs.due()
                cli_time += perf_counter() - step
                runs += 1
            else:
                one_pass(samples)
                done += 1
            if not traced:
                spread_set_ups()
            now = perf_counter()
            if now + (now - step) / 2 >= until and done >= min_passes and runs >= min_cli:
                return done

    if args.trace:
        # untraced passes for the overhead baseline, then traced ones
        one_pass(untraced)
        while perf_counter() < start + window / 2:
            one_pass(untraced)
        runner.trace_on()
        passes = measure(deadline, per_op, True, 1, 1)
    else:
        passes = measure(deadline, per_op, False, plan["min_passes"], plan["min_cli"])
    clis = [c for c in clis if c is not None]
    if not any(per_op) or not clis:
        raise workloads.BenchError("no op or no CLI run completed; see the failures above")
    for _ in range(3):
        refs.sample()
    ref_ms = statistics.median(refs.samples)
    lines.append(
        f"host.ref_loop_ms = {ref_ms:.4f} ms (median of {len(refs.samples)} samples); "
        f"times are scaled to a loop time of {host.REF_MS:g} ms"
    )

    def scaled_best(samples: list[float]) -> float:
        """The best of a run's samples, as ``timeit`` reports, scaled to the
        reference host.  The host also has bursts of contention lasting
        seconds; the best of a run's passes skips them, a median of a few
        passes does not."""
        return min(samples) * host.scale(refs.samples, host.best_rank(len(samples)))

    if args.trace:
        snapshot, spans = runner.trace_result()
        cli_snapshot = tracing.merge([c["trace"] for c in clis])
        for i, c in enumerate(clis):
            spans.extend([f"cli-{i + 1}", *s] for s in c["spans"])
        spans = spans[: tracing.SPAN_LIMIT]
        metrics, unmeasured = tracing.layer_metrics(
            workload,
            snapshot,
            passes,
            cli_snapshot,
            len(clis),
            sum(c["bytes"] for c in clis),
        )
        metrics["host.ref_loop_ms"] = (ref_ms, "ms")
        traced_wall = sum(scaled_best(samples) for samples in per_op if samples)
        untraced_wall = sum(scaled_best(samples) for samples in untraced if samples)
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        metrics["trace.unmeasured_layers"] = (len(unmeasured), "count")
        lines.extend(f"UNMEASURED {key}: predicted on {workload}, recorded 0 calls" for key in unmeasured)
        lines.append(
            f"traced passes {passes}, untraced passes {max(map(len, untraced))}, traced CLI runs {len(clis)}"
        )
        path = write_spans(spans, workload, args.seed)
        lines.append(f"spans: {len(spans)} written to {path}")
    else:
        op_best = [scaled_best(samples) for samples in per_op if samples]
        metrics = {
            "setup_s": (statistics.median(setups) * host.scale(refs.samples, 0.5), "s"),
            "wall_s": (sum(op_best), "s"),
            "op_p50_ms": (statistics.median(op_best) * 1000.0, "ms"),
            "op_max_ms": (max(op_best) * 1000.0, "ms"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "cli_s": (scaled_best([c["elapsed"] for c in clis]), "s"),
        }
        raw = [t for samples in per_op for t in samples]
        value, pct, beyond = tail(raw, plan["min_passes"] * len(ops))
        lines.append(
            f"unscaled: wall_s {sum(min(s) for s in per_op if s):.6g} s, setup_s "
            f"{statistics.median(setups):.6g} s, cli_s {min(c['elapsed'] for c in clis):.6g} s; "
            f"all op samples: p50 {statistics.median(raw) * 1000.0:.6g} ms, "
            f"p{pct:g} {value * 1000.0:.6g} ms ({len(raw)} samples, {beyond} beyond it)"
        )
        lines.append(
            f"{passes} passes of {len(ops)} ops, {len(clis)} CLI runs "
            f"(tribpoly {' '.join(argv)}), {len(setups)} set-ups"
        )
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    lines.append(f"failed_share = {share:.6g} ({tally.failed} of {tally.attempted} ops)")
    return metrics, tally, lines


def write_spans(spans: list[list], workload: str, seed: int) -> Path:
    """Spans as JSON lines: process, span id, name, start, end, parent, op id."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    with path.open("w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return path.relative_to(ROOT)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass")
    parser.add_argument(
        "--negative-control", action="store_true", help="expect one wrong value"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tribpoly" / "__init__.py").is_file():
        print(f"perfbench: no tribpoly sources in {SRC}", file=sys.stderr)
        return 2
    try:
        metrics, tally, lines = run(args)
    except workloads.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for line in lines:
        print(f"{args.workload} {line}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
