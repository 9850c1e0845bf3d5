"""The benchmark's own tests: run with ``python3 -m pytest perfbench``.

Smoke runs use tiny sizes and never assert a timing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import host
import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*extra: str, workload: str, trace: int = 0, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), *extra],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tp():
    sys.path.insert(0, str(ROOT / "src"))
    import tribpoly

    return tribpoly


def test_oracle_matches_the_package_on_small_indices(tp):
    for x in (1, 2, 3):
        for n in range(-1, 22):
            assert oracle.tribonacci_poly(n, x) == tp.tribonacci_poly(n).evaluate(x)
            if n >= 0:
                assert oracle.tribonacci_poly_explicit(n, x) == tp.tribonacci_poly_explicit(n).evaluate(x)
            for s in range(-1, 12):
                if n >= 1:
                    assert oracle.incomplete_tribonacci_poly(n, s, x) == tp.incomplete_tribonacci_poly(n, s).evaluate(x)
                    assert oracle.incomplete_fibonacci_poly(n, s, x) == tp.incomplete_fibonacci_poly(n, s).evaluate(x)
                if n >= 0 and s >= 0:
                    assert oracle.overshoot_poly(n, s, x) == tp.overshoot_poly(n, s).evaluate(x)
                assert oracle.triangle_poly(n, s, x) == tp.triangle_poly(n, s).evaluate(x)
    assert [oracle.tribonacci_number(n) for n in range(-1, 9)] == [0, 0, 1, 1, 2, 4, 7, 13, 24, 44]


def test_seed_draws_the_same_inputs():
    for workload in ("series-deep", "big-index"):
        assert workloads.build_ops(workload, 3, False) == workloads.build_ops(workload, 3, False)
    assert workloads.build_ops("big-index", 3, False) != workloads.build_ops("big-index", 4, False)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload, tmp_path):
    out = result(bench("--smoke", workload=workload, cwd=tmp_path))
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert {n: m["unit"] for n, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_run_reports_every_layer_and_misses_none(workload):
    proc = bench("--smoke", workload=workload, trace=1)
    out = result(proc)
    assert out["correct"] is True
    assert {n: m["unit"] for n, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert out["metrics"]["trace.unmeasured_layers"]["value"] == 0, proc.stdout
    assert "UNMEASURED" not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_negative_control_is_counted_as_failed(workload):
    out = result(bench("--smoke", "--negative-control", workload=workload))
    assert out["correct"] is False
    assert out["failed"] >= 1 and out["failed"] / out["attempted"] > 0


def test_without_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(workload="catalog", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_scaling_takes_out_host_speed_but_not_program_speed():
    loop = [10.0 + 0.1 * i for i in range(50)]
    slow_host = [2 * ms for ms in loop]
    rank = host.best_rank(8)
    # the same program on a host twice as slow reads the same
    assert 1.0 * host.scale(loop, rank) == pytest.approx(2.0 * host.scale(slow_host, rank))
    assert host.scale(loop, 0.5) == pytest.approx(host.REF_MS / loop[25])
    assert host.scale(loop, rank) == pytest.approx(host.REF_MS / loop[5])


def test_a_layer_with_no_calls_is_reported_unmeasured():
    empty = {"acc": {}, "stats": {}}
    metrics, unmeasured = tracing.layer_metrics("series-deep", empty, 1, empty, 1, 0)
    assert "series.mul" in unmeasured and "cli.main" in unmeasured
    assert "tilings.enumerate" not in unmeasured  # not predicted on series-deep
    assert set(metrics) | {"host.ref_loop_ms", "trace.overhead_s", "trace.unmeasured_layers"} == {
        m["name"] for m in SPEC["per_layer"]
    }


def test_wrappers_follow_functions_into_a_catalog_declared_as_data():
    def check():
        return "ok"

    class Entry:
        def __init__(self, fn):
            self.fn = fn

    class Module:
        registry = {"A": check}
        entries = (Entry(check),)
        direct = check

    tracer = tracing.Tracer()
    wrapped = tracer.wrap("layer", check, span=True)
    tracing._rebind(Module, {id(check): wrapped})
    assert Module.direct() == Module.registry["A"]() == Module.entries[0].fn() == "ok"
    assert tracer.acc["layer"][0] == 3
