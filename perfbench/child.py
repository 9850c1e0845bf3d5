"""The fresh-interpreter side of the benchmark.

Reads one JSON request on stdin and prints one JSON line.  Modes:

* ``setup``: time ``import tribpoly`` and the workload's warm-up;
* ``pass``: run a list of ops once, optionally traced, and report op times,
  observations, the peak RSS of this process and the reference loop samples
  taken between ops;
* ``cli``: run ``tribpoly.cli.main`` traced, with its output captured.

``PYTHONPATH`` must point at the checkout's ``src`` directory.
"""

from __future__ import annotations

import io
import json
import resource
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter


def main() -> int:
    request = json.load(sys.stdin)
    start = perf_counter()
    import tribpoly

    import_s = perf_counter() - start
    src = Path(request["src"]).resolve()
    if src not in Path(tribpoly.__file__).resolve().parents:
        print(f"imported tribpoly from {tribpoly.__file__}, not {src}", file=sys.stderr)
        return 2

    import host
    import tracing
    import workloads

    tracer = None
    if request.get("trace"):
        tracer = tracing.Tracer()
        tracer.install()

    mode = request["mode"]
    if mode == "setup":
        start = perf_counter()
        workloads.warm_up(tribpoly, request["workload"])
        out = {"import_s": import_s, "warmup_s": perf_counter() - start}
    elif mode == "pass":
        refs = host.RefSampler()
        times, observations = workloads.run_pass(tribpoly, request["ops"], refs, tracer)
        out = {
            "times": times,
            "obs": observations,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "refs": refs.samples,
        }
    elif mode == "cli":
        from tribpoly import cli

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli.main(request["argv"])
        out = {"code": code, "output": buffer.getvalue()}
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    if tracer is not None:
        out["trace"] = tracer.snapshot()
        out["spans"] = tracer.spans if request.get("spans") else []
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
