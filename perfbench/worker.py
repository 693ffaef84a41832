"""One workload in one fresh process; prints its measurements as one JSON line.

    python3 perfbench/worker.py --workload NAME --inputs FILE --seconds S --src DIR
        [--setup-only | --trace-out FILE]

Set-up time runs from the import of nilchain to the first op.  The
op list then runs whole, pass after pass, until another pass would end
after ``--seconds``; at least one pass runs.  Each op's result is checked
against the oracle outside its timing.
"""

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import spans
import workloads

MODULES = ("root_system", "ideals", "chains", "pairings", "sums", "cli")


def _load(src: str) -> types.SimpleNamespace:
    sys.path.insert(0, src)
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"nilchain.{m}") for m in MODULES}
    )


def _run_passes(ops, seconds: float, after_pass=None) -> dict:
    latencies: list[float] = []
    walls: list[float] = []
    attempted = failed = 0
    errors: list[str] = []
    began = time.perf_counter()
    while True:
        pass_began = time.perf_counter()
        busy = 0.0
        for label, run, check in ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = run()
            except Exception as exc:  # every failure of an op is counted, not fatal
                took = time.perf_counter() - t0
                result, reason = None, f"raised {type(exc).__name__}: {exc}"
            else:
                took = time.perf_counter() - t0
                reason = check(result)
            result = None  # free the result before the next op starts
            busy += took
            latencies.append(took)
            if reason is not None:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{label}: {reason}")
        walls.append(busy)
        if after_pass is not None:
            after_pass()
        now = time.perf_counter()
        if now - began + (now - pass_began) > seconds:
            break
    latencies.sort()
    out = {
        "passes": len(walls),
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "ops": len(latencies),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }
    # The highest percentile reported is the one with ten samples beyond it.
    if len(latencies) >= 1000:
        out["op_p99_ms"] = latencies[math.ceil(0.99 * len(latencies)) - 1] * 1e3
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    inputs = json.loads(Path(args.inputs).read_text())
    started = time.perf_counter()
    nc = _load(args.src)
    tracer = None
    if args.trace_out:
        tracer = spans.Tracer()
        spans.install(tracer)
    ops = workloads.setup(args.workload, nc, inputs)
    setup_s = time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer is None:
        result = _run_passes(ops, args.seconds)
    else:
        setup_spans = tracer.fold()
        pass_spans: dict[str, dict] = {}

        def fold_pass() -> None:
            for name, stats in tracer.fold().items():
                into = pass_spans.setdefault(name, dict.fromkeys(stats, 0))
                for key, value in stats.items():
                    into[key] += value

        result = _run_passes(ops, args.seconds, after_pass=fold_pass)
        result["layers"] = spans.layer_metrics(
            setup_spans, pass_spans, result["passes"], tracer.missing
        )
        result["missing"] = tracer.missing
        Path(args.trace_out).write_text(
            json.dumps(
                {"passes": result["passes"], "setup": setup_spans, "passes_total": pass_spans},
                indent=1,
                sort_keys=True,
            )
        )
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
