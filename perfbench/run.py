"""nilchain benchmark: one workload, one run, one JSON result on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a nilchain checkout; it imports the package from
``src/`` there.  The inputs are generated from the seed first, in this
process.  Each measurement then runs in a fresh worker process
(``worker.py``): six that only set up, then one that sets up and runs the
workload for ``--seconds``; ``setup_s`` is the median of the seven.
``--trace 1`` instead runs the workload for half the time untraced and half
traced, and reports the per-layer metrics.
Scratch files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import gen
import spans

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def _worker(args: argparse.Namespace, inputs: Path, seconds: float, *extra: str) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--inputs", str(inputs),
        "--seconds", str(seconds),
        "--src", str(args.src),
        *extra,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    remaining = DEADLINE_S - (time.perf_counter() - args.started)
    done = subprocess.run(
        cmd, capture_output=True, text=True, env=env, timeout=max(remaining, 1.0)
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _report(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )


def _untraced(args: argparse.Namespace, inputs: Path) -> None:
    samples = [
        _worker(args, inputs, 0, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)
    ]
    run = _worker(args, inputs, args.seconds)
    samples.append(run["setup_s"])
    values = dict(run, setup_s=statistics.median(samples))
    print(f"workload {args.workload}, seed {args.seed}: {run['passes']} passes, {run['ops']} ops")
    for name, unit in END_TO_END.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    if "op_p99_ms" in run:
        print(f"op_p99_ms = {run['op_p99_ms']:.6g} ms ({run['ops']} samples)")
    print(f"error_rate = {run['failed'] / run['attempted']:.6g} ({run['failed']}/{run['attempted']})")
    for line in run["errors"]:
        print(f"failed: {line}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    _report(run["failed"] == 0, run["attempted"], run["failed"], metrics)


def _traced(args: argparse.Namespace, inputs: Path, out: Path) -> None:
    half = args.seconds / 2
    plain = _worker(args, inputs, half)
    trace_file = out / f"trace-{args.workload}-{args.seed}.json"
    traced = _worker(args, inputs, half, "--trace-out", str(trace_file))
    layers = dict(traced["layers"], **{"trace.overhead_s": traced["wall_s"] - plain["wall_s"]})
    units = {name: unit for name, (unit, _, _) in spans.LAYER_METRICS.items()}
    units["trace.overhead_s"] = "s"
    print(f"workload {args.workload}, seed {args.seed}: traced spans in {trace_file}")
    for name in traced["missing"]:
        print(f"missing: {name}")
    for name, value in layers.items():
        print(f"{name} = {'missing' if value is None else f'{value:.6g}'} {units[name]}")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    for line in plain["errors"] + traced["errors"]:
        print(f"failed: {line}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
    _report(failed == 0, attempted, failed, metrics)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.started = time.perf_counter()
    args.src = Path.cwd() / "src"
    if not (args.src / "nilchain" / "__init__.py").is_file():
        print(f"error: no nilchain package under {args.src}; run from a checkout's root", file=sys.stderr)
        return 2
    out = Path.cwd() / ".perfbench"
    out.mkdir(exist_ok=True)
    sys.path.insert(0, str(args.src))
    import nilchain.ideals
    import nilchain.root_system

    nc = types.SimpleNamespace(ideals=nilchain.ideals, root_system=nilchain.root_system)
    inputs = out / f"inputs-{args.workload}-{args.seed}.json"
    inputs.write_text(gen.dumps(gen.make_inputs(args.workload, args.seed, nc)))
    if args.trace:
        _traced(args, inputs, out)
    else:
        _untraced(args, inputs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
