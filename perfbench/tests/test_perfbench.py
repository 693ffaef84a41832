"""Tests of the benchmark itself: oracle, inputs, span arithmetic, metric names, smoke runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "family, rank, count",
    [("A", 4, 42), ("D", 4, 50), ("F", 4, 105), ("E", 6, 833), ("E", 7, 4160), ("B", 3, 20), ("G", 2, 8)],
)
def test_ideal_count_is_the_catalan_number_of_the_type(family, rank, count):
    assert oracle.ideal_count(family, rank) == count


def test_abelian_radical_and_chain_counts():
    assert (oracle.abelian_count(4), oracle.radical_count(4)) == (16, 15)
    assert [oracle.fubini(n) for n in range(6)] == [1, 1, 3, 13, 75, 541]
    assert oracle.chain_total("D", 4, "CP") == oracle.chain_total("D", 4, "CR") == 150
    assert oracle.chain_total("A", 8, "CP") == 1_091_670


def test_closed_form_signs_follow_corank():
    assert oracle.closed_form(2) == {(): 1, (1,): -1, (2,): -1, (1, 2): 1}


def test_checks_reject_wrong_results():
    assert workloads._check_verify((1, "")) == "exit status 1"
    assert workloads._check_laws({"involution": True, "same_domain": False})
    assert workloads._check_ideals_e6((0, json.dumps({"ideals": [{"abelian": True, "radical": False}]})))
    assert workloads._check_chains_b3((0, '{"chain": [], "length": 0, "stabilizer": [1, 2, 3]}'))


def test_self_time_of_synthetic_spans():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9].
    names = ["root", "a", "c", "b"]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    stats = spans.aggregate(names, parents, starts, ends)
    assert stats == {
        "root": [1, 10.0, 3.0],
        "a": [1, 3.0, 2.0],
        "c": [1, 1.0, 1.0],
        "b": [1, 4.0, 4.0],
    }
    assert sum(s[2] for s in stats.values()) == ends[0] - starts[0]


def test_repeated_names_sum_calls_total_and_self():
    stats = spans.aggregate(["f", "g", "f", "g"], [-1, 0, -1, 2], [0.0, 1.0, 5.0, 5.5], [2.0, 1.5, 6.0, 6.0])
    assert stats == {"f": [2, 3.0, 2.0], "g": [2, 1.0, 1.0]}


def test_tracer_records_nested_calls_and_drawn_items(monkeypatch):
    ticks = iter(range(100))
    module = types.ModuleType("toy")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    module.walk = lambda n: iter(range(n))
    monkeypatch.setitem(sys.modules, "toy", module)
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    tracer.wrap("toy", "inner")
    tracer.wrap("toy", "outer", count=lambda result, args, kwargs: args[0])
    tracer.wrap("toy", "walk", iterate=True)
    tracer.wrap("toy", "gone")
    assert module.outer(3) == 8
    assert list(module.walk(2)) == [0, 1]
    stats = tracer.fold()
    assert tracer.missing == ["toy.gone"]
    assert stats["toy.outer"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0, "items": 3}
    assert stats["toy.inner"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0, "items": 0}
    # one span for the call, one per item drawn, one for the exhausting draw
    assert stats["toy.walk"]["calls"] == 4 and stats["toy.walk"]["items"] == 2
    assert tracer.fold() == {}


def test_layer_metrics_report_removed_names_as_missing():
    every = [f"{m}.{a}" for entries in spans.LAYERS.values() for m, a, _ in entries]
    values = spans.layer_metrics({}, {}, 1, missing=every)
    assert set(values) == set(spans.LAYER_METRICS) and set(values.values()) == {None}
    assert spans.layer_metrics({}, {}, 1, missing=[])["cli.run_s"] == 0


def test_metric_names_are_well_formed_and_match_the_benchmark_file():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    e2e = {m["name"] for m in declared["end_to_end"]}
    layers = {m["name"] for m in declared["per_layer"]}
    assert e2e == set(run.END_TO_END)
    assert layers == set(spans.LAYER_METRICS) | {"trace.overhead_s"}
    for name in e2e | layers | {w["name"] for w in declared["workloads"]}:
        assert pattern.fullmatch(name), name
    assert [w["name"] for w in declared["workloads"]] == list(gen.WORKLOADS)


def _load_nilchain():
    sys.path.insert(0, str(ROOT / "src"))
    import nilchain.ideals
    import nilchain.root_system

    return types.SimpleNamespace(ideals=nilchain.ideals, root_system=nilchain.root_system)


def test_same_seed_gives_byte_identical_inputs():
    nc = _load_nilchain()
    for workload in gen.WORKLOADS:
        first = gen.dumps(gen.make_inputs(workload, 7, nc))
        assert first == gen.dumps(gen.make_inputs(workload, 7, nc))
    assert gen.dumps(gen.make_inputs("object_api", 7, nc)) != gen.dumps(
        gen.make_inputs("object_api", 8, nc)
    )


def test_pair_requests_cover_every_system_and_both_pairings():
    ops = gen.make_inputs("object_api", 1, _load_nilchain())["ops"]
    requests = [op for op in ops if "argv" not in op]
    assert len(requests) == gen.PAIR_REQUESTS and len(ops) == gen.PAIR_REQUESTS + len(gen.BULK_ARGV)
    seen = {(op["type"], op["rank"], op["pairing"]) for op in requests}
    assert seen == {(f, r, p) for f, r in gen.PAIR_SYSTEMS for p in gen.PAIRINGS}


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_smoke_run_has_no_failed_op(workload):
    done = _bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert "error_rate = 0 " in done.stdout


def test_run_without_a_checkout_fails_without_a_result(tmp_path):
    done = _bench(tmp_path, "--workload", "verify_d4", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
