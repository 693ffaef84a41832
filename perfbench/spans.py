"""Spans around the calls into nilchain's public names, for the traced run.

The tracer replaces a module attribute (a public name as one caller module
sees it, e.g. ``nilchain.sums.pair_nonabelian_ids``) with a wrapper that
records one span per call: name, parent, start and end.  A name that
returns an iterator gets one span per item drawn from it, so the time of a
streaming walk is charged to the walk and not to its consumer.  Spans are
kept in memory and folded into per-name totals between passes.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from typing import Callable, Optional, Sequence

import oracle


def aggregate(
    names: Sequence, parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]
) -> dict:
    """Per-name ``[calls, total_s, self_s]`` of a list of spans.

    Span ``i`` is ``(names[i], parents[i], starts[i], ends[i])``; its parent
    is an earlier index, or -1 at the top.  Spans of one thread nest, so the
    part of a span's interval that its children cover is the sum of their
    durations, and self time is the duration minus that sum.
    """
    stats: dict = {}
    for name, parent, start, end in zip(names, parents, starts, ends):
        took = end - start
        entry = stats.get(name)
        if entry is None:
            entry = stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += took
        entry[2] += took
        if parent >= 0:
            stats[names[parent]][2] -= took
    return stats


class Tracer:
    """Records spans for wrapped names; ``fold`` empties them into totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._names: list[str] = []
        self._name = array("H")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._items: Counter = Counter()
        self.missing: list[str] = []

    def _open(self, nid: int) -> int:
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(self._clock())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = self._clock()
        self._stack.pop()

    def wrap(self, module_name: str, attr: str, *, iterate: bool = False, count=None) -> None:
        """Replace ``module.attr`` by a recording wrapper, or note it missing.

        ``count(result, args, kwargs)`` adds to the name's item count; with
        ``iterate`` the items drawn from the returned iterator are counted.
        """
        name = f"{module_name}.{attr}"
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
            return
        nid = len(self._names)
        self._names.append(name)
        tracer = self

        def draw(it):
            while True:
                idx = tracer._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                tracer._items[nid] += 1
                yield item

        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                tracer._items[nid] += count(result, args, kwargs)
            return draw(iter(result)) if iterate else result

        setattr(module, attr, wrapper)

    def fold(self) -> dict[str, dict]:
        """Per-name calls, total, self time and items since the last fold."""
        if len(self._stack) != 1:
            raise RuntimeError("fold called inside an open span")
        stats = aggregate(self._name, self._parent, self._start, self._end)
        out = {
            self._names[nid]: {
                "calls": calls,
                "total_s": total,
                "self_s": self_s,
                "items": self._items.get(nid, 0),
            }
            for nid, (calls, total, self_s) in stats.items()
        }
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        self._items.clear()
        return out


def _involution_checks(report, args, kwargs) -> int:
    return sum(report.involution_checks.values())


def _complex_size(vector, args, kwargs) -> int:
    rs, kind = args[0], args[1]
    return oracle.chain_total(rs.spec.family, rs.rank, kind.name)


# Wrapped names, grouped by the per-layer metric prefix they feed.  Each is
# wrapped in the module whose callers look it up there: nilchain's own
# modules for calls between layers, and the defining module for the calls
# the benchmark makes itself.
LAYERS: dict[str, list[tuple[str, str, dict]]] = {
    "root_system.build": [
        ("nilchain.root_system", "build_root_system", {}),
        ("nilchain.cli", "build_root_system", {}),
    ],
    "ideals.lattice": [("nilchain.ideals", "IdealLattice", {"count": lambda lat, a, k: len(lat)})],
    "ideals.enumerate": [("nilchain.cli", "enumerate_ideals", {})],
    "ideals.predicates": [
        ("nilchain.cli", "is_abelian", {}),
        ("nilchain.cli", "is_radical_member", {}),
        ("nilchain.cli", "normalizer_type", {}),
        ("nilchain.chains", "is_abelian", {}),
        ("nilchain.chains", "is_radical_member", {}),
        ("nilchain.chains", "normalizer_type", {}),
        ("nilchain.chains", "nilradical_of_parabolic", {}),
    ],
    "chains.enumerate": [
        ("nilchain.cli", "enumerate_chains", {"iterate": True}),
        ("nilchain.sums", "enumerate_chains", {"iterate": True}),
    ],
    "chains.stabilizer": [
        ("nilchain.chains", "chain_stabilizer_type", {}),
        ("nilchain.cli", "chain_stabilizer_type", {}),
        ("nilchain.sums", "chain_stabilizer_type", {}),
    ],
    "chains.membership": [
        ("nilchain.chains", "membership", {}),
        ("nilchain.cli", "membership", {}),
    ],
    "chains.index_walk": [
        ("nilchain.chains", "iter_index_chains", {"iterate": True}),
        ("nilchain.sums", "iter_index_chains", {"iterate": True}),
    ],
    "chains.precount": [("nilchain.chains", "count_index_chains", {})],
    "pairings.pair_ids": [
        (module, attr, {})
        for module in ("nilchain.pairings", "nilchain.sums")
        for attr in ("pair_nonabelian_ids", "pair_nonradical_ids")
    ],
    "pairings.pair_chain": [
        (module, attr, {})
        for module in ("nilchain.pairings", "nilchain.cli")
        for attr in ("pair_nonabelian", "pair_nonradical")
    ],
    "sums.verify": [("nilchain.cli", "verify", {"count": _involution_checks})],
    "sums.alternating_sum": [("nilchain.sums", "alternating_sum", {"count": _complex_size})],
    "sums.boolean_interval": [("nilchain.sums", "boolean_interval_check", {})],
    "cli.run": [("nilchain.cli", "run", {})],
    "cli.parse_chain": [("nilchain.cli", "parse_chain_literal", {})],
}

# Per-layer metric -> (unit, layer, quantity); the quantity is summed over
# the layer's names.  ``trace.overhead_s`` is added by the runner.
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "root_system.build_s": ("s", "root_system.build", "total_s"),
    "ideals.lattice_s": ("s", "ideals.lattice", "total_s"),
    "ideals.lattice_ideals": ("count", "ideals.lattice", "items"),
    "ideals.enumerate_s": ("s", "ideals.enumerate", "total_s"),
    "ideals.predicates_s": ("s", "ideals.predicates", "total_s"),
    "ideals.predicates_calls": ("count", "ideals.predicates", "calls"),
    "chains.enumerate_s": ("s", "chains.enumerate", "total_s"),
    "chains.enumerate_chains": ("count", "chains.enumerate", "items"),
    "chains.stabilizer_s": ("s", "chains.stabilizer", "total_s"),
    "chains.membership_s": ("s", "chains.membership", "total_s"),
    "chains.index_walk_s": ("s", "chains.index_walk", "total_s"),
    "chains.index_walk_chains": ("count", "chains.index_walk", "items"),
    "chains.precount_s": ("s", "chains.precount", "total_s"),
    "pairings.pair_ids_s": ("s", "pairings.pair_ids", "total_s"),
    "pairings.pair_ids_calls": ("count", "pairings.pair_ids", "calls"),
    "pairings.pair_chain_s": ("s", "pairings.pair_chain", "total_s"),
    "pairings.pair_chain_calls": ("count", "pairings.pair_chain", "calls"),
    "sums.verify_s": ("s", "sums.verify", "total_s"),
    "sums.verify_self_s": ("s", "sums.verify", "self_s"),
    "sums.verify_pairing_checks": ("count", "sums.verify", "items"),
    "sums.alternating_sum_s": ("s", "sums.alternating_sum", "total_s"),
    "sums.alternating_sum_chains": ("count", "sums.alternating_sum", "items"),
    "sums.boolean_interval_s": ("s", "sums.boolean_interval", "total_s"),
    "cli.run_s": ("s", "cli.run", "total_s"),
    "cli.self_s": ("s", "cli.run", "self_s"),
    "cli.parse_chain_s": ("s", "cli.parse_chain", "total_s"),
}


def install(tracer: Tracer) -> None:
    for entries in LAYERS.values():
        for module, attr, options in entries:
            tracer.wrap(module, attr, **options)


def layer_metrics(setup: dict, passes: dict, n_passes: int, missing: list[str]) -> dict:
    """Each metric for one fresh run: its set-up share plus one pass's share.

    A metric whose every wrapped name is missing reads ``None``.
    """
    out: dict[str, Optional[float]] = {}
    for metric, (_, layer, quantity) in LAYER_METRICS.items():
        names = [f"{module}.{attr}" for module, attr, _ in LAYERS[layer]]
        if all(name in missing for name in names):
            out[metric] = None
            continue
        value = sum(setup.get(n, {}).get(quantity, 0) for n in names)
        value += sum(passes.get(n, {}).get(quantity, 0) for n in names) / n_passes
        out[metric] = value
    return out
