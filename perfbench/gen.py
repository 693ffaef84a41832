"""Seeded inputs for each workload.

The workload's op list is fixed; the seed sets its order and, for
``object_api``, the pair requests themselves.  A pair request's chain is a
random ascending walk over the covers of the ideal lattice, each visited
nonzero ideal kept with probability one half, redrawn until the chain lies
in the requested pairing's domain.  The same seed gives byte-identical
inputs.
"""

from __future__ import annotations

import json
import random

VERIFY_ARGV = ["verify", "--type", "D", "--rank", "4", "--format", "json"]
SUMS_FOLD = (
    ("D", 4, "CI"),
    ("A", 4, "CI"),
    ("A", 5, "CA"),
    ("A", 5, "CR"),
    ("F", 4, "CA"),
    ("F", 4, "CR"),
    ("E", 6, "CA"),
    ("E", 6, "CR"),
    ("A", 8, "CP"),
)
LATTICE_BUILD = (("F", 4), ("E", 6), ("A", 7), ("E", 7))
PAIR_SYSTEMS = (("B", 3), ("C", 3), ("A", 4), ("D", 4))
PAIRINGS = ("nonabelian", "nonradical")
PAIR_REQUESTS = 2000
BULK_ARGV = (
    ["chains", "--type", "B", "--rank", "3", "--complex", "ci", "--format", "json"],
    ["ideals", "--type", "E", "--rank", "6", "--format", "json"],
)

WORKLOADS = ("verify_d4", "sums_fold", "lattice_build", "object_api")


def make_inputs(workload: str, seed: int, nc=None) -> dict:
    """The inputs of one run; ``nc`` (the nilchain modules) is needed for object_api."""
    rng = random.Random(seed)
    if workload == "verify_d4":
        return {"argv": VERIFY_ARGV}
    if workload == "sums_fold":
        return {"sums": rng.sample([list(t) for t in SUMS_FOLD], len(SUMS_FOLD))}
    if workload == "lattice_build":
        return {"systems": rng.sample([list(t) for t in LATTICE_BUILD], len(LATTICE_BUILD))}
    if workload == "object_api":
        return _object_api(rng, nc)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def dumps(inputs: dict) -> str:
    return json.dumps(inputs, sort_keys=True, separators=(",", ":"))


def _object_api(rng: random.Random, nc) -> dict:
    walks = {system: _cover_table(nc, *system) for system in PAIR_SYSTEMS}
    ops: list[dict] = []
    for _ in range(PAIR_REQUESTS):
        system = rng.choice(PAIR_SYSTEMS)
        pairing = rng.choice(PAIRINGS)
        chain = _random_chain(rng, walks[system], pairing)
        ops.append({"type": system[0], "rank": system[1], "pairing": pairing, "chain": chain})
    for argv in BULK_ARGV:
        ops.insert(rng.randrange(len(ops) + 1), {"argv": argv})
    return {"ops": ops}


def _cover_table(nc, family: str, rank: int) -> dict:
    """Root indices, upward covers and domain flags of every ideal, zero first."""
    rs = nc.root_system.build_root_system(nc.root_system.RootSystemSpec(family, rank))
    ideals = nc.ideals.enumerate_ideals(rs)
    masks = [n.mask for n in ideals]
    covers = [
        [j for j, m in enumerate(masks) if m & mask == mask and m.bit_count() == mask.bit_count() + 1]
        for mask in masks
    ]
    return {
        "roots": [n.root_indices() for n in ideals],
        "covers": covers,
        "abelian": [nc.ideals.is_abelian(n) for n in ideals],
        "radical": [nc.ideals.is_radical_member(n) for n in ideals],
    }


def _random_chain(rng: random.Random, table: dict, pairing: str) -> str:
    while True:
        here, members = 0, []
        while table["covers"][here] and rng.random() >= 0.15:
            here = rng.choice(table["covers"][here])
            if rng.random() < 0.5:
                members.append(here)
        if not members:
            continue
        if pairing == "nonabelian" and table["abelian"][members[-1]]:
            continue
        if pairing == "nonradical" and all(table["radical"][i] for i in members):
            continue
        return " < ".join("{" + ", ".join(map(str, table["roots"][i])) + "}" for i in members)
