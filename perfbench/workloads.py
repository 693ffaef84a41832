"""The four workloads: set-up, the fixed op list, and each op's oracle check.

``setup(name, nc, inputs)`` builds what the ops reuse and returns the op list.
An op is ``(label, run, check)``: ``run()`` is the timed call into nilchain
and ``check(result)`` returns ``None`` or the reason the result is wrong.
Ops reach nilchain through module attributes at call time, so the traced
run sees every call the benchmark makes.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from typing import Callable, Optional

import oracle

Op = tuple[str, Callable[[], object], Callable[[object], Optional[str]]]


def setup(name: str, nc, inputs: dict) -> list[Op]:
    return {
        "verify_d4": _verify_d4,
        "sums_fold": _sums_fold,
        "lattice_build": _lattice_build,
        "object_api": _object_api,
    }[name](nc, inputs)


def _system(nc, family: str, rank: int):
    rs_mod = nc.root_system
    return rs_mod.build_root_system(rs_mod.RootSystemSpec(family, rank), allow_large=True)


def _cli_op(nc, argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        buf = io.StringIO()
        code = nc.cli.run(argv, out=buf)
        return code, buf.getvalue()

    return run


def _pairs_to_dict(pairs) -> dict[tuple[int, ...], int]:
    return {tuple(js): c for js, c in pairs}


# ---------------------------------------------------------------- verify_d4


def _verify_d4(nc, inputs: dict) -> list[Op]:
    nc.ideals.ideal_lattice(_system(nc, "D", 4))
    return [("verify D4", _cli_op(nc, inputs["argv"]), _check_verify)]


def _check_verify(result) -> Optional[str]:
    code, text = result
    if code != 0:
        return f"exit status {code}"
    doc = json.loads(text)
    family, rank = doc["type"], doc["rank"]
    expected = oracle.closed_form(rank)
    if _pairs_to_dict(doc["closed_form"]) != expected:
        return "closed form differs from the oracle"
    for entry in doc["complexes"]:
        kind = entry["complex"]
        total = oracle.chain_total(family, rank, kind)
        if entry["chain_counts"]["total"] != total:
            return f"{kind} has {entry['chain_counts']['total']} chains, expected {total}"
        if sum(c for _, c in entry["chain_counts"]["by_length"]) != total:
            return f"{kind} length histogram does not add up to {total}"
        if _pairs_to_dict(entry["sum"]) != expected:
            return f"{kind} sum differs from the closed form"
    if doc["involution_checks"] != oracle.PAIRING_CHECKS[(family, rank)]:
        return f"pairing checks {doc['involution_checks']} differ from the oracle"
    failed = [k for k, v in doc["verdicts"].items() if v is not True]
    return f"verdicts failed: {failed}" if failed else None


# ---------------------------------------------------------------- sums_fold


def _sums_fold(nc, inputs: dict) -> list[Op]:
    systems = {}
    for family, rank, kind in inputs["sums"]:
        if (family, rank) not in systems:
            systems[family, rank] = _system(nc, family, rank)
        if kind != "CP":
            nc.ideals.ideal_lattice(systems[family, rank])
    guard = nc.sums.DEFAULT_MAX_CHAINS
    ops = []
    for family, rank, kind in inputs["sums"]:
        rs = systems[family, rank]
        complex_kind = nc.chains.ComplexKind[kind]

        def run(rs=rs, complex_kind=complex_kind):
            return nc.sums.alternating_sum(rs, complex_kind, max_chains=guard)

        def check(vector, rank=rank):
            got = {tuple(sorted(j)): c for j, c in vector.entries().items()}
            return None if got == oracle.closed_form(rank) else "sum differs from the closed form"

        ops.append((f"sum {family}{rank} {kind}", run, check))
    return ops


# ------------------------------------------------------------ lattice_build


def _lattice_build(nc, inputs: dict) -> list[Op]:
    ops = []
    for family, rank in inputs["systems"]:
        rs = _system(nc, family, rank)

        def check(lat, family=family, rank=rank):
            want = (
                oracle.ideal_count(family, rank),
                oracle.abelian_count(rank),
                oracle.radical_count(rank),
            )
            got = (len(lat), sum(lat.abelian), len(lat.radical_ids))
            return None if got == want else f"(ideals, abelian, radical) = {got}, expected {want}"

        ops.append((f"lattice {family}{rank}", lambda rs=rs: nc.ideals.IdealLattice(rs), check))
    return ops


# --------------------------------------------------------------- object_api


def _object_api(nc, inputs: dict) -> list[Op]:
    systems = {}
    for family, rank in sorted({(op["type"], op["rank"]) for op in inputs["ops"] if "argv" not in op}):
        systems[family, rank] = _system(nc, family, rank)
        nc.ideals.ideal_lattice(systems[family, rank])
    ops = []
    for op in inputs["ops"]:
        if "argv" in op:
            check = _check_chains_b3 if op["argv"][0] == "chains" else _check_ideals_e6
            ops.append((" ".join(op["argv"][:5]), _cli_op(nc, op["argv"]), check))
        else:
            rs = systems[op["type"], op["rank"]]
            run = _pair_request(nc, rs, op["pairing"], op["chain"])
            ops.append((f"pair {op['type']}{op['rank']} {op['pairing']}", run, _check_laws))
    return ops


def _pair_request(nc, rs, pairing: str, literal: str) -> Callable[[], dict]:
    """Parse, pair, pair back, and evaluate the pairing laws on the partner."""
    nonabelian = pairing == "nonabelian"

    def run() -> dict:
        chains, pairings = nc.chains, nc.pairings
        pair = pairings.pair_nonabelian if nonabelian else pairings.pair_nonradical
        chain = nc.cli.parse_chain_literal(rs, literal)
        partner = pair(chain)
        back = pair(partner)
        complex_kind = chains.ComplexKind.CA if nonabelian else chains.ComplexKind.CR
        laws = {
            "involution": back == chain,
            "length_change_is_one": abs(partner.length - chain.length) == 1,
            "stabilizer_preserved": chains.chain_stabilizer_type(partner)
            == chains.chain_stabilizer_type(chain),
            "same_domain": not chains.membership(complex_kind, partner),
        }
        if nonabelian:
            laws["top_preserved"] = partner.members[-1] == chain.members[-1]
        return laws

    return run


def _check_laws(laws: dict) -> Optional[str]:
    failed = [k for k, v in laws.items() if v is not True]
    return f"pairing laws failed: {failed}" if failed else None


def _check_chains_b3(result) -> Optional[str]:
    code, text = result
    if code != 0:
        return f"exit status {code}"
    total = oracle.chain_total("B", 3, "CI")
    lines = text.splitlines()
    if len(lines) != total:
        return f"{len(lines)} chains, expected {total}"
    signed: Counter = Counter()
    for line in lines:
        doc = json.loads(line)
        if doc["length"] != len(doc["chain"]):
            return f"length {doc['length']} of {doc['chain']} is wrong"
        signed[tuple(doc["stabilizer"])] += (-1) ** doc["length"]
    if {k: v for k, v in signed.items() if v} != oracle.closed_form(3):
        return "alternating sum of the streamed chains differs from the closed form"
    return None


def _check_ideals_e6(result) -> Optional[str]:
    code, text = result
    if code != 0:
        return f"exit status {code}"
    ideals = json.loads(text)["ideals"]
    got = (len(ideals), sum(n["abelian"] for n in ideals), sum(n["radical"] for n in ideals))
    want = (oracle.ideal_count("E", 6), oracle.abelian_count(6), oracle.radical_count(6))
    return None if got == want else f"(ideals, abelian, radical) = {got}, expected {want}"
