"""Command-line interface: construction, enumeration, pairing, verification.

Exit status: 0 on success (verify: all verdicts true), 1 when an identity or
property fails, 2 on usage errors (bad flags, malformed chain literals,
chains outside a pairing's domain, enumeration over the chain guard, a
lattice or containment table over its size budget).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Optional, Sequence

from .chains import (
    Chain,
    ChainLimitExceeded,
    ComplexKind,
    chain_stabilizer_type,
    enumerate_chains,
    membership,
)
from .ideals import Ideal, SizeLimitExceeded, enumerate_ideals, ideal_lattice
from .pairings import PairingDomainError, pair_nonabelian, pair_nonradical
from .root_system import RootSystem, RootSystemSpec, build_root_system
from .sums import DEFAULT_MAX_CHAINS, verify

ENV_MAX_CHAINS = "NILCHAIN_MAX_CHAINS"


class UsageError(ValueError):
    pass


def _build(args: argparse.Namespace) -> RootSystem:
    family = args.type.upper()
    try:
        spec = RootSystemSpec(family, args.rank)
        return build_root_system(spec, allow_large=args.allow_large)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _max_chains(args: argparse.Namespace) -> int:
    # Every complex has the empty chain, so a limit below 1 can never pass.
    if args.max_chains is not None:
        if args.max_chains < 1:
            raise UsageError(f"--max-chains must be at least 1, got {args.max_chains}")
        return args.max_chains
    env = os.environ.get(ENV_MAX_CHAINS)
    if env is None:
        return DEFAULT_MAX_CHAINS
    try:
        limit = int(env)
    except ValueError as exc:
        raise UsageError(f"{ENV_MAX_CHAINS} must be an integer, got {env!r}") from exc
    if limit < 1:
        raise UsageError(f"{ENV_MAX_CHAINS} must be at least 1, got {limit}")
    return limit


def _subset_str(subset: frozenset[int]) -> str:
    return "{" + ", ".join(map(str, sorted(subset))) + "}"


def parse_chain_literal(rs: RootSystem, text: str) -> Chain:
    """Parse a chain literal: members separated by ``<``, each a brace-enclosed
    comma-separated list of canonical root indices, e.g. ``{2} < {0, 2}``.

    An optional surrounding ``[ ]`` (the display form) is accepted.  Raises
    ``UsageError`` naming the position of the first offending character.
    """
    s = text
    offset = 0
    stripped = s.strip()
    if stripped.startswith("[") and stripped.endswith("]") and len(stripped) >= 2:
        offset = s.index("[") + 1
        s = stripped[1:-1]
    pos = 0
    n = len(s)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and s[pos].isspace():
            pos += 1

    def fail(expected: str) -> UsageError:
        found = repr(s[pos]) if pos < n else "end of input"
        return UsageError(
            f"malformed chain literal at position {offset + pos}: expected {expected}, found {found}"
        )

    members: list[Ideal] = []
    skip_ws()
    if pos == n:
        return Chain(rs, ())
    while True:
        skip_ws()
        if pos >= n or s[pos] != "{":
            raise fail("'{'")
        pos += 1
        indices: list[int] = []
        skip_ws()
        if pos < n and s[pos] == "}":
            pos += 1
        else:
            while True:
                skip_ws()
                start = pos
                while pos < n and s[pos].isdigit():
                    pos += 1
                if pos == start:
                    raise fail("a root index")
                indices.append(int(s[start:pos]))
                skip_ws()
                if pos < n and s[pos] == ",":
                    pos += 1
                    continue
                if pos < n and s[pos] == "}":
                    pos += 1
                    break
                raise fail("',' or '}'")
        try:
            members.append(Ideal(rs, indices))
        except (ValueError, IndexError) as exc:
            raise UsageError(f"invalid chain member {{{', '.join(map(str, indices))}}}: {exc}") from exc
        skip_ws()
        if pos == n:
            break
        if s[pos] != "<":
            raise fail("'<' or end of input")
        pos += 1
    try:
        return Chain(rs, tuple(members))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _write_json(doc: dict, out) -> None:
    # json.dump writes chunk by chunk, so the whole text is never held.  With
    # indent set, dump and dumps use the same pure-Python encoder, so the
    # bytes are those of json.dumps(doc, indent=2).
    json.dump(doc, out, indent=2)
    out.write("\n")


def _ideal_json(n: Ideal) -> dict:
    roots = n.root_indices()
    return {
        "roots": list(roots),
        "vectors": [list(n.rs.positive_roots[i].coeffs) for i in roots],
    }


def _chain_json(c: Chain) -> list[list[int]]:
    return [list(n.root_indices()) for n in c.members]


def _cmd_roots(args: argparse.Namespace, out) -> int:
    rs = _build(args)
    rows = []
    for i, root in enumerate(rs.positive_roots):
        simple = ""
        for k in range(1, rs.rank + 1):
            if rs.simple_root_index(k) == i:
                simple = f"alpha_{k}"
        rows.append((i, root.coeffs, root.height, simple))
    if args.format == "json":
        doc = {
            "type": rs.spec.family,
            "rank": rs.rank,
            "roots": [
                {"index": i, "coeffs": list(c), "height": h, "simple": simple or None}
                for i, c, h, simple in rows
            ],
        }
        _write_json(doc, out)
    elif args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["index", "coeffs", "height", "simple"])
        for i, c, h, simple in rows:
            writer.writerow([i, " ".join(map(str, c)), h, simple])
    else:
        print(f"positive roots of {rs.spec} (canonical order)", file=out)
        for i, c, h, simple in rows:
            vec = "(" + ",".join(map(str, c)) + ")"
            print(f"{i:>4}  {vec:<{3 * rs.rank + 4}}  height {h:<3} {simple}", file=out)
    return 0


def _cmd_ideals(args: argparse.Namespace, out) -> int:
    rs = _build(args)
    lat = ideal_lattice(rs)
    rows = []
    # Canonical order is the lattice's id order, so flags are read by position.
    for i, n in enumerate(enumerate_ideals(rs)):
        abelian = lat.abelian[i]
        radical = i != 0 and lat.radical[i]
        if args.abelian and not abelian:
            continue
        if args.radical and not radical:
            continue
        rows.append((n, abelian, radical, lat.normalizer_type_of(i)))
    if args.format == "json":
        doc = {
            "type": rs.spec.family,
            "rank": rs.rank,
            "ideals": [
                {
                    **_ideal_json(n),
                    "abelian": abelian,
                    "radical": radical,
                    "normalizer": sorted(norm),
                }
                for n, abelian, radical, norm in rows
            ],
        }
        _write_json(doc, out)
    elif args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["roots", "size", "abelian", "radical", "normalizer"])
        for n, abelian, radical, norm in rows:
            writer.writerow(
                [
                    " ".join(map(str, n.root_indices())),
                    len(n),
                    abelian,
                    radical,
                    " ".join(map(str, sorted(norm))),
                ]
            )
    else:
        print(f"ideals of the Borel in {rs.spec}: {len(rows)} shown", file=out)
        for n, abelian, radical, norm in rows:
            flags = ("abelian" if abelian else "       ") + " " + (
                "radical" if radical else "       "
            )
            print(f"  {str(n):<24} {flags}  normalizer {_subset_str(norm)}", file=out)
    return 0


def _cmd_chains(args: argparse.Namespace, out) -> int:
    rs = _build(args)
    kind = ComplexKind(args.complex)
    limit = _max_chains(args)
    total = 0
    for chain in enumerate_chains(rs, kind, max_chains=limit):
        stab = chain_stabilizer_type(chain)
        if args.format == "json":
            if kind is ComplexKind.CP:
                doc = {"chain": [sorted(j) for j in chain.members]}
            else:
                doc = {"chain": _chain_json(chain)}
            doc["length"] = chain.length
            doc["stabilizer"] = sorted(stab)
            print(json.dumps(doc), file=out)
        else:
            print(
                f"{chain}  length={chain.length}  stabilizer={_subset_str(stab)}",
                file=out,
            )
        total += 1
    if args.format != "json":
        print(f"total: {total} chains in {kind.name} of {rs.spec}", file=out)
    return 0


def _cmd_pair(args: argparse.Namespace, out) -> int:
    rs = _build(args)
    chain = parse_chain_literal(rs, args.chain)
    if args.complex == "ci-minus-ca":
        pairing, name = pair_nonabelian, "nonabelian"
    else:
        pairing, name = pair_nonradical, "nonradical"
    try:
        partner = pairing(chain)
        back = pairing(partner)
    except PairingDomainError as exc:
        raise UsageError(f"chain not in the {name} pairing domain: {exc}") from exc
    laws = {
        "involution": back == chain,
        "length_change_is_one": abs(partner.length - chain.length) == 1,
        "stabilizer_preserved": chain_stabilizer_type(partner) == chain_stabilizer_type(chain),
        "same_domain": (
            not membership(ComplexKind.CA, partner)
            if name == "nonabelian"
            else not membership(ComplexKind.CR, partner)
        ),
    }
    if name == "nonabelian":
        laws["top_preserved"] = partner.members[-1] == chain.members[-1]
    if args.format == "json":
        doc = {
            "type": rs.spec.family,
            "rank": rs.rank,
            "pairing": name,
            "input": _chain_json(chain),
            "paired": _chain_json(partner),
            "laws": laws,
        }
        _write_json(doc, out)
    else:
        print(f"{name} pairing in {rs.spec}", file=out)
        print(f"  input:  {chain}", file=out)
        print(f"  paired: {partner}", file=out)
        for key, value in laws.items():
            print(f"  {'ok' if value else 'FAIL'}  {key}", file=out)
    return 0 if all(laws.values()) else 1


def _sum_str(vector) -> str:
    return "  ".join(
        "{" + ",".join(map(str, js)) + "}:" + f"{c:+d}" for js, c in vector.to_pairs()
    )


def _cmd_verify(args: argparse.Namespace, out) -> int:
    rs = _build(args)
    report = verify(rs, max_chains=_max_chains(args))
    if args.format == "json":
        _write_json(report.to_dict(), out)
    elif args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["complex", "length", "count"])
        for name, summary in report.complexes.items():
            for length, count in sorted(summary.by_length.items()):
                writer.writerow([name, length, count])
    else:
        print(f"verification report for {rs.spec}", file=out)
        for name, summary in report.complexes.items():
            hist = "  ".join(f"{k}:{v}" for k, v in sorted(summary.by_length.items()))
            print(f"  {name}: {summary.total} chains (by length {hist})", file=out)
            print(f"      sum {_sum_str(summary.sum)}", file=out)
        print(f"  closed form {_sum_str(report.closed_form)}", file=out)
        for key, value in report.verdicts.items():
            print(f"  {'PASS' if value else 'FAIL'}  {key}", file=out)
        checks = report.involution_checks
        print(
            f"  pairings checked: {checks['nonabelian']} nonabelian, "
            f"{checks['nonradical']} nonradical",
            file=out,
        )
        print(f"  elapsed: {report.elapsed_ms:.1f} ms", file=out)
        print("VERIFIED" if report.ok else "FAILED", file=out)
    return 0 if report.ok else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilchain",
        description=(
            "Enumerate ad-nilpotent ideals of a Borel subalgebra, their chain "
            "complexes, and verify the alternating-sum identities exactly."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats: Sequence[str]) -> None:
        p.add_argument("--type", required=True, help="family letter A..G")
        p.add_argument("--rank", required=True, type=int)
        p.add_argument("--format", choices=list(formats), default="human")
        p.add_argument(
            "--allow-large",
            action="store_true",
            help="lift the default size gate (E7/E8 and systems over 64 positive roots)",
        )

    p_roots = sub.add_parser("roots", help="print the canonical positive-root table")
    common(p_roots, ("human", "json", "csv"))

    p_ideals = sub.add_parser("ideals", help="enumerate ideals with flags and normalizer types")
    common(p_ideals, ("human", "json", "csv"))
    p_ideals.add_argument("--abelian", action="store_true", help="only abelian ideals")
    p_ideals.add_argument(
        "--radical",
        action="store_true",
        help="only nonzero ideals equal to the nilradical of their normalizer",
    )

    p_chains = sub.add_parser("chains", help="stream the chains of a complex")
    common(p_chains, ("human", "json"))
    p_chains.add_argument("--complex", required=True, choices=[k.value for k in ComplexKind])
    p_chains.add_argument("--max-chains", type=int, default=None)

    p_pair = sub.add_parser("pair", help="apply a sign-reversing pairing to a chain")
    common(p_pair, ("human", "json"))
    p_pair.add_argument("--complex", required=True, choices=["ci-minus-ca", "ci-minus-cr"])
    p_pair.add_argument(
        "--chain",
        required=True,
        help="chain literal, e.g. '{2} < {0, 2}' with canonical root indices",
    )

    p_verify = sub.add_parser("verify", help="run the full identity suite")
    common(p_verify, ("human", "json", "csv"))
    p_verify.add_argument("--max-chains", type=int, default=None)

    return parser


def run(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _parser()
    args = parser.parse_args(argv)
    handlers = {
        "roots": _cmd_roots,
        "ideals": _cmd_ideals,
        "chains": _cmd_chains,
        "pair": _cmd_pair,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args, out)
    except (UsageError, ChainLimitExceeded, SizeLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
