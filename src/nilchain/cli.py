"""Command-line interface: construction, enumeration, pairing, verification.

Exit status: 0 on success (verify: all verdicts true), 1 when an identity or
property fails, 2 on usage errors (bad flags, malformed chain literals,
chains outside a pairing's domain, enumeration over the chain guard, a
root table, a lattice or a successor table over its size budget).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Optional, Sequence

from . import pairings
from .chains import (
    Chain,
    ChainLimitExceeded,
    ComplexKind,
    check_ci_bound,
    check_successor_budget,
    enumerate_chains,
)
from .ideals import (
    Ideal,
    IdealLattice,
    SizeLimitExceeded,
    _bit_positions,
    check_ideal_budget,
    enumerate_ideals,  # not called here; perfbench/spans.py wraps nilchain.cli.enumerate_ideals
    ideal_lattice,
)
from .root_system import COUNT_BITS, RootSystem, RootSystemSpec, build_root_system
from .sums import DEFAULT_MAX_CHAINS, verify

ENV_MAX_CHAINS = "NILCHAIN_MAX_CHAINS"

# An integer input (``--rank``, ``--max-chains``, ``NILCHAIN_MAX_CHAINS``, a
# chain literal's root index) with more digits than ``2^COUNT_BITS`` (617) is
# refused as out of range by its digit count, unread; a shorter one reads at
# any int-to-str digit limit Python allows.
_MAX_DIGITS = len(str(1 << COUNT_BITS))


class UsageError(ValueError):
    pass


def _past_max_digits(digits: str) -> bool:
    """Whether ``digits``, an integer's unsigned digits, are refused by the rule above."""
    return len(digits) > _MAX_DIGITS and digits.isascii() and digits.isdigit()


def _read_int(text: str, name: str) -> int:
    """``text`` read as an integer; ``UsageError`` naming ``name`` if it is none or out of range."""
    digits = text.strip().lstrip("+-").replace("_", "")
    if _past_max_digits(digits):
        raise UsageError(f"{name} is out of range: a {len(digits)}-digit integer")
    try:
        return int(text)
    except ValueError as exc:
        raise UsageError(f"{name} must be an integer, got {text!r}") from exc


def _spec(args: argparse.Namespace) -> RootSystemSpec:
    try:
        return RootSystemSpec(args.type.upper(), _read_int(args.rank, "--rank"))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _build(args: argparse.Namespace, *, lattice: bool = False) -> RootSystem:
    """The system; with ``lattice``, its lattice budget is checked before any root is generated."""
    spec = _spec(args)
    if lattice:
        check_ideal_budget(spec)
    return build_root_system(spec)


def _guarded_build(args: argparse.Namespace, kind: ComplexKind) -> tuple[RootSystem, int]:
    """The system and the chain limit; CI's bound and the size budgets come before any root."""
    spec = _spec(args)
    limit = _max_chains(args)
    check_ci_bound(spec, kind, limit)
    check_successor_budget(spec, kind)
    if kind is not ComplexKind.CP:
        check_ideal_budget(spec)
    return build_root_system(spec), limit


def _max_chains(args: argparse.Namespace) -> int:
    """The chain limit: the flag, else the environment, else ``DEFAULT_MAX_CHAINS``."""
    name, text = "--max-chains", args.max_chains
    if text is None:
        name, text = ENV_MAX_CHAINS, os.environ.get(ENV_MAX_CHAINS)
        if text is None:
            return DEFAULT_MAX_CHAINS
    limit = _read_int(text, name)
    # Every complex has the empty chain, so a limit below 1 can never pass.
    if limit < 1:
        raise UsageError(f"{name} must be at least 1, got {limit}")
    return limit


def _subset_str(indices: Sequence[int]) -> str:
    """Ascending ``indices`` in braces, as an ``Ideal`` prints."""
    return "{" + ", ".join(map(str, indices)) + "}"


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
                # ASCII digits only: ``str.isdigit`` also takes '²' and '٨'.
                while pos < n and "0" <= s[pos] <= "9":
                    pos += 1
                if pos == start:
                    raise fail("a root index")
                if _past_max_digits(s[start:pos]):
                    raise UsageError(
                        f"invalid chain member: the {pos - start}-digit root index at position "
                        f"{offset + start} is out of range for {rs.spec}"
                    )
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


def _json_array(items: Sequence[str], indent: str) -> str:
    """Rendered items laid out as ``json.dumps(..., indent=2)`` lays out an array.

    The array opens on a line indented by ``indent``; each item is already
    rendered one level deeper, after ``indent`` and two more spaces.
    """
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def _cmd_roots(args: argparse.Namespace, out) -> int:
    rs = _build(args)
    simple_of = {rs.simple_root_index(k): f"alpha_{k}" for k in range(1, rs.rank + 1)}
    rows = (
        (i, root.coeffs, root.height, simple_of.get(i, ""))
        for i, root in enumerate(rs.positive_roots)
    )
    if args.format == "json":
        # The bytes of json.dumps(doc, indent=2), one root at a time.
        key, item = " " * 6, " " * 8
        out.write(f'{{\n  "type": {json.dumps(rs.spec.family)},\n  "rank": {rs.rank},\n  "roots": ')
        sep = "[\n"
        for i, c, h, simple in rows:
            name = f'"{simple}"' if simple else "null"
            out.write(
                f"{sep}    {{\n"
                f'{key}"index": {i},\n'
                f'{key}"coeffs": {_json_array([item + str(x) for x in c], key)},\n'
                f'{key}"height": {h},\n'
                f'{key}"simple": {name}\n'
                "    }"
            )
            sep = ",\n"
        out.write("\n  ]\n}\n")
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
    rs = _build(args, lattice=True)
    lat = ideal_lattice(rs)
    # The shown ids in canonical order, which is id order, counted before
    # any row is written.  The zero ideal is abelian and never radical.
    if args.radical:
        ids = [i for i in lat.radical_ids if lat.abelian[i]] if args.abelian else lat.radical_ids
    elif args.abelian:
        ids = (0, *lat.abelian_ids)
    else:
        ids = range(len(lat))
    # Each row: the root indices, the abelian and radical flags, and the
    # normalizer's simple indices, read from the tables as it is written.
    rows = (
        (
            _bit_positions(lat.masks[i]),
            lat.abelian[i],
            i != 0 and lat.radical[i],
            [p + 1 for p in _bit_positions(lat.normalizer_bits[i])],
        )
        for i in ids
    )
    if args.format == "json":
        # The bytes of json.dumps(doc, indent=2), one ideal at a time; each
        # root's index and coefficient block is rendered once per call.
        key, item = " " * 6, " " * 8
        root_items = [item + str(r) for r in range(rs.num_positive_roots)]
        vector_items = [
            item + _json_array([item + "  " + str(c) for c in root.coeffs], item)
            for root in rs.positive_roots
        ]
        out.write(f'{{\n  "type": {json.dumps(rs.spec.family)},\n  "rank": {rs.rank},\n  "ideals": ')
        sep = "[\n"
        for roots, abelian, radical, norm in rows:
            out.write(
                f"{sep}    {{\n"
                f'{key}"roots": {_json_array([root_items[r] for r in roots], key)},\n'
                f'{key}"vectors": {_json_array([vector_items[r] for r in roots], key)},\n'
                f'{key}"abelian": {"true" if abelian else "false"},\n'
                f'{key}"radical": {"true" if radical else "false"},\n'
                f'{key}"normalizer": {_json_array([item + str(k) for k in norm], key)}\n'
                "    }"
            )
            sep = ",\n"
        out.write("\n  ]\n}\n" if ids else "[]\n}\n")
    elif args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["roots", "size", "abelian", "radical", "normalizer"])
        for roots, abelian, radical, norm in rows:
            writer.writerow(
                [" ".join(map(str, roots)), len(roots), abelian, radical, " ".join(map(str, norm))]
            )
    else:
        print(f"ideals of the Borel in {rs.spec}: {len(ids)} shown", file=out)
        for roots, abelian, radical, norm in rows:
            flags = ("abelian" if abelian else "       ") + " " + (
                "radical" if radical else "       "
            )
            print(f"  {_subset_str(roots):<24} {flags}  normalizer {_subset_str(norm)}", file=out)
    return 0


def _member_view(lat: Optional[IdealLattice], member) -> tuple[Sequence[int], int]:
    """A chain member's sorted elements and its stabilizer bits.

    An ideal's bits are its normalizer's; a parabolic type (``lat`` is
    ``None``) is its own bits.  A chain's stabilizer is the AND of its
    members' bits, as in ``chain_stabilizer_type``.
    """
    if lat is None:
        return sorted(member), sum(1 << (k - 1) for k in member)
    return member.root_indices(), lat.normalizer_bits[lat.index[member.mask]]


def _cmd_chains(args: argparse.Namespace, out) -> int:
    kind = ComplexKind(args.complex)
    rs, limit = _guarded_build(args, kind)
    # The guard and the size budgets refuse here, before the lattice is read.
    stream = enumerate_chains(rs, kind, max_chains=limit)
    # Each line is the bytes of json.dumps(doc) or of the display form,
    # joined from text rendered once per member and once per stabilizer.
    lat = None if kind is ComplexKind.CP else ideal_lattice(rs)
    left, right = "[]" if args.format == "json" else "{}"
    members: dict = {}
    stabilizers: dict[int, str] = {}
    total = 0
    for chain in stream:
        texts = []
        bits = (1 << rs.rank) - 1
        for member in chain.members:
            key = member if lat is None else member.mask
            entry = members.get(key)
            if entry is None:
                positions, member_bits = _member_view(lat, member)
                entry = members[key] = (left + ", ".join(map(str, positions)) + right, member_bits)
            texts.append(entry[0])
            bits &= entry[1]
        stab = stabilizers.get(bits)
        if stab is None:
            stab = stabilizers[bits] = left + ", ".join(str(p + 1) for p in _bit_positions(bits)) + right
        if args.format == "json":
            line = f'{{"chain": [{", ".join(texts)}], "length": {len(texts)}, "stabilizer": {stab}}}\n'
        else:
            line = f"[{' < '.join(texts)}]  length={len(texts)}  stabilizer={stab}\n"
        out.write(line)
        total += 1
    if args.format != "json":
        print(f"total: {total} chains in {kind.name} of {rs.spec}", file=out)
    return 0


def _cmd_pair(args: argparse.Namespace, out) -> int:
    rs = _build(args, lattice=True)
    chain = parse_chain_literal(rs, args.chain)
    keeps_top = args.complex == "ci-minus-ca"
    name = "nonabelian" if keeps_top else "nonradical"
    try:
        lat, ids = pairings.domain_ids(chain, keeps_top)
    except pairings.PairingDomainError as exc:
        raise UsageError(f"chain not in the {name} pairing domain: {exc}") from exc
    # Read from the module at each call, so a pairing patched there is the one shown.
    pair = pairings.pair_nonabelian_ids if keeps_top else pairings.pair_nonradical_ids
    stab = lat.full_simple_bits
    for i in ids:
        stab &= lat.normalizer_bits[i]
    broken = pairings.broken_law(lat, pair, keeps_top, ids, stab)
    # A law reads true when ``broken_law`` got past it.
    passed = pairings.LAWS[: pairings.LAWS.index(broken)] if broken else pairings.LAWS
    laws = {
        key: key in passed
        for key in ("involution", "length_change_is_one", "stabilizer_preserved", "same_domain")
    }
    if keeps_top:
        # The nonabelian domain test is "same top member".
        laws["top_preserved"] = laws["same_domain"]
    # Not a ``Chain``: the partner of a broken pairing need not be one.
    partner = [lat.ideal(i) for i in pair(lat, ids)]
    if args.format == "json":
        doc = {
            "type": rs.spec.family,
            "rank": rs.rank,
            "pairing": name,
            "input": [list(n.root_indices()) for n in chain.members],
            "paired": [list(n.root_indices()) for n in partner],
            "laws": laws,
        }
        _write_json(doc, out)
    else:
        print(f"{name} pairing in {rs.spec}", file=out)
        print(f"  input:  {chain}", file=out)
        print(f"  paired: [{' < '.join(map(str, partner))}]", file=out)
        for key, value in laws.items():
            print(f"  {'ok' if value else 'FAIL'}  {key}", file=out)
    return 1 if broken else 0


def _sum_str(vector) -> str:
    return "  ".join(
        "{" + ",".join(map(str, js)) + "}:" + f"{c:+d}" for js, c in vector.to_pairs()
    )


def _cmd_verify(args: argparse.Namespace, out) -> int:
    rs, limit = _guarded_build(args, ComplexKind.CI)
    report = verify(rs, max_chains=limit)
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
        if not report.ok:
            # The notes name the first counterexample of each failed law.
            print(f"  notes: {report.notes}", file=out)
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
        p.add_argument("--rank", required=True)
        p.add_argument("--format", choices=list(formats), default="human")
        p.add_argument(
            "--allow-large",
            action="store_true",
            help="accepted and does nothing; each command's own size budgets apply",
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
    p_chains.add_argument("--max-chains")

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
    p_verify.add_argument("--max-chains")

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
