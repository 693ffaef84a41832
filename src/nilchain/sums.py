"""Alternating sums over chain complexes and the identity verification suite.

Sums are valued in the free abelian group on parabolic types: each chain
contributes ``(-1)^length`` times the basis vector of its stabilizer type.
Any conjugation-invariant assignment of abelian-group values to parabolic
types factors through this universal one, so equality of these vectors
verifies the corresponding identity for every choice of values at once.

All arithmetic is exact (Python integers), so verdicts carry no tolerance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .chains import ComplexKind, complex_family, guarded_family, tally_chains
from .ideals import IdealLattice, ParabolicType, _type_of_bits, ideal_lattice
from .pairings import pair_nonabelian_ids, pair_nonradical_ids
from .root_system import RootSystem

DEFAULT_MAX_CHAINS = 10**8


class SumVector:
    """A finitely supported integer vector indexed by parabolic types."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Optional[Mapping[ParabolicType, int]] = None) -> None:
        self._entries = {
            frozenset(j): c for j, c in (entries or {}).items() if c != 0
        }

    @classmethod
    def zero(cls) -> "SumVector":
        return cls()

    def coefficient(self, subset: Iterable[int]) -> int:
        return self._entries.get(frozenset(subset), 0)

    def entries(self) -> dict[ParabolicType, int]:
        return dict(self._entries)

    @property
    def is_zero(self) -> bool:
        return not self._entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SumVector):
            return NotImplemented
        return self._entries == other._entries

    def __add__(self, other: "SumVector") -> "SumVector":
        out = dict(self._entries)
        for j, c in other._entries.items():
            out[j] = out.get(j, 0) + c
        return SumVector(out)

    def __sub__(self, other: "SumVector") -> "SumVector":
        out = dict(self._entries)
        for j, c in other._entries.items():
            out[j] = out.get(j, 0) - c
        return SumVector(out)

    def to_pairs(self) -> list[tuple[list[int], int]]:
        """Entries as (sorted simple-index list, coefficient), canonically ordered."""
        keyed = sorted(self._entries.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        return [(sorted(j), c) for j, c in keyed]

    def __repr__(self) -> str:
        body = ", ".join(f"{{{','.join(map(str, j))}}}: {c:+d}" for j, c in self.to_pairs())
        return f"SumVector({body})"


@dataclass
class ComplexSummary:
    """Chain counts and the alternating sum of one complex."""

    kind: ComplexKind
    total: int
    by_length: dict[int, int]
    sum: SumVector


@dataclass
class VerificationReport:
    """Everything checked for one root system, with exact verdicts."""

    family: str
    rank: int
    complexes: dict[str, ComplexSummary]
    closed_form: SumVector
    verdicts: dict[str, bool]
    involution_checks: dict[str, int]
    elapsed_ms: float
    notes: str

    @property
    def ok(self) -> bool:
        return all(self.verdicts.values())

    def to_dict(self) -> dict:
        return {
            "type": self.family,
            "rank": self.rank,
            "complexes": [
                {
                    "complex": name,
                    "chain_counts": {
                        "total": summary.total,
                        "by_length": [
                            [length, count]
                            for length, count in sorted(summary.by_length.items())
                        ],
                    },
                    "sum": [[js, c] for js, c in summary.sum.to_pairs()],
                }
                for name, summary in self.complexes.items()
            ],
            "closed_form": [[js, c] for js, c in self.closed_form.to_pairs()],
            "verdicts": dict(self.verdicts),
            "involution_checks": dict(self.involution_checks),
            "elapsed_ms": self.elapsed_ms,
            "notes": self.notes,
        }


def _sum_vector(signed: Mapping[int, int]) -> SumVector:
    """A ``{stabilizer bitmask: count}`` map as a vector; bit ``i - 1`` is index ``i``."""
    return SumVector({_type_of_bits(bits): c for bits, c in signed.items()})


def _summarize(
    rs: RootSystem, kind: ComplexKind, max_chains: Optional[int]
) -> tuple[ComplexSummary, dict[int, dict[int, int]]]:
    """Total, length histogram and alternating sum of a complex, counted not walked.

    Also returns the tally's signed counts per member (see ``tally_chains``).
    ``ChainLimitExceeded`` is raised before the count if the chain total
    exceeds ``max_chains``.
    """
    ids, succ, bits = guarded_family(rs, kind, max_chains)
    signed, lengths = tally_chains(ids, succ, bits)
    sums = {(1 << rs.rank) - 1: 1}
    by_length = {0: 1}
    for i in ids:
        for stab, c in signed[i].items():
            sums[stab] = sums.get(stab, 0) + c
        for length, c in lengths[i].items():
            by_length[length] = by_length.get(length, 0) + c
    summary = ComplexSummary(kind, sum(by_length.values()), by_length, _sum_vector(sums))
    return summary, signed


def alternating_sum(
    rs: RootSystem, kind: ComplexKind, *, max_chains: Optional[int] = None
) -> SumVector:
    """Sum of ``(-1)^length * e(stabilizer type)`` over every chain of a complex."""
    return _summarize(rs, kind, max_chains)[0].sum


def closed_form_sum(rs: RootSystem) -> SumVector:
    """Sum of ``(-1)^corank(I) * e(I)`` over all subsets I of the simple indices."""
    rank = rs.rank
    return _sum_vector(
        {bits: -1 if (rank - bits.bit_count()) % 2 else 1 for bits in range(1 << rank)}
    )


def boolean_interval_check(rs: RootSystem) -> bool:
    """Check the per-type refinement of the closed form over parabolic chains.

    For every proper subset I of the simple indices, the signed count of
    parabolic chains with smallest member I must equal ``(-1)^corank(I)``;
    the empty chain contributes ``+1`` at the full set.  Buckets are the
    CP tally's per-member totals, so they are formed on smallest members,
    independently of stabilizers.
    """
    return _intervals_hold(rs.rank, tally_chains(*complex_family(rs, ComplexKind.CP))[0])


def _intervals_hold(rank: int, cp_signed: Mapping[int, Mapping[int, int]]) -> bool:
    """The boolean-interval check on a CP tally, whose members are their own bitmasks."""
    return all(
        sum(counts.values()) == (-1 if (rank - j.bit_count()) % 2 else 1)
        for j, counts in cp_signed.items()
    )


@dataclass
class _InvolutionStats:
    """One pairing's walk: its domain's chains by parity, and what broke a law."""

    # Domain chains counted by ``stab << 1 | even``, for each stabilizer
    # bitmask ``stab`` and ``even`` 1 for even length, 0 for odd.
    tally: list[int]
    failed_even: int = 0
    first_failure: tuple[int, ...] = ()

    @property
    def even(self) -> int:
        return sum(self.tally[1::2])

    @property
    def odd(self) -> int:
        return sum(self.tally[0::2])

    @property
    def complement_sum(self) -> dict[int, int]:
        """Signed count of the domain's chains per stabilizer bitmask."""
        tally = self.tally
        return {stab: tally[2 * stab + 1] - tally[2 * stab] for stab in range(len(tally) // 2)}

    @property
    def checked(self) -> int:
        return sum(self.tally)

    @property
    def failed(self) -> int:
        return self.failed_even + abs(self.odd - self.even)

    def note(self, name: str, lat: IdealLattice) -> str:
        """A sentence naming the first counterexample, or ``""`` if none."""
        if self.first_failure:
            # Formatted as ``Chain`` would, without its checks: under a faulty
            # table the failing sequence need not be a chain.
            chain = " < ".join(str(lat.ideal(i)) for i in self.first_failure)
            return f" The {name} pairing breaks a law at [{chain}]."
        if self.odd != self.even:
            return (
                f" The {name} pairing's domain has {self.even} even-length "
                f"and {self.odd} odd-length chains."
            )
        return ""


def _walk_ci(lat: IdealLattice) -> tuple[_InvolutionStats, _InvolutionStats]:
    """Walk every CI chain once and test both pairings; the caller guards the total.

    One check tests the laws of either pairing on each even-length chain
    ``e`` of its domain: the partner ``p`` is one off in length, lies in the
    domain (it keeps ``e``'s top member, for the nonabelian pairing; not all
    its members are radical, for the nonradical one), is a chain with
    ``e``'s stabilizer, and pairs back to ``e``.  Those laws make the
    pairing an injection from the domain's even chains into its odd ones,
    undone by itself; if the two are equally many, every odd chain is some
    ``p``, and every law holds there too.  So a law fails somewhere exactly
    when an even chain fails one or the counts differ, and the pairing is
    called once per domain chain.  Each domain's chains are tallied per
    stabilizer bitmask and parity.
    """
    nonab = _InvolutionStats([0] * (2 << lat.rs.rank))
    nonrad = _InvolutionStats([0] * (2 << lat.rs.rank))
    # Read from the module at each call, so a pairing patched there is the one tested.
    pair_nonab = pair_nonabelian_ids
    pair_nonrad = pair_nonradical_ids
    abelian = lat.abelian
    radical = lat.radical
    norm_bits = lat.normalizer_bits
    full = lat.full_simple_bits
    strictly_above = tuple(c & ~(1 << i) for i, c in enumerate(lat.containers))
    nonab_tally = nonab.tally
    nonrad_tally = nonrad.tally

    def check(stats, pair, keeps_top: bool, child: tuple[int, ...], child_stab: int) -> None:
        """Record ``child`` in ``stats`` unless its partner keeps every law.

        The laws are tested in the order given above, and the tests stop at
        the first that fails, so a broken partner is never paired again.
        ``keeps_top`` selects the nonabelian pairing's domain test.  All of
        it is inline: a call per checked chain for the domain test, or for
        the stabilizer, costs 2-5% of the D4 walk.
        """
        partner = pair(lat, child)
        if abs(len(partner) - len(child)) == 1 and (
            partner[-1] == child[-1] if keeps_top else not all(map(radical.__getitem__, partner))
        ):
            stab = full
            below = 0  # the zero ideal's id
            for i in partner:
                if not strictly_above[below] >> i & 1:
                    break  # no chain
                stab &= norm_bits[i]
                below = i
            else:
                if stab == child_stab and pair(lat, partner) == child:
                    return
        stats.failed_even += 1
        stats.first_failure = stats.first_failure or child

    def walk(chain: tuple[int, ...], stab: int, all_radical: bool, even: int, nexts) -> None:
        # ``even`` is 1 when the children of ``chain`` have even length; a
        # partner one off in length from a chain of length >= 2 is nonempty.
        for nxt in nexts:
            child = chain + (nxt,)
            child_stab = stab & norm_bits[nxt]
            child_radical = all_radical and radical[nxt]
            key = child_stab << 1 | even
            if not abelian[nxt]:
                nonab_tally[key] += 1
                if even:
                    check(nonab, pair_nonab, True, child, child_stab)
            if not child_radical:
                nonrad_tally[key] += 1
                if even:
                    check(nonrad, pair_nonrad, False, child, child_stab)
            walk(child, child_stab, child_radical, 1 - even, succ[nxt])

    ids, succ, _ = complex_family(lat.rs, ComplexKind.CI)
    walk((), full, True, 0, ids)
    return nonab, nonrad


def _cr_cp_failure(lat: IdealLattice) -> str:
    """``""`` if the CR/CP correspondence holds on ``lat``, else a sentence naming where not.

    The correspondence sends each proper type ``J`` to the nilradical
    ``nil_id[J]`` of its parabolic.  It must be a bijection onto
    ``radical_ids``, the members of CR chains, undone by ``normalizer_bits``,
    and order-reversing: ``J ⊊ K`` exactly when ``nil_id[K] ⊊ nil_id[J]``.
    Members and pairs suffice: an order-reversing bijection carries each CR
    chain to a CP chain of the same length, read backwards, and back.  It
    carries the top member of a CR chain to the smallest type of its image,
    which is the CP chain's stabilizer; and since the normalizer types
    shrink up a CR chain, the top member's normalizer is the CR chain's
    stabilizer too.
    """
    full = lat.full_simple_bits
    nil_id, norm_bits = lat.nil_id, lat.normalizer_bits
    for j in range(full):
        if not nil_id[j] or norm_bits[nil_id[j]] != j:
            return f" The CR/CP correspondence fails at type {sorted(_type_of_bits(j))}."
    unmatched = set(lat.radical_ids).symmetric_difference(nil_id[:full])
    if unmatched:
        return f" The CR/CP correspondence fails at ideal {lat.ideal(min(unmatched))}."
    containers = lat.containers
    for j in range(full):
        for k in range(full):
            if j != k and (j & ~k == 0) != bool(containers[nil_id[k]] >> nil_id[j] & 1):
                return (
                    " The CR/CP correspondence fails at the pair of types "
                    f"{sorted(_type_of_bits(j))} and {sorted(_type_of_bits(k))}."
                )
    return ""


def verify(
    rs: RootSystem,
    *,
    max_chains: Optional[int] = DEFAULT_MAX_CHAINS,
) -> VerificationReport:
    """Run the full identity suite for one root system.

    Computes the alternating sums of CI, CA, CR, and CP, compares each with
    the closed-form sum over subsets of simple indices, checks both pairing
    involutions over their whole domains, the CR/CP correspondence, and the
    boolean-interval refinement.  The correspondence is checked on the
    lattice tables, on members and their pairs, not on chains (see
    ``_cr_cp_failure``).  Failures are recorded in ``notes``, never raised.
    """
    start = time.perf_counter()
    # CI first: its guard can refuse before the lattice is built.
    tallies = {kind: _summarize(rs, kind, max_chains) for kind in ComplexKind}
    summaries = {kind: summary for kind, (summary, _) in tallies.items()}
    sums = {kind: summary.sum for kind, summary in summaries.items()}
    lat = ideal_lattice(rs)
    nonab, nonrad = _walk_ci(lat)
    closed = closed_form_sum(rs)
    nonab_complement = _sum_vector(nonab.complement_sum)
    nonrad_complement = _sum_vector(nonrad.complement_sum)
    cr_cp_failure = _cr_cp_failure(lat)
    nonab_cancels = (
        nonab_complement.is_zero
        and sums[ComplexKind.CI] - sums[ComplexKind.CA] == nonab_complement
    )
    nonrad_cancels = (
        nonrad_complement.is_zero
        and sums[ComplexKind.CI] - sums[ComplexKind.CR] == nonrad_complement
    )
    verdicts = {
        "sum_ci_matches_closed_form": sums[ComplexKind.CI] == closed,
        "sum_ca_matches_closed_form": sums[ComplexKind.CA] == closed,
        "sum_cr_matches_closed_form": sums[ComplexKind.CR] == closed,
        "sum_cp_matches_closed_form": sums[ComplexKind.CP] == closed,
        "nonabelian_involution": nonab.failed == 0,
        "nonradical_involution": nonrad.failed == 0,
        "nonabelian_complement_cancels": nonab_cancels,
        "nonradical_complement_cancels": nonrad_cancels,
        "cr_cp_bijection": not cr_cp_failure,
        "boolean_interval": _intervals_hold(rs.rank, tallies[ComplexKind.CP][1]),
    }
    verdicts["five_way_identity"] = (
        verdicts["sum_ci_matches_closed_form"]
        and verdicts["sum_ca_matches_closed_form"]
        and verdicts["sum_cr_matches_closed_form"]
        and verdicts["sum_cp_matches_closed_form"]
    )
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return VerificationReport(
        family=rs.spec.family,
        rank=rs.rank,
        complexes={kind.name: summary for kind, summary in summaries.items()},
        closed_form=closed,
        verdicts=verdicts,
        involution_checks={
            "nonabelian": nonab.checked,
            "nonradical": nonrad.checked,
        },
        elapsed_ms=elapsed_ms,
        notes=(
            "All chains are taken with respect to one fixed Borel subalgebra; "
            "conjugacy classes of CI/CA chains under the full group are not "
            "enumerated, so those two sums are chain-level, not class-level. "
            "CR and CP members have unique standard representatives, so their "
            "sums agree with the class-level ones."
        )
        + nonab.note("nonabelian", lat)
        + nonrad.note("nonradical", lat)
        + cr_cp_failure,
    )
