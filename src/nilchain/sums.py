"""Alternating sums over chain complexes and the identity verification suite.

Sums are valued in the free abelian group on parabolic types: each chain
contributes ``(-1)^length`` times the basis vector of its stabilizer type.
Any conjugation-invariant assignment of abelian-group values to parabolic
types factors through this universal one, so equality of these vectors
verifies the corresponding identity for every choice of values at once.

All arithmetic is exact (Python integers), so verdicts carry no tolerance.
"""

from __future__ import annotations

import marshal
import os
import time
from typing import Iterable, Mapping, NamedTuple, NoReturn, Optional

from .chains import (
    ComplexKind,
    chains_starting_at,
    complex_family,
    guarded_family,
    tally_chains,
)
from .ideals import IdealLattice, ParabolicType, _type_of_bits, ideal_lattice
from .pairings import broken_law, pair_nonabelian_ids, pair_nonradical_ids
from .root_system import RootSystem

DEFAULT_MAX_CHAINS = 10**8

# The CI walk is split across forked workers from this many chains on (see
# ``_walk_ci``).  A walk this long takes over 0.5 s (2-vCPU machine, Python
# 3.11), so a fork and its reap, about 2.5 ms, cost under 1% of it.
FORK_MIN_CHAINS = 10**5

# A part of the CI chain tree: a chain, and whether every chain extending it
# comes with it.
Part = tuple[tuple[int, ...], bool]


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


class ComplexSummary(NamedTuple):
    """Chain counts and the alternating sum of one complex."""

    kind: ComplexKind
    total: int
    by_length: dict[int, int]
    sum: SumVector


class VerificationReport(NamedTuple):
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


class _Tally(NamedTuple):
    """A complex's summary, its family (see ``complex_family``), and the
    signed counts per member (see ``tally_chains``)."""

    summary: ComplexSummary
    ids: tuple[int, ...]
    succ: tuple[tuple[int, ...], ...]
    signed: dict[int, dict[int, int]]


def _summarize(rs: RootSystem, kind: ComplexKind, max_chains: Optional[int]) -> _Tally:
    """Total, length histogram and alternating sum of a complex, counted not walked.

    ``ChainLimitExceeded`` is raised before the count if the chain total
    exceeds ``max_chains``.
    """
    ids, succ, bits, total = guarded_family(rs, kind, max_chains)
    signed, by_length = tally_chains(ids, succ, bits, total)
    sums = {(1 << rs.rank) - 1: 1}
    for i in ids:
        for stab, c in signed[i].items():
            sums[stab] = sums.get(stab, 0) + c
    summary = ComplexSummary(kind, sum(by_length.values()), by_length, _sum_vector(sums))
    return _Tally(summary, ids, succ, signed)


def alternating_sum(
    rs: RootSystem, kind: ComplexKind, *, max_chains: Optional[int] = None
) -> SumVector:
    """Sum of ``(-1)^length * e(stabilizer type)`` over every chain of a complex."""
    return _summarize(rs, kind, max_chains).summary.sum


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


class _InvolutionStats:
    """One pairing's walk: its domain's chains by parity, and what broke a law."""

    __slots__ = ("tally", "failed_even", "first_failure")

    def __init__(
        self, tally: list[int], failed_even: int = 0, first_failure: tuple[int, ...] = ()
    ) -> None:
        # Domain chains counted by ``stab << 1 | even``, for each stabilizer
        # bitmask ``stab`` and ``even`` 1 for even length, 0 for odd.
        self.tally = tally
        self.failed_even = failed_even
        self.first_failure = first_failure

    def extend(self, later: "_InvolutionStats") -> None:
        """Add the stats of a later stretch of the same walk."""
        self.tally = [a + b for a, b in zip(self.tally, later.tally)]
        self.failed_even += later.failed_even
        self.first_failure = self.first_failure or later.first_failure

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


def _walk_parts(
    lat: IdealLattice, succ: tuple[tuple[int, ...], ...], parts: Iterable[Part]
) -> tuple[_InvolutionStats, _InvolutionStats]:
    """Walk the CI chains of ``parts`` in order and test both pairings on them.

    Each domain's chains are tallied per stabilizer bitmask and parity, and
    ``broken_law`` tests the even-length ones (see there why that suffices).
    """
    nonab = _InvolutionStats([0] * (2 << lat.rs.rank))
    nonrad = _InvolutionStats([0] * (2 << lat.rs.rank))
    # Read from the module at each call, so a pairing patched there is the one tested.
    pair_nonab = pair_nonabelian_ids
    pair_nonrad = pair_nonradical_ids
    abelian = lat.abelian
    radical = lat.radical
    norm_bits = lat.normalizer_bits
    nonab_tally = nonab.tally
    nonrad_tally = nonrad.tally

    def walker(succ: tuple[tuple[int, ...], ...]):
        def walk(chain: tuple[int, ...], stab: int, all_radical: bool, even: int, nexts) -> None:
            # ``even`` is 1 when the children of ``chain`` have even length.
            for nxt in nexts:
                child = chain + (nxt,)
                child_stab = stab & norm_bits[nxt]
                child_radical = all_radical and radical[nxt]
                key = child_stab << 1 | even
                if not abelian[nxt]:
                    nonab_tally[key] += 1
                    if even and broken_law(lat, pair_nonab, True, child, child_stab):
                        nonab.failed_even += 1
                        nonab.first_failure = nonab.first_failure or child
                if not child_radical:
                    nonrad_tally[key] += 1
                    if even and broken_law(lat, pair_nonrad, False, child, child_stab):
                        nonrad.failed_even += 1
                        nonrad.first_failure = nonrad.first_failure or child
                walk(child, child_stab, child_radical, 1 - even, succ[nxt])

        return walk

    # A part without its extensions is walked over a table with no successors.
    walks = {True: walker(succ), False: walker(((),) * len(succ))}
    for prefix, whole in parts:
        stab, all_radical = lat.full_simple_bits, True
        for i in prefix[:-1]:
            stab &= norm_bits[i]
            all_radical = all_radical and radical[i]
        walks[whole](prefix[:-1], stab, all_radical, 1 - len(prefix) % 2, prefix[-1:])
    return nonab, nonrad


def _ci_runs(
    ids: tuple[int, ...],
    succ: tuple[tuple[int, ...], ...],
    starting: Mapping[int, int],
    workers: int,
) -> list[list[Part]]:
    """The CI chain tree cut into at most ``workers`` runs of parts, in walk order.

    A part ``(prefix, whole)`` is the chain ``prefix``, with every chain
    extending it if ``whole``.  Those are the chains starting at its last
    member, ``starting`` of it.  Each first-level part holding more than a
    quarter of one worker's share is replaced by its prefix alone and the
    parts of its one-member extensions, and so on down.  Runs are then
    handed out in order, each ending at the first part that takes the
    chains walked so far to its multiple of a share.
    """
    total = sum(starting.values())
    limit = total // (4 * workers)
    parts: list[tuple[Part, int]] = []

    def cut(prefix: tuple[int, ...], nexts: tuple[int, ...]) -> None:
        for i in nexts:
            part = prefix + (i,)
            if starting[i] <= limit or not succ[i]:
                parts.append(((part, True), starting[i]))
            else:
                parts.append(((part, False), 1))
                cut(part, succ[i])

    cut((), ids)
    runs: list[list[Part]] = []
    run: list[Part] = []
    done = 0
    for part, chains in parts:
        run.append(part)
        done += chains
        if done * workers >= total * (len(runs) + 1):
            runs.append(run)
            run = []
    return runs


def _worker_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _work(
    lat: IdealLattice, succ: tuple[tuple[int, ...], ...], run: list[Part], write: int
) -> NoReturn:
    """In a forked worker: walk ``run``, send both stats through ``write``, and exit.

    The exit status is 0 once the stats are sent, else 1.  ``os._exit``
    runs no ``finally``, atexit handler or buffer flush of the parent's.
    """
    status = 1
    try:
        stats = _walk_parts(lat, succ, run)
        with open(write, "wb") as pipe:
            pipe.write(marshal.dumps([(s.tally, s.failed_even, s.first_failure) for s in stats]))
        status = 0
    finally:
        os._exit(status)


def _received(data: bytes) -> Optional[list[_InvolutionStats]]:
    """A worker's two stats from its bytes, or ``None`` if they are cut short."""
    try:
        return [_InvolutionStats(*fields) for fields in marshal.loads(data)]
    except (EOFError, ValueError, TypeError):
        return None


def _walk_ci(lat: IdealLattice, ci: _Tally) -> tuple[_InvolutionStats, _InvolutionStats]:
    """Walk every CI chain once and test both pairings; the caller guards the total.

    The chains are those of the CI tally ``ci`` (see ``_summarize``).  With
    ``FORK_MIN_CHAINS`` chains or more, ``os.fork`` and more than one
    usable CPU, the walk is split into runs (see ``_ci_runs``), one per
    CPU.  The first run is walked here and each other one in a forked
    worker.  The stats are added up in walk order, so the first failure is
    the serial walk's.  The run of a worker that exits non-zero or sends a
    short result is walked again here, so an error raised is the serial
    walk's own.  No worker outlives the call: each is reaped, and killed
    first if this process raises.
    """
    ids, succ = ci.ids, ci.succ
    workers = _worker_count()
    # The empty chain is walked by no part.
    if ci.summary.total - 1 < FORK_MIN_CHAINS or workers < 2 or not hasattr(os, "fork"):
        return _walk_parts(lat, succ, [((i,), True) for i in ids])
    runs = _ci_runs(ids, succ, chains_starting_at(ids, succ), workers)
    pids: list[int] = []
    pipes = []
    try:
        for run in runs[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if not pid:
                _work(lat, succ, run, write)
            pids.append(pid)
            os.close(write)
            pipes.append(open(read, "rb"))
        nonab, nonrad = _walk_parts(lat, succ, runs[0])
        for run, pipe in zip(runs[1:], pipes):
            data = pipe.read()
            pipe.close()
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]
            later = _received(data) if status == 0 else None
            if later is None:
                later = _walk_parts(lat, succ, run)
            nonab.extend(later[0])
            nonrad.extend(later[1])
    except BaseException:
        import signal  # not loaded at startup, and needed only here

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
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
    nil_masks = [lat.masks[nil_id[j]] for j in range(full)]
    for j in range(full):
        for k in range(full):
            if j != k and (j & ~k == 0) != (nil_masks[k] & ~nil_masks[j] == 0):
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
    summaries = {kind: tally.summary for kind, tally in tallies.items()}
    sums = {kind: summary.sum for kind, summary in summaries.items()}
    lat = ideal_lattice(rs)
    nonab, nonrad = _walk_ci(lat, tallies[ComplexKind.CI])
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
        "boolean_interval": _intervals_hold(rs.rank, tallies[ComplexKind.CP].signed),
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
