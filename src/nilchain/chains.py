"""Chains of ideals and of parabolic types, and their complexes.

Four simplicial complexes are enumerated over a fixed Borel subalgebra:

* ``CI``: chains of nonzero ideals,
* ``CA``: chains of nonzero abelian ideals,
* ``CR``: chains of nonzero ideals each equal to the nilradical of its
  normalizer parabolic,
* ``CP``: chains of proper subsets of the simple indices (standard proper
  parabolics; the full group is the implicit top and never a member).

Chains never store the zero ideal, so a chain's length is its member count
and the empty chain is the (-1)-simplex of every complex.  Counting goes
down the containment order without visiting chains; enumeration streams
chains depth-first, in lexicographic order of member index sequences, with
constant memory per path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Union

from .ideals import (
    Ideal,
    IdealLattice,
    ParabolicType,
    _bit_positions,
    _check_containment_budget,
    _check_parabolic_type,
    _containment_lattice,
    _type_of_bits,
    full_parabolic_type,
    ideal_lattice,
    is_abelian,
    is_radical_member,
    nilradical_of_parabolic,
    normalizer_type,
)
from .root_system import RootSystem


class ComplexKind(enum.Enum):
    CI = "ci"
    CA = "ca"
    CR = "cr"
    CP = "cp"


class ChainLimitExceeded(RuntimeError):
    """Raised when an enumeration would emit more chains than allowed."""

    def __init__(self, limit: int, count: int, *, at_least: bool = False) -> None:
        super().__init__(
            f"enumeration exceeds the chain guard: {'at least ' if at_least else ''}"
            f"{count} > {limit} chains; raise --max-chains (or NILCHAIN_MAX_CHAINS) to proceed"
        )
        self.limit = limit
        self.count = count


@dataclass(frozen=True)
class Chain:
    """A strictly increasing sequence of nonzero ideals of one root system."""

    rs: RootSystem
    members: tuple[Ideal, ...]

    def __post_init__(self) -> None:
        for n in self.members:
            if n.rs is not self.rs and n.rs.spec != self.rs.spec:
                raise ValueError(f"chain member from {n.rs.spec} in a {self.rs.spec} chain")
            if n.is_zero:
                raise ValueError("the zero ideal is never a chain member")
        # The members share the chain's system, so their masks compare directly.
        for a, b in zip(self.members, self.members[1:]):
            if a.mask & ~b.mask or a.mask == b.mask:
                raise ValueError(f"chain members must strictly increase: {a} !< {b}")

    @property
    def length(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def sign(self) -> int:
        return -1 if len(self.members) % 2 else 1

    def __str__(self) -> str:
        return "[" + " < ".join(str(n) for n in self.members) + "]"


@dataclass(frozen=True)
class ParabolicChain:
    """A strictly increasing sequence of proper parabolic types."""

    rs: RootSystem
    members: tuple[ParabolicType, ...]

    def __post_init__(self) -> None:
        full = full_parabolic_type(self.rs)
        for j in self.members:
            _check_parabolic_type(self.rs, j)
            if j == full:
                raise ValueError("the full simple set is never a parabolic chain member")
        for a, b in zip(self.members, self.members[1:]):
            if not a < b:
                raise ValueError("parabolic chain members must strictly increase")

    @property
    def length(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def sign(self) -> int:
        return -1 if len(self.members) % 2 else 1

    def __str__(self) -> str:
        return "[" + " < ".join("{" + ", ".join(map(str, sorted(j))) + "}" for j in self.members) + "]"


def corank(subset: ParabolicType, rs: RootSystem) -> int:
    """Number of simple indices missing from the parabolic type."""
    j = _check_parabolic_type(rs, subset)
    return rs.rank - len(j)


def membership(kind: ComplexKind, chain: Chain) -> bool:
    """Whether an ideal chain belongs to the given complex."""
    if kind is ComplexKind.CP:
        raise ValueError("membership in CP is for parabolic chains, not ideal chains")
    if kind is ComplexKind.CI:
        return True
    if kind is ComplexKind.CA:
        return all(is_abelian(n) for n in chain.members)
    return all(is_radical_member(n) for n in chain.members)


def chain_stabilizer_type(chain: Union[Chain, ParabolicChain]) -> ParabolicType:
    """Type of the parabolic stabilizing every member of the chain.

    For ideal chains this is the intersection of the members' normalizer
    types; for parabolic chains it is the smallest member.  The empty chain
    is stabilized by the full group in both cases.
    """
    if isinstance(chain, ParabolicChain):
        return chain.members[0] if chain.members else full_parabolic_type(chain.rs)
    lat = ideal_lattice(chain.rs)
    bits = lat.full_simple_bits
    for n in chain.members:
        bits &= lat.normalizer_bits[lat.index[n.mask]]
    return _type_of_bits(bits)


def cr_to_cp(chain: Chain) -> ParabolicChain:
    """Normalizer types of a CR chain's members, in reversed order."""
    if not membership(ComplexKind.CR, chain):
        raise ValueError("chain is not in CR: some member is not the nilradical of its normalizer")
    return ParabolicChain(
        chain.rs, tuple(normalizer_type(n) for n in reversed(chain.members))
    )


def cp_to_cr(pchain: ParabolicChain) -> Chain:
    """Nilradicals of a parabolic chain's members, in reversed order."""
    return Chain(
        pchain.rs,
        tuple(nilradical_of_parabolic(pchain.rs, j) for j in reversed(pchain.members)),
    )


def iter_index_chains(
    family_ids: tuple[int, ...], succ_within: tuple[tuple[int, ...], ...]
) -> Iterator[tuple[int, ...]]:
    """All strictly increasing index chains over a family, lexicographically.

    ``succ_within[i]`` lists, in increasing order, the family members that
    strictly contain member ``i``.  The empty chain comes first.
    """
    stack: list[int] = []

    def walk(nexts: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        yield tuple(stack)
        for nxt in nexts:
            stack.append(nxt)
            yield from walk(succ_within[nxt])
            stack.pop()

    yield from walk(family_ids)


def family_successors(
    lat: IdealLattice, family_ids: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Per family member, the family members strictly containing it, ascending.

    ``family_ids`` ascend.  A strictly larger ideal comes later in canonical
    order, so each member's mask is tested against the later members' only.
    The tests grow as the square of the family, so ``SizeLimitExceeded`` is
    raised first if the lattice is over ``MAX_CONTAINMENT_BYTES``.
    """
    _check_containment_budget(lat.rs)
    masks = lat.masks
    table: list[tuple[int, ...]] = [()] * len(masks)
    for pos, i in enumerate(family_ids, 1):
        mask = masks[i]
        # A list, not a generator, and ``islice``, not a slice: over 3,000 E6
        # CA builds ``tuple(<generator>)`` raised max RSS by 3.7 MB, and over
        # 2,000 passes of the ``sums_fold`` families a slice raised it by 0.25 MB.
        later = islice(family_ids, pos, None)
        table[i] = tuple([j for j in later if mask | masks[j] == masks[j]])
    return tuple(table)


def tally_chains(
    family_ids: tuple[int, ...],
    succ_within: tuple[tuple[int, ...], ...],
    bits: tuple[int, ...],
) -> tuple[dict[int, dict[int, int]], dict[int, dict[int, int]]]:
    """Signed stabilizer counts and length counts of the chains starting at each member.

    For member ``i``, ``signed[i]`` maps a stabilizer bitmask to the sum of
    ``(-1)^length`` and ``lengths[i]`` maps a length to a count, both over
    the chains whose smallest member is ``i``.  Such a chain is ``i`` alone
    or ``i`` under a chain starting at one of its successors, so members are
    taken from the top down and no chain is visited.  The empty chain is in
    no member's maps.
    """
    signed: dict[int, dict[int, int]] = {}
    lengths: dict[int, dict[int, int]] = {}
    for i in reversed(family_ids):
        mask = bits[i]
        here_signed = {mask: -1}
        here_lengths = {1: 1}
        for j in succ_within[i]:
            for stab, c in signed[j].items():
                key = stab & mask
                here_signed[key] = here_signed.get(key, 0) - c
            for length, c in lengths[j].items():
                here_lengths[length + 1] = here_lengths.get(length + 1, 0) + c
        signed[i] = here_signed
        lengths[i] = here_lengths
    return signed, lengths


def chains_starting_at(
    family_ids: tuple[int, ...], succ_within: tuple[tuple[int, ...], ...]
) -> dict[int, int]:
    """Per member, the number of chains whose smallest member it is, by downward recursion."""
    starting: dict[int, int] = {}
    for i in reversed(family_ids):
        starting[i] = 1 + sum(starting[j] for j in succ_within[i])
    return starting


def count_index_chains(
    family_ids: tuple[int, ...], succ_within: tuple[tuple[int, ...], ...]
) -> int:
    """Exact number of chains (including the empty one)."""
    return 1 + sum(chains_starting_at(family_ids, succ_within).values())


def complex_family(
    rs: RootSystem, kind: ComplexKind
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Member ids, successor lists and stabilizer bits of a complex's members.

    Ideal complexes use lattice ids and normalizer bits.  CP uses the proper
    subsets' bitmasks (bit ``i - 1`` is index ``i``) in canonical order, by
    size and then by elements, and each bitmask is its own bits: the AND
    over an increasing chain of subsets is its smallest member, the
    stabilizer.
    """
    if kind is ComplexKind.CP:
        full = (1 << rs.rank) - 1
        ids = tuple(sorted(range(full), key=lambda j: (j.bit_count(), _bit_positions(j))))
        position = {j: pos for pos, j in enumerate(ids)}
        succ: list[tuple[int, ...]] = [()] * full
        for j in ids:
            # ``s = (s + 1) | j`` steps through the supersets of ``j`` in
            # increasing order; the full set, the last, is no member.
            supersets = []
            s = (j + 1) | j
            while s != full:
                supersets.append(s)
                s = (s + 1) | j
            succ[j] = tuple(sorted(supersets, key=position.__getitem__))
        return ids, tuple(succ), tuple(range(full))
    lat = _containment_lattice(rs)
    if kind is ComplexKind.CI:
        ids = lat.nonzero_ids
    elif kind is ComplexKind.CA:
        ids = lat.abelian_ids
    else:
        ids = lat.radical_ids
    return ids, family_successors(lat, ids), lat.normalizer_bits


def guarded_family(
    rs: RootSystem, kind: ComplexKind, max_chains: Optional[int]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """``complex_family``, or ``ChainLimitExceeded`` if the complex has more than ``max_chains`` chains.

    CI is first refused on a lower bound, before any table is built.  With
    ``N`` positive roots, the last ``k`` roots in canonical order form an
    ideal for each ``k`` in ``1..N``: a simple step raises the height, so it
    stays among them.  These ``N`` ideals form one chain, and each of its
    ``2^N`` subsets is a CI chain.  Otherwise the exact total is counted
    over the family.
    """
    if max_chains is None:
        return complex_family(rs, kind)
    bound = 1 << rs.num_positive_roots
    if kind is ComplexKind.CI and bound > max_chains:
        raise ChainLimitExceeded(max_chains, bound, at_least=True)
    ids, succ, bits = complex_family(rs, kind)
    total = count_index_chains(ids, succ)
    if total > max_chains:
        raise ChainLimitExceeded(max_chains, total)
    return ids, succ, bits


def enumerate_chains(
    rs: RootSystem, kind: ComplexKind, *, max_chains: Optional[int] = None
) -> Union[Iterator[Chain], Iterator[ParabolicChain]]:
    """Stream every chain of the given complex, the empty chain first.

    Emission order is deterministic: lexicographic in member index sequences
    under the canonical ordering of ideals (or of proper subsets for CP).
    If ``max_chains`` is given and the total exceeds it,
    ``ChainLimitExceeded`` is raised before any chain is emitted (see
    ``guarded_family``).
    """
    ids, succ, _ = guarded_family(rs, kind, max_chains)
    # One member object per family member, shared by every chain holding it;
    # ideals carry the caller's ``rs``, so ``Chain`` compares systems by identity.
    if kind is ComplexKind.CP:
        types = {j: _type_of_bits(j) for j in ids}
        return (
            ParabolicChain(rs, tuple(map(types.__getitem__, id_chain)))
            for id_chain in iter_index_chains(ids, succ)
        )
    lat = ideal_lattice(rs)
    views = {i: Ideal._unchecked(rs, lat.masks[i]) for i in ids}
    return (
        Chain(rs, tuple(map(views.__getitem__, id_chain)))
        for id_chain in iter_index_chains(ids, succ)
    )
