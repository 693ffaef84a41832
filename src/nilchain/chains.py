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
from itertools import islice
from typing import Iterator, Optional, Union

from .ideals import (
    COUNT_BITS,
    Ideal,
    IdealLattice,
    ParabolicType,
    SizeLimitExceeded,
    _bit_positions,
    _check_parabolic_type,
    _type_of_bits,
    count_text,
    full_parabolic_type,
    ideal_count,
    ideal_lattice,
    is_abelian,
    is_radical_member,
    nilradical_of_parabolic,
    normalizer_type,
)
from .root_system import Frozen, RootSystem, RootSystemSpec, classical_positive_root_count

# The most member pairs a successor table may consider.  CI through A7 and
# D7, CA and CR of every type under ``MAX_IDEALS`` (A11: 2,094,081) and CP
# through rank 13 fit; CI of A8, B7, C7, D8 and E7 and CP from rank 14 do not.
MAX_SUCCESSOR_PAIRS = 2**22


class ComplexKind(enum.Enum):
    CI = "ci"
    CA = "ca"
    CR = "cr"
    CP = "cp"


class ChainLimitExceeded(RuntimeError):
    """Raised when an enumeration would emit more chains than allowed.

    ``count`` is the chain total, or a lower bound on it that ``shown``
    names; a bound at or past ``2^COUNT_BITS`` is named in ``shown`` alone,
    and ``count`` is then ``None``.
    """

    def __init__(self, limit: int, count: Optional[int], shown: str = "") -> None:
        super().__init__(
            f"enumeration exceeds the chain guard: {shown or count} > {limit} chains; "
            "raise --max-chains (or NILCHAIN_MAX_CHAINS) to proceed"
        )
        self.limit = limit
        self.count = count


class _ChainBase(Frozen):
    """The fields, equality, hash, length and sign shared by both kinds of chain.

    A chain is equal only to a chain of its own class.
    """

    __slots__ = _fields = ("rs", "members")
    rs: RootSystem
    members: tuple

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rs, self.members) == (other.rs, other.members)

    def __hash__(self) -> int:
        return hash((self.rs, self.members))

    @property
    def length(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def sign(self) -> int:
        return -1 if len(self.members) % 2 else 1


class Chain(_ChainBase):
    """A strictly increasing sequence of nonzero ideals of one root system."""

    __slots__ = ()
    members: tuple[Ideal, ...]

    def __init__(self, rs: RootSystem, members: tuple[Ideal, ...]) -> None:
        for n in members:
            if n.rs is not rs and n.rs.spec != rs.spec:
                raise ValueError(f"chain member from {n.rs.spec} in a {rs.spec} chain")
            if n.is_zero:
                raise ValueError("the zero ideal is never a chain member")
        # The members share the chain's system, so their masks compare directly.
        for a, b in zip(members, members[1:]):
            if a.mask & ~b.mask or a.mask == b.mask:
                raise ValueError(f"chain members must strictly increase: {a} !< {b}")
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "members", members)

    def __str__(self) -> str:
        return "[" + " < ".join(str(n) for n in self.members) + "]"


class ParabolicChain(_ChainBase):
    """A strictly increasing sequence of proper parabolic types."""

    __slots__ = ()
    members: tuple[ParabolicType, ...]

    def __init__(self, rs: RootSystem, members: tuple[ParabolicType, ...]) -> None:
        full = full_parabolic_type(rs)
        for j in members:
            _check_parabolic_type(rs, j)
            if j == full:
                raise ValueError("the full simple set is never a parabolic chain member")
        for a, b in zip(members, members[1:]):
            if not a < b:
                raise ValueError("parabolic chain members must strictly increase")
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "members", members)

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
    The tests grow as the square of the family; ``complex_family`` checks
    their number against ``MAX_SUCCESSOR_PAIRS`` before any table is built.
    """
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
    total: Optional[int] = None,
) -> tuple[dict[int, dict[int, int]], dict[int, int]]:
    """Signed stabilizer counts of the chains starting at each member, and the length histogram.

    For member ``i``, ``signed[i]`` maps a stabilizer bitmask to the sum of
    ``(-1)^length`` over the chains whose smallest member is ``i``.  Such a
    chain is ``i`` alone or ``i`` under a chain starting at one of its
    successors, so members are taken from the top down and no chain is
    visited.  The empty chain is in no member's map.

    The histogram maps each length to its number of chains, the empty one
    included.  The chains starting at a member are counted by length in one
    integer, a polynomial in ``2^w``: lane ``k``, the bits from ``k*w`` up,
    holds the number of length ``k``.  A member's polynomial is 1 (the
    member alone) plus its successors' polynomials, shifted one lane up, so
    each member costs one big-int sum, and the histogram is 1 (the empty
    chain) plus every member's.  Take ``w = total.bit_length()``, where
    ``total`` is the complex's chain count with the empty chain, counted
    here unless given.  Every lane of every partial sum is at most the same
    lane of the histogram, so at most ``total < 2^w``: no lane carries into
    the next, and every count is exact.
    """
    if total is None:
        total = count_index_chains(family_ids, succ_within)
    w = total.bit_length()
    signed: dict[int, dict[int, int]] = {}
    packed: dict[int, int] = {}
    for i in reversed(family_ids):
        mask = bits[i]
        here_signed = {mask: -1}
        nexts = succ_within[i]
        for j in nexts:
            for stab, c in signed[j].items():
                key = stab & mask
                here_signed[key] = here_signed.get(key, 0) - c
        signed[i] = here_signed
        packed[i] = (1 + sum(map(packed.__getitem__, nexts))) << w
    lanes = 1 + sum(packed.values())
    lane = (1 << w) - 1
    by_length: dict[int, int] = {}
    while lanes:
        by_length[len(by_length)] = lanes & lane
        lanes >>= w
    return signed, by_length


def chains_starting_at(
    family_ids: tuple[int, ...], succ_within: tuple[tuple[int, ...], ...]
) -> dict[int, int]:
    """Per member, the number of chains whose smallest member it is, by downward recursion."""
    starting: dict[int, int] = {}
    for i in reversed(family_ids):
        starting[i] = 1 + sum(map(starting.__getitem__, succ_within[i]))
    return starting


def count_index_chains(
    family_ids: tuple[int, ...], succ_within: tuple[tuple[int, ...], ...]
) -> int:
    """Exact number of chains (including the empty one)."""
    return 1 + sum(chains_starting_at(family_ids, succ_within).values())


def _successor_pairs(spec: RootSystemSpec, kind: ComplexKind) -> int:
    """Member pairs a complex's successor table considers, from its type alone.

    ``n`` ideal members give ``n(n-1)/2``: CI has the nonzero ideals, CA the
    ``2^rank - 1`` nonzero abelian ones (Peterson), CR one per proper subset
    of simple indices.  CP's pairs ``j < s`` of proper subsets are the
    ``3^rank`` pairs ``j <= s``, less ``2^rank`` with ``s`` full and
    ``2^rank`` with ``j = s``, plus the full pair, taken off twice.  A count
    is exact below ``2^COUNT_BITS`` and at least the cap otherwise: CI's
    ideal count stops at the cap, and from rank ``COUNT_BITS`` on, CA, CR
    and CP are past it and are not counted.
    """
    if kind is ComplexKind.CI:
        n = ideal_count(spec) - 1
    elif spec.rank >= COUNT_BITS:
        return 1 << COUNT_BITS
    elif kind is ComplexKind.CP:
        return 3**spec.rank - 2 ** (spec.rank + 1) + 1
    else:
        n = 2**spec.rank - 1
    return n * (n - 1) // 2


def check_successor_budget(spec: RootSystemSpec, kind: ComplexKind) -> None:
    """``SizeLimitExceeded`` if the successor table of ``kind`` is over its budget.

    It may consider ``MAX_SUCCESSOR_PAIRS`` member pairs, counted from the
    type alone (``_successor_pairs``), so no root is generated.  A count at
    the cap ``2^COUNT_BITS`` is named as at least the cap.
    """
    pairs = _successor_pairs(spec, kind)
    if pairs > MAX_SUCCESSOR_PAIRS:
        raise SizeLimitExceeded(
            f"the {kind.name} successor table of {spec} considers {count_text(pairs)} "
            f"member pairs, over its budget of {MAX_SUCCESSOR_PAIRS:,}"
        )


def complex_family(
    rs: RootSystem, kind: ComplexKind
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Member ids, successor lists and stabilizer bits of a complex's members.

    Ideal complexes use lattice ids and normalizer bits.  CP uses the proper
    subsets' bitmasks (bit ``i - 1`` is index ``i``) in canonical order, by
    size and then by elements, and each bitmask is its own bits: the AND
    over an increasing chain of subsets is its smallest member, the
    stabilizer.  Over ``MAX_SUCCESSOR_PAIRS`` member pairs (``_successor_pairs``),
    ``SizeLimitExceeded`` is raised first, before any lattice or table.
    """
    check_successor_budget(rs.spec, kind)
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
    lat = ideal_lattice(rs)
    if kind is ComplexKind.CI:
        # A tuple, not the lattice's range, so the successor lists share one int per id.
        ids = tuple(lat.nonzero_ids)
    elif kind is ComplexKind.CA:
        ids = lat.abelian_ids
    else:
        ids = lat.radical_ids
    return ids, family_successors(lat, ids), lat.normalizer_bits


def check_ci_bound(spec: RootSystemSpec, kind: ComplexKind, max_chains: int) -> None:
    """``ChainLimitExceeded`` if ``kind`` is CI and its lower bound is over ``max_chains``.

    With ``N`` positive roots, the last ``k`` roots in canonical order form an
    ideal for each ``k`` in ``1..N``: a simple step raises the height, so it
    stays among them.  These ``N`` ideals form one chain, and each of its
    ``2^N`` subsets is a CI chain.  ``N`` is read from the type, so no root
    is generated, and ``2^N > max_chains`` exactly when ``N`` is at least
    the bit length of ``max_chains``.  A bound below ``2^COUNT_BITS`` is
    named in digits; past the cap, ``2^N`` is named and not built, and an
    ``N`` at or past the cap is named by the lower bound ``2^(2^COUNT_BITS)``.
    """
    if kind is ComplexKind.CI:
        n = classical_positive_root_count(spec.family, spec.rank)
        if n >= max_chains.bit_length():
            bound = 1 << n if n < COUNT_BITS else None
            exponent = n if n < 1 << COUNT_BITS else f"(2^{COUNT_BITS})"
            raise ChainLimitExceeded(max_chains, bound, f"at least {bound or f'2^{exponent}'}")


def guarded_family(
    rs: RootSystem, kind: ComplexKind, max_chains: Optional[int]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...], Optional[int]]:
    """``complex_family`` and its chain total, or ``ChainLimitExceeded`` past ``max_chains`` chains.

    CI is first refused on its lower bound (``check_ci_bound``), before any
    table is built.  Otherwise the exact total is counted over the family.
    Without a guard the total is not counted, and is ``None``.
    """
    if max_chains is None:
        return (*complex_family(rs, kind), None)
    check_ci_bound(rs.spec, kind, max_chains)
    ids, succ, bits = complex_family(rs, kind)
    total = count_index_chains(ids, succ)
    if total > max_chains:
        raise ChainLimitExceeded(max_chains, total)
    return ids, succ, bits, total


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
    ids, succ, _, _ = guarded_family(rs, kind, max_chains)
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
