"""Ad-nilpotent ideals of the fixed Borel subalgebra, as sets of positive roots.

An ideal is an upper-closed set of positive roots: whenever it contains a
root ``b`` and ``b + alpha_i`` is again a positive root, it contains
``b + alpha_i``.  By height induction this is equivalent to closure under
adding any positive root.  The empty set is the zero ideal; the full
positive system is the nilradical of the Borel.

Commutators follow the generic structure-constant convention: the bracket
of the root spaces for ``b`` and ``g`` is nonzero exactly when ``b + g`` is
a root.  Parabolic types are subsets of ``{1..rank}``, naming which negative
simple root spaces the parabolic contains.

The per-ideal predicates are lookups into the cached ``IdealLattice`` of
their system, so the first call for a type builds its lattice.  Lattices
over a stated size, and containment tests pair by pair over a stated
lattice size, are refused before anything is built (``SizeLimitExceeded``).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .root_system import RootSystem, exponents

ParabolicType = frozenset[int]

# The most ideals a lattice is built for: A11 (208,012) fits, A12 (742,900)
# does not.  A11's lattice reached 188 MB.
MAX_IDEALS = 250_000
# The largest lattice whose ideals are compared pair by pair (successor
# lists, ``nilchain pair``), measured as n*n/16 for n ideals, the bytes of a
# containment bitset table, as the refusal message says.  E8 (39 M) and
# A10 (216 M) fit, A11 (2.7 G) does not.
MAX_CONTAINMENT_BYTES = 512 * 2**20


class SizeLimitExceeded(RuntimeError):
    """Raised before building a table whose estimated size is over its budget."""


def ideal_count(rs: RootSystem) -> int:
    """Number of ideals, ``prod (h + e_i + 1) / (e_i + 1)`` over the exponents.

    This is the Catalan number of the type (Cellini-Papi, J. Algebra 2000);
    ``h`` is the Coxeter number, the largest exponent plus one.
    """
    exps = exponents(rs.spec.family, rs.rank)
    h = exps[-1] + 1
    num = den = 1
    for e in exps:
        num *= h + e + 1
        den *= e + 1
    return num // den


def _check_ideal_budget(rs: RootSystem) -> None:
    count = ideal_count(rs)
    if count > MAX_IDEALS:
        raise SizeLimitExceeded(
            f"{rs.spec} has {count:,} ideals, over the lattice budget of {MAX_IDEALS:,}"
        )


def _check_containment_budget(rs: RootSystem) -> None:
    count = ideal_count(rs)
    estimate = count * count // 16
    if estimate > MAX_CONTAINMENT_BYTES:
        raise SizeLimitExceeded(
            f"the containment table of {rs.spec} ({count:,} ideals) needs about "
            f"{estimate:,} bytes, over its budget of {MAX_CONTAINMENT_BYTES:,}"
        )


def full_parabolic_type(rs: RootSystem) -> ParabolicType:
    """The type of the full group: all simple indices 1..rank."""
    return frozenset(range(1, rs.rank + 1))


def _check_parabolic_type(rs: RootSystem, subset: Iterable[int]) -> ParabolicType:
    j = frozenset(subset)
    if not j <= full_parabolic_type(rs):
        bad = sorted(j - full_parabolic_type(rs))
        raise ValueError(f"parabolic type {bad} not within simple indices 1..{rs.rank}")
    return j


class Ideal:
    """An upper-closed set of positive roots of a fixed root system.

    Stored as a bitmask over canonical root indices.  Instances are immutable
    values; equality compares the owning system's spec and the root set.
    """

    __slots__ = ("rs", "mask")

    def __init__(self, rs: RootSystem, root_indices: Iterable[int] = ()) -> None:
        mask = 0
        for r in root_indices:
            if not 0 <= r < rs.num_positive_roots:
                raise IndexError(f"root index {r} out of range for {rs.spec}")
            mask |= 1 << r
        _validate_upper_closed(rs, mask)
        self.rs = rs
        self.mask = mask

    @classmethod
    def from_mask(cls, rs: RootSystem, mask: int) -> "Ideal":
        if mask < 0 or mask >> rs.num_positive_roots:
            raise ValueError(f"mask {mask:#x} out of range for {rs.spec}")
        _validate_upper_closed(rs, mask)
        return cls._unchecked(rs, mask)

    @classmethod
    def _unchecked(cls, rs: RootSystem, mask: int) -> "Ideal":
        self = object.__new__(cls)
        self.rs = rs
        self.mask = mask
        return self

    def root_indices(self) -> tuple[int, ...]:
        return tuple(_bit_positions(self.mask))

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, root_index: int) -> bool:
        return 0 <= root_index < self.rs.num_positive_roots and (self.mask >> root_index) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.root_indices())

    def __le__(self, other: "Ideal") -> bool:
        _check_same_system(self, other)
        return self.mask | other.mask == other.mask

    def __lt__(self, other: "Ideal") -> bool:
        return self <= other and self.mask != other.mask

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.rs.spec == other.rs.spec and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.rs.spec, self.mask))

    def __str__(self) -> str:
        return "{" + ", ".join(str(i) for i in self.root_indices()) + "}"

    def __repr__(self) -> str:
        return f"Ideal({self.rs.spec}, {self})"


def _bit_positions(x: int) -> list[int]:
    """Positions of the set bits of ``x``, ascending, one step per set bit."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _validate_upper_closed(rs: RootSystem, mask: int) -> None:
    steps = rs.simple_step_table
    for r in range(rs.num_positive_roots):
        if not (mask >> r) & 1:
            continue
        for i in range(1, rs.rank + 1):
            up = steps.get((r, i))
            if up is not None and not (mask >> up) & 1:
                raise ValueError(
                    f"root set is not upper-closed: contains root {r} but not root {up} "
                    f"(= root {r} + alpha_{i})"
                )


def _check_same_system(a: Ideal, b: Ideal) -> None:
    if a.rs is not b.rs and a.rs.spec != b.rs.spec:
        raise ValueError(f"ideals belong to different root systems: {a.rs.spec} vs {b.rs.spec}")


def enumerate_ideals(rs: RootSystem) -> tuple[Ideal, ...]:
    """All ideals of the Borel, in canonical order (ascending size, then mask).

    Roots are taken from high to low height, and a root may only be included
    once all of its upward simple steps are in.  The zero ideal and the full
    nilradical are both present.
    """
    return tuple(Ideal._unchecked(rs, m) for m in _ideal_masks(rs))


def _up_masks(rs: RootSystem) -> tuple[int, ...]:
    """For each root, the bitmask of the roots one simple step above it."""
    return tuple(
        sum(
            1 << rs.simple_step_table[(r, i)]
            for i in range(1, rs.rank + 1)
            if (r, i) in rs.simple_step_table
        )
        for r in range(rs.num_positive_roots)
    )


def _ideal_masks(rs: RootSystem) -> tuple[int, ...]:
    """All ideal masks, in canonical order.

    Roots are taken from the last (highest) to the first.  After each root,
    the list holds every ideal within the roots taken so far: each earlier
    one, and each earlier one plus the new root when all of its upward simple
    steps (higher, so already taken) are in it.  ``SizeLimitExceeded`` is
    raised first if the system has more than ``MAX_IDEALS`` ideals.
    """
    _check_ideal_budget(rs)
    ups = _up_masks(rs)
    found = [0]
    for r in reversed(range(rs.num_positive_roots)):
        up, bit = ups[r], 1 << r
        found += [mk | bit for mk in found if mk & up == up]
    found.sort(key=lambda mk: (mk.bit_count(), mk))
    return tuple(found)


def _derived_and_normalizers(
    rs: RootSystem, masks: tuple[int, ...], index: dict[int, int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per ideal id, the id of its derived ideal and its normalizer bits.

    Both go over covers, as the ``IdealLattice`` docstring explains: ``r``
    is the lowest-index root of ``t`` (roots are sorted by height), and
    ``s = t - {r}``.  Besides ``derived``, each ideal carries ``low[i]``,
    the roots ``c`` with ``c + alpha_i`` in it, so that
    ``low[i](t) = low[i](s) | {r - alpha_i}``.  Simple position ``i`` is in
    the normalizer exactly when ``alpha_i`` is not in ``t`` and ``low[i](t)``
    lies inside ``t``: no step ``(c, c + alpha_i)`` leaves the ideal going
    down.
    """
    m, rank = rs.num_positive_roots, rs.rank
    sums: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for (a, b), c in rs.addition_table.items():
        sums[a].append((1 << b, 1 << c))
    down = [[0] * rank for _ in range(m)]
    for (c, i), up in rs.simple_step_table.items():
        down[up][i - 1] = 1 << c
    simple_bits = [1 << rs.simple_root_index(i) for i in range(1, rank + 1)]
    positions = range(rank)
    derived_masks = [0] * len(masks)
    lows = [[0] * rank] * len(masks)  # the zero ideal's; the others are replaced
    normalizer_bits = [(1 << rank) - 1] * len(masks)
    for t in range(1, len(masks)):
        mask = masks[t]
        bit = mask & -mask
        r = bit.bit_length() - 1
        s = index[mask ^ bit]
        d = derived_masks[s]
        for b, c in sums[r]:
            if mask & b:
                d |= c
        derived_masks[t] = d
        low = lows[t] = [x | y for x, y in zip(lows[s], down[r])]
        normalizer_bits[t] = sum(
            1 << i for i in positions if not (mask & simple_bits[i] or low[i] & ~mask)
        )
    return tuple(index[d] for d in derived_masks), tuple(normalizer_bits)


def _nilradical_ids(rs: RootSystem, index: dict[int, int]) -> list[int]:
    """Per normalizer bitmask ``J``, the id of the nilradical of its parabolic.

    The nilradical holds the roots whose support is not inside ``J``; its
    mask is looked up in ``index``, so one that is not an ideal raises
    ``KeyError``.
    """
    supports = [
        sum(1 << i for i, c in enumerate(root.coeffs) if c) for root in rs.positive_roots
    ]
    return [
        index[sum(1 << r for r, sup in enumerate(supports) if sup & ~j)]
        for j in range(1 << rs.rank)
    ]


def _lookup(n: Ideal) -> tuple["IdealLattice", int]:
    lat = ideal_lattice(n.rs)
    return lat, lat.index[n.mask]


def _type_of_bits(bits: int) -> ParabolicType:
    """The parabolic type whose simple index ``i`` is bit ``i - 1`` of ``bits``."""
    return frozenset(p + 1 for p in _bit_positions(bits))


def is_abelian(n: Ideal) -> bool:
    """Whether no two members (repeats allowed) sum to a root."""
    lat, i = _lookup(n)
    return lat.abelian[i]


def derived_ideal(n: Ideal) -> Ideal:
    """The commutator ideal: all pairwise sums of members that are roots."""
    lat, i = _lookup(n)
    return lat.ideal(lat.derived[i])


def sum_ideals(a: Ideal, b: Ideal) -> Ideal:
    """Union of two ideals of the same system (again an ideal)."""
    _check_same_system(a, b)
    return Ideal.from_mask(a.rs, a.mask | b.mask)


def normalizer_type(n: Ideal) -> ParabolicType:
    """Type of the parabolic normalizing ``n``.

    A simple index ``i`` belongs to the type exactly when ``alpha_i`` is not
    in ``n`` and stepping any member of ``n`` down by ``alpha_i`` stays in
    ``n`` whenever the step lands on a positive root; those are the
    conditions for the negative simple root space to preserve ``n`` under
    generic structure constants.
    """
    lat, i = _lookup(n)
    return _type_of_bits(lat.normalizer_bits[i])


def nilradical_of_parabolic(rs: RootSystem, subset: Iterable[int]) -> Ideal:
    """Roots whose support is not contained in the given set of simple indices."""
    j = _check_parabolic_type(rs, subset)
    lat = ideal_lattice(rs)
    return lat.ideal(lat.nil_id[sum(1 << (i - 1) for i in j)])


def is_radical_member(n: Ideal) -> bool:
    """Whether ``n`` equals the nilradical of its own normalizer parabolic."""
    lat, i = _lookup(n)
    return lat.radical[i]


class IdealLattice:
    """Per-ideal tables over the full family of ideals of one root system.

    Everything chain enumeration and pairing needs, keyed by canonical ideal
    index: the root mask, abelian and radical flags, the derived ideal, the
    nilradical of the normalizer, and normalizer types as bitmasks over
    simple positions.  Containment is read from the masks: ideal ``a`` lies
    in ``b`` exactly when ``masks[a] & ~masks[b] == 0``, and a strictly
    larger ideal comes later in canonical order.
    Index 0 is always the zero ideal.  ``nil_id`` maps each subset of simple
    positions, as a bitmask, to the id of its parabolic's nilradical.  The
    object predicates above are lookups into these tables.

    The tables come from root tables and masks.  Ideals are built up over
    covers, smallest first.  For a nonzero ideal ``t`` let ``r`` be a root
    of minimal height in ``t``.  No member of ``t`` steps up onto ``r``, so
    ``s = t - {r}`` is again an ideal, and an earlier one.
    A bracket within ``t`` either stays within ``s`` or involves ``r``, so

        derived(t) = derived(s) | {r + b : b in t, r + b a positive root}.

    The normalizer bits follow the same recursion (see
    ``_derived_and_normalizers``).  There are only ``2^rank`` nilradicals,
    one per subset of simple positions; each is built once, and an ideal's
    radical closure is the nilradical of its normalizer bits.  Every derived
    and nilradical mask is resolved through ``index``, so a mask that is not
    an ideal raises ``KeyError``.
    """

    __slots__ = (
        "rs",
        "masks",
        "index",
        "abelian",
        "radical",
        "derived",
        "radical_closure",
        "normalizer_bits",
        "nil_id",
        "nonzero_ids",
        "abelian_ids",
        "radical_ids",
        "full_simple_bits",
    )

    def __init__(self, rs: RootSystem) -> None:
        self.rs = rs
        self.masks = _ideal_masks(rs)
        self.index = {mk: i for i, mk in enumerate(self.masks)}
        self.derived, self.normalizer_bits = _derived_and_normalizers(rs, self.masks, self.index)
        self.abelian = tuple(d == 0 for d in self.derived)
        nil_id = _nilradical_ids(rs, self.index)
        self.nil_id = tuple(nil_id)
        self.radical_closure = tuple(nil_id[bits] for bits in self.normalizer_bits)
        self.radical = tuple(c == i for i, c in enumerate(self.radical_closure))
        self.nonzero_ids = tuple(range(1, len(self.masks)))
        self.abelian_ids = tuple(i for i in self.nonzero_ids if self.abelian[i])
        self.radical_ids = tuple(i for i in self.nonzero_ids if self.radical[i])
        self.full_simple_bits = (1 << rs.rank) - 1

    def __len__(self) -> int:
        return len(self.masks)

    def ideal(self, ideal_id: int) -> Ideal:
        return Ideal._unchecked(self.rs, self.masks[ideal_id])

    def id_of(self, n: Ideal) -> int:
        return self.index[n.mask]

    def union_id(self, a: int, b: int) -> int:
        return self.index[self.masks[a] | self.masks[b]]

    def normalizer_type_of(self, ideal_id: int) -> ParabolicType:
        return _type_of_bits(self.normalizer_bits[ideal_id])


_LATTICE_CACHE: dict[object, IdealLattice] = {}


def ideal_lattice(rs: RootSystem) -> IdealLattice:
    """The (cached) precomputed lattice for ``rs``; construction is deterministic."""
    lat = _LATTICE_CACHE.get(rs.spec)
    if lat is None:
        lat = IdealLattice(rs)
        _LATTICE_CACHE[rs.spec] = lat
    return lat


def _containment_lattice(rs: RootSystem) -> IdealLattice:
    """``ideal_lattice(rs)`` for a caller that compares ideals pair by pair.

    A lattice not yet cached is built only after the containment budget is
    checked, so work that would be refused costs no lattice first.  A
    cached lattice skips the check: ``family_successors`` checks it again.
    """
    lat = _LATTICE_CACHE.get(rs.spec)
    if lat is None:
        _check_containment_budget(rs)
        lat = ideal_lattice(rs)
    return lat
