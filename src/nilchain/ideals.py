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
their system, so the first call for a type builds its lattice.  A lattice
over ``MAX_IDEALS`` ideals is refused before anything is built
(``SizeLimitExceeded``; ``chains`` budgets each complex's successor table).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import compress, islice
from operator import eq
from typing import Iterable, Iterator, Union

from .root_system import (
    COUNT_BITS, RootSystem, RootSystemSpec, SizeLimitExceeded, count_text, coxeter_number,
    iter_exponents,
)

ParabolicType = frozenset[int]

# The most ideals a lattice is built for: A11 (208,012) fits, A12 (742,900)
# does not.  A11's lattice builds in about 0.5 s at 52 MB max RSS.
MAX_IDEALS = 250_000


def ideal_count(system: Union[RootSystem, RootSystemSpec]) -> int:
    """Number of ideals, ``prod (h + e_i + 1) / (e_i + 1)`` over the exponents, up to the cap.

    This is the Catalan number of the type (Cellini-Papi, J. Algebra 2000);
    ``h`` is the Coxeter number, the largest exponent plus one.  Every
    factor is over 1, so once a partial product is past ``2^COUNT_BITS``
    the product stops and returns the cap: a count of ``2^COUNT_BITS``
    means at least that many.
    """
    spec = getattr(system, "spec", system)
    h = coxeter_number(spec.family, spec.rank)
    num = den = 1
    for e in iter_exponents(spec.family, spec.rank):
        num *= h + e + 1
        den *= e + 1
        if num > den << COUNT_BITS:
            return 1 << COUNT_BITS
    return num // den


def check_ideal_budget(spec: RootSystemSpec) -> None:
    """``SizeLimitExceeded`` if the lattice of ``spec`` has over ``MAX_IDEALS`` ideals."""
    count = ideal_count(spec)
    if count > MAX_IDEALS:
        raise SizeLimitExceeded(
            f"{spec} has {count_text(count)} ideals, over the lattice budget of {MAX_IDEALS:,}"
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
    ups = rs.up_masks
    for r in _bit_positions(mask):
        if ups[r] & ~mask:
            for i in range(1, rs.rank + 1):
                up = rs.simple_step_table.get((r, i))
                if up is not None and not (mask >> up) & 1:
                    raise ValueError(
                        f"root set is not upper-closed: contains root {r} but not root {up} "
                        f"(= root {r} + alpha_{i})"
                    )


def _check_same_system(a: Ideal, b: Ideal) -> None:
    if a.rs is not b.rs and a.rs.spec != b.rs.spec:
        raise ValueError(f"ideals belong to different root systems: {a.rs.spec} vs {b.rs.spec}")


def enumerate_ideals(rs: RootSystem) -> tuple[Ideal, ...]:
    """All ideals of the Borel, zero and full included, in canonical order (by size, then mask)."""
    return tuple(Ideal._unchecked(rs, m) for m in ideal_lattice(rs).masks)


def _ideal_tables(rs: RootSystem) -> tuple[list[int], dict[int, int], list[int], list[int]]:
    """The ideal masks in canonical order, their ids, derived ids and normalizer bits.

    One pass over the size layers, as the ``IdealLattice`` docstring
    derives, with layer entries ``(mask, derived mask, escape, lowest
    root)``.  ``contributions[r]`` maps ``t & partners[r]`` to what ``r``
    adds to the derived ideal, and ``blocked`` reads the carries of
    ``escape`` as normalizer bits.  Over budget, ``SizeLimitExceeded`` is raised first.
    """
    check_ideal_budget(rs.spec)
    ups, m, rank = rs.up_masks, rs.num_positive_roots, rs.rank
    sums: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    partners = [0] * m
    for (a, b), c in rs.addition_table.items():
        sums[a].append((b, c))
        partners[a] |= 1 << b
    contributions: list[dict[int, int]] = [{} for _ in range(m)]
    # Lane ``i`` is ``width`` bits from ``lane[i]``: its bound's bits and a spare top bit.
    bound = max(Counter(i for _, i in rs.simple_step_table).values(), default=0) + 1
    width = bound.bit_length() + 1
    lane = [1 << (i * width) for i in range(rank)]
    step = [0] * m
    for (c, i), up in rs.simple_step_table.items():
        step[up] += lane[i - 1]
        step[c] -= lane[i - 1]
    for i in range(rank):
        step[rs.simple_root_index(i + 1)] += lane[i]
    carry = sum(lane) << (width - 1)
    ones = carry - sum(lane)
    full = (1 << rank) - 1
    blocked = {0: full}
    for i in range(rank):
        blocked.update([(k | lane[i] << (width - 1), v ^ (1 << i)) for k, v in blocked.items()])
    # ``first[low]`` is the first root at most one height below ``low``; the
    # zero ideal's ``low`` is ``m``, one height past the top.
    heights = [root.height for root in rs.positive_roots] + [rs.positive_roots[-1].height + 1]
    first = [bisect_left(heights, h - 1) for h in heights]
    masks, index, derived, normalizer_bits = [0], {0: 0}, [0], [full]
    layer = [(0, 0, 0, m)]
    while layer:
        children = []
        for s, ds, es, low in layer:
            outside = ~s
            for r in range(first[low], low):
                if ups[r] & outside:
                    continue
                t = s | 1 << r
                key = t & partners[r]
                try:
                    new = contributions[r][key]
                except KeyError:
                    # Distinct partners give distinct sums, so adding the bits ORs them.
                    new = contributions[r][key] = sum(1 << c for b, c in sums[r] if key >> b & 1)
                d = ds | new
                e = es + step[r]
                index[t] = len(masks)
                masks.append(t)
                derived.append(index[d])
                normalizer_bits.append(blocked[(e + ones) & carry])
                children.append((t, d, e, r))
        layer = children
    return masks, index, derived, normalizer_bits


def _nilradical_ids(rs: RootSystem, index: dict[int, int]) -> tuple[int, ...]:
    """Per normalizer bitmask ``J``, the id of the nilradical of its parabolic.

    The nilradical holds the roots whose support is not inside ``J``.  For
    ``J`` not full, with ``low`` its lowest missing position, those are the
    roots of the nilradical of ``J | low`` and the roots ``outside[low]``
    whose support holds ``low``; so the masks are built from the full ``J``,
    whose nilradical is zero, down.  Each mask is looked up in ``index``, so
    one that is not an ideal raises ``KeyError``.
    """
    outside = [0] * rs.rank
    for r, root in enumerate(rs.positive_roots):
        for i, c in enumerate(root.coeffs):
            if c:
                outside[i] |= 1 << r
    full = (1 << rs.rank) - 1
    nil = [0] * (full + 1)
    for j in reversed(range(full)):
        low = ~j & (j + 1)
        nil[j] = nil[j | low] | outside[low.bit_length() - 1]
    return tuple(map(index.__getitem__, nil))


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

    The tables are made in one pass over the size layers.  For a nonzero
    ideal ``t`` let ``r`` be its lowest root, of minimal height.  No member
    of ``t`` steps up onto ``r``, so its parent ``s = t - {r}`` is an ideal
    one root smaller.  So the children of ``s`` are ``s + {r}`` for each
    root ``r`` below the lowest root of ``s`` with all its upward steps in
    ``s``; a root two heights lower steps up only outside ``s``.  Taken
    parent by parent in canonical order, with ``r`` ascending, the children
    come out in canonical order: two parents of one size first differ at a
    root above every ``r`` added.  Each child is made with its parent at
    hand, and the working state below, a derived mask and an ``escape`` int
    per ideal, is kept for two layers only.
    A bracket within ``t`` either stays within ``s`` or involves ``r``, so

        derived(t) = derived(s) | {r + b : b in t, r + b a positive root}.

    The new part depends only on ``t & partners[r]``, the members ``b`` for
    which ``r + b`` is a root, so it is worked out once per root and key.

    The normalizer bits follow the same recursion, on one packed int per
    ideal.  Simple position ``i`` is in the normalizer of ``t`` exactly when
    ``alpha_i`` is not in ``t`` and no root ``c`` outside ``t`` has
    ``c + alpha_i`` in ``t``; lane ``i`` of ``escape(t)`` counts those roots,
    plus one once ``alpha_i`` is in ``t``, so it is zero exactly then.
    Adding ``r`` moves lane ``i`` one up if ``r - alpha_i`` is a root (lower
    than ``r``, so outside ``t``), one down if ``r + alpha_i`` is a root (in
    ``s``, as ``r`` was addable, so ``r`` counted until now), and one up if
    ``r = alpha_i``.  With ``step[r]`` holding those amounts,

        escape(t) = escape(s) + step[r].

    A lane counts at most one more than the roots with an ``alpha_i`` step,
    in ``b`` bits for the largest such bound, so adding ``2^b - 1`` to every
    lane carries into a spare top bit exactly when the lane is nonzero, and
    never into the next lane.  One lookup in a table of ``2^rank`` entries
    turns those carries into the normalizer bits.

    There are only ``2^rank`` nilradicals, one per subset of simple
    positions; each is built once, from the next larger subset's, and an
    ideal's radical closure is the nilradical of its normalizer bits.
    Every derived and nilradical mask is resolved through ``index``, so a
    mask that is not an ideal raises ``KeyError``.  ``nonzero_ids`` is a
    ``range``, since the nonzero ideals are every id from 1 up.
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
        masks, self.index, derived, bits = _ideal_tables(rs)
        # Each list becomes a tuple and is freed before the next one is copied.
        self.masks = masks = tuple(masks)
        self.derived = derived = tuple(derived)
        self.normalizer_bits = bits = tuple(bits)
        count = len(masks)
        self.abelian = tuple(map((0).__eq__, derived))
        self.nil_id = nil_id = _nilradical_ids(rs, self.index)
        self.radical_closure = tuple(map(nil_id.__getitem__, bits))
        self.radical = tuple(map(eq, self.radical_closure, range(count)))
        self.nonzero_ids = range(1, count)
        self.abelian_ids = tuple(compress(self.nonzero_ids, islice(self.abelian, 1, None)))
        self.radical_ids = tuple(compress(self.nonzero_ids, islice(self.radical, 1, None)))
        self.full_simple_bits = (1 << rs.rank) - 1

    def __len__(self) -> int:
        return len(self.masks)

    def ideal(self, ideal_id: int) -> Ideal:
        return Ideal._unchecked(self.rs, self.masks[ideal_id])

    def id_of(self, n: Ideal) -> int:
        return self.index[n.mask]

    def union_id(self, a: int, b: int) -> int:
        return self.index[self.masks[a] | self.masks[b]]


_LATTICE_CACHE: dict[object, IdealLattice] = {}


def ideal_lattice(rs: RootSystem) -> IdealLattice:
    """The (cached) precomputed lattice for ``rs``; construction is deterministic."""
    lat = _LATTICE_CACHE.get(rs.spec)
    if lat is None:
        lat = IdealLattice(rs)
        _LATTICE_CACHE[rs.spec] = lat
    return lat

