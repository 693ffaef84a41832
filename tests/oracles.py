"""Independent reference computations the test suite checks the package against.

Nothing here shares code paths with the package: positive roots come from
explicit Euclidean realizations of the classical and exceptional types,
ideals come from filtering every subset of the positive system, and the
rank-4 cross-check enumerates antichains of the componentwise order.  The
per-ideal predicates work on coefficient vectors alone: a bracket is a sum
of two member vectors that is again a positive-root vector, and a support
is the set of nonzero coefficients.  They use no root tables.  The
step-table, root-count, mask-sorting, cover-recursion and support-scan
references are the package's former derivations, kept here to check the
ones that replaced them.
"""

from __future__ import annotations

from itertools import combinations, product

import sympy


def euclidean_realization(family: str, rank: int):
    """Simple roots and the full root set of a type, in ambient coordinates.

    F4 is scaled by 2 so every coordinate is an integer; scaling does not
    change the coefficients of roots over the simple roots.
    """
    if family == "A":
        dim = rank + 1
        e = _basis(dim)
        simples = [_sub(e[i], e[i + 1]) for i in range(rank)]
        roots = [_sub(e[i], e[j]) for i in range(dim) for j in range(dim) if i != j]
    elif family == "B":
        e = _basis(rank)
        simples = [_sub(e[i], e[i + 1]) for i in range(rank - 1)] + [e[rank - 1]]
        roots = [_scale(s, e[i]) for i in range(rank) for s in (1, -1)]
        roots += [
            _add(_scale(s, e[i]), _scale(t, e[j]))
            for i, j in combinations(range(rank), 2)
            for s, t in product((1, -1), repeat=2)
        ]
    elif family == "C":
        e = _basis(rank)
        simples = [_sub(e[i], e[i + 1]) for i in range(rank - 1)] + [_scale(2, e[rank - 1])]
        roots = [_scale(2 * s, e[i]) for i in range(rank) for s in (1, -1)]
        roots += [
            _add(_scale(s, e[i]), _scale(t, e[j]))
            for i, j in combinations(range(rank), 2)
            for s, t in product((1, -1), repeat=2)
        ]
    elif family == "D":
        e = _basis(rank)
        simples = [_sub(e[i], e[i + 1]) for i in range(rank - 1)] + [
            _add(e[rank - 2], e[rank - 1])
        ]
        roots = [
            _add(_scale(s, e[i]), _scale(t, e[j]))
            for i, j in combinations(range(rank), 2)
            for s, t in product((1, -1), repeat=2)
        ]
    elif family == "G":
        simples = [(1, -1, 0), (-2, 1, 1)]
        roots = []
        for i, j in combinations(range(3), 2):
            v = [0, 0, 0]
            v[i], v[j] = 1, -1
            roots += [tuple(v), _scale(-1, tuple(v))]
        for i in range(3):
            v = [-1, -1, -1]
            v[i] = 2
            roots += [tuple(v), _scale(-1, tuple(v))]
    elif family == "F":
        simples = [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
        e = _basis(4)
        roots = [_scale(2 * s, e[i]) for i in range(4) for s in (1, -1)]
        roots += [
            _add(_scale(2 * s, e[i]), _scale(2 * t, e[j]))
            for i, j in combinations(range(4), 2)
            for s, t in product((1, -1), repeat=2)
        ]
        roots += [signs for signs in product((1, -1), repeat=4)]
    else:
        raise ValueError(f"no realization for family {family}")
    return simples, roots


def positive_roots_by_realization(family: str, rank: int) -> set[tuple[int, ...]]:
    """Coefficient vectors of the positive roots, via exact linear algebra.

    Each ambient root is solved against the simple-root basis with rational
    Gram elimination; the positive ones are exactly those whose coefficients
    are nonnegative integers.
    """
    simples, roots = euclidean_realization(family, rank)
    basis = sympy.Matrix([list(s) for s in simples]).T
    gram = basis.T * basis
    out: set[tuple[int, ...]] = set()
    for v in roots:
        vec = sympy.Matrix([list(v)]).T
        coeffs = gram.solve(basis.T * vec)
        if basis * coeffs != vec:
            continue
        values = [sympy.nsimplify(c) for c in coeffs]
        if all(c.is_integer and c >= 0 for c in values):
            out.add(tuple(int(c) for c in values))
    out.discard(tuple(0 for _ in range(rank)))
    return out


def classical_root_count(family: str, rank: int) -> int:
    """Number of positive roots, by the classical per-family formulas."""
    if family == "A":
        return rank * (rank + 1) // 2
    if family in ("B", "C"):
        return rank * rank
    if family == "D":
        return rank * (rank - 1)
    return {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}[family, rank]


def simple_steps_by_slicing(roots: list[tuple[int, ...]]):
    """The simple-step table and the up masks, read off the coefficient vectors.

    ``roots`` lists the positive roots' coefficient vectors by index.  For
    each root and simple index ``i`` (1-based), the vector with its ``i``-th
    coefficient raised by one is looked up among them.  Returns the table
    ``{(root, i): step}``, in root-then-``i`` order, and per root the
    bitmask of its steps.
    """
    where = {v: k for k, v in enumerate(roots)}
    steps: dict[tuple[int, int], int] = {}
    ups = []
    for b, c in enumerate(roots):
        up = 0
        for i in range(len(c)):
            s = where.get(c[:i] + (c[i] + 1,) + c[i + 1 :])
            if s is not None:
                steps[(b, i + 1)] = s
                up |= 1 << s
        ups.append(up)
    return steps, tuple(ups)


def ideal_masks_by_sorting(rs) -> tuple[int, ...]:
    """All ideal masks in canonical order, generated root by root and then sorted.

    The package's former generation.  Roots are taken from the last
    (highest) to the first; after each root the list holds every ideal
    within the roots taken so far: each earlier one, and each earlier one
    plus the new root when all of its upward simple steps are in it.  The
    list is then sorted by mask, and stably by size.
    """
    found = [0]
    for r in reversed(range(rs.num_positive_roots)):
        up, bit = rs.up_masks[r], 1 << r
        found += [mk | bit for mk in found if mk & up == up]
    found.sort()
    found.sort(key=int.bit_count)
    return tuple(found)


def derived_and_normalizers_by_covers(rs, masks: tuple[int, ...], index: dict[int, int]):
    """Per ideal id, the id of its derived ideal and its normalizer bits, over covers.

    The package's former build, less its memo and its carry table: it keeps
    a derived mask and a packed ``escape`` int for every ideal, adds up each
    contribution from per-root ``(partner, sum)`` bit pairs, and reads each
    lane of ``escape`` on its own.  ``r`` is the lowest
    root of ideal ``t`` and ``s = t - {r}`` its parent; lane ``i`` of
    ``escape(t)``, ``m + 1`` bits wide, holds the roots ``c`` outside ``t``
    with ``c + alpha_i`` in ``t``, and ``alpha_i`` once it is in ``t``.
    Position ``i`` is in the normalizer exactly when that lane is zero.
    """
    m, rank, count = rs.num_positive_roots, rs.rank, len(masks)
    sums: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for (a, b), c in rs.addition_table.items():
        sums[a].append((1 << b, 1 << c))
    width = m + 1
    spread = sum(1 << (i * width) for i in range(rank))
    down = [0] * m
    for (c, i), up in rs.simple_step_table.items():
        down[up] |= 1 << (c + (i - 1) * width)
    for i in range(rank):
        a = rs.simple_root_index(i + 1)
        down[a] |= 1 << (a + i * width)
    lane = (1 << m) - 1
    derived_masks = [0] * count
    escape = [0] * count
    normalizer_bits = [(1 << rank) - 1] * count
    for t in range(1, count):
        mask = masks[t]
        bit = mask & -mask
        r = bit.bit_length() - 1
        s = index[mask ^ bit]
        derived_masks[t] = derived_masks[s] | sum(c for b, c in sums[r] if mask & b)
        e = escape[t] = escape[s] & ~(bit * spread) | down[r]
        normalizer_bits[t] = sum(1 << i for i in range(rank) if not (e >> (i * width)) & lane)
    return tuple(index[d] for d in derived_masks), tuple(normalizer_bits)


def nilradical_ids_by_supports(rs, index: dict[int, int]) -> list[int]:
    """Per simple-position bitmask ``J``, the id of its parabolic's nilradical.

    The package's former scan: for every ``J``, every root whose support is
    not inside ``J`` is collected, and the mask is looked up in ``index``.
    """
    supports = [
        sum(1 << i for i, c in enumerate(root.coeffs) if c) for root in rs.positive_roots
    ]
    return [
        index[sum(1 << r for r, sup in enumerate(supports) if sup & ~j)]
        for j in range(1 << rs.rank)
    ]


def upper_closed_subsets_by_filter(root_vectors: list[tuple[int, ...]]) -> set[frozenset]:
    """Every subset of the positive roots closed under adding any positive root."""
    rootset = set(root_vectors)
    m = len(root_vectors)
    out: set[frozenset] = set()
    for bits in range(1 << m):
        chosen = [root_vectors[i] for i in range(m) if (bits >> i) & 1]
        chosen_set = set(chosen)
        ok = True
        for a in chosen:
            for b in root_vectors:
                s = tuple(x + y for x, y in zip(a, b))
                if s in rootset and s not in chosen_set:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(frozenset(chosen))
    return out


def upper_sets_by_antichains(root_vectors: list[tuple[int, ...]]) -> set[frozenset]:
    """Upper sets of the componentwise order, one per antichain of minima."""
    m = len(root_vectors)

    def leq(a: int, b: int) -> bool:
        return all(x <= y for x, y in zip(root_vectors[a], root_vectors[b]))

    up_of = [frozenset(j for j in range(m) if leq(i, j)) for i in range(m)]
    out: set[frozenset] = set()

    def walk(start: int, antichain: list[int], closure: frozenset) -> None:
        out.add(frozenset(root_vectors[i] for i in closure))
        for i in range(start, m):
            if all(not leq(i, a) and not leq(a, i) for a in antichain):
                antichain.append(i)
                walk(i + 1, antichain, closure | up_of[i])
                antichain.pop()

    walk(0, [], frozenset())
    return out


def derived_by_vectors(roots: list[tuple[int, ...]], members) -> frozenset[int]:
    """Indices of the sums ``a + b`` of members (repeats allowed) that are positive roots.

    ``roots`` lists the positive roots' coefficient vectors by index, and
    ``members`` holds indices into it.  The ideal is abelian exactly when
    the result is empty.
    """
    where = {v: i for i, v in enumerate(roots)}
    out = set()
    for a in members:
        for b in members:
            s = _add(roots[a], roots[b])
            if s in where:
                out.add(where[s])
    return frozenset(out)


def normalizer_by_vectors(roots: list[tuple[int, ...]], members) -> frozenset[int]:
    """Simple indices ``i`` with ``alpha_i`` outside the ideal and no member
    ``b`` for which ``b - alpha_i`` is a positive root outside it."""
    where = {v: i for i, v in enumerate(roots)}
    chosen = set(members)
    rank = len(roots[0])
    out = set()
    for i, simple in enumerate(_basis(rank)):
        if where[simple] in chosen:
            continue
        downs = (_sub(roots[b], simple) for b in chosen)
        if all(where[d] in chosen for d in downs if d in where):
            out.add(i + 1)
    return frozenset(out)


def nilradical_by_vectors(roots: list[tuple[int, ...]], subset) -> frozenset[int]:
    """Indices of the roots whose support is not inside the given simple indices."""
    return frozenset(
        r
        for r, v in enumerate(roots)
        if any(c and i + 1 not in subset for i, c in enumerate(v))
    )


def radical_by_vectors(roots: list[tuple[int, ...]], members) -> bool:
    """Whether the ideal is the nilradical of its own normalizer parabolic."""
    return frozenset(members) == nilradical_by_vectors(
        roots, normalizer_by_vectors(roots, members)
    )


def parabolic_chain_histogram(rank: int) -> dict[int, int]:
    """CP (and so CR) chains by length: ``k! * S(rank + 1, k + 1)`` for ``k = 0..rank``.

    A length-``k`` chain of proper subsets, topped by the full set, cuts the
    simple indices into ``k + 1`` consecutive differences, all nonempty but
    the first.  Adding one extra point to the first makes them the ordered
    partitions of ``rank + 1`` points into ``k + 1`` blocks with the extra
    point's block first.  ``S`` is the Stirling number of the second kind.
    """
    return {
        k: int(sympy.factorial(k) * sympy.functions.combinatorial.numbers.stirling(rank + 1, k + 1))
        for k in range(rank + 1)
    }


def length_histogram_by_dicts(
    family_ids: tuple[int, ...], succ_within: tuple[tuple[int, ...], ...]
) -> dict[int, int]:
    """Chains of a family by length, the empty one included, from per-member dicts.

    Going down the family, each member maps a length to the number of
    chains of that length whose smallest member it is: 1 at length 1, plus
    each successor's map shifted up by one.  No counts are packed.
    """
    lengths: dict[int, dict[int, int]] = {}
    for i in reversed(family_ids):
        here = {1: 1}
        for j in succ_within[i]:
            for length, c in lengths[j].items():
                here[length + 1] = here.get(length + 1, 0) + c
        lengths[i] = here
    histogram = {0: 1}
    for counts in lengths.values():
        for length, c in counts.items():
            histogram[length] = histogram.get(length, 0) + c
    return histogram


def _basis(dim: int) -> list[tuple[int, ...]]:
    return [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]


def _add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def _scale(k: int, a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(k * x for x in a)
