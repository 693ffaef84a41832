"""Independent reference computations the test suite checks the package against.

Nothing here shares code paths with the package: positive roots come from
explicit Euclidean realizations of the classical and exceptional types,
ideals come from filtering every subset of the positive system, and the
rank-4 cross-check enumerates antichains of the componentwise order.  The
per-ideal predicates work on coefficient vectors alone: a bracket is a sum
of two member vectors that is again a positive-root vector, and a support
is the set of nonzero coefficients.  They use no root tables.
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


def _basis(dim: int) -> list[tuple[int, ...]]:
    return [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]


def _add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def _scale(k: int, a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(k * x for x in a)
