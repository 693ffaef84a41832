"""Positive root systems of the simple families A..G, generated from Cartan data.

Conventions, fixed once for the whole package:

* The Cartan matrix entry ``cartan[i][j]`` is the pairing of the j-th simple
  root against the i-th simple coroot, ``<alpha_j, alpha_i^vee>`` (0-based
  rows and columns internally, 1-based simple indices in the public API).
* Type B_n has its short simple root last (``alpha_n`` short), type C_n its
  long simple root last, and G_2 has ``alpha_1`` short with highest root
  ``3*alpha_1 + 2*alpha_2``.
* Positive roots are integer coefficient vectors over the simple roots,
  listed in a canonical order: ascending height, ties broken by ascending
  lexicographic order on the coefficient vector.  Every other module refers
  to a root by its index in that list.

Generation uses height induction with root strings: for a known positive
root ``b`` and simple root ``a``, the sum ``b + a`` is a root exactly when
``p - <b, a^vee> >= 1`` where ``p`` is the length of the descending string
``b, b - a, b - 2a, ...`` inside the root system.  Each step ``b -> b + a``
is recorded as it is found, with ``p + 1`` as the string length of
``b + a``; so the step table comes out of generation, and ``p`` is one
lookup.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Optional

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

# Systems larger than this are rejected unless explicitly allowed; chain
# enumeration above this size is out of reach anyway.
DEFAULT_MAX_POSITIVE_ROOTS = 64

# Counts are computed exactly only below ``2^COUNT_BITS``.  Such a count has
# at most 617 digits, so it prints at every int-to-str digit limit Python
# allows (640 digits or more, or none); a budget refuses a count at the cap
# without finishing it.
COUNT_BITS = 2048

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


_EXCEPTIONAL_EXPONENTS = {
    ("E", 6): (1, 4, 5, 7, 8, 11),
    ("E", 7): (1, 5, 7, 9, 11, 13, 17),
    ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
    ("F", 4): (1, 5, 7, 11),
    ("G", 2): (1, 5),
}


def iter_exponents(family: str, rank: int) -> Iterable[int]:
    """Exponents of the given type, ascending, without a tuple of ``rank`` ints.

    The Coxeter number is the largest plus one.
    """
    if family == "A":
        return range(1, rank + 1)
    if family in ("B", "C"):
        return range(1, 2 * rank, 2)
    if family == "D":
        # The odd numbers below 2 * rank - 2, with rank - 1 in its place.
        return itertools.chain(range(1, rank, 2), (rank - 1,), range(rank | 1, 2 * rank - 2, 2))
    return _EXCEPTIONAL_EXPONENTS[(family, rank)]


def coxeter_number(family: str, rank: int) -> int:
    """The largest exponent plus one, in closed form."""
    if family == "A":
        return rank + 1
    if family in ("B", "C"):
        return 2 * rank
    if family == "D":
        return 2 * rank - 2
    return _EXCEPTIONAL_EXPONENTS[(family, rank)][-1] + 1


def classical_positive_root_count(family: str, rank: int) -> int:
    """Number of positive roots of the given type, the sum of its exponents, in closed form."""
    if family == "A":
        return rank * (rank + 1) // 2
    if family in ("B", "C"):
        return rank * rank
    if family == "D":
        return rank * (rank - 1)
    return sum(_EXCEPTIONAL_EXPONENTS[(family, rank)])


class Frozen:
    """An immutable ``__slots__`` record.

    A subclass lists its constructor's arguments in ``_fields``, sets each
    once with ``object.__setattr__``, and defines its own ``==`` and hash.
    Any later assignment or deletion raises ``AttributeError``; ``copy``
    and ``pickle`` rebuild a record through its constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class RootSystemSpec(Frozen):
    """A simple-type selector: family letter plus rank.

    Invalid family/rank combinations are rejected here, so every spec that
    exists is buildable (subject to the size gate in ``build_root_system``).
    """

    __slots__ = _fields = ("family", "rank")
    family: str
    rank: int

    def __init__(self, family: str, rank: int) -> None:
        if family not in _RANK_RANGE:
            raise ValueError(f"unknown family {family!r}; expected one of {''.join(FAMILIES)}")
        lo, hi = _RANK_RANGE[family]
        if not isinstance(rank, int) or rank < lo or (hi is not None and rank > hi):
            bound = f">= {lo}" if hi is None else (f"= {lo}" if lo == hi else f"in {lo}..{hi}")
            raise ValueError(f"invalid rank {rank} for family {family}: rank must be {bound}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.family, self.rank) == (other.family, other.rank)

    def __hash__(self) -> int:
        return hash((self.family, self.rank))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class Root(NamedTuple):
    """A positive root as a coefficient vector over the simple roots."""

    coeffs: tuple[int, ...]
    height: int

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coeffs) + ")"


def cartan_matrix(spec: RootSystemSpec) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of the given type under the package conventions."""
    n = spec.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int) -> None:
        a[i][j] = -1
        a[j][i] = -1

    family = spec.family
    if family in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if family == "B":
            a[n - 1][n - 2] = -2  # alpha_n short
        elif family == "C":
            a[n - 2][n - 1] = -2  # alpha_n long
    elif family == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif family == "E":
        # Nodes 1,3,4,5,...,n form a chain; node 2 hangs off node 4.
        chain = [0] + list(range(2, n))
        for i, j in zip(chain, chain[1:]):
            bond(i, j)
        bond(1, 3)
    elif family == "F":
        bond(0, 1)
        a[1][2] = -1
        a[2][1] = -2  # alpha_3, alpha_4 short
        bond(2, 3)
    else:  # G2
        a[0][1] = -3  # alpha_1 short
        a[1][0] = -1
    return tuple(tuple(row) for row in a)


class RootSystem:
    """The positive roots of a simple type, with addition and step tables.

    Immutable after construction.  ``positive_roots`` is the canonical list;
    ``simple_step_table`` maps ``(root index, simple index)`` to the index
    of ``root + alpha_i``, and ``up_masks[r]`` is the bitmask of the roots
    one simple step above root ``r``.  ``addition_table`` maps pairs of root
    indices to the index of their sum whenever that sum is again a root; it
    compares all pairs of roots, so it is built on first read, and a system
    whose lattice is never built never pays for it.
    Simple indices are 1-based throughout the public API.
    """

    __slots__ = (
        "spec",
        "cartan",
        "positive_roots",
        "simple_step_table",
        "up_masks",
        "_addition",
        "_index",
        "_simple_root_indices",
    )

    def __init__(
        self,
        spec: RootSystemSpec,
        cartan: tuple[tuple[int, ...], ...],
        positive_roots: tuple[Root, ...],
        simple_step_table: dict[tuple[int, int], int],
    ) -> None:
        self.spec = spec
        self.cartan = cartan
        self.positive_roots = positive_roots
        self.simple_step_table = simple_step_table
        self._index = {r.coeffs: i for i, r in enumerate(positive_roots)}
        # The simple roots are the height-1 roots, so the first ``rank`` in
        # canonical order; lexicographic order puts ``alpha_rank`` first.
        self._simple_root_indices = tuple(reversed(range(spec.rank)))
        self._addition: Optional[dict[tuple[int, int], int]] = None
        ups = [0] * len(positive_roots)
        for (b, _), s in simple_step_table.items():
            ups[b] |= 1 << s
        self.up_masks = tuple(ups)

    @property
    def addition_table(self) -> dict[tuple[int, int], int]:
        if self._addition is None:
            self._addition = _addition_table(self.positive_roots)
        return self._addition

    @property
    def rank(self) -> int:
        return self.spec.rank

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    def simple_root_index(self, i: int) -> int:
        """Canonical index of the simple root ``alpha_i`` (``i`` in 1..rank)."""
        self._check_simple(i)
        return self._simple_root_indices[i - 1]

    def index_of(self, coeffs: tuple[int, ...]) -> Optional[int]:
        """Canonical index of the root with the given coefficients, if any."""
        return self._index.get(tuple(coeffs))

    def add_roots(self, a: int, b: int) -> Optional[int]:
        """Index of ``root(a) + root(b)`` if the sum is a positive root."""
        self._check_root(a)
        self._check_root(b)
        return self.addition_table.get((a, b))

    def subtract_simple(self, b: int, i: int) -> Optional[int]:
        """Index of ``root(b) - alpha_i`` if the difference is a positive root.

        A difference with a negative coefficient is never a root: a root has
        coefficients of one sign, and any root other than ``alpha_i`` that
        lies in the positive system keeps a strictly positive coefficient at
        some other simple root after subtracting ``alpha_i``.
        """
        self._check_root(b)
        self._check_simple(i)
        coeffs = list(self.positive_roots[b].coeffs)
        coeffs[i - 1] -= 1
        if coeffs[i - 1] < 0:
            return None
        return self._index.get(tuple(coeffs))

    def _check_root(self, a: int) -> None:
        if not 0 <= a < len(self.positive_roots):
            raise IndexError(
                f"root index {a} out of range for {self.spec} (0..{len(self.positive_roots) - 1})"
            )

    def _check_simple(self, i: int) -> None:
        if not 1 <= i <= self.spec.rank:
            raise IndexError(f"simple index {i} out of range for {self.spec} (1..{self.spec.rank})")

    def __eq__(self, other: object) -> bool:
        # Construction is deterministic, so equal specs mean equal systems.
        if not isinstance(other, RootSystem):
            return NotImplemented
        return self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    def __repr__(self) -> str:
        return f"RootSystem({self.spec}, {len(self.positive_roots)} positive roots)"


def _addition_table(positive_roots: tuple[Root, ...]) -> dict[tuple[int, int], int]:
    """Every pair of root indices whose sum is a root, both ways round.

    Each coefficient vector is packed into one int, a digit per simple root,
    each digit wide enough to hold the sum of two roots' coefficients; so a
    vector sum is one integer addition.
    """
    width = (2 * max(max(r.coeffs) for r in positive_roots)).bit_length()
    codes = [sum(c << (k * width) for k, c in enumerate(r.coeffs)) for r in positive_roots]
    index = {code: i for i, code in enumerate(codes)}
    addition: dict[tuple[int, int], int] = {}
    for a, ca in enumerate(codes):
        for b in range(a, len(codes)):
            s = index.get(ca + codes[b])
            if s is not None:
                addition[(a, b)] = s
                addition[(b, a)] = s
    return addition


def count_text(count: int, separator: str = ",") -> str:
    """``count`` in digits grouped by ``separator``, or at the cap ``at least 2^COUNT_BITS``."""
    return f"at least 2^{COUNT_BITS}" if count >= 1 << COUNT_BITS else f"{count:{separator}}"


def check_size_gate(spec: RootSystemSpec, allow_large: bool) -> int:
    """The positive-root count of ``spec``, which must pass the size gate.

    Systems with more than ``DEFAULT_MAX_POSITIVE_ROOTS`` positive roots, as
    well as E7 and E8, raise ``ValueError`` unless ``allow_large`` is set;
    chain enumeration over them is astronomically large and the gate keeps
    misuse loud.
    """
    count = classical_positive_root_count(spec.family, spec.rank)
    if not allow_large:
        if count > DEFAULT_MAX_POSITIVE_ROOTS or (spec.family == "E" and spec.rank >= 7):
            raise ValueError(
                f"{spec} has {count_text(count, '')} positive roots, above the default gate; "
                "pass allow_large=True (CLI: --allow-large) to build it anyway"
            )
    return count


def build_root_system(spec: RootSystemSpec, *, allow_large: bool = False) -> RootSystem:
    """Generate the positive root system of ``spec``, past ``check_size_gate``.

    Construction itself is cheap for every supported type.
    """
    count = check_size_gate(spec, allow_large)
    cartan = cartan_matrix(spec)
    positive_roots, steps = _generate(cartan)
    if len(positive_roots) != count:
        raise AssertionError(
            f"generated {len(positive_roots)} positive roots for {spec}, expected {count}"
        )
    return RootSystem(spec, cartan, positive_roots, steps)


def _generate(
    cartan: tuple[tuple[int, ...], ...]
) -> tuple[tuple[Root, ...], dict[tuple[int, int], int]]:
    """The positive roots in canonical order, and their simple-step table.

    ``roots`` grows while it is read, one height after another.  ``ups[b]``
    lists the steps ``(i, s)`` with ``roots[s] = roots[b] + alpha_i``, and
    ``strings[s * rank + i - 1]`` is the length of the descending
    ``alpha_i``-string from ``roots[s]``: one longer than from ``roots[b]``.
    Every step into a root comes from the height below it, so its strings
    are complete when it is read.  The generation-time tables die on
    return, before the system builds its own.
    """
    rank = len(cartan)
    # A Cartan row has at most four nonzero entries, so each pairing reads
    # only those, not all ``rank`` coordinates.
    nonzero = [[(k, a) for k, a in enumerate(row) if a] for row in cartan]
    roots = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    where = {c: k for k, c in enumerate(roots)}
    ups: list[list[tuple[int, int]]] = []
    strings: dict[int, int] = {}
    for b, c in enumerate(roots):
        here = []
        for i in range(rank):
            p = strings.get(b * rank + i, 0)
            if p - sum([c[k] * a for k, a in nonzero[i]]) >= 1:
                up = c[:i] + (c[i] + 1,) + c[i + 1 :]
                s = where.setdefault(up, len(roots))
                if s == len(roots):
                    roots.append(up)
                here.append((i + 1, s))
                strings[s * rank + i] = p + 1
        ups.append(here)
    order = sorted(range(len(roots)), key=lambda k: (sum(roots[k]), roots[k]))
    canon = [0] * len(roots)
    for new, old in enumerate(order):
        canon[old] = new
    steps = {(new, i): canon[s] for new, old in enumerate(order) for i, s in ups[old]}
    return tuple(Root(roots[k], sum(roots[k])) for k in order), steps
