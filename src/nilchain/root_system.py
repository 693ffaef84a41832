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
``b, b - a, b - 2a, ...`` inside the root system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

# Systems larger than this are rejected unless explicitly allowed; chain
# enumeration above this size is out of reach anyway.
DEFAULT_MAX_POSITIVE_ROOTS = 64

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def classical_positive_root_count(family: str, rank: int) -> int:
    """Number of positive roots of the given type, by the classical formulas."""
    if family == "A":
        return rank * (rank + 1) // 2
    if family in ("B", "C"):
        return rank * rank
    if family == "D":
        return rank * (rank - 1)
    if family == "E":
        return {6: 36, 7: 63, 8: 120}[rank]
    if family == "F":
        return 24
    return 6  # G2


_EXCEPTIONAL_EXPONENTS = {
    ("E", 6): (1, 4, 5, 7, 8, 11),
    ("E", 7): (1, 5, 7, 9, 11, 13, 17),
    ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
    ("F", 4): (1, 5, 7, 11),
    ("G", 2): (1, 5),
}


def exponents(family: str, rank: int) -> tuple[int, ...]:
    """Exponents of the given type, ascending; the Coxeter number is the largest plus one."""
    if family == "A":
        return tuple(range(1, rank + 1))
    if family in ("B", "C"):
        return tuple(range(1, 2 * rank, 2))
    if family == "D":
        return tuple(sorted([*range(1, 2 * rank - 2, 2), rank - 1]))
    return _EXCEPTIONAL_EXPONENTS[(family, rank)]


@dataclass(frozen=True)
class RootSystemSpec:
    """A simple-type selector: family letter plus rank.

    Invalid family/rank combinations are rejected here, so every spec that
    exists is buildable (subject to the size gate in ``build_root_system``).
    """

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _RANK_RANGE:
            raise ValueError(f"unknown family {self.family!r}; expected one of {''.join(FAMILIES)}")
        lo, hi = _RANK_RANGE[self.family]
        if not isinstance(self.rank, int) or self.rank < lo or (hi is not None and self.rank > hi):
            bound = f">= {lo}" if hi is None else (f"= {lo}" if lo == hi else f"in {lo}..{hi}")
            raise ValueError(f"invalid rank {self.rank} for family {self.family}: rank must be {bound}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class Root:
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
    ``addition_table`` maps pairs of root indices to the index of their sum
    whenever that sum is again a root; ``simple_step_table`` maps
    ``(root index, simple index)`` to the index of ``root + alpha_i``.
    Simple indices are 1-based throughout the public API.
    """

    __slots__ = (
        "spec",
        "cartan",
        "positive_roots",
        "addition_table",
        "simple_step_table",
        "_index",
        "_simple_root_indices",
    )

    def __init__(
        self,
        spec: RootSystemSpec,
        cartan: tuple[tuple[int, ...], ...],
        positive_roots: tuple[Root, ...],
    ) -> None:
        self.spec = spec
        self.cartan = cartan
        self.positive_roots = positive_roots
        self._index = {r.coeffs: i for i, r in enumerate(positive_roots)}
        self._simple_root_indices = tuple(
            self._index[tuple(1 if j == i else 0 for j in range(spec.rank))]
            for i in range(spec.rank)
        )
        addition: dict[tuple[int, int], int] = {}
        for a in range(len(positive_roots)):
            ca = positive_roots[a].coeffs
            for b in range(a, len(positive_roots)):
                cb = positive_roots[b].coeffs
                s = self._index.get(tuple(x + y for x, y in zip(ca, cb)))
                if s is not None:
                    addition[(a, b)] = s
                    addition[(b, a)] = s
        self.addition_table = addition
        steps: dict[tuple[int, int], int] = {}
        for b, root in enumerate(positive_roots):
            for i in range(spec.rank):
                s = addition.get((b, self._simple_root_indices[i]))
                if s is not None:
                    steps[(b, i + 1)] = s
        self.simple_step_table = steps

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


def build_root_system(spec: RootSystemSpec, *, allow_large: bool = False) -> RootSystem:
    """Generate the positive root system of ``spec``.

    Systems with more than ``DEFAULT_MAX_POSITIVE_ROOTS`` positive roots, as
    well as E7 and E8, are rejected unless ``allow_large`` is set; chain
    enumeration over them is astronomically large and the gate keeps misuse
    loud.  Construction itself is cheap for every supported type.
    """
    count = classical_positive_root_count(spec.family, spec.rank)
    if not allow_large:
        if count > DEFAULT_MAX_POSITIVE_ROOTS or (spec.family == "E" and spec.rank >= 7):
            raise ValueError(
                f"{spec} has {count} positive roots, above the default gate; "
                "pass allow_large=True (CLI: --allow-large) to build it anyway"
            )
    cartan = cartan_matrix(spec)
    rank = spec.rank
    roots: set[tuple[int, ...]] = set()
    frontier: list[tuple[int, ...]] = []
    for i in range(rank):
        v = tuple(1 if j == i else 0 for j in range(rank))
        roots.add(v)
        frontier.append(v)
    while frontier:
        fresh: list[tuple[int, ...]] = []
        for b in frontier:
            for i in range(rank):
                down = list(b)
                p = 0
                while True:
                    down[i] -= 1
                    if down[i] < 0 or tuple(down) not in roots:
                        break
                    p += 1
                pairing = sum(b[k] * cartan[i][k] for k in range(rank))
                if p - pairing >= 1:
                    up = b[:i] + (b[i] + 1,) + b[i + 1 :]
                    if up not in roots:
                        roots.add(up)
                        fresh.append(up)
        frontier = fresh
    ordered = sorted(roots, key=lambda c: (sum(c), c))
    if len(ordered) != count:
        raise AssertionError(
            f"generated {len(ordered)} positive roots for {spec}, expected {count}"
        )
    return RootSystem(spec, cartan, tuple(Root(c, sum(c)) for c in ordered))
