import copy
import pickle
import tracemalloc

import pytest

from nilchain import (
    Root,
    RootSystemSpec,
    build_root_system,
    cartan_matrix,
    classical_positive_root_count,
)
from nilchain.root_system import SizeLimitExceeded

from conftest import system
from oracles import (
    classical_root_count,
    positive_roots_by_realization,
    simple_steps_by_slicing,
)

RANK_LE_4 = [
    ("A", 1),
    ("A", 2),
    ("A", 3),
    ("A", 4),
    ("B", 2),
    ("B", 3),
    ("B", 4),
    ("C", 3),
    ("C", 4),
    ("D", 4),
    ("F", 4),
    ("G", 2),
]


def coeff_set(rs):
    return {r.coeffs for r in rs.positive_roots}


def test_a2_positive_roots():
    assert coeff_set(system("A", 2)) == {(1, 0), (0, 1), (1, 1)}


def test_b2_positive_roots():
    # Frozen from the Euclidean-realization oracle: short simple root last.
    assert coeff_set(system("B", 2)) == {(1, 0), (0, 1), (1, 1), (1, 2)}


def test_g2_positive_roots():
    # Frozen from the oracle: alpha_1 short, highest root (3, 2).
    rs = system("G", 2)
    assert coeff_set(rs) == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}
    assert rs.positive_roots[-1].coeffs == (3, 2)


@pytest.mark.parametrize("family,rank", RANK_LE_4)
def test_oracle_equivalence(family, rank):
    assert coeff_set(system(family, rank)) == positive_roots_by_realization(family, rank)


# Every type the generated tables are checked on against the references.
TABLE_TYPES = (
    [("A", n) for n in range(1, 31)]
    + [("B", n) for n in range(2, 21)]
    + [("C", n) for n in range(3, 21)]
    + [("D", n) for n in range(4, 21)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("family,rank", TABLE_TYPES)
def test_classical_counts(family, rank):
    rs = build_root_system(RootSystemSpec(family, rank), allow_large=True)
    count = classical_root_count(family, rank)
    assert rs.num_positive_roots == classical_positive_root_count(family, rank) == count


def test_root_table_budget_of_a_huge_rank_builds_nothing_large():
    # The root count is a closed form, so the root-table budget reads a
    # rank of 10^12 without a tuple of its exponents.
    rank = 10**12
    tracemalloc.start()
    try:
        for family in "ABCD":
            count = classical_root_count(family, rank)
            assert classical_positive_root_count(family, rank) == count
            message = f"the root table of {family}{rank} holds {count * rank:,} coefficients, over its budget"
            with pytest.raises(SizeLimitExceeded, match=message):
                build_root_system(RootSystemSpec(family, rank))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


@pytest.mark.parametrize("family,rank", TABLE_TYPES)
def test_tables_match_the_coefficient_slices(family, rank):
    # Generation records each simple step as it finds it; the reference
    # reads every step off the coefficient vectors instead.
    rs = build_root_system(RootSystemSpec(family, rank), allow_large=True)
    vectors = [r.coeffs for r in rs.positive_roots]
    keys = [(r.height, r.coeffs) for r in rs.positive_roots]
    assert keys == sorted(keys) and all(h == sum(c) for h, c in keys)
    steps, ups = simple_steps_by_slicing(vectors)
    assert list(rs.simple_step_table.items()) == list(steps.items())
    assert rs.up_masks == ups
    units = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    assert [rs.simple_root_index(i + 1) for i in range(rank)] == list(map(vectors.index, units))


def test_canonical_order_is_by_height_then_lex():
    rs = system("B", 3)
    keys = [(r.height, r.coeffs) for r in rs.positive_roots]
    assert keys == sorted(keys)


def test_rebuild_is_identical():
    a = build_root_system(RootSystemSpec("D", 4))
    b = build_root_system(RootSystemSpec("D", 4))
    assert [r.coeffs for r in a.positive_roots] == [r.coeffs for r in b.positive_roots]
    assert a.addition_table == b.addition_table


def test_addition_examples_a2():
    rs = system("A", 2)
    a1, a2 = rs.index_of((1, 0)), rs.index_of((0, 1))
    theta = rs.index_of((1, 1))
    assert rs.add_roots(a1, a2) == theta
    assert rs.add_roots(theta, a1) is None


def test_addition_example_g2():
    rs = system("G", 2)
    assert rs.add_roots(rs.index_of((1, 0)), rs.index_of((1, 1))) == rs.index_of((2, 1))


def test_addition_table_symmetric():
    for family, rank in [("A", 3), ("B", 3), ("G", 2)]:
        rs = system(family, rank)
        for (a, b), s in rs.addition_table.items():
            assert rs.addition_table[(b, a)] == s


def test_subtract_simple_examples():
    a2 = system("A", 2)
    assert a2.subtract_simple(a2.index_of((1, 1)), 1) == a2.index_of((0, 1))
    assert a2.subtract_simple(a2.index_of((0, 1)), 1) is None
    b2 = system("B", 2)
    assert b2.subtract_simple(b2.index_of((1, 2)), 2) == b2.index_of((1, 1))


def test_simple_steps_raise_height_by_one():
    for family, rank in [("A", 4), ("C", 3), ("F", 4)]:
        rs = system(family, rank)
        for (b, _i), s in rs.simple_step_table.items():
            assert rs.positive_roots[s].height == rs.positive_roots[b].height + 1


def test_root_poset_graded_connectivity():
    # Every non-simple positive root steps down to another positive root.
    for family, rank in RANK_LE_4:
        rs = system(family, rank)
        for b, root in enumerate(rs.positive_roots):
            if root.height == 1:
                continue
            assert any(
                rs.subtract_simple(b, i) is not None for i in range(1, rank + 1)
            ), f"{family}{rank}: root {root} has no simple step down"


@pytest.mark.parametrize(
    "family,rank",
    [("Z", 9), ("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 4)],
)
def test_invalid_specs_rejected(family, rank):
    with pytest.raises(ValueError):
        RootSystemSpec(family, rank)


def test_error_messages_name_the_offender():
    with pytest.raises(ValueError, match="Z"):
        RootSystemSpec("Z", 2)
    with pytest.raises(ValueError, match="rank"):
        RootSystemSpec("D", 2)


def test_spec_and_root_records():
    # A spec is a frozen record equal only to specs; a root is a named tuple.
    spec = RootSystemSpec("B", 3)
    assert spec == RootSystemSpec("B", 3) and hash(spec) == hash(RootSystemSpec("B", 3))
    assert spec != RootSystemSpec("C", 3) and spec != ("B", 3)
    assert (spec.family, spec.rank, str(spec)) == ("B", 3, "B3")
    assert repr(spec) == "RootSystemSpec(family='B', rank=3)"
    for name in ("family", "rank", "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(spec, name, 4)
    with pytest.raises(AttributeError, match="cannot delete field 'rank'"):
        del spec.rank
    assert copy.copy(spec) == pickle.loads(pickle.dumps(spec)) == spec
    for family, rank, message in [
        ("Z", 2, "unknown family 'Z'; expected one of ABCDEFG"),
        ("D", 2, "invalid rank 2 for family D: rank must be >= 4"),
        ("E", 9, "invalid rank 9 for family E: rank must be in 6..8"),
        ("G", 3, "invalid rank 3 for family G: rank must be = 2"),
        ("A", 2.0, "invalid rank 2.0 for family A: rank must be >= 1"),
        ("A", True, "invalid rank True for family A: rank must be >= 1"),
    ]:
        with pytest.raises(ValueError) as exc:
            RootSystemSpec(family, rank)
        assert str(exc.value) == message
    root = system("A", 2).positive_roots[2]
    assert root == Root(coeffs=(1, 1), height=2) and hash(root) == hash(Root((1, 1), 2))
    assert (root.coeffs, root.height, str(root)) == ((1, 1), 2, "(1,1)")
    assert repr(root) == "Root(coeffs=(1, 1), height=2)"
    with pytest.raises(AttributeError):
        root.height = 3


def test_e8_builds_when_allowed():
    rs = build_root_system(RootSystemSpec("E", 8), allow_large=True)
    assert rs.num_positive_roots == 120
    assert rs.positive_roots[-1].height == 29


def test_allow_large_changes_nothing():
    # The keyword is accepted and does nothing: E8 builds without it, to the
    # same tables.  Systems compare equal by spec, so the tables are compared.
    rs = build_root_system(RootSystemSpec("E", 8))
    allowed = build_root_system(RootSystemSpec("E", 8), allow_large=True)
    assert rs == allowed
    assert (rs.positive_roots, rs.simple_step_table, rs.up_masks) == (
        allowed.positive_roots, allowed.simple_step_table, allowed.up_masks
    )


def test_index_errors():
    rs = system("A", 2)
    with pytest.raises(IndexError):
        rs.add_roots(0, 99)
    with pytest.raises(IndexError):
        rs.subtract_simple(0, 3)
    with pytest.raises(IndexError):
        rs.simple_root_index(0)


def test_cartan_conventions():
    b3 = cartan_matrix(RootSystemSpec("B", 3))
    assert b3[2][1] == -2 and b3[1][2] == -1
    c3 = cartan_matrix(RootSystemSpec("C", 3))
    assert c3[1][2] == -2 and c3[2][1] == -1
    g2 = cartan_matrix(RootSystemSpec("G", 2))
    assert g2[0][1] == -3 and g2[1][0] == -1
