import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilchain import (
    Ideal,
    IdealLattice,
    RootSystemSpec,
    build_root_system,
    derived_ideal,
    enumerate_ideals,
    full_parabolic_type,
    ideal_lattice,
    is_abelian,
    is_radical_member,
    nilradical_of_parabolic,
    normalizer_type,
    sum_ideals,
)
from nilchain.sums import _cr_cp_failure

from conftest import ACCEPTANCE_SYSTEMS, system
from oracles import (
    derived_by_vectors,
    nilradical_by_vectors,
    normalizer_by_vectors,
    radical_by_vectors,
    upper_closed_subsets_by_filter,
    upper_sets_by_antichains,
)

# Ideal counts frozen from the subset-filter oracle; they also agree with the
# generalized Catalan numbers of the corresponding Weyl groups.
IDEAL_COUNTS = {
    ("A", 2): 5,
    ("A", 3): 14,
    ("A", 4): 42,
    ("B", 2): 6,
    ("B", 3): 20,
    ("C", 3): 20,
    ("G", 2): 8,
    ("D", 4): 50,
}

# Generalized Catalan numbers prod (h + e_i + 1) / (e_i + 1) of the Weyl
# groups (Cellini-Papi), frozen here past the reach of the subset filter.
CATALAN_COUNTS = {
    ("A", 5): 132,
    ("A", 6): 429,
    ("A", 7): 1430,
    ("B", 5): 252,
    ("C", 5): 252,
    ("D", 5): 182,
    ("D", 6): 672,
    ("F", 4): 105,
    ("E", 6): 833,
    ("E", 7): 4160,
    ("E", 8): 25080,
}


def ideal_of(rs, *coeff_vectors):
    return Ideal(rs, [rs.index_of(c) for c in coeff_vectors])


def root_vectors(rs):
    return [r.coeffs for r in rs.positive_roots]


def members_of(n):
    return [r for r in range(n.rs.num_positive_roots) if (n.mask >> r) & 1]


def mask_of(indices):
    return sum(1 << r for r in indices)


def simple_subsets(rank):
    """Every subset of {1..rank}, with its bitmask over simple positions."""
    for bits in range(1 << rank):
        yield bits, frozenset(i + 1 for i in range(rank) if (bits >> i) & 1)


def as_vector_sets(ideals):
    return {frozenset(n.rs.positive_roots[i].coeffs for i in n.root_indices()) for n in ideals}


@pytest.mark.parametrize("family,rank", sorted(IDEAL_COUNTS))
def test_ideal_count_matches_frozen_oracle_value(family, rank):
    assert len(enumerate_ideals(system(family, rank))) == IDEAL_COUNTS[(family, rank)]


@pytest.mark.parametrize("family,rank", sorted(IDEAL_COUNTS))
def test_ideals_match_subset_filter_oracle(family, rank):
    rs = system(family, rank)
    expected = upper_closed_subsets_by_filter([r.coeffs for r in rs.positive_roots])
    assert as_vector_sets(enumerate_ideals(rs)) == expected


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 4), ("C", 4), ("D", 4)])
def test_rank4_antichain_cross_implementation(family, rank):
    rs = system(family, rank)
    expected = upper_sets_by_antichains([r.coeffs for r in rs.positive_roots])
    assert as_vector_sets(enumerate_ideals(rs)) == expected


@pytest.mark.parametrize("family,rank", ACCEPTANCE_SYSTEMS + [("A", 4)])
def test_abelian_ideal_count_is_two_to_the_rank(family, rank):
    rs = system(family, rank)
    assert sum(1 for n in enumerate_ideals(rs) if is_abelian(n)) == 2**rank


@pytest.mark.parametrize("family,rank", sorted(CATALAN_COUNTS))
def test_lattice_counts_match_catalan_and_two_to_the_rank(family, rank):
    # Nonzero abelian ideals and nonzero radical members (nilradicals of the
    # 2^rank - 1 proper parabolics) both number 2^rank - 1.
    lat = IdealLattice(build_root_system(RootSystemSpec(family, rank), allow_large=True))
    assert len(lat) == CATALAN_COUNTS[(family, rank)]
    assert len(lat.abelian_ids) == 2**rank - 1
    assert len(lat.radical_ids) == 2**rank - 1
    # Past the chain guard, where ``verify`` stops, the CR/CP check still runs.
    assert _cr_cp_failure(lat) == ""


def test_enumeration_and_lattice_leave_no_reference_cycles():
    rs = system("E", 6)
    gc.collect()
    gc.disable()
    try:
        enumerate_ideals(rs)
        IdealLattice(rs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumeration_order_is_canonical(a2):
    ideals = enumerate_ideals(a2)
    keys = [(len(n), n.mask) for n in ideals]
    assert keys == sorted(keys)
    assert ideals[0].is_zero
    assert len(ideals[-1]) == a2.num_positive_roots


def test_is_abelian_examples(a2):
    theta = ideal_of(a2, (1, 1))
    assert is_abelian(theta)
    assert not is_abelian(ideal_of(a2, (1, 0), (0, 1), (1, 1)))
    abelians = [n for n in enumerate_ideals(a2) if is_abelian(n)]
    assert as_vector_sets(abelians) == {
        frozenset(),
        frozenset({(1, 1)}),
        frozenset({(1, 0), (1, 1)}),
        frozenset({(0, 1), (1, 1)}),
    }


def test_derived_ideal_examples(a2, b2):
    full_a2 = ideal_of(a2, (1, 0), (0, 1), (1, 1))
    assert derived_ideal(full_a2) == ideal_of(a2, (1, 1))
    full_b2 = ideal_of(b2, (1, 0), (0, 1), (1, 1), (1, 2))
    assert derived_ideal(full_b2) == ideal_of(b2, (1, 1), (1, 2))
    for n in enumerate_ideals(a2):
        if is_abelian(n):
            assert derived_ideal(n).is_zero


def test_derived_ideal_is_contained_and_detects_abelian():
    for family, rank in ACCEPTANCE_SYSTEMS:
        for n in enumerate_ideals(system(family, rank)):
            d = derived_ideal(n)
            assert d <= n
            assert d.is_zero == is_abelian(n)


def test_sum_ideals(a2):
    zero = Ideal(a2)
    n1 = ideal_of(a2, (1, 0), (1, 1))
    n2 = ideal_of(a2, (0, 1), (1, 1))
    assert sum_ideals(n1, zero) == n1
    assert sum_ideals(n1, n2) == ideal_of(a2, (1, 0), (0, 1), (1, 1))
    theta = ideal_of(a2, (1, 1))
    assert sum_ideals(theta, derived_ideal(ideal_of(a2, (1, 0), (0, 1), (1, 1)))) == theta


def test_sum_ideals_rejects_mixed_systems(a2, b2):
    with pytest.raises(ValueError, match="different root systems"):
        sum_ideals(Ideal(a2), Ideal(b2))


def test_normalizer_type_examples(a2):
    assert normalizer_type(ideal_of(a2, (1, 1))) == frozenset()
    assert normalizer_type(ideal_of(a2, (0, 1), (1, 1))) == frozenset({1})
    assert normalizer_type(ideal_of(a2, (1, 0), (0, 1), (1, 1))) == frozenset()
    assert normalizer_type(Ideal(a2)) == frozenset({1, 2})


def test_nilradical_examples(a2):
    assert nilradical_of_parabolic(a2, frozenset()) == ideal_of(a2, (1, 0), (0, 1), (1, 1))
    assert nilradical_of_parabolic(a2, frozenset({1})) == ideal_of(a2, (0, 1), (1, 1))
    assert nilradical_of_parabolic(a2, frozenset({1, 2})).is_zero
    with pytest.raises(ValueError, match="1..2"):
        nilradical_of_parabolic(a2, frozenset({3}))


def test_is_radical_member_examples(a2):
    assert not is_radical_member(ideal_of(a2, (1, 1)))
    assert is_radical_member(ideal_of(a2, (0, 1), (1, 1)))
    assert is_radical_member(ideal_of(a2, (1, 0), (0, 1), (1, 1)))


def test_closure_under_simple_steps_equals_closure_under_any_root():
    # Exhaustive at rank <= 3: every enumerated ideal is closed under adding
    # arbitrary positive roots, not just simple ones.
    for family, rank in [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]:
        rs = system(family, rank)
        for n in enumerate_ideals(rs):
            for a in n:
                for b in range(rs.num_positive_roots):
                    s = rs.add_roots(a, b)
                    assert s is None or s in n


def test_ideal_below_radical_closure():
    for family, rank in ACCEPTANCE_SYSTEMS:
        rs = system(family, rank)
        for n in enumerate_ideals(rs):
            assert n <= nilradical_of_parabolic(rs, normalizer_type(n))


def test_parabolic_roundtrip():
    # Parabolics are self-normalizing: type -> nilradical -> type is the identity.
    from itertools import combinations

    for family, rank in ACCEPTANCE_SYSTEMS:
        rs = system(family, rank)
        for size in range(rank + 1):
            for subset in combinations(range(1, rank + 1), size):
                j = frozenset(subset)
                assert normalizer_type(nilradical_of_parabolic(rs, j)) == j


def test_nilradical_is_antitone(g2):
    full = full_parabolic_type(g2)
    subsets = [frozenset(), frozenset({1}), frozenset({2}), full]
    for a in subsets:
        for b in subsets:
            if a <= b:
                assert nilradical_of_parabolic(g2, b) <= nilradical_of_parabolic(g2, a)


def test_constructor_rejects_non_ideals(a2):
    with pytest.raises(ValueError, match="not upper-closed"):
        Ideal(a2, [a2.index_of((1, 0))])
    with pytest.raises(IndexError):
        Ideal(a2, [17])


def test_ideal_value_semantics(a2):
    n1 = ideal_of(a2, (1, 1))
    n2 = ideal_of(a2, (1, 1))
    assert n1 == n2 and hash(n1) == hash(n2)
    assert str(n1) == "{2}"
    assert n1 < ideal_of(a2, (1, 0), (1, 1))


@st.composite
def seed_subsets(draw):
    family, rank = draw(st.sampled_from([("A", 3), ("B", 3), ("G", 2), ("D", 4)]))
    rs = system(family, rank)
    seeds = draw(st.sets(st.integers(0, rs.num_positive_roots - 1), max_size=4))
    return rs, seeds


@given(seed_subsets())
@settings(max_examples=60, deadline=None)
def test_upward_closure_of_any_seed_is_an_enumerated_ideal(case):
    rs, seeds = case
    mask = 0
    frontier = list(seeds)
    while frontier:
        r = frontier.pop()
        if (mask >> r) & 1:
            continue
        mask |= 1 << r
        for i in range(1, rs.rank + 1):
            up = rs.simple_step_table.get((r, i))
            if up is not None:
                frontier.append(up)
    closed = Ideal.from_mask(rs, mask)  # constructor validates closure
    assert closed in enumerate_ideals(rs)


@pytest.mark.parametrize(
    "family,rank", ACCEPTANCE_SYSTEMS + [("A", 4), ("F", 4), ("B", 5), ("E", 6)]
)
def test_lattice_tables_match_object_predicates(family, rank):
    # The object predicates are lookups into these tables, so the tables are
    # checked against the vector references in oracles.py instead.
    rs = system(family, rank)
    lat = ideal_lattice(rs)
    roots = root_vectors(rs)
    ideals = enumerate_ideals(rs)
    assert lat.masks == tuple(n.mask for n in ideals)
    for bits, subset in simple_subsets(rank):
        assert lat.masks[lat.nil_id[bits]] == mask_of(nilradical_by_vectors(roots, subset))
    for i, n in enumerate(ideals):
        assert lat.containers[i] == sum(
            1 << j for j, m in enumerate(ideals) if n.mask | m.mask == m.mask
        )
        members = members_of(n)
        derived = derived_by_vectors(roots, members)
        norm = normalizer_by_vectors(roots, members)
        assert lat.abelian[i] == (not derived)
        assert lat.radical[i] == radical_by_vectors(roots, members)
        assert lat.masks[lat.derived[i]] == mask_of(derived)
        assert lat.masks[lat.radical_closure[i]] == mask_of(nilradical_by_vectors(roots, norm))
        assert lat.normalizer_bits[i] == sum(1 << (j - 1) for j in norm)


@pytest.mark.parametrize("family,rank", ACCEPTANCE_SYSTEMS + [("A", 4)])
def test_public_predicates_match_vector_oracles(family, rank):
    rs = system(family, rank)
    roots = root_vectors(rs)
    for n in enumerate_ideals(rs):
        members = members_of(n)
        derived = derived_by_vectors(roots, members)
        assert is_abelian(n) == (not derived)
        assert derived_ideal(n) == Ideal.from_mask(rs, mask_of(derived))
        assert normalizer_type(n) == normalizer_by_vectors(roots, members)
        assert is_radical_member(n) == radical_by_vectors(roots, members)
    for _, subset in simple_subsets(rank):
        expected = Ideal.from_mask(rs, mask_of(nilradical_by_vectors(roots, subset)))
        assert nilradical_of_parabolic(rs, subset) == expected
