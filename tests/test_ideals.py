import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilchain import (
    Ideal,
    IdealLattice,
    RootSystemSpec,
    SizeLimitExceeded,
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
from nilchain import chains, cli, ideals, root_system
from nilchain.chains import (
    ComplexKind,
    _successor_pairs,
    check_successor_budget,
    complex_family,
)
from nilchain.ideals import COUNT_BITS, check_ideal_budget, ideal_count
from nilchain.root_system import RootSystem, iter_exponents
from nilchain.sums import _cr_cp_failure

from conftest import ACCEPTANCE_SYSTEMS, system
from oracles import (
    derived_and_normalizers_by_covers,
    derived_by_vectors,
    ideal_masks_by_sorting,
    nilradical_by_vectors,
    nilradical_ids_by_supports,
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
    assert len(lat) == CATALAN_COUNTS[(family, rank)] == ideal_count(lat.rs)
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


# Types whose lattice tables are checked against the package's former builds.
REFERENCE_TYPES = (
    [("A", r) for r in range(1, 10)] + [("B", r) for r in range(2, 7)] + [("C", r) for r in range(3, 7)]
    + [("D", r) for r in range(4, 8)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def test_enumeration_order_is_canonical(monkeypatch):
    # The layered build makes each ideal's children in canonical order; the
    # reference generates every mask root by root and sorts the list.
    monkeypatch.setattr(ideals, "_LATTICE_CACHE", {})
    for family, rank in REFERENCE_TYPES:
        rs = build_root_system(RootSystemSpec(family, rank), allow_large=True)
        found = enumerate_ideals(rs)
        keys = [(len(n), n.mask) for n in found]
        assert keys == sorted(keys), (family, rank)
        assert found[0].is_zero
        assert len(found[-1]) == rs.num_positive_roots
        assert tuple(n.mask for n in found) == ideal_masks_by_sorting(rs), (family, rank)


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


@pytest.mark.parametrize(
    "family,rank,coeff_vectors,message",
    [
        ("G", 2, [(1, 0), (0, 1)], "contains root 0 but not root 2 (= root 0 + alpha_1)"),
        ("G", 2, [(3, 1)], "contains root 4 but not root 5 (= root 4 + alpha_2)"),
        ("G", 2, [(2, 1), (1, 1), (3, 2)], "contains root 3 but not root 4 (= root 3 + alpha_1)"),
        ("B", 3, [(0, 1, 0)], "contains root 1 but not root 4 (= root 1 + alpha_1)"),
        ("B", 3, [(1, 1, 0), (0, 1, 1), (1, 2, 2)], "contains root 3 but not root 6 (= root 3 + alpha_1)"),
        ("B", 3, [(0, 0, 1), (1, 1, 1), (0, 1, 2), (1, 1, 2), (1, 2, 2)],
         "contains root 0 but not root 3 (= root 0 + alpha_2)"),
    ],
)
def test_non_ideals_name_the_first_failing_root_and_step(family, rank, coeff_vectors, message):
    # The first member (by index) with an upward step outside the set, and
    # its first such simple index.
    rs = system(family, rank)
    members = [rs.index_of(c) for c in coeff_vectors]
    expected = f"root set is not upper-closed: {message}"
    with pytest.raises(ValueError) as exc:
        Ideal(rs, members)
    assert str(exc.value) == expected
    with pytest.raises(ValueError) as exc:
        Ideal.from_mask(rs, mask_of(members))
    assert str(exc.value) == expected


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
    # Successor lists against strict inclusion of root-vector sets.
    vectors = [frozenset(roots[r] for r in members_of(n)) for n in ideals]
    for kind in (ComplexKind.CI, ComplexKind.CA, ComplexKind.CR):
        ids, succ, _ = complex_family(rs, kind)
        for i in ids:
            assert succ[i] == tuple(j for j in ids if vectors[i] < vectors[j]), (kind, i)
    for i in range(len(ideals)):
        check_tables_by_vectors(lat, roots, i)


@pytest.mark.parametrize("family,rank", [("E", 7), ("E", 8), ("D", 10), ("A", 11)])
def test_lattice_tables_match_vector_oracles_on_a_stride_sample(family, rank):
    # About 100 ideals by a fixed stride, the full nilradical included, of
    # E7, E8 and the largest lattices the budget admits, D10 and A11 (the
    # most escape-count lanes).  The derived contributions are shared
    # between many ideals.
    lat = IdealLattice(build_root_system(RootSystemSpec(family, rank), allow_large=True))
    roots = root_vectors(lat.rs)
    sample = [*range(0, len(lat), len(lat) // 100), len(lat) - 1]
    assert lat.masks[sample[-1]] == (1 << lat.rs.num_positive_roots) - 1
    for i in sample:
        check_tables_by_vectors(lat, roots, i)


@pytest.mark.parametrize("family,rank", REFERENCE_TYPES)
def test_layered_build_matches_the_all_ideals_recursion(family, rank):
    # The layered build keeps two size layers; the reference keeps every
    # ideal's derived mask and escape int, and scans supports for nilradicals.
    lat = IdealLattice(build_root_system(RootSystemSpec(family, rank), allow_large=True))
    derived, bits = derived_and_normalizers_by_covers(lat.rs, lat.masks, lat.index)
    nil_id = nilradical_ids_by_supports(lat.rs, lat.index)
    closure = tuple(nil_id[b] for b in bits)
    assert lat.index == {mk: i for i, mk in enumerate(lat.masks)}
    assert lat.derived == derived
    assert lat.normalizer_bits == bits
    assert lat.nil_id == tuple(nil_id)
    assert lat.radical_closure == closure
    assert lat.abelian == tuple(d == 0 for d in derived)
    assert lat.radical == tuple(c == i for i, c in enumerate(closure))
    assert lat.abelian_ids == tuple(i for i in range(1, len(lat)) if derived[i] == 0)
    assert lat.radical_ids == tuple(i for i in range(1, len(lat)) if closure[i] == i)


@pytest.mark.parametrize("family,rank", [("E", 8), ("A", 9), ("D", 7)])
def test_lattice_build_peaks_near_its_kept_size(family, rank):
    # Only two size layers of per-ideal working state are alive at once, so
    # the traced peak of a build stays within 10% of what the lattice keeps.
    # Allocation counts are deterministic, so this is no timing test.
    rs = build_root_system(RootSystemSpec(family, rank), allow_large=True)
    tracemalloc.start()
    try:
        lat = IdealLattice(rs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lat) == ideal_count(rs)
    assert peak <= 1.1 * kept, (peak, kept)


def check_tables_by_vectors(lat, roots, i):
    members = members_of(lat.ideal(i))
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


@pytest.mark.parametrize(
    "family,ranks",
    [("A", range(1, 13)), ("B", range(2, 9)), ("C", range(3, 9)), ("D", range(4, 9)),
     ("E", range(6, 9)), ("F", [4]), ("G", [2])],
)
def test_exponents_are_the_dual_partition_of_root_heights(family, ranks):
    # Kostant: as many exponents are >= k as there are positive roots of
    # height k.  This checks the exponent table that ``ideal_count`` reads.
    for rank in ranks:
        rs = build_root_system(RootSystemSpec(family, rank), allow_large=True)
        heights = [r.height for r in rs.positive_roots]
        exps = tuple(iter_exponents(family, rank))
        assert len(exps) == rank
        for k in range(1, max(heights) + 2):
            assert sum(e >= k for e in exps) == heights.count(k), (family, rank, k)


# Ideal counts in closed form: Catalan numbers of A, B (and C) and D.
CATALAN = {
    "A": lambda n: math.comb(2 * n + 2, n + 1) // (n + 2),
    "B": lambda n: math.comb(2 * n, n),
    "C": lambda n: math.comb(2 * n, n),
    "D": lambda n: (3 * n - 2) * math.comb(2 * n - 2, n - 1) // n,
}


def test_ideal_count_stops_at_the_cap(digit_limits):
    # Every factor is over 1, so once a partial product is past the cap
    # ``2^COUNT_BITS`` the product stops and returns the cap.  Below it the
    # count is exact: the last such types are A1030, B1026, C1026 and D1027.
    cap = 1 << COUNT_BITS
    for family, catalan in CATALAN.items():
        counts = [catalan(rank) for rank in range(1020, 1040)]
        assert min(counts) < cap < max(counts), family
        for rank, count in zip(range(1020, 1040), counts):
            assert ideal_count(RootSystemSpec(family, rank)) == min(count, cap), (family, rank)
    # A refusal names a count below the cap in digits and one at it as at
    # least the cap, at every digit limit.
    for _ in digit_limits():
        for rank, shown in [
            (1030, f"{CATALAN['A'](1030):,}"),
            (1031, "at least 2^2048"),
            (3000, "at least 2^2048"),
            (10**5, "at least 2^2048"),
        ]:
            with pytest.raises(SizeLimitExceeded) as exc:
                check_ideal_budget(RootSystemSpec("A", rank))
            assert str(exc.value) == f"A{rank} has {shown} ideals, over the lattice budget of 250,000"


def test_size_budgets_refuse_before_construction(monkeypatch, capsys):
    # Any ideal enumeration fails loudly, and no lattice is cached: the
    # enumeration starts by reading the systems' upward steps.
    def built(*args):
        raise AssertionError("construction started")

    monkeypatch.setattr(RootSystem, "up_masks", property(built, lambda rs, value: None))
    monkeypatch.setattr(ideals, "_LATTICE_CACHE", {})
    systems = {
        (f, r): build_root_system(RootSystemSpec(f, r), allow_large=True)
        for f, r in [("A", 10), ("A", 11), ("A", 12), ("E", 8)]
    }
    counts = {spec: ideal_count(rs) for spec, rs in systems.items()}
    assert counts == {("A", 10): 58_786, ("A", 11): 208_012, ("A", 12): 742_900, ("E", 8): 25_080}
    # Lattice budget: A11 reaches construction, A12 is refused before it.
    with pytest.raises(AssertionError, match="construction started"):
        enumerate_ideals(systems["A", 11])
    for build in (enumerate_ideals, IdealLattice, ideal_lattice):
        with pytest.raises(SizeLimitExceeded, match="A12 has 742,900 ideals.*250,000"):
            build(systems["A", 12])
    assert RootSystemSpec("A", 12) not in ideals._LATTICE_CACHE
    code = cli.run(["ideals", "--type", "A", "--rank", "12", "--allow-large"], out=io.StringIO())
    assert code == 2
    assert "742,900 ideals, over the lattice budget of 250,000" in capsys.readouterr().err
    # Successor budget: each complex is refused on its pair count, before
    # any lattice, or reaches construction.
    systems.update(
        ((f, r), build_root_system(RootSystemSpec(f, r), allow_large=True))
        for f, r in [("E", 7), ("A", 8), ("D", 7), ("A", 7), ("A", 14)]
    )
    refused = [(spec, ComplexKind.CI) for spec in [("A", 11), ("A", 10), ("E", 8), ("E", 7), ("A", 8)]]
    for spec, kind in refused + [(("A", 14), ComplexKind.CP)]:
        with pytest.raises(SizeLimitExceeded, match=f"the {kind.name} successor table of {systems[spec].spec}"):
            complex_family(systems[spec], kind)
    reached = [(("D", 7), ComplexKind.CI), (("A", 7), ComplexKind.CI)]
    for spec, kind in reached + [(("A", 11), ComplexKind.CA), (("A", 11), ComplexKind.CR)]:
        with pytest.raises(AssertionError, match="construction started"):
            complex_family(systems[spec], kind)
    assert ideals._LATTICE_CACHE == {}


def test_successors_of_a_cached_lattice_are_refused_over_budget(monkeypatch):
    # The budget is exact on B3's pair counts, and checked whether or not
    # the lattice is cached.
    rs = system("B", 3)
    ideal_lattice(rs)
    for kind, pairs in [(ComplexKind.CI, 171), (ComplexKind.CA, 21), (ComplexKind.CR, 21), (ComplexKind.CP, 12)]:
        monkeypatch.setattr(chains, "MAX_SUCCESSOR_PAIRS", pairs)
        assert complex_family(rs, kind)[1]
        monkeypatch.setattr(chains, "MAX_SUCCESSOR_PAIRS", pairs - 1)
        message = f"the {kind.name} successor table of B3 considers {pairs} member pairs, over its budget of {pairs - 1}"
        with pytest.raises(SizeLimitExceeded, match=message):
            complex_family(rs, kind)


def test_successor_pairs_are_counted_from_the_type():
    for spec in ACCEPTANCE_SYSTEMS:
        rs = system(*spec)
        for kind in (ComplexKind.CI, ComplexKind.CA, ComplexKind.CR):
            n = len(complex_family(rs, kind)[0])
            assert _successor_pairs(rs, kind) == n * (n - 1) // 2, (spec, kind)
    for rank in range(1, 9):
        rs = build_root_system(RootSystemSpec("A", rank), allow_large=True)
        succ = complex_family(rs, ComplexKind.CP)[1]
        assert _successor_pairs(rs, ComplexKind.CP) == sum(map(len, succ)), rank


def _no_generation(*args):
    raise AssertionError("generation started")


def _refused_quickly(argv, capsys):
    """``cli.run(argv)``'s stderr, after checking it exits 2 in under a second."""
    started = time.perf_counter()
    assert cli.run(argv, out=io.StringIO()) == 2
    assert time.perf_counter() - started < 1, argv
    return capsys.readouterr().err


def test_lattice_budget_of_a_huge_rank_builds_no_exponent_tuple(monkeypatch, capsys, digit_limits):
    # The ideal count steps through the exponents (ranges for A, B and C,
    # a range plus one value for D) and stops at the cap, so no tuple of
    # ``rank`` exponents is built, and no root is generated, at any digit
    # limit.
    monkeypatch.setattr(root_system, "_generate", _no_generation)
    rank = 10**6
    for _ in digit_limits():
        tracemalloc.start()
        try:
            for family in "ABCD":
                with pytest.raises(SizeLimitExceeded) as exc:
                    check_ideal_budget(RootSystemSpec(family, rank))
                message = f"{family}{rank} has at least 2^2048 ideals, over the lattice budget of 250,000"
                assert str(exc.value) == message
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, peak
        for family, rank in [("A", 10**12), ("D", 10**8)]:
            err = _refused_quickly(["ideals", "--type", family, "--rank", str(rank), "--allow-large"], capsys)
            assert err == f"error: {family}{rank} has at least 2^2048 ideals, over the lattice budget of 250,000\n"


def test_successor_budget_of_a_huge_rank_counts_no_pairs(monkeypatch, capsys, digit_limits):
    # CA, CR and CP are past the cap from rank ``COUNT_BITS`` on, so they
    # are not counted there; at any rank a count at the cap is named as at
    # least the cap, at any digit limit.
    monkeypatch.setattr(root_system, "_generate", _no_generation)
    spec = RootSystemSpec("A", 10**6)
    over = "member pairs, over its budget of 4,194,304"
    cap = 1 << COUNT_BITS
    # The last ranks under the cap: CI 518, CA and CR 1024, CP 1292.
    exact = {
        ComplexKind.CI: lambda r: (CATALAN["A"](r) - 1) * (CATALAN["A"](r) - 2) // 2,
        ComplexKind.CA: lambda r: (2**r - 1) * (2 ** (r - 1) - 1),
        ComplexKind.CR: lambda r: (2**r - 1) * (2 ** (r - 1) - 1),
        ComplexKind.CP: lambda r: 3**r - 2 ** (r + 1) + 1,
    }
    last = {ComplexKind.CI: 518, ComplexKind.CA: 1024, ComplexKind.CR: 1024, ComplexKind.CP: 1292}
    for _ in digit_limits():
        tracemalloc.start()
        try:
            for kind in (ComplexKind.CA, ComplexKind.CR, ComplexKind.CP):
                message = f"the {kind.name} successor table of A1000000 considers at least 2^2048 {over}"
                with pytest.raises(SizeLimitExceeded, match=re.escape(message)):
                    check_successor_budget(spec, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, peak
        for kind, rank in last.items():
            for r in (rank, rank + 1):
                pairs = exact[kind](r)
                assert (pairs < cap) == (r == rank), (kind, r)
                shown = f"{pairs:,}" if r == rank else "at least 2^2048"
                with pytest.raises(SizeLimitExceeded) as exc:
                    check_successor_budget(RootSystemSpec("A", r), kind)
                assert str(exc.value) == f"the {kind.name} successor table of A{r} considers {shown} {over}"
        for complex_ in ("ca", "cp"):
            argv = ["chains", "--type", "A", "--rank", "1000000000", "--complex", complex_, "--allow-large"]
            assert _refused_quickly(argv, capsys) == (
                f"error: the {complex_.upper()} successor table of A1000000000 considers at least 2^2048 {over}\n"
            )


def test_chain_commands_on_a11_stop_before_the_lattice(monkeypatch, capsys):
    # Each of these is refused on its successor table's pair count, before
    # the lattice (or, for CP, the subsets) would be built.
    def built(*args):
        raise AssertionError("construction started")

    monkeypatch.setattr(ideals, "_LATTICE_CACHE", {})
    monkeypatch.setattr(ideals, "_ideal_tables", built)
    for rank, argv, pairs in (
        (11, ["verify", "--max-chains", str(10**30)], "CI successor table of A11 considers 21,634,184,055"),
        (9, ["verify", "--max-chains", str(10**14)], "CI successor table of A9 considers 141,027,615"),
        (10, ["verify", "--max-chains", str(10**17)], "CI successor table of A10 considers 1,727,808,720"),
        (14, ["chains", "--complex", "cp"], "CP successor table of A14 considers 4,750,202"),
        (20, ["chains", "--complex", "cp"], "CP successor table of A20 considers 3,484,687,250"),
    ):
        code = cli.run([*argv, "--type", "A", "--rank", str(rank), "--allow-large"], out=io.StringIO())
        assert code == 2, argv
        assert f"{pairs} member pairs, over its budget of 4,194,304" in capsys.readouterr().err


def test_pairing_on_a11_builds_the_lattice_once(monkeypatch, capsys):
    # A11's lattice (208,012 ideals) fits ``MAX_IDEALS``, and a pairing or a
    # CA family on it fits the successor budget.  The lattice is dropped
    # afterwards.
    monkeypatch.setattr(ideals, "_LATTICE_CACHE", {})
    a11 = ["--type", "A", "--rank", "11", "--allow-large"]
    out = io.StringIO()
    assert cli.run(["pair", *a11, "--complex", "ci-minus-cr", "--chain", "{65}", "--format", "json"], out=out) == 0
    doc = json.loads(out.getvalue())
    # The nilradical of the parabolic stabilizing {65}: the roots outside the
    # Levi of alpha_2..alpha_10, in the first row or the last column.
    assert doc["paired"] == [[65], [0, 10, 11, 20, 21, 29, 30, 37, 38, 44, 45, 50, 51, 55, 56, 59, 60, 62, 63, 64, 65]]
    assert all(doc["laws"].values())
    full = "{" + ", ".join(map(str, range(66))) + "}"
    out = io.StringIO()
    assert cli.run(["pair", *a11, "--complex", "ci-minus-ca", "--chain", full, "--format", "json"], out=out) == 0
    doc = json.loads(out.getvalue())
    # The derived ideal of the nilradical: every root of height at least 2.
    assert doc["paired"] == [list(range(11, 66)), list(range(66))]
    assert all(doc["laws"].values())
    assert cli.run(["chains", *a11, "--complex", "ca"], out=io.StringIO()) == 2
    assert "49042062072532052467712 > 100000000 chains" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family,rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("G", 2), ("D", 4), ("F", 4)]
)
def test_union_keeps_the_common_normalizer(family, rank):
    # norm(a | b) contains norm(a) & norm(b): a simple root space that
    # preserves both ideals preserves their union.
    lat = ideal_lattice(system(family, rank))
    bits = lat.normalizer_bits
    for a in range(len(lat)):
        for b in range(a + 1, len(lat)):
            common = bits[a] & bits[b]
            assert bits[lat.union_id(a, b)] & common == common, (a, b)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_one_predicate_call_on_a10_stays_small():
    # With no containment table, only masks and per-ideal tables, A10's
    # lattice of 58,786 ideals stays well under 100 MB.  The peak is
    # VmHWM, not ru_maxrss: on Linux the child's ru_maxrss keeps this
    # process's peak across the exec.
    code = (
        "from nilchain import Ideal, RootSystemSpec, build_root_system, is_abelian\n"
        "rs = build_root_system(RootSystemSpec('A', 10))\n"
        "assert is_abelian(Ideal(rs, [rs.num_positive_roots - 1]))\n"
        "with open('/proc/self/status') as f:\n"
        "    print(next(line.split()[1] for line in f if line.startswith('VmHWM:')))\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 100 * 1024  # in kB
