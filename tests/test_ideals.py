import gc
import io
import os
import subprocess
import sys
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
from nilchain import cli, ideals
from nilchain.chains import (
    ComplexKind,
    chain_stabilizer_type,
    cp_to_cr,
    cr_to_cp,
    enumerate_chains,
    membership,
)
from nilchain.ideals import ideal_count
from nilchain.root_system import exponents
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
        exps = exponents(family, rank)
        assert len(exps) == rank
        for k in range(1, max(heights) + 2):
            assert sum(e >= k for e in exps) == heights.count(k), (family, rank, k)


def _refuse_construction(monkeypatch):
    """Make any ideal enumeration or containment build fail loudly."""

    def built(*args):
        raise AssertionError("construction started")

    monkeypatch.setattr(ideals, "_up_masks", built)
    monkeypatch.setattr(ideals, "_containers", built)


def _bare_lattice(rs):
    """A lattice with none of its tables built, so only the size gates run."""
    lat = object.__new__(IdealLattice)
    lat.rs, lat.masks, lat.index, lat.containers = rs, (), {}, None
    return lat


def test_size_gates_refuse_before_construction(monkeypatch, capsys):
    _refuse_construction(monkeypatch)
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
    # Containment budget: E8 and A10 reach construction, A11 is refused.
    for spec in [("E", 8), ("A", 10)]:
        with pytest.raises(AssertionError, match="construction started"):
            _bare_lattice(systems[spec]).containers
    with pytest.raises(SizeLimitExceeded, match=r"A11 \(208,012 ideals\).*2,704,312,009 bytes.*536,870,912"):
        _bare_lattice(systems["A", 11]).containers


def _containers_unset(lat) -> bool:
    # Reads the slot behind the property, so the lazy build is not triggered.
    return lat._container_table is None


def test_containment_is_built_on_first_read_only(monkeypatch):
    monkeypatch.setattr(ideals, "_LATTICE_CACHE", {})
    monkeypatch.setattr(ideals, "_containers", lambda *args: pytest.fail("containment built"))
    e6 = system("E", 6)
    assert _containers_unset(IdealLattice(e6))
    assert cli.run(["ideals", "--type", "E", "--rank", "6", "--format", "json"], out=io.StringIO()) == 0
    assert _containers_unset(ideal_lattice(e6))
    rs = system("B", 3)
    for n in enumerate_ideals(rs):
        is_abelian(n), derived_ideal(n), normalizer_type(n), is_radical_member(n)
    for _, subset in simple_subsets(rs.rank):
        nilradical_of_parabolic(rs, subset)
    # CP chains come from subsets alone; their images are the CR chains.
    for pchain in enumerate_chains(rs, ComplexKind.CP):
        chain = cp_to_cr(pchain)
        membership(ComplexKind.CA, chain), chain_stabilizer_type(chain)
        assert cr_to_cp(chain) == pchain
    lat = ideal_lattice(rs)
    assert _containers_unset(lat)
    monkeypatch.undo()
    ideals_b3 = enumerate_ideals(rs)
    assert lat.containers == tuple(
        sum(1 << j for j, m in enumerate(ideals_b3) if n.mask & ~m.mask == 0) for n in ideals_b3
    )
    assert lat.containers is lat.containers


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_one_predicate_call_on_a10_stays_small():
    # Without its containment table (about 216 MB by the n*n/16 estimate),
    # A10's lattice of 58,786 ideals stays well under 100 MB.  The peak is
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
