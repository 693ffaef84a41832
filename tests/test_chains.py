import io
from itertools import combinations

import pytest

from nilchain import (
    Chain,
    ChainLimitExceeded,
    ComplexKind,
    Ideal,
    ParabolicChain,
    chain_stabilizer_type,
    corank,
    cp_to_cr,
    cr_to_cp,
    enumerate_chains,
    enumerate_ideals,
    membership,
    normalizer_type,
)
from nilchain.cli import run

from conftest import ACCEPTANCE_SYSTEMS, system
from oracles import derived_by_vectors, nilradical_by_vectors, normalizer_by_vectors


def chain_of(rs, *member_vector_sets):
    return Chain(
        rs,
        tuple(Ideal(rs, [rs.index_of(v) for v in vecs]) for vecs in member_vector_sets),
    )


# A2 member sets, by hand: theta = (1,1), the two height-2 ideals, the full system.
THETA = ((1, 1),)
A2_LEFT = ((0, 1), (1, 1))  # contains alpha_2
A2_RIGHT = ((1, 0), (1, 1))  # contains alpha_1
A2_FULL = ((1, 0), (0, 1), (1, 1))

A2_CI_CHAINS = [
    (),
    (THETA,),
    (THETA, A2_LEFT),
    (THETA, A2_LEFT, A2_FULL),
    (THETA, A2_RIGHT),
    (THETA, A2_RIGHT, A2_FULL),
    (THETA, A2_FULL),
    (A2_LEFT,),
    (A2_LEFT, A2_FULL),
    (A2_RIGHT,),
    (A2_RIGHT, A2_FULL),
    (A2_FULL,),
]


def test_a1_has_two_chains():
    chains = list(enumerate_chains(system("A", 1), ComplexKind.CI))
    assert len(chains) == 2
    assert chains[0].length == 0 and chains[1].length == 1


def test_a2_ci_chains_match_hand_enumeration(a2):
    got = list(enumerate_chains(a2, ComplexKind.CI))
    want = [chain_of(a2, *members) for members in A2_CI_CHAINS]
    assert got == want


def test_a2_chain_counts(a2):
    counts = {
        kind: sum(1 for _ in enumerate_chains(a2, kind))
        for kind in (ComplexKind.CI, ComplexKind.CA, ComplexKind.CR, ComplexKind.CP)
    }
    assert counts == {
        ComplexKind.CI: 12,
        ComplexKind.CA: 6,
        ComplexKind.CR: 6,
        ComplexKind.CP: 6,
    }
    by_length = {}
    for chain in enumerate_chains(a2, ComplexKind.CI):
        by_length[chain.length] = by_length.get(chain.length, 0) + 1
    assert by_length == {0: 1, 1: 4, 2: 5, 3: 2}


def test_membership(a2):
    not_abelian = chain_of(a2, THETA, A2_FULL)
    assert membership(ComplexKind.CI, not_abelian)
    assert not membership(ComplexKind.CA, not_abelian)
    radical = chain_of(a2, A2_LEFT, A2_FULL)
    assert membership(ComplexKind.CR, radical)
    assert not membership(ComplexKind.CR, chain_of(a2, THETA))
    empty = Chain(a2, ())
    for kind in (ComplexKind.CI, ComplexKind.CA, ComplexKind.CR):
        assert membership(kind, empty)
    with pytest.raises(ValueError, match="CP"):
        membership(ComplexKind.CP, empty)


def test_subcomplex_containment():
    for family, rank in [("A", 2), ("B", 2), ("G", 2), ("B", 3)]:
        rs = system(family, rank)
        for kind in (ComplexKind.CA, ComplexKind.CR):
            for chain in enumerate_chains(rs, kind):
                assert membership(ComplexKind.CI, chain)
                assert membership(kind, chain)


def test_face_closure():
    # Dropping any member of a chain leaves a chain of the same complex.
    for family, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = system(family, rank)
        for kind in (ComplexKind.CI, ComplexKind.CA, ComplexKind.CR):
            for chain in enumerate_chains(rs, kind):
                for skip in range(chain.length):
                    face = Chain(
                        rs, chain.members[:skip] + chain.members[skip + 1 :]
                    )
                    assert membership(kind, face)
        for pchain in enumerate_chains(rs, ComplexKind.CP):
            for skip in range(pchain.length):
                ParabolicChain(rs, pchain.members[:skip] + pchain.members[skip + 1 :])


def test_chain_stabilizer_examples(a2):
    assert chain_stabilizer_type(Chain(a2, ())) == frozenset({1, 2})
    assert chain_stabilizer_type(chain_of(a2, A2_LEFT)) == frozenset({1})
    assert chain_stabilizer_type(chain_of(a2, THETA, A2_LEFT)) == frozenset()


def test_cr_stabilizer_is_normalizer_of_largest_member():
    for family, rank in ACCEPTANCE_SYSTEMS:
        rs = system(family, rank)
        for chain in enumerate_chains(rs, ComplexKind.CR):
            if chain.members:
                assert chain_stabilizer_type(chain) == normalizer_type(chain.members[-1])


def test_cp_stabilizer_is_smallest_member(a2):
    pchains = list(enumerate_chains(a2, ComplexKind.CP))
    assert chain_stabilizer_type(pchains[0]) == frozenset({1, 2})
    for pchain in pchains:
        if pchain.members:
            assert chain_stabilizer_type(pchain) == pchain.members[0]


def test_cp_emission_order_a4():
    # Proper subsets in canonical order: by size, then by elements.  CP
    # chains come out lexicographically in their position sequences.
    rs = system("A", 4)
    subsets = sorted(
        (frozenset(c) for size in range(4) for c in combinations(range(1, 5), size)),
        key=lambda j: (len(j), sorted(j)),
    )
    position = {j: k for k, j in enumerate(subsets)}
    sequences = [
        tuple(position[j] for j in pchain.members)
        for pchain in enumerate_chains(rs, ComplexKind.CP)
    ]
    assert len(set(sequences)) == len(sequences) == 150
    assert sequences == sorted(sequences)


def test_cr_cp_example(a2):
    chain = chain_of(a2, A2_LEFT, A2_FULL)
    image = cr_to_cp(chain)
    assert image.members == (frozenset(), frozenset({1}))
    assert cp_to_cr(image) == chain


def test_cr_cp_roundtrip_exhaustive():
    for family, rank in ACCEPTANCE_SYSTEMS:
        rs = system(family, rank)
        for chain in enumerate_chains(rs, ComplexKind.CR):
            image = cr_to_cp(chain)
            assert image.length == chain.length
            assert cp_to_cr(image) == chain
            assert chain_stabilizer_type(image) == chain_stabilizer_type(chain)
            # Order reversal: members map to normalizer types back to front.
            assert image.members == tuple(
                normalizer_type(n) for n in reversed(chain.members)
            )
        for pchain in enumerate_chains(rs, ComplexKind.CP):
            back = cp_to_cr(pchain)
            assert membership(ComplexKind.CR, back)
            assert cr_to_cp(back) == pchain


@pytest.mark.parametrize("family,rank", [("B", 3), ("C", 3), ("G", 2)])
def test_stabilizer_and_membership_match_vector_oracles(family, rank):
    # Per ideal mask: abelian, radical and normalizer type, from root vectors alone.
    rs = system(family, rank)
    roots = [r.coeffs for r in rs.positive_roots]
    facts = {}
    for chain in enumerate_chains(rs, ComplexKind.CI):
        for n in chain.members:
            if n.mask not in facts:
                members = [r for r in range(rs.num_positive_roots) if (n.mask >> r) & 1]
                norm = normalizer_by_vectors(roots, members)
                radical = nilradical_by_vectors(roots, norm) == frozenset(members)
                facts[n.mask] = (not derived_by_vectors(roots, members), radical, norm)
        rows = [facts[n.mask] for n in chain.members]
        norms = tuple(norm for _, _, norm in rows)
        in_cr = all(radical for _, radical, _ in rows)
        assert chain_stabilizer_type(chain) == frozenset(range(1, rank + 1)).intersection(*norms)
        assert membership(ComplexKind.CI, chain)
        assert membership(ComplexKind.CA, chain) == all(abelian for abelian, _, _ in rows)
        assert membership(ComplexKind.CR, chain) == in_cr
        if in_cr:
            image = cr_to_cp(chain)
            assert image.members == norms[::-1]
            assert cp_to_cr(image) == chain
    assert len(facts) == len(enumerate_ideals(rs)) - 1


def test_cr_to_cp_requires_cr_chain(a2):
    with pytest.raises(ValueError, match="not in CR"):
        cr_to_cp(chain_of(a2, THETA))


def test_corank(a2):
    assert corank(frozenset({1, 2}), a2) == 0
    assert corank(frozenset({1}), a2) == 1
    assert corank(frozenset(), system("A", 3)) == 3
    with pytest.raises(ValueError):
        corank(frozenset({5}), a2)


def test_emission_is_lexicographic_and_deterministic():
    rs = system("A", 3)
    runs = []
    for _ in range(2):
        ids = []
        for chain in enumerate_chains(rs, ComplexKind.CI):
            ids.append(tuple(n.mask for n in chain.members))
        runs.append(ids)
    assert runs[0] == runs[1]
    # Lexicographic in canonical ideal indices: masks ordered by (size, mask).
    order = {m: i for i, m in enumerate(sorted(set(m for run in runs for ch in run for m in ch), key=lambda m: (bin(m).count("1"), m)))}
    index_chains = [tuple(order[m] for m in ch) for ch in runs[0]]
    assert index_chains == sorted(index_chains)


def test_chain_validation(a2, b2):
    zero = Ideal(a2)
    with pytest.raises(ValueError, match="zero ideal"):
        Chain(a2, (zero,))
    with pytest.raises(ValueError, match="strictly increase"):
        chain_of(a2, A2_FULL, THETA)
    with pytest.raises(ValueError, match="strictly increase"):
        chain_of(a2, THETA, THETA)
    with pytest.raises(ValueError, match="B2"):
        Chain(a2, (Ideal(b2, [b2.index_of((1, 2))]),))


def test_parabolic_chain_validation(a2):
    with pytest.raises(ValueError, match="full simple set"):
        ParabolicChain(a2, (frozenset({1, 2}),))
    with pytest.raises(ValueError, match="strictly increase"):
        ParabolicChain(a2, (frozenset({1}), frozenset({2})))
    with pytest.raises(ValueError, match="1..2"):
        ParabolicChain(a2, (frozenset({4}),))


def test_chain_str(a2):
    chain = chain_of(a2, THETA, A2_LEFT)
    assert str(chain) == "[{2} < {0, 2}]"
    assert str(Chain(a2, ())) == "[]"


def test_max_chains_guard(a2, monkeypatch, capsys):
    with pytest.raises(ChainLimitExceeded):
        enumerate_chains(a2, ComplexKind.CI, max_chains=5)
    with pytest.raises(ChainLimitExceeded):
        enumerate_chains(a2, ComplexKind.CP, max_chains=5)
    assert sum(1 for _ in enumerate_chains(a2, ComplexKind.CI, max_chains=12)) == 12
    # Every complex has the empty chain, so a limit below 1 is a usage error.
    for command in (["chains", "--complex", "ci"], ["verify"]):
        argv = command + ["--type", "A", "--rank", "2"]
        for value in ("0", "-3"):
            assert run(argv + ["--max-chains", value], out=io.StringIO()) == 2
            assert f"--max-chains must be at least 1, got {value}" in capsys.readouterr().err
            monkeypatch.setenv("NILCHAIN_MAX_CHAINS", value)
            assert run(argv, out=io.StringIO()) == 2
            assert f"NILCHAIN_MAX_CHAINS must be at least 1, got {value}" in capsys.readouterr().err
            monkeypatch.delenv("NILCHAIN_MAX_CHAINS")
