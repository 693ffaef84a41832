from itertools import islice, permutations

import pytest

from nilchain import (
    Chain,
    ComplexKind,
    Ideal,
    PairingDomainError,
    chain_stabilizer_type,
    cartan_matrix,
    enumerate_chains,
    membership,
    pair_nonabelian,
    pair_nonradical,
)

from conftest import system


def chain_of(rs, *member_vector_sets):
    return Chain(
        rs,
        tuple(Ideal(rs, [rs.index_of(v) for v in vecs]) for vecs in member_vector_sets),
    )


THETA = ((1, 1),)
A2_RIGHT = ((1, 0), (1, 1))
A2_FULL = ((1, 0), (0, 1), (1, 1))


def test_nonabelian_examples(a2):
    assert pair_nonabelian(chain_of(a2, A2_FULL)) == chain_of(a2, THETA, A2_FULL)
    assert pair_nonabelian(chain_of(a2, THETA, A2_FULL)) == chain_of(a2, A2_FULL)
    assert pair_nonabelian(chain_of(a2, A2_RIGHT, A2_FULL)) == chain_of(
        a2, THETA, A2_RIGHT, A2_FULL
    )


def test_nonradical_examples(a2):
    assert pair_nonradical(chain_of(a2, THETA)) == chain_of(a2, THETA, A2_FULL)
    assert pair_nonradical(chain_of(a2, THETA, A2_FULL)) == chain_of(a2, THETA)
    assert pair_nonradical(chain_of(a2, THETA, A2_RIGHT)) == chain_of(
        a2, THETA, A2_RIGHT, A2_FULL
    )


def test_domain_errors(a2):
    empty = Chain(a2, ())
    abelian_chain = chain_of(a2, THETA, A2_RIGHT)
    radical_chain = chain_of(a2, A2_RIGHT, A2_FULL)
    cases = [
        (pair_nonabelian, empty, "the empty chain has no nonabelian member to pair on"),
        (pair_nonradical, empty, "the empty chain has no nonradical member to pair on"),
        (
            pair_nonabelian,
            abelian_chain,
            "every member is abelian (the top member is, hence all are); "
            "the nonabelian pairing does not apply",
        ),
        (
            pair_nonradical,
            radical_chain,
            "every member equals the nilradical of its normalizer; "
            "the nonradical pairing does not apply",
        ),
    ]
    for pairing, chain, message in cases:
        with pytest.raises(PairingDomainError) as excinfo:
            pairing(chain)
        assert str(excinfo.value) == message


def _check_laws(chain, pairing, domain_kind):
    partner = pairing(chain)
    assert abs(partner.length - chain.length) == 1
    assert pairing(partner) == chain
    assert chain_stabilizer_type(partner) == chain_stabilizer_type(chain)
    assert membership(ComplexKind.CI, partner)
    assert not membership(domain_kind, partner)
    if domain_kind is ComplexKind.CA:
        assert partner.members[-1] == chain.members[-1]
    return partner


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("G", 2)])
def test_involution_laws_exhaustive(family, rank):
    rs = system(family, rank)
    seen_nonabelian = seen_nonradical = 0
    for chain in enumerate_chains(rs, ComplexKind.CI):
        if chain.length == 0:
            continue
        if not membership(ComplexKind.CA, chain):
            _check_laws(chain, pair_nonabelian, ComplexKind.CA)
            seen_nonabelian += 1
        if not membership(ComplexKind.CR, chain):
            _check_laws(chain, pair_nonradical, ComplexKind.CR)
            seen_nonradical += 1
    assert seen_nonabelian > 0 and seen_nonradical > 0


def diagram_automorphisms(rs):
    """Nontrivial permutations of simple positions preserving the Cartan matrix."""
    cartan = cartan_matrix(rs.spec)
    rank = rs.rank
    out = []
    for perm in permutations(range(rank)):
        if perm == tuple(range(rank)):
            continue
        if all(
            cartan[perm[i]][perm[j]] == cartan[i][j]
            for i in range(rank)
            for j in range(rank)
        ):
            out.append(perm)
    return out


# Image of an ideal under a diagram automorphism, per (spec, perm, mask).
_IMAGES = {}


def apply_automorphism(rs, perm, chain):
    inverse = [0] * len(perm)
    for i, p in enumerate(perm):
        inverse[p] = i

    def map_ideal(n):
        key = (rs.spec, perm, n.mask)
        if key not in _IMAGES:
            indices = []
            for r in n.root_indices():
                coeffs = rs.positive_roots[r].coeffs
                image = tuple(coeffs[inverse[k]] for k in range(len(perm)))
                indices.append(rs.index_of(image))
            _IMAGES[key] = Ideal(rs, indices)
        return _IMAGES[key]

    return Chain(rs, tuple(map_ideal(n) for n in chain.members))


@pytest.mark.parametrize("family,rank,expected_autos", [("A", 2, 1), ("A", 3, 1), ("D", 4, 5)])
def test_pairings_commute_with_diagram_automorphisms(family, rank, expected_autos):
    rs = system(family, rank)
    autos = diagram_automorphisms(rs)
    assert len(autos) == expected_autos
    # D4 has too many chains for an exhaustive pass here; a deterministic
    # prefix still exercises every shape of insertion and deletion.
    chains = islice(enumerate_chains(rs, ComplexKind.CI), 4000)
    for chain in chains:
        if chain.length == 0:
            continue
        for perm in autos:
            mapped = apply_automorphism(rs, perm, chain)
            if not membership(ComplexKind.CA, chain):
                left = apply_automorphism(rs, perm, pair_nonabelian(chain))
                assert pair_nonabelian(mapped) == left
            if not membership(ComplexKind.CR, chain):
                left = apply_automorphism(rs, perm, pair_nonradical(chain))
                assert pair_nonradical(mapped) == left


def test_pairing_members_stay_upper_closed(g2):
    # Every member of every partner chain revalidates as an ideal.
    for chain in enumerate_chains(g2, ComplexKind.CI):
        if chain.length == 0 or membership(ComplexKind.CA, chain):
            continue
        partner = pair_nonabelian(chain)
        for member in partner.members:
            Ideal(g2, member.root_indices())
