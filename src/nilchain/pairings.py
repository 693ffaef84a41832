"""Sign-reversing pairings on ideal chains.

Both pairings send a chain to a partner of length one more or one less,
fix the partner's partner (involution), preserve the chain stabilizer
type, and stay inside their domain, so paired chains cancel in any
alternating sum over chain length.

``pair_nonabelian`` acts on chains whose top member is nonabelian: with
``d`` the derived ideal of the top member and ``j`` minimal with ``d``
contained in the j-th member, it inserts ``(j-1)-th member + d`` below the
j-th member if that union is new, and deletes the j-th member otherwise.

``pair_nonradical`` acts on chains with a member different from the
nilradical of its own normalizer: with ``i`` minimal such that the closure
``r = nilradical(normalizer(i-th member))`` differs from the i-th member,
and ``j`` maximal with ``r`` not contained in the j-th member, it deletes
the (j+1)-th member if that member equals ``r + (j-th member)``, and
inserts ``r + (j-th member)`` after position ``j`` otherwise.
"""

from __future__ import annotations

from .chains import Chain
from .ideals import IdealLattice, ideal_lattice


class PairingDomainError(ValueError):
    """A chain outside the pairing's domain was passed in."""


def pair_nonabelian_ids(lat: IdealLattice, ids: tuple[int, ...]) -> tuple[int, ...]:
    """Index-level nonabelian pairing; ``ids`` must be a chain in its domain."""
    d = lat.derived[ids[-1]]
    containers = lat.containers
    pos = 0
    while not (containers[d] >> ids[pos]) & 1:
        pos += 1
    below = ids[pos - 1] if pos else 0
    tilde = lat.union_id(below, d)
    if tilde != ids[pos]:
        return ids[:pos] + (tilde,) + ids[pos:]
    return ids[:pos] + ids[pos + 1 :]


def pair_nonradical_ids(lat: IdealLattice, ids: tuple[int, ...]) -> tuple[int, ...]:
    """Index-level nonradical pairing; ``ids`` must be a chain in its domain."""
    radical = lat.radical
    pos = 0
    while radical[ids[pos]]:
        pos += 1
    tilde = lat.radical_closure[ids[pos]]
    containers = lat.containers[tilde]
    j = len(ids) - 1
    while (containers >> ids[j]) & 1:
        j -= 1
    merged = lat.union_id(tilde, ids[j])
    if j + 1 < len(ids) and merged == ids[j + 1]:
        return ids[: j + 1] + ids[j + 2 :]
    return ids[: j + 1] + (merged,) + ids[j + 1 :]


def _pair(chain: Chain, name: str, pair_ids, out_of_domain, domain_message: str) -> Chain:
    """``pair_ids`` applied to ``chain`` through lattice ids, after the domain checks."""
    if not chain.members:
        raise PairingDomainError(f"the empty chain has no {name} member to pair on")
    lat = ideal_lattice(chain.rs)
    ids = tuple(lat.id_of(n) for n in chain.members)
    if out_of_domain(lat, ids):
        raise PairingDomainError(domain_message)
    return Chain(lat.rs, tuple(lat.ideal(i) for i in pair_ids(lat, ids)))


def pair_nonabelian(chain: Chain) -> Chain:
    """Partner of a chain whose top member is nonabelian.

    The result has the same top member and the same stabilizer type, lies in
    the same domain, and applying the pairing again restores the input.
    """
    return _pair(
        chain,
        "nonabelian",
        pair_nonabelian_ids,
        lambda lat, ids: lat.abelian[ids[-1]],
        "every member is abelian (the top member is, hence all are); "
        "the nonabelian pairing does not apply",
    )


def pair_nonradical(chain: Chain) -> Chain:
    """Partner of a chain having a member below the nilradical of its normalizer.

    The result keeps that earliest such member, preserves the stabilizer
    type, lies in the same domain, and applying the pairing again restores
    the input.
    """
    return _pair(
        chain,
        "nonradical",
        pair_nonradical_ids,
        lambda lat, ids: all(lat.radical[i] for i in ids),
        "every member equals the nilradical of its normalizer; "
        "the nonradical pairing does not apply",
    )
