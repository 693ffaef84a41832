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

from typing import Optional

from .chains import Chain
from .ideals import IdealLattice, ideal_lattice

# The pairing laws, in the order ``broken_law`` tests them.
LAWS = ("length_change_is_one", "same_domain", "stabilizer_preserved", "involution")


class PairingDomainError(ValueError):
    """A chain outside the pairing's domain was passed in."""


def pair_nonabelian_ids(lat: IdealLattice, ids: tuple[int, ...]) -> tuple[int, ...]:
    """Index-level nonabelian pairing; ``ids`` must be a chain in its domain."""
    d = lat.derived[ids[-1]]
    masks = lat.masks
    derived = masks[d]
    pos = 0
    while derived & ~masks[ids[pos]]:
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
    masks = lat.masks
    closure = masks[tilde]
    j = len(ids) - 1
    while not closure & ~masks[ids[j]]:
        j -= 1
    merged = lat.union_id(tilde, ids[j])
    if j + 1 < len(ids) and merged == ids[j + 1]:
        return ids[: j + 1] + ids[j + 2 :]
    return ids[: j + 1] + (merged,) + ids[j + 1 :]


def broken_law(
    lat: IdealLattice, pair, keeps_top: bool, ids: tuple[int, ...], stab: int
) -> Optional[str]:
    """The first law in ``LAWS`` that ``pair``'s partner ``p`` of ``ids`` breaks, or ``None``.

    ``ids`` is a domain chain with stabilizer bits ``stab``.  ``p`` must be
    one off in length; in the domain (with the top member of ``ids`` if
    ``keeps_top``, for the nonabelian pairing, else with a nonradical
    member); a chain with stabilizer ``stab`` (a ``p`` that is no chain
    breaks this law); and pair back to ``ids``.  Testing stops at the first
    failure, so a broken partner is never paired again.

    On a domain's even-length chains these laws make the pairing an
    injection into its odd ones, undone by itself; if the two are equally
    many, every odd chain is some ``p``, and the laws hold there too.  So a
    law fails somewhere exactly when an even chain breaks one or the counts
    differ.
    """
    partner = pair(lat, ids)
    if abs(len(partner) - len(ids)) != 1:
        return "length_change_is_one"
    if keeps_top:
        if not partner or partner[-1] != ids[-1]:
            return "same_domain"
    elif all(map(lat.radical.__getitem__, partner)):
        return "same_domain"
    masks, norm_bits = lat.masks, lat.normalizer_bits
    bits = lat.full_simple_bits
    below = 0  # the zero ideal's mask
    for i in partner:
        mask = masks[i]
        if mask == below or below & ~mask:
            return "stabilizer_preserved"
        bits &= norm_bits[i]
        below = mask
    if bits != stab:
        return "stabilizer_preserved"
    return "involution" if pair(lat, partner) != ids else None


def domain_ids(chain: Chain, keeps_top: bool) -> tuple[IdealLattice, tuple[int, ...]]:
    """The lattice and ids of a chain in the nonabelian pairing's domain if
    ``keeps_top``, else in the nonradical one's; ``PairingDomainError`` outside."""
    if not chain.members:
        name = "nonabelian" if keeps_top else "nonradical"
        raise PairingDomainError(f"the empty chain has no {name} member to pair on")
    lat = ideal_lattice(chain.rs)
    ids = tuple(lat.id_of(n) for n in chain.members)
    if keeps_top and lat.abelian[ids[-1]]:
        raise PairingDomainError(
            "every member is abelian (the top member is, hence all are); "
            "the nonabelian pairing does not apply"
        )
    if not keeps_top and all(map(lat.radical.__getitem__, ids)):
        raise PairingDomainError(
            "every member equals the nilradical of its normalizer; "
            "the nonradical pairing does not apply"
        )
    return lat, ids


def pair_nonabelian(chain: Chain) -> Chain:
    """Partner of a chain whose top member is nonabelian.

    The result has the same top member and the same stabilizer type, lies in
    the same domain, and applying the pairing again restores the input.
    """
    lat, ids = domain_ids(chain, True)
    return Chain(lat.rs, tuple(map(lat.ideal, pair_nonabelian_ids(lat, ids))))


def pair_nonradical(chain: Chain) -> Chain:
    """Partner of a chain having a member below the nilradical of its normalizer.

    The result keeps that earliest such member, preserves the stabilizer
    type, lies in the same domain, and applying the pairing again restores
    the input.
    """
    lat, ids = domain_ids(chain, False)
    return Chain(lat.rs, tuple(map(lat.ideal, pair_nonradical_ids(lat, ids))))
