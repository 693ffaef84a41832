import io
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilchain import (
    ChainLimitExceeded,
    ComplexKind,
    Ideal,
    RootSystemSpec,
    SumVector,
    alternating_sum,
    boolean_interval_check,
    build_root_system,
    chain_stabilizer_type,
    closed_form_sum,
    enumerate_chains,
    membership,
    pair_nonabelian,
    pair_nonradical,
    verify,
)
from nilchain import chains, cli, ideals, sums
from nilchain.chains import complex_family, count_index_chains, tally_chains
from nilchain.cli import parse_chain_literal
from nilchain.ideals import IdealLattice, ideal_lattice
from nilchain.sums import _InvolutionStats

from conftest import ACCEPTANCE_SYSTEMS, system
from oracles import parabolic_chain_histogram

S2 = frozenset({1, 2})
A2_VECTOR = SumVector({S2: 1, frozenset({1}): -1, frozenset({2}): -1, frozenset(): 1})


def test_sum_vector_semantics():
    v = SumVector({frozenset({1}): 2, frozenset(): 0})
    assert v.coefficient([1]) == 2
    assert v.coefficient([]) == 0
    assert v.entries() == {frozenset({1}): 2}
    assert SumVector() == SumVector({frozenset({2}): 0})
    assert SumVector().is_zero
    assert (v - v).is_zero
    assert (v + v).coefficient([1]) == 4
    assert v.to_pairs() == [([1], 2)]


def test_alternating_sum_a1():
    rs = system("A", 1)
    assert alternating_sum(rs, ComplexKind.CI) == SumVector(
        {frozenset({1}): 1, frozenset(): -1}
    )


def test_alternating_sums_a2(a2):
    for kind in ComplexKind:
        assert alternating_sum(a2, kind) == A2_VECTOR


def test_empty_chain_contributes_plus_one_at_full_type():
    rs = system("A", 1)
    # The only chain of CA with stabilizer {1} is the empty one.
    assert alternating_sum(rs, ComplexKind.CA).coefficient([1]) == 1


def test_closed_form_examples():
    assert closed_form_sum(system("A", 1)) == SumVector(
        {frozenset({1}): 1, frozenset(): -1}
    )
    assert closed_form_sum(system("A", 2)) == A2_VECTOR
    a3 = closed_form_sum(system("A", 3))
    assert len(a3.entries()) == 8
    for subset, coeff in a3.entries().items():
        assert coeff == (-1) ** (3 - len(subset))


def test_five_way_equality_small_systems():
    for family, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]:
        rs = system(family, rank)
        closed = closed_form_sum(rs)
        for kind in ComplexKind:
            assert alternating_sum(rs, kind) == closed, (family, rank, kind)


def test_boolean_interval_examples():
    # A1: the single chain ({}) contributes -1 = (-1)^1 at the empty type.
    assert boolean_interval_check(system("A", 1))
    # A2 and every other rank <= 4 system, including ones with huge CI.
    for family, rank in ACCEPTANCE_SYSTEMS + [("A", 4), ("B", 4), ("C", 4), ("F", 4)]:
        assert boolean_interval_check(system(family, rank)), (family, rank)


def test_euler_characteristic_specialization():
    # Setting every basis vector to 1 turns the CP sum into the alternating
    # subset count, which vanishes for rank >= 1.
    for family, rank in [("A", 1), ("A", 3), ("B", 3), ("D", 4)]:
        rs = system(family, rank)
        total = sum(alternating_sum(rs, ComplexKind.CP).entries().values())
        assert total == 0
        assert sum(closed_form_sum(rs).entries().values()) == 0


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_specialization_soundness(data):
    # Any integer-valued assignment on parabolic types gives the same value
    # on all five vectors; this is what makes the universal check universal.
    family, rank = data.draw(st.sampled_from([("A", 2), ("B", 2), ("G", 2)]))
    rs = system(family, rank)
    vectors = [alternating_sum(rs, kind) for kind in ComplexKind]
    vectors.append(closed_form_sum(rs))
    support = set()
    for v in vectors:
        support.update(v.entries())
    values = {
        subset: data.draw(st.integers(-10**6, 10**6)) for subset in sorted(support, key=sorted)
    }
    specialized = [
        sum(values[subset] * coeff for subset, coeff in v.entries().items())
        for v in vectors
    ]
    assert len(set(specialized)) == 1


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_cancellation_orbits(family, rank):
    # The pairing splits each complement into 2-cycles with opposite signs
    # and equal stabilizers, so the complement's signed sum vanishes.
    rs = system(family, rank)
    for kind, pairing in ((ComplexKind.CA, pair_nonabelian), (ComplexKind.CR, pair_nonradical)):
        complement = [
            c
            for c in enumerate_chains(rs, ComplexKind.CI)
            if c.length > 0 and not membership(kind, c)
        ]
        partners = {c: pairing(c) for c in complement}
        signed = SumVector()
        for c, p in partners.items():
            assert p in partners and partners[p] == c and p != c
            assert (-1) ** p.length == -((-1) ** c.length)
            assert chain_stabilizer_type(p) == chain_stabilizer_type(c)
            signed = signed + SumVector({chain_stabilizer_type(c): c.sign})
        assert signed.is_zero
        assert len(complement) % 2 == 0


def test_verify_a2(a2):
    report = verify(a2)
    assert report.ok
    totals = {name: s.total for name, s in report.complexes.items()}
    assert totals == {"CI": 12, "CA": 6, "CR": 6, "CP": 6}
    assert report.complexes["CI"].by_length == {0: 1, 1: 4, 2: 5, 3: 2}
    for summary in report.complexes.values():
        assert summary.sum == A2_VECTOR
    assert report.closed_form == A2_VECTOR
    assert report.involution_checks == {"nonabelian": 6, "nonradical": 6}
    assert "fixed Borel" in report.notes


def test_verify_b2(b2):
    report = verify(b2)
    assert report.ok
    assert report.complexes["CI"].sum == A2_VECTOR  # same rank-2 closed form


def test_report_dict_is_json_stable(a2):
    doc = verify(a2).to_dict()
    assert doc["type"] == "A" and doc["rank"] == 2
    assert {c["complex"] for c in doc["complexes"]} == {"CI", "CA", "CR", "CP"}
    ci = next(c for c in doc["complexes"] if c["complex"] == "CI")
    assert ci["chain_counts"]["total"] == 12
    assert ci["chain_counts"]["by_length"] == [[0, 1], [1, 4], [2, 5], [3, 2]]
    assert ci["sum"] == [[[], 1], [[1], -1], [[2], -1], [[1, 2], 1]]
    assert all(isinstance(v, bool) for v in doc["verdicts"].values())


def test_verify_respects_max_chains(a2):
    with pytest.raises(ChainLimitExceeded):
        verify(a2, max_chains=10)
    assert verify(a2, max_chains=12).ok


def test_ci_has_at_least_two_to_the_root_count_chains():
    # The last k roots in canonical order form an ideal for every k (the
    # constructor checks upper closure), so these N ideals form one chain
    # and each of its 2^N subsets is a CI chain.
    for family, rank in ACCEPTANCE_SYSTEMS + [("A", 4)]:
        rs = system(family, rank)
        m = rs.num_positive_roots
        for k in range(1, m + 1):
            Ideal.from_mask(rs, (1 << m) - (1 << (m - k)))
        ids, succ, _ = complex_family(rs, ComplexKind.CI)
        assert count_index_chains(ids, succ) >= 1 << m, (family, rank)


def test_ci_guard_refuses_before_any_table_is_built(monkeypatch, capsys, a2):
    with pytest.raises(ChainLimitExceeded, match=r"at least 8 > 7 chains") as exc:
        alternating_sum(a2, ComplexKind.CI, max_chains=7)
    assert exc.value.count == 8
    # Past the bound the total is counted exactly.
    with pytest.raises(ChainLimitExceeded, match=r"guard: 12 > 11 chains"):
        alternating_sum(a2, ComplexKind.CI, max_chains=11)

    def built(*args):
        raise AssertionError("construction started")

    monkeypatch.setattr(ideals, "_LATTICE_CACHE", {})
    monkeypatch.setattr(ideals, "_ideal_masks", built)
    monkeypatch.setattr(ideals, "_containers", built)
    monkeypatch.setattr(chains, "family_successors", built)
    e7 = build_root_system(RootSystemSpec("E", 7), allow_large=True)
    with pytest.raises(ChainLimitExceeded, match="at least") as exc:
        verify(e7)
    assert exc.value.count == 2**63
    with pytest.raises(ChainLimitExceeded, match="at least"):
        enumerate_chains(e7, ComplexKind.CI, max_chains=sums.DEFAULT_MAX_CHAINS)
    argv = ["verify", "--type", "E", "--rank", "8", "--allow-large"]
    assert cli.run(argv, out=io.StringIO()) == 2
    assert capsys.readouterr().err.startswith(
        f"error: enumeration exceeds the chain guard: at least {2**120} > "
    )


@pytest.mark.parametrize("broken", [False, True])
def test_verify_tallies_each_complex_once(monkeypatch, a2, broken):
    # The boolean-interval buckets are read from the CP tally the sums use,
    # so a fault in that tally fails the verdict.
    cp_ids = complex_family(a2, ComplexKind.CP)[0]
    calls = []

    def tally(ids, succ, bits):
        calls.append(ids)
        signed, lengths = tally_chains(ids, succ, bits)
        if broken and ids == cp_ids:
            signed[ids[0]][ids[0]] += 2
        return signed, lengths

    monkeypatch.setattr(sums, "tally_chains", tally)
    assert verify(a2).verdicts["boolean_interval"] is not broken
    assert len(calls) == len(ComplexKind)


def test_alternating_sum_respects_max_chains(a2):
    with pytest.raises(ChainLimitExceeded):
        alternating_sum(a2, ComplexKind.CI, max_chains=3)
    with pytest.raises(ChainLimitExceeded):
        alternating_sum(a2, ComplexKind.CP, max_chains=3)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_walker_matches_stream(family, rank):
    # Sums, totals and histograms are counted over the lattice; the streamed
    # object-level chains are their independent reference.
    rs = system(family, rank)
    report = verify(rs)
    for kind in ComplexKind:
        by_length, signed = Counter(), Counter()
        for chain in enumerate_chains(rs, kind):
            by_length[chain.length] += 1
            signed[chain_stabilizer_type(chain)] += chain.sign
        total = sum(by_length.values())
        assert alternating_sum(rs, kind) == SumVector(signed), kind
        summary = report.complexes[kind.name]
        assert (summary.total, summary.by_length) == (total, dict(by_length)), kind
        assert summary.sum == SumVector(signed), kind
        ids, succ, _ = complex_family(rs, kind)
        assert count_index_chains(ids, succ) == total, kind
        alternating_sum(rs, kind, max_chains=total)
        with pytest.raises(ChainLimitExceeded):
            alternating_sum(rs, kind, max_chains=total - 1)


def test_counted_sums_past_the_stream():
    # Too many CI chains to stream, but CA, CR and CP are counted exactly.
    # CA totals are the ones the exhaustive walk counted; CR and CP totals
    # are 2 * Fubini(rank), the sum of the ordered-partition histogram.
    ca_totals = {("A", 5): 8_864, ("F", 4): 2_368, ("E", 6): 3_206_336}
    cp_totals = {("A", 5): 1_082, ("F", 4): 150, ("E", 6): 9_366}
    for (family, rank), ca_total in ca_totals.items():
        rs = system(family, rank)
        histogram = parabolic_chain_histogram(rank)
        assert sum(histogram.values()) == cp_totals[(family, rank)]
        totals = {
            ComplexKind.CA: ca_total,
            ComplexKind.CR: cp_totals[(family, rank)],
            ComplexKind.CP: cp_totals[(family, rank)],
        }
        for kind, total in totals.items():
            assert alternating_sum(rs, kind) == closed_form_sum(rs), (family, rank, kind)
            alternating_sum(rs, kind, max_chains=total)
            with pytest.raises(ChainLimitExceeded):
                alternating_sum(rs, kind, max_chains=total - 1)
            if kind is not ComplexKind.CA:
                ids, succ, bits = complex_family(rs, kind)
                by_length = Counter({0: 1})
                for counts in tally_chains(ids, succ, bits)[1].values():
                    by_length.update(counts)
                assert dict(by_length) == histogram, (family, rank, kind)
    for rank in range(5, 9):
        assert boolean_interval_check(system("A", rank)), rank


def _first_ci_chain(rs, length, outside):
    """The first CI chain of a length outside a complex, with its lattice ids."""
    lat = ideal_lattice(rs)
    chain = next(
        c
        for c in enumerate_chains(rs, ComplexKind.CI)
        if c.length == length and not membership(outside, c)
    )
    return chain, tuple(lat.id_of(n) for n in chain.members)


def _counterexample(rs, report, name):
    match = re.search(rf"The {name} pairing breaks a law at (\[[^\]]*\])\.", report.notes)
    assert match, report.notes
    return parse_chain_literal(rs, match.group(1))


def test_pairing_wrong_on_one_odd_chain_fails(monkeypatch):
    # Odd chains are reached only as partners of even ones; a wrong value on
    # one of them shows as its even partner failing to pair back.
    rs = system("B", 3)
    target, target_ids = _first_ci_chain(rs, 3, ComplexKind.CR)
    real = sums.pair_nonradical_ids

    def wrong_on_target(lat, ids):
        return ids if ids == target_ids else real(lat, ids)

    monkeypatch.setattr(sums, "pair_nonradical_ids", wrong_on_target)
    report = verify(rs)
    assert not report.verdicts["nonradical_involution"]
    assert report.verdicts["nonabelian_involution"]
    assert pair_nonradical(_counterexample(rs, report, "nonradical")) == target
    assert "nonabelian pairing" not in report.notes


def test_partner_that_is_no_chain_fails(monkeypatch):
    # The partner repeats a member, so it is no chain, yet it has the right
    # length, top and stabilizer and pairs back.
    rs = system("B", 3)
    target, target_ids = _first_ci_chain(rs, 2, ComplexKind.CA)
    repeated = target_ids[:1] + target_ids
    real = sums.pair_nonabelian_ids

    def repeating(lat, ids):
        if ids == target_ids:
            return repeated
        if ids == repeated:
            return target_ids
        return real(lat, ids)

    monkeypatch.setattr(sums, "pair_nonabelian_ids", repeating)
    report = verify(rs)
    assert not report.verdicts["nonabelian_involution"]
    assert report.verdicts["nonradical_involution"]
    assert _counterexample(rs, report, "nonabelian") == target


def _itself(rs, child, outside):
    return child


def _partner_inside(rs, child, outside):
    """A chain of the complex one off in length from ``child``, with its stabilizer."""
    stab = chain_stabilizer_type(child)
    return next(
        (
            c
            for c in enumerate_chains(rs, outside)
            if abs(c.length - child.length) == 1 and chain_stabilizer_type(c) == stab
        ),
        None,
    )


def _partner_with_another_stabilizer(rs, child, outside):
    """A domain chain one off in length from ``child``, with its top member
    and another stabilizer, whose own partner is walked after ``child``."""
    pairing = pair_nonabelian if outside is ComplexKind.CA else pair_nonradical
    lat = ideal_lattice(rs)
    stab = chain_stabilizer_type(child)

    def ids(chain):
        return tuple(lat.id_of(n) for n in chain.members)

    return next(
        (
            c
            for c in enumerate_chains(rs, ComplexKind.CI)
            if abs(c.length - child.length) == 1
            and not membership(outside, c)
            and c.members[-1] == child.members[-1]
            and chain_stabilizer_type(c) != stab
            and ids(pairing(c)) > ids(child)
        ),
        None,
    )


@pytest.mark.parametrize(
    "name, outside, partner_of",
    [
        ("nonabelian", ComplexKind.CA, _itself),
        ("nonradical", ComplexKind.CR, _itself),
        ("nonabelian", ComplexKind.CA, _partner_inside),
        ("nonradical", ComplexKind.CR, _partner_inside),
        ("nonabelian", ComplexKind.CA, _partner_with_another_stabilizer),
        ("nonradical", ComplexKind.CR, _partner_with_another_stabilizer),
    ],
    ids=[
        "nonabelian-pairs-to-itself",
        "nonradical-pairs-to-itself",
        "nonabelian-partner-has-another-top",
        "nonradical-partner-all-radical",
        "nonabelian-partner-has-another-stabilizer",
        "nonradical-partner-has-another-stabilizer",
    ],
)
def test_partner_breaking_one_law_fails(monkeypatch, name, outside, partner_of):
    # Each partner breaks one law and keeps the others: it is a chain that
    # pairs back and, but for the last two cases, has the child's
    # stabilizer.  A pairing that fixes a chain keeps its length; a
    # nonabelian partner from CA has an abelian top, so not the child's; a
    # nonradical partner from CR has only radical members.  A partner with
    # another stabilizer is in the domain, so it is also the real partner of
    # a later chain, which then fails to pair back; the child fails first.
    rs = system("B", 3)
    lat = ideal_lattice(rs)
    child, partner = next(
        (c, p)
        for c in enumerate_chains(rs, ComplexKind.CI)
        if c.length == 2
        and not membership(outside, c)
        and (p := partner_of(rs, c, outside)) is not None
    )
    child_ids, partner_ids = (tuple(lat.id_of(n) for n in c.members) for c in (child, partner))
    real = getattr(sums, f"pair_{name}_ids")

    def swapped(lat, ids):
        if ids == child_ids:
            return partner_ids
        if ids == partner_ids:
            return child_ids
        return real(lat, ids)

    monkeypatch.setattr(sums, f"pair_{name}_ids", swapped)
    report = verify(rs)
    other = "nonradical" if name == "nonabelian" else "nonabelian"
    assert not report.verdicts[f"{name}_involution"]
    assert report.verdicts[f"{other}_involution"]
    assert _counterexample(rs, report, name) == child
    assert f"{other} pairing" not in report.notes


def test_each_domain_chain_is_paired_once(monkeypatch):
    rs = system("B", 3)
    calls = Counter()
    for name in ("nonabelian", "nonradical"):
        real = getattr(sums, f"pair_{name}_ids")

        def counting(lat, ids, real=real, name=name):
            calls[name] += 1
            return real(lat, ids)

        monkeypatch.setattr(sums, f"pair_{name}_ids", counting)
    report = verify(rs)
    assert report.ok
    assert dict(calls) == report.involution_checks


def test_unequal_parity_counts_fail_with_a_note():
    # The tally is [odd, even] per stabilizer bitmask.
    stats = _InvolutionStats([4, 3])
    assert (stats.checked, stats.failed) == (7, 1)
    assert stats.note("nonradical", ideal_lattice(system("A", 2))) == (
        " The nonradical pairing's domain has 3 even-length and 4 odd-length chains."
    )
    assert _InvolutionStats([4, 4]).note("nonradical", None) == ""


def _swap_nil_ids(lat):
    nil_id = list(lat.nil_id)
    nil_id[1], nil_id[2] = nil_id[2], nil_id[1]
    lat.nil_id = tuple(nil_id)


def _repeat_nil_id(lat):
    nil_id = list(lat.nil_id)
    nil_id[1] = nil_id[3]
    lat.nil_id = tuple(nil_id)


def _flip_normalizer_bit(lat):
    norm_bits = list(lat.normalizer_bits)
    norm_bits[lat.nil_id[1]] ^= 0b10
    lat.normalizer_bits = tuple(norm_bits)


def _drop_radical_member(lat):
    lat.radical_ids = lat.radical_ids[1:]


def _drop_container(lat):
    containers = list(lat.containers)
    containers[lat.nil_id[3]] &= ~(1 << lat.nil_id[1])
    lat.containers = tuple(containers)


@pytest.mark.parametrize(
    "breaks, named",
    [
        (_swap_nil_ids, "at type [1]"),
        (_repeat_nil_id, "at type [1]"),
        (_flip_normalizer_bit, "at type [1]"),
        (_drop_radical_member, "at ideal {2, 4, 6, 7, 8}"),
        (_drop_container, "at the pair of types [1] and [1, 2]"),
    ],
    ids=[
        "swap_nil_ids",
        "repeat_nil_id",
        "flip_normalizer_bit",
        "drop_radical_member",
        "drop_container",
    ],
)
def test_cr_cp_table_fault_is_recorded_not_raised(monkeypatch, breaks, named):
    # A fresh lattice is broken, never the cached one.  Types index the
    # tables as bitmasks: 1 is [1], 2 is [2] and 3 is [1, 2].
    rs = system("B", 3)
    lat = IdealLattice(rs)
    breaks(lat)
    monkeypatch.setattr(sums, "ideal_lattice", lambda _: lat)
    report = verify(rs)
    assert not report.verdicts["cr_cp_bijection"]
    assert f" The CR/CP correspondence fails {named}." in report.notes
    monkeypatch.undo()
    assert verify(rs).verdicts["cr_cp_bijection"]


def test_false_containment_is_recorded_not_raised(monkeypatch):
    # The walk follows the faulty table into a sequence that is no chain;
    # the note still names it.
    rs = system("B", 3)
    lat = IdealLattice(rs)
    assert lat.masks[3] & ~lat.masks[4]
    containers = list(lat.containers)
    containers[3] |= 1 << 4
    lat.containers = tuple(containers)
    monkeypatch.setitem(ideals._LATTICE_CACHE, rs.spec, lat)
    report = verify(rs)
    assert not report.verdicts["nonabelian_involution"]
    match = re.search(r"The nonabelian pairing breaks a law at (\[[^\]]*\])\.", report.notes)
    assert match and f"{lat.ideal(3)} < {lat.ideal(4)}" in match.group(1)
