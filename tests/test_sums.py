import io
import json
import math
import os
import re
import time
import tracemalloc
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
from nilchain import chains, cli, ideals, pairings, root_system, sums
from nilchain.chains import (
    chains_starting_at,
    check_ci_bound,
    complex_family,
    count_index_chains,
    iter_index_chains,
    tally_chains,
)
from nilchain.cli import parse_chain_literal
from nilchain.ideals import IdealLattice, ideal_lattice
from nilchain.pairings import LAWS
from nilchain.sums import ComplexSummary, VerificationReport, _InvolutionStats

from conftest import ACCEPTANCE_SYSTEMS, system
from oracles import length_histogram_by_dicts, parabolic_chain_histogram

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


def test_report_records_are_named_tuples(a2):
    # Built by keyword, read by field name, and immutable.
    report = verify(a2)
    summary = report.complexes["CP"]
    rebuilt = ComplexSummary(
        kind=ComplexKind.CP, total=summary.total, by_length=summary.by_length, sum=summary.sum
    )
    assert rebuilt == summary and isinstance(summary, tuple)
    assert (summary.kind, summary.total, summary.by_length) == (ComplexKind.CP, 6, {0: 1, 1: 3, 2: 2})
    assert summary.sum == A2_VECTOR
    fields = dict(
        family="A",
        rank=2,
        complexes=report.complexes,
        closed_form=report.closed_form,
        verdicts=report.verdicts,
        involution_checks=report.involution_checks,
        elapsed_ms=report.elapsed_ms,
        notes=report.notes,
    )
    assert VerificationReport(**fields) == report and report.ok
    assert VerificationReport(**fields).to_dict() == report.to_dict()
    assert (report.family, report.rank, report.closed_form) == ("A", 2, A2_VECTOR)
    with pytest.raises(AttributeError):
        report.notes = ""
    with pytest.raises(AttributeError):
        summary.total = 0


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
    monkeypatch.setattr(ideals, "_ideal_tables", built)
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


def test_ci_guard_refuses_before_the_addition_table(monkeypatch, capsys):
    # A40 has 820 positive roots; the addition table would compare all
    # their pairs, and the CI bound needs none of it.
    def built(*args):
        raise AssertionError("construction started")

    monkeypatch.setattr(root_system, "_addition_table", built)
    a40 = build_root_system(RootSystemSpec("A", 40), allow_large=True)
    with pytest.raises(ChainLimitExceeded, match="at least") as exc:
        verify(a40)
    assert exc.value.count == 2**820
    argv = ["verify", "--type", "A", "--rank", "40", "--allow-large"]
    assert cli.run(argv, out=io.StringIO()) == 2
    assert capsys.readouterr().err.startswith(
        f"error: enumeration exceeds the chain guard: at least {2**820} > "
    )
    with pytest.raises(AssertionError, match="construction started"):
        a40.add_roots(0, 1)


def test_ci_bound_of_a_huge_type_builds_no_wide_int(digit_limits):
    # A300000 has 45,000,150,000 positive roots.  ``2^N > max_chains`` is read
    # from the bit length of ``max_chains``, so the 5.6 GB int ``2^N`` is never
    # built, and the refusal names the bound by its exponent, at any digit limit.
    spec = RootSystemSpec("A", 300_000)
    for _ in digit_limits():
        tracemalloc.start()
        try:
            with pytest.raises(ChainLimitExceeded, match=r"at least 2\^45000150000 > 100000000 chains") as exc:
                check_ci_bound(spec, ComplexKind.CI, 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.count is None
        assert peak < 100_000, peak
    # The comparison is exact at the boundary: A3 has 2^6 CI chains at least.
    a3 = RootSystemSpec("A", 3)
    check_ci_bound(a3, ComplexKind.CI, 64)
    with pytest.raises(ChainLimitExceeded, match="at least 64 > 63 chains") as exc:
        check_ci_bound(a3, ComplexKind.CI, 63)
    assert exc.value.count == 64


def test_ci_guard_names_a_bound_past_the_cap(capsys, digit_limits):
    # A bound ``2^N`` below the cap ``2^COUNT_BITS`` is named in digits, as
    # for A63 (N = 2,016); past it, as for A64 (N = 2,080) and A80 (N =
    # 3,240), it is named as a power of two and not built.  Both hold at
    # every digit limit.
    guard = (
        "error: enumeration exceeds the chain guard: at least {} > {} chains; "
        "raise --max-chains (or NILCHAIN_MAX_CHAINS) to proceed"
    )
    for _ in digit_limits():
        for rank, count, shown in [(63, 1 << 2016, str(1 << 2016)), (64, None, "2^2080")]:
            with pytest.raises(ChainLimitExceeded) as exc:
                check_ci_bound(RootSystemSpec("A", rank), ComplexKind.CI, 10**8)
            assert exc.value.count == count
            assert f"error: {exc.value}" == guard.format(shown, 10**8)
        a80 = build_root_system(RootSystemSpec("A", 80), allow_large=True)
        with pytest.raises(ChainLimitExceeded, match=r"at least 2\^3240 > ") as exc:
            verify(a80)
        assert exc.value.count is None
        argv = ["verify", "--type", "A", "--rank", "80", "--allow-large"]
        assert cli.run(argv, out=io.StringIO()) == 2
        assert capsys.readouterr().err == guard.format("2^3240", sums.DEFAULT_MAX_CHAINS) + "\n"


@pytest.mark.parametrize("broken", [False, True])
def test_verify_tallies_each_complex_once(monkeypatch, a2, broken):
    # The boolean-interval buckets are read from the CP tally the sums use,
    # so a fault in that tally fails the verdict.
    cp_ids = complex_family(a2, ComplexKind.CP)[0]
    calls = []

    def tally(ids, succ, bits, total):
        calls.append(ids)
        signed, by_length = tally_chains(ids, succ, bits, total)
        if broken and ids == cp_ids:
            signed[ids[0]][ids[0]] += 2
        return signed, by_length

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
                assert tally_chains(ids, succ, bits)[1] == histogram, (family, rank, kind)
    for rank in range(5, 9):
        assert boolean_interval_check(system("A", rank)), rank


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 7, 8, 31, 32, 63, 64, 65])
def test_packed_histogram_of_a_total_order_and_an_antichain(m):
    # A total order of m members has 2^m chains, one per subset, so the lane
    # width sits on a power-of-two boundary and lane k must hold C(m, k).
    # An antichain has the empty chain and m singletons.
    ids = tuple(range(m))
    bits = (0,) * m
    total_order = tuple(tuple(range(i + 1, m)) for i in ids)
    assert count_index_chains(ids, total_order) == 2**m
    binomials = {k: math.comb(m, k) for k in range(m + 1)}
    for total in (None, 2**m):
        assert tally_chains(ids, total_order, bits, total)[1] == binomials
    antichain = ((),) * m
    assert count_index_chains(ids, antichain) == m + 1
    expected = {0: 1, 1: m} if m else {0: 1}
    assert tally_chains(ids, antichain, bits)[1] == expected


@pytest.mark.parametrize("family,rank", ACCEPTANCE_SYSTEMS + [("A", 4)])
def test_packed_histograms_match_per_member_dicts(monkeypatch, family, rank):
    rs = system(family, rank)
    counted = []
    real_count = chains.count_index_chains

    def count(ids, succ):
        counted.append(ids)
        return real_count(ids, succ)

    monkeypatch.setattr(chains, "count_index_chains", count)
    for kind in ComplexKind:
        ids, succ, bits = complex_family(rs, kind)
        expected = length_histogram_by_dicts(ids, succ)
        assert tally_chains(ids, succ, bits)[1] == expected, kind
        # Under a guard, the tally is given the guard's total, not a recount.
        del counted[:]
        summary = sums._summarize(rs, kind, sums.DEFAULT_MAX_CHAINS).summary
        assert summary.by_length == expected, kind
        assert len(counted) == 1, kind


def test_counted_histograms_of_large_abelian_complexes():
    # Totals counted by the per-member dicts before lengths were packed.
    pinned = {
        ("E", 8): (166_575_131_683_487_744, 36),
        ("A", 10): (1_505_436_315_984_264_704, 30),
    }
    for (family, rank), (total, longest) in pinned.items():
        rs = build_root_system(RootSystemSpec(family, rank), allow_large=True)
        ids, succ, bits = complex_family(rs, ComplexKind.CA)
        by_length = tally_chains(ids, succ, bits)[1]
        assert sum(by_length.values()) == total, (family, rank)
        assert max(by_length) == longest and by_length[longest] > 0, (family, rank)
        if family == "E":
            assert by_length == length_histogram_by_dicts(ids, succ)


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


def _walk_mode(monkeypatch, workers):
    """Split every CI walk across ``workers`` forked workers; 1 walks in-process."""
    monkeypatch.setattr(sums, "FORK_MIN_CHAINS", 0)
    monkeypatch.setattr(sums, "_worker_count", lambda: workers)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _verify_each_way(monkeypatch, rs):
    """``verify(rs)`` in-process and split across 2 and 3 forked workers.

    The reports must be identical but for ``elapsed_ms``, and no worker may
    be left; the in-process report is returned.
    """
    reports = []
    for workers in (1, 2, 3):
        with monkeypatch.context() as m:
            _walk_mode(m, workers)
            reports.append(verify(rs))
        _assert_no_child_left()
    docs = [{k: v for k, v in r.to_dict().items() if k != "elapsed_ms"} for r in reports]
    assert docs[1] == docs[0] and docs[2] == docs[0]
    return reports[0]


def test_pairing_wrong_on_one_odd_chain_fails(monkeypatch):
    # Odd chains are reached only as partners of even ones; a wrong value on
    # one of them shows as its even partner failing to pair back.
    rs = system("B", 3)
    target, target_ids = _first_ci_chain(rs, 3, ComplexKind.CR)
    real = sums.pair_nonradical_ids

    def wrong_on_target(lat, ids):
        return ids if ids == target_ids else real(lat, ids)

    monkeypatch.setattr(sums, "pair_nonradical_ids", wrong_on_target)
    report = _verify_each_way(monkeypatch, rs)
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
    report = _verify_each_way(monkeypatch, rs)
    assert not report.verdicts["nonabelian_involution"]
    assert report.verdicts["nonradical_involution"]
    assert _counterexample(rs, report, "nonabelian") == target
    # ``nilchain pair`` shows the partner instead of raising on it.
    monkeypatch.setattr(pairings, "pair_nonabelian_ids", repeating)
    code, text = _pair_command("nonabelian", target)
    lat = ideal_lattice(rs)
    assert code == 1
    assert f"  paired: [{' < '.join(str(lat.ideal(i)) for i in repeated)}]\n" in text
    assert text.endswith(
        "  FAIL  involution\n  ok  length_change_is_one\n  FAIL  stabilizer_preserved\n"
        "  ok  same_domain\n  ok  top_preserved\n"
    )


def test_partner_out_of_order_fails(monkeypatch):
    # The partner holds the members of a CI chain ``(a, s, b)`` as
    # ``(s, a, b)``: it has the right length, top and stabilizer and pairs
    # back, and only the containment test of ``broken_law`` rejects it.
    rs = system("B", 3)
    lat = ideal_lattice(rs)
    ids, succ, _ = complex_family(rs, ComplexKind.CI)

    def stab(chain):
        bits = lat.full_simple_bits
        for i in chain:
            bits &= lat.normalizer_bits[i]
        return bits

    target_ids, partner_ids = next(
        ((a, b), (s, a, b))
        for a, s, b in (c for c in iter_index_chains(ids, succ) if len(c) == 3)
        if not lat.abelian[b] and stab((a, s, b)) == stab((a, b))
    )
    real = sums.pair_nonabelian_ids

    def out_of_order(lat, ids):
        if ids == target_ids:
            return partner_ids
        if ids == partner_ids:
            return target_ids
        return real(lat, ids)

    monkeypatch.setattr(sums, "pair_nonabelian_ids", out_of_order)
    report = verify(rs)
    assert not report.verdicts["nonabelian_involution"]
    assert report.verdicts["nonradical_involution"]
    assert _counterexample(rs, report, "nonabelian").members == tuple(map(lat.ideal, target_ids))
    assert pairings.broken_law(lat, out_of_order, True, target_ids, stab(target_ids)) == (
        "stabilizer_preserved"
    )


def _pair_command(name, chain, *options):
    """Exit status and output of ``nilchain pair`` on a B3 chain."""
    out = io.StringIO()
    complex_ = "ci-minus-ca" if name == "nonabelian" else "ci-minus-cr"
    argv = ["pair", "--type", "B", "--rank", "3", "--complex", complex_, "--chain", str(chain)]
    code = cli.run(argv + list(options), out=out)
    return code, out.getvalue()


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


LAW_BREAKING_PARTNERS = pytest.mark.parametrize(
    "name, outside, partner_of, law",
    [
        ("nonabelian", ComplexKind.CA, _itself, "length_change_is_one"),
        ("nonradical", ComplexKind.CR, _itself, "length_change_is_one"),
        ("nonabelian", ComplexKind.CA, _partner_inside, "same_domain"),
        ("nonradical", ComplexKind.CR, _partner_inside, "same_domain"),
        ("nonabelian", ComplexKind.CA, _partner_with_another_stabilizer, "stabilizer_preserved"),
        ("nonradical", ComplexKind.CR, _partner_with_another_stabilizer, "stabilizer_preserved"),
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


def _swapped_pairing(rs, name, outside, partner_of):
    """A length-2 chain, its law-breaking partner, and the pairing with the two swapped in."""
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

    return child, partner, swapped


@LAW_BREAKING_PARTNERS
def test_partner_breaking_one_law_fails(monkeypatch, name, outside, partner_of, law):
    # Each partner breaks one law and keeps the others: it is a chain that
    # pairs back and, but for the last two cases, has the child's
    # stabilizer.  A pairing that fixes a chain keeps its length; a
    # nonabelian partner from CA has an abelian top, so not the child's; a
    # nonradical partner from CR has only radical members.  A partner with
    # another stabilizer is in the domain, so it is also the real partner of
    # a later chain, which then fails to pair back; the child fails first.
    rs = system("B", 3)
    lat = ideal_lattice(rs)
    child, _, swapped = _swapped_pairing(rs, name, outside, partner_of)
    monkeypatch.setattr(sums, f"pair_{name}_ids", swapped)
    report = _verify_each_way(monkeypatch, rs)
    other = "nonradical" if name == "nonabelian" else "nonabelian"
    assert not report.verdicts[f"{name}_involution"]
    assert report.verdicts[f"{other}_involution"]
    assert _counterexample(rs, report, name) == child
    assert f"{other} pairing" not in report.notes
    child_ids = tuple(lat.id_of(n) for n in child.members)
    stab = sum(1 << (k - 1) for k in chain_stabilizer_type(child))
    assert pairings.broken_law(lat, swapped, name == "nonabelian", child_ids, stab) == law


@LAW_BREAKING_PARTNERS
def test_pair_command_names_the_walks_failure(monkeypatch, name, outside, partner_of, law):
    # Given the walk's counterexample, ``nilchain pair`` exits 1, shows the
    # partner, and fails the broken law and every law tested after it.
    rs = system("B", 3)
    child, partner, swapped = _swapped_pairing(rs, name, outside, partner_of)
    monkeypatch.setattr(sums, f"pair_{name}_ids", swapped)
    monkeypatch.setattr(pairings, f"pair_{name}_ids", swapped)
    counterexample = _counterexample(rs, verify(rs), name)
    code, text = _pair_command(name, counterexample, "--format", "json")
    doc = json.loads(text)
    assert code == 1
    assert doc["input"] == [list(n.root_indices()) for n in child.members]
    assert doc["paired"] == [list(n.root_indices()) for n in partner.members]
    assert [key for key in LAWS if not doc["laws"][key]] == list(LAWS[LAWS.index(law) :])
    if name == "nonabelian":
        assert doc["laws"]["top_preserved"] == doc["laws"]["same_domain"]
    code, text = _pair_command(name, counterexample)
    assert code == 1
    assert f"  paired: {partner}\n" in text
    assert f"  FAIL  {law}\n" in text


@LAW_BREAKING_PARTNERS
def test_failed_human_verify_prints_the_counterexample(monkeypatch, name, outside, partner_of, law):
    # The human report prints the notes before FAILED; the chain literal
    # they name, given to ``nilchain pair``, exits 1 there.
    rs = system("B", 3)
    child, _, swapped = _swapped_pairing(rs, name, outside, partner_of)
    monkeypatch.setattr(sums, f"pair_{name}_ids", swapped)
    monkeypatch.setattr(pairings, f"pair_{name}_ids", swapped)
    out = io.StringIO()
    assert cli.run(["verify", "--type", "B", "--rank", "3"], out=out) == 1
    *_, notes, last = out.getvalue().splitlines()
    assert last == "FAILED"
    match = re.fullmatch(rf"  notes: .* The {name} pairing breaks a law at (\[[^\]]*\])\.", notes)
    assert match, notes
    assert parse_chain_literal(rs, match.group(1)) == child
    assert _pair_command(name, match.group(1))[0] == 1


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


def test_forked_verify_matches_in_process_on_a4(monkeypatch):
    # A4 is the smallest acceptance-sized type over ``FORK_MIN_CHAINS``.
    rs = system("A", 4)
    assert count_index_chains(*complex_family(rs, ComplexKind.CI)[:2]) >= sums.FORK_MIN_CHAINS
    assert _verify_each_way(monkeypatch, rs).ok


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4)])
@pytest.mark.parametrize("workers", [2, 3])
def test_runs_cover_every_ci_chain_once_in_walk_order(family, rank, workers):
    rs = system(family, rank)
    ids, succ, _ = complex_family(rs, ComplexKind.CI)
    starting = chains_starting_at(ids, succ)
    runs = sums._ci_runs(ids, succ, starting, workers)
    assert len(runs) == workers and all(runs)
    parts = [part for run in runs for part in run]
    sizes = [starting[prefix[-1]] if whole else 1 for prefix, whole in parts]
    total = count_index_chains(ids, succ) - 1  # the empty chain is in no part
    assert sum(sizes) == total
    assert max(sizes) <= max(1, total // (4 * workers))
    # Walk order is the order of prefixes, and a part with its extensions
    # is followed by none of them, so the parts' chains are disjoint.
    for (prefix, whole), (later, _) in zip(parts, parts[1:]):
        assert prefix < later
        assert not (whole and later[: len(prefix)] == prefix)
    if total < 10**4:
        walked = [
            prefix + chain
            for prefix, whole in parts
            for chain in iter_index_chains(succ[prefix[-1]] if whole else (), succ)
        ]
        assert walked == list(iter_index_chains(ids, succ))[1:]


def test_forked_walk_pairs_outside_this_process(monkeypatch):
    # Under forking, this process pairs only the chains of the first run.
    rs = system("B", 3)
    calls = Counter()
    for name in ("nonabelian", "nonradical"):
        real = getattr(sums, f"pair_{name}_ids")

        def counting(lat, ids, real=real, name=name):
            calls[name] += 1
            return real(lat, ids)

        monkeypatch.setattr(sums, f"pair_{name}_ids", counting)
    _walk_mode(monkeypatch, 2)
    report = verify(rs)
    _assert_no_child_left()
    assert report.ok
    for name, checked in report.involution_checks.items():
        assert 0 < calls[name] < checked


@pytest.mark.parametrize("workers, run", [(2, 0), (2, 1), (3, 1)])
def test_walk_error_is_raised_as_in_process_and_no_worker_is_left(monkeypatch, workers, run):
    # The pairing raises on one even-length chain of one run: in this
    # process for run 0, else in a worker, whose run is walked again here.
    # Partners are odd, so only the walk itself pairs that chain.  Chains
    # are walked in the order of their id tuples.  When this process
    # raises, each worker stalls once, so only killing them ends the call early.
    rs = system("B", 3)
    lat = ideal_lattice(rs)
    ids, succ, _ = complex_family(rs, ComplexKind.CI)
    runs = sums._ci_runs(ids, succ, chains_starting_at(ids, succ), workers)
    target = next(
        c
        for c in iter_index_chains(ids, succ)
        if c >= runs[run][0][0] and len(c) % 2 == 0 and not lat.abelian[c[-1]]
    )
    assert run + 1 == workers or target < runs[run + 1][0][0]
    real = sums.pair_nonabelian_ids
    here = os.getpid()
    stalled = []

    def raising(lat, ids):
        if ids == target:
            raise ArithmeticError(ids)
        if run == 0 and os.getpid() != here and not stalled:
            stalled.append(ids)
            time.sleep(40)
        return real(lat, ids)

    monkeypatch.setattr(sums, "pair_nonabelian_ids", raising)
    with pytest.raises(ArithmeticError):
        verify(rs)
    _walk_mode(monkeypatch, workers)
    start = time.monotonic()
    with pytest.raises(ArithmeticError):
        verify(rs)
    assert time.monotonic() - start < 30
    _assert_no_child_left()


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


@pytest.mark.parametrize(
    "breaks, named",
    [
        (_swap_nil_ids, "at type [1]"),
        (_repeat_nil_id, "at type [1]"),
        (_flip_normalizer_bit, "at type [1]"),
        (_drop_radical_member, "at ideal {2, 4, 6, 7, 8}"),
    ],
    ids=[
        "swap_nil_ids",
        "repeat_nil_id",
        "flip_normalizer_bit",
        "drop_radical_member",
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
