import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nilchain import (
    Chain,
    ComplexKind,
    Ideal,
    chain_stabilizer_type,
    enumerate_chains,
    enumerate_ideals,
    is_abelian,
    is_radical_member,
    membership,
    normalizer_type,
)
from nilchain import root_system
from nilchain.cli import UsageError, parse_chain_literal, run

from conftest import system


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def test_verify_json_a2():
    code, text = invoke("verify", "--type", "A", "--rank", "2", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert all(doc["verdicts"].values())
    totals = {c["complex"]: c["chain_counts"]["total"] for c in doc["complexes"]}
    assert totals == {"CI": 12, "CA": 6, "CR": 6, "CP": 6}


def test_verify_human_output():
    code, text = invoke("verify", "--type", "B", "--rank", "2")
    assert code == 0
    assert "VERIFIED" in text
    assert "PASS  five_way_identity" in text
    assert "FAIL" not in text


def test_verify_csv_is_by_length_histogram():
    code, text = invoke("verify", "--type", "A", "--rank", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["complex", "length", "count"]
    ci_rows = [r for r in rows[1:] if r[0] == "CI"]
    assert [(int(r[1]), int(r[2])) for r in ci_rows] == [(0, 1), (1, 4), (2, 5), (3, 2)]


def test_roots_table():
    code, text = invoke("roots", "--type", "A", "--rank", "2")
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 4  # header + 3 roots
    assert "alpha_1" in text and "alpha_2" in text


def test_roots_json_round_trip():
    code, text = invoke("roots", "--type", "G", "--rank", "2", "--format", "json")
    doc = json.loads(text)
    rs = system("G", 2)
    assert [tuple(r["coeffs"]) for r in doc["roots"]] == [
        root.coeffs for root in rs.positive_roots
    ]


def test_ideals_a2_flags():
    code, text = invoke("ideals", "--type", "A", "--rank", "2", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert len(doc["ideals"]) == 5
    assert sum(1 for n in doc["ideals"] if n["abelian"]) == 4
    assert sum(1 for n in doc["ideals"] if n["radical"]) == 3
    # Ideal JSON re-parses to an equal value.
    rs = system("A", 2)
    for entry in doc["ideals"]:
        n = Ideal(rs, entry["roots"])
        assert [list(rs.positive_roots[i].coeffs) for i in n.root_indices()] == entry["vectors"]


def test_ideals_filters():
    code, text = invoke("ideals", "--type", "A", "--rank", "2", "--abelian", "--format", "csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 5  # header + 4 abelian ideals
    code, text = invoke("ideals", "--type", "A", "--rank", "2", "--radical", "--format", "csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 4  # header + 3 radical ideals


def test_chains_human_stream():
    code, text = invoke("chains", "--type", "A", "--rank", "2", "--complex", "ca")
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 7  # 6 chains + total line
    assert lines[0] == "[]  length=0  stabilizer={1, 2}"
    assert lines[-1] == "total: 6 chains in CA of A2"


def test_chains_json_round_trip():
    code, text = invoke("chains", "--type", "A", "--rank", "2", "--complex", "ci", "--format", "json")
    assert code == 0
    rs = system("A", 2)
    parsed = [json.loads(line) for line in text.strip().splitlines()]
    rebuilt = [
        Chain(rs, tuple(Ideal(rs, indices) for indices in doc["chain"])) for doc in parsed
    ]
    assert rebuilt == list(enumerate_chains(rs, ComplexKind.CI))
    for doc in parsed:
        assert doc["length"] == len(doc["chain"])


def test_chains_cp_json():
    code, text = invoke("chains", "--type", "A", "--rank", "2", "--complex", "cp", "--format", "json")
    parsed = [json.loads(line) for line in text.strip().splitlines()]
    assert len(parsed) == 6
    assert parsed[0] == {"chain": [], "length": 0, "stabilizer": [1, 2]}


def test_pair_command():
    code, text = invoke(
        "pair", "--type", "A", "--rank", "2", "--complex", "ci-minus-ca",
        "--chain", "{0, 1, 2}", "--format", "json",
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["paired"] == [[2], [0, 1, 2]]
    assert all(doc["laws"].values())


def test_pair_human():
    code, text = invoke(
        "pair", "--type", "A", "--rank", "2", "--complex", "ci-minus-cr", "--chain", "{2}",
    )
    assert code == 0
    assert "paired: [{2} < {0, 1, 2}]" in text


def test_pair_literal_position_error(capsys):
    code, _ = invoke(
        "pair", "--type", "A", "--rank", "2", "--complex", "ci-minus-ca",
        "--chain", "{0, x}",
    )
    assert code == 2
    assert "position 4" in capsys.readouterr().err


def test_pair_literal_index_past_the_digit_limit(digit_limits):
    # A 5,000-digit index has more digits than ``2^COUNT_BITS``, so it is
    # not read as an int: at any int-to-str digit limit it is refused as out
    # of range by its digit count, as any usage error, on one line.
    for _ in digit_limits():
        done = _module_main(
            "pair", "--type", "A", "--rank", "2", "--complex", "ci-minus-ca",
            "--chain", "{0, " + "9" * 5000 + "}",
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (
            "error: invalid chain member: the 5000-digit root index at position 4 "
            "is out of range for A2\n"
        )


def test_pair_domain_error(capsys):
    code, _ = invoke(
        "pair", "--type", "A", "--rank", "2", "--complex", "ci-minus-ca", "--chain", "{2}",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "abelian" in err


def test_pair_output_matches_golden():
    # Both formats of ``pair``, byte for byte, on every domain chain of A2 and
    # G2 for both pairings and on two B3 chains.  Each record keeps the JSON
    # document; its bytes are ``json.dumps(doc, indent=2)`` and a newline.
    lines = (Path(__file__).parent / "data" / "pair_golden.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    cases = [
        [family, rank, complex_, str(chain)]
        for family, rank in (("A", 2), ("G", 2))
        for complex_, outside in (("ci-minus-ca", ComplexKind.CA), ("ci-minus-cr", ComplexKind.CR))
        for chain in enumerate_chains(system(family, rank), ComplexKind.CI)
        if not membership(outside, chain)
    ]
    cases += [
        ["B", 3, "ci-minus-ca", "{0, 1, 2, 3, 4, 5, 6, 7, 8}"],
        ["B", 3, "ci-minus-cr", "{8}"],
    ]
    assert [record["case"] for record in records] == cases
    for record in records:
        family, rank, complex_, chain = record["case"]
        argv = ("pair", "--type", family, "--rank", str(rank), "--complex", complex_, "--chain", chain)
        expected_json = json.dumps(record["json"], indent=2) + "\n"
        assert invoke(*argv, "--format", "json") == (record["exit"], expected_json), chain
        assert invoke(*argv) == (record["exit"], record["human"]), chain


def test_unknown_family_is_usage_error(capsys):
    code, _ = invoke("verify", "--type", "Z", "--rank", "9")
    assert code == 2
    assert "unknown family" in capsys.readouterr().err


def test_gate_and_override():
    code, _ = invoke("roots", "--type", "E", "--rank", "7")
    assert code == 2
    code, text = invoke("roots", "--type", "E", "--rank", "7", "--allow-large")
    assert code == 0
    assert len(text.strip().splitlines()) == 64


def test_max_chains_flag_and_env(monkeypatch, capsys):
    code, _ = invoke("chains", "--type", "A", "--rank", "2", "--complex", "ci", "--max-chains", "5")
    assert code == 2
    assert "chain guard" in capsys.readouterr().err
    monkeypatch.setenv("NILCHAIN_MAX_CHAINS", "5")
    code, _ = invoke("chains", "--type", "A", "--rank", "2", "--complex", "ci")
    assert code == 2
    # The flag wins over the environment.
    code, _ = invoke("chains", "--type", "A", "--rank", "2", "--complex", "ci", "--max-chains", "50")
    assert code == 0
    monkeypatch.setenv("NILCHAIN_MAX_CHAINS", "not-a-number")
    code, _ = invoke("chains", "--type", "A", "--rank", "2", "--complex", "ci")
    assert code == 2


def test_max_chains_env_past_the_digit_limit(monkeypatch, capsys, digit_limits):
    # A 5,000-digit value has more digits than ``2^COUNT_BITS``, so at any
    # int-to-str digit limit it is refused as out of range by its digit
    # count, not read or echoed.
    monkeypatch.setenv("NILCHAIN_MAX_CHAINS", "9" * 5000)
    for _ in digit_limits():
        assert invoke("verify", "--type", "A", "--rank", "2") == (2, "")
        assert capsys.readouterr().err == "error: NILCHAIN_MAX_CHAINS is out of range: a 5000-digit integer\n"
    monkeypatch.setenv("NILCHAIN_MAX_CHAINS", "x" * 3)
    assert invoke("verify", "--type", "A", "--rank", "2") == (2, "")
    assert capsys.readouterr().err == "error: NILCHAIN_MAX_CHAINS must be an integer, got 'xxx'\n"


def test_integer_flags_past_the_digit_limit(monkeypatch, capsys, digit_limits):
    # ``--rank`` and ``--max-chains`` follow the env value's digit rule: a
    # 5,000-digit value is refused as out of range by its digit count, on
    # one short line, at any int-to-str digit limit.
    monkeypatch.delenv("NILCHAIN_MAX_CHAINS", raising=False)
    nines = "9" * 5000
    for _ in digit_limits():
        for argv, name in (
            (["verify", "--type", "A", "--rank", "2", "--max-chains", nines], "--max-chains"),
            (["chains", "--type", "A", "--rank", "2", "--complex", "ci", "--max-chains", nines], "--max-chains"),
            (["verify", "--type", "A", "--rank", nines], "--rank"),
            (["roots", "--type", "A", "--rank", "+" + nines], "--rank"),
        ):
            assert invoke(*argv) == (2, ""), argv
            assert capsys.readouterr().err == f"error: {name} is out of range: a 5000-digit integer\n"
    assert invoke("verify", "--type", "A", "--rank", "2.0") == (2, "")
    assert capsys.readouterr().err == "error: --rank must be an integer, got '2.0'\n"
    assert invoke("verify", "--type", "A", "--rank", "2", "--max-chains", "x") == (2, "")
    assert capsys.readouterr().err == "error: --max-chains must be an integer, got 'x'\n"


def test_counts_of_a_400_digit_rank_print_at_every_digit_limit(monkeypatch, capsys, digit_limits):
    # A 400-digit rank is within the digit rule, and its root count ``N`` has
    # about 800 digits, past the cap ``2^COUNT_BITS``: the size gate names
    # it as at least the cap, and the CI bound ``2^N`` as at least
    # ``2^(2^COUNT_BITS)``, even where the digit limit is 640.
    def generated(*args):
        raise AssertionError("generation started")

    monkeypatch.setattr(root_system, "_generate", generated)
    monkeypatch.delenv("NILCHAIN_MAX_CHAINS", raising=False)
    rank = "9" * 400
    gate = f"error: A{rank} has at least 2^2048 positive roots, above the default gate; "
    bound = (
        "error: enumeration exceeds the chain guard: at least 2^(2^2048) > 100000000 chains; "
        "raise --max-chains (or NILCHAIN_MAX_CHAINS) to proceed\n"
    )
    for _ in digit_limits():
        assert invoke("roots", "--type", "A", "--rank", rank) == (2, "")
        assert capsys.readouterr().err.startswith(gate)
        for command in (["verify"], ["chains", "--complex", "ci"]):
            assert invoke(*command, "--type", "A", "--rank", rank, "--allow-large") == (2, "")
            assert capsys.readouterr().err == bound


def test_ci_refusals_of_a_huge_type_generate_no_root(monkeypatch, capsys, digit_limits):
    # The CI bound 2^N needs only N, the sum of the exponents, so A200 is
    # refused before any of its 20,100 roots is generated, at any digit
    # limit.  The errors keep their order: spec, size gate, chain limit,
    # then the bound.
    def generated(*args):
        raise AssertionError("generation started")

    monkeypatch.setattr(root_system, "_generate", generated)
    monkeypatch.delenv("NILCHAIN_MAX_CHAINS", raising=False)
    a200 = ["--type", "A", "--rank", "200"]
    bound = (
        "error: enumeration exceeds the chain guard: at least 2^20100 > 100000000 chains; "
        "raise --max-chains (or NILCHAIN_MAX_CHAINS) to proceed\n"
    )
    for _ in digit_limits():
        for command in (["verify"], ["chains", "--complex", "ci"]):
            assert invoke(*command, *a200, "--allow-large") == (2, "")
            assert capsys.readouterr().err == bound
            for argv, error in (
                (["--type", "Z", "--rank", "200", "--max-chains", "0"], "unknown family 'Z'"),
                ([*a200, "--max-chains", "0"], "A200 has 20100 positive roots, above the default gate"),
                ([*a200, "--allow-large", "--max-chains", "0"], "--max-chains must be at least 1, got 0"),
            ):
                assert invoke(*command, *argv) == (2, "")
                assert capsys.readouterr().err.startswith("error: " + error)
            monkeypatch.setenv("NILCHAIN_MAX_CHAINS", "0")
            assert invoke(*command, *a200, "--allow-large") == (2, "")
            assert capsys.readouterr().err == "error: NILCHAIN_MAX_CHAINS must be at least 1, got 0\n"
            monkeypatch.delenv("NILCHAIN_MAX_CHAINS")


def test_budget_refusals_of_a_huge_type_generate_no_root(monkeypatch, capsys, digit_limits):
    # The lattice and successor budgets need only the type, so A200 is
    # refused before any of its roots is generated.  Its counts are below
    # the cap ``2^COUNT_BITS`` and A8000's ideal count is past it, so at any
    # digit limit the first are named in digits and the second as at least
    # the cap.
    def generated(*args):
        raise AssertionError("generation started")

    monkeypatch.setattr(root_system, "_generate", generated)
    a200 = ["--type", "A", "--rank", "200", "--allow-large"]
    lattice = f"A200 has {math.comb(402, 201) // 202:,} ideals, over the lattice budget of 250,000"
    pairs = "successor table of A200 considers {:,} member pairs, over its budget of 4,194,304"
    for _ in digit_limits():
        for argv, error in (
            (["ideals", *a200], lattice),
            (["pair", *a200, "--complex", "ci-minus-ca", "--chain", "{20099}"], lattice),
            (["chains", *a200, "--complex", "ca"], "the CA " + pairs.format((2**200 - 1) * (2**199 - 1))),
            (["chains", *a200, "--complex", "cp"], "the CP " + pairs.format(3**200 - 2**201 + 1)),
            (["ideals", "--type", "A", "--rank", "8000", "--allow-large"],
             "A8000 has at least 2^2048 ideals, over the lattice budget of 250,000"),
        ):
            assert invoke(*argv) == (2, ""), argv
            assert capsys.readouterr().err == f"error: {error}\n"


def test_output_determinism():
    first = invoke("verify", "--type", "G", "--rank", "2", "--format", "json")
    second = invoke("verify", "--type", "G", "--rank", "2", "--format", "json")
    a, b = json.loads(first[1]), json.loads(second[1])
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b
    ideals_runs = {invoke("ideals", "--type", "D", "--rank", "4", "--format", "csv")[1] for _ in range(2)}
    assert len(ideals_runs) == 1


def test_csv_rejected_for_nested_commands():
    with pytest.raises(SystemExit) as exc:
        invoke("chains", "--type", "A", "--rank", "2", "--complex", "ci", "--format", "csv")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        invoke("pair", "--type", "A", "--rank", "2", "--complex", "ci-minus-ca",
               "--chain", "{2}", "--format", "csv")
    assert exc.value.code == 2


def test_parse_chain_literal_forms():
    rs = system("A", 2)
    assert parse_chain_literal(rs, "{2} < {0, 2}").members == (
        Ideal(rs, [2]),
        Ideal(rs, [0, 2]),
    )
    # Display form with brackets and loose whitespace round-trips.
    chain = parse_chain_literal(rs, "[{2} < {0, 2} < {0, 1, 2}]")
    assert parse_chain_literal(rs, str(chain)) == chain
    assert parse_chain_literal(rs, "  ").members == ()
    with pytest.raises(ValueError, match="position"):
        parse_chain_literal(rs, "{1 2}")
    with pytest.raises(ValueError, match="position"):
        parse_chain_literal(rs, "<{2}")
    # Only ASCII digits make a root index, and anything else is a usage error.
    for literal in ("{²}", "{٨}"):
        found = f"position 1: expected a root index, found '{literal[1]}'"
        with pytest.raises(UsageError, match=found):
            parse_chain_literal(rs, literal)
        argv = ["pair", "--type", "A", "--rank", "2", "--complex", "ci-minus-ca", "--chain", literal]
        assert invoke(*argv) == (2, "")
    with pytest.raises(ValueError, match="not upper-closed"):
        parse_chain_literal(rs, "{0}")
    with pytest.raises(ValueError, match="strictly increase"):
        parse_chain_literal(rs, "{2} < {2}")


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 3)])
@pytest.mark.parametrize(
    "argv",
    [
        ["roots"],
        ["ideals"],
        ["pair", "--complex", "ci-minus-ca", "--chain", "FULL"],
        ["pair", "--complex", "ci-minus-cr", "--chain", "TOP"],
        ["verify"],
    ],
    ids=["roots", "ideals", "pair-ca", "pair-cr", "verify"],
)
def test_streamed_json_matches_one_shot_dumps(family, rank, argv):
    # Documents are written chunk by chunk; the bytes are those of one
    # json.dumps(doc, indent=2) plus a newline.
    # FULL is the whole positive system, TOP the highest root alone.
    m = system(family, rank).num_positive_roots
    literals = {"FULL": "{" + ", ".join(map(str, range(m))) + "}", "TOP": "{" + str(m - 1) + "}"}
    argv = [literals.get(a, a) for a in argv]
    code, text = invoke(*argv, "--type", family, "--rank", str(rank), "--format", "json")
    assert code == 0
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize(
    "family,rank,flags",
    [("A", 1, ()), ("A", 2, ()), ("B", 3, ()), ("G", 2, ()), ("D", 4, ()), ("E", 6, ()),
     ("F", 4, ("abelian",)), ("B", 5, ("radical",)), ("G", 2, ("abelian", "radical"))],
)
def test_ideals_json_matches_the_document(family, rank, flags):
    # The document the listing stands for, built from the public predicates.
    # G2 has no abelian radical ideal, so its last listing is empty.
    rs = system(family, rank)
    rows = []
    for n in enumerate_ideals(rs):
        abelian, radical = is_abelian(n), not n.is_zero and is_radical_member(n)
        if all({"abelian": abelian, "radical": radical}[flag] for flag in flags):
            rows.append(
                {
                    "roots": list(n.root_indices()),
                    "vectors": [list(rs.positive_roots[r].coeffs) for r in n.root_indices()],
                    "abelian": abelian,
                    "radical": radical,
                    "normalizer": sorted(normalizer_type(n)),
                }
            )
    doc = {"type": family, "rank": rank, "ideals": rows}
    options = [f"--{flag}" for flag in flags]
    code, text = invoke("ideals", "--type", family, "--rank", str(rank), *options, "--format", "json")
    assert code == 0
    assert text == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 3), ("C", 3), ("G", 2)])
@pytest.mark.parametrize("kind", list(ComplexKind), ids=lambda k: k.value)
def test_chains_listing_matches_the_chains(family, rank, kind):
    # Each line built from the chain objects: json.dumps of its document, or
    # the display form with the stabilizer.
    rs = system(family, rank)
    json_lines, human_lines = [], []
    for chain in enumerate_chains(rs, kind):
        stab = sorted(chain_stabilizer_type(chain))
        members = [sorted(m) if kind is ComplexKind.CP else list(m.root_indices()) for m in chain.members]
        json_lines.append(json.dumps({"chain": members, "length": chain.length, "stabilizer": stab}))
        human_lines.append(
            f"{chain}  length={chain.length}  stabilizer={{{', '.join(map(str, stab))}}}"
        )
    human_lines.append(f"total: {len(json_lines)} chains in {kind.name} of {rs.spec}")
    argv = ("chains", "--type", family, "--rank", str(rank), "--complex", kind.value)
    assert invoke(*argv, "--format", "json") == (0, "".join(line + "\n" for line in json_lines))
    assert invoke(*argv) == (0, "".join(line + "\n" for line in human_lines))


def _module_main(*argv):
    """Run ``python -m nilchain`` in a fresh process against this checkout's sources."""
    env = dict(os.environ)
    env.pop("NILCHAIN_MAX_CHAINS", None)
    src = str(Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "nilchain", *argv], capture_output=True, text=True, env=env
    )


def test_import_loads_neither_dataclasses_nor_inspect():
    # The records are written out, so importing the package and its CLI
    # loads neither module (nor the ``ast``, ``dis`` and ``tokenize`` they pull in).
    src = str(Path(__file__).parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import nilchain, nilchain.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_module_entry_point_exit_codes():
    done = _module_main("verify", "--type", "A", "--rank", "2", "--format", "json")
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    doc.pop("elapsed_ms")
    golden = json.loads((Path(__file__).parent / "data" / "a2_report.json").read_text())
    assert doc == golden

    done = _module_main("verify", "--type", "F", "--rank", "4")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: enumeration exceeds the chain guard")
