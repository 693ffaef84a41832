import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nilchain import Chain, ComplexKind, Ideal, enumerate_chains
from nilchain.cli import parse_chain_literal, run

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


def test_pair_domain_error(capsys):
    code, _ = invoke(
        "pair", "--type", "A", "--rank", "2", "--complex", "ci-minus-ca", "--chain", "{2}",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "abelian" in err


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


def _module_main(*argv):
    """Run ``python -m nilchain`` in a fresh process against this checkout's sources."""
    env = dict(os.environ)
    env.pop("NILCHAIN_MAX_CHAINS", None)
    src = str(Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "nilchain", *argv], capture_output=True, text=True, env=env
    )


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
