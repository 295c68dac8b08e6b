"""CLI: subcommands, exit codes, report formats, reproducibility."""

import json

import pytest

from rankmetric.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_json(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--q", "2", "--m", "4", "--n", "4", "--d", "3", "--tau", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bound1"]["exact_ratio"] == "35/1"
    assert doc["bound2"]["anticode_sum"] == "36"
    assert doc["schema"] == "rankmetric-bounds-report-v1"


def test_bounds_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "bounds", "--q", "2", "--m", "4", "--n", "4", "--d", "3", "--tau", "2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].strip() == "rankmetric-bounds-csv-v1"
    header = lines[1].split(",")
    values = lines[2].split(",")
    row = dict(zip(header, values))
    assert row["bound1_guarantee"] == "35"
    assert row["bound2_anticode_sum"] == "36"
    assert row["singleton"] == "256"


def test_bounds_precondition_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "bounds", "--q", "2", "--m", "4", "--n", "4", "--d", "3", "--tau", "9"
    )
    assert code == 2
    assert "tau" in err
    code, out, err = run_cli(
        capsys, "bounds", "--q", "6", "--m", "4", "--n", "4", "--d", "3", "--tau", "2"
    )
    assert code == 2 and out == ""
    assert "prime power" in err


def test_usage_error_exit_1(capsys):
    code, _, _ = run_cli(capsys, "bounds", "--q", "2", "--nonsense")
    assert code == 1
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_bounds_byte_identical(capsys):
    args = ("bounds", "--q", "2", "--m", "6", "--n", "6", "--d", "3", "--tau", "2")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_witness_bound1(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    code, _, _ = run_cli(
        capsys,
        "witness", "bound1", "--q", "2", "--n", "4", "--k", "2", "--tau", "2",
        "--out", str(out_file),
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["verified"] is True
    assert doc["claimed_size"] == "35"


def test_witness_bound3_and_translate(capsys):
    code, out, _ = run_cli(
        capsys, "witness", "bound3", "--q", "2", "--m", "6", "--n", "6", "--d", "3", "--tau", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] and doc["claimed_size"] == "16"
    code, out, _ = run_cli(
        capsys,
        "witness", "bound3", "--q", "2", "--m", "6", "--n", "6", "--d", "3", "--tau", "2",
        "--translate", "0",
    )
    assert code == 0
    assert json.loads(out)["meta"]["translate"] == 0


def test_witness_alt(capsys):
    code, out, _ = run_cli(
        capsys, "witness", "alt", "--q", "2", "--n", "4", "--d", "3", "--tau", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["coset_total"] == 525


def test_witness_precondition_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "witness", "bound3", "--q", "2", "--m", "4", "--n", "4", "--d", "4", "--tau", "3"
    )
    assert code == 2
    assert "tau" in err


def test_witness_deterministic_files(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ("witness", "bound1", "--q", "2", "--n", "4", "--k", "1", "--tau", "2")
    run_cli(capsys, *args, "--out", str(f1))
    run_cli(capsys, *args, "--out", str(f2))
    assert f1.read_bytes() == f2.read_bytes()


def test_oracle_max(capsys):
    code, out, _ = run_cli(
        capsys,
        "oracle", "max", "--q", "2", "--m", "4", "--n", "4", "--k", "2", "--tau", "2",
        "--mode", "exhaustive",
    )
    assert code == 0
    doc = json.loads(out)
    assert 35 <= doc["ell"] <= 36
    assert doc["exhaustive"] is True
    assert isinstance(doc["elapsed_ms"], int)


def test_oracle_max_deterministic_modulo_elapsed(capsys):
    args = (
        "oracle", "max", "--q", "2", "--m", "2", "--n", "2", "--k", "1", "--tau", "1",
        "--mode", "random", "--seed", "3", "--trials", "40",
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed_ms"), d2.pop("elapsed_ms")
    assert d1 == d2


def test_oracle_list(capsys):
    received = json.dumps([[0, 0, 0, 0]] * 4)
    code, out, _ = run_cli(
        capsys,
        "oracle", "list", "--q", "2", "--m", "4", "--n", "4", "--k", "2", "--tau", "2",
        "--received", received,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 1 and doc["sphere_counts"] == [1, 0, 0]


def test_oracle_list_requires_received(capsys):
    code, _, err = run_cli(
        capsys, "oracle", "list", "--q", "2", "--m", "4", "--n", "4", "--k", "2", "--tau", "2"
    )
    assert code == 2
    assert "received" in err


@pytest.mark.parametrize(
    "extra",
    [
        ("list", "--tau", "2", "--received", "[[0,0,0,0],[1,0,0,0]]"),
        ("list", "--tau", "7", "--received", "[[0,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]]"),
        ("list", "--tau", "-1", "--received", "[[0,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]]"),
        ("max", "--tau", "7"),
        ("max", "--tau", "-1"),
    ],
)
def test_oracle_rejects_bad_input_exit_2(capsys, extra):
    action, *rest = extra
    code, out, err = run_cli(
        capsys, "oracle", action, "--q", "2", "--m", "4", "--n", "4", "--k", "2", *rest
    )
    assert code == 2 and out == ""
    assert "length" in err or "tau" in err


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"q": 2, "ambient": 4, "dim": 2, "min_subspace_distance": 4}, "words"),
        ({"q": 2, "ambient": "4", "dim": 2, "min_subspace_distance": 4, "words": []}, "ambient"),
        ({"q": 2, "ambient": 4, "dim": 2, "min_subspace_distance": 4, "words": [{"ambient": 4}]}, "basis"),
        ({"q": 2, "ambient": 4, "dim": 1, "min_subspace_distance": 2,
          "words": [{"ambient": 4, "basis": [[1, 0, "x", 0]]}]}, "basis"),
        ([1, 2, 3], "q"),
    ],
)
def test_construct_crc_malformed_file_exit_2(capsys, tmp_path, doc, field):
    good = tmp_path / "good.json"
    assert run_cli(capsys, "construct", "cdc", "--q", "2", "--n", "4", "--tau", "2", "--d", "4",
                   "--out", str(good))[0] == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for m_file, n_file in ((bad, good), (good, bad)):
        code, out, err = run_cli(
            capsys, "construct", "crc", "--m-file", str(m_file), "--n-file", str(n_file)
        )
        assert code == 2 and out == ""
        assert repr(field) in err and "Traceback" not in err


def test_construct_cdc_and_crc_pipeline(capsys, tmp_path):
    m_file, n_file = tmp_path / "M.json", tmp_path / "N.json"
    for path in (m_file, n_file):
        code, _, _ = run_cli(
            capsys,
            "construct", "cdc", "--q", "2", "--n", "6", "--tau", "2", "--d", "4",
            "--out", str(path),
        )
        assert code == 0
    doc = json.loads(m_file.read_text())
    assert doc["type"] == "constant_dimension" and len(doc["words"]) == 16
    code, out, _ = run_cli(
        capsys, "construct", "crc", "--m-file", str(m_file), "--n-file", str(n_file)
    )
    assert code == 0
    crc = json.loads(out)
    assert crc["type"] == "constant_rank"
    assert len(crc["words"]) == 16 and crc["min_rank_distance"] == 4


def test_construct_cdc_odd_and_theorem8(capsys):
    code, out, _ = run_cli(
        capsys,
        "construct", "cdc-odd", "--q", "2", "--ambient", "6", "--tau", "2", "--d", "3",
        "--variant", "plus",
    )
    assert code == 0
    assert len(json.loads(out)["words"]) == 16
    code, out, _ = run_cli(
        capsys,
        "construct", "crc-theorem8", "--q", "2", "--m", "6", "--n", "6", "--d", "3", "--tau", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["words"]) == 16 and doc["rank"] == 2


def test_construct_precondition_exit_2(capsys):
    code, _, _ = run_cli(
        capsys, "construct", "cdc", "--q", "2", "--n", "6", "--tau", "2", "--d", "3"
    )
    assert code == 2


def test_regions_csv(capsys):
    code, out, _ = run_cli(capsys, "regions", "--grid", "0.25")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].strip() == "rankmetric-regions-csv-v1"
    assert lines[1].split(",") == ["delta", "tau_bmd_over_n", "tau_j_over_n"]
    row = dict(zip(lines[1].split(","), lines[4].split(",")))
    assert row["delta"] == "3/4" and float(row["tau_j_over_n"]) == pytest.approx(0.5)


def test_regions_with_finite_columns(capsys):
    code, out, _ = run_cli(capsys, "regions", "--grid", "0.25", "--n", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert "tau_j_finite" in lines[1]
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert row["d"] == "2"  # delta = 1/4, n = 8


def test_verify_selected_criteria(capsys):
    code, out, _ = run_cli(capsys, "verify", "--criteria", "1,2,12")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 3
    assert all(ln.startswith("PASS") for ln in lines)
