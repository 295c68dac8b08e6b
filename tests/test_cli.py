"""CLI: subcommands, exit codes, report formats, reproducibility."""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rankmetric
from rankmetric import cli
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


@pytest.fixture
def int_digit_limit():
    """``sys.set_int_max_str_digits`` for one test, restored after it."""
    limit = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv,value",
    [
        (("--m", "3000", "--n", "3000", "--d", "3", "--tau", "1"), "singleton = 2^8994000"),
        (("--m", "1000", "--n", "1000", "--d", "999", "--tau", "998"), "ball_volume >= 2^998998"),
    ],
)
def test_bounds_refuses_integers_too_long_to_write_at_once(capsys, int_digit_limit, argv, value):
    int_digit_limit(4300)  # Python's default
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bounds", "--q", "2", *argv)
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert value in err and "limit of 4300" in err


@pytest.mark.parametrize(
    "argv,field",
    [
        # singleton 2^600 and the sphere bound 2^2970 are short, the fractions are not
        (("--m", "300", "--n", "300", "--d", "299", "--tau", "5"), "the denominator of bound1.exact_ratio"),
        (("--m", "4", "--n", "4", "--d", "3", "--tau", "1", "--epsilon", "1e-4300"), "the denominator of epsilon"),
    ],
)
def test_bounds_refuses_fractions_too_long_to_write(capsys, int_digit_limit, argv, field):
    int_digit_limit(4300)  # Python's default
    for fmt in ("json", "csv"):
        code, out, err = run_cli(capsys, "bounds", "--q", "2", *argv, "--format", fmt)
        assert code == 2 and out == ""
        assert f"{field} has more decimal digits than the limit of 4300" in err


def test_bounds_fraction_refusal_matches_the_writer(capsys, int_digit_limit):
    # 10^4299 has 4300 decimal digits and 10^4300 has 4301
    int_digit_limit(4300)
    argv = ["bounds", "--q", "2", "--m", "4", "--n", "4", "--d", "3", "--tau", "1", "--epsilon"]
    code, out, _ = run_cli(capsys, *argv, "1e-4299")
    assert code == 0 and json.loads(out)["epsilon"] == "1/1" + "0" * 4299
    assert run_cli(capsys, *argv, "1e-4300")[0] == 2


def test_bounds_digit_refusal_matches_the_writer(capsys, int_digit_limit):
    # 2^2126 has 640 decimal digits and 2^2127 has 641: under a limit of 640
    # the first report prints and the second is refused
    int_digit_limit(640)
    codes = {
        m: run_cli(capsys, "bounds", "--q", "2", "--m", str(m), "--n", "1", "--d", "1", "--tau", "0")[0]
        for m in (2126, 2127)
    }
    assert codes == {2126: 0, 2127: 2}


def test_bounds_large_q(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--q", str(10**18 + 3), "--m", "4", "--n", "4", "--d", "3", "--tau", "1"
    )
    assert code == 0 and json.loads(out)["params"]["q"] == 10**18 + 3
    code, out, err = run_cli(
        capsys, "bounds", "--q", str(10**25), "--m", "4", "--n", "4", "--d", "3", "--tau", "1"
    )
    assert code == 2 and out == "" and "too large" in err


def test_usage_error_exit_1(capsys):
    code, _, _ = run_cli(capsys, "bounds", "--q", "2", "--nonsense")
    assert code == 1
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_main_builds_one_parser(capsys, monkeypatch):
    calls = [
        "bounds --q 2 --m 4 --n 4 --d 3 --tau 2".split(),
        ["bounds", "--q", "2"],
        ["oracle", "list", "--q", "2", "--m", "4", "--n", "4", "--k", "2", "--tau", "2",
         "--received", json.dumps([[1, 0, 0, 0]] * 4)],
    ]

    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, re.sub(r'"elapsed_ms": \d+', "", out), err

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    fresh = []
    for argv in calls:
        cli._shared_parser.cache_clear()
        fresh.append(run(argv))
    builds.clear()
    cli._shared_parser.cache_clear()
    shared = [run(argv) for argv in calls]
    assert len(builds) == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 1, 0]
    assert cli.build_parser() is not cli.build_parser()


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
    "received",
    ["5", "null", "[5,6]", '{"a": 1}', '[["1",0],[0,0]]', "[[0.5,0],[0,0]]", "[[true,0],[0,0]]", "xx", b"[[\xff]]"],
)
@pytest.mark.parametrize("source", ["--received", "--received-file"])
def test_oracle_list_rejects_malformed_received_word(capsys, tmp_path, received, source):
    # a JSON syntax or UTF-8 error names the option and the file; the rest name the received word
    syntax = received in ("xx", b"[[\xff]]")
    if source == "--received-file":
        path = tmp_path / "received.json"
        path.write_bytes(received if isinstance(received, bytes) else received.encode())
        received, named = str(path), f"error: --received-file {str(path)!r}: "
    else:
        # a non-UTF-8 argument reaches sys.argv with surrogate escapes
        received = os.fsdecode(received) if isinstance(received, bytes) else received
        named = "error: --received: "
    code, out, err = run_cli(
        capsys, "oracle", "list", "--q", "2", "--m", "2", "--n", "2", "--k", "1", "--tau", "1", source, received
    )
    assert code == 2 and out == "" and "Traceback" not in err
    assert (err.startswith(named) if syntax else "list of lists of integer" in err)


@pytest.mark.parametrize(
    "received, entry",
    [("[[1],[0,1],[],[0,0,1]]", "entry 0 has 1"), ("[[1,0,0,0],[0,1,0,0],[],[0,0,1,0]]", "entry 2 has 0"),
     ("[[1,0,0,0],[0,1,0,0,0],[0,0,0,0],[0,0,1,0]]", "entry 1 has 5")],
)
@pytest.mark.parametrize("source", ["--received", "--received-file"])
def test_oracle_list_rejects_received_entries_of_the_wrong_length(capsys, tmp_path, received, entry, source):
    # a short entry was zero-padded and echoed back as a different word
    if source == "--received-file":
        path = tmp_path / "received.json"
        path.write_text(received)
        received = str(path)
    code, out, err = run_cli(
        capsys, "oracle", "list", "--q", "2", "--m", "4", "--n", "4", "--k", "2", "--tau", "2", source, received
    )
    assert code == 2 and out == ""
    assert f"received word {entry} coordinates, need m=4" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"q": 2, "ambient": 4, "dim": 2, "min_subspace_distance": 4}, "words"),
        ({"q": 2, "ambient": "4", "dim": 2, "min_subspace_distance": 4, "words": []}, "ambient"),
        ({"q": 2, "ambient": 4, "dim": 2, "min_subspace_distance": 4, "words": [{"ambient": 4}]}, "basis"),
        ({"q": 2, "ambient": 4, "dim": 1, "min_subspace_distance": 2,
          "words": [{"ambient": 4, "basis": [[1, 0, "x", 0]]}]}, "basis"),
        ([1, 2, 3], "q"),
        (b"xx", None),  # a JSON syntax error or an invalid UTF-8 file names the option and the path
        (b'{"q": 2, "ambient": \xff}', None),
    ],
)
def test_construct_crc_malformed_file_exit_2(capsys, tmp_path, doc, field):
    good = tmp_path / "good.json"
    assert run_cli(capsys, "construct", "cdc", "--q", "2", "--n", "4", "--tau", "2", "--d", "4",
                   "--out", str(good))[0] == 0
    bad = tmp_path / "bad.json"
    bad.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    for option, (m_file, n_file) in (("--m-file", (bad, good)), ("--n-file", (good, bad))):
        code, out, err = run_cli(
            capsys, "construct", "crc", "--m-file", str(m_file), "--n-file", str(n_file)
        )
        assert code == 2 and out == "" and "Traceback" not in err
        assert (repr(field) in err if field else err.startswith(f"error: {option} {str(bad)!r}: "))


def test_unreadable_input_file_names_the_option_exit_1(capsys, tmp_path):
    # a file that cannot be opened is an OSError (exit 1, the contract), named
    # like a malformed file: the option, the path, then the system's message
    missing = str(tmp_path / "nope.json")
    good = tmp_path / "good.json"
    assert run_cli(capsys, "construct", "cdc", "--q", "2", "--n", "4", "--tau", "2", "--d", "4",
                   "--out", str(good))[0] == 0
    runs = [
        ("--received-file", ["oracle", "list", "--q", "2", "--m", "2", "--n", "2", "--k", "1", "--tau", "1",
                             "--received-file", missing]),
        ("--m-file", ["construct", "crc", "--m-file", missing, "--n-file", str(good)]),
        ("--n-file", ["construct", "crc", "--m-file", str(good), "--n-file", missing]),
    ]
    for option, argv in runs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: {option} {missing!r}: [Errno 2] No such file or directory: {missing!r}\n"


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


# SHA-256 of stdout, recorded at commit 1fe3a5b, before constant-rank words were built by ``matfq._combine``
_CONSTRUCTION_SHA256 = {
    "construct crc-theorem8 --q 2 --m 6 --n 6 --d 3 --tau 2":
        "3235a60321f73cabd96ce0628caa074d33467fce27c97dcf473308af8850976c",
    "construct crc-theorem8 --q 2 --m 6 --n 6 --d 4 --tau 2":
        "6055e6a5a4c65a50f24c389b9884e60cb65457b5254fa9502c9c830afd17eb35",
    "construct crc-theorem8 --q 2 --m 8 --n 6 --d 3 --tau 2":
        "1af6115f3ccdbcce55828c83ff3ec1569ea6320e8a4936e3a0e15edfaee8937c",
    "construct crc-theorem8 --q 3 --m 6 --n 5 --d 3 --tau 2":
        "81b647714fe80d17e0ba41d927c6cb0180f5b59e27bd131f329834b83e389661",
    "construct crc-theorem8 --q 3 --m 4 --n 4 --d 4 --tau 2":
        "cae48e9d348eec486fc73fb79bd991dec85f3c091baf37cceeefb5bb3aff7743",
    "construct cdc-odd --q 2 --ambient 6 --tau 2 --d 3 --variant minus":
        "bbe30a415f1053b728633936f035df98fdb5fe23499900cd9f2f194e7fdad315",
    "construct cdc --q 3 --n 4 --tau 2 --d 4":
        "6b06226b84d833576c454bf6958d459c8c59cfa51e01f427a7a3083b581206ac",
    "witness bound3 --q 2 --m 6 --n 6 --d 3 --tau 2 --translate 1":
        "8a5293703781527d601ff22a96fa18664ebce2464bdcbb1c700fc715089ffdfc",
    "witness bound3 --q 3 --m 5 --n 5 --d 3 --tau 2":
        "c8424417cd57473ec2cb77d3e681b852457a99095ed2f05b45874b6adaf4d112",
}


@pytest.mark.parametrize("command", list(_CONSTRUCTION_SHA256))
def test_construction_bytes_are_pinned(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == _CONSTRUCTION_SHA256[command]


def test_crc_theorem8_guard_weighs_the_kept_words(capsys):
    # |C| = 16 words; the ambient-m Gabidulin code behind them has 2^56, and
    # refused the command (exit 2) while the guard weighed all of them
    code, out, err = run_cli(capsys, *"construct crc-theorem8 --q 2 --m 32 --n 8 --d 7 --tau 4".split())
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert (doc["m"], doc["n"], doc["rank"], len(doc["words"])) == (32, 8, 4, 16)


def test_construct_precondition_exit_2(capsys):
    code, _, _ = run_cli(
        capsys, "construct", "cdc", "--q", "2", "--n", "6", "--tau", "2", "--d", "3"
    )
    assert code == 2


def test_construct_crc_refuses_a_huge_ambient_at_once(capsys, tmp_path):
    # the field degree limit comes before the search for a degree-1000 modulus
    cdc = tmp_path / "cdc.json"
    cdc.write_text(json.dumps({"q": 2, "ambient": 1000, "dim": 1, "min_subspace_distance": 2, "words": []}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "construct", "crc", "--m-file", str(cdc), "--n-file", str(cdc))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "extension degree 1000 is above the limit" in err and "Traceback" not in err


_JSON_COMMANDS = [
    "bounds --q 2 --m 4 --n 4 --d 3 --tau 2 --epsilon 1/10",
    "oracle list --q 2 --m 4 --n 4 --k 2 --tau 2 --received [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]",
    "oracle max --q 2 --m 3 --n 3 --k 2 --tau 1",
    "witness bound1 --q 2 --n 4 --k 2 --tau 2",
    "witness alt --q 2 --n 4 --d 3 --tau 2",
    "witness bound3 --q 2 --m 6 --n 6 --d 3 --tau 2 --translate 1",
    "construct cdc --q 2 --n 4 --tau 2 --d 4",
]


@pytest.mark.parametrize("command", _JSON_COMMANDS, ids=[" ".join(c.split()[:2]) for c in _JSON_COMMANDS])
def test_json_reports_are_json_dumps_layout(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


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


@pytest.mark.parametrize(
    "argv, option",
    [
        (("bounds", "--q", "2", "--m", "4", "--n", "4", "--d", "3", "--tau", "1", "--epsilon", "1/0"), "--epsilon"),
        (("bounds", "--q", "2", "--m", "4", "--n", "4", "--d", "3", "--tau", "1", "--epsilon", "abc"), "--epsilon"),
        (("regions", "--grid", "1/0"), "--grid"),
        (("regions", "--grid", "x"), "--grid"),
    ],
)
def test_malformed_rational_exits_2(capsys, argv, option):
    # a zero denominator raised ZeroDivisionError, which main did not catch
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"error: {option} must be a rational number" in err and "Traceback" not in err


def test_regions_grid_limit_refuses_before_building_rows(capsys, monkeypatch):
    def no_rows(*args, **kwargs):
        raise AssertionError("regions_table called")

    monkeypatch.setattr(cli.bounds, "regions_table", no_rows)
    code, out, err = run_cli(capsys, "regions", "--grid", "1/1000000000")
    assert code == 2 and out == ""
    assert "1000000000 points" in err and str(cli.REGIONS_GRID_LIMIT) in err
    monkeypatch.undo()
    monkeypatch.setattr(cli, "REGIONS_GRID_LIMIT", 20)  # the boundary, on a grid small enough to build
    assert run_cli(capsys, "regions", "--grid", "1/21")[0] == 2
    code, out, _ = run_cli(capsys, "regions", "--grid", "0.0499")  # floor(1/0.0499) = 20 points
    assert code == 0 and len(out.splitlines()) == 22


@pytest.mark.parametrize("n", ["0", "-3"])
def test_regions_rejects_nonpositive_n(capsys, n):
    # n = 0 ended in a ZeroDivisionError traceback, n = -3 printed rows with n = d = -3
    code, out, err = run_cli(capsys, "regions", "--grid", "0.5", "--n", n)
    assert code == 2 and out == ""
    assert f"error: n must be a positive integer, got {n}" in err and "Traceback" not in err


def test_verify_selected_criteria(capsys):
    code, out, _ = run_cli(capsys, "verify", "--criteria", "1,2,12")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 3
    assert all(ln.startswith("PASS") for ln in lines)


@pytest.mark.parametrize(
    "criteria, messages",
    [
        ("99", ("unknown criterion id 99", "1..12")),
        ("1,0,13", ("unknown criterion id 0, 13", "1..12")),
        # ids that are not integers gave int()'s message, which names neither option nor format
        ("abc", ("--criteria takes comma-separated ids", "'abc'")),
        ("1,,2", ("--criteria takes comma-separated ids", "'1,,2'")),
    ],
)
def test_verify_rejects_unknown_criteria_before_running(capsys, monkeypatch, criteria, messages):
    ran = []
    monkeypatch.setattr(cli.acceptance, "run_all", lambda selected: ran.append(selected) or [])
    code, out, err = run_cli(capsys, "verify", "--criteria", criteria)
    assert code == 2 and out == "" and ran == []
    assert all(message in err for message in messages) and "int()" not in err


_SMALL_RUNS = """
import contextlib, io, json, sys
from rankmetric import cli
received = "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"
codes, layouts = [], []
for argv in (
    "witness bound3 --q 2 --m 6 --n 6 --d 3 --tau 2",
    f"oracle list --q 2 --m 4 --n 4 --k 2 --tau 2 --received {received}",
    "witness alt --q 2 --n 4 --d 3 --tau 2",
    "witness bound1 --q 2 --n 4 --k 2 --tau 2",
    "bounds --q 2 --m 4 --n 4 --d 3 --tau 2",
):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        codes.append(cli.main(argv.split()))
    text = out.getvalue()
    layouts.append(text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\\n")
print(codes, layouts, "numpy" in sys.modules)
"""


def test_small_cli_runs_do_not_import_numpy():
    # ranks below matfq._BATCH_MIN stay in the scalar loop: a one-shot run this
    # small must not pay numpy's import
    env = dict(os.environ)
    src = str(Path(rankmetric.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SMALL_RUNS], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0,", "0,", "0,", "0]", "[True,", "True,", "True,", "True,", "True]", "False"]


_LARGE_CERTIFICATES = """
import sys
from rankmetric import GabidulinCode, make_field, witness
gab = witness.bound1_witness(GabidulinCode(make_field(2, 6), n=6, k=4), 2)
ok, checks = witness.verify_certificate(gab)
print("numpy" in sys.modules, ok, checks["pairwise_exhaustive"], len(gab.codewords))
crc = witness.bound3_witness(8, 8, 3, 4, 2)
loaded = []
def recorded(check):
    def call(*args):
        loaded.append("numpy" in sys.modules)
        return check(*args)
    return call
witness.rank_distances = recorded(witness.rank_distances)
witness.min_pairwise_rank_distance = recorded(witness.min_pairwise_rank_distance)
before = "numpy" in sys.modules
ok, checks = witness.verify_certificate(crc)
print(before, loaded, ok, len(crc.codewords))
"""


def test_certificate_checks_decide_numpy_together():
    # the 651-word Gabidulin certificate ranks no pairs (its pairwise check is
    # the MRD property), so its checks stay scalar; the 1024-word bound3
    # certificate's 700-word pair scan makes its checks worth numpy's import,
    # so numpy is loaded before its first check, not by the pair scan
    env = dict(os.environ)
    src = str(Path(rankmetric.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LARGE_CERTIFICATES], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False True True 651", "False [True, True] True 1024"]


_SETUP_CODES = """
import sys
sys.path.insert(0, sys.argv[1])
import rankmetric.cli
from rankmetric import GabidulinCode, make_field
from rankmetric.ff import _element_texts
from workloads import WORKLOADS
codes = {c for w in WORKLOADS.values() for c in w.codes}
for q, m, n, k in sorted(codes):
    GabidulinCode(make_field(q, m), n=n, k=k)
print(len(codes), "numpy" in sys.modules, _element_texts.cache_info().currsize)
"""


def test_setup_does_not_import_numpy():
    # the benchmark's set-up (perfbench/probe.py) imports the CLI and builds its
    # workloads' codes in a fresh interpreter; numpy's import and the element
    # texts of word lists belong to the work that needs them, not to every start
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    if not (perfbench / "workloads.py").is_file():
        pytest.skip("no perfbench/ in this checkout")
    env = dict(os.environ)
    src = str(Path(rankmetric.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODES, str(perfbench)], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    count, loaded, tables = proc.stdout.split()
    assert int(count) > 0 and loaded == "False" and tables == "0"


def test_readme_cli_block_runs_as_written(capsys, tmp_path, monkeypatch):
    # every command of README's CLI block, in order, in one directory: the
    # files that one example writes (cert.json, N.json, M.json) another reads
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [argv for line in block.splitlines() if (argv := shlex.split(line, comments=True))]
    assert commands and all(argv[0] == "rankmetric" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = main(argv[1:])
        assert code == 0, (argv, code, capsys.readouterr().err)
        capsys.readouterr()
