"""The commands of the identity manifest print what it records.

``tests/data/identity_manifest.json`` is written by
``scripts/record_identity.py`` at a reference commit: per command, the
SHA-256 of stdout with ``elapsed_ms`` masked, the exit code and the stderr
text.  Each entry is replayed here in-process, in order, in one empty
directory, through the script's own ``changed`` (which its ``--check`` also
runs); a change of any printed byte fails the entry's command.
"""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_recorder():
    spec = importlib.util.spec_from_file_location("record_identity", ROOT / "scripts" / "record_identity.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


recorder = _load_recorder()
MANIFEST = json.loads(recorder.MANIFEST.read_text())["entries"]


def test_manifest_lists_the_commands_it_is_recorded_from():
    # the fixed and seeded benchmark tasks, the extra codes, README's CLI block,
    # witnesses, random mode, heavy rows, constructions and refusals, in order
    commands = [{key: value for key, value in entry.items() if key in ("argv", "ball")} for entry in MANIFEST]
    assert commands == recorder.entries()


def test_manifest_commands_print_the_recorded_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert [(entry.get("argv") or entry["ball"], got) for entry, got in recorder.changed(MANIFEST)] == []


def test_every_entry_records_its_stderr_and_the_refusals_say_why():
    assert all(set(entry) - {"argv", "ball"} == {"sha256", "exit", "stderr"} for entry in MANIFEST)
    refusals = [entry for entry in MANIFEST if entry["exit"] != 0]
    assert len(refusals) == len(recorder.REFUSALS)
    assert all(entry["stderr"] for entry in refusals)


def test_usage_errors_replay_the_same_in_a_narrow_terminal(monkeypatch):
    monkeypatch.setenv("COLUMNS", "40")
    usage = [entry for entry in MANIFEST if entry["exit"] == 1]
    assert usage and recorder.changed(usage) == []


def test_check_prints_each_changed_entry_and_exits_1(tmp_path, monkeypatch, capsys):
    bounds = [entry for entry in MANIFEST if entry.get("argv", [None])[0] == "bounds"][:3]
    tampered = [bounds[0], bounds[1] | {"sha256": "0" * 64}, bounds[2] | {"stderr": "error: x\n"}]
    monkeypatch.setattr(recorder, "MANIFEST", tmp_path / "manifest.json")
    recorder.MANIFEST.write_text(json.dumps({"entries": tampered}))
    assert recorder.main(["--check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" {")[0] for line in lines[:-1]] == [" ".join(entry["argv"]) for entry in tampered[1:]]
    assert lines[-1] == "2 entries changed"
    recorder.MANIFEST.write_text(json.dumps({"entries": bounds}))
    assert recorder.main(["--check"]) == 0
    assert capsys.readouterr().out == "0 entries changed\n"
