"""The commands of the identity manifest print what it records.

``tests/data/identity_manifest.json`` is written by
``scripts/record_identity.py`` at a reference commit: per command, the
SHA-256 of stdout with ``elapsed_ms`` masked and the exit code.  Each entry
is replayed here in-process, in order, in one empty directory, through the
script's own ``run``; a change of any printed byte fails the entry's command.
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
    # the fixed and seeded benchmark tasks, the extra codes and README's CLI block, in order
    commands = [{key: value for key, value in entry.items() if key in ("argv", "ball")} for entry in MANIFEST]
    assert commands == recorder.entries()


def test_manifest_commands_print_the_recorded_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    changed = [
        (entry.get("argv") or entry["ball"], got)
        for entry in MANIFEST
        if (got := recorder.run(entry)) != (entry["sha256"], entry["exit"])
    ]
    assert changed == []
