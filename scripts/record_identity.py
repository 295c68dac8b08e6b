#!/usr/bin/env python3
"""Record the identity manifest: what a fixed set of commands prints.

Usage (from the root of a checkout):

    python3 scripts/record_identity.py          # record, at the reference commit
    python3 scripts/record_identity.py --check  # replay, write nothing

Recording writes tests/data/identity_manifest.json, which
tests/test_identity_manifest.py replays in-process through
``rankmetric.cli.main``.  The commands are every fixed task of
perfbench/workloads.py, the seeded ``oracle list`` tasks of every workload
for seeds 0-2, ``oracle max`` on Gab[5,2]/F_243 tau=3 and Gab[3,1]/F_343
tau=1, ``oracle list`` on Gab[3,2]/F_343 tau=1, README's CLI block, then
Gabidulin witnesses at every q of ``SUPPORTED_Q``, ``oracle max --mode
random`` at every q, the sub-second ``oracle max`` rows of the heavy suite,
constructions at q = 3 (crc reading the files the rows before it write),
refusals and word lists in fields above the 4096-element digit table, in
that order.  Each entry keeps the argv, the SHA-256 of stdout
with the value of ``elapsed_ms`` masked, the exit code and the stderr text,
with usage messages wrapped at 80 columns whatever the terminal.  Ball counts, which have no command, keep the (m, n, q, tau) of their
``oracle.ball_volume_bruteforce`` call as ``ball`` instead of an argv.  The
entries run in order in one empty directory, so the files that earlier
entries write are there for the entries that read them.

``--check`` replays the manifest the same way, prints each entry whose
SHA-256, exit code or stderr changed, and exits 1 if any did.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MANIFEST = ROOT / "tests" / "data" / "identity_manifest.json"

# codes at and above the 256-element cap of the odd-p sum tables
EXTRA = [
    "oracle max --q 3 --m 5 --n 5 --k 2 --tau 3",
    "oracle max --q 7 --m 3 --n 3 --k 1 --tau 1",
    "oracle list --q 7 --m 3 --n 3 --k 2 --tau 1 --received [[1,2,3],[4,5,6],[0,1,2]]",
]

# bound1 and alt at every q, with t = n - tau on both sides of the Singer
# orbit walk (2t <= n and 2t > n), t = n (tau = 0), and alt's coset counts
# at their 4096 limit (q = 4, n = 3) and above it (q = 2, n = 5)
WITNESSES = [
    "witness bound1 --q 2 --n 5 --k 2 --tau 3",
    "witness bound1 --q 2 --n 5 --k 2 --tau 1",
    "witness bound1 --q 2 --n 6 --k 2 --tau 2",
    "witness bound1 --q 3 --n 3 --k 1 --tau 0",
    "witness bound1 --q 3 --n 4 --k 1 --tau 1",
    "witness bound1 --q 4 --n 3 --k 1 --tau 2",
    "witness bound1 --q 5 --n 2 --k 1 --tau 1",
    "witness bound1 --q 8 --n 2 --k 1 --tau 0",
    "witness alt --q 2 --n 5 --d 4 --tau 1",
    "witness alt --q 3 --n 4 --d 3 --tau 2",
    "witness alt --q 4 --n 3 --d 3 --tau 1",
    "witness alt --q 5 --n 3 --d 3 --tau 1",
    "witness alt --q 7 --n 2 --d 2 --tau 1",
    "witness alt --q 9 --n 2 --d 2 --tau 1",
]

RANDOM = [
    "oracle max --q 2 --m 3 --n 3 --k 2 --tau 1 --mode random --trials 50 --seed 1",
    "oracle max --q 3 --m 3 --n 3 --k 2 --tau 1 --mode random --trials 100 --seed 5",
    "oracle max --q 4 --m 2 --n 2 --k 1 --tau 1 --mode random --trials 50 --seed 2",
    "oracle max --q 5 --m 2 --n 2 --k 1 --tau 1 --mode random --trials 50 --seed 3",
    "oracle max --q 7 --m 2 --n 2 --k 1 --tau 1 --mode random --trials 50 --seed 4",
    "oracle max --q 8 --m 2 --n 2 --k 1 --tau 1 --mode random --trials 50 --seed 5",
    "oracle max --q 9 --m 2 --n 2 --k 1 --tau 1 --mode random --trials 50 --seed 6",
]

# the heavy suite's oracle max rows that take under a second
HEAVY = [
    "oracle max --q 2 --m 7 --n 7 --k 4 --tau 3",
    "oracle max --q 2 --m 6 --n 6 --k 2 --tau 4",
    "oracle max --q 2 --m 10 --n 10 --k 8 --tau 4",
    "oracle max --q 2 --m 6 --n 6 --k 3 --tau 5",
]

CONSTRUCTIONS = [
    "construct cdc --q 3 --n 4 --tau 2 --d 4 --out N3.json",
    "construct cdc-odd --q 3 --ambient 4 --tau 2 --d 3 --variant minus --out M3.json",
    "construct crc --m-file M3.json --n-file N3.json",
    "construct crc-theorem8 --q 3 --m 4 --n 4 --d 3 --tau 2",
]

# the coset guard, the witness guard, witness and random-mode preconditions,
# malformed JSON and a usage error
REFUSALS = [
    "oracle max --q 2 --m 8 --n 8 --k 1 --tau 3",
    "witness bound1 --q 2 --n 9 --k 4 --tau 4",
    "witness alt --q 2 --n 4 --d 3 --tau 0",
    "oracle max --q 2 --m 4 --n 4 --k 2 --tau 2 --mode random --trials 0 --seed 1",
    "oracle list --q 2 --m 2 --n 2 --k 1 --tau 1 --received [[0,0",
    "regions --grid",
]

# word lists in fields above ff._DIGIT_TABLE_MAX (4096 elements), written
# from words_to_jsonable's lists rather than from the element-text tables
ABOVE_DIGIT_TABLE = [
    "oracle list --q 2 --m 13 --n 2 --k 1 --tau 1 --received [[1,0,1,0,0,0,0,0,0,0,0,0,1],[0,1,1,0,0,0,0,0,0,0,0,1,0]]",
    "construct crc-theorem8 --q 2 --m 13 --n 3 --d 2 --tau 1",
    "witness alt --q 3 --n 8 --d 8 --tau 1",
]


def _workloads():
    """perfbench/workloads.py, loaded from its file and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _readme_commands() -> list[list[str]]:
    readme = (ROOT / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [argv[1:] for line in block.splitlines() if (argv := shlex.split(line, comments=True))]


def entries() -> list[dict]:
    """The manifest's entries without their outputs: an argv or a ball each."""
    workloads = _workloads()
    tasks = list(workloads.fixed_tasks())
    for seed in range(3):
        for name in sorted(workloads.WORKLOADS):
            built = workloads.WORKLOADS[name].build(random.Random(f"{name}:{seed}"), 2)
            tasks += [t for t in built if t.kind == "oracle_list"]
    out = [{"ball": list(t.ball)} if t.kind == "ball_count" else {"argv": list(t.argv)} for t in tasks]
    out += [{"argv": line.split()} for line in EXTRA]
    out += [{"argv": argv} for argv in _readme_commands()]
    lines = WITNESSES + RANDOM + HEAVY + CONSTRUCTIONS + REFUSALS + ABOVE_DIGIT_TABLE
    return out + [{"argv": line.split()} for line in lines]


def run(entry: dict) -> dict:
    """The ``sha256`` of stdout with ``elapsed_ms`` masked, the ``exit`` code
    and the ``stderr`` text of one entry, run in-process in the current
    directory."""
    from rankmetric import cli, oracle

    out, err = io.StringIO(), io.StringIO()
    if "ball" in entry:
        text, code = str(oracle.ball_volume_bruteforce(*entry["ball"])), 0
    else:
        # argparse wraps a usage message to the terminal width, read from COLUMNS first
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.dict(os.environ, COLUMNS="80"):
            code = cli.main(list(entry["argv"]))
        text = re.sub(r'("elapsed_ms": )\d+', r"\g<1>0", out.getvalue())
    return {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(), "exit": code, "stderr": err.getvalue()}


def changed(manifest: list[dict]) -> list[tuple[dict, dict]]:
    """(entry, what it gives now) for each manifest entry whose output,
    exit code or stderr differs, replayed in order in the current directory."""
    return [(entry, got) for entry in manifest if (got := run(entry)) != {key: entry.get(key) for key in got}]


def _in_empty_directory(work):
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            return work()
        finally:
            os.chdir(here)


def check() -> int:
    diffs = _in_empty_directory(lambda: changed(json.loads(MANIFEST.read_text())["entries"]))
    for entry, got in diffs:
        diff = {key: {"recorded": entry.get(key), "now": value} for key, value in got.items() if entry.get(key) != value}
        print(shlex.join(map(str, entry.get("argv") or entry["ball"])), diff)
    print(f"{len(diffs)} entries changed")
    return 1 if diffs else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Record or replay the identity manifest.")
    parser.add_argument("--check", action="store_true", help="replay the manifest, write nothing, exit 1 on a change")
    if parser.parse_args(argv).check:
        return check()
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    recorded = _in_empty_directory(lambda: [entry | run(entry) for entry in entries()])
    MANIFEST.parent.mkdir(exist_ok=True)
    lines = ",\n".join(map(json.dumps, recorded))  # one entry per line
    MANIFEST.write_text(f'{{"commit": {json.dumps(commit.stdout.strip())}, "entries": [\n{lines}\n]}}\n')
    print(f"{len(recorded)} entries written to {MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
