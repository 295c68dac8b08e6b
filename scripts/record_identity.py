#!/usr/bin/env python3
"""Record the identity manifest: what a fixed set of commands prints.

Usage (from the root of a checkout, at the commit whose outputs are the
reference): python3 scripts/record_identity.py

Writes tests/data/identity_manifest.json, which tests/test_identity_manifest.py
replays in-process through ``rankmetric.cli.main``.  The commands are every
fixed task of perfbench/workloads.py, the seeded ``oracle list`` tasks of
every workload for seeds 0-2, ``oracle max`` on Gab[5,2]/F_243 tau=3 and
Gab[3,1]/F_343 tau=1, ``oracle list`` on Gab[3,2]/F_343 tau=1, and README's
CLI block, in that order.  Each entry keeps the argv, the SHA-256 of stdout
with the value of ``elapsed_ms`` masked, and the exit code.  Ball counts,
which have no command, keep the (m, n, q, tau) of their
``oracle.ball_volume_bruteforce`` call as ``ball`` instead of an argv.  The
entries run in order in one empty directory, so the files that README's
examples write are there for the examples that read them.
"""

from __future__ import annotations

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

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MANIFEST = ROOT / "tests" / "data" / "identity_manifest.json"

# codes at and above the 256-element cap of the odd-p sum tables
EXTRA = [
    "oracle max --q 3 --m 5 --n 5 --k 2 --tau 3",
    "oracle max --q 7 --m 3 --n 3 --k 1 --tau 1",
    "oracle list --q 7 --m 3 --n 3 --k 2 --tau 1 --received [[1,2,3],[4,5,6],[0,1,2]]",
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
    return out + [{"argv": line.split()} for line in EXTRA] + [{"argv": argv} for argv in _readme_commands()]


def run(entry: dict) -> tuple[str, int]:
    """(SHA-256 of stdout with ``elapsed_ms`` masked, exit code) of one entry,
    run in-process in the current directory."""
    from rankmetric import cli, oracle

    if "ball" in entry:
        text, code = str(oracle.ball_volume_bruteforce(*entry["ball"])), 0
    else:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(entry["argv"]))
        text = re.sub(r'("elapsed_ms": )\d+', r"\g<1>0", out.getvalue())
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), code


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    recorded = []
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for entry in entries():
                entry["sha256"], entry["exit"] = run(entry)
                recorded.append(entry)
        finally:
            os.chdir(here)
    MANIFEST.parent.mkdir(exist_ok=True)
    lines = ",\n".join(map(json.dumps, recorded))  # one entry per line
    MANIFEST.write_text(f'{{"commit": {json.dumps(commit.stdout.strip())}, "entries": [\n{lines}\n]}}\n')
    print(f"{len(recorded)} entries written to {MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
