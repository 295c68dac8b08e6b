"""Record the goldens of every fixed-parameter task into goldens.json.

Usage (from the root of a checkout, at the commit whose outputs are the
reference): python3 perfbench/record_goldens.py [--jobs N]

``oracle max`` keeps only ``ell`` and ``argmax_word``; other commands keep
the SHA-256 of their stdout.  The maximum list size of every code used by a
seeded ``oracle list`` task is recorded too, by a full scan where no
``oracle max`` task covers it (Gab[3,2] over F_27 takes a few minutes).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from run import import_program, run_task
from checks import GOLDENS_PATH, digest
from workloads import WORKLOADS, fixed_tasks, oracle_max


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    rm = import_program()
    list_codes = {
        t.code for w in WORKLOADS.values() for t in w.build(random.Random(0), 1) if t.kind == "oracle_list"
    }
    tasks = fixed_tasks()
    covered = {t.code for t in tasks if t.kind == "oracle_max"}
    tasks += [oracle_max(*code, jobs=args.jobs) for code in sorted(list_codes - covered)]
    goldens = {}
    for task in tasks:
        if task.kind == "ball_count":
            continue
        seconds, output, error = run_task(rm, task)
        if error is not None:
            print(f"{task.key}: {error}", file=sys.stderr)
            return 1
        if task.kind == "oracle_max":
            doc = json.loads(output)
            goldens[task.key] = {"ell": doc["ell"], "argmax_word": doc["argmax_word"]}
        else:
            goldens[task.key] = {"sha256": digest(output)}
        print(f"{seconds:8.3f} s  {task.key}", file=sys.stderr)
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
