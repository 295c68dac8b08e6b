"""Output checks: a task fails if its output does not match its check.

* ``oracle max``: ``ell`` and ``argmax_word`` equal the recorded golden
  (``scanned`` and ``elapsed_ms`` are not compared).
* ``oracle list`` at a seeded word: invariants that need no golden.  The size
  is at most the code's recorded maximum list size, every member is a
  codeword, every member lies within rank distance tau (recomputed here over
  the prime field, independently of the program), and the reported counts
  agree with the list.
* ball counts: equal to the closed form ``bounds.ball_volume``.
* every other command: the SHA-256 of its stdout equals the golden.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDENS_PATH = Path(__file__).with_name("goldens.json")


def load_goldens(path: Path = GOLDENS_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rank_mod_p(vectors: list[list[int]], p: int) -> int:
    """Rank over the prime field F_p of the matrix formed by ``vectors``."""
    rows = [list(v) for v in vectors]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def check_oracle_max(output: str, golden: dict) -> str | None:
    doc = json.loads(output)
    if doc["ell"] != golden["ell"]:
        return f"ell {doc['ell']} != golden {golden['ell']}"
    if doc["argmax_word"] != golden["argmax_word"]:
        return f"argmax_word {doc['argmax_word']} != golden {golden['argmax_word']}"
    return None


def check_oracle_list(output: str, task, golden: dict, rankmetric) -> str | None:
    """Invariants of a decoding list; ``golden`` is the code's ``oracle max`` golden."""
    q, m, n, k, tau = task.code
    received = json.loads(task.argv[task.argv.index("--received") + 1])
    doc = json.loads(output)
    members = doc["codewords"]
    if doc["received_word"] != received:
        return "received_word does not echo the input"
    if doc["size"] != len(members) or sum(doc["sphere_counts"]) != len(members):
        return "size, sphere_counts and codewords disagree"
    if len(doc["sphere_counts"]) != tau + 1:
        return "sphere_counts has the wrong length"
    if len(members) > golden["ell"]:
        return f"list size {len(members)} exceeds the code's maximum {golden['ell']}"
    if len({json.dumps(c) for c in members}) != len(members):
        return "repeated codeword"
    fld = rankmetric.make_field(q, m)
    code = rankmetric.GabidulinCode(fld, n=n, k=k)
    for cw in members:
        if not code.contains(tuple(fld.from_coeffs(c) for c in cw)):
            return f"{cw} is not a codeword"
        diff = [[(a - b) % q for a, b in zip(rc, cc)] for rc, cc in zip(received, cw)]
        if rank_mod_p(diff, q) > tau:
            return f"{cw} lies farther than tau={tau}"
    return None


def check_ball(output: str, task, rankmetric) -> str | None:
    m, n, q, tau = task.ball
    expected = rankmetric.ball_volume(m, n, q, tau)
    if int(output) != expected:
        return f"brute-force count {output} != closed form {expected}"
    return None


def check_output(task, output: str, goldens: dict, rankmetric) -> str | None:
    """None when the output is correct, else the reason it is not."""
    if task.kind == "ball_count":
        return check_ball(output, task, rankmetric)
    golden = goldens.get(task.key)
    if golden is None:
        return f"no golden for {task.key!r}"
    if task.kind == "oracle_max":
        return check_oracle_max(output, golden)
    if task.kind == "oracle_list":
        return check_oracle_list(output, task, golden, rankmetric)
    if digest(output) != golden["sha256"]:
        return "output differs from the golden"
    return None
