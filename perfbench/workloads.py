"""Task lists of the benchmark workloads.

A task is one ``rankmetric`` CLI command, run in-process through
``rankmetric.cli.main(argv)``, or one direct call of
``oracle.ball_volume_bruteforce`` (ball counting has no CLI command).  The
seed draws only the received words of the ``oracle list`` tasks and the task
order; every other parameter is fixed, so its output has a recorded golden.

Every workload runs every task kind, so that each end-to-end metric exists on
each workload; the kinds a workload is not about are kept small.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

# task kind -> end-to-end metric holding its time per pass
KIND_METRIC = {
    "oracle_max": "oracle_max_s",
    "oracle_list": "oracle_list_s",
    "ball_count": "ball_count_s",
    "witness": "witness_s",
    "bounds": "bounds_s",
    "verify": "verify_s",
}

@dataclass(frozen=True)
class Task:
    kind: str
    argv: tuple[str, ...] = ()
    ball: tuple[int, ...] = ()  # (m, n, q, tau) of a ball_volume_bruteforce call
    code: tuple[int, ...] = ()  # (q, m, n, k, tau) of an oracle task

    @property
    def key(self) -> str:
        """Name of the task's golden: the command, or the code for oracle tasks."""
        if self.kind in ("oracle_max", "oracle_list"):
            return code_key(self.code)
        if self.kind == "ball_count":
            return "ball " + " ".join(map(str, self.ball))
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    codes: tuple[tuple[int, int, int, int], ...]  # (q, m, n, k) built during set-up
    build: Callable[[random.Random, int], list[Task]]


def code_key(code: tuple[int, ...]) -> str:
    return "q={} m={} n={} k={} tau={}".format(*code)


def _code_args(q: int, m: int, n: int, k: int, tau: int) -> list[str]:
    return ["--q", str(q), "--m", str(m), "--n", str(n), "--k", str(k), "--tau", str(tau)]


def oracle_max(q: int, m: int, n: int, k: int, tau: int, jobs: int = 1) -> Task:
    argv = ["oracle", "max", *_code_args(q, m, n, k, tau)]
    if jobs != 1:
        argv += ["--jobs", str(jobs)]
    return Task("oracle_max", tuple(argv), code=(q, m, n, k, tau))


def oracle_lists(rng: random.Random, count: int, q: int, m: int, n: int, k: int, tau: int) -> list[Task]:
    """``count`` list tasks at received words drawn from ``rng``."""
    tasks = []
    for _ in range(count):
        word = [[rng.randrange(q) for _ in range(m)] for _ in range(n)]
        received = json.dumps(word, separators=(",", ":"))
        argv = ["oracle", "list", *_code_args(q, m, n, k, tau), "--received", received]
        tasks.append(Task("oracle_list", tuple(argv), code=(q, m, n, k, tau)))
    return tasks


def balls(m: int, n: int, q: int, taus) -> list[Task]:
    return [Task("ball_count", ball=(m, n, q, tau)) for tau in taus]


def command(kind: str, line: str) -> Task:
    return Task(kind, tuple(line.split()))


def verify(criteria) -> list[Task]:
    """One ``verify --criteria i`` task per criterion.

    Separate tasks let the speed reference be sampled between criteria
    instead of once around several seconds of work.
    """
    return [command("verify", f"verify --criteria {i}") for i in criteria]


def bounds_grid() -> list[Task]:
    """The fixed grid of valid ``bounds`` parameter sets; every third is CSV."""
    tasks = []
    for q in (2, 3, 4):
        for m in (4, 5, 6, 8, 10, 12):
            for n in sorted({m // 2, m}):
                for d in sorted({3, n // 2 + 1, n}):
                    if not 1 <= d <= n:
                        continue
                    for tau in sorted({1, (d - 1) // 2, d - 1}):
                        if not 0 < tau < d:
                            continue
                        line = f"bounds --q {q} --m {m} --n {n} --d {d} --tau {tau}"
                        if len(tasks) % 3 == 2:
                            line += " --format csv"
                        if len(tasks) % 7 == 3:
                            line += " --epsilon 1/10"
                        tasks.append(command("bounds", line))
    return tasks


def _grid_sample(qs: tuple[int, ...], count: int) -> list[Task]:
    grid = [t for t in bounds_grid() if int(t.argv[2]) in qs]
    step = max(1, len(grid) // count)
    return grid[::step][:count]


def _oracle_q2(rng: random.Random, jobs: int) -> list[Task]:
    return [
        oracle_max(2, 4, 4, 2, 2),
        oracle_max(2, 4, 4, 2, 2, jobs=jobs),
        oracle_max(2, 4, 4, 3, 1),
        oracle_max(2, 4, 4, 1, 3),
        oracle_max(2, 3, 3, 2, 1),
        *oracle_lists(rng, 100, 2, 4, 4, 2, 2),
        *balls(4, 4, 2, range(5)),
        command("witness", "witness bound1 --q 2 --n 4 --k 2 --tau 2"),
        command("witness", "witness alt --q 2 --n 4 --d 3 --tau 2"),
        command("witness", "witness bound3 --q 2 --m 6 --n 6 --d 3 --tau 2"),
        command("witness", "witness bound3 --q 2 --m 6 --n 6 --d 3 --tau 2 --translate 0"),
        *_grid_sample((2,), 40),
        *verify((2, 8)),
    ]


def _oracle_qodd(rng: random.Random, jobs: int) -> list[Task]:
    return [
        oracle_max(3, 3, 2, 1, 1),
        oracle_max(5, 2, 2, 1, 1),
        oracle_max(4, 3, 2, 1, 1),
        *oracle_lists(rng, 20, 3, 3, 3, 2, 1),
        *balls(3, 3, 3, range(4)),
        command("witness", "witness alt --q 3 --n 3 --d 3 --tau 1"),
        *_grid_sample((3, 4), 20),
        *verify((1, 3)),
    ]


def _certify(rng: random.Random, jobs: int) -> list[Task]:
    return [
        command("witness", "witness bound1 --q 2 --n 4 --k 2 --tau 2"),
        command("witness", "witness bound1 --q 2 --n 6 --k 4 --tau 2"),
        command("witness", "witness bound1 --q 3 --n 4 --k 2 --tau 2"),
        command("witness", "witness alt --q 2 --n 4 --d 3 --tau 2"),
        command("witness", "witness alt --q 3 --n 3 --d 3 --tau 1"),
        command("witness", "witness bound3 --q 2 --m 6 --n 6 --d 3 --tau 2"),
        command("witness", "witness bound3 --q 2 --m 6 --n 6 --d 3 --tau 2 --translate 0"),
        *bounds_grid(),
        command("bounds", "regions --grid 0.01 --n 40"),
        *verify(range(1, 13)),
        oracle_max(2, 4, 4, 1, 3),
        oracle_max(3, 3, 2, 1, 1),
        *oracle_lists(rng, 30, 2, 4, 4, 2, 2),
        *balls(4, 4, 2, range(5)),
        *balls(3, 3, 3, (1, 2)),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle-q2", ((2, 4, 4, 2), (2, 4, 4, 3), (2, 4, 4, 1), (2, 3, 3, 2)), _oracle_q2),
        Workload(
            "oracle-qodd",
            ((3, 3, 2, 1), (5, 2, 2, 1), (4, 3, 2, 1), (3, 3, 3, 2), (3, 3, 3, 1)),
            _oracle_qodd,
        ),
        Workload(
            "certify",
            ((2, 4, 4, 2), (2, 6, 6, 4), (3, 4, 4, 2), (2, 4, 4, 1), (3, 3, 3, 1), (3, 3, 2, 1)),
            _certify,
        ),
    )
}


def fixed_tasks() -> list[Task]:
    """Every task of every workload whose output does not depend on the seed."""
    seen: dict[str, Task] = {}
    for w in WORKLOADS.values():
        for t in w.build(random.Random(0), 1):
            if t.kind != "oracle_list":
                seen.setdefault(t.key, t)
    return list(seen.values())
