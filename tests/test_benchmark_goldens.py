"""The benchmark's commands print what its goldens record.

Every task of every workload in ``perfbench/workloads.py``, for seeds 0-2, is
run in-process as the benchmark runs it (``cli.main`` with stdout captured,
ball counts through ``oracle.ball_volume_bruteforce``) and judged by
``perfbench/checks.py`` against ``perfbench/goldens.json``: the SHA-256 of
stdout for fixed commands, ``ell`` and the argmax word for ``oracle max``,
and the invariants of a decoding list for the seeded ``oracle list`` tasks.
Both modules are loaded from their files and only read.
"""

import contextlib
import importlib.util
import io
import random
import sys
from pathlib import Path

import pytest

import rankmetric
from rankmetric import cli, oracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


workloads, checks = _load("workloads"), _load("checks")
GOLDENS = checks.load_goldens()


def _output(task) -> str:
    """stdout of a task, as the benchmark captures it; a nonzero exit fails."""
    if task.kind == "ball_count":
        return str(oracle.ball_volume_bruteforce(*task.ball))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(task.argv))
    assert code == 0, f"{task.key}: exit {code}: {err.getvalue()}"
    return out.getvalue()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_tasks_match_their_goldens(name, seed):
    # the task list of the benchmark's run of this workload and seed; --jobs 2
    # as on a 2-CPU machine (the CLI accepts it and prints the same bytes)
    tasks = workloads.WORKLOADS[name].build(random.Random(f"{name}:{seed}"), 2)
    failures = [
        f"{task.key}: {error}"
        for task in tasks
        if (error := checks.check_output(task, _output(task), GOLDENS, rankmetric)) is not None
    ]
    assert failures == []
    assert {task.kind for task in tasks} == set(workloads.KIND_METRIC)
