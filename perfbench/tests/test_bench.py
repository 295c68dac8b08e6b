"""Tests of the benchmark's own logic.

Run from the root of a checkout: python3 -m pytest perfbench/tests -q
"""

import json
import random
import statistics
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from speed import REFERENCE_S, scale_factors  # noqa: E402
from stats import median, quartiles, spread  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Task, fixed_tasks, oracle_max  # noqa: E402


@pytest.fixture(scope="module")
def rm():
    return run.import_program()


# --- stats --------------------------------------------------------------------


def test_median_and_quartiles_match_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
    assert median(values) == 5.5
    assert list(quartiles(values)) == statistics.quantiles(values, n=4)
    q1, mid, q3 = quartiles(values)
    assert spread(values) == pytest.approx((q3 - q1) / mid)


def test_quartiles_of_one_value_and_zero_median():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert spread([2.5]) == 0.0
    assert spread([0.0, 0.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        median([])


# --- speed scaling --------------------------------------------------------------


def test_scale_factors_use_the_reference_samples_around_each_item():
    r = REFERENCE_S
    # item i runs between samples i and i + 1; the machine is twice as slow around item 2
    samples = [r, r, r, 2 * r, 2 * r, 2 * r]
    factors = scale_factors(samples)
    assert len(factors) == 5
    assert factors[0] == pytest.approx(1.0)
    assert factors[4] == pytest.approx(0.5)
    assert factors[2] == pytest.approx(1 / 1.5)


def test_missing_sources_exit_2_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    with pytest.raises(SystemExit) as exc:
        run.import_program()
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# --- self time ----------------------------------------------------------------


def _span(sid, layer, parent, start, end, hot_s=0.0, under_hot=False):
    return Span(sid, f"{layer}.f{sid}", layer, 0, parent, start, end, hot_s, under_hot, False)


def test_self_time_is_span_minus_children_and_hot_calls():
    spans = [
        _span(0, "cli", None, 0.0, 10.0),
        _span(1, "oracle", 0, 1.0, 7.0, hot_s=2.0),  # 2 s of direct hot calls
        _span(2, "codes", 1, 2.0, 3.0),
        _span(3, "matfq", 1, 4.0, 4.5, under_hot=True),  # inside a hot call of span 1
    ]
    hot = {(1, "ff.Field.add"): [100, 1.5, 0]}  # 2.0 s total minus the 0.5 s nested span
    got = self_times(spans, hot)
    assert got["cli"] == pytest.approx(10.0 - 6.0)
    assert got["oracle"] == pytest.approx(6.0 - 1.0 - 2.0)
    assert got["codes"] == pytest.approx(1.0)
    assert got["matfq"] == pytest.approx(0.5)
    assert got["ff"] == pytest.approx(1.5)
    assert sum(got.values()) == pytest.approx(10.0)


def test_live_tracer_accounts_for_the_root_span():
    tracer = Tracer()
    add = tracer._wrap(lambda: time.sleep(0.002), "ff.Field.add", "ff", hot=True)
    rank = tracer._wrap(lambda: (add(), time.sleep(0.002)), "matfq.rank", "matfq")

    def scan():
        for _ in range(3):
            rank()
            add()
        raise ValueError("inner failure")

    root = tracer._wrap(scan, "oracle.max_list_size", "oracle")
    tracer.task = 0
    with pytest.raises(ValueError):
        root()
    tracer.task = None
    stats = tracer.layer_stats()
    assert stats["matfq"]["calls"] == 3
    assert stats["ff"]["calls"] == 6
    assert stats["oracle"]["errors"] == 1
    total = sum(s["self_s"] for s in stats.values())
    root_span = next(s for s in tracer.spans if s.parent is None)
    assert total == pytest.approx(root_span.end - root_span.start)
    assert stats["ff"]["self_s"] >= 6 * 0.002
    assert tracer.rank_evals[("oracle", "matfq")][0] == 3


def test_install_traces_program_calls_and_uninstall_restores(rm):
    original = rm.oracle.list_codewords
    tracer = Tracer()
    tracer.install(rm)
    try:
        assert rm.oracle.list_codewords is not original
        tracer.task = 0
        run.run_task(rm, oracle_max(2, 3, 3, 2, 1))
        tracer.task = None
    finally:
        tracer.uninstall()
    assert rm.oracle.list_codewords is original
    calls = tracer.calls_by_name()
    assert calls["cli.main"] == 1
    assert calls["oracle.max_list_size"] == 1
    assert tracer.counters["oracle.scanned"] == 8**3
    assert tracer.counters["codes.GabidulinCode.iter_codewords.yields"] == 8**2


# --- output checks --------------------------------------------------------------


def _loop(rm, tasks, goldens):
    loop = run.Loop(rm, tasks, goldens, random.Random(0))
    loop.run_pass()
    return loop


def test_golden_oracle_max_passes_and_tampered_goldens_fail(rm):
    goldens = checks.load_goldens()
    task = oracle_max(2, 3, 3, 2, 1)
    assert _loop(rm, [task], goldens).failures == []

    off_by_one = json.loads(json.dumps(goldens))
    off_by_one[task.key]["ell"] += 1
    assert len(_loop(rm, [task], off_by_one).failures) == 1

    wrong_word = json.loads(json.dumps(goldens))
    wrong_word[task.key]["argmax_word"][0][0] ^= 1
    assert len(_loop(rm, [task], wrong_word).failures) == 1


def test_tampered_list_output_fails(rm):
    goldens = checks.load_goldens()
    task = next(t for t in WORKLOADS["certify"].build(random.Random(3), 1) if t.kind == "oracle_list")
    _, output, error = run.run_task(rm, task)
    assert error is None
    assert checks.check_output(task, output, goldens, rm) is None
    doc = json.loads(output)
    assert doc["codewords"]
    doc["codewords"][0][0][0] ^= 1  # a rank-1 change: no longer a codeword
    assert "not a codeword" in checks.check_output(task, json.dumps(doc), goldens, rm)
    doc = json.loads(output)
    doc["size"] += 1
    assert checks.check_output(task, json.dumps(doc), goldens, rm) is not None


def test_ball_count_checked_against_closed_form(rm):
    task = Task("ball_count", ball=(2, 2, 2, 1))
    assert checks.check_output(task, "10", {}, rm) is None
    assert checks.check_output(task, "11", {}, rm) is not None


def test_every_fixed_task_has_a_golden():
    goldens = checks.load_goldens()
    missing = [t.key for t in fixed_tasks() if t.kind != "ball_count" and t.key not in goldens]
    assert missing == []


def test_rank_mod_p():
    assert checks.rank_mod_p([[1, 0], [0, 1], [1, 1]], 2) == 2
    assert checks.rank_mod_p([[1, 2], [2, 1]], 3) == 1
    assert checks.rank_mod_p([[0, 0, 0]], 3) == 0
