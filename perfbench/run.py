"""rankmetric benchmark: one workload as a closed loop with one client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload oracle-q2 --seed 1 --seconds 40 --trace 0

Each task starts only after the previous one ends.  A task is a rankmetric
CLI command run in-process through ``rankmetric.cli.main(argv)`` with stdout
captured and checked, or a direct ``oracle.ball_volume_bruteforce`` call.
With ``--trace 0`` the run reports the end-to-end metrics: medians over
passes of the task list, with times scaled to a reference machine speed
(see speed.py).  With ``--trace 1`` it runs one untraced pass, then traced
passes, and reports the per-layer metrics in raw time.  The last line of stdout
is the JSON result; run records and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from checks import check_output, load_goldens  # noqa: E402
from speed import scale_factors, time_reference  # noqa: E402
from stats import median, spread  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import KIND_METRIC, WORKLOADS  # noqa: E402

MIN_PASSES = 3
SETUP_PROBES = 15
UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "child_peak_rss_mb": "MB"}
UNITS.update({metric: "s" for metric in KIND_METRIC.values()})


def import_program():
    """Import rankmetric from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "rankmetric" / "__init__.py").is_file():
        print(f"error: no rankmetric sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import rankmetric
    import rankmetric.cli
    import rankmetric.oracle

    if Path(rankmetric.__file__).resolve().parent != SRC / "rankmetric":
        print(f"error: imported rankmetric from {rankmetric.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return rankmetric


# --- run records ------------------------------------------------------------


def fingerprint() -> dict:
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    return info


def source_identity() -> dict:
    """Git commit when the checkout is a repository, and a digest of the sources."""
    h = hashlib.sha256()
    for path in sorted((SRC / "rankmetric").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def record(event: str, **extra) -> dict:
    doc = {"event": event, "time": time.time(), "loadavg": list(os.getloadavg()), **extra}
    print("record", json.dumps(doc, sort_keys=True), flush=True)
    return doc


# --- set-up -----------------------------------------------------------------


def measure_setup(codes) -> dict[str, list[float]]:
    """Wall time of fresh interpreters that import rankmetric and build the codes."""
    argv = [sys.executable, str(HERE / "probe.py"), json.dumps([list(c) for c in codes])]
    raw, reference = [], []
    for _ in range(SETUP_PROBES):
        reference.append(time_reference())
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True)
        raw.append(time.perf_counter() - start)
    reference.append(time_reference())
    scaled = [t * f for t, f in zip(raw, scale_factors(reference))]
    return {"raw": raw, "scaled": scaled, "reference_s": reference}


def warm_up(rm, codes) -> None:
    """Import what the tasks import lazily and fill the field cache."""
    import numpy  # noqa: F401  (the GF(2) scan imports it on first use)

    for q, m, n, k in codes:
        rm.GabidulinCode(rm.make_field(q, m), n=n, k=k)


# --- the closed loop --------------------------------------------------------


def run_task(rm, task) -> tuple[float, str, str | None]:
    """(seconds, stdout, error) of one task; error is None on exit code 0."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        if task.kind == "ball_count":
            value = rm.oracle.ball_volume_bruteforce(*task.ball)
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = rm.cli.main(list(task.argv))
    except Exception as exc:  # a crashing task is a failed task, not an aborted run
        seconds = time.perf_counter() - start
        return seconds, "", f"raised {exc!r}"
    seconds = time.perf_counter() - start
    if task.kind == "ball_count":
        return seconds, str(value), None
    if code != 0:
        error = f"exit code {code}: {err.getvalue().strip()[:200]}"
    return seconds, out.getvalue(), error


class Loop:
    def __init__(self, rm, tasks, goldens, rng):
        self.rm, self.tasks, self.goldens, self.rng = rm, list(tasks), goldens, rng
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, tracer: Tracer | None = None) -> dict:
        """Run every task once, in a seeded order; returns raw and scaled seconds per kind."""
        order = list(range(len(self.tasks)))
        self.rng.shuffle(order)
        task_s = [0.0] * len(self.tasks)
        reference = []
        bytes_out = 0
        for i in order:
            task = self.tasks[i]
            reference.append(time_reference())
            if tracer is not None:
                tracer.task = self.attempted
            try:
                seconds, output, error = run_task(self.rm, task)
            finally:
                if tracer is not None:
                    tracer.task = None
            self.attempted += 1
            task_s[i] = seconds
            if task.kind != "ball_count":
                bytes_out += len(output.encode("utf-8"))
            if error is None:
                error = check_output(task, output, self.goldens, self.rm)
            if error is not None:
                self.failures.append(f"{task.key}: {error}")
        reference.append(time_reference())
        scaled = [0.0] * len(self.tasks)
        for i, factor in zip(order, scale_factors(reference)):
            scaled[i] = task_s[i] * factor
        return {"raw": self.kind_sums(task_s), "scaled": self.kind_sums(scaled),
                "bytes_out": bytes_out, "order": order, "task_s": task_s, "reference_s": reference}

    def kind_sums(self, seconds: list[float]) -> dict[str, float]:
        sums = dict.fromkeys(KIND_METRIC.values(), 0.0)
        for task, s in zip(self.tasks, seconds):
            sums[KIND_METRIC[task.kind]] += s
        return {"pass_s": sum(seconds), **sums}

    def run_until(self, deadline: float, min_passes: int, tracer: Tracer | None = None) -> list[dict]:
        """Passes until the next one could overrun the deadline (at least min_passes)."""
        passes: list[dict] = []
        slowest = 0.0
        while True:
            start = time.perf_counter()
            passes.append(self.run_pass(tracer))
            slowest = max(slowest, time.perf_counter() - start)
            if len(passes) >= min_passes and time.perf_counter() + 1.2 * slowest > deadline:
                return passes


# --- metrics ----------------------------------------------------------------


def end_to_end(passes: list[dict], setup: dict, times: str = "scaled") -> dict[str, float]:
    """End-to-end metrics from ``times``, "scaled" (reported) or "raw"."""
    metrics = {"setup_s": median(setup[times])}
    for name in ["pass_s", *KIND_METRIC.values()]:
        metrics[name] = median([p[times][name] for p in passes])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["child_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return metrics


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer: Tracer, traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics, per traced pass."""
    n = len(traced)
    metrics: dict[str, float] = {}
    stats = tracer.layer_stats()
    for layer in LAYERS:
        for key, value in stats[layer].items():
            metrics[f"{layer}.{key}"] = value / n
    calls = tracer.calls_by_name()
    c = tracer.counters
    matfq_evals = [ev for (_caller, layer), ev in tracer.rank_evals.items() if layer == "matfq"]
    matfq_count = sum(ev[0] for ev in matfq_evals)
    traced_s = sum(p["raw"]["pass_s"] for p in traced)
    metrics.update({
        "ff.ns_per_call": _ratio(stats["ff"]["self_s"], stats["ff"]["calls"]) * 1e9,
        "matfq.rank_evals": matfq_count / n,
        "matfq.us_per_rank": _ratio(sum(ev[1] for ev in matfq_evals), matfq_count) * 1e6,
        "matfq.subspaces_enumerated": c["matfq.subspaces_enumerated"] / n,
        "linpoly.subspace_polys": calls.get("linpoly.min_subspace_poly", 0) / n,
        "codes.codewords_enumerated": sum(
            v for k, v in c.items() if k.startswith("codes.") and k.endswith(".yields")) / n,
        "codes.membership_tests": calls.get("codes.GabidulinCode.contains", 0) / n,
        "bounds.reports": calls.get("bounds.compute_report", 0) / n,
        "witness.codewords_certified": c["witness.codewords_certified"] / n,
        "witness.rank_evals": sum(
            ev[0] for (caller, _layer), ev in tracer.rank_evals.items() if caller == "witness") / n,
        "oracle.rank_tests": sum(
            ev[0] for (caller, _layer), ev in tracer.rank_evals.items() if caller == "oracle") / n,
        "oracle.scanned": c["oracle.scanned"] / n,
        "oracle.words_per_s": _ratio(c["oracle.scanned"], c["oracle.max_s"]),
        "oracle.coset_ratio": _ratio(c["oracle.cosets"], c["oracle.scanned"]),
        "oracle.list_hit_ratio": _ratio(c["oracle.list_hits"], c["oracle.list_tested"]),
        "oracle.ball_matrices_per_s": _ratio(c["oracle.ball_matrices"], c["oracle.ball_s"]),
        "cli.bytes_out": sum(p["bytes_out"] for p in traced) / n,
        "trace.pass_s": traced_s / n,
        "trace.untraced_pass_s": median([p["raw"]["pass_s"] for p in untraced]),
        "trace.overhead_ratio": _ratio(median([p["raw"]["pass_s"] for p in traced]),
                                       median([p["raw"]["pass_s"] for p in untraced])),
        "trace.unattributed_s": (traced_s - sum(s["self_s"] for s in stats.values())) / n,
    })
    return metrics


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    suffix = name.rsplit(".", 1)[1]
    if suffix.endswith("_s") and not suffix.endswith("per_s"):
        return "s"
    return {"ns_per_call": "ns", "us_per_rank": "us", "words_per_s": "1/s",
            "ball_matrices_per_s": "1/s", "bytes_out": "bytes",
            "coset_ratio": "ratio", "list_hit_ratio": "ratio", "overhead_ratio": "ratio"}.get(suffix, "count")


# --- main -------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    deadline = t0 + args.seconds
    rm = import_program()
    goldens = load_goldens()
    workload = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    jobs = min(2, len(os.sched_getaffinity(0)))
    loop = Loop(rm, workload.build(rng, jobs), goldens, rng)
    identity = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "jobs": jobs, "fingerprint": fingerprint(), **source_identity()}
    run_doc = {"start": record("start", **identity)}

    details = {}
    if args.trace == 0:
        setup = measure_setup(workload.codes)
        warm_up(rm, workload.codes)
        passes = loop.run_until(deadline, MIN_PASSES)
        metrics = end_to_end(passes, setup)
        raw = end_to_end(passes, setup, "raw")
        run_doc.update(setup=setup, passes=passes, raw_metrics=raw)
        samples = {name: [p["scaled"][name] for p in passes] for name in ("pass_s", *KIND_METRIC.values())}
        samples["setup_s"] = setup["scaled"]
        for name, values in samples.items():
            details[name] = f"raw {raw[name]:.6g} s; IQR/median {spread(values):.3f} of {len(values)}"
    else:
        warm_up(rm, workload.codes)
        untraced = [loop.run_pass()]
        tracer = Tracer()
        tracer.install(rm)
        try:
            traced = loop.run_until(deadline, 1, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, traced, untraced)
        run_doc.update(untraced=untraced, traced=traced, trace=tracer.to_jsonable())
        print("note: --jobs worker processes are not traced; their time is self time "
              "of oracle.max_list_size", flush=True)

    identity["fingerprint"] = fingerprint()
    run_doc["end"] = record("end", attempted=loop.attempted, failed=len(loop.failures), **identity)
    run_doc["failures"] = loop.failures
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(run_doc), encoding="utf-8")
    for failure in loop.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, value in metrics.items():
        extra = f"  ({details[name]})" if name in details else ""
        print(f"{name} = {value:.6g} {unit_of(name)}{extra}")
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0 if not loop.failures else 1


if __name__ == "__main__":
    sys.exit(main())
