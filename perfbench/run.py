"""Benchmark of the rendezvous workbench, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up (a fresh interpreter that imports
the program, generates the seeded sets and writes the set files) is timed
SETUP_REPEATS times.  Then the workload's fixed job list runs again and
again, each repetition in a fresh interpreter so the program's module
caches start cold as they do for a CLI user, one process at a time (a
closed loop with one client), until S seconds are used.  Every answer is
checked (see check.py) after the clock stops.

The host is shared, and its load moves the same code's times by a third
from minute to minute.  So every untraced repetition runs a speed probe
beside the program (see speed.py), and the reported times are scaled to the
machine's nominal speed.  The measured times are printed too.

The last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` count jobs over all repetitions; ``metrics`` holds the
end-to-end metrics (medians over repetitions) with --trace 0, and the
per-layer metrics of a traced repetition with --trace 1.  A traced run
alternates untraced and traced repetitions; ``trace.overhead_s`` is the
difference of their median wall times.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from check import Checker
from speed import NOMINAL_S, job_at_nominal
from workloads import WORKLOADS, Job, generate

SETUP_REPEATS = 7
MIN_REPS = 2
DEADLINE_S = 170  # a workload that takes longer is stopped and reported as failed
WORK_DIR = ".perfbench-work"
HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "job_p50_ms": "ms",
    "job_p95_ms": "ms",
}


def _worker(root: str, deadline: float, *args: str) -> None:
    # A fixed hash seed keeps set and dict orders, and so the work, the same
    # from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    proc = subprocess.Popen(argv, cwd=root, env=env, stdin=subprocess.DEVNULL)
    # A blocking wait returns as soon as the process ends; subprocess's own
    # timeout polls in steps of up to 50 ms, which showed in set-up times.
    timeout = max(deadline - perf_counter(), 1.0)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if perf_counter() >= deadline and code != 0:
        raise subprocess.TimeoutExpired(argv, timeout)
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)


def _setup(root: str, deadline: float, workload: str, seed: int, work: str) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        start = perf_counter()
        _worker(root, deadline, "setup", workload, str(seed), work)
        times.append(perf_counter() - start)
    return times


def _measure(
    root: str, deadline: float, work: str, seconds: float, trace: bool
) -> list[tuple[bool, dict]]:
    """Repetitions as (traced, report) until ``seconds`` are used; a repetition
    starts only if one as long as the longest so far still fits."""
    kinds = (False, True) if trace else (False,)
    reps: list[tuple[bool, dict]] = []
    longest = 0.0
    start = perf_counter()
    while True:
        traced = kinds[len(reps) % len(kinds)]
        out = os.path.join(work, f"rep{len(reps)}.json")
        began = perf_counter()
        _worker(root, deadline, "run", work, "1" if traced else "0", out)
        longest = max(longest, perf_counter() - began)
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        report["path"] = out
        reps.append((traced, report))
        if len(reps) >= MIN_REPS and perf_counter() - start + longest > seconds:
            return reps


def _failures(checker: Checker, jobs: list[Job], reps) -> list[str]:
    """One message per failed job: traceback, exit code other than 0, or wrong answer."""
    verdicts: dict[tuple[int, str], str | None] = {}
    failures = []
    for rep_idx, (_, report) in enumerate(reps):
        for job_idx, (job, result) in enumerate(zip(jobs, report["jobs"])):
            last_line = (result["stderr"].strip().splitlines() or [""])[-1]
            if result["code"] is None:
                why = f"traceback: {last_line}"
            elif result["code"] != 0:
                why = f"exit code {result['code']}: {last_line}"
            else:
                key = (job_idx, result["stdout"])
                if key not in verdicts:
                    verdicts[key] = checker.check(job, result["stdout"])
                why = verdicts[key]
            if why is not None:
                failures.append(f"rep {rep_idx} job {job_idx} ({' '.join(job.argv)}): {why}")
    return failures


def _percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _end_to_end(plain: list[dict], setup_times: list[float]) -> dict[str, float]:
    """Job times at nominal speed (see speed.py), medians over repetitions.

    Each job's time is scaled by the probe samples around it.  ``wall_s`` is
    the median over repetitions of a repetition's summed job times.  The job
    percentiles are taken over each job's median time across repetitions, so
    a job slowed in one repetition does not move them."""
    job_s = [
        [job_at_nominal(j["start"], j["seconds"], r["probe"]["times"], r["probe"]["samples"])
         for j in r["jobs"]]
        for r in plain
    ]
    per_job = [statistics.median(times) for times in zip(*job_s)]
    return {
        "wall_s": statistics.median(sum(times) for times in job_s),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "job_p50_ms": _percentile(per_job, 50) * 1000,
        "job_p95_ms": _percentile(per_job, 95) * 1000,
    }


def _per_layer(plain: list[dict], traced: list[dict], root: str, name: str) -> dict[str, float]:
    """Layer metrics of the traced repetition with the median wall time, so
    its self times and ``trace.unattributed_s`` add up to its ``trace.wall_s``."""
    chosen = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    metrics = dict(chosen["layers"])
    metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in plain
    )
    shutil.copyfile(chosen["path"] + ".spans.json", os.path.join(root, WORK_DIR, f"spans-{name}.json"))
    return metrics


def _unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    return "s" if metric.endswith("_s") else "count"


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"q1 {q1:.4g}, q3 {q3:.4g}, n={len(values)}"


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool) -> None:
    """Set up, measure and check one workload; print its report."""
    name = f"{workload}-seed{seed}"
    work = os.path.join(root, WORK_DIR, f"{name}-{os.getpid()}")
    deadline = perf_counter() + DEADLINE_S
    try:
        setup_times = _setup(root, deadline, workload, seed, work)
        reps = _measure(root, deadline, work, seconds, trace)
        with open(os.path.join(work, "jobs.json"), encoding="utf-8") as fh:
            jobs = [Job(tuple(argv), set_name) for argv, set_name in json.load(fh)]
        failures = _failures(Checker(generate(workload, seed)), jobs, reps)
        plain = [r for traced, r in reps if not traced]
        traced = [r for traced, r in reps if traced]
        if trace:
            metrics = _per_layer(plain, traced, root, name)
        else:
            metrics = _end_to_end(plain, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(jobs) * len(reps)
    walls = [r["wall_s"] for r in plain]
    print(f"{name}: {len(reps)} repetitions of {len(jobs)} jobs ({len(traced)} traced), "
          f"{len(setup_times)} set-ups")
    print(f"  measured: wall_s {statistics.median(walls):.4f} s ({_spread(walls)}), "
          f"setup_s {statistics.median(setup_times):.4f} s ({_spread(setup_times)})")
    if not trace:
        probes = [statistics.fmean(r["probe"]["samples"]) * 1000 for r in plain]
        print(f"  speed probe: mean sample {statistics.median(probes):.4f} ms ({_spread(probes)}), "
              f"nominal {NOMINAL_S * 1000:.4f} ms")
    print(f"  error_rate {len(failures) / attempted:.4g} ({len(failures)} of {attempted} jobs failed)")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    for metric, value in metrics.items():
        print(f"  {metric} = {value} {_unit(metric)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": _unit(m)} for m, v in metrics.items()},
    }), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rendezvous", "cli.py")):
        print("perfbench: src/rendezvous not found; run from the root of a checkout", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: benchmark process failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
