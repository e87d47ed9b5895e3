"""Tests of the benchmark itself: its checker, its counters and its trace.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from check import Checker
from matrices import to_text
from spans import Tracer
from workloads import Job, generate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Cheap jobs that between them touch every traced layer.
LAYER_JOBS = [
    ["krt", "--builtin", "cpr"],
    ["automata", "sandwich", "--builtin", "cpr"],
    ["figure", "fig2a"],
    ["bounds", "--n", "30"],
    ["figure", "fig8", "--n-max", "40"],
    ["check", "--file", "{sets}/big.set"],
    ["heuristic", "--mode", "any", "--file", "{sets}/big.set"],
]


def _worker_run(root: str, work: str, jobs, trace: bool) -> dict:
    """Run a job list once through worker.py in checkout ``root``."""
    os.makedirs(work, exist_ok=True)
    with open(os.path.join(work, "jobs.json"), "w", encoding="utf-8") as fh:
        json.dump([[argv, None] for argv in jobs], fh)
    out = os.path.join(work, "rep.json")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "run", work, "1" if trace else "0", out],
        cwd=root, check=True,
    )
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def layer_jobs(tmp_path):
    spec = generate("heuristic-large", 0)["large96"]
    sets = tmp_path / "sets"
    sets.mkdir()
    (sets / "big.set").write_text(to_text(spec.n, list(spec.gens), list(spec.labels)))
    return [[arg.replace("{sets}", str(sets)) for arg in argv] for argv in LAYER_JOBS]


def test_corrupted_exponent_counts_as_failed(tmp_path):
    """A program whose exponent is off by one raises the failed-job count."""
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src")
    cli = tmp_path / "src" / "rendezvous" / "cli.py"
    source = cli.read_text()
    assert "print(result.exponent.length)" in source
    cli.write_text(source.replace("print(result.exponent.length)", "print(result.exponent.length + 1)"))
    jobs = [["exponent", "--builtin", "cpr"], ["krt", "--builtin", "cpr"]]
    checker = Checker({})
    job_list = [Job(tuple(argv)) for argv in jobs]

    good = _worker_run(ROOT, str(tmp_path / "good"), jobs, trace=False)
    bad = _worker_run(str(tmp_path), str(tmp_path / "bad"), jobs, trace=False)

    assert run._failures(checker, job_list, [(False, good)]) == []
    failures = run._failures(checker, job_list, [(False, good), (False, bad)])
    assert len(failures) == 1 and "rep 1 job 0" in failures[0] and "expected 15" in failures[0]


def test_one_changed_csv_byte_counts_as_failed(tmp_path):
    argv = ["figure", "fig9", "--n-max", "120"]
    report = _worker_run(ROOT, str(tmp_path), [argv], trace=False)
    out = report["jobs"][0]["stdout"]
    checker = Checker({})
    job = Job(tuple(argv))
    assert checker.check(job, out) is None
    flipped = out[:500] + ("1" if out[500] != "1" else "2") + out[501:]
    assert "digest" in checker.check(job, flipped)
    bad = dict(report, jobs=[dict(report["jobs"][0], stdout=flipped)])
    assert len(run._failures(checker, [job], [(False, report), (False, bad)])) == 1


def test_traceback_and_exit_code_count_as_failed(tmp_path):
    one_state = tmp_path / "one.set"
    one_state.write_text(to_text(1, [(1,)], ["a"]))
    jobs = [
        ["krt", "--builtin", "cpr", "--k", "9"],
        ["exponent", "--no-such-flag"],
        ["automata", "sandwich", "--file", str(one_state)],  # crashes in the seed code
    ]
    report = _worker_run(ROOT, str(tmp_path), jobs, trace=False)
    failures = run._failures(Checker({}), [Job(tuple(a)) for a in jobs], [(False, report)])
    assert len(failures) == 3
    assert "exit code 1: domain:" in failures[0] and "exit code 2" in failures[1]
    assert "traceback: TypeError" in failures[2] and "Traceback" in report["jobs"][2]["stderr"]


def test_counters_repeat_exactly_and_self_times_add_up(tmp_path, layer_jobs):
    first = _worker_run(ROOT, str(tmp_path / "a"), layer_jobs, trace=True)
    second = _worker_run(ROOT, str(tmp_path / "b"), layer_jobs, trace=True)
    assert all(job["code"] == 0 for job in first["jobs"] + second["jobs"])

    counts = {k: v for k, v in first["layers"].items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in second["layers"].items() if not k.endswith("_s")}
    for metric in ("semigroup.explore.products", "automata.subset_bfs.subsets",
                   "pairgraph.build.edges", "bounds.f_table.cells", "heuristic.run.letters",
                   "boolmat.matmul.calls", "setfile.parse.calls", "tables.rows.calls"):
        assert counts[metric] > 0, metric
    assert counts["cli.main.calls"] == len(layer_jobs)

    for layers in (first["layers"], second["layers"]):
        wall = layers["trace.wall_s"]
        self_times = [v for k, v in layers.items() if k.endswith(".self_s")]
        assert sum(self_times) + layers["trace.unattributed_s"] == pytest.approx(wall, rel=1e-9)
        assert 0 <= layers["trace.unattributed_s"] < 0.05 * wall
        assert all(v >= 0 for v in self_times)


def test_spans_nest_within_their_parents(tmp_path, layer_jobs):
    report = _worker_run(ROOT, str(tmp_path), layer_jobs[:3], trace=True)
    with open(os.path.join(tmp_path, "rep.json.spans.json"), encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    for name, start, end, parent, job, counts in spans:
        assert start <= end
        if parent >= 0:
            p = spans[parent]
            assert p[1] <= start and end <= p[2] and p[4] == job
        else:
            assert name == "cli.main"
    assert sum(1 for s in spans if s[0] == "cli.main") == len(report["jobs"])


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    layer_names = list(Tracer().layer_metrics(1.0)) + ["trace.overhead_s"]
    assert [m["name"] for m in bench["per_layer"]] == layer_names
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    for metric in bench["end_to_end"]:
        assert metric["unit"] == run.END_TO_END[metric["name"]]
    setup_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in bench["end_to_end"])


def test_same_seed_same_inputs_and_sets_are_primitive():
    from matrices import is_primitive

    for workload in ("screen-sweep", "heuristic-large"):
        assert generate(workload, 7) == generate(workload, 7)
        assert generate(workload, 7) != generate(workload, 8)
    for name, spec in generate("screen-sweep", 7).items():
        if not name.startswith("dense"):
            assert is_primitive(spec.n, list(spec.gens)), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bound-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_probe_kernel_leaves_the_garbage_collector_alone():
    import gc

    from speed import kernel

    gc.disable()
    try:
        before = gc.get_count()
        for _ in range(100):
            kernel()
        assert gc.get_count() == before
    finally:
        gc.enable()


def test_scaling_cancels_a_uniform_slowdown():
    """A repetition run while the machine is twice as slow, probe and jobs
    alike, reports the same times as one run at nominal speed."""
    from speed import NOMINAL_S

    def report(slowdown: float) -> dict:
        times = [i * 0.05 for i in range(-1, 60)]
        return {
            "wall_s": 3.0 * slowdown,
            "peak_rss_mb": 40.0,
            "jobs": [{"start": 0.5 * i, "seconds": 0.1 * (i + 1) * slowdown} for i in range(5)],
            "probe": {"times": times, "samples": [NOMINAL_S * slowdown] * len(times)},
        }

    nominal = run._end_to_end([report(1.0)] * 3, [0.3])
    slow = run._end_to_end([report(1.0), report(2.0), report(2.0)], [0.3])
    assert slow == pytest.approx(nominal)
    assert nominal["wall_s"] == pytest.approx(1.5)
    assert nominal["job_p50_ms"] == pytest.approx(300)


def test_a_job_is_scaled_by_the_samples_near_it():
    from speed import EDGE_SAMPLES, NOMINAL_S, job_at_nominal

    # Slow (2x) samples during the first second, nominal ones after it.
    times = [i * 0.05 for i in range(60)]
    samples = [NOMINAL_S * (2 if t < 1 else 1) for t in times]
    assert job_at_nominal(0.2, 0.4, times, samples) == pytest.approx(0.2)
    assert job_at_nominal(2.0, 0.4, times, samples) == pytest.approx(0.4)
    # With no sample within reach, the nearest EDGE_SAMPLES scale the job.
    late = [10.0 + i for i in range(EDGE_SAMPLES)] + [20.0 + i for i in range(EDGE_SAMPLES)]
    slow_then_fast = [NOMINAL_S * 2] * EDGE_SAMPLES + [NOMINAL_S] * EDGE_SAMPLES
    assert job_at_nominal(0.0, 1.0, late, slow_then_fast) == pytest.approx(0.5)


def test_untraced_repetition_samples_the_machine_speed(tmp_path):
    from speed import EDGE_SAMPLES

    jobs = [["bounds", "--n", "40"], ["krt", "--builtin", "cpr"]]
    report = _worker_run(ROOT, str(tmp_path), jobs, trace=False)
    probe = report["probe"]
    assert len(probe["samples"]) >= 2 * EDGE_SAMPLES and probe["times"] == sorted(probe["times"])
    assert all(s > 0 for s in probe["samples"])
    assert sum(job["seconds"] for job in report["jobs"]) <= report["wall_s"]
    traced = _worker_run(ROOT, str(tmp_path / "t"), jobs, trace=True)
    assert "probe" not in traced
