"""One benchmark process: set up a workload's inputs, or run its job list once.

    python3 perfbench/worker.py setup WORKLOAD SEED DIR
    python3 perfbench/worker.py run DIR TRACE OUT

Run from the root of a checkout; the program is imported from its ``src``.
``setup`` imports the program, generates the seeded sets, writes the set
files and the job list into DIR.  ``run`` runs the job list once, in
process and in order, through ``rendezvous.cli.main`` with stdout captured,
and writes timings, outputs and peak RSS to OUT as JSON.  With TRACE 0 it
also writes the speed probe's samples (see speed.py); with TRACE 1 it
records spans (written to OUT's ``.spans.json``) and layer metrics instead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

from speed import Probe


def import_program(root: str):
    """Import ``rendezvous.cli`` from ``root/src``, refusing any other copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import rendezvous.cli

    origin = os.path.realpath(rendezvous.cli.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"imported rendezvous from {origin}, not from {src}")
    return rendezvous.cli


def setup(workload: str, seed: int, directory: str) -> None:
    import_program(os.getcwd())
    import workloads

    sets = workloads.generate(workload, seed)
    set_dir = os.path.join(directory, "sets")
    workloads.write_sets(sets, set_dir)
    jobs = workloads.jobs_for(workload, sets, set_dir)
    with open(os.path.join(directory, "jobs.json"), "w", encoding="utf-8") as fh:
        json.dump([[list(j.argv), j.set_name] for j in jobs], fh)


def run(directory: str, trace: bool, out_path: str) -> None:
    cli = import_program(os.getcwd())
    with open(os.path.join(directory, "jobs.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    # Untraced repetitions sample the machine's speed as they run (see
    # speed.py); the probe's own time is taken out of every job's time and
    # out of the wall time.
    probe = None if trace else Probe()
    probe_spent = (lambda: probe.spent) if probe is not None else (lambda: 0.0)
    if probe is not None:
        probe.start()
    results = []
    wall_start = perf_counter()
    spent_at_start = probe_spent()
    for job_id, (argv, _) in enumerate(jobs):
        if tracer is not None:
            tracer.job = job_id
        stdout, stderr = io.StringIO(), io.StringIO()
        spent_before = probe_spent()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed job, not a failed run
            code = None
            stderr.write(traceback.format_exc())
        job_s = perf_counter() - start - (probe_spent() - spent_before)
        results.append((start - wall_start, job_s, code, stdout.getvalue(), stderr.getvalue()))
    wall_s = perf_counter() - wall_start - (probe_spent() - spent_at_start)
    if probe is not None:
        probe.stop()

    report = {
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": [
            {"start": t, "seconds": s, "code": c, "stdout": o, "stderr": e}
            for t, s, c, o, e in results
        ],
    }
    if probe is not None:
        # Sample times, like job starts, count from the start of the job list.
        report["probe"] = {"times": [t - wall_start for t in probe.times], "samples": probe.samples}
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(wall_s)
        with open(out_path + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "counts"],
                       "spans": tracer.spans}, fh)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def main(argv: list[str]) -> None:
    if argv[:1] == ["setup"] and len(argv) == 4:
        setup(argv[1], int(argv[2]), argv[3])
    elif argv[:1] == ["run"] and len(argv) == 4:
        run(argv[1], argv[2] == "1", argv[3])
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
