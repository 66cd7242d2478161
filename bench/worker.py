"""The workload process: runs one workload's jobs through ``fincomplete.cli.run``.

It is a closed loop with one client: each job starts after the previous
one returned.  Job inputs are generated between jobs, outside the timed
region.  Without ``--jobs`` the loop stops at the first end of a whole
cycle of job specs (``workloads.whole_cycles``) after at least MIN_JOBS
jobs and ``--seconds`` of summed job wall time; with it, exactly that
many jobs run (a repeat of an earlier run).  One JSON line per job goes to ``records``;
a summary, with this process's peak RSS and the host speed probes taken
between jobs (``hostspeed``), goes to ``summary.json``.

    python3 bench/worker.py --workload W --seed N --seconds S --workdir DIR [--jobs K] [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import hostspeed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# the 90th-percentile job time needs at least ten jobs beyond it
MIN_JOBS = 100


def peak_rss_kb() -> int:
    """This process's own peak resident set size.

    ``getrusage`` is not enough on Linux: exec carries the parent's peak
    over into the child's ``ru_maxrss``, so a child of a large parent
    would report the parent.  ``VmHWM`` belongs to the current image only.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--jobs", type=int)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import fincomplete.cli

    if not os.path.abspath(fincomplete.cli.__file__).startswith(SRC + os.sep):
        print(f"fincomplete imported from outside {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    run = fincomplete.cli.run

    writer = workloads.InputWriter(os.path.join(args.workdir, "inputs"))
    os.chdir(writer.directory)
    busy = 0.0
    probes = [(0, hostspeed.probe())]
    j = 0

    def more() -> bool:
        if args.jobs is not None:
            return j < args.jobs
        return busy < args.seconds or j < MIN_JOBS or not workloads.whole_cycles(args.workload, j)

    with open(os.path.join(args.workdir, "records"), "w", encoding="utf-8") as records:
        while more():
            job = workloads.make_job(args.workload, args.seed, j, writer)
            out, err = io.StringIO(), io.StringIO()
            error = None
            code = None
            if tracer is not None:
                tracer.job = j
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run(list(job.argv))
            except Exception as e:  # a traceback is a failed job, never a crash of the loop
                error = f"{type(e).__name__}: {e}"
            wall = time.perf_counter() - t0
            busy += wall
            probes.append((j + 1, hostspeed.probe()))
            stdout = out.getvalue()
            records.write(json.dumps({
                "index": j, "kind": job.kind, "argv": job.argv, "info": job.info,
                "expect_exit": list(job.expect_exit), "exit": code, "error": error,
                "wall_s": wall, "stdout": stdout, "stderr": err.getvalue()[:2000],
                "stdout_sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
            }) + "\n")
            j += 1
    if tracer is not None:
        tracer.write(os.path.join(args.workdir, "spans"))
    summary = {
        "busy_s": busy,
        "peak_rss_kb": peak_rss_kb(),
        "inputs_sha256": writer.digest.hexdigest(),
        "probes": probes,
    }
    with open(os.path.join(args.workdir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
