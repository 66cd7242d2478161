"""The repository benchmark: seeded CLI workloads, checked and timed.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

One run generates its inputs from the seed (``workloads.py``), measures
``setup_s`` in fresh interpreters, runs the job list in REPEATS fresh
workload processes (``worker.py``), each a closed loop with one client,
for ``--seconds`` of job time in all, and re-checks every output
(``oracle.py``).  Each job counts its fastest time over the processes,
scaled to a reference host speed (``hostspeed.py``).  With ``--trace 1``
the job list runs once more in a fresh process with the tracer installed
(``tracer.py``) and the per-layer metrics are reported; every job's
stdout must be byte-identical in all processes.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
record: provenance, input and output digests, failures, unscaled times,
and the metrics without a place in that object (``draws_per_s`` and
``failed_ratio``).  ``--workload all`` also prints a table.  Files go to
``.bench_work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

import hostspeed
import oracle
import tracer
import workloads

SETUP_REPEATS = 11
# Each job runs in this many fresh workload processes, spread over the
# run, and counts its fastest scaled time: host contention bursts shorter
# than the probe spacing still inflate single timings.
REPEATS = 3
RUN_DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
HUNT_ONLY = (("draws_per_s", "1/s"),)
REPORT_ONLY = (("failed_ratio", "ratio"),)

PER_LAYER = (
    ("cli.self_s", "s"), ("cli.jobs", "count"),
    ("serialization.load.self_s", "s"), ("serialization.load.bytes", "bytes"),
    ("serialization.emit.self_s", "s"), ("serialization.emit.bytes", "bytes"),
    ("registry.load.self_s", "s"), ("registry.replay.self_s", "s"), ("registry.rows", "count"),
    ("search.self_s", "s"), ("search.draws", "count"), ("search.reject_s", "s"),
    ("search.verify_s", "s"), ("search.verify_calls", "count"), ("search.finds", "count"),
    ("search.find_ratio", "ratio"),
    ("verify.calls", "count"), ("verify.self_s", "s"), ("verify.hypotheses", "count"),
    ("optimal.sigma.calls", "count"), ("optimal.sigma.self_s", "s"),
    ("optimal.sigma.subsets", "count"), ("optimal.umvue.self_s", "s"),
    ("optimal.zero_basis.self_s", "s"),
    ("checks.complete.calls", "count"), ("checks.complete.self_s", "s"),
    ("checks.complete.witnesses", "count"), ("checks.sufficient.calls", "count"),
    ("checks.sufficient.self_s", "s"), ("checks.minimal.self_s", "s"),
    ("checks.homogeneous.calls", "count"), ("checks.homogeneous.self_s", "s"),
    ("model.construct.calls", "count"), ("model.construct.self_s", "s"),
    ("model.construct.points", "count"), ("model.support.self_s", "s"),
    ("model.validate.self_s", "s"),
    ("linalg.rank.calls", "count"), ("linalg.rank.self_s", "s"),
    ("linalg.rref.calls", "count"), ("linalg.rref.self_s", "s"),
    ("linalg.kernel.calls", "count"), ("linalg.kernel.self_s", "s"),
    ("linalg.kernel.vectors", "count"), ("linalg.normalize.self_s", "s"),
    ("linalg.solve.calls", "count"), ("linalg.solve.self_s", "s"), ("linalg.cells", "count"),
    ("trace.overhead", "ratio"),
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run deadline passed")
    return left


def measure_setup(deadline: float) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing the CLI, scaled
    to the reference host speed, and unscaled."""
    cmd = [sys.executable, "-c", "import fincomplete.cli"]
    times, probes = [], []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=_env(), check=True, timeout=_remaining(deadline),
                       stdout=subprocess.DEVNULL)
        if i:  # the first import also compiles bytecode
            times.append(time.perf_counter() - t0)
        probes.append((len(times), hostspeed.probe()))
    return statistics.median(hostspeed.scale(times, probes)), statistics.median(times)


def run_worker(workload: str, seed: int, seconds: float, workdir: str, deadline: float,
               jobs: int | None = None, trace: bool = False) -> tuple[dict, list[dict]]:
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--workdir", workdir]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), timeout=_remaining(deadline),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(os.path.join(workdir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(os.path.join(workdir, "records"), encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return summary, records


def _draws(record: dict) -> int:
    budget = record["info"]["budget"]
    found = json.loads(record["stdout"])["found"]
    return found[-1]["draws"] if len(found) >= budget else budget


def _source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _read_text(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                          timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str | None:
    for line in (_read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _loadavg() -> str | None:
    text = _read_text("/proc/loadavg")
    return text.strip() if text else None


def check_records(records: list[dict], inputs_dir: str) -> dict[int, str]:
    """Why each failed job failed, by job index."""
    failures = {}
    for rec in records:
        why = oracle.check_job(rec, inputs_dir)
        if why is not None:
            failures[rec["index"]] = f"{rec['kind']}: {why}"
    return failures


def _layer_metrics(summary: dict, overhead: float) -> dict:
    spans, counts, hunt = summary["spans"], summary["counts"], summary["hunt"]
    values = dict(counts)
    values.update(hunt)
    for span, stats in spans.items():
        values[f"{span}.self_s"] = stats["self_s"]
        values[f"{span}.calls"] = stats["calls"]
    values["cli.jobs"] = spans["cli"]["calls"]
    calls = hunt["search.verify_calls"]
    values["search.find_ratio"] = counts.get("search.finds", 0) / calls if calls else 0.0
    values["trace.overhead"] = overhead
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}


def _passes(workload: str, seed: int, seconds: float, workdir: str, deadline: float):
    """Run the job list in REPEATS fresh workload processes.

    The first process runs for its share of ``seconds``; the others run
    exactly its jobs, regenerated from the seed.  Returns the per-process
    summaries, the first process's records, each job's fastest scaled wall
    time, and the jobs whose exit code or stdout differed between processes.
    """
    summaries, walls, unstable = [], None, {}
    for k in range(REPEATS):
        summary, records = run_worker(workload, seed, seconds / REPEATS, os.path.join(workdir, f"pass{k}"),
                                      deadline, jobs=None if k == 0 else len(walls))
        summaries.append(summary)
        scaled = hostspeed.scale([r["wall_s"] for r in records], summary["probes"])
        if k == 0:
            first, walls = records, scaled
            continue
        if summary["inputs_sha256"] != summaries[0]["inputs_sha256"]:
            raise BenchError("a repeat generated other inputs than the first run")
        shutil.rmtree(os.path.join(workdir, f"pass{k}", "inputs"), ignore_errors=True)
        for i, (a, b) in enumerate(zip(first, records)):
            walls[i] = min(walls[i], scaled[i])
            if a["stdout_sha256"] != b["stdout_sha256"] or a["exit"] != b["exit"]:
                unstable[a["index"]] = "output differs between identical runs"
    return summaries, first, walls, unstable


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run: returns the result object and the run record."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    provenance = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "loadavg_start": _loadavg(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }
    try:
        setup_s, raw_setup_s = measure_setup(deadline)
        summaries, records, walls, failures = _passes(workload, seed, seconds, workdir, deadline)
        failures.update(check_records(records, os.path.join(workdir, "pass0", "inputs")))
        busy = sum(walls)
        record = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "jobs": len(records), "repeats": REPEATS, "busy_s": busy,
            "unscaled": {"setup_s": raw_setup_s, "busy_s": [s["busy_s"] for s in summaries],
                         "probe_median_s": [statistics.median(d for _, d in s["probes"]) for s in summaries]},
            "inputs_sha256": summaries[0]["inputs_sha256"],
            "stdout_sha256": hashlib.sha256(
                "".join(r["stdout_sha256"] for r in records).encode()).hexdigest(),
        }
        metrics = {
            "setup_s": setup_s,
            "jobs_per_s": len(records) / busy,
            "job_p50_ms": statistics.median(walls) * 1000,
            "job_p90_ms": statistics.quantiles(walls, n=10)[8] * 1000 if len(walls) > 1 else walls[0] * 1000,
            "peak_rss_mb": max(s["peak_rss_kb"] for s in summaries) / 1024,
        }
        extra = {"failed_ratio": len(failures) / len(records)}
        if workload.startswith("hunt-"):
            extra["draws_per_s"] = sum(_draws(r) for r in records if r["exit"] == 0) / busy
        units = dict(END_TO_END + HUNT_ONLY + REPORT_ONLY)
        record["end_to_end"] = {k: {"value": v, "unit": units[k]} for k, v in {**metrics, **extra}.items()}
        if trace:
            # the traced run takes the fewest whole cycles with enough jobs,
            # so its counters repeat exactly for a given seed
            traced_dir = os.path.join(workdir, "traced")
            tsummary, trecords = run_worker(workload, seed, 0, traced_dir, deadline, trace=True)
            n = len(trecords)
            for plain, traced in zip(records, trecords):
                if plain["stdout_sha256"] != traced["stdout_sha256"] or plain["exit"] != traced["exit"]:
                    failures.setdefault(plain["index"], "traced output differs from untraced")
            job_scale = hostspeed.scale([1.0] * n, tsummary["probes"])
            traced_busy = sum(r["wall_s"] * f for r, f in zip(trecords, job_scale))
            plain_busy = sum(hostspeed.scale([r["wall_s"] for r in records], summaries[0]["probes"])[:n])
            spans = tracer.summarize(os.path.join(traced_dir, "spans"), job_scale)
            result_metrics = _layer_metrics(spans, traced_busy / plain_busy)
        else:
            result_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    provenance["loadavg_end"] = _loadavg()
    record["provenance"] = provenance
    record["failures"] = {i: failures[i] for i in sorted(failures)[:20]}
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": result_metrics,
    }
    return result, record


def _print_table(workload: str, record: dict) -> None:
    for name, m in record["end_to_end"].items():
        print(f"{workload:<13} {name:<13} {m['value']:>14.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fincomplete", "cli.py")):
        print(f"no engine source at {SRC}: run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in names:
            result, record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            results[workload] = result
            print(json.dumps(record))
            if args.workload == "all":
                _print_table(workload, record)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
