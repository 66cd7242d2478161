"""Smoke check of the benchmark itself.

Runs all four workloads with a tiny budget, traced, and prints every
end-to-end and per-layer metric with its unit; then corrupts one
incompleteness witness in a real job record and requires the output
checks to count that job as failed.  Exits 0 when all of this holds.

    python3 bench/smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import workloads

SECONDS = 0.3


def _corrupt_witness(record: dict) -> dict:
    out = json.loads(record["stdout"])
    values = out["witness"]["function"]
    k = next(i for i, v in enumerate(values) if v != "0")
    values[k] = "0"
    return {**record, "stdout": json.dumps(out)}


def corrupted_witness_is_counted() -> bool:
    workdir = os.path.join(run.WORK, f"smoke-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        deadline = time.monotonic() + run.RUN_DEADLINE_S
        # one whole cycle holds every kind of decide-large job
        _, records = run.run_worker("decide-large", 1, SECONDS, workdir, deadline,
                                    jobs=len(workloads.LARGE_SPECS))
        inputs = os.path.join(workdir, "inputs")
        if run.check_records(records, inputs):
            print("smoke: untouched records already fail")
            return False
        target = next(i for i, r in enumerate(records) if r["kind"] == "complete" and r["exit"] == 1)
        records[target] = _corrupt_witness(records[target])
        failures = run.check_records(records, inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ratio = len(failures) / len(records)
    print(f"smoke: corrupted witness -> failed {len(failures)}/{len(records)}, failed_ratio {ratio:.4f}: "
          + "; ".join(failures.values()))
    return list(failures) == [records[target]["index"]]


def main() -> int:
    ok = True
    for workload in workloads.WORKLOADS:
        result, record = run.run_workload(workload, 1, SECONDS, trace=True)
        want = dict(run.END_TO_END + run.REPORT_ONLY
                    + (run.HUNT_ONLY if workload.startswith("hunt-") else ()))
        got = {k: m["unit"] for k, m in record["end_to_end"].items()}
        layers = {k: m["unit"] for k, m in result["metrics"].items()}
        for name, m in list(record["end_to_end"].items()) + list(result["metrics"].items()):
            print(f"{workload:<13} {name:<28} {m['value']:>14.6g} {m['unit']}")
        if got != want or layers != dict(run.PER_LAYER) or not result["correct"]:
            print(f"smoke: {workload} metrics or outputs wrong: {record['failures']}")
            ok = False
    ok = corrupted_witness_is_counted() and ok
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
