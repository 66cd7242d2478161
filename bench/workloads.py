"""Seeded job streams for the four benchmark workloads.

A job is one ``fincomplete --json ...`` argv list plus the facts the
output checks need.  Every model file a job reads is written here, with
this module's own exact arithmetic, into a directory of the run; nothing
is read from the repository's registry or produced by the program.

Each workload is a fixed cycle of job specs.  Cycle ``c`` visits the specs
in an order shuffled by ``(workload, seed, c)`` and job ``j`` draws its
model contents from ``(workload, seed, j)``, so the same seed gives the
same inputs, and every job gets inputs of its own: no in-process cache can
turn a job into a hit that a one-process-per-call user would never get.
The mix of job sizes is fixed by the cycle rather than drawn, which keeps
the per-job percentiles inside a size class instead of on the edge
between two.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

WORKLOADS = ("hunt-reject", "hunt-find", "decide-small", "decide-large")

# hunt-reject: nothing dropped, so a find would contradict a proved
# theorem and every draw ends in the quick reject.  The two budgets give
# the two templates about the same job time, so the per-job median does
# not sit on the edge between them.
REJECT_SPECS = (("two_block_grid", None, 160), ("cks", None, 100))

# hunt-find: one family dropped and --max-found equal to the budget, so
# survivors go through the full verifier and the minimizer and every job
# examines exactly its budget.
FIND_SPECS = (
    ("two_block_grid", "c1-sufficiency", 8),
    ("cks", "homogeneity", 32),
    ("joint_completeness", "sufficiency", 48),
)

# decide-small: model shapes are ("random", points, params), ("full", ...)
# for rows without zero masses, or ("power", base points, exponent, params).
# optimal-sigma and umvue enumerate 2^points subsets and take nearly all of
# the time; their models have full support, which fixes the number of
# orthogonality rows and so the time of each size.  check and minimal take
# about 2 ms, mostly per-call CLI cost.  Light jobs are about two thirds of
# the stream, so the median job sits among them, and the 16-point
# enumerations are about a fifth, so the 90th percentile sits among those
# and not on the edge between two sizes.
_SMALL_HEAVY = (
    ("full", 10, 2),
    ("full", 12, 3),
    ("full", 13, 5),
    ("full", 14, 1),
    ("full", 15, 2),
    ("power", 3, 2, 3),
    ("full", 16, 1),
    ("full", 16, 2),
    ("full", 16, 3),
    ("full", 16, 4),
    ("power", 2, 4, 2),
    ("power", 4, 2, 1),
)
_SMALL_LIGHT = (
    ("random", 8, 1),
    ("random", 9, 4),
    ("random", 11, 2),
    ("random", 12, 5),
    ("random", 13, 3),
    ("random", 14, 2),
    ("random", 16, 5),
    ("power", 2, 3, 2),
    ("power", 4, 2, 3),
)
SMALL_SPECS = (
    tuple(("optimal-sigma", s) for s in _SMALL_HEAVY)
    + tuple(("umvue", s) for s in _SMALL_HEAVY)
    + tuple(("complete", s) for s in _SMALL_LIGHT + _SMALL_HEAVY)
    + tuple(("minimal", s) for s in _SMALL_LIGHT + _SMALL_HEAVY)
)
# counterexample replays take no input file, so each runs once per run.
SMALL_REPLAYS = {5: "CE52", 10: "CE53", 15: "CE54", 20: "CE55"}

# decide-large: i.i.d. powers ("power", base points, exponent, params)
# with 81-729 points, plus the truncation verifiers on a 5-point chain
# ("chain", n, events).  Discrete completeness builds the whole kernel
# basis, which grows with the square of the points, so it runs on 81 and
# 128 points; minimal and sufficient go up to 729.  The slowest class
# (completeness on 128 points, minimal on 729, truncation at n = 4 over
# intervals) is over a quarter of the jobs and holds the 90th percentile;
# completeness on 81 points and the jobs as slow as it are over a third and
# hold the median.
LARGE_SPECS = (
    ("complete", ("power", 2, 7, 1)),
    ("complete", ("power", 2, 7, 2)),
    ("complete", ("power", 2, 7, 2)),
    ("complete", ("power", 2, 7, 3)),
    ("complete", ("power", 3, 4, 1)),
    ("complete", ("power", 3, 4, 1)),
    ("complete", ("power", 3, 4, 2)),
    ("complete", ("power", 3, 4, 2)),
    ("complete", ("power", 3, 4, 3)),
    ("complete", ("power", 3, 4, 3)),
    ("minimal", ("power", 3, 5, 2)),
    ("minimal", ("power", 2, 8, 3)),
    ("minimal", ("power", 2, 9, 2)),
    ("minimal", ("power", 3, 6, 2)),
    ("minimal", ("power", 3, 6, 3)),
    ("sufficient-type", ("power", 3, 6, 3)),
    ("sufficient-type", ("power", 2, 9, 2)),
    ("sufficient-sum", ("power", 3, 5, 2)),
    ("sufficient-sum", ("power", 2, 8, 2)),
    ("sufficient-first", ("power", 3, 6, 2)),
    ("truncation-family", ("chain", 2, "intervals")),
    ("truncation-family", ("chain", 3, "uprays")),
    ("truncation-family", ("chain", 4, "downrays")),
    ("truncation-family", ("chain", 4, "intervals")),
    ("unknown-truncation", ("chain", 1, "intervals")),
)

_GRID = 12  # masses are drawn on a 1/12-step grid before normalizing


@dataclass
class Job:
    """One CLI invocation and what its output is checked against."""

    kind: str
    argv: list[str]
    expect_exit: tuple[int, ...]
    info: dict = field(default_factory=dict)


def rational_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _row(rng: random.Random, n: int, full_support: bool) -> list[Fraction]:
    while True:
        raw = [rng.randint(1 if full_support else 0, _GRID) for _ in range(n)]
        total = sum(raw)
        if total:
            return [Fraction(w, total) for w in raw]


def _power(base: list[list[Fraction]], m: int):
    tuples = list(product(range(len(base[0])), repeat=m))
    rows = []
    for brow in base:
        row = []
        for t in tuples:
            p = Fraction(1)
            for i in t:
                p *= brow[i]
            row.append(p)
        rows.append(row)
    return tuples, rows


def _first_appearance(keys) -> list[int]:
    seen: dict = {}
    return [seen.setdefault(k, len(seen)) for k in keys]


class InputWriter:
    """Writes model files into one directory and hashes every byte written.

    Jobs name their files relative to that directory, which is the working
    directory of the process that runs them, so argv lists and digests do
    not depend on where the checkout lives.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self.digest = hashlib.sha256()
        os.makedirs(directory, exist_ok=True)

    def model(self, name: str, points, params, rows, partitions=None) -> str:
        doc = {
            "points": list(points),
            "params": list(params),
            "prob": [[rational_str(x) for x in row] for row in rows],
        }
        if partitions:
            doc["partitions"] = partitions
        data = json.dumps(doc).encode("utf-8")
        with open(os.path.join(self.directory, name), "wb") as fh:
            fh.write(data)
        self.digest.update(name.encode() + b"\0" + data)
        return name

    def note_argv(self, argv: list[str]) -> None:
        self.digest.update("\0".join(argv).encode() + b"\n")


def _spec(specs, workload: str, seed: int, j: int):
    cycle, pos = divmod(j, len(specs))
    order = random.Random(f"{workload}:{seed}:cycle{cycle}").sample(range(len(specs)), len(specs))
    return specs[order[pos]]


def _hunt_job(workload: str, specs, seed: int, j: int) -> Job:
    template, drop, budget = _spec(specs, workload, seed, j)
    hunt_seed = seed * 1_000_000 + j
    argv = ["--json", "search", "--template", template, "--budget", str(budget),
            "--seed", str(hunt_seed), "--max-found", str(budget)]
    if drop:
        argv += ["--drop", drop]
    return Job(workload, argv, (0,), {"template": template, "drop": drop, "budget": budget})


def _small_model(w: InputWriter, rng: random.Random, j: int, shape):
    if shape[0] in ("random", "full"):
        _, n, k = shape
        points = [f"x{i}" for i in range(n)]
        rows = [_row(rng, n, full_support=shape[0] == "full") for _ in range(k)]
    else:
        _, b, m, k = shape
        tuples, rows = _power([_row(rng, b, True) for _ in range(k)], m)
        points = ["(" + ",".join(map(str, t)) + ")" for t in tuples]
        n = len(points)
    partition = _first_appearance(rng.randint(0, 3) for _ in range(n))
    path = w.model(f"job{j}.model", points, [f"t{i}" for i in range(len(rows))], rows,
                   {"S": partition})
    return path, rows


def _decide_small_job(w: InputWriter, seed: int, j: int) -> Job:
    if j in SMALL_REPLAYS:
        ce = SMALL_REPLAYS[j]
        return Job("counterexample", ["--json", "counterexample", ce], (0,), {"id": ce})
    slot = j - sum(1 for s in SMALL_REPLAYS if s < j)
    command, shape = _spec(SMALL_SPECS, "decide-small", seed, slot)
    rng = random.Random(f"decide-small:{seed}:{j}")
    path, rows = _small_model(w, rng, j, shape)
    if command == "optimal-sigma":
        return Job(command, ["--json", "optimal-sigma", "--model", path], (0,), {"model": path})
    if command == "umvue":
        # the estimand is the mean of a seeded function, so it is estimable
        f = [rng.randint(-3, 3) for _ in rows[0]]
        estimand = [sum((p * v for p, v in zip(row, f)), Fraction(0)) for row in rows]
        argv = ["--json", "umvue", "--model", path,
                "--estimand=" + ",".join(rational_str(e) for e in estimand)]
        return Job(command, argv, (0, 1), {"model": path, "estimand": [rational_str(e) for e in estimand]})
    if command == "complete":
        argv = ["--json", "check", "--model", path, "--partition", "S", "--property", "complete"]
        return Job(command, argv, (0, 1), {"model": path, "partition": "S"})
    return Job(command, ["--json", "minimal", "--model", path], (0,), {"model": path})


def _decide_large_job(w: InputWriter, seed: int, j: int) -> Job:
    command, shape = _spec(LARGE_SPECS, "decide-large", seed, j)
    rng = random.Random(f"decide-large:{seed}:{j}")
    if shape[0] == "chain":
        _, n, events = shape
        # one full-support distribution on the chain: the setting in which
        # both truncation results are theorems, so "verified" is expected
        row = _row(rng, 5, full_support=True)
        path = w.model(f"job{j}.model", [str(i) for i in range(5)], ["t0"], [row],
                       {"C": [0] * 5})
        argv = ["--json", "verify", command, "--model", path, "--events", events, "--n", str(n)]
        if command == "unknown-truncation":
            argv += ["--partition", "C"]
        return Job(command, argv, (0,), {"model": path})
    _, b, m, k = shape
    tuples, rows = _power([_row(rng, b, True) for _ in range(k)], m)
    partitions = {
        "type": _first_appearance(tuple(sorted(t)) for t in tuples),
        "sum": _first_appearance(sum(t) for t in tuples),
        "first": _first_appearance(t[0] for t in tuples),
    }
    points = ["(" + ",".join(map(str, t)) + ")" for t in tuples]
    path = w.model(f"job{j}.model", points, [f"t{i}" for i in range(k)], rows, partitions)
    if command == "complete":
        argv = ["--json", "check", "--model", path, "--partition", "discrete", "--property", "complete"]
        return Job(command, argv, (1,), {"model": path, "partition": "discrete"})
    if command == "minimal":
        return Job(command, ["--json", "minimal", "--model", path], (0,), {"model": path})
    part = command.split("-", 1)[1]
    argv = ["--json", "check", "--model", path, "--partition", part, "--property", "sufficient"]
    return Job("sufficient", argv, (0, 1), {"model": path, "partition": part})


def whole_cycles(workload: str, n: int) -> bool:
    """True when the first ``n`` jobs are whole cycles of the workload's
    specs, so a run's mix of job sizes does not depend on where it stopped."""
    if workload == "decide-small":
        return n > max(SMALL_REPLAYS) and (n - len(SMALL_REPLAYS)) % len(SMALL_SPECS) == 0
    specs = {"hunt-reject": REJECT_SPECS, "hunt-find": FIND_SPECS, "decide-large": LARGE_SPECS}[workload]
    return n % len(specs) == 0


def make_job(workload: str, seed: int, j: int, writer: InputWriter) -> Job:
    """Job ``j`` of a workload's stream; writes the job's input files."""
    if workload == "hunt-reject":
        job = _hunt_job(workload, REJECT_SPECS, seed, j)
    elif workload == "hunt-find":
        job = _hunt_job(workload, FIND_SPECS, seed, j)
    elif workload == "decide-small":
        job = _decide_small_job(writer, seed, j)
    elif workload == "decide-large":
        job = _decide_large_job(writer, seed, j)
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    writer.note_argv(job.argv)
    return job
