"""Acceptance suite: every criterion runs at its stated budget and
tolerance and prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import fincomplete as fc
from fincomplete import (
    FiniteModel,
    GenConfig,
    Partition,
    SubmodelRef,
    exists_complete_sufficient,
    gen_main_instances,
    hunt,
    is_complete,
    is_sufficient,
    join,
    meet_of_optimal_sigmas,
    minimal_sufficient_partition,
    optimal_sigma_algebra,
    support_union,
    verify_joint_completeness,
    verify_truncation_family,
)
from fincomplete import linalg
from fincomplete.cli import run
from fincomplete.reports import STATUS_VERIFIED
from fincomplete.serialization import load_model_file, theorem_report_to_dict
from fincomplete.verify import Exhaustion

from conftest import oracle_is_complete, uniform_chain, valid_incompleteness_witness

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
REGISTRY = os.path.join(SRC, "fincomplete", "counterexamples")


def _report(criterion: str, ok: bool, elapsed: float, limit: float, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"ACCEPTANCE {criterion}: {verdict} ({elapsed:.2f}s < {limit:.0f}s){extra}")
    assert ok, f"{criterion} failed:{extra}"
    assert elapsed < limit, f"{criterion} exceeded runtime budget: {elapsed:.2f}s"


def test_criterion_1_registry_replay():
    start = time.monotonic()
    reports = fc.replay_all()
    ok = all(r.verified for r in reports)

    # the headline claims, asserted directly on top of the row replay
    e55 = fc.load("CE55")
    for sel in ("theta1=1", "theta1=2", "theta2=1", "theta2=2"):
        sec = fc.parse_submodel(e55.model, sel).restrict(e55.model)
        ok &= is_complete(e55.partitions["C1"], sec).passed
        ok &= is_sufficient(e55.partitions["C1"], sec).passed
    joined = join(e55.partitions["C1"], e55.partitions["C2"])
    ok &= joined.block_id == (0, 0, 1)
    ok &= is_complete(joined, e55.model).passed
    ok &= is_sufficient(joined, e55.model).failed

    e53 = fc.load("CE53")
    cks53 = fc.verify_cks(e53.components["Q"], e53.components["R"])
    ok &= all("homogeneous" in lab for lab in cks53.failed_hypotheses())
    ok &= cks53.conclusion_result.failed
    h53 = e53.functions["abs-diff-centered"]
    ok &= all(e53.model.expectation(i, h53.values) == 0 for i in range(4))

    e54 = fc.load("CE54")
    ok &= is_complete(Partition.discrete(2), e54.components["R"]).passed
    cks54 = fc.verify_cks(e54.components["Q"], e54.components["R"])
    ok &= cks54.conclusion_result.failed
    h54 = e54.functions["abs-diff-centered"]
    ok &= all(e54.model.expectation(i, h54.values) == 0 for i in range(4))

    e52 = fc.load("CE52")
    rep52 = is_complete(Partition.discrete(4), e52.model)
    ok &= rep52.failed and rep52.witness["function"].values == (0, -1, 1, 0)

    elapsed = time.monotonic() - start
    _report("1 registry-replay", ok, elapsed, 1.0)


def test_criterion_2_main_theorem_property_suite():
    start = time.monotonic()
    count = 500
    verified = 0
    for inst in gen_main_instances(GenConfig(seed=20240), count):
        assert inst.model.num_points <= 64
        assert inst.model.num_params <= 8
        report = verify_joint_completeness(inst.model, inst.family)
        if report.status == STATUS_VERIFIED:
            verified += 1
    elapsed = time.monotonic() - start
    _report(
        "2 main-theorem-suite",
        verified == count,
        elapsed,
        60.0,
        f"verified {verified}/{count}",
    )


def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(30303)
    count = 2000
    agree = 0
    for _ in range(count):
        n = rng.randint(1, 5)
        k = rng.randint(1, 4)
        rows = []
        for _ in range(k):
            while True:
                raw = [Fraction(rng.randint(0, 6)) for _ in range(n)]
                if sum(raw) > 0:
                    rows.append(tuple(w / sum(raw) for w in raw))
                    break
        m = FiniteModel(
            tuple(f"x{i}" for i in range(n)),
            tuple(f"t{j}" for j in range(k)),
            tuple(rows),
        )
        c = Partition(tuple(rng.randint(0, n - 1) for _ in range(n)))
        sub = SubmodelRef.full(m)
        rep = is_complete(c, m)
        if rep.passed == oracle_is_complete(c, m, sub):
            agree += 1
        if rep.failed:
            assert valid_incompleteness_witness(rep.witness["function"], m, sub)
    elapsed = time.monotonic() - start
    _report(
        "3 oracle-equivalence", agree == count, elapsed, 30.0, f"agreement {agree}/{count}"
    )


def _random_model_for_optimal(rng: random.Random, max_points: int) -> FiniteModel:
    n = rng.randint(2, max_points)
    k = rng.randint(1, 5)
    rows = []
    for _ in range(k):
        while True:
            raw = [Fraction(rng.randint(0, 12)) for _ in range(n)]
            if sum(raw) > 0:
                rows.append(tuple(w / sum(raw) for w in raw))
                break
    return FiniteModel(
        tuple(f"x{i}" for i in range(n)), tuple(f"t{j}" for j in range(k)), tuple(rows)
    )


def test_criterion_4_optimal_partition_suite():
    start = time.monotonic()
    rng = random.Random(40404)
    count = 300
    ok = True
    exists_cases = 0
    for _ in range(count):
        m = _random_model_for_optimal(rng, 12)
        part = optimal_sigma_algebra(m)
        su = support_union(m)
        pts = sorted(su)

        # completeness of the optimal partition
        ok &= is_complete(part, m).passed

        # below every sufficient partition tested, up to null sets
        sufficient_found = []
        candidates = [
            minimal_sufficient_partition(m),
            Partition.discrete(m.num_points),
        ]
        for _ in range(6):
            candidates.append(
                Partition(tuple(rng.randint(0, m.num_points - 1) for _ in range(m.num_points)))
            )
        for c in candidates:
            if not is_sufficient(c, m).passed:
                continue
            sufficient_found.append(c)
            for a in range(len(pts)):
                for b in range(a + 1, len(pts)):
                    x, y = pts[a], pts[b]
                    if c.block_id[x] == c.block_id[y]:
                        ok &= part.block_id[x] == part.block_id[y]

        # existence decision and canonicity of the witness
        rep = exists_complete_sufficient(m)
        if rep.passed:
            exists_cases += 1
            witness = rep.witness["partition"]
            ok &= witness == part
            ok &= is_complete(witness, m).passed
            ok &= is_sufficient(witness, m).passed
            for c in sufficient_found:
                if is_complete(c, m).passed:
                    ok &= c.restricted_blocks(su) == part.restricted_blocks(su)
                    ok &= part.refines(c)
    elapsed = time.monotonic() - start
    _report(
        "4 optimal-partition-suite",
        ok,
        elapsed,
        120.0,
        f"{count} models, existence held in {exists_cases}",
    )


def test_criterion_5_meet_bound_suite():
    start = time.monotonic()
    rng = random.Random(50505)
    count = 200
    passed = 0
    for _ in range(count):
        m = _random_model_for_optimal(rng, 10)
        k = m.num_params
        indices = list(range(k))
        rng.shuffle(indices)
        pieces = []
        at = 0
        label = 0
        while at < len(indices):
            size = rng.randint(1, max(1, min(3, len(indices) - at)))
            pieces.append((str(label), SubmodelRef(tuple(indices[at : at + size]))))
            at += size
            label += 1
        if k >= 2 and rng.random() < 0.5:
            pieces.append(("overlap", SubmodelRef((indices[0], indices[-1]))))
        _, rep = meet_of_optimal_sigmas(m, Exhaustion("random", tuple(pieces)))
        if rep.passed:
            passed += 1
    elapsed = time.monotonic() - start
    _report("5 meet-bound-suite", passed == count, elapsed, 60.0, f"{passed}/{count}")


def test_criterion_6_discrete_taxi_check():
    start = time.monotonic()
    m0 = uniform_chain(5)
    ok = True
    for n in (2, 3):
        model, sig = fc.truncated_family(m0, fc.interval_events(5), n)
        ok &= sig == fc.min_max_partition(m0, n)
        ok &= is_complete(sig, model).passed
        ok &= is_sufficient(sig, model).passed

        model_u, sig_u = fc.truncated_family(m0, fc.upray_events(5), n)
        ok &= sig_u == fc.min_partition(m0, n)
        ok &= is_complete(sig_u, model_u).passed
        ok &= is_sufficient(sig_u, model_u).passed

        model_d, sig_d = fc.truncated_family(m0, fc.downray_events(5), n)
        ok &= sig_d == fc.max_partition(m0, n)
        ok &= is_complete(sig_d, model_d).passed
        ok &= is_sufficient(sig_d, model_d).passed
    elapsed = time.monotonic() - start
    _report("6 discrete-taxi-check", ok, elapsed, 5.0)


def _interval_instance(n: int):
    m0 = uniform_chain(5)
    events = fc.interval_events(5)
    model, sig = fc.truncated_family(m0, events, n)
    labels = [fc.model.event_label(m0, e) for e in events]
    bounds = {lab: (min(e), max(e)) for lab, e in zip(labels, events)}
    by_upper: dict[str, list[int]] = {}
    by_lower: dict[str, list[int]] = {}
    for i, lab in enumerate(model.params):
        a, b = bounds[lab[1]]
        by_upper.setdefault(str(b), []).append(i)
        by_lower.setdefault(str(a), []).append(i)
    exh_min = Exhaustion(
        "fix-upper", tuple((k, SubmodelRef(tuple(v))) for k, v in sorted(by_upper.items()))
    )
    exh_max = Exhaustion(
        "fix-lower", tuple((k, SubmodelRef(tuple(v))) for k, v in sorted(by_lower.items()))
    )
    return m0, model, sig, exh_min, exh_max


def test_criterion_7_route_equality():
    start = time.monotonic()
    n = 2
    m0, model, sig, exh_min, exh_max = _interval_instance(n)
    min_p = fc.min_partition(m0, n)
    max_p = fc.max_partition(m0, n)
    via_exhaustions = verify_joint_completeness(
        model, [(min_p, exh_min), (max_p, exh_max)]
    )
    via_truncation = verify_truncation_family(m0, fc.interval_events(5), n)
    ok = via_exhaustions.status == STATUS_VERIFIED
    ok &= via_truncation.status == STATUS_VERIFIED
    # both routes decide completeness of the same partition
    ok &= join(min_p, max_p) == sig
    ok &= (
        via_exhaustions.conclusion_result.verdict
        == via_truncation.conclusion_result.verdict
    )
    elapsed = time.monotonic() - start
    _report("7 route-equality", ok, elapsed, 5.0)


def test_criterion_8_hunt_regression():
    start = time.monotonic()
    budget = 100_000
    cfg = GenConfig(seed=2024)
    found = hunt("two_block_grid", "c1-sufficiency", budget, cfg)
    ok = bool(found)
    if found:
        hit = found[0]
        ok &= hit.report.conclusion_result.failed
        for label, rep in hit.report.hypothesis_results:
            if rep.failed:
                ok &= "c1-sufficient" in label
        m = hit.models["main"]
        ok &= valid_incompleteness_witness(
            hit.report.conclusion_result.witness["function"], m, SubmodelRef.full(m)
        )
    none = hunt("two_block_grid", None, budget, cfg)
    ok &= none == []
    elapsed = time.monotonic() - start
    _report(
        "8 hunt-regression",
        ok,
        elapsed,
        120.0,
        f"found after {found[0].draws} draws; none without drop" if found else "",
    )


def _determinism_digest() -> str:
    chunks = []
    for report in fc.replay_all():
        chunks.append(json.dumps(theorem_report_to_dict(report), sort_keys=True))
    m0, model, sig, exh_min, exh_max = _interval_instance(2)
    rep = verify_joint_completeness(
        model, [(fc.min_partition(m0, 2), exh_min), (fc.max_partition(m0, 2), exh_max)]
    )
    chunks.append(json.dumps(theorem_report_to_dict(rep), sort_keys=True))
    found = hunt("two_block_grid", "c1-sufficiency", 2000, GenConfig(seed=2024))
    chunks.append(json.dumps(theorem_report_to_dict(found[0].report), sort_keys=True))
    return "\n".join(chunks)


def test_criterion_9_determinism():
    start = time.monotonic()
    ok = _determinism_digest() == _determinism_digest()

    # byte-identical CLI output across processes, hash seeds, and thread counts
    outs = []
    for hashseed, threads in (("1", "1"), ("2", "4"), ("742", "2")):
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=path)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "fincomplete.cli",
                "--json",
                "--threads",
                threads,
                "counterexample",
                "CE55",
            ],
            capture_output=True,
            env=env,
            cwd=os.path.dirname(SRC),
        )
        ok &= proc.returncode == 0
        outs.append(proc.stdout)
    ok &= outs[0] == outs[1] == outs[2]
    elapsed = time.monotonic() - start
    _report("9 determinism", ok, elapsed, 60.0)


# SHA-256 of _determinism_digest() and of the `--json check --partition
# discrete --property complete` stdout for the 6th power of ce55.model, as
# produced by the Fraction Gauss-Jordan route before the fraction-free core
# replaced it.  Both must stay byte-identical.
GOLDEN_DETERMINISM_SHA256 = "8fc2396f787090f8468b180e169f5adfcda153f173936a32981939675c7e7e54"
GOLDEN_CE55_POW6_COMPLETE_SHA256 = "2679831f0e00d2094c01a1ed4a61fbfcbfd2b47b1cbf9093cefb5d7734c57bbe"


def test_discrete_completeness_witness_needs_no_kernel_basis(capsys, tmp_path, monkeypatch):
    digest = hashlib.sha256(_determinism_digest().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_DETERMINISM_SHA256

    def no_basis(rows, width):
        raise AssertionError("the completeness witness must not build a kernel basis")

    monkeypatch.setattr(linalg, "kernel_basis", no_basis)
    base = os.path.join(REGISTRY, "ce55.model")
    m = fc.power_model(load_model_file(base).model, 6)
    assert m.num_points == 729
    sub = SubmodelRef.full(m)
    rep = is_complete(Partition.discrete(m.num_points), m)
    assert rep.failed
    assert valid_incompleteness_witness(rep.witness["function"], m, sub)

    out_path = str(tmp_path / "ce55_pow6.model")
    assert run(["construct", "power", "--model", base, "--n", "6", "--out", out_path]) == 0
    capsys.readouterr()
    argv = ["--json", "check", "--model", out_path, "--partition", "discrete", "--property", "complete"]
    assert run(argv) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_CE55_POW6_COMPLETE_SHA256


# SHA-256 of the `--json minimal` stdout and of the `--json check --partition
# discrete --property sufficient` stdout for the 6th power of ce55.model, as
# produced by the representative scan and the all-pairs sufficiency loop
# before the ray-key pass and the first-member comparison replaced them.
GOLDEN_CE55_POW6_MINIMAL_SHA256 = "7db8f1f808d3c969d50bfacfc6db8c999f00934639f39a771d90b33a6af7af77"
GOLDEN_CE55_POW6_SUFFICIENT_SHA256 = "32c6d3ca2bd1b383e919a26aaf24f4172f5b9465a9515140dd5bbb393d5af113"


def test_ce55_power_minimal_and_sufficiency_bytes(capsys, tmp_path):
    out_path = str(tmp_path / "ce55_pow6.model")
    base = os.path.join(REGISTRY, "ce55.model")
    assert run(["construct", "power", "--model", base, "--n", "6", "--out", out_path]) == 0
    capsys.readouterr()
    for argv, golden in (
        (["--json", "minimal", "--model", out_path], GOLDEN_CE55_POW6_MINIMAL_SHA256),
        (
            ["--json", "check", "--model", out_path, "--partition", "discrete", "--property", "sufficient"],
            GOLDEN_CE55_POW6_SUFFICIENT_SHA256,
        ),
    ):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == golden
