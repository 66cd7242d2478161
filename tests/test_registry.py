import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import fincomplete as fc
from fincomplete import cli, registry
from fincomplete.errors import InputError
from fincomplete.model import FiniteModel, Partition, RationalFunction
from fincomplete.registry import ExpectedRow, RegistryEntry, execute_row, replay
from fincomplete.serialization import theorem_report_to_dict

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
REGISTRY_DIR = os.path.join(SRC, "fincomplete", "counterexamples")


# --- oracle: the entries as they were built in code before they became data ---

def _fr(s: str) -> Fraction:
    return Fraction(s)


def _coin_pair_row(t: Fraction) -> tuple[Fraction, ...]:
    return ((1 - t) * (1 - t), t * (1 - t), t * (1 - t), t * t)


def _swapped_pair_row(t: Fraction) -> tuple[Fraction, ...]:
    return (t * t, t * (1 - t), t * (1 - t), (1 - t) * (1 - t))


def _build_ce52() -> RegistryEntry:
    thetas2 = ("1/5", "1/4", "1/3")
    points = ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
    params = tuple(("0", t) for t in thetas2) + tuple(("1", t) for t in thetas2)
    rows = tuple(_coin_pair_row(_fr(t)) for t in thetas2) + tuple(
        _swapped_pair_row(_fr(t)) for t in thetas2
    )
    model = FiniteModel(points, params, rows)
    partitions = {
        "sigmaX1": Partition((0, 0, 1, 1)),
        "sigmaSum": Partition((0, 1, 1, 2)),
        "discrete": Partition((0, 1, 2, 3)),
    }
    functions = {"x1-x2": RationalFunction(("0", "-1", "1", "0"))}

    expected = [
        ExpectedRow("model is valid", "validate", {}, {"verdict": "pass"}),
    ]
    for t in thetas2:
        expected.append(
            ExpectedRow(
                f"sigmaX1 complete for section theta2={t}",
                "check",
                {"property": "complete", "partition": "sigmaX1", "sub": f"theta2={t}"},
                {"verdict": "pass", "witness": None},
            )
        )
        expected.append(
            ExpectedRow(
                f"sigmaX1 not sufficient for section theta2={t}",
                "check",
                {"property": "sufficient", "partition": "sigmaX1", "sub": f"theta2={t}"},
                {
                    "verdict": "fail",
                    "witness": {
                        "point": "(0,0)",
                        "block": ["(0,0)", "(0,1)"],
                        "params": [["0", t], ["1", t]],
                    },
                },
            )
        )
    for t1 in ("0", "1"):
        expected.append(
            ExpectedRow(
                f"sigmaSum complete for section theta1={t1}",
                "check",
                {"property": "complete", "partition": "sigmaSum", "sub": f"theta1={t1}"},
                {"verdict": "pass", "witness": None},
            )
        )
        expected.append(
            ExpectedRow(
                f"sigmaSum sufficient for section theta1={t1}",
                "check",
                {"property": "sufficient", "partition": "sigmaSum", "sub": f"theta1={t1}"},
                {"verdict": "pass", "witness": None},
            )
        )
    expected += [
        ExpectedRow(
            "join of sigmaX1 and sigmaSum is the discrete partition",
            "join_partitions",
            {"first": "sigmaX1", "second": "sigmaSum"},
            {"block_id": [0, 1, 2, 3]},
        ),
        ExpectedRow(
            "join incomplete for the full grid, witness x1-x2",
            "check",
            {"property": "complete", "partition": "discrete", "sub": "all"},
            {"verdict": "fail", "witness": {"function": ["0", "-1", "1", "0"]}},
        ),
        ExpectedRow(
            "x1-x2 is a valid incompleteness witness",
            "incompleteness_witness",
            {"function": "x1-x2", "sub": "all"},
            {"verdict": "pass"},
        ),
        ExpectedRow(
            "two-block-grid verifier: only first-partition sufficiency fails",
            "two_block_grid",
            {"c1": "sigmaX1", "c2": "sigmaSum"},
            {
                "status": "conclusion-fails-with-hypothesis-gap",
                "failed_hypotheses": [
                    "c1-sufficient[axis2=1/5]",
                    "c1-sufficient[axis2=1/4]",
                    "c1-sufficient[axis2=1/3]",
                ],
                "conclusion_verdict": "fail",
                "conclusion_witness": {"function": ["0", "-1", "1", "0"]},
            },
        ),
    ]
    notes = (
        "the parameter grid {1/5, 1/4, 1/3} is a frozen finite stand-in for a "
        "continuum of second coordinates; the rows above re-verify every "
        "hypothesis the construction needs on this grid",
    )
    return RegistryEntry("CE52", model, partitions, functions, tuple(expected), {}, notes)


def _q_component() -> FiniteModel:
    return FiniteModel(
        ("0", "1"),
        ("0", "1"),
        ((_fr("1/3"), _fr("2/3")), (_fr("2/3"), _fr("1/3"))),
    )


def _build_ce53() -> RegistryEntry:
    q = _q_component()
    r = FiniteModel(
        ("0", "1"),
        (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")),
        (
            (Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(1)),
        ),
    )
    points = ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
    params = (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"))
    row0 = (_fr("1/3"), Fraction(0), _fr("2/3"), Fraction(0))
    row1 = (Fraction(0), _fr("2/3"), Fraction(0), _fr("1/3"))
    model = FiniteModel(points, params, (row0, row0, row1, row1))
    functions = {
        "abs-diff": RationalFunction(("0", "1", "1", "0")),
        "abs-diff-centered": RationalFunction(("-2/3", "1/3", "1/3", "-2/3")),
    }
    expected = [
        ExpectedRow("model is valid", "validate", {}, {"verdict": "pass"}),
        ExpectedRow(
            "first family is complete",
            "check",
            {"property": "complete", "partition": "discrete", "sub": "all", "model": "Q"},
            {"verdict": "pass", "witness": None},
        ),
    ]
    for t1 in ("0", "1"):
        expected.append(
            ExpectedRow(
                f"second family complete for section theta1={t1}",
                "check",
                {
                    "property": "complete",
                    "partition": "discrete",
                    "sub": f"theta1={t1}",
                    "model": "R",
                },
                {"verdict": "pass", "witness": None},
            )
        )
    for t2 in ("0", "1"):
        expected.append(
            ExpectedRow(
                f"second family not homogeneous across section theta2={t2}",
                "check",
                {"property": "homogeneous", "sub": f"theta2={t2}", "model": "R"},
                {
                    "verdict": "fail",
                    "witness": {"params": [["0", t2], ["1", t2]], "point": "0"},
                },
            )
        )
    expected += [
        ExpectedRow(
            "cks verifier: homogeneity fails, coupled product incomplete",
            "cks",
            {},
            {
                "status": "conclusion-fails-with-hypothesis-gap",
                "failed_hypotheses": [
                    "second-family-homogeneous[axis2=0]",
                    "second-family-homogeneous[axis2=1]",
                ],
                "conclusion_verdict": "fail",
                "conclusion_witness": {"function": ["-2", "0", "1", "0"]},
            },
        ),
        ExpectedRow(
            "centered absolute difference is a valid incompleteness witness",
            "incompleteness_witness",
            {"function": "abs-diff-centered", "sub": "all"},
            {"verdict": "pass"},
        ),
    ]
    for lab in params:
        expected.append(
            ExpectedRow(
                f"expected absolute difference under ({lab[0]},{lab[1]}) is 2/3",
                "expectation",
                {"function": "abs-diff", "param": list(lab)},
                {"value": "2/3"},
            )
        )
    return RegistryEntry(
        "CE53", model, {"discrete": Partition((0, 1, 2, 3))}, functions, tuple(expected), {"Q": q, "R": r}
    )


def _build_ce54() -> RegistryEntry:
    q = _q_component()
    r = FiniteModel(
        ("0", "1"),
        (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")),
        (
            (_fr("1/3"), _fr("2/3")),
            (_fr("1/3"), _fr("2/3")),
            (_fr("2/3"), _fr("1/3")),
            (_fr("2/3"), _fr("1/3")),
        ),
    )
    points = ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
    params = (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"))
    row0 = (_fr("1/9"), _fr("2/9"), _fr("2/9"), _fr("4/9"))
    row1 = (_fr("4/9"), _fr("2/9"), _fr("2/9"), _fr("1/9"))
    model = FiniteModel(points, params, (row0, row0, row1, row1))
    partitions = {
        "sigmaX1": Partition((0, 0, 1, 1)),
        "sigmaX2": Partition((0, 1, 0, 1)),
        "discrete": Partition((0, 1, 2, 3)),
    }
    functions = {
        "abs-diff-centered": RationalFunction(("-4/9", "5/9", "5/9", "-4/9")),
    }
    expected = [
        ExpectedRow("model is valid", "validate", {}, {"verdict": "pass"}),
        ExpectedRow(
            "combined second family is complete globally",
            "check",
            {"property": "complete", "partition": "discrete", "sub": "all", "model": "R"},
            {"verdict": "pass", "witness": None},
        ),
    ]
    for t1, kernel in (("0", ["-2", "1"]), ("1", ["-1", "2"])):
        expected.append(
            ExpectedRow(
                f"second family incomplete for section theta1={t1}",
                "check",
                {
                    "property": "complete",
                    "partition": "discrete",
                    "sub": f"theta1={t1}",
                    "model": "R",
                },
                {"verdict": "fail", "witness": {"function": kernel}},
            )
        )
    expected += [
        ExpectedRow(
            "cks verifier: per-section completeness fails, product incomplete",
            "cks",
            {},
            {
                "status": "conclusion-fails-with-hypothesis-gap",
                "failed_hypotheses": [
                    "second-family-complete[axis1=0]",
                    "second-family-complete[axis1=1]",
                ],
                "conclusion_verdict": "fail",
                "conclusion_witness": {"function": ["0", "-1", "1", "0"]},
            },
        ),
        ExpectedRow(
            "cks-rewrite verifier on the product with coordinate partitions",
            "cks_rewrite",
            {"c1": "sigmaX1", "c2": "sigmaX2"},
            {
                "status": "conclusion-fails-with-hypothesis-gap",
                "failed_hypotheses": [
                    "c2-complete-sufficient[axis1=0]",
                    "c2-complete-sufficient[axis1=1]",
                ],
                "conclusion_verdict": "fail",
                "conclusion_witness": {"function": ["0", "-1", "1", "0"]},
            },
        ),
        ExpectedRow(
            "centered absolute difference is a valid incompleteness witness",
            "incompleteness_witness",
            {"function": "abs-diff-centered", "sub": "all"},
            {"verdict": "pass"},
        ),
    ]
    return RegistryEntry("CE54", model, partitions, functions, tuple(expected), {"Q": q, "R": r})


def _build_ce55() -> RegistryEntry:
    points = ("1", "2", "3")
    params = (("1", "1"), ("1", "2"), ("2", "1"), ("2", "2"))
    rows = (
        (_fr("1/3"), _fr("1/3"), _fr("1/3")),
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(0), Fraction(1)),
        (_fr("1/6"), _fr("1/3"), _fr("1/2")),
    )
    model = FiniteModel(points, params, rows)
    partitions = {
        "C1": Partition((0, 0, 1)),
        "C2": Partition((0, 0, 1)),
        "discrete": Partition((0, 1, 2)),
    }
    functions = {"identity": RationalFunction(("1", "2", "3"))}
    expected = [
        ExpectedRow("model is valid", "validate", {}, {"verdict": "pass"}),
        ExpectedRow(
            "support union of the two point masses",
            "support_union",
            {"sub": "params=1,2"},
            {"points": ["3"]},
        ),
    ]
    for sel in ("theta1=1", "theta1=2", "theta2=1", "theta2=2"):
        expected.append(
            ExpectedRow(
                f"C1 complete for section {sel}",
                "check",
                {"property": "complete", "partition": "C1", "sub": sel},
                {"verdict": "pass", "witness": None},
            )
        )
        expected.append(
            ExpectedRow(
                f"C1 sufficient for section {sel}",
                "check",
                {"property": "sufficient", "partition": "C1", "sub": sel},
                {"verdict": "pass", "witness": None},
            )
        )
    expected += [
        ExpectedRow(
            "minimal sufficient partition of the theta1=2 section",
            "minimal_partition",
            {"sub": "theta1=2"},
            {"block_id": [0, 0, 1]},
        ),
        ExpectedRow(
            "C1 is minimal sufficient for the theta1=2 section",
            "check",
            {"property": "minimal-sufficient", "partition": "C1", "sub": "theta1=2"},
            {"verdict": "pass", "witness": None},
        ),
        ExpectedRow(
            "minimal sufficient partition of the full model is discrete",
            "minimal_partition",
            {"sub": "all"},
            {"block_id": [0, 1, 2]},
        ),
        ExpectedRow(
            "join of C1 and C2",
            "join_partitions",
            {"first": "C1", "second": "C2"},
            {"block_id": [0, 0, 1]},
        ),
        ExpectedRow(
            "the join is complete for the full model",
            "check",
            {"property": "complete", "partition": "C1", "sub": "all"},
            {"verdict": "pass", "witness": None},
        ),
        ExpectedRow(
            "the join is not sufficient for the full model",
            "check",
            {"property": "sufficient", "partition": "C1", "sub": "all"},
            {
                "verdict": "fail",
                "witness": {
                    "point": "1",
                    "block": ["1", "2"],
                    "params": [["1", "1"], ["2", "2"]],
                },
            },
        ),
        ExpectedRow(
            "model is not homogeneous",
            "check",
            {"property": "homogeneous", "sub": "all"},
            {
                "verdict": "fail",
                "witness": {"params": [["1", "1"], ["1", "2"]], "point": "1"},
            },
        ),
        ExpectedRow(
            "conditional expectation of the identity given C1 under (2,2)",
            "conditional_expectation",
            {"function": "identity", "partition": "C1", "param": ["2", "2"]},
            {"values": ["5/3", "5/3", "3"]},
        ),
        ExpectedRow(
            "optimal partition of the theta1=2 section",
            "optimal_partition",
            {"sub": "theta1=2"},
            {"block_id": [0, 0, 1]},
        ),
        ExpectedRow(
            "a complete sufficient partition exists for the full model",
            "exists_complete_sufficient",
            {"sub": "all"},
            {"verdict": "pass", "partition": [0, 1, 2]},
        ),
        ExpectedRow(
            "two-block-grid verifier: fully verified",
            "two_block_grid",
            {"c1": "C1", "c2": "C2"},
            {
                "status": "verified",
                "failed_hypotheses": [],
                "conclusion_verdict": "pass",
                "conclusion_witness": None,
            },
        ),
    ]
    return RegistryEntry("CE55", model, partitions, functions, tuple(expected))


_BUILDERS = {
    "CE52": _build_ce52,
    "CE53": _build_ce53,
    "CE54": _build_ce54,
    "CE55": _build_ce55,
}


def oracle_load(entry_id: str) -> RegistryEntry:
    return _BUILDERS[entry_id.upper()]()


def test_all_entries_replay_verified():
    for report in fc.replay_all():
        assert report.verified, report.theorem


def test_unknown_id_rejected():
    with pytest.raises(InputError):
        fc.load("CE99")


def test_known_masses():
    e = fc.load("CE55")
    assert e.model.prob[3] == (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
    e = fc.load("CE53")
    assert e.components["Q"].prob[0] == (Fraction(1, 3), Fraction(2, 3))


def test_mutated_mass_is_detected():
    e = fc.load("CE55")
    rows = [list(r) for r in e.model.prob]
    rows[3] = [Fraction(1, 6), Fraction(1, 6), Fraction(2, 3)]
    mutated = dataclasses.replace(e, model=dataclasses.replace(e.model, prob=tuple(tuple(r) for r in rows)))
    report = replay(mutated)
    assert not report.verified
    bad_rows = [label for label, rep in report.hypothesis_results if rep.failed]
    assert bad_rows  # the diff names the offending rows
    for label, rep in report.hypothesis_results:
        if rep.failed:
            assert "expected" in rep.witness and "actual" in rep.witness


def test_replay_is_deterministic():
    first = [json.dumps(theorem_report_to_dict(r), sort_keys=True) for r in fc.replay_all()]
    second = [json.dumps(theorem_report_to_dict(r), sort_keys=True) for r in fc.replay_all()]
    assert first == second


@pytest.mark.parametrize("rid", fc.REGISTRY_IDS)
def test_loaded_entries_match_the_code_built_oracle(rid):
    e, want = fc.load(rid), oracle_load(rid)
    assert e.id == want.id
    assert e.model == want.model
    assert e.partitions == want.partitions
    assert e.functions == want.functions
    assert e.components == want.components
    assert e.notes == want.notes
    rows = [(r.label, r.op, r.args, r.expected) for r in e.expected]
    assert rows == [(r.label, r.op, r.args, r.expected) for r in want.expected]
    assert theorem_report_to_dict(replay(e)) == theorem_report_to_dict(replay(want))


def test_shipped_files_are_exactly_the_files_the_entries_read(monkeypatch):
    read = []
    document = registry._document

    def recording(name):
        read.append(name)
        return document(name)

    monkeypatch.setattr(registry, "_document", recording)
    for rid in fc.REGISTRY_IDS:
        fc.load(rid)
    assert len(read) == len(set(read))
    assert sorted(read) == sorted(os.listdir(REGISTRY_DIR))


def test_counterexample_runs_from_any_directory(tmp_path, capsys):
    argv = ["--json", "counterexample", "CE55"]
    assert cli.run(argv) == 0
    in_process = capsys.readouterr().out
    path = os.pathsep.join(p for p in (os.path.abspath(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fincomplete.cli", *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == in_process


def test_paper_quoted_witnesses_are_rechecked_exactly():
    e53 = fc.load("CE53")
    h = e53.functions["abs-diff-centered"]
    for i in range(4):
        assert e53.model.expectation(i, h.values) == 0
    e54 = fc.load("CE54")
    h = e54.functions["abs-diff-centered"]
    for i in range(4):
        assert e54.model.expectation(i, h.values) == 0
    # the uncentered expectation values behind those constants
    for i in range(4):
        assert e53.model.expectation(i, fc.load("CE53").functions["abs-diff"].values) == Fraction(2, 3)


def test_unknown_row_operation_rejected():
    e = fc.load("CE55")
    row = ExpectedRow("bogus", "no-such-op", {}, {})
    with pytest.raises(InputError):
        execute_row(e, row)


@pytest.mark.parametrize(
    "op",
    ["support_union", "check", "minimal_partition", "optimal_partition", "exists_complete_sufficient",
     "incompleteness_witness"],
)
def test_submodel_row_without_a_selector_is_rejected(op):
    # these operations run on a submodel; a row must name it, never
    # silently fall back to the whole model
    e = fc.load("CE55")
    row = ExpectedRow("no-sub", op, {"property": "complete", "partition": "C1", "function": "identity"}, {})
    with pytest.raises(KeyError, match="sub"):
        execute_row(e, row)


def test_every_row_is_cli_expressible():
    # every row carries flat, string-or-json arguments, the shape the CLI
    # accepts (the CLI tests replay the key rows through the real CLI)
    for rid in fc.REGISTRY_IDS:
        e = fc.load(rid)
        for row in e.expected:
            assert isinstance(row.op, str)
            json.dumps(row.args)
            json.dumps(row.expected)
