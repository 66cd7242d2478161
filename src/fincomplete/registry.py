"""Replayable encodings of four finite counterexamples, the regression
anchor of the package.

Each entry carries an exact model, named partitions and functions, and a
list of expected rows (operation, arguments, expected result).  Replaying
an entry reruns every row and diffs the result against the frozen
expectation byte for byte; witnesses quoted from the source constructions
are additionally re-verified from first principles (zero expectations,
nonvanishing on the support union) rather than trusted.

Entry overview:

* CE52 - a two-coin swap grid on a four-point product space: the first
  coordinate partition is complete but not sufficient per section, and the
  join of the coordinate and sum partitions is incomplete (witness the
  coordinate difference).  The parameter grid {1/5, 1/4, 1/3} is a frozen
  stand-in for a continuum; the rows re-verify on the grid every
  hypothesis the construction needs, so faithfulness is audited, not
  assumed.
* CE53 - a point-mass coupling: the second factor is a one-point family
  per first coordinate, so per-section completeness holds while
  cross-section homogeneity fails, and the coupled product is incomplete.
* CE54 - matched marginals: the second family is globally complete, yet
  per-section completeness fails and the coupled product is incomplete.
* CE55 - a three-point model where one partition is complete sufficient
  for all four one-axis sections and the join is complete for the whole
  model but not sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .checks import check_partition, is_homogeneous, minimal_sufficient_partition
from .errors import InputError
from .model import (
    FiniteModel,
    Partition,
    RationalFunction,
    conditional_expectation,
    join,
    parse_submodel,
    support_union,
)
from .optimal import exists_complete_sufficient, optimal_sigma_algebra
from .reports import CheckReport, TheoremReport, VERDICT_FAIL, VERDICT_PASS
from .serialization import rational_str, witness_to_json
from .verify import verify_cks, verify_cks_rewrite, verify_two_block_grid

REGISTRY_IDS = ("CE52", "CE53", "CE54", "CE55")


@dataclass(frozen=True)
class ExpectedRow:
    """One replayable assertion: an operation, its arguments, and the
    frozen expected result."""

    label: str
    op: str
    args: dict
    expected: dict


@dataclass(frozen=True)
class RegistryEntry:
    id: str
    model: FiniteModel
    partitions: dict[str, Partition]
    functions: dict[str, RationalFunction]
    expected: tuple[ExpectedRow, ...]
    components: dict[str, FiniteModel] = field(default_factory=dict)
    notes: tuple[str, ...] = ()


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


def load(entry_id: str) -> RegistryEntry:
    key = entry_id.upper()
    if key not in _BUILDERS:
        raise InputError(
            f"unknown registry id {entry_id!r}; known ids: {', '.join(REGISTRY_IDS)}"
        )
    return _BUILDERS[key]()


def _resolve_partition(entry: RegistryEntry, model: FiniteModel, name: str) -> Partition:
    if name == "discrete":
        return Partition.discrete(model.num_points)
    if name == "trivial":
        return Partition.trivial(model.num_points)
    return entry.partitions[name]


def _resolve_model(entry: RegistryEntry, args: dict) -> FiniteModel:
    name = args.get("model", "main")
    if name == "main":
        return entry.model
    return entry.components[name]


def _check_result(rep: CheckReport) -> dict:
    return {"verdict": rep.verdict, "witness": witness_to_json(rep.witness)}


def _theorem_result(rep: TheoremReport) -> dict:
    return {
        "status": rep.status,
        "failed_hypotheses": list(rep.failed_hypotheses()),
        "conclusion_verdict": rep.conclusion_result.verdict,
        "conclusion_witness": witness_to_json(rep.conclusion_result.witness),
    }


def execute_row(entry: RegistryEntry, row: ExpectedRow) -> dict:
    """Run one row's operation and return the actual result in the same
    shape as the frozen expectation."""
    from .model import validate_model

    m = _resolve_model(entry, row.args)
    op = row.op
    if op == "validate":
        return {"verdict": validate_model(m).verdict}
    if op == "support_union":
        su = support_union(m, parse_submodel(m, row.args["sub"]))
        return {"points": [m.points[x] for x in sorted(su)]}
    if op == "check":
        sub = parse_submodel(m, row.args["sub"])
        prop = row.args["property"]
        if prop == "homogeneous":
            return _check_result(is_homogeneous(m, sub))
        part = _resolve_partition(entry, m, row.args["partition"])
        return _check_result(check_partition(prop, part, m, sub))
    if op == "minimal_partition":
        sub = parse_submodel(m, row.args["sub"])
        return {"block_id": list(minimal_sufficient_partition(m, sub).block_id)}
    if op == "join_partitions":
        p = _resolve_partition(entry, m, row.args["first"])
        q = _resolve_partition(entry, m, row.args["second"])
        return {"block_id": list(join(p, q).block_id)}
    if op == "conditional_expectation":
        h = entry.functions[row.args["function"]]
        part = _resolve_partition(entry, m, row.args["partition"])
        theta = m.param_index(row.args["param"])
        out = conditional_expectation(h, part, m, theta)
        return {"values": [rational_str(v) for v in out.values]}
    if op == "optimal_partition":
        sub = parse_submodel(m, row.args["sub"])
        return {"block_id": list(optimal_sigma_algebra(m, sub).block_id)}
    if op == "exists_complete_sufficient":
        sub = parse_submodel(m, row.args["sub"])
        rep = exists_complete_sufficient(m, sub)
        out = {"verdict": rep.verdict}
        if rep.passed:
            out["partition"] = list(rep.witness["partition"].block_id)
        return out
    if op == "expectation":
        h = entry.functions[row.args["function"]]
        theta = m.param_index(row.args["param"])
        return {"value": rational_str(m.expectation(theta, h.values))}
    if op == "incompleteness_witness":
        h = entry.functions[row.args["function"]]
        sub = parse_submodel(m, row.args["sub"])
        su = support_union(m, sub)
        zero_means = all(m.expectation(i, h.values) == 0 for i in sub.param_indices)
        nonzero = any(h.values[x] != 0 for x in su)
        return {"verdict": "pass" if zero_means and nonzero else "fail"}
    if op == "two_block_grid":
        c1 = _resolve_partition(entry, m, row.args["c1"])
        c2 = _resolve_partition(entry, m, row.args["c2"])
        return _theorem_result(verify_two_block_grid(m, c1, c2))
    if op == "cks":
        return _theorem_result(verify_cks(entry.components["Q"], entry.components["R"]))
    if op == "cks_rewrite":
        c1 = _resolve_partition(entry, m, row.args["c1"])
        c2 = _resolve_partition(entry, m, row.args["c2"])
        return _theorem_result(verify_cks_rewrite(m, c1, c2))
    raise InputError(f"unknown registry operation {op!r}")


def replay(entry: RegistryEntry) -> TheoremReport:
    """Replay every expected row of one entry; the result is shaped like a
    theorem report with one hypothesis line per row."""
    import json as _json

    results = []
    for row in entry.expected:
        actual = execute_row(entry, row)
        want = _json.dumps(row.expected, sort_keys=True)
        got = _json.dumps(actual, sort_keys=True)
        if want == got:
            results.append((row.label, CheckReport("registry-row", VERDICT_PASS, None, ())))
        else:
            results.append(
                (
                    row.label,
                    CheckReport(
                        "registry-row",
                        VERDICT_FAIL,
                        {"expected": want, "actual": got},
                        (),
                    ),
                )
            )
    mismatches = sum(1 for _, r in results if r.failed)
    conclusion = CheckReport(
        "registry-replay",
        VERDICT_PASS if mismatches == 0 else VERDICT_FAIL,
        None if mismatches == 0 else {"mismatches": mismatches},
        (f"rows: {len(results)}",) + entry.notes,
    )
    return TheoremReport(f"registry:{entry.id}", tuple(results), conclusion)


def replay_all() -> list[TheoremReport]:
    return [replay(load(i)) for i in REGISTRY_IDS]
