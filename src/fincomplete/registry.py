"""Replayable encodings of four finite counterexamples, the regression
anchor of the package.

Each entry carries an exact model, named partitions and functions, and a
list of expected rows (operation, arguments, expected result).  Replaying
an entry reruns every row and diffs the result against the frozen
expectation byte for byte; witnesses quoted from the source constructions
are additionally re-verified from first principles (zero expectations,
nonvanishing on the support union) rather than trusted.

Entries are data, shipped with the package under ``counterexamples/``.
Entry ``CE5N`` is the model file ``ce5N.model`` (model, partitions and
functions), its component models ``ce5N_q.model`` and ``ce5N_r.model``
where it has any, and ``ce5N.rows``, a JSON object with ``rows`` (a list of
``[label, op, args, expected]``), ``notes`` and ``components`` (the
component names).  ``execute_row`` below is the interpreter of the ops.

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

import json
from dataclasses import dataclass, field
from importlib.resources import files

from .checks import check_partition, is_homogeneous, minimal_sufficient_partition
from .errors import InputError
from .model import (
    BUILTIN_PARTITIONS,
    FiniteModel,
    Partition,
    RationalFunction,
    conditional_expectation,
    join,
    parse_submodel,
    support_union,
    validate_model,
)
from .optimal import exists_complete_sufficient, optimal_sigma_algebra
from .reports import CheckReport, TheoremReport, VERDICT_FAIL, VERDICT_PASS
from .serialization import model_from_dict, rational_str, witness_to_json
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


def _document(name: str) -> dict:
    return json.loads((files(__package__) / "counterexamples" / name).read_text(encoding="utf-8"))


def load(entry_id: str) -> RegistryEntry:
    key = entry_id.upper()
    if key not in REGISTRY_IDS:
        raise InputError(
            f"unknown registry id {entry_id!r}; known ids: {', '.join(REGISTRY_IDS)}"
        )
    stem = key.lower()
    doc = model_from_dict(_document(f"{stem}.model"))
    data = _document(f"{stem}.rows")
    components = {
        name: model_from_dict(_document(f"{stem}_{name.lower()}.model")).model
        for name in data["components"]
    }
    rows = tuple(ExpectedRow(*row) for row in data["rows"])
    return RegistryEntry(
        key, doc.model, doc.partitions, doc.functions, rows, components, tuple(data["notes"])
    )


def _resolve_partition(entry: RegistryEntry, model: FiniteModel, name: str) -> Partition:
    if name in BUILTIN_PARTITIONS:
        return BUILTIN_PARTITIONS[name](model, 1)
    return entry.partitions[name]


# the operations that run on a submodel; each row of one must name its
# ``sub`` selector
_SUBMODEL_OPS = frozenset((
    "support_union", "check", "minimal_partition", "optimal_partition", "exists_complete_sufficient",
    "incompleteness_witness",
))


def _resolve_model(entry: RegistryEntry, row: ExpectedRow) -> FiniteModel:
    """The row's model, restricted to its ``sub`` selector for the
    operations that run on a submodel."""
    name = row.args.get("model", "main")
    m = entry.model if name == "main" else entry.components[name]
    if row.op in _SUBMODEL_OPS:
        return parse_submodel(m, row.args["sub"]).restrict(m)
    return m


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
    m = _resolve_model(entry, row)
    op = row.op
    if op == "validate":
        return {"verdict": validate_model(m).verdict}
    if op == "support_union":
        su = support_union(m)
        return {"points": [m.points[x] for x in sorted(su)]}
    if op == "check":
        prop = row.args["property"]
        if prop == "homogeneous":
            return _check_result(is_homogeneous(m))
        part = _resolve_partition(entry, m, row.args["partition"])
        return _check_result(check_partition(prop, part, m))
    if op == "minimal_partition":
        return {"block_id": list(minimal_sufficient_partition(m).block_id)}
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
        return {"block_id": list(optimal_sigma_algebra(m).block_id)}
    if op == "exists_complete_sufficient":
        rep = exists_complete_sufficient(m)
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
        zero_means = all(m.expectation(i, h.values) == 0 for i in range(m.num_params))
        nonzero = any(h.values[x] != 0 for x in support_union(m))
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
    results = []
    for row in entry.expected:
        actual = execute_row(entry, row)
        want = json.dumps(row.expected, sort_keys=True)
        got = json.dumps(actual, sort_keys=True)
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
