"""Command-line interface.

Exit codes: 0 when the property or conclusion holds (or a computation
succeeded), 1 when it fails (a witness is printed), 2 when a hypothesis or
precondition is unmet, 3 on input or parse errors.  ``--json`` switches the
report to the structured format; the default is human-readable text.
Output is byte-identical for identical invocations; ``--threads`` is
accepted for compatibility with parallel runners and never affects output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import registry as registry_mod
from . import search as search_mod
from .checks import (
    are_independent,
    basu_consistency,
    is_ancillary,
    is_boundedly_complete,
    is_complete,
    is_homogeneous,
    is_minimal_sufficient,
    is_sufficient,
    minimal_sufficient_partition,
)
from .errors import (
    EngineError,
    ExhaustionError,
    GridError,
    InputError,
    NotSufficientError,
    StabilityError,
)
from .model import (
    Partition,
    downray_events,
    interval_events,
    max_partition,
    min_max_partition,
    min_partition,
    parse_submodel,
    power_model,
    product_model,
    truncated_family,
    upray_events,
    validate_model,
    weighted_model,
)
from .optimal import (
    Estimand,
    optimal_sigma_algebra,
    rao_blackwell,
    umvue,
)
from .reports import (
    STATUS_HYPOTHESIS_UNMET,
    STATUS_VERIFIED,
    CheckReport,
    TheoremReport,
)
from .serialization import (
    ModelDocument,
    check_report_text,
    check_report_to_dict,
    dumps,
    function_text,
    load_model_file,
    model_to_dict,
    parse_rational,
    partition_text,
    rational_str,
    save_model_file,
    theorem_report_text,
    theorem_report_to_dict,
)
from .verify import (
    Exhaustion,
    verify_bondesson,
    verify_cks,
    verify_cks_rewrite,
    verify_homogeneous_connected,
    verify_joint_completeness,
    verify_smith,
    verify_truncation_family,
    verify_two_block_grid,
    verify_unknown_truncation,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNMET = 2
EXIT_INPUT = 3

PROPERTIES = (
    "complete",
    "boundedly-complete",
    "sufficient",
    "minimal-sufficient",
    "ancillary",
    "homogeneous",
    "independent",
    "basu",
)

THEOREMS = (
    "joint-completeness",
    "two-block-grid",
    "cks",
    "cks-rewrite",
    "hom-connected",
    "truncation-family",
    "unknown-truncation",
    "smith",
    "bondesson",
)

EVENT_KINDS = {
    "intervals": interval_events,
    "uprays": upray_events,
    "downrays": downray_events,
}

# partitions of the n-fold power space that ``verify unknown-truncation``
# accepts by name, as functions of (base model, n)
POWER_PARTITIONS = {
    "trivial": lambda m0, n: Partition.trivial(m0.num_points**n),
    "min": min_partition,
    "max": max_partition,
    "min-max": min_max_partition,
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as input errors (exit 3)."""

    def error(self, message):
        raise InputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fincomplete", description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit structured JSON reports")
    parser.add_argument("--threads", type=int, default=1, help="accepted; output never depends on it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check model file invariants")
    p.add_argument("--model", required=True)

    p = sub.add_parser("check", help="decide a structural property")
    p.add_argument("--model", required=True)
    p.add_argument("--property", required=True, choices=PROPERTIES)
    p.add_argument("--partition")
    p.add_argument("--partition2")
    p.add_argument("--sub", default="all")

    p = sub.add_parser("minimal", help="minimal sufficient partition")
    p.add_argument("--model", required=True)
    p.add_argument("--sub", default="all")

    p = sub.add_parser("optimal-sigma", help="the optimal partition")
    p.add_argument("--model", required=True)
    p.add_argument("--sub", default="all")

    p = sub.add_parser("umvue", help="optimal unbiased estimator of an estimand")
    p.add_argument("--model", required=True)
    p.add_argument("--sub", default="all")
    p.add_argument("--estimand", required=True, help="comma-separated rationals, one per parameter")

    p = sub.add_parser("rao-blackwell", help="condition an estimator on a sufficient partition")
    p.add_argument("--model", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--sub", default="all")

    p = sub.add_parser("verify", help="run a theorem verifier")
    p.add_argument("theorem", choices=THEOREMS)
    p.add_argument("--model", required=True)
    p.add_argument("--r-model", help="second-family model file (cks)")
    p.add_argument("--c1")
    p.add_argument("--c2")
    p.add_argument("--partition", action="append", default=[], help="unknown-truncation also takes " + "|".join(POWER_PARTITIONS))
    p.add_argument("--exhaustion", action="append", default=[])
    p.add_argument("--function")
    p.add_argument("--events", help="named event list, or intervals/uprays/downrays")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--mode", default="complete", help="hom-connected: sufficient|minimal|complete; smith: a|b")
    p.add_argument("--weak", action="store_true")

    p = sub.add_parser("counterexample", help="replay a registry entry")
    p.add_argument("id", help="|".join(registry_mod.REGISTRY_IDS))

    p = sub.add_parser("search", help="hunt for hypothesis-dropping violations")
    p.add_argument("--template", required=True, choices=search_mod.TEMPLATES)
    p.add_argument("--drop", default=None)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-found", type=int, default=1)
    p.add_argument("--out", help="directory for found-instance model files")

    p = sub.add_parser("construct", help="build a derived model file")
    p.add_argument("kind", choices=("product", "power", "weight", "truncate"))
    p.add_argument("--model", required=True)
    p.add_argument("--model2")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--function")
    p.add_argument("--events")
    p.add_argument("--out", required=True)
    return parser


def _load(path: str) -> ModelDocument:
    doc = load_model_file(path)
    rep = validate_model(doc.model)
    if not rep.passed:
        raise InputError(f"invalid model file {path}: {'; '.join(rep.notes)}")
    return doc


def _emit_check(report: CheckReport, doc_model, as_json: bool) -> int:
    if as_json:
        print(dumps(check_report_to_dict(report, doc_model)), end="")
    else:
        print(check_report_text(report, doc_model))
    if report.verdict == "pass":
        return EXIT_OK
    if report.verdict == "vacuous":
        return EXIT_UNMET
    return EXIT_FAIL


def _emit_theorem(report: TheoremReport, doc_model, as_json: bool) -> int:
    if as_json:
        print(dumps(theorem_report_to_dict(report, doc_model)), end="")
    else:
        print(theorem_report_text(report, doc_model))
    if report.status == STATUS_VERIFIED:
        return EXIT_OK
    if report.status == STATUS_HYPOTHESIS_UNMET or report.failed_hypotheses():
        return EXIT_UNMET
    return EXIT_FAIL


def _cmd_validate(args) -> int:
    doc = load_model_file(args.model)
    return _emit_check(validate_model(doc.model), doc.model, args.json)


def _cmd_check(args) -> int:
    doc = _load(args.model)
    m = doc.model
    sub = parse_submodel(m, args.sub)

    def part(name_arg, flag):
        if name_arg is None:
            raise InputError(f"--property {args.property} requires {flag}")
        if name_arg == "discrete":
            return Partition.discrete(m.num_points)
        if name_arg == "trivial":
            return Partition.trivial(m.num_points)
        return doc.partition(name_arg)

    prop = args.property
    if prop == "homogeneous":
        report = is_homogeneous(m, sub)
    elif prop == "independent":
        report = are_independent(part(args.partition, "--partition"), part(args.partition2, "--partition2"), m, sub)
    elif prop == "basu":
        report = basu_consistency(part(args.partition, "--partition"), part(args.partition2, "--partition2"), m, sub)
    else:
        fns = {
            "complete": is_complete,
            "boundedly-complete": is_boundedly_complete,
            "sufficient": is_sufficient,
            "minimal-sufficient": is_minimal_sufficient,
            "ancillary": is_ancillary,
        }
        report = fns[prop](part(args.partition, "--partition"), m, sub)
    return _emit_check(report, m, args.json)


def _cmd_partition(args) -> int:
    """``minimal`` and ``optimal-sigma``: print one partition of the points."""
    doc = _load(args.model)
    find = minimal_sufficient_partition if args.command == "minimal" else optimal_sigma_algebra
    part = find(doc.model, parse_submodel(doc.model, args.sub))
    if args.json:
        print(dumps({"partition": list(part.block_id)}), end="")
    else:
        print("partition: " + partition_text(part))
    return EXIT_OK


def _cmd_umvue(args) -> int:
    doc = _load(args.model)
    m = doc.model
    values = [parse_rational(t.strip()) for t in args.estimand.split(",")]
    if len(values) != m.num_params:
        raise InputError("estimand needs one value per parameter")
    result = umvue(m, parse_submodel(m, args.sub), Estimand(tuple(values)))
    payload = {
        "optimal_partition": list(result.optimal_partition.block_id),
        "estimator": None
        if result.estimator is None
        else [rational_str(v) for v in result.estimator.values],
        "atom_values": None
        if result.atom_values is None
        else [rational_str(v) for v in result.atom_values],
        "note": result.note,
    }
    if args.json:
        print(dumps(payload), end="")
    else:
        print("optimal partition: " + partition_text(result.optimal_partition))
        if result.estimator is None:
            print("estimator: none (" + result.note + ")")
        else:
            print("estimator: " + function_text(result.estimator))
            print(
                "atom values: "
                + json.dumps([rational_str(v) for v in result.atom_values])
            )
            print("note: " + result.note)
    return EXIT_OK if result.estimator is not None else EXIT_FAIL


def _cmd_rao_blackwell(args) -> int:
    doc = _load(args.model)
    m = doc.model
    out = rao_blackwell(
        doc.function(args.function),
        doc.partition(args.partition),
        m,
        parse_submodel(m, args.sub),
    )
    if args.json:
        print(dumps({"estimator": [rational_str(v) for v in out.values]}), end="")
    else:
        print("estimator: " + function_text(out))
    return EXIT_OK


def _named_exhaustion(doc: ModelDocument, name: str) -> Exhaustion:
    if name not in doc.exhaustions:
        raise InputError(f"model file has no exhaustion named {name!r}")
    return Exhaustion(name, tuple(doc.exhaustions[name]))


def _event_list(doc: ModelDocument, name: str):
    if name in EVENT_KINDS:
        return EVENT_KINDS[name](doc.model.num_points)
    return doc.event_list(name)


def _cmd_verify(args) -> int:
    doc = _load(args.model)
    m = doc.model
    theorem = args.theorem
    try:
        if theorem == "joint-completeness":
            if len(args.partition) != len(args.exhaustion) or not args.partition:
                raise InputError("pair each --partition with one --exhaustion")
            family = [
                (doc.partition(p), _named_exhaustion(doc, e))
                for p, e in zip(args.partition, args.exhaustion)
            ]
            report = verify_joint_completeness(m, family)
        elif theorem == "two-block-grid":
            report = verify_two_block_grid(m, doc.partition(args.c1), doc.partition(args.c2))
        elif theorem == "cks":
            if not args.r_model:
                raise InputError("cks requires --r-model")
            rdoc = _load(args.r_model)
            report = verify_cks(m, rdoc.model)
        elif theorem == "cks-rewrite":
            report = verify_cks_rewrite(m, doc.partition(args.c1), doc.partition(args.c2))
        elif theorem == "hom-connected":
            if len(args.partition) != len(args.exhaustion) or not args.partition:
                raise InputError("pair each --partition with one --exhaustion")
            family = [
                (doc.partition(p), _named_exhaustion(doc, e))
                for p, e in zip(args.partition, args.exhaustion)
            ]
            report = verify_homogeneous_connected(m, family, args.mode, weak=args.weak)
        elif theorem == "truncation-family":
            if not args.events:
                raise InputError("truncation-family requires --events")
            report = verify_truncation_family(m, _event_list(doc, args.events), args.n)
        elif theorem == "unknown-truncation":
            if not args.events or not args.partition:
                raise InputError("unknown-truncation requires --events and one --partition")
            powered = power_model(m, args.n)
            name = args.partition[0]
            c = doc.partitions.get(name)
            if c is None or c.size != powered.num_points:
                if name not in POWER_PARTITIONS:
                    raise InputError(
                        "--partition must name a partition of the n-fold power space or one of "
                        + ", ".join(POWER_PARTITIONS)
                    )
                c = POWER_PARTITIONS[name](m, args.n)
            report = verify_unknown_truncation(m, c, _event_list(doc, args.events), args.n)
        elif theorem == "smith":
            if args.mode not in ("a", "b"):
                raise InputError("smith requires --mode a or b")
            if not args.partition or not args.function:
                raise InputError("smith requires one --partition and --function")
            report = verify_smith(m, doc.partition(args.partition[0]), doc.function(args.function), args.mode)
        else:
            if not args.exhaustion or not args.function:
                raise InputError("bondesson requires one --exhaustion and --function")
            report = verify_bondesson(m, _named_exhaustion(doc, args.exhaustion[0]), doc.function(args.function))
    except ValueError as e:  # --n < 1, an unknown --mode or a misplaced --weak
        raise InputError(str(e)) from None
    return _emit_theorem(report, m, args.json)


def _cmd_counterexample(args) -> int:
    entry = registry_mod.load(args.id)
    report = registry_mod.replay(entry)
    return _emit_theorem(report, entry.model, args.json)


def _cmd_search(args) -> int:
    cfg = search_mod.GenConfig(seed=args.seed)
    try:
        found = search_mod.hunt(
            args.template, args.drop, args.budget, cfg, max_found=args.max_found
        )
    except ValueError as e:
        raise InputError(str(e)) from None
    payload = []
    for i, hit in enumerate(found):
        item = {
            "template": hit.template,
            "dropped": hit.dropped,
            "draws": hit.draws,
            "status": hit.report.status,
            "models": {
                name: model_to_dict(mm, partitions=hit.partitions if name == "main" else None)
                for name, mm in sorted(hit.models.items())
            },
        }
        payload.append(item)
        if args.out:
            import os

            os.makedirs(args.out, exist_ok=True)
            for name, mm in sorted(hit.models.items()):
                save_model_file(
                    os.path.join(args.out, f"found{i}_{name}.model"),
                    model_to_dict(mm, partitions=hit.partitions if name == "main" else None),
                )
    if args.json:
        print(dumps({"found": payload}), end="")
    else:
        print(f"found: {len(found)}")
        for item in payload:
            print(
                f"- after {item['draws']} draws: status {item['status']} "
                f"(dropped: {item['dropped'] or 'nothing'})"
            )
    return EXIT_OK


def _cmd_construct(args) -> int:
    doc = _load(args.model)
    m = doc.model
    try:
        if args.kind == "product":
            if not args.model2:
                raise InputError("product requires --model2")
            payload = model_to_dict(product_model(m, _load(args.model2).model))
        elif args.kind == "power":
            payload = model_to_dict(power_model(m, args.n))
        elif args.kind == "weight":
            if not args.function:
                raise InputError("weight requires --function")
            payload = model_to_dict(weighted_model(m, doc.function(args.function)))
        else:
            if not args.events:
                raise InputError("truncate requires --events")
            model, sig = truncated_family(m, _event_list(doc, args.events), args.n)
            payload = model_to_dict(model, partitions={"sigmaEvents": sig})
    except ValueError as e:  # --n < 1, or a negative weight
        raise InputError(str(e)) from None
    save_model_file(args.out, payload)
    print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "check": _cmd_check,
    "minimal": _cmd_partition,
    "optimal-sigma": _cmd_partition,
    "umvue": _cmd_umvue,
    "rao-blackwell": _cmd_rao_blackwell,
    "verify": _cmd_verify,
    "counterexample": _cmd_counterexample,
    "search": _cmd_search,
    "construct": _cmd_construct,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (StabilityError, NotSufficientError, ExhaustionError, GridError) as e:
        print(f"precondition unmet: {e}", file=sys.stderr)
        return EXIT_UNMET
    except EngineError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
