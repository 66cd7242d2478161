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
import os
import sys
from typing import Callable

from . import registry as registry_mod
from . import search as search_mod
from .checks import (
    PARTITION_CHECKS,
    are_independent,
    basu_consistency,
    check_partition,
    is_homogeneous,
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
    BUILTIN_PARTITIONS,
    EVENT_KINDS,
    FiniteModel,
    Partition,
    max_partition,
    min_max_partition,
    min_partition,
    parse_submodel,
    power_model,
    product_model,
    truncated_family,
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

PROPERTIES = (*PARTITION_CHECKS, "homogeneous", "independent", "basu")

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

# partitions of the n-fold power space that ``verify unknown-truncation``
# accepts by name; "optimal" is always complete, so its hypothesis holds
# exactly when it is also sufficient
POWER_PARTITIONS = {
    **BUILTIN_PARTITIONS,
    "min": min_partition,
    "max": max_partition,
    "min-max": min_max_partition,
    "optimal": lambda m0, n: optimal_sigma_algebra(power_model(m0, n)),
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as input errors (exit 3)."""

    def error(self, message):
        raise InputError(message)


def _load(path: str) -> ModelDocument:
    doc = load_model_file(path)
    rep = validate_model(doc.model)
    if not rep.passed:
        raise InputError(f"invalid model file {path}: {'; '.join(rep.notes)}")
    return doc


def _partition(doc: ModelDocument, name: str, n: int = 1, builtins=BUILTIN_PARTITIONS) -> Partition:
    """The partition a partition flag names, on the n-fold power space of
    the model: the model file's partition of that name if it has that many
    points, else the built-in of that name."""
    m0 = doc.model
    c = doc.partitions.get(name)
    if c is not None and c.size == m0.num_points**n:
        return c
    if name in builtins:
        return builtins[name](m0, n)
    if builtins is BUILTIN_PARTITIONS:
        raise InputError(f"model file has no partition named {name!r}")
    raise InputError("--partition must name a partition of the n-fold power space or one of " + ", ".join(builtins))


def _submodel(doc: ModelDocument, selector: str) -> FiniteModel:
    """The model file's model restricted to the ``--sub`` selector."""
    return parse_submodel(doc.model, selector).restrict(doc.model)


def _emit_check(report: CheckReport, as_json: bool) -> int:
    if as_json:
        print(dumps(check_report_to_dict(report)), end="")
    else:
        print(check_report_text(report))
    if report.verdict == "pass":
        return EXIT_OK
    if report.verdict == "vacuous":
        return EXIT_UNMET
    return EXIT_FAIL


def _emit_theorem(report: TheoremReport, as_json: bool) -> int:
    if as_json:
        print(dumps(theorem_report_to_dict(report)), end="")
    else:
        print(theorem_report_text(report))
    if report.status == STATUS_VERIFIED:
        return EXIT_OK
    if report.status == STATUS_HYPOTHESIS_UNMET or report.failed_hypotheses():
        return EXIT_UNMET
    return EXIT_FAIL


def _cmd_validate(args) -> int:
    doc = load_model_file(args.model)
    return _emit_check(validate_model(doc.model), args.json)


def _cmd_check(args) -> int:
    doc = _load(args.model)
    m = _submodel(doc, args.sub)

    def part(name_arg, flag):
        if name_arg is None:
            raise InputError(f"--property {args.property} requires {flag}")
        return _partition(doc, name_arg)

    prop = args.property
    if prop == "homogeneous":
        report = is_homogeneous(m)
    elif prop == "independent":
        report = are_independent(part(args.partition, "--partition"), part(args.partition2, "--partition2"), m)
    elif prop == "basu":
        report = basu_consistency(part(args.partition, "--partition"), part(args.partition2, "--partition2"), m)
    else:
        report = check_partition(prop, part(args.partition, "--partition"), m)
    return _emit_check(report, args.json)


def _cmd_partition(args) -> int:
    """``minimal`` and ``optimal-sigma``: print one partition of the points."""
    doc = _load(args.model)
    find = minimal_sufficient_partition if args.command == "minimal" else optimal_sigma_algebra
    part = find(_submodel(doc, args.sub))
    if args.json:
        print(dumps({"partition": list(part.block_id)}), end="")
    else:
        print("partition: " + partition_text(part))
    return EXIT_OK


def _cmd_umvue(args) -> int:
    doc = _load(args.model)
    m = doc.model
    values = [parse_rational(t) for t in args.estimand.split(",")]
    if len(values) != m.num_params:
        raise InputError("estimand needs one value per parameter")
    sub = parse_submodel(m, args.sub)
    result = umvue(sub.restrict(m), Estimand(tuple(values[i] for i in sub.param_indices)))
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
    out = rao_blackwell(
        doc.function(args.function), _partition(doc, args.partition), _submodel(doc, args.sub)
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
        if theorem in ("joint-completeness", "hom-connected"):
            if len(args.partition) != len(args.exhaustion) or not args.partition:
                raise InputError("pair each --partition with one --exhaustion")
            family = [(_partition(doc, p), _named_exhaustion(doc, e)) for p, e in zip(args.partition, args.exhaustion)]
            if theorem == "joint-completeness":
                report = verify_joint_completeness(m, family)
            else:
                report = verify_homogeneous_connected(m, family, args.mode, weak=args.weak)
        elif theorem == "two-block-grid":
            report = verify_two_block_grid(m, _partition(doc, args.c1), _partition(doc, args.c2))
        elif theorem == "cks":
            if not args.r_model:
                raise InputError("cks requires --r-model")
            rdoc = _load(args.r_model)
            report = verify_cks(m, rdoc.model)
        elif theorem == "cks-rewrite":
            report = verify_cks_rewrite(m, _partition(doc, args.c1), _partition(doc, args.c2))
        elif theorem == "truncation-family":
            if not args.events:
                raise InputError("truncation-family requires --events")
            report = verify_truncation_family(m, _event_list(doc, args.events), args.n)
        elif theorem == "unknown-truncation":
            if not args.events or not args.partition:
                raise InputError("unknown-truncation requires --events and one --partition")
            power_model(m, args.n)  # checks n and the size guard before a built-in is built
            c = _partition(doc, args.partition[0], args.n, POWER_PARTITIONS)
            report = verify_unknown_truncation(m, c, _event_list(doc, args.events), args.n)
        elif theorem == "smith":
            if args.mode not in ("a", "b"):
                raise InputError("smith requires --mode a or b")
            if not args.partition or not args.function:
                raise InputError("smith requires one --partition and --function")
            report = verify_smith(m, _partition(doc, args.partition[0]), doc.function(args.function), args.mode)
        else:
            if not args.exhaustion or not args.function:
                raise InputError("bondesson requires one --exhaustion and --function")
            report = verify_bondesson(m, _named_exhaustion(doc, args.exhaustion[0]), doc.function(args.function))
    except ValueError as e:  # --n < 1, an unknown --mode or a misplaced --weak
        raise InputError(str(e)) from None
    return _emit_theorem(report, args.json)


def _cmd_counterexample(args) -> int:
    entry = registry_mod.load(args.id)
    report = registry_mod.replay(entry)
    return _emit_theorem(report, args.json)


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
            os.makedirs(args.out, exist_ok=True)
            for name, doc in item["models"].items():
                save_model_file(os.path.join(args.out, f"found{i}_{name}.model"), doc)
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


def _arg(*flags, **kwargs):
    return flags, kwargs


_MODEL = _arg("--model", required=True)
_SUB = _arg("--sub", default="all")

# command name: (handler, help line, arguments as add_argument flags and keyword arguments)
COMMANDS = {
    "validate": (_cmd_validate, "check model file invariants", (_MODEL,)),
    "check": (_cmd_check, "decide a structural property", (
        _MODEL, _arg("--property", required=True, choices=PROPERTIES), _arg("--partition"), _arg("--partition2"), _SUB,
    )),
    "minimal": (_cmd_partition, "minimal sufficient partition", (_MODEL, _SUB)),
    "optimal-sigma": (_cmd_partition, "the optimal partition", (_MODEL, _SUB)),
    "umvue": (_cmd_umvue, "optimal unbiased estimator of an estimand", (
        _MODEL, _SUB, _arg("--estimand", required=True, help="comma-separated rationals, one per parameter"),
    )),
    "rao-blackwell": (_cmd_rao_blackwell, "condition an estimator on a sufficient partition", (
        _MODEL, _arg("--partition", required=True), _arg("--function", required=True), _SUB,
    )),
    "verify": (_cmd_verify, "run a theorem verifier", (
        _arg("theorem", choices=THEOREMS),
        _MODEL,
        _arg("--r-model", help="second-family model file (cks)"),
        _arg("--c1"),
        _arg("--c2"),
        # append copies its default before adding to it, so this [] is never mutated
        _arg("--partition", action="append", default=[], help="unknown-truncation also takes " + "|".join(POWER_PARTITIONS)),
        _arg("--exhaustion", action="append", default=[]),
        _arg("--function"),
        _arg("--events", help="named event list, or intervals/uprays/downrays"),
        _arg("--n", type=int, default=1),
        _arg("--mode", default="complete", help="hom-connected: sufficient|minimal|complete; smith: a|b"),
        _arg("--weak", action="store_true"),
    )),
    "counterexample": (_cmd_counterexample, "replay a registry entry", (_arg("id", help="|".join(registry_mod.REGISTRY_IDS)),)),
    "search": (_cmd_search, "hunt for hypothesis-dropping violations", (
        _arg("--template", required=True, choices=search_mod.TEMPLATES),
        _arg("--drop"),
        _arg("--budget", type=int, required=True),
        _arg("--seed", type=int, required=True),
        _arg("--max-found", type=int, default=1),
        _arg("--out", help="directory for found-instance model files"),
    )),
    "construct": (_cmd_construct, "build a derived model file", (
        _arg("kind", choices=("product", "power", "weight", "truncate")),
        _MODEL,
        _arg("--model2"),
        _arg("--n", type=int, default=2),
        _arg("--function"),
        _arg("--events"),
        _arg("--out", required=True),
    )),
}


def _parse(argv: list[str] | None) -> tuple[Callable[[argparse.Namespace], int], argparse.Namespace]:
    """Parse the global flags and the command name, then the rest of argv
    with a parser built from that one command's arguments; return the
    command's handler and the namespace."""
    top = _Parser(
        prog="fincomplete",
        description=__doc__,
        epilog="commands (see fincomplete <command> -h):\n"
        + "\n".join(f"  {name:<16}{help_line}" for name, (_, help_line, _) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    top.add_argument("--json", action="store_true", help="emit structured JSON reports")
    top.add_argument("--threads", type=int, default=1, help="accepted; output never depends on it")
    # the command name, checked against choices, and all of argv after it,
    # with any "--" left for the command's parser, as add_subparsers does
    top.add_argument("command", nargs=argparse.PARSER, choices=COMMANDS, metavar="command", help="one of the commands below, then its arguments")
    args = top.parse_args(argv)
    args.command, *rest = args.command
    handler, help_line, specs = COMMANDS[args.command]
    sub = _Parser(prog=f"fincomplete {args.command}", description=help_line)
    for flags, kwargs in specs:
        sub.add_argument(*flags, **kwargs)
    return handler, sub.parse_args(rest, namespace=args)


def run(argv: list[str] | None = None) -> int:
    try:
        handler, args = _parse(argv)
        return handler(args)
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
