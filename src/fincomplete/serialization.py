"""Model files and structured reports.

A model file is a single UTF-8 JSON document with fields ``points`` (list
of strings), ``params`` (list of strings or string-tuples), ``prob`` (list
of rows of rational strings "a/b" or integer strings; decimal literals are
rejected), and optional named ``partitions`` (label to point-indexed block
list), ``functions`` (label to list of rational strings), ``exhaustions``
(label to list of {"label", "params"} pieces) and ``events`` (label to list
of point-index lists).

All output uses the same conventions: rationals are printed as "a/b" (or a
bare integer), never as decimals, and serialization is byte-stable for
equal inputs.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .errors import InputError
from .model import FiniteModel, Partition, RationalFunction, SubmodelRef
from .reports import CheckReport, TheoremReport

_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(s: str) -> Fraction:
    """Parse "a/b" or an integer string in ASCII digits, with nothing around
    it; anything else (in particular decimal literals) is rejected."""
    match = _RATIONAL_RE.fullmatch(s) if isinstance(s, str) else None
    if match is None:
        raise InputError(f"not an exact rational string: {s!r}")
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise InputError(f"zero denominator: {s!r}") from None
    except ValueError as e:  # the interpreter's integer-string digit limit
        raise InputError(f"rational string too long: {e}") from None


def rational_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _param_to_json(label):
    return list(label) if isinstance(label, tuple) else label


def _param_from_json(obj):
    if isinstance(obj, list):
        if not all(isinstance(x, str) for x in obj):
            raise InputError(f"parameter tuple entries must be strings: {obj!r}")
        return tuple(obj)
    if isinstance(obj, str):
        return obj
    raise InputError(f"parameter label must be a string or list of strings: {obj!r}")


def model_to_dict(
    m: FiniteModel,
    *,
    partitions: dict[str, Partition] | None = None,
    functions: dict[str, RationalFunction] | None = None,
    exhaustions: dict[str, list[tuple[str, SubmodelRef]]] | None = None,
    events: dict[str, list[frozenset[int]]] | None = None,
) -> dict:
    doc: dict[str, Any] = {
        "points": list(m.points),
        "params": [_param_to_json(p) for p in m.params],
        "prob": [[rational_str(x) for x in row] for row in m.prob],
    }
    if partitions:
        doc["partitions"] = {k: list(v.block_id) for k, v in sorted(partitions.items())}
    if functions:
        doc["functions"] = {
            k: [rational_str(x) for x in v.values] for k, v in sorted(functions.items())
        }
    if exhaustions:
        doc["exhaustions"] = {
            k: [{"label": lab, "params": list(ref.param_indices)} for lab, ref in v]
            for k, v in sorted(exhaustions.items())
        }
    if events:
        doc["events"] = {k: [sorted(e) for e in v] for k, v in sorted(events.items())}
    return doc


class ModelDocument:
    """A parsed model file: the model plus its named attachments."""

    def __init__(self, model, partitions, functions, exhaustions, events):
        self.model: FiniteModel = model
        self.partitions: dict[str, Partition] = partitions
        self.functions: dict[str, RationalFunction] = functions
        self.exhaustions: dict[str, list[tuple[str, SubmodelRef]]] = exhaustions
        self.events: dict[str, list[frozenset[int]]] = events

    def function(self, name: str) -> RationalFunction:
        try:
            return self.functions[name]
        except KeyError:
            raise InputError(f"model file has no function named {name!r}") from None

    def event_list(self, name: str) -> list[frozenset[int]]:
        try:
            return self.events[name]
        except KeyError:
            raise InputError(f"model file has no event list named {name!r}") from None


def _labelled(doc: dict, key: str) -> dict[str, list]:
    """An optional field mapping labels to lists; absent or null is empty."""
    table = {} if doc.get(key) is None else doc[key]
    if not isinstance(table, dict) or not all(isinstance(v, list) for v in table.values()):
        raise InputError(f"{key} must be an object mapping labels to lists")
    return table


def model_from_dict(doc: dict) -> ModelDocument:
    if not isinstance(doc, dict):
        raise InputError("model document must be a JSON object")
    for key in ("points", "params", "prob"):
        if key not in doc:
            raise InputError(f"model document lacks the {key!r} field")
    points = doc["points"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise InputError("points must be a list of strings")
    if not isinstance(doc["params"], list):
        raise InputError("params must be a list")
    params = [_param_from_json(p) for p in doc["params"]]
    prob_raw = doc["prob"]
    if not isinstance(prob_raw, list) or len(prob_raw) != len(params):
        raise InputError("prob must have one row per parameter")
    prob = []
    for row in prob_raw:
        if not isinstance(row, list) or len(row) != len(points):
            raise InputError("each prob row must have one entry per point")
        prob.append(tuple(parse_rational(x) for x in row))
    model = FiniteModel(tuple(points), tuple(params), tuple(prob))

    n = len(points)
    partitions = {}
    for name, ids in _labelled(doc, "partitions").items():
        if len(ids) != n or not all(type(i) is int for i in ids):
            raise InputError(f"partition {name!r} must be a point-indexed list of ints")
        partitions[name] = Partition(tuple(ids))
    functions = {}
    for name, vals in _labelled(doc, "functions").items():
        if len(vals) != n:
            raise InputError(f"function {name!r} must be a point-indexed list")
        functions[name] = RationalFunction(tuple(parse_rational(x) for x in vals))
    exhaustions = {}
    for name, pieces in _labelled(doc, "exhaustions").items():
        parsed = []
        for piece in pieces:
            if not isinstance(piece, dict) or "label" not in piece or "params" not in piece:
                raise InputError(f"exhaustion {name!r} pieces need 'label' and 'params'")
            idx = piece["params"]
            if not isinstance(idx, list) or not all(type(i) is int and 0 <= i < len(params) for i in idx):
                raise InputError(f"exhaustion {name!r} has out-of-range parameter indices")
            if not idx or len(set(idx)) != len(idx):
                raise InputError(f"exhaustion {name!r} pieces need distinct parameter indices")
            parsed.append((str(piece["label"]), SubmodelRef(tuple(idx))))
        exhaustions[name] = parsed
    events = {}
    for name, lists in _labelled(doc, "events").items():
        parsed_events = []
        for e in lists:
            if not isinstance(e, list) or not all(type(i) is int and 0 <= i < n for i in e):
                raise InputError(f"event list {name!r} must hold lists of in-range point indices")
            parsed_events.append(frozenset(e))
        events[name] = parsed_events
    return ModelDocument(model, partitions, functions, exhaustions, events)


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def load_model_file(path: str) -> ModelDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read model file: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"model file is not valid JSON: {e}") from None
    return model_from_dict(doc)


def save_model_file(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def _witness_value(v):
    if isinstance(v, Fraction):
        return rational_str(v)
    if isinstance(v, RationalFunction):
        return [rational_str(x) for x in v.values]
    if isinstance(v, Partition):
        return list(v.block_id)
    if isinstance(v, frozenset):
        return sorted(v)
    if isinstance(v, tuple):
        return [_witness_value(x) for x in v]
    if isinstance(v, (str, int, bool)) or v is None:
        return v
    raise TypeError(f"unserializable witness value: {v!r}")


def witness_to_json(witness):
    if witness is None:
        return None
    return {k: _witness_value(v) for k, v in sorted(witness.items())}


def check_report_to_dict(r: CheckReport) -> dict:
    return {
        "property": r.property,
        "verdict": r.verdict,
        "witness": witness_to_json(r.witness),
        "notes": list(r.notes),
    }


def theorem_report_to_dict(r: TheoremReport) -> dict:
    return {
        "theorem": r.theorem,
        "status": r.status,
        "hypotheses": [
            {"hypothesis": label, **check_report_to_dict(c)}
            for label, c in r.hypothesis_results
        ],
        "conclusion": check_report_to_dict(r.conclusion_result),
    }


def check_report_text(r: CheckReport) -> str:
    lines = [f"property: {r.property}", f"verdict: {r.verdict}"]
    w = witness_to_json(r.witness)
    if w is not None:
        lines.append("witness: " + json.dumps(w, sort_keys=True, ensure_ascii=False))
    for note in r.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def theorem_report_text(r: TheoremReport) -> str:
    lines = [f"theorem: {r.theorem}", f"status: {r.status}", "hypotheses:"]
    for label, c in r.hypothesis_results:
        lines.append(f"  - {label}: {c.verdict}")
        w = witness_to_json(c.witness)
        if w is not None and c.failed:
            lines.append(
                "    witness: " + json.dumps(w, sort_keys=True, ensure_ascii=False)
            )
    lines.append(f"conclusion: {r.conclusion_result.verdict}")
    w = witness_to_json(r.conclusion_result.witness)
    if w is not None:
        lines.append("  witness: " + json.dumps(w, sort_keys=True, ensure_ascii=False))
    for note in r.conclusion_result.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def partition_text(p: Partition) -> str:
    return json.dumps(list(p.block_id))


def function_text(f: RationalFunction) -> str:
    return json.dumps([rational_str(x) for x in f.values])
