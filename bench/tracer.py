"""A from-outside tracer for the engine's public functions.

``Tracer.install`` wraps the listed functions and rebinds every module
attribute that still holds an original, because the engine binds names at
import time (``from .checks import is_complete``) and a wrapper set only
on the defining module would miss those callers.  Per-point helpers such
as ``model.flatten_label`` or ``serialization.parse_rational`` are left
alone: wrapping them costs more than the work they do.

Each call becomes a span (name, start, end, parent span, job id) kept in
flat in-memory arrays and written out once, at the end.  Counters are
taken at the same wrapper boundary, from the arguments and the result.
``summarize`` turns a written span file into per-layer self times.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from time import perf_counter


def _cells(args, kwargs, result):
    rows = args[0]
    return {"linalg.cells": len(rows) * (len(rows[0]) if rows else 0)}


def _load_bytes(args, kwargs, result):
    return {"serialization.load.bytes": os.path.getsize(args[0])}


def _emit_bytes(args, kwargs, result):
    return {"serialization.emit.bytes": len(result.encode("utf-8"))}


def _replay_rows(args, kwargs, result):
    return {"registry.rows": len(args[0].expected)}


def _hunt(args, kwargs, result):
    budget = args[2]
    max_found = kwargs.get("max_found", 1)
    draws = result[-1].draws if len(result) >= max_found else budget
    return {"search.draws": draws, "search.finds": len(result)}


def _hypotheses(args, kwargs, result):
    return {"verify.hypotheses": len(result.hypothesis_results)}


def _subsets(args, kwargs, result):
    return {"optimal.sigma.subsets": 2 ** args[0].num_points}


def _witnesses(args, kwargs, result):
    return {"checks.complete.witnesses": 1 if result.witness is not None else 0}


def _points(args, kwargs, result):
    model = result[0] if isinstance(result, tuple) else result
    return {"model.construct.points": model.num_points}


def _vectors(args, kwargs, result):
    return {"linalg.kernel.vectors": len(result)}


# (span name, module, function names, counter taken at the boundary)
TARGETS = (
    ("cli", "cli", ("run",), None),
    ("serialization.load", "serialization", ("load_model_file",), _load_bytes),
    ("serialization.emit", "serialization", ("dumps",), _emit_bytes),
    ("serialization.emit", "serialization",
     ("model_to_dict", "check_report_to_dict", "theorem_report_to_dict"), None),
    ("registry.load", "registry", ("load",), None),
    ("registry.replay", "registry", ("replay",), _replay_rows),
    ("search", "search", ("hunt",), _hunt),
    ("verify", "verify", (
        "verify_joint_completeness", "verify_two_block_grid", "verify_cks",
        "verify_cks_rewrite", "verify_homogeneous_connected", "verify_truncation_family",
        "verify_unknown_truncation", "verify_smith", "verify_bondesson"), _hypotheses),
    ("optimal.sigma", "optimal", ("optimal_sigma_algebra",), _subsets),
    ("optimal.umvue", "optimal", ("umvue",), None),
    ("optimal.zero_basis", "optimal", ("zero_unbiased_basis",), None),
    ("checks.complete", "checks", ("is_complete",), _witnesses),
    ("checks.sufficient", "checks", ("is_sufficient",), None),
    ("checks.minimal", "checks", ("minimal_sufficient_partition",), None),
    ("checks.homogeneous", "checks", ("is_homogeneous",), None),
    ("model.construct", "model",
     ("power_model", "product_model", "weighted_model", "truncated_family"), _points),
    ("model.support", "model", ("support_union",), None),
    ("model.validate", "model", ("validate_model",), None),
    ("linalg.rank", "linalg", ("fraction_free_rank",), _cells),
    ("linalg.rref", "linalg", ("rref",), _cells),
    ("linalg.kernel", "linalg", ("kernel_basis",), _vectors),
    ("linalg.normalize", "linalg", ("normalize_vector",), None),
    ("linalg.solve", "linalg", ("solve",), None),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in TARGETS))


class Tracer:
    """Collects spans and boundary counters for one process."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.name = array("b")
        self.parent = array("l")
        self.job_of = array("l")
        self.counts: dict[str, int] = {}
        self.job = -1
        self._stack = [-1]

    def _wrap(self, fn, name_id: int, counter):
        start, end, name, parent, job_of = self.start, self.end, self.name, self.parent, self.job_of
        stack, counts = self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            job_of.append(self.job)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, package: str = "fincomplete") -> None:
        """Wrap every target and rebind each module attribute holding one."""
        wrappers = {}
        for span, module, functions, counter in TARGETS:
            mod = sys.modules[f"{package}.{module}"]
            for fname in functions:
                original = getattr(mod, fname)
                wrappers[id(original)] = (original, self._wrap(original, SPAN_NAMES.index(span), counter))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def write(self, prefix: str) -> None:
        """Write the spans as flat binary arrays plus a JSON header."""
        for field in ("start", "end", "name", "parent", "job_of"):
            with open(f"{prefix}.{field}", "wb") as fh:
                getattr(self, field).tofile(fh)
        header = {"names": list(SPAN_NAMES), "count": len(self.start), "counts": self.counts,
                  "typecodes": {f: getattr(self, f).typecode for f in ("start", "end", "name", "parent", "job_of")}}
        with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)


def _read(prefix: str, field: str, typecode: str, count: int) -> array:
    out = array(typecode)
    with open(f"{prefix}.{field}", "rb") as fh:
        out.fromfile(fh, count)
    return out


def summarize(prefix: str, job_scale: list[float]) -> dict:
    """Per-span-name calls, inclusive and self seconds, the boundary
    counters, and the hunt's direct reject and verify time.  A span's
    seconds are multiplied by ``job_scale`` of its job."""
    with open(f"{prefix}.json", encoding="utf-8") as fh:
        header = json.load(fh)
    n, codes, names = header["count"], header["typecodes"], header["names"]
    start, end = _read(prefix, "start", codes["start"], n), _read(prefix, "end", codes["end"], n)
    name, parent = _read(prefix, "name", codes["name"], n), _read(prefix, "parent", codes["parent"], n)
    job_of = _read(prefix, "job_of", codes["job_of"], n)
    duration = [(end[i] - start[i]) * job_scale[job_of[i]] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += duration[i]
    calls = [0] * len(names)
    total = [0.0] * len(names)
    self_s = [0.0] * len(names)
    search_id = names.index("search")
    hunt = {"search.reject_s": 0.0, "search.verify_s": 0.0, "search.verify_calls": 0}
    for i in range(n):
        k = name[i]
        dur = duration[i]
        calls[k] += 1
        total[k] += dur
        self_s[k] += dur - child[i]
        p = parent[i]
        if p >= 0 and name[p] == search_id:
            if names[k].startswith("checks."):
                hunt["search.reject_s"] += dur
            elif names[k] == "verify":
                hunt["search.verify_s"] += dur
                hunt["search.verify_calls"] += 1
    spans = {nm: {"calls": calls[k], "total_s": total[k], "self_s": self_s[k]} for k, nm in enumerate(names)}
    return {"spans": spans, "counts": header["counts"], "hunt": hunt}
