"""Independent checks of job outputs.

Nothing here imports ``fincomplete``: model files are parsed with ``json``
and ``Fraction``, and completeness, sufficiency, proportionality and
orthogonality are re-decided with this module's own exact rank code.  A
job fails if it raised, exited 3, exited with a code outside its expected
set, or its output does not survive these checks.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

HYPOTHESIS_GAP = "conclusion-fails-with-hypothesis-gap"
VERIFIED = "verified"


class CheckFailed(Exception):
    """An output that contradicts the independent re-decision."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class Model:
    """A parsed model file: point labels, rows of exact masses, partitions."""

    def __init__(self, doc: dict):
        self.points = list(doc["points"])
        self.params = list(doc["params"])
        self.rows = [[Fraction(x) for x in row] for row in doc["prob"]]
        self.partitions = dict(doc.get("partitions") or {})

    def partition(self, name: str) -> list[int]:
        if name == "discrete":
            return list(range(len(self.points)))
        return list(self.partitions[name])

    def support_union(self) -> set[int]:
        return {x for row in self.rows for x, p in enumerate(row) if p}


def rank(rows) -> int:
    """Rank of a rational matrix by Gaussian elimination over Fraction."""
    m = [list(r) for r in rows]
    r = 0
    width = len(m[0]) if m else 0
    for c in range(width):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def _blocks(block_id) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for x, b in enumerate(block_id):
        out.setdefault(b, []).append(x)
    return out


def _join(*partitions) -> list[int]:
    seen: dict = {}
    return [seen.setdefault(key, len(seen)) for key in zip(*partitions)]


def is_complete(m: Model, block_id) -> bool:
    """Trivial kernel of the parameter-by-block mass matrix on the blocks
    that meet the support union."""
    su = m.support_union()
    live = [pts for pts in _blocks(block_id).values() if any(x in su for x in pts)]
    matrix = [[sum((row[x] for x in pts), Fraction(0)) for pts in live] for row in m.rows]
    return rank(matrix) == len(live)


def _sufficiency_gap(m: Model, block_id):
    """First (point, i, j) where the conditional masses given the point's
    block differ between parameters i and j, or None when sufficient."""
    for pts in _blocks(block_id).values():
        masses = [sum((row[x] for x in pts), Fraction(0)) for row in m.rows]
        live = [i for i, t in enumerate(masses) if t]
        for x in pts:
            ref = m.rows[live[0]][x] / masses[live[0]] if live else None
            for i in live[1:]:
                if m.rows[i][x] / masses[i] != ref:
                    return x, live[0], i
    return None


def _likelihood_key(m: Model, x: int):
    vec = [row[x] for row in m.rows]
    lead = next(v for v in vec if v)
    return tuple(v / lead for v in vec)


def _in_optimal_sigma(m: Model, points) -> bool:
    """An event A is in the optimal sigma-algebra exactly when every
    (1_A P_i) lies in the row space of the expectation matrix, i.e. is
    orthogonal to every zero-unbiased function."""
    base = rank(m.rows)
    inside = set(points)
    for row in m.rows:
        u = [p if x in inside else Fraction(0) for x, p in enumerate(row)]
        if rank(m.rows + [u]) != base:
            return False
    return True


def _fractions(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def _check_witness_function(m: Model, block_id, values) -> None:
    """An incompleteness witness: measurable, zero expectation under every
    member, nonzero on the support union."""
    f = _fractions(values)
    _require(len(f) == len(m.points), "witness length")
    for pts in _blocks(block_id).values():
        _require(len({f[x] for x in pts}) == 1, "witness not constant on a block")
    for row in m.rows:
        _require(sum((p * v for p, v in zip(row, f)), Fraction(0)) == 0, "witness has nonzero mean")
    _require(any(f[x] for x in m.support_union()), "witness vanishes on the support union")


def _check_partition_shape(block_id, n: int) -> None:
    _require(isinstance(block_id, list) and len(block_id) == n, "partition length")
    _require(block_id == _join(block_id), "partition not in first-appearance form")


def check_complete(m: Model, info, out) -> None:
    block_id = m.partition(info["partition"])
    complete = is_complete(m, block_id)
    _require(out["verdict"] == ("pass" if complete else "fail"), "completeness verdict")
    if not complete:
        _check_witness_function(m, block_id, out["witness"]["function"])


def check_sufficient(m: Model, info, out) -> None:
    block_id = m.partition(info["partition"])
    gap = _sufficiency_gap(m, block_id)
    _require(out["verdict"] == ("pass" if gap is None else "fail"), "sufficiency verdict")
    if gap is None:
        return
    w = out["witness"]
    x = m.points.index(w["point"])
    i, j = (m.params.index(p) for p in w["params"])
    pts = [m.points.index(p) for p in w["block"]]
    _require(pts == [y for y in range(len(block_id)) if block_id[y] == block_id[x]], "witness block")
    ti = sum((m.rows[i][y] for y in pts), Fraction(0))
    tj = sum((m.rows[j][y] for y in pts), Fraction(0))
    _require(ti > 0 and tj > 0 and m.rows[i][x] * tj != m.rows[j][x] * ti, "witness is not a gap")


def check_minimal(m: Model, info, out) -> None:
    block_id = out["partition"]
    _check_partition_shape(block_id, len(m.points))
    su = m.support_union()
    key_of_block: dict[int, object] = {}
    block_of_key: dict[object, int] = {}
    for x, b in enumerate(block_id):
        key = _likelihood_key(m, x) if x in su else "off-support"
        _require(key_of_block.setdefault(b, key) == key, "block mixes non-proportional points")
        _require(block_of_key.setdefault(key, b) == b, "proportional points split")


def check_optimal_sigma(m: Model, info, out) -> None:
    block_id = out["partition"]
    _check_partition_shape(block_id, len(m.points))
    for pts in _blocks(block_id).values():
        _require(_in_optimal_sigma(m, pts), "block outside the optimal sigma-algebra")


def check_umvue(m: Model, info, out) -> None:
    part = out["optimal_partition"]
    check_optimal_sigma(m, info, {"partition": part})
    if out["estimator"] is None:
        # the estimand is a seeded function's mean, so it is estimable
        _require(out["note"].startswith("estimable, but"), "estimable estimand reported otherwise")
        return
    g = _fractions(out["estimator"])
    for pts in _blocks(part).values():
        _require(len({g[x] for x in pts}) == 1, "estimator not measurable")
    for row, e in zip(m.rows, _fractions(info["estimand"])):
        _require(sum((p * v for p, v in zip(row, g)), Fraction(0)) == e, "estimator is biased")


def check_truncation(m: Model, info, out) -> None:
    _require(out["status"] == VERIFIED, "truncation theorem not verified")


def check_counterexample(info, out) -> None:
    _require(out["status"] == VERIFIED and out["conclusion"]["verdict"] == "pass", "registry replay")


def check_hunt_reject(info, out) -> None:
    _require(out == {"found": []}, "a draw was reported as a find")


def check_hunt_find(info, out) -> None:
    last = 0
    for hit in out["found"]:
        _require(hit["template"] == info["template"] and hit["dropped"] == info["drop"], "find labels")
        _require(last < hit["draws"] <= info["budget"], "draw counts")
        last = hit["draws"]
        _require(hit["status"] == HYPOTHESIS_GAP, "find status")
        main = Model(hit["models"]["main"])
        if info["template"] == "cks":
            conclusion = main.partition("discrete")
        else:
            conclusion = _join(*main.partitions.values())
        _require(not is_complete(main, conclusion), "find's conclusion is complete")


_MODEL_CHECKS = {
    "complete": check_complete,
    "sufficient": check_sufficient,
    "minimal": check_minimal,
    "optimal-sigma": check_optimal_sigma,
    "umvue": check_umvue,
    "truncation-family": check_truncation,
    "unknown-truncation": check_truncation,
}
_PLAIN_CHECKS = {
    "counterexample": check_counterexample,
    "hunt-reject": check_hunt_reject,
    "hunt-find": check_hunt_find,
}


def _exit_for(kind: str, out: dict) -> int | None:
    """The exit code a two-outcome command owes its printed result."""
    if kind in ("complete", "sufficient"):
        return 0 if out["verdict"] == "pass" else 1
    if kind == "umvue":
        return 0 if out["estimator"] is not None else 1
    return None


def check_job(record: dict, inputs_dir: str) -> str | None:
    """Return why a job record fails, or None when it passes."""
    if record.get("error"):
        return "raised " + record["error"]
    code = record["exit"]
    if code == 3 or code not in record["expect_exit"]:
        return f"exit {code}, expected one of {record['expect_exit']}: {record['stderr'][:200]}"
    try:
        out = json.loads(record["stdout"])
        kind = record["kind"]
        owed = _exit_for(kind, out)
        _require(owed is None or owed == code, f"exit {code} contradicts the printed result")
        if kind in _MODEL_CHECKS:
            with open(os.path.join(inputs_dir, record["info"]["model"]), encoding="utf-8") as fh:
                m = Model(json.load(fh))
            _MODEL_CHECKS[kind](m, record["info"], out)
        else:
            _PLAIN_CHECKS[kind](record["info"], out)
    except CheckFailed as e:
        return f"check failed: {e}"
    except (ValueError, KeyError, TypeError, IndexError, StopIteration, ZeroDivisionError) as e:
        return f"malformed output: {type(e).__name__}: {e}"
    return None
