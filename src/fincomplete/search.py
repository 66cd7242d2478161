"""Seeded random generation of models, hypothesis-satisfying theorem
instances, and hypothesis-dropping counterexample hunts.

Instance streams are fully determined by the seed: the only randomness
source is one ``random.Random`` per call, and no iteration order depends on
hashing.  Generated theorem instances are guaranteed by construction to
satisfy the hypotheses of the joint-completeness verifier, and the
guarantee is re-checked rather than trusted.

The hunt explores random instances of a verifier template with one
hypothesis family dropped, looking for instances where every remaining
hypothesis passes while the conclusion fails.  Finds are re-verified with
the full verifier, then greedily minimized (parameters before points, in
canonical order) while preserving the violation at every step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .checks import is_complete, is_sufficient
from .errors import GenerationError
from .model import (
    FiniteModel,
    Partition,
    RationalFunction,
    SubmodelRef,
    coordinate_partitions,
    downray_events,
    interval_events,
    partition_from_statistic,
    power_model,
    product_model,
    truncated_family,
    upray_events,
    weighted_model,
)
from .optimal import exists_complete_sufficient
from .reports import TheoremReport
from .verify import (
    Exhaustion,
    cks_product,
    truncation_exhaustions,
    verify_cks,
    verify_joint_completeness,
    verify_two_block_grid,
)

DEFAULT_MASS_GRID = tuple(Fraction(i, 12) for i in range(13))

TEMPLATES = ("joint_completeness", "two_block_grid", "cks")


@dataclass(frozen=True)
class GenConfig:
    """Generation parameters; equal configs and seeds give equal streams."""

    seed: int = 0
    max_points: int = 5
    max_params: int = 4
    mass_grid: tuple[Fraction, ...] = DEFAULT_MASS_GRID
    homogeneous: bool = False
    product_shaped: bool = False
    grid_parametrized: bool = False
    retry_budget: int = 200


@dataclass(frozen=True)
class MainInstance:
    """A joint-completeness instance: a model plus (partition, exhaustion)
    pairs whose hypotheses hold by construction."""

    model: FiniteModel
    family: tuple[tuple[Partition, Exhaustion], ...]
    recipe: str


@dataclass(frozen=True)
class FoundInstance:
    """A hunt hit: the instance data, the full verifier report, and the
    number of candidates examined before the hit."""

    template: str
    dropped: str
    models: dict[str, FiniteModel]
    partitions: dict[str, Partition]
    report: TheoremReport
    draws: int


def _positive_grid(grid: Sequence[Fraction]) -> list[Fraction]:
    pos = [g for g in grid if g > 0]
    if not pos:
        raise GenerationError("mass grid has no positive entries")
    return pos


def _draw_row(rng: random.Random, grid, n: int, positive: bool) -> tuple[Fraction, ...]:
    pool = _positive_grid(grid) if positive else list(grid)
    while True:
        raw = [rng.choice(pool) for _ in range(n)]
        total = sum(raw)
        if total > 0:
            return tuple(w / total for w in raw)


def _draw_model(rng: random.Random, cfg: GenConfig) -> FiniteModel:
    if cfg.product_shaped:
        half = replace(cfg, product_shaped=False, max_points=max(2, cfg.max_points // 2), max_params=max(1, cfg.max_params // 2))
        return product_model(_draw_model(rng, half), _draw_model(rng, half))
    n = rng.randint(1, cfg.max_points)
    if cfg.grid_parametrized:
        k1 = rng.randint(1, max(1, cfg.max_params // 2))
        k2 = rng.randint(1, max(1, cfg.max_params // max(k1, 1)))
        params: tuple = tuple((str(a), str(b)) for a in range(k1) for b in range(k2))
    else:
        k = rng.randint(1, cfg.max_params)
        params = tuple(f"t{i}" for i in range(k))
    rows = tuple(_draw_row(rng, cfg.mass_grid, n, cfg.homogeneous) for _ in params)
    points = tuple(f"x{i}" for i in range(n))
    return FiniteModel(points, params, rows)


def random_model(cfg: GenConfig) -> FiniteModel:
    """One random model; the same config always gives the same model."""
    return _draw_model(random.Random(cfg.seed), cfg)


def random_models(cfg: GenConfig, count: int) -> Iterator[FiniteModel]:
    rng = random.Random(cfg.seed)
    for _ in range(count):
        yield _draw_model(rng, cfg)


def _complete_factor(rng: random.Random, cfg: GenConfig, n_points: int) -> FiniteModel:
    """A small full-support model that is complete (checked, not assumed).

    One parameter per point keeps products of two factors within the
    8-parameter instance bound.
    """
    for _ in range(cfg.retry_budget):
        k = n_points
        rows = tuple(_draw_row(rng, cfg.mass_grid, n_points, True) for _ in range(k))
        m = FiniteModel(
            tuple(f"x{i}" for i in range(n_points)),
            tuple(f"t{i}" for i in range(k)),
            rows,
        )
        if is_complete(Partition.discrete(n_points), m, SubmodelRef.full(m)).passed:
            return m
    raise GenerationError("could not draw a complete factor")


def _product_instance(rng: random.Random, cfg: GenConfig) -> MainInstance:
    # factor sizes chosen so the product has at most 8 parameters
    na, nb = rng.choice(((2, 2), (2, 3), (3, 2), (2, 4), (4, 2)))
    a = _complete_factor(rng, cfg, na)
    b = _complete_factor(rng, cfg, nb)
    model = product_model(a, b)
    c1, c2 = coordinate_partitions(a, b)
    nb = b.num_params
    exh1 = Exhaustion(
        "fix-second-factor",
        tuple(
            (str(b.params[j]), SubmodelRef(tuple(i * nb + j for i in range(a.num_params))))
            for j in range(nb)
        ),
    )
    exh2 = Exhaustion(
        "fix-first-factor",
        tuple(
            (str(a.params[i]), SubmodelRef(tuple(i * nb + j for j in range(nb))))
            for i in range(a.num_params)
        ),
    )
    return MainInstance(model, ((c1, exh1), (c2, exh2)), "product")


_EVENT_KINDS: dict[str, Callable[[int], list[frozenset[int]]]] = {
    "intervals": interval_events,
    "uprays": upray_events,
    "downrays": downray_events,
}


def _truncation_instance(rng: random.Random, cfg: GenConfig) -> MainInstance:
    # sizes keep the truncated family within 8 parameters and 64 points
    kind = rng.choice(("uprays", "downrays", "intervals"))
    base_points = 3 if kind == "intervals" else rng.randint(3, 4)
    k0 = 1 if kind == "intervals" else rng.randint(1, 2)
    n = rng.randint(1, 2)
    base = FiniteModel(
        tuple(f"x{i}" for i in range(base_points)),
        tuple(f"t{i}" for i in range(k0)),
        tuple(_draw_row(rng, cfg.mass_grid, base_points, True) for _ in range(k0)),
    )
    events = _EVENT_KINDS[kind](base_points)
    powered = power_model(base, n)
    if k0 == 1:
        c = Partition.trivial(powered.num_points)
    else:
        rep = exists_complete_sufficient(powered, SubmodelRef.full(powered))
        if not rep.passed:
            raise GenerationError("power family admits no complete sufficient partition")
        c = rep.witness["partition"]
    model, sig = truncated_family(base, events, n)
    by_event, by_param = truncation_exhaustions(base, model)
    return MainInstance(model, ((c, by_event), (sig, by_param)), f"truncation-{kind}")


def _weighting_instance(rng: random.Random, cfg: GenConfig) -> MainInstance:
    n = rng.randint(2, 4)
    k = rng.randint(1, 3)
    base = FiniteModel(
        tuple(f"x{i}" for i in range(n)),
        tuple(f"t{i}" for i in range(k)),
        tuple(_draw_row(rng, cfg.mass_grid, n, True) for _ in range(k)),
    )
    rep = exists_complete_sufficient(base, SubmodelRef.full(base))
    if not rep.passed:
        raise GenerationError("base model admits no complete sufficient partition")
    c = rep.witness["partition"]
    pos = _positive_grid(cfg.mass_grid)
    q = RationalFunction(tuple(rng.choice(pos) for _ in range(n)))
    model = weighted_model(base, q)
    return MainInstance(model, ((c, Exhaustion.single(model)),), "weighting")


_RECIPES = ("product", "truncation", "weighting")


def gen_main_instances(cfg: GenConfig, count: int) -> Iterator[MainInstance]:
    """A reproducible stream of joint-completeness instances.  Every
    instance is re-checked: all hypotheses of the verifier must pass, and
    instances whose construction fails are redrawn within the retry
    budget."""
    rng = random.Random(cfg.seed)
    produced = 0
    failures = 0
    while produced < count:
        recipe = rng.choice(_RECIPES)
        try:
            if recipe == "product":
                inst = _product_instance(rng, cfg)
            elif recipe == "truncation":
                inst = _truncation_instance(rng, cfg)
            else:
                inst = _weighting_instance(rng, cfg)
            report = verify_joint_completeness(inst.model, inst.family)
            if report.failed_hypotheses():
                raise GenerationError(
                    f"recipe {recipe} produced unmet hypotheses: "
                    f"{report.failed_hypotheses()}"
                )
        except GenerationError:
            failures += 1
            if failures > cfg.retry_budget:
                raise
            continue
        produced += 1
        yield inst


def gen_main_instance(cfg: GenConfig) -> MainInstance:
    return next(gen_main_instances(cfg, 1))


# --- hunt -----------------------------------------------------------------

_DROPPABLE = {
    "joint_completeness": ("completeness", "sufficiency"),
    "two_block_grid": (
        "c1-sufficiency",
        "c1-completeness",
        "c2-sufficiency",
        "c2-completeness",
    ),
    "cks": ("q-completeness", "r-completeness", "homogeneity"),
}

# Hypothesis labels covered by each droppable family, as substrings.
_DROP_MATCH = {
    "c1-sufficiency": "c1-sufficient[",
    "c1-completeness": "c1-complete[",
    "c2-sufficiency": "c2-sufficient[",
    "c2-completeness": "c2-complete[",
    "q-completeness": "first-family-complete",
    "r-completeness": "second-family-complete[",
    "homogeneity": "second-family-homogeneous[",
    "completeness": " complete[",
    "sufficiency": " sufficient[",
}


def _dropped_label(dropped: str | None, label: str) -> bool:
    if dropped is None:
        return False
    return _DROP_MATCH[dropped] in label


def _is_violation(report: TheoremReport, dropped: str | None) -> bool:
    if report.conclusion_result.verdict != "fail":
        return False
    for label, rep in report.hypothesis_results:
        if rep.failed and not _dropped_label(dropped, label):
            return False
    return True


def _coin_pair_model(ps: dict[tuple[str, str], Fraction], axis1, axis2) -> FiniteModel:
    points = ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
    params = tuple((a, b) for a in axis1 for b in axis2)
    rows = []
    for a, b in params:
        p = ps[(a, b)]
        rows.append(((1 - p) * (1 - p), (1 - p) * p, p * (1 - p), p * p))
    return FiniteModel(points, params, tuple(rows))


@dataclass
class _TwoBlockCandidate:
    model: FiniteModel
    c1: Partition
    c2: Partition

    def report(self) -> TheoremReport:
        return verify_two_block_grid(self.model, self.c1, self.c2)


@dataclass
class _CksCandidate:
    q: FiniteModel
    r: FiniteModel

    def report(self) -> TheoremReport:
        return verify_cks(self.q, self.r)


def _proper_fractions(grid) -> list[Fraction]:
    return [g for g in grid if 0 < g < 1]


def _gen_two_block_candidate(rng: random.Random, cfg: GenConfig) -> _TwoBlockCandidate:
    pool = _proper_fractions(cfg.mass_grid)
    axis1 = ("0", "1")
    n2 = 3
    axis2 = tuple(f"s{j}" for j in range(n2))
    points = ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
    sum_partition = Partition((0, 1, 1, 2))
    x1_partition = Partition((0, 0, 1, 1))
    x2_partition = Partition((0, 1, 0, 1))
    if rng.random() < 0.7:
        ps = {(a, b): rng.choice(pool) for a in axis1 for b in axis2}
        model = _coin_pair_model(ps, axis1, axis2)
        c2 = sum_partition if rng.random() < 0.8 else x2_partition
        return _TwoBlockCandidate(model, x1_partition, c2)
    params = tuple((a, b) for a in axis1 for b in axis2)
    rows = []
    for a, b in params:
        pa, pb = rng.choice(pool), rng.choice(pool)
        rows.append(((1 - pa) * (1 - pb), (1 - pa) * pb, pa * (1 - pb), pa * pb))
    model = FiniteModel(points, params, tuple(rows))
    c2 = x2_partition if rng.random() < 0.6 else sum_partition
    return _TwoBlockCandidate(model, x1_partition, c2)


def _gen_cks_candidate(rng: random.Random, cfg: GenConfig) -> _CksCandidate:
    pool = _proper_fractions(cfg.mass_grid)
    q = FiniteModel(
        ("0", "1"),
        ("0", "1"),
        tuple((1 - p, p) for p in (rng.choice(pool), rng.choice(pool))),
    )
    params = tuple((a, b) for a in ("0", "1") for b in ("0", "1"))
    rows = []
    for _ in params:
        if rng.random() < 0.4:
            at = rng.randint(0, 1)
            rows.append((Fraction(1 - at), Fraction(at)))
        else:
            p = rng.choice(pool)
            rows.append((1 - p, p))
    r = FiniteModel(("0", "1"), params, tuple(rows))
    return _CksCandidate(q, r)


def _two_block_quick_reject(cand: _TwoBlockCandidate, dropped: str | None) -> bool:
    """Cheap short-circuit for the common case: evaluate the hypothesis
    families in a fixed order and reject on the first non-dropped failure.
    The full verifier re-checks any surviving candidate."""
    m = cand.model
    checks = (
        ("c1-sufficiency", 1, cand.c1, is_sufficient),
        ("c1-completeness", 1, cand.c1, is_complete),
        ("c2-sufficiency", 0, cand.c2, is_sufficient),
        ("c2-completeness", 0, cand.c2, is_complete),
    )
    for name, coord, part, fn in checks:
        if dropped == name:
            continue
        values = []
        for lab in m.params:
            v = lab[coord]
            if v not in values:
                values.append(v)
        for v in values:
            if not fn(part, m, SubmodelRef.section(m, coord, v)).passed:
                return True
    return False


def _cks_quick_reject(cand: _CksCandidate, dropped: str | None) -> bool:
    if dropped != "q-completeness":
        if not is_complete(
            Partition.discrete(cand.q.num_points), cand.q, SubmodelRef.full(cand.q)
        ).passed:
            return True
    if dropped != "r-completeness":
        for v in ("0", "1"):
            sec = SubmodelRef.section(cand.r, 0, v)
            if not is_complete(Partition.discrete(cand.r.num_points), cand.r, sec).passed:
                return True
    if dropped != "homogeneity":
        from .checks import is_homogeneous

        for v in ("0", "1"):
            sec = SubmodelRef.section(cand.r, 1, v)
            if not is_homogeneous(cand.r, sec).passed:
                return True
    return False


def _grid_submodel(m: FiniteModel, coord: int, drop_value: str) -> FiniteModel:
    keep = [i for i, lab in enumerate(m.params) if lab[coord] != drop_value]
    return m.restrict_params(keep)


def _axis_values(m: FiniteModel, coord: int) -> list[str]:
    values: list[str] = []
    for lab in m.params:
        if lab[coord] not in values:
            values.append(lab[coord])
    return values


def _minimize_two_block(cand: _TwoBlockCandidate, dropped) -> _TwoBlockCandidate:
    changed = True
    while changed:
        changed = False
        for coord in (0, 1):
            for v in _axis_values(cand.model, coord):
                if len(_axis_values(cand.model, coord)) <= 1:
                    continue
                smaller = _TwoBlockCandidate(
                    _grid_submodel(cand.model, coord, v), cand.c1, cand.c2
                )
                if _is_violation(smaller.report(), dropped):
                    cand = smaller
                    changed = True
                    break
            if changed:
                break
    return cand


def _minimize_cks(cand: _CksCandidate, dropped) -> _CksCandidate:
    changed = True
    while changed:
        changed = False
        for v in _axis_values(cand.r, 1):
            if len(_axis_values(cand.r, 1)) <= 1:
                continue
            smaller = _CksCandidate(cand.q, _grid_submodel(cand.r, 1, v))
            if _is_violation(smaller.report(), dropped):
                cand = smaller
                changed = True
                break
    return cand


def hunt(
    template: str,
    dropped_hypothesis: str | None,
    budget: int,
    cfg: GenConfig,
    *,
    max_found: int = 1,
) -> list[FoundInstance]:
    """Search for instances violating a verifier template with one
    hypothesis family dropped.

    Examines up to ``budget`` random candidates; a candidate is a find
    when every non-dropped hypothesis passes and the conclusion fails.
    Finds are re-verified and greedily minimized before being returned.
    An empty list is a valid outcome.
    """
    if template not in TEMPLATES:
        raise ValueError(f"unknown template {template!r}; known: {TEMPLATES}")
    if dropped_hypothesis is not None and dropped_hypothesis not in _DROPPABLE[template]:
        raise ValueError(
            f"cannot drop {dropped_hypothesis!r} from {template}; "
            f"droppable: {_DROPPABLE[template]}"
        )
    rng = random.Random(cfg.seed)
    found: list[FoundInstance] = []
    for draw in range(budget):
        if template == "two_block_grid":
            cand = _gen_two_block_candidate(rng, cfg)
            if _two_block_quick_reject(cand, dropped_hypothesis):
                continue
            report = cand.report()
            if not _is_violation(report, dropped_hypothesis):
                continue
            cand = _minimize_two_block(cand, dropped_hypothesis)
            report = cand.report()
            found.append(
                FoundInstance(
                    template,
                    dropped_hypothesis or "",
                    {"main": cand.model},
                    {"c1": cand.c1, "c2": cand.c2},
                    report,
                    draw + 1,
                )
            )
        elif template == "cks":
            ccand = _gen_cks_candidate(rng, cfg)
            if _cks_quick_reject(ccand, dropped_hypothesis):
                continue
            report = ccand.report()
            if not _is_violation(report, dropped_hypothesis):
                continue
            ccand = _minimize_cks(ccand, dropped_hypothesis)
            report = ccand.report()
            found.append(
                FoundInstance(
                    template,
                    dropped_hypothesis or "",
                    {"Q": ccand.q, "R": ccand.r, "main": cks_product(ccand.q, ccand.r)},
                    {},
                    report,
                    draw + 1,
                )
            )
        else:
            inst = _gen_joint_candidate(rng, cfg)
            report = verify_joint_completeness(inst[0], inst[1])
            if not _is_violation(report, dropped_hypothesis):
                continue
            found.append(
                FoundInstance(
                    template,
                    dropped_hypothesis or "",
                    {"main": inst[0]},
                    {f"C{i + 1}": part for i, (part, _) in enumerate(inst[1])},
                    report,
                    draw + 1,
                )
            )
        if len(found) >= max_found:
            break
    return found


def _gen_joint_candidate(rng: random.Random, cfg: GenConfig):
    n = rng.randint(2, min(4, cfg.max_points))
    k = rng.randint(2, min(4, cfg.max_params))
    rows = tuple(_draw_row(rng, cfg.mass_grid, n, False) for _ in range(k))
    m = FiniteModel(
        tuple(f"x{i}" for i in range(n)), tuple(f"t{i}" for i in range(k)), rows
    )
    family = []
    for i in range(rng.randint(1, 2)):
        part = partition_from_statistic([rng.randint(0, 1) for _ in range(n)])
        pieces = []
        remaining = list(range(k))
        label = 0
        while remaining:
            size = rng.randint(1, len(remaining))
            pieces.append((str(label), SubmodelRef(tuple(remaining[:size]))))
            remaining = remaining[size:]
            label += 1
        family.append((part, Exhaustion(f"E{i}", tuple(pieces))))
    return m, tuple(family)
