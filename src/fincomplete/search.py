"""Seeded random generation of models, hypothesis-satisfying theorem
instances, and hypothesis-dropping counterexample hunts.

Instance streams are fully determined by the seed: the only randomness
source is one ``random.Random`` per call, and no iteration order depends on
hashing.  Generated theorem instances are guaranteed by construction to
satisfy the hypotheses of the joint-completeness verifier, and the
guarantee is re-checked rather than trusted.

The hunt explores random instances of a verifier template with one
hypothesis family dropped, looking for instances where every remaining
hypothesis passes while the conclusion fails.  It judges each candidate
with the verifier's declared hypotheses (:class:`verify.Hypotheses`),
stopping at the first failure; verifier reports never stop early.  A find
is greedily minimized, dropping grid parameters one axis value at a time
while the violation holds, and then gets one full verifier report.

A template's sampler is built once per hunt and pools what no draw
changes: the coin rows ``(1 - p, p)`` of the grid's proper fractions, the
parameter labels, the constant partitions and, for ``two_block_grid``, a
memo of coin-pair rows keyed by the pair of coin indices.  A draw picks a
coin by its index, which consumes the randomness a pick of the fraction
would, so the random stream, every find and every draw count are those of
a per-draw rebuild.  No pool outlives its hunt.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

from . import verify
from .checks import is_complete
from .errors import GenerationError
from .model import (
    EVENT_KINDS,
    FiniteModel,
    Partition,
    RationalFunction,
    SubmodelRef,
    coordinate_partitions,
    partition_from_statistic,
    power_model,
    product_model,
    truncated_family,
    weighted_model,
)
from .optimal import exists_complete_sufficient
from .reports import TheoremReport
from .verify import Exhaustion, truncation_exhaustions, verify_joint_completeness

DEFAULT_MASS_GRID = tuple(Fraction(i, 12) for i in range(13))


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
        if is_complete(Partition.discrete(n_points), m).passed:
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
    events = EVENT_KINDS[kind](base_points)
    powered = power_model(base, n)
    if k0 == 1:
        c = Partition.trivial(powered.num_points)
    else:
        rep = exists_complete_sufficient(powered)
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
    rep = exists_complete_sufficient(base)
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

_COIN_PAIR_POINTS = ("(0,0)", "(0,1)", "(1,0)", "(1,1)")


def _coins(grid) -> list[tuple[Fraction, Fraction]]:
    """The row ``(1 - p, p)`` of a coin for each proper fraction ``p`` of
    the grid; a sampler draws a coin by its index."""
    return [(1 - g, g) for g in grid if 0 < g.numerator < g.denominator]


def _two_block_sampler(cfg: GenConfig) -> Callable[[random.Random], tuple]:
    coins = _coins(cfg.mass_grid)
    picks = range(len(coins))  # rng.choice(picks) draws as a choice of a coin does
    params = tuple((a, f"s{j}") for a in ("0", "1") for j in range(3))
    sum_partition = Partition((0, 1, 1, 2))
    x1_partition = Partition((0, 0, 1, 1))
    x2_partition = Partition((0, 1, 0, 1))
    rows: dict[tuple[int, int], tuple[Fraction, ...]] = {}

    def row(a: int, b: int) -> tuple[Fraction, ...]:
        """Masses of two independent coins, built once per pair."""
        if (a, b) not in rows:
            (qa, pa), (qb, pb) = coins[a], coins[b]
            rows[a, b] = (qa * qb, qa * pb, pa * qb, pa * pb)
        return rows[a, b]

    def sample(rng: random.Random) -> tuple[FiniteModel, Partition, Partition]:
        if rng.random() < 0.7:
            # i.i.d. coin pairs: one bias per parameter
            ps = [rng.choice(picks) for _ in params]
            model_rows = tuple(row(p, p) for p in ps)
            c2 = sum_partition if rng.random() < 0.8 else x2_partition
        else:
            model_rows = tuple(row(rng.choice(picks), rng.choice(picks)) for _ in params)
            c2 = x2_partition if rng.random() < 0.6 else sum_partition
        return FiniteModel(_COIN_PAIR_POINTS, params, model_rows), x1_partition, c2

    return sample


def _cks_sampler(cfg: GenConfig) -> Callable[[random.Random], tuple]:
    coins = _coins(cfg.mass_grid)
    picks = range(len(coins))
    # some rows are point masses, whose smaller support can break homogeneity
    point_masses = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    params = tuple((a, b) for a in ("0", "1") for b in ("0", "1"))

    def sample(rng: random.Random) -> tuple[FiniteModel, FiniteModel]:
        q = FiniteModel(("0", "1"), ("0", "1"), (coins[rng.choice(picks)], coins[rng.choice(picks)]))
        rows = tuple(
            point_masses[rng.randint(0, 1)] if rng.random() < 0.4 else coins[rng.choice(picks)]
            for _ in params
        )
        return q, FiniteModel(("0", "1"), params, rows)

    return sample


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


def _smaller_grids(args: tuple, where: int, coords: tuple[int, ...]) -> Iterator[tuple]:
    """``args`` with one axis value dropped from the grid model
    ``args[where]``: each value of each coordinate in ``coords``, in turn."""
    grid = args[where]
    for coord in coords:
        values = verify.grid_axes(grid)[coord]
        if len(values) > 1:
            for v in values:
                keep = [i for i, lab in enumerate(grid.params) if lab[coord] != v]
                yield args[:where] + (grid.restrict_params(keep),) + args[where + 1 :]


def _shrink(
    args: tuple, where: int, coords: tuple[int, ...], violated: Callable[[tuple], bool]
) -> tuple:
    """Greedy minimization: move to the first smaller grid that still
    violates, and restart from it until none does."""
    while True:
        smaller = next((s for s in _smaller_grids(args, where, coords) if violated(s)), None)
        if smaller is None:
            return args
        args = smaller


class _Template(NamedTuple):
    """One hunted verifier: ``sampler(cfg)`` builds, once per hunt, the
    ``sample(rng)`` that draws its arguments, ``hypotheses`` declares them
    as data, ``verifier`` names the ``verify`` function that reports a
    find, ``shrink`` is the grid argument's position and the coordinates
    to shrink it along, and ``payload`` maps the arguments to the find's
    models and partitions."""

    sampler: Callable[[GenConfig], Callable[[random.Random], tuple]]
    hypotheses: Callable[..., verify.Hypotheses]
    families: tuple[str, ...]
    verifier: str
    shrink: tuple[int, tuple[int, ...]]
    payload: Callable[..., tuple[dict[str, FiniteModel], dict[str, Partition]]]


_TEMPLATES = {
    "joint_completeness": _Template(
        lambda cfg: lambda rng: _gen_joint_candidate(rng, cfg),
        verify.joint_completeness_hypotheses,
        verify.JOINT_COMPLETENESS_FAMILIES,
        "verify_joint_completeness",
        (0, ()),
        lambda m, family: ({"main": m}, {f"C{i + 1}": c for i, (c, _) in enumerate(family)}),
    ),
    "two_block_grid": _Template(
        _two_block_sampler,
        verify.two_block_grid_hypotheses,
        verify.TWO_BLOCK_GRID_FAMILIES,
        "verify_two_block_grid",
        (0, (0, 1)),
        lambda m, c1, c2: ({"main": m}, {"c1": c1, "c2": c2}),
    ),
    "cks": _Template(
        _cks_sampler,
        verify.cks_hypotheses,
        verify.CKS_FAMILIES,
        "verify_cks",
        (1, (1,)),
        lambda q, r: ({"Q": q, "R": r, "main": verify.cks_product(q, r)}, {}),
    ),
}
TEMPLATES = tuple(_TEMPLATES)


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
    That predicate stops at the first failing hypothesis; a find is
    greedily minimized under it and then gets one full verifier report.
    An empty list is a valid outcome.  An unknown template or family, a
    negative budget or a ``max_found`` below 1 raises ``ValueError``.
    """
    if template not in _TEMPLATES:
        raise ValueError(f"unknown template {template!r}; known: {TEMPLATES}")
    t = _TEMPLATES[template]
    if dropped_hypothesis is not None and dropped_hypothesis not in t.families:
        raise ValueError(
            f"cannot drop {dropped_hypothesis!r} from {template}; droppable: {t.families}"
        )
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, not {budget}")
    if max_found < 1:
        raise ValueError(f"max_found must be at least 1, not {max_found}")

    def violated(args: tuple) -> bool:
        return t.hypotheses(*args).violated(dropped_hypothesis)

    sample = t.sampler(cfg)
    rng = random.Random(cfg.seed)
    found: list[FoundInstance] = []
    for draw in range(budget):
        args = sample(rng)
        if not violated(args):
            continue
        args = _shrink(args, *t.shrink, violated)
        # Looked up per find, so a wrapper set on the verify module sees it.
        report = getattr(verify, t.verifier)(*args)
        models, partitions = t.payload(*args)
        found.append(
            FoundInstance(template, dropped_hypothesis or "", models, partitions, report, draw + 1)
        )
        if len(found) >= max_found:
            break
    return found
