import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

import fincomplete as fc
from fincomplete import (
    FiniteModel,
    GenConfig,
    Partition,
    SubmodelRef,
    gen_main_instance,
    gen_main_instances,
    hunt,
    random_model,
)
from fincomplete import search, verify
from fincomplete.checks import is_complete, is_homogeneous, is_sufficient
from fincomplete.errors import ExhaustionError
from fincomplete.model import join
from fincomplete.reports import (
    STATUS_CONCLUSION_FAILS,
    STATUS_VERIFIED,
    VERDICT_PASS,
    CheckReport,
    TheoremReport,
)
from fincomplete.verify import INTEGRABILITY_NOTE
from fincomplete.search import FoundInstance

from conftest import valid_incompleteness_witness


class TestRandomModel:
    def test_same_seed_same_model(self):
        cfg = GenConfig(seed=1)
        assert random_model(cfg) == random_model(cfg)

    def test_different_seed_differs_somewhere(self):
        models = {random_model(GenConfig(seed=s)) for s in range(12)}
        assert len(models) > 1

    def test_homogeneous_flag_gives_equal_supports(self):
        for s in range(20):
            m = random_model(GenConfig(seed=s, homogeneous=True))
            assert fc.is_homogeneous(m).passed

    def test_size_bounds(self):
        for s in range(20):
            m = random_model(GenConfig(seed=s, max_points=3, max_params=2))
            assert m.num_points <= 3 and m.num_params <= 2

    def test_rows_are_exactly_normalized(self):
        for s in range(10):
            m = random_model(GenConfig(seed=s))
            for row in m.prob:
                assert sum(row) == 1

    def test_grid_parametrized_flag(self):
        m = random_model(GenConfig(seed=3, grid_parametrized=True, max_params=4))
        assert all(isinstance(p, tuple) and len(p) == 2 for p in m.params)

    def test_product_shaped_flag(self):
        m = random_model(GenConfig(seed=5, product_shaped=True, max_points=6, max_params=4))
        assert all("," in p for p in m.points)


class TestMainInstances:
    def test_stream_reproducible(self):
        cfg = GenConfig(seed=7)
        a = [inst.model for inst in gen_main_instances(cfg, 5)]
        b = [inst.model for inst in gen_main_instances(cfg, 5)]
        assert a == b

    def test_instances_verify_and_mix_recipes(self):
        cfg = GenConfig(seed=11)
        recipes = set()
        for inst in gen_main_instances(cfg, 30):
            report = fc.verify_joint_completeness(inst.model, inst.family)
            assert report.status == STATUS_VERIFIED
            recipes.add(inst.recipe.split("-")[0])
        assert recipes == {"product", "truncation", "weighting"}

    def test_single_instance_helper(self):
        inst = gen_main_instance(GenConfig(seed=2))
        assert inst.model.num_params >= 1


class TestHunt:
    def test_two_block_drop_sufficiency_finds_swap_pattern(self):
        cfg = GenConfig(seed=2024)
        found = hunt("two_block_grid", "c1-sufficiency", 2000, cfg)
        assert found, "expected a violating instance"
        hit = found[0]
        assert hit.report.status == STATUS_CONCLUSION_FAILS
        for label, rep in hit.report.hypothesis_results:
            if rep.failed:
                assert "c1-sufficient" in label
        w = hit.report.conclusion_result.witness["function"]
        m = hit.models["main"]
        assert valid_incompleteness_witness(w, m, SubmodelRef.full(m))

    def test_minimization_reaches_small_grid(self):
        cfg = GenConfig(seed=2024)
        found = hunt("two_block_grid", "c1-sufficiency", 2000, cfg)
        m = found[0].models["main"]
        axis1 = {p[0] for p in m.params}
        axis2 = {p[1] for p in m.params}
        # completeness per section needs both axis1 values; c2-completeness
        # needs all three sum levels, hence three axis2 values
        assert len(axis1) == 2 and len(axis2) == 3

    def test_cks_drop_homogeneity_finds_coupling(self):
        cfg = GenConfig(seed=99)
        found = hunt("cks", "homogeneity", 5000, cfg)
        assert found
        hit = found[0]
        assert hit.report.status == STATUS_CONCLUSION_FAILS
        for label, rep in hit.report.hypothesis_results:
            if rep.failed:
                assert "homogeneous" in label

    def test_nothing_dropped_finds_nothing_small_budget(self):
        cfg = GenConfig(seed=5)
        assert hunt("two_block_grid", None, 3000, cfg) == []
        assert hunt("cks", None, 1500, cfg) == []
        assert hunt("joint_completeness", None, 800, cfg) == []

    def test_reproducible_draw_counts(self):
        cfg = GenConfig(seed=2024)
        a = hunt("two_block_grid", "c1-sufficiency", 2000, cfg)
        b = hunt("two_block_grid", "c1-sufficiency", 2000, cfg)
        assert a[0].draws == b[0].draws
        assert a[0].models == b[0].models

    def test_bad_template_and_drop_labels(self):
        cfg = GenConfig(seed=0)
        with pytest.raises(ValueError):
            hunt("no-such-template", None, 10, cfg)
        with pytest.raises(ValueError):
            hunt("two_block_grid", "no-such-hypothesis", 10, cfg)

    def test_droppable_families_tag_hypotheses(self):
        # Each family is declared next to its verifier's hypotheses; one that
        # tagged no hypothesis would make a drop a silent no-op.
        rng, cfg = random.Random(0), GenConfig()
        # a grid with no proper fraction has no coin to draw: with no draw, no error
        no_coins = GenConfig(mass_grid=(Fraction(0), Fraction(1)))
        for template in search.TEMPLATES:
            t = search._TEMPLATES[template]
            hyps = t.hypotheses(*t.sampler(cfg)(rng))
            assert t.families and hyps.families == t.families
            assert set(t.families) <= {family for family, _, _ in hyps.entries}
            for family in t.families:
                assert hunt(template, family, 0, cfg) == []
                assert hunt(template, family, 0, no_coins) == []
        assert search._TEMPLATES["cks"].families == verify.CKS_FAMILIES
        cks = verify.cks_hypotheses(*search._TEMPLATES["cks"].sampler(cfg)(rng))
        (integrability,) = [f for f, label, _ in cks.entries if label == "integrability"]
        assert integrability not in verify.CKS_FAMILIES


# --- differential oracle: the hunt and the three verifiers it calls, as they
# were before the hypotheses became data: quick rejects, substring matching of
# labels to families, per-template minimizers and eager full reports ---

ORACLE_DROPPABLE = {
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


def oracle_is_violation(report: TheoremReport, dropped: str | None) -> bool:
    if report.conclusion_result.verdict != "fail":
        return False
    for label, rep in report.hypothesis_results:
        if rep.failed and not _dropped_label(dropped, label):
            return False
    return True


def oracle_verify_joint_completeness(m, family) -> TheoremReport:
    hyps: list[tuple[str, CheckReport]] = []
    joined: Partition | None = None
    for i, (part, exh) in enumerate(family):
        exh.validate(m)
        joined = part if joined is None else join(joined, part)
        for eta, piece in exh.pieces:
            hyps.append(
                (
                    f"C{i + 1} complete[{exh.label}={eta}]",
                    is_complete(part, piece.restrict(m)),
                )
            )
            hyps.append(
                (
                    f"C{i + 1} sufficient[{exh.label}={eta}]",
                    is_sufficient(part, piece.restrict(m)),
                )
            )
    if joined is None:
        raise ExhaustionError("family must contain at least one partition")
    conclusion = is_complete(joined, m)
    return TheoremReport("joint-completeness", tuple(hyps), conclusion)


def oracle_verify_two_block_grid(m: FiniteModel, c1: Partition, c2: Partition) -> TheoremReport:
    axis1, axis2 = verify.grid_axes(m)
    hyps: list[tuple[str, CheckReport]] = []
    for v in axis2:
        sec = SubmodelRef.section(m, 1, v)
        hyps.append((f"c1-complete[axis2={v}]", is_complete(c1, sec.restrict(m))))
        hyps.append((f"c1-sufficient[axis2={v}]", is_sufficient(c1, sec.restrict(m))))
    for v in axis1:
        sec = SubmodelRef.section(m, 0, v)
        hyps.append((f"c2-complete[axis1={v}]", is_complete(c2, sec.restrict(m))))
        hyps.append((f"c2-sufficient[axis1={v}]", is_sufficient(c2, sec.restrict(m))))
    conclusion = is_complete(join(c1, c2), m)
    return TheoremReport("two-block-grid", tuple(hyps), conclusion)


def oracle_verify_cks(q: FiniteModel, r: FiniteModel) -> TheoremReport:
    axis1, axis2 = verify.grid_axes(r)
    product = verify.cks_product(q, r)
    hyps: list[tuple[str, CheckReport]] = [
        (
            "first-family-complete",
            is_complete(Partition.discrete(q.num_points), q),
        )
    ]
    for v in axis1:
        sec = SubmodelRef.section(r, 0, v)
        hyps.append(
            (
                f"second-family-complete[axis1={v}]",
                is_complete(Partition.discrete(r.num_points), sec.restrict(r)),
            )
        )
    for v in axis2:
        sec = SubmodelRef.section(r, 1, v)
        hyps.append((f"second-family-homogeneous[axis2={v}]", is_homogeneous(sec.restrict(r))))
    hyps.append(
        ("integrability", CheckReport("integrability", VERDICT_PASS, None, (INTEGRABILITY_NOTE,)))
    )
    conclusion = is_complete(
        Partition.discrete(product.num_points), product
    )
    return TheoremReport("cks", tuple(hyps), conclusion)


@dataclass
class _TwoBlockCandidate:
    model: FiniteModel
    c1: Partition
    c2: Partition

    def report(self) -> TheoremReport:
        return oracle_verify_two_block_grid(self.model, self.c1, self.c2)


@dataclass
class _CksCandidate:
    q: FiniteModel
    r: FiniteModel

    def report(self) -> TheoremReport:
        return oracle_verify_cks(self.q, self.r)


def _coin_pair_model(ps: dict[tuple[str, str], Fraction], axis1, axis2) -> FiniteModel:
    points = ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
    params = tuple((a, b) for a in axis1 for b in axis2)
    rows = []
    for a, b in params:
        p = ps[(a, b)]
        rows.append(((1 - p) * (1 - p), (1 - p) * p, p * (1 - p), p * p))
    return FiniteModel(points, params, tuple(rows))

def _oracle_proper_fractions(grid) -> list[Fraction]:
    return [g for g in grid if 0 < g < 1]

def oracle_gen_two_block_candidate(rng: random.Random, cfg: GenConfig) -> _TwoBlockCandidate:
    pool = _oracle_proper_fractions(cfg.mass_grid)
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

def oracle_gen_cks_candidate(rng: random.Random, cfg: GenConfig) -> _CksCandidate:
    pool = _oracle_proper_fractions(cfg.mass_grid)
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
            if not fn(part, SubmodelRef.section(m, coord, v).restrict(m)).passed:
                return True
    return False


def _cks_quick_reject(cand: _CksCandidate, dropped: str | None) -> bool:
    if dropped != "q-completeness":
        if not is_complete(
            Partition.discrete(cand.q.num_points), cand.q
        ).passed:
            return True
    if dropped != "r-completeness":
        for v in ("0", "1"):
            sec = SubmodelRef.section(cand.r, 0, v)
            if not is_complete(Partition.discrete(cand.r.num_points), sec.restrict(cand.r)).passed:
                return True
    if dropped != "homogeneity":
        for v in ("0", "1"):
            sec = SubmodelRef.section(cand.r, 1, v)
            if not is_homogeneous(sec.restrict(cand.r)).passed:
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
                if oracle_is_violation(smaller.report(), dropped):
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
            if oracle_is_violation(smaller.report(), dropped):
                cand = smaller
                changed = True
                break
    return cand


def oracle_hunt(template, dropped_hypothesis, budget, cfg, *, max_found=1):
    """The hunt loop with its per-template branches."""
    rng = random.Random(cfg.seed)
    found: list[FoundInstance] = []
    for draw in range(budget):
        if template == "two_block_grid":
            cand = oracle_gen_two_block_candidate(rng, cfg)
            if _two_block_quick_reject(cand, dropped_hypothesis):
                continue
            report = cand.report()
            if not oracle_is_violation(report, dropped_hypothesis):
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
            ccand = oracle_gen_cks_candidate(rng, cfg)
            if _cks_quick_reject(ccand, dropped_hypothesis):
                continue
            report = ccand.report()
            if not oracle_is_violation(report, dropped_hypothesis):
                continue
            ccand = _minimize_cks(ccand, dropped_hypothesis)
            report = ccand.report()
            found.append(
                FoundInstance(
                    template,
                    dropped_hypothesis or "",
                    {"Q": ccand.q, "R": ccand.r, "main": verify.cks_product(ccand.q, ccand.r)},
                    {},
                    report,
                    draw + 1,
                )
            )
        else:
            inst = search._gen_joint_candidate(rng, cfg)
            report = oracle_verify_joint_completeness(inst[0], inst[1])
            if not oracle_is_violation(report, dropped_hypothesis):
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


HUNT_GRID = [
    (template, dropped)
    for template, families in ORACLE_DROPPABLE.items()
    for dropped in (None, *families)
]


@pytest.mark.parametrize("template, dropped", HUNT_GRID)
def test_hunt_matches_oracle(template, dropped):
    for seed in range(6):
        cfg = GenConfig(seed=seed)
        assert hunt(template, dropped, 300, cfg) == oracle_hunt(template, dropped, 300, cfg)


def _oracle_two_block_args(rng, cfg):
    cand = oracle_gen_two_block_candidate(rng, cfg)
    return cand.model, cand.c1, cand.c2


def _oracle_cks_args(rng, cfg):
    cand = oracle_gen_cks_candidate(rng, cfg)
    return cand.q, cand.r


# template: (the draw as it was before the rewrite, the oracle report)
_ORACLE_DRAW_AND_VERIFY = {
    "joint_completeness": (search._gen_joint_candidate, oracle_verify_joint_completeness),
    "two_block_grid": (_oracle_two_block_args, oracle_verify_two_block_grid),
    "cks": (_oracle_cks_args, oracle_verify_cks),
}


@pytest.mark.parametrize("template", sorted(ORACLE_DROPPABLE))
def test_draws_and_violation_predicate_match_oracle(template):
    oracle_draw, oracle_verify = _ORACLE_DRAW_AND_VERIFY[template]
    t = search._TEMPLATES[template]
    rng, oracle_rng, cfg = random.Random(17), random.Random(17), GenConfig()
    sample = t.sampler(cfg)
    seen = set()
    for _ in range(300):
        args = sample(rng)
        assert args == oracle_draw(oracle_rng, cfg)
        assert rng.getstate() == oracle_rng.getstate()
        report = oracle_verify(*args)
        for dropped in (None, *ORACLE_DROPPABLE[template]):
            verdict = t.hypotheses(*args).violated(dropped)
            assert verdict == oracle_is_violation(report, dropped)
            seen.add(verdict)
    assert seen == {False, True}


SEVENTHS = tuple(Fraction(i, 7) for i in range(8))


@pytest.mark.parametrize("grid", [search.DEFAULT_MASS_GRID, SEVENTHS], ids=["twelfths", "sevenths"])
@pytest.mark.parametrize("template", sorted(ORACLE_DROPPABLE))
def test_samplers_match_oracle_draws_and_random_stream(template, grid):
    """A sampler is built once per hunt, with its pools and row memo; each
    draw equals the oracle's and leaves the random stream where the
    oracle's leaves it, long after the memo is full."""
    oracle_draw, _ = _ORACLE_DRAW_AND_VERIFY[template]
    cfg = GenConfig(mass_grid=grid)
    sample = search._TEMPLATES[template].sampler(cfg)
    rng, oracle_rng = random.Random(23), random.Random(23)
    for _ in range(600):
        assert sample(rng) == oracle_draw(oracle_rng, cfg)
        assert rng.getstate() == oracle_rng.getstate()
