import functools
import random
from fractions import Fraction
from typing import Sequence

import pytest

import fincomplete as fc
from fincomplete import (
    Exhaustion,
    FiniteModel,
    Partition,
    RationalFunction,
    SubmodelRef,
    coordinate_partitions,
    is_complete,
    is_sufficient,
    join,
    power_model,
    product_model,
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
from fincomplete import verify
from fincomplete.checks import (
    is_ancillary,
    is_complete_sufficient,
    is_homogeneous,
    is_minimal_sufficient,
)
from fincomplete.errors import ExhaustionError, GridError, SizeGuardError, WeightError
from fincomplete.model import flatten_label, truncated_family, weighted_model
from fincomplete.optimal import is_optimal_unbiased
from fincomplete.reports import (
    VERDICT_FAIL,
    VERDICT_PASS,
    CheckReport,
    STATUS_CONCLUSION_FAILS,
    STATUS_HYPOTHESIS_UNMET,
    STATUS_THEOREM_VIOLATED,
    STATUS_VERIFIED,
    TheoremReport,
)
from fincomplete.serialization import theorem_report_to_dict
from fincomplete.verify import (
    INTEGRABILITY,
    _connectedness_report,
    _marginal_support_report,
    _stability_report,
    cks_product,
    grid_axes,
    truncation_exhaustions,
)

from conftest import (
    bernoulli_pair_grid,
    coin,
    coin_family,
    oracle_event_mass,
    random_chain_base,
    uniform_chain,
)
from test_checks import random_case


def product_instance():
    a = coin_family("1/3", "1/2")
    b = coin_family("1/5", "1/4")
    m = product_model(a, b)
    c1, c2 = coordinate_partitions(a, b)
    exh1 = Exhaustion(
        "fix-b",
        tuple((lab, SubmodelRef(tuple(i * 2 + j for i in range(2)))) for j, lab in enumerate(b.params)),
    )
    exh2 = Exhaustion(
        "fix-a",
        tuple((lab, SubmodelRef(tuple(i * 2 + j for j in range(2)))) for i, lab in enumerate(a.params)),
    )
    return m, ((c1, exh1), (c2, exh2))


class TestJointCompleteness:
    def test_single_piece_reduces_to_hypothesis(self):
        m = bernoulli_pair_grid(("0",), ("1/5", "1/4", "1/3"), swap=False)
        sum_p = Partition((0, 1, 1, 2))
        report = verify_joint_completeness(m, [(sum_p, Exhaustion.single(m))])
        assert report.status == STATUS_VERIFIED

    def test_product_of_complete_families(self):
        m, family = product_instance()
        report = verify_joint_completeness(m, family)
        assert report.status == STATUS_VERIFIED
        # conclusion is completeness of the discrete partition here
        assert report.conclusion_result.passed

    def test_interval_truncation_instance(self):
        m0 = uniform_chain(4)
        model, sig = fc.truncated_family(m0, fc.interval_events(4), 2)
        min_p = fc.min_partition(m0, 2)
        max_p = fc.max_partition(m0, 2)
        by_upper: dict[str, list[int]] = {}
        by_lower: dict[str, list[int]] = {}
        events = fc.interval_events(4)
        labels = [fc.model.event_label(m0, e) for e in events]
        bounds = {lab: (min(e), max(e)) for lab, e in zip(labels, events)}
        for i, lab in enumerate(model.params):
            a, b = bounds[lab[1]]
            by_upper.setdefault(str(b), []).append(i)
            by_lower.setdefault(str(a), []).append(i)
        exh_min = Exhaustion(
            "fix-upper", tuple((k, SubmodelRef(tuple(v))) for k, v in sorted(by_upper.items()))
        )
        exh_max = Exhaustion(
            "fix-lower", tuple((k, SubmodelRef(tuple(v))) for k, v in sorted(by_lower.items()))
        )
        report = verify_joint_completeness(model, [(min_p, exh_min), (max_p, exh_max)])
        assert report.status == STATUS_VERIFIED
        assert join(min_p, max_p) == fc.min_max_partition(m0, 2)

    def test_malformed_exhaustion_raises(self):
        m = coin_family("1/3", "1/2")
        bad = Exhaustion("partial", (("only-first", SubmodelRef.of(0)),))
        with pytest.raises(ExhaustionError):
            verify_joint_completeness(m, [(Partition.discrete(2), bad)])

    def test_partition_of_the_wrong_length_is_a_value_error(self):
        m = uniform_chain(3)
        with pytest.raises(ValueError, match="partition has 2 points"):
            verify_joint_completeness(m, [(Partition((0, 1)), Exhaustion.single(m))])


class TestTwoBlockGrid:
    def test_registry_insufficient_join_instance_verifies(self):
        e = fc.load("CE55")
        report = verify_two_block_grid(e.model, e.partitions["C1"], e.partitions["C2"])
        assert report.status == STATUS_VERIFIED
        # the conclusion is completeness only, never sufficiency of the join
        assert report.conclusion_result.property == "complete"
        # and separately, the join is not sufficient
        assert is_sufficient(
            e.partitions["C1"], e.model
        ).failed

    def test_swap_grid_reports_gap(self):
        e = fc.load("CE52")
        report = verify_two_block_grid(e.model, e.partitions["sigmaX1"], e.partitions["sigmaSum"])
        assert report.status == STATUS_CONCLUSION_FAILS
        assert all("c1-sufficient" in lab for lab in report.failed_hypotheses())

    def test_product_model_instance(self):
        a = coin_family("1/3", "1/2")
        b = coin_family("1/5", "1/4")
        m = product_model(a, b)
        c1, c2 = coordinate_partitions(a, b)
        report = verify_two_block_grid(m, c1, c2)
        assert report.status == STATUS_VERIFIED

    def test_non_grid_labels_rejected(self):
        m = coin_family("1/3", "1/2")
        with pytest.raises(GridError):
            verify_two_block_grid(m, Partition.trivial(2), Partition.trivial(2))


class TestCks:
    def test_point_mass_coupling(self):
        e = fc.load("CE53")
        report = verify_cks(e.components["Q"], e.components["R"])
        assert report.status == STATUS_CONCLUSION_FAILS
        assert report.failed_hypotheses() == (
            "second-family-homogeneous[axis2=0]",
            "second-family-homogeneous[axis2=1]",
        )
        # the coupled product construction is the registry's main model
        product = cks_product(e.components["Q"], e.components["R"])
        assert product.prob == e.model.prob

    def test_uncoupled_case_verifies(self):
        # second family does not depend on the first coordinate
        q = coin_family("1/3", "1/2")
        r = FiniteModel(
            ("0", "1"),
            (("1/3", "a"), ("1/3", "b"), ("1/2", "a"), ("1/2", "b")),
            (
                (Fraction(4, 5), Fraction(1, 5)),
                (Fraction(2, 5), Fraction(3, 5)),
                (Fraction(4, 5), Fraction(1, 5)),
                (Fraction(2, 5), Fraction(3, 5)),
            ),
        )
        report = verify_cks(q, r)
        assert report.status == STATUS_VERIFIED

    def test_random_homogeneous_instances_verify(self):
        rng = random.Random(41)
        pool = [Fraction(i, 7) for i in range(1, 7)]
        verified = 0
        for _ in range(40):
            q_ps = rng.sample(pool, 2)
            q = coin_family(*(str(p) for p in q_ps))
            rows = []
            params = []
            ok = True
            for a in ("0", "1"):
                ps = rng.sample(pool, 2)
                for b, p in zip(("0", "1"), ps):
                    params.append((str(q_ps[int(a)]), b))
                    rows.append((1 - p, p))
            r = FiniteModel(("0", "1"), tuple(params), tuple(rows))
            report = verify_cks(q, r)
            if not report.failed_hypotheses():
                assert report.status == STATUS_VERIFIED
                verified += 1
        assert verified > 20

    def test_matched_marginals_gap(self):
        e = fc.load("CE54")
        report = verify_cks(e.components["Q"], e.components["R"])
        assert report.status == STATUS_CONCLUSION_FAILS
        assert all("second-family-complete" in lab for lab in report.failed_hypotheses())
        product = cks_product(e.components["Q"], e.components["R"])
        assert product.prob == e.model.prob


class TestCksRewrite:
    def test_swap_grid_only_ancillarity_fails(self):
        e = fc.load("CE52")
        report = verify_cks_rewrite(e.model, e.partitions["sigmaX1"], e.partitions["sigmaSum"])
        assert report.status == STATUS_CONCLUSION_FAILS
        assert all("c1-ancillary" in lab for lab in report.failed_hypotheses())
        w = report.conclusion_result.witness["function"]
        assert w.values == (0, -1, 1, 0)

    def test_matched_marginals_encoding(self):
        e = fc.load("CE54")
        report = verify_cks_rewrite(e.model, e.partitions["sigmaX1"], e.partitions["sigmaX2"])
        assert report.status == STATUS_CONCLUSION_FAILS
        assert all(
            "c2-complete-sufficient" in lab for lab in report.failed_hypotheses()
        )

    def test_valid_product_instance(self):
        a = coin_family("1/3", "1/2")
        b = coin_family("1/5", "1/4")
        m = product_model(a, b)
        c1, c2 = coordinate_partitions(a, b)
        report = verify_cks_rewrite(m, c1, c2)
        assert report.status == STATUS_VERIFIED


def fraction_marginal_support_report(m: FiniteModel, c: Partition, sub: SubmodelRef) -> CheckReport:
    """Homogeneity of the restricted family: supports of the block-mass
    vectors must agree across the submodel (the engine's former Fraction
    version, kept verbatim with event_mass now oracle_event_mass)."""
    blocks = c.blocks()
    idx = sub.param_indices
    base = tuple(oracle_event_mass(m, idx[0], b) > 0 for b in blocks)
    for j in idx[1:]:
        other = tuple(oracle_event_mass(m, j, b) > 0 for b in blocks)
        if other != base:
            bnum = next(k for k in range(len(blocks)) if base[k] != other[k])
            witness = {
                "block": tuple(m.points[y] for y in blocks[bnum]),
                "params": (m.params[idx[0]], m.params[j]),
            }
            return CheckReport("restricted-homogeneous", VERDICT_FAIL, witness, ())
    return CheckReport("restricted-homogeneous", VERDICT_PASS, None, ())


def test_marginal_support_on_integer_masses_matches_fraction_report():
    rng = random.Random(62)
    for _ in range(1500):
        m, sub, c = random_case(rng)
        assert _marginal_support_report(c, sub.restrict(m)) == fraction_marginal_support_report(m, c, sub)


class TestHomogeneousConnected:
    def grid_family(self, m):
        exh1 = Exhaustion.by_coordinate(m, 1, "fix-axis2")
        exh2 = Exhaustion.by_coordinate(m, 0, "fix-axis1")
        return exh1, exh2

    def test_disconnected_exhaustion_reported(self):
        m = coin_family("1/3", "1/2")
        pieces = (("a", SubmodelRef.of(0)), ("b", SubmodelRef.of(1)))
        exh = Exhaustion("split", pieces)
        report = verify_homogeneous_connected(
            m, [(Partition.discrete(2), exh)], "sufficient"
        )
        failed = dict(report.hypothesis_results)
        assert failed["connected"].failed
        assert failed["connected"].witness["components"] == ("1/3", "1/2")
        assert report.status in (STATUS_HYPOTHESIS_UNMET, STATUS_CONCLUSION_FAILS)

    def test_minimal_mode_on_homogeneous_grid(self):
        # swap grid: the sum partition is minimal sufficient for every
        # section along either axis, and the two section exhaustions
        # together connect the parameter graph
        m = bernoulli_pair_grid(("0", "1"), ("1/5", "1/4"), swap=True)
        exh1, exh2 = self.grid_family(m)
        sum_p = Partition((0, 1, 1, 2))
        for _, piece in exh1.pieces + exh2.pieces:
            assert fc.minimal_sufficient_partition(piece.restrict(m)) == sum_p
        report = verify_homogeneous_connected(
            m, [(sum_p, exh1), (sum_p, exh2)], "minimal"
        )
        assert report.status == STATUS_VERIFIED

    def test_one_axis_exhaustion_is_disconnected(self):
        m = bernoulli_pair_grid(("0", "1"), ("1/5", "1/4"), swap=True)
        _, exh2 = self.grid_family(m)
        sum_p = Partition((0, 1, 1, 2))
        report = verify_homogeneous_connected(m, [(sum_p, exh2)], "minimal")
        assert dict(report.hypothesis_results)["connected"].failed

    def test_complete_mode_on_product_instance(self):
        m, family = product_instance()
        report = verify_homogeneous_connected(m, family, "complete")
        assert report.status == STATUS_VERIFIED

    def test_weak_form_requires_one_piece_only(self):
        m, family = product_instance()
        report = verify_homogeneous_connected(m, family, "sufficient", weak=True)
        assert report.status == STATUS_VERIFIED
        labels = [lab for lab, _ in report.hypothesis_results]
        assert any("some piece" in lab for lab in labels)
        with pytest.raises(ValueError):
            verify_homogeneous_connected(m, family, "complete", weak=True)


class TestTruncationFamily:
    def test_intervals_give_min_max(self):
        m0 = uniform_chain(4)
        report = verify_truncation_family(m0, fc.interval_events(4), 2)
        assert report.status == STATUS_VERIFIED

    def test_uprays_give_min(self):
        m0 = uniform_chain(4)
        report = verify_truncation_family(m0, fc.upray_events(4), 2)
        assert report.status == STATUS_VERIFIED
        model, sig = fc.truncated_family(m0, fc.upray_events(4), 2)
        assert sig == fc.min_partition(m0, 2)
        assert is_complete(sig, model).passed

    def test_unstable_events_reported(self):
        m0 = uniform_chain(3)
        events = [frozenset({0, 1}), frozenset({1, 2})]
        report = verify_truncation_family(m0, events, 1)
        failed = dict(report.hypothesis_results)
        assert failed["events-intersection-stable"].failed
        assert report.status in (STATUS_HYPOTHESIS_UNMET, STATUS_CONCLUSION_FAILS)

    def test_two_base_distributions_are_a_hypothesis_gap(self):
        # the theorem is about one base distribution; with two, the
        # conclusion fails (complete but not sufficient) and must be
        # charged to the base hypothesis, never read as a violation
        m0 = FiniteModel(
            ("0", "1", "2"),
            ("a", "b"),
            ((Fraction(1, 3),) * 3, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))),
        )
        report = verify_truncation_family(m0, fc.interval_events(3), 3)
        assert report.status == STATUS_CONCLUSION_FAILS
        assert report.failed_hypotheses() == ("base-single-distribution",)
        assert report.conclusion_result.notes == ("complete: pass", "sufficient: fail")

    def test_random_bases_never_violate_the_theorem(self):
        rng = random.Random(71)
        kinds = (fc.interval_events, fc.upray_events, fc.downray_events)
        statuses = {1: set(), 2: set()}
        for _ in range(200):
            points, params, n = rng.randint(2, 4), rng.randint(1, 3), rng.randint(1, 3)
            m0 = random_chain_base(rng, points, params)
            report = verify_truncation_family(m0, rng.choice(kinds)(points), n)
            assert report.status != STATUS_THEOREM_VIOLATED
            if params == 1:
                assert report.status == STATUS_VERIFIED
            statuses[min(params, 2)].add(report.status)
        assert statuses[2] >= {STATUS_VERIFIED, STATUS_CONCLUSION_FAILS}


class TestUnknownTruncation:
    def test_coin_family_with_upray_truncation(self):
        m0 = coin_family("1/5", "1/4", "1/3")
        powered = power_model(m0, 2)
        sum_p = Partition((0, 1, 1, 2))
        report = verify_unknown_truncation(m0, sum_p, fc.upray_events(2), 2)
        assert report.status == STATUS_VERIFIED
        assert any("proof route" in n for n in report.conclusion_result.notes)

    def test_full_space_event_reduces_to_hypothesis(self):
        m0 = coin_family("1/5", "1/4", "1/3")
        sum_p = Partition((0, 1, 1, 2))
        report = verify_unknown_truncation(m0, sum_p, [frozenset({0, 1})], 2)
        assert report.status == STATUS_VERIFIED

    def test_single_parameter_with_trivial_partition(self):
        m0 = uniform_chain(3)
        report = verify_unknown_truncation(
            m0, Partition.trivial(9), fc.interval_events(3), 2
        )
        assert report.status == STATUS_VERIFIED


class TestSmith:
    def test_unit_weight_conclusion_equals_hypothesis(self):
        m = bernoulli_pair_grid(("0",), ("1/5", "1/4", "1/3"), swap=False)
        sum_p = Partition((0, 1, 1, 2))
        report = verify_smith(m, sum_p, RationalFunction.constant(1, 4), "b")
        assert report.status == STATUS_VERIFIED

    def test_indicator_weight_truncation_permanence(self):
        m = power_model(coin_family("1/5", "1/4", "1/3"), 2)
        sum_p = Partition((0, 1, 1, 2))
        q = RationalFunction.indicator({0, 1, 2}, 4)  # upray power {min >= 0} minus (1,1)
        report = verify_smith(m, sum_p, q, "b")
        assert report.status == STATUS_VERIFIED

    def test_random_positive_weights(self):
        rng = random.Random(42)
        m = power_model(coin_family("1/5", "1/4", "1/3"), 2)
        sum_p = Partition((0, 1, 1, 2))
        for _ in range(20):
            q = RationalFunction(tuple(Fraction(rng.randint(1, 9)) for _ in range(4)))
            for mode in ("a", "b"):
                report = verify_smith(m, sum_p, q, mode)
                assert report.status == STATUS_VERIFIED

    def test_mode_a_checks_only_sufficiency(self):
        m = power_model(coin_family("1/5", "1/4", "1/3"), 2)
        report = verify_smith(m, Partition.discrete(4), RationalFunction.constant(1, 4), "a")
        assert report.status == STATUS_VERIFIED
        labels = [lab for lab, _ in report.hypothesis_results]
        assert "complete-for-base" not in labels


class TestBondesson:
    def test_constant_estimator(self):
        m = bernoulli_pair_grid(("0", "1"), ("1/5", "1/4"))
        exh = Exhaustion.by_coordinate(m, 0)
        report = verify_bondesson(m, exh, RationalFunction.constant(3, 4))
        assert report.status == STATUS_VERIFIED

    def test_sum_measurable_estimator_on_swap_grid(self):
        e = fc.load("CE52")
        m = e.model
        exh = Exhaustion.by_coordinate(m, 0)
        g = RationalFunction(("0", "1/2", "1/2", "1"))
        report = verify_bondesson(m, exh, g)
        assert report.status == STATUS_VERIFIED

    def test_failing_piece_is_reported(self):
        e = fc.load("CE52")
        m = e.model
        exh = Exhaustion.by_coordinate(m, 0)
        report = verify_bondesson(m, exh, e.functions["x1-x2"])
        assert report.failed_hypotheses()
        assert report.status != STATUS_THEOREM_VIOLATED


class TestTruncationExhaustions:
    def test_pieces_cover_and_group_correctly(self):
        m0 = coin_family("1/5", "1/4")
        model, _ = fc.truncated_family(m0, fc.upray_events(2), 2)
        by_event, by_param = truncation_exhaustions(m0, model)
        by_event.validate(model)
        by_param.validate(model)
        assert len(by_param.pieces) == 2


def _random_rows(rng, points, params):
    return random_chain_base(rng, points, params).prob


def _random_grid_model(rng):
    """A model on a full product grid of 2-tuple parameters: either the
    product of two random families or random rows on the grid."""
    na, nb = rng.randint(1, 3), rng.randint(1, 3)
    if rng.random() < 0.5:
        a = FiniteModel(("0", "1"), tuple(str(i) for i in range(na)), _random_rows(rng, 2, na))
        b = FiniteModel(("0", "1"), tuple(str(j) for j in range(nb)), _random_rows(rng, 2, nb))
        return product_model(a, b), list(coordinate_partitions(a, b))
    points = rng.randint(2, 5)
    params = tuple((str(i), str(j)) for i in range(na) for j in range(nb))
    return FiniteModel(tuple(str(x) for x in range(points)), params, _random_rows(rng, points, na * nb)), []


def _random_partition(rng, m, extra):
    """A structured partition of the model's points (trivial, discrete,
    minimal sufficient, optimal, or one of ``extra``) or random labels."""
    choices = [
        Partition.trivial(m.num_points),
        Partition.discrete(m.num_points),
        fc.minimal_sufficient_partition(m),
        fc.optimal_sigma_algebra(m),
        Partition(tuple(rng.randrange(3) for _ in range(m.num_points))),
        *extra,
    ]
    return rng.choice(choices)


def _random_exhaustion(rng, m, coord):
    return Exhaustion.by_coordinate(m, coord) if rng.random() < 0.8 else Exhaustion.single(m)


def _weight(rng, m):
    """A nonnegative weight that gives the first member positive mass, so it
    never annihilates the model."""
    values = [Fraction(rng.choice((0, 1, 1, 2, 3))) for _ in range(m.num_points)]
    if not any(v for v, p in zip(values, m.prob[0]) if p):
        values = [Fraction(1)] * m.num_points
    return RationalFunction(tuple(values))


def _verifier_inputs(rng):
    """``(name, args, kwargs)`` for one call of each of the nine verifiers,
    every mode and the weak form, on seeded random valid inputs;
    ``verify_<name>`` and ``<name>_hypotheses`` take the arguments."""
    m, coords = _random_grid_model(rng)
    c1, c2 = (_random_partition(rng, m, coords) for _ in range(2))
    family = [(c1, _random_exhaustion(rng, m, 1)), (c2, _random_exhaustion(rng, m, 0))]
    yield "joint_completeness", (m, family if rng.random() < 0.8 else family[:1]), {}
    yield "two_block_grid", (m, c1, c2), {}
    yield "cks_rewrite", (m, c1, c2), {}
    for mode in ("sufficient", "minimal", "complete"):
        yield "homogeneous_connected", (m, family, mode), {}
    yield "homogeneous_connected", (m, family, "sufficient"), {"weak": True}
    for mode in ("a", "b"):
        yield "smith", (m, c1, _weight(rng, m), mode), {}
    g = RationalFunction(tuple(Fraction(rng.randint(-2, 2)) for _ in range(m.num_points)))
    if rng.random() < 0.5:
        # constant on the optimal atoms, so often optimal in every piece
        part = fc.optimal_sigma_algebra(m)
        g = RationalFunction(tuple(g.values[part.blocks()[b][0]] for b in part.block_id))
    yield "bondesson", (m, family[0][1], g), {}
    na = len({flatten_label(lab)[0] for lab in m.params})
    q = FiniteModel(("0", "1"), tuple(str(i) for i in range(na)), _random_rows(rng, 2, na))
    r = FiniteModel(("0", "1"), m.params, _random_rows(rng, 2, m.num_params))
    yield "cks", (q, r), {}
    points, n = rng.randint(2, 4), rng.randint(1, 2)
    m0 = random_chain_base(rng, points, rng.randint(1, 3))
    events = rng.choice((fc.interval_events, fc.upray_events, fc.downray_events))(points)
    yield "truncation_family", (m0, events, n), {}
    powered = power_model(m0, n)
    c = rng.choice(
        (
            Partition.trivial(powered.num_points),
            fc.min_partition(m0, n),
            fc.max_partition(m0, n),
            fc.min_max_partition(m0, n),
            fc.optimal_sigma_algebra(powered),
            Partition(tuple(rng.randrange(3) for _ in range(powered.num_points))),
        )
    )
    yield "unknown_truncation", (m0, c, events, n), {}


def _memoized(h: verify.Hypotheses) -> verify.Hypotheses:
    """The same declaration with each check run at most once, so that
    ``report`` and ``violated`` can share the work."""
    entries = tuple((f, label, functools.cache(check)) for f, label, check in h.entries)
    return verify.Hypotheses(h.theorem, h.families, entries, functools.cache(h.conclusion))


def test_no_verifier_reports_theorem_violated_on_random_valid_inputs():
    # theorem-violated would claim that a proved theorem is false
    rng = random.Random(97)
    statuses: dict[str, set[str]] = {}
    for _ in range(600):
        for name, args, kwargs in _verifier_inputs(rng):
            h = _memoized(getattr(verify, f"{name}_hypotheses")(*args, **kwargs))
            report = h.report()
            assert report.status != STATUS_THEOREM_VIOLATED, report
            assert not h.violated(None), report
            statuses.setdefault(report.theorem, set()).add(report.status)
    # nine verifiers; hom-connected and smith name their modes
    assert len(statuses) == 12
    assert all(STATUS_VERIFIED in s for s in statuses.values())


def test_every_verifier_is_the_report_of_its_declaration():
    names = {n.removeprefix("verify_") for n in dir(verify) if n.startswith("verify_")}
    inputs = {name: (args, kwargs) for name, args, kwargs in _verifier_inputs(random.Random(5))}
    assert names == set(inputs)
    for name, (args, kwargs) in inputs.items():
        declared = getattr(verify, f"{name}_hypotheses")(*args, **kwargs)
        assert isinstance(declared, verify.Hypotheses)
        assert getattr(verify, f"verify_{name}")(*args, **kwargs) == declared.report()


# --- oracles: the six verifiers that built their reports eagerly, kept
# verbatim (except for the argument order of _marginal_support_report) as
# the references for their declarations ---


def oracle_verify_cks_rewrite(m: FiniteModel, c1: Partition, c2: Partition) -> TheoremReport:
    axis1, axis2 = grid_axes(m)
    hyps: list[tuple[str, CheckReport]] = []
    for v in axis2:
        sec = SubmodelRef.section(m, 1, v)
        hyps.append((f"c1-complete[axis2={v}]", is_complete(c1, sec.restrict(m))))
    for v in axis1:
        sec = SubmodelRef.section(m, 0, v)
        hyps.append((f"c1-ancillary[axis1={v}]", is_ancillary(c1, sec.restrict(m))))
        hyps.append(
            (
                f"c2-complete-sufficient[axis1={v}]",
                is_complete_sufficient(c2, sec.restrict(m)),
            )
        )
    for v in axis2:
        sec = SubmodelRef.section(m, 1, v)
        hyps.append(
            (f"c2-marginal-homogeneous[axis2={v}]", _marginal_support_report(c2, sec.restrict(m)))
        )
    hyps.append(("integrability", INTEGRABILITY))
    conclusion = is_complete(join(c1, c2), m)
    return TheoremReport("cks-rewrite", tuple(hyps), conclusion)


def oracle_verify_homogeneous_connected(
    m: FiniteModel,
    family: Sequence[tuple[Partition, Exhaustion]],
    mode: str,
    *,
    weak: bool = False,
) -> TheoremReport:
    checks = {"sufficient": is_sufficient, "minimal": is_minimal_sufficient, "complete": is_complete_sufficient}
    if mode not in checks:
        raise ValueError(f"unknown mode {mode!r}")
    if weak and (mode != "sufficient" or len(family) != 2):
        raise ValueError("weak form applies to mode='sufficient' with two partitions")
    check = checks[mode]
    hyps: list[tuple[str, CheckReport]] = [
        ("homogeneous", is_homogeneous(m)),
        ("connected", _connectedness_report(m, family)),
    ]
    joined: Partition | None = None
    for i, (part, exh) in enumerate(family):
        exh.validate(m)
        joined = part if joined is None else join(joined, part)
        if weak and i == 1:
            results = [(eta, check(part, piece.restrict(m))) for eta, piece in exh.pieces]
            passing = [eta for eta, r in results if r.passed]
            verdict = VERDICT_PASS if passing else VERDICT_FAIL
            notes = tuple(f"piece {eta}: {r.verdict}" for eta, r in results)
            hyps.append(
                (
                    f"C{i + 1} {mode}[some piece]",
                    CheckReport(f"{mode}-somewhere", verdict, None, notes),
                )
            )
            continue
        for eta, piece in exh.pieces:
            hyps.append((f"C{i + 1} {mode}[{exh.label}={eta}]", check(part, piece.restrict(m))))
    if joined is None:
        raise ExhaustionError("family must contain at least one partition")
    conclusion = check(joined, m)
    return TheoremReport(f"homogeneous-connected[{mode}]", tuple(hyps), conclusion)


def oracle_verify_truncation_family(m0: FiniteModel, events, n: int) -> TheoremReport:
    hyps = [
        ("events-intersection-stable", _stability_report(m0, events)),
        (
            "base-single-distribution",
            is_complete_sufficient(Partition.trivial(m0.num_points), m0),
        ),
    ]
    model, sig = truncated_family(m0, events, n, require_stable=False)
    conclusion = is_complete_sufficient(sig, model)
    return TheoremReport("truncation-family", tuple(hyps), conclusion)


def oracle_verify_unknown_truncation(
    m0: FiniteModel, c: Partition, events, n: int
) -> TheoremReport:
    powered = power_model(m0, n)
    hyps = [
        ("events-intersection-stable", _stability_report(m0, events)),
        ("base-complete-sufficient", is_complete_sufficient(c, powered)),
    ]
    model, sig = truncated_family(m0, events, n, require_stable=False)
    conclusion = is_complete_sufficient(join(c, sig), model)
    by_event, by_param = truncation_exhaustions(m0, model)
    route = verify_joint_completeness(model, [(c, by_event), (sig, by_param)])
    conclusion = conclusion.with_notes(
        f"joint-completeness proof route status: {route.status}"
    )
    return TheoremReport("unknown-truncation", tuple(hyps), conclusion)


def oracle_verify_smith(
    m: FiniteModel, c: Partition, q: RationalFunction, mode: str = "b"
) -> TheoremReport:
    if mode not in ("a", "b"):
        raise ValueError(f"unknown mode {mode!r}")
    hyps: list[tuple[str, CheckReport]] = [("sufficient-for-base", is_sufficient(c, m))]
    if mode == "b":
        hyps.append(("complete-for-base", is_complete(c, m)))
    weighted = weighted_model(m, q)
    if mode == "a":
        conclusion = is_sufficient(c, weighted)
    else:
        conclusion = is_complete_sufficient(c, weighted)
    return TheoremReport(f"smith-weighting[{mode}]", tuple(hyps), conclusion)


def oracle_verify_bondesson(
    m: FiniteModel, exhaustion: Exhaustion, g: RationalFunction
) -> TheoremReport:
    exhaustion.validate(m)
    hyps = [
        (f"optimal[{exhaustion.label}={eta}]", is_optimal_unbiased(g, piece.restrict(m)))
        for eta, piece in exhaustion.pieces
    ]
    conclusion = is_optimal_unbiased(g, m)
    return TheoremReport("bondesson", tuple(hyps), conclusion)


ORACLES = {
    "cks_rewrite": oracle_verify_cks_rewrite,
    "homogeneous_connected": oracle_verify_homogeneous_connected,
    "truncation_family": oracle_verify_truncation_family,
    "unknown_truncation": oracle_verify_unknown_truncation,
    "smith": oracle_verify_smith,
    "bondesson": oracle_verify_bondesson,
}


def test_declared_verifiers_match_the_eager_oracles():
    rng = random.Random(98)
    for _ in range(150):
        for name, args, kwargs in _verifier_inputs(rng):
            if name in ORACLES:
                report = getattr(verify, f"verify_{name}")(*args, **kwargs)
                expected = ORACLES[name](*args, **kwargs)
                assert theorem_report_to_dict(report) == theorem_report_to_dict(expected)


_coins = coin_family("1/3", "1/2")
_chain = uniform_chain(4)
_partial = Exhaustion("partial", (("only-first", SubmodelRef.of(0)),))
_whole = [(Partition.discrete(2), Exhaustion.single(_coins))]


@pytest.mark.parametrize(
    "name, args, kwargs, error",
    [
        ("cks_rewrite", (_coins, Partition.trivial(2), Partition.trivial(2)), {}, GridError),
        ("homogeneous_connected", (_coins, [(Partition.discrete(2), _partial)], "sufficient"), {}, ExhaustionError),
        ("homogeneous_connected", (_coins, [], "sufficient"), {}, ExhaustionError),
        ("bondesson", (_coins, _partial, RationalFunction.constant(1, 2)), {}, ExhaustionError),
        ("homogeneous_connected", (_coins, _whole, "bogus"), {}, ValueError),
        ("smith", (_coins, Partition.discrete(2), RationalFunction.constant(1, 2), "c"), {}, ValueError),
        ("homogeneous_connected", (_coins, _whole * 2, "complete"), {"weak": True}, ValueError),
        ("homogeneous_connected", (_coins, _whole, "sufficient"), {"weak": True}, ValueError),
        ("truncation_family", (_chain, fc.interval_events(4), 0), {}, ValueError),
        ("unknown_truncation", (_chain, Partition.trivial(4), fc.interval_events(4), 0), {}, ValueError),
        ("truncation_family", (_chain, fc.interval_events(4), 40), {}, SizeGuardError),
        ("unknown_truncation", (_chain, Partition.trivial(4), fc.interval_events(4), 40), {}, SizeGuardError),
        ("smith", (_coins, Partition.discrete(2), RationalFunction.constant(0, 2), "a"), {}, WeightError),
    ],
    ids=[
        "wrong-grid", "non-covering-exhaustion", "empty-family", "bondesson-non-covering", "bad-mode",
        "smith-bad-mode", "weak-complete", "weak-one-partition", "truncation-n0", "unknown-n0",
        "truncation-size-guard", "unknown-size-guard", "annihilating-weight",
    ],
)
def test_declarations_raise_the_eager_preconditions(name, args, kwargs, error):
    # raised while the declaration is built, before any check runs
    with pytest.raises(error) as expected:
        ORACLES[name](*args, **kwargs)
    for call in (getattr(verify, f"{name}_hypotheses"), getattr(verify, f"verify_{name}")):
        with pytest.raises(type(expected.value)) as raised:
            call(*args, **kwargs)
        assert str(raised.value) == str(expected.value)
