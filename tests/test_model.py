import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fincomplete as fc
from fincomplete import checks, optimal, verify
from fincomplete import (
    FiniteModel,
    Partition,
    RationalFunction,
    SubmodelRef,
    conditional_expectation,
    join,
    meet,
    partition_from_statistic,
    product_model,
    power_model,
    support_union,
    truncated_family,
    validate_model,
    weighted_model,
)
from fincomplete.errors import InputError, SizeGuardError, StabilityError, WeightError
from fincomplete.model import (
    check_intersection_stable,
    combine_labels,
    event_label,
    power_tuples,
    resolve_size_guard,
)

from conftest import (
    all_partitions,
    coin,
    coin_family,
    oracle_event_mass,
    random_chain_base,
    uniform_chain,
)
from test_checks import random_case


class TestValidateModel:
    def test_degenerate_minimal_model(self):
        m = FiniteModel(("a",), ("t",), ((Fraction(1),),))
        assert validate_model(m).passed

    def test_row_sum_violation_is_located(self):
        m = FiniteModel(("a", "b"), ("t",), ((Fraction(1, 2), Fraction(1, 3)),))
        rep = validate_model(m)
        assert rep.failed
        assert rep.notes == ("row sum != 1 at param 0",)
        assert rep.witness == {"param": "t"}

    def test_registry_insufficient_join_model_is_valid(self):
        assert validate_model(fc.load("CE55").model).passed

    def test_negative_mass_and_duplicate_labels(self):
        m = FiniteModel(("a", "b"), ("t",), ((Fraction(3, 2), Fraction(-1, 2)),))
        assert "negative mass" in validate_model(m).notes[0]
        assert validate_model(m).witness == {"param": "t", "point": "b"}
        m = FiniteModel(("a", "a"), ("t",), ((Fraction(1, 2), Fraction(1, 2)),))
        assert "point labels" in validate_model(m).notes[0]
        assert validate_model(m).witness == {"point": "a"}

    def test_agrees_with_fraction_oracle(self):
        rng = random.Random(11)
        kinds = ("valid", "negative", "zero-row", "off-by-lcm", "short-row", "points", "params", "tuple-params")
        for kind in kinds * 60:
            m = _random_validation_case(rng, kind)
            got, want = validate_model(m), oracle_validate_model(m)
            assert (got.verdict, got.witness, got.notes) == (want.verdict, want.witness, want.notes), kind


def oracle_validate_model(m: FiniteModel) -> fc.CheckReport:
    """``validate_model`` as it was, with signs and row sums in ``Fraction``
    arithmetic: the oracle for the integer version."""
    prop = "valid-model"
    if m.num_points < 1:
        return fc.CheckReport(prop, "fail", {"points": 0}, ("no points",))
    if m.num_params < 1:
        return fc.CheckReport(prop, "fail", {"params": 0}, ("no parameters",))
    for kind, key, labels in (("point", "point", m.points), ("parameter", "param", m.params)):
        if len(set(labels)) != len(labels):
            repeated = next(lab for x, lab in enumerate(labels) if lab in labels[:x])
            return fc.CheckReport(prop, "fail", {key: repeated}, (f"{kind} labels not distinct",))
    for i, row in enumerate(m.prob):
        at = {"param": m.params[i]}
        if len(row) != m.num_points:
            return fc.CheckReport(prop, "fail", at, (f"row length mismatch at param {i}",))
        for x, p in enumerate(row):
            if p < 0:
                at["point"] = m.points[x]
                return fc.CheckReport(prop, "fail", at, (f"negative mass at param {i}, point {x}",))
        if sum(row) != 1:
            return fc.CheckReport(prop, "fail", at, (f"row sum != 1 at param {i}",))
    return fc.CheckReport(prop, "pass", None, ())


def _random_validation_case(rng: random.Random, kind: str) -> FiniteModel:
    """A seeded model with rows summing to one, then broken in one way:
    one or two negative masses, a zero row, one mass off by 1/lcm of the row's
    denominators, a short row, or a repeated point, parameter or
    parameter-tuple label."""
    n, k = rng.randint(1, 6), rng.randint(1, 4)
    rows = []
    for _ in range(k):
        weights = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(n)]
        if not any(weights):
            weights[rng.randrange(n)] = 1
        rows.append([Fraction(w, sum(weights)) for w in weights])
    points = [f"x{j}" for j in range(n)]
    params = [(f"a{i % 2}", f"b{i}") if kind == "tuple-params" else f"t{i}" for i in range(k)]
    row = rows[rng.randrange(k)]
    x = rng.randrange(n)
    if kind == "negative":
        for y in rng.sample(range(n), min(n, rng.choice((1, 2)))):
            row[y] = -Fraction(1, rng.choice((1, 2, 7)))
        row[x] += 1 - sum(row)  # the sum is one again
    elif kind == "zero-row":
        row[:] = [Fraction(0)] * n
    elif kind == "off-by-lcm":
        row[x] += rng.choice((1, -1)) * Fraction(1, math.lcm(*(p.denominator for p in row)))
    elif kind == "short-row":
        row.pop()
    elif kind == "points" and n > 1:
        points[x] = points[rng.choice([j for j in range(n) if j != x])]
    elif kind in ("params", "tuple-params") and k > 1:
        i = rng.randrange(1, k)
        params[i] = params[rng.randrange(i)]
    return FiniteModel(tuple(points), tuple(params), tuple(tuple(r) for r in rows))


class TestSupportUnion:
    def test_point_mass_pair(self):
        m = fc.load("CE55").model
        su = support_union(SubmodelRef.of(1, 2).restrict(m))
        assert {m.points[x] for x in su} == {"3"}

    def test_full_support(self):
        m = coin_family("1/3", "1/2")
        assert support_union(m) == frozenset({0, 1})

    def test_single_param_mass_on_middle_point(self):
        m = FiniteModel(("a", "b", "c"), ("t",), ((0, 1, 0),))
        assert support_union(m) == frozenset({1})


class TestPartitions:
    def test_min_max_statistic_on_two_point_square(self):
        labels = [(min(x), max(x)) for x in ((1, 1), (1, 2), (2, 1), (2, 2))]
        part = partition_from_statistic(labels)
        assert part.block_id == (0, 1, 1, 2)

    def test_constant_statistic_gives_trivial(self):
        assert partition_from_statistic(["c"] * 4) == Partition.trivial(4)

    def test_sum_statistic_on_coin_pair(self):
        part = partition_from_statistic([0, 1, 1, 2])
        assert part.num_blocks == 3

    def test_join_with_trivial_is_identity(self):
        p = Partition((0, 1, 0, 2))
        assert join(p, Partition.trivial(4)) == p

    def test_join_of_coordinate_and_sum_is_discrete(self):
        x1 = Partition((0, 0, 1, 1))
        sum_p = Partition((0, 1, 1, 2))
        assert join(x1, sum_p) == Partition.discrete(4)

    def test_join_idempotent_on_registry_partition(self):
        c1 = fc.load("CE55").partitions["C1"]
        assert join(c1, c1) == c1

    def test_meet_with_discrete_is_identity(self):
        p = Partition((0, 1, 0, 2))
        assert meet(p, Partition.discrete(4)) == p

    def test_meet_of_refinement_pair(self):
        fine = Partition((0, 1, 2))
        coarse = Partition((0, 0, 1))
        assert meet(fine, coarse) == coarse

    def test_meet_closure_chases_chain(self):
        p = Partition((0, 0, 1, 1))
        q = Partition((0, 1, 1, 2))
        assert meet(p, q) == Partition.trivial(4)

    def test_canonical_form_from_arbitrary_ids(self):
        assert Partition((5, 5, 2)).block_id == (0, 0, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_lattice_laws_exhaustive(self, n):
        parts = list(all_partitions(n))
        for p in parts:
            for q in parts:
                j = join(p, q)
                w = meet(p, q)
                assert j.refines(p) and j.refines(q)
                assert p.refines(w) and q.refines(w)
                # absorption
                assert join(p, w) == p
                assert meet(p, j) == p
        # commutativity and idempotence spot checks on the same universe
        for p in parts[: min(len(parts), 10)]:
            for q in parts[: min(len(parts), 10)]:
                assert join(p, q) == join(q, p)
                assert meet(p, q) == meet(q, p)
                assert join(p, p) == p and meet(p, p) == p


class TestConditionalExpectation:
    def setup_method(self):
        self.m = fc.load("CE55").model
        self.c1 = fc.load("CE55").partitions["C1"]

    def test_discrete_partition_returns_h_on_support(self):
        m = coin_family("1/3")
        h = RationalFunction(("5", "7"))
        out = conditional_expectation(h, Partition.discrete(2), m, 0)
        assert out.values == (Fraction(5), Fraction(7))

    def test_trivial_partition_gives_mean(self):
        m = coin_family("1/3")
        h = RationalFunction(("0", "1"))
        out = conditional_expectation(h, Partition.trivial(2), m, 0)
        assert out.values == (Fraction(1, 3), Fraction(1, 3))

    def test_block_averages_match_hand_computation(self):
        h = RationalFunction(("1", "2", "3"))
        out = conditional_expectation(h, self.c1, self.m, 3)
        assert out.values == (Fraction(5, 3), Fraction(5, 3), Fraction(3))

    def test_zero_mass_block_convention(self):
        # param (1,2) puts no mass on block {1,2}
        h = RationalFunction(("1", "2", "3"))
        out = conditional_expectation(h, self.c1, self.m, 1)
        assert out.values == (Fraction(0), Fraction(0), Fraction(3))

    def test_projection_idempotent_and_tower(self):
        rng = random.Random(3)
        m = self.m
        for _ in range(25):
            h = RationalFunction(tuple(Fraction(rng.randint(-4, 4)) for _ in range(3)))
            for theta in range(m.num_params):
                for c in (self.c1, Partition.discrete(3), Partition.trivial(3)):
                    once = conditional_expectation(h, c, m, theta)
                    twice = conditional_expectation(once, c, m, theta)
                    assert once == twice
                    via_c = conditional_expectation(once, Partition.trivial(3), m, theta)
                    direct = conditional_expectation(h, Partition.trivial(3), m, theta)
                    assert via_c == direct

    def test_mean_preservation(self):
        rng = random.Random(4)
        m = self.m
        for _ in range(25):
            h = RationalFunction(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)))
            for theta in range(m.num_params):
                out = conditional_expectation(h, self.c1, m, theta)
                assert m.expectation(theta, out.values) == m.expectation(theta, h.values)

    def test_isotonicity_with_strictness(self):
        # h <= g pointwise on the support, strict somewhere in a
        # positive-mass block, forces strict inequality of block averages.
        rng = random.Random(5)
        m = self.m
        for _ in range(40):
            h_vals = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            bumps = [Fraction(rng.randint(0, 2)) for _ in range(3)]
            g_vals = [a + b for a, b in zip(h_vals, bumps)]
            g = RationalFunction(tuple(g_vals))
            h = RationalFunction(tuple(h_vals))
            for theta in range(m.num_params):
                ch = conditional_expectation(h, self.c1, m, theta)
                cg = conditional_expectation(g, self.c1, m, theta)
                for block in self.c1.blocks():
                    mass = oracle_event_mass(m, theta, block)
                    if mass == 0:
                        continue
                    x0 = block[0]
                    assert ch.values[x0] <= cg.values[x0]
                    if any(
                        bumps[x] > 0 and m.prob[theta][x] > 0 for x in block
                    ):
                        assert ch.values[x0] < cg.values[x0]


def fraction_conditional_expectation(
    h: RationalFunction, c: Partition, m: FiniteModel, theta: int
) -> RationalFunction:
    """The engine's former conditional expectation, which summed block
    masses as Fractions, kept verbatim (event_mass is now
    oracle_event_mass) as the reference for the integer row."""
    values = [Fraction(0)] * m.num_points
    for block in c.blocks():
        mass = oracle_event_mass(m, theta, block)
        if mass > 0:
            avg = sum((h.values[x] * m.prob[theta][x] for x in block), Fraction(0)) / mass
            for x in block:
                values[x] = avg
    return RationalFunction(tuple(values))


def test_conditional_expectation_on_integer_rows_matches_fraction_sums():
    rng = random.Random(63)
    for _ in range(1000):
        m, _, c = random_case(rng)
        h = RationalFunction(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m.num_points)))
        theta = rng.randrange(m.num_params)
        assert conditional_expectation(h, c, m, theta) == fraction_conditional_expectation(h, c, m, theta)


class TestProductAndPower:
    def test_fair_coin_product_uniform(self):
        m = product_model(coin("1/2"), coin("1/2"))
        assert m.prob[0] == (Fraction(1, 4),) * 4

    def test_param_cardinality_multiplies(self):
        a = coin_family("1/3", "1/2")
        b = coin_family("1/5", "1/4", "1/3")
        assert product_model(a, b).num_params == 6

    def test_product_rows_sum_to_one(self):
        a = coin_family("1/3", "1/2")
        b = uniform_chain(3)
        m = product_model(a, b)
        for row in m.prob:
            assert sum(row) == 1

    def test_power_one_is_isomorphic(self):
        a = coin_family("1/3")
        m = power_model(a, 1)
        assert m.prob == a.prob and m.num_points == 2

    def test_bernoulli_square_masses(self):
        m = power_model(coin("1/3"), 2)
        assert m.prob[0] == (
            Fraction(4, 9),
            Fraction(2, 9),
            Fraction(2, 9),
            Fraction(1, 9),
        )

    def test_uniform_power_sixteen_points(self):
        m = power_model(uniform_chain(4), 2)
        assert m.num_points == 16
        assert set(m.prob[0]) == {Fraction(1, 16)}

    def test_power_guard(self, monkeypatch):
        monkeypatch.setenv("FINCOMPLETE_SIZE_GUARD", "50")
        with pytest.raises(SizeGuardError):
            power_model(uniform_chain(10), 2)

    def test_params_are_not_powered(self):
        a = coin_family("1/3", "1/2")
        assert power_model(a, 3).params == a.params


class TestWeightedModel:
    def test_unit_weight_is_identity(self):
        m = coin_family("1/3", "1/2")
        w = weighted_model(m, RationalFunction.constant(1, 2))
        assert w == m

    def test_indicator_weight_is_conditioning(self):
        m = uniform_chain(4)
        w = weighted_model(m, RationalFunction.indicator({1, 2}, 4))
        assert w.prob[0] == (0, Fraction(1, 2), Fraction(1, 2), 0)

    def test_param_dropping(self):
        m = FiniteModel(
            ("a", "b"),
            ("t0", "t1"),
            ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(0))),
        )
        w = weighted_model(m, RationalFunction(("0", "1")))
        assert w.params == ("t0",)
        assert w.prob == ((Fraction(0), Fraction(1)),)

    def test_annihilating_weight_raises(self):
        m = coin_family("0")  # point mass at 0
        with pytest.raises(WeightError):
            weighted_model(m, RationalFunction(("0", "1")))

    def test_weight_composition(self):
        rng = random.Random(11)
        m = coin_family("1/3", "1/2", "1")
        for _ in range(20):
            q1 = RationalFunction(tuple(Fraction(rng.randint(0, 3)) for _ in range(2)))
            q2 = RationalFunction(tuple(Fraction(rng.randint(0, 3)) for _ in range(2)))
            both = RationalFunction(tuple(a * b for a, b in zip(q1.values, q2.values)))
            try:
                lhs = weighted_model(weighted_model(m, q1), q2)
                rhs = weighted_model(m, both)
            except WeightError:
                continue
            # same surviving rows (labels may come from different bases)
            assert lhs.prob == tuple(
                rhs.prob[rhs.params.index(p)] for p in lhs.params
            )


# --- oracles: the engine's former power model, which multiplied each
# point's coordinates afresh, and its former truncated family, which tested
# each power point's membership once per (parameter, event) pair and again
# for the signatures; kept verbatim as the references ---


def oracle_power_model(a: FiniteModel, n: int) -> FiniteModel:
    """The i.i.d. n-fold power: same parameters, product masses on n-tuples."""
    if n < 1:
        raise ValueError("power requires n >= 1")
    guard = resolve_size_guard()
    if a.num_points**n > guard:
        raise SizeGuardError(f"{a.num_points}^{n} points exceeds the guard of {guard}")
    tuples = list(itertools.product(range(a.num_points), repeat=n))
    points = tuple("(" + ",".join(a.points[i] for i in t) + ")" for t in tuples)
    prob = []
    for row in a.prob:
        out = []
        for t in tuples:
            p = Fraction(1)
            for i in t:
                p *= row[i]
            out.append(p)
        prob.append(tuple(out))
    return FiniteModel(points, a.params, tuple(prob))


def oracle_truncated_family(
    m0: FiniteModel,
    events,
    n: int,
    *,
    require_stable: bool = True,
) -> tuple[FiniteModel, Partition]:
    """The family of event-conditioned i.i.d. powers, with the
    sigma-algebra the event powers generate.

    For every parameter P of the base model and every event E with
    P(E) > 0, the result contains the n-fold power of P conditioned on E,
    labeled (P, E).  The returned partition is generated by the sets E^n,
    i.e. points of the power space share a block exactly when they lie in
    the same events' powers.
    """
    evs = [frozenset(e) for e in events]
    if require_stable:
        bad = check_intersection_stable(evs)
        if bad is not None:
            i, j = bad
            raise StabilityError(
                f"events not intersection-stable: {event_label(m0, evs[i])} and "
                f"{event_label(m0, evs[j])}"
            )
    powered = oracle_power_model(m0, n)
    tuples = power_tuples(m0, n)
    params = []
    rows = []
    for i, base_row in enumerate(m0.prob):
        for e in evs:
            emass = oracle_event_mass(m0, i, e)
            if emass == 0:
                continue
            scale = emass**n
            row = []
            for t, p in zip(tuples, powered.prob[i]):
                row.append(p / scale if all(x in e for x in t) else Fraction(0))
            params.append(combine_labels(m0.params[i], event_label(m0, e)))
            rows.append(tuple(row))
    if not rows:
        raise WeightError("no event has positive mass under any parameter")
    model = FiniteModel(powered.points, tuple(params), tuple(rows))
    signatures = [tuple(all(x in e for x in t) for e in evs) for t in tuples]
    return model, partition_from_statistic(signatures)


class TestTruncatedFamily:
    def test_full_space_event_reduces_to_power(self):
        m0 = coin_family("1/3", "1/2")
        model, part = truncated_family(m0, [frozenset({0, 1})], 2)
        assert model.prob == power_model(m0, 2).prob
        assert part == Partition.trivial(4)

    def test_intervals_of_four_chain(self):
        m0 = uniform_chain(4)
        events = fc.interval_events(4)
        model, part = truncated_family(m0, events, 2)
        assert model.num_params == 10  # intervals of a 4-chain
        assert part == fc.min_max_partition(m0, 2)
        for row in model.prob:
            assert sum(row) == 1

    def test_conditioning_on_shared_point(self):
        e = fc.load("CE55")
        model, _ = truncated_family(e.model, [frozenset({2})], 1)
        # every parameter gives point 3 positive mass, so all four survive
        assert model.num_params == 4
        for row in model.prob:
            assert row == (0, 0, 1)

    def test_stability_is_checked(self):
        m0 = uniform_chain(3)
        with pytest.raises(StabilityError):
            truncated_family(m0, [frozenset({0, 1}), frozenset({1, 2})], 1)
        # admitting the intersection fixes it
        model, _ = truncated_family(
            m0, [frozenset({0, 1}), frozenset({1, 2}), frozenset({1})], 1
        )
        assert model.num_params == 3

    def test_ray_events_generate_min_max_partitions(self):
        m0 = uniform_chain(4)
        _, part_up = truncated_family(m0, fc.upray_events(4), 2)
        assert part_up == fc.min_partition(m0, 2)
        _, part_down = truncated_family(m0, fc.downray_events(4), 2)
        assert part_down == fc.max_partition(m0, 2)


    def test_masks_match_former_construction(self):
        """Chains of 2-5 points with 1-3 random parameters (zero masses
        included, so some events get no mass), every event kind, every n
        from 1 to 4."""
        rng = random.Random(61)
        kinds = (fc.interval_events, fc.upray_events, fc.downray_events)
        for points in range(2, 6):
            for params in range(1, 4):
                m0 = random_chain_base(rng, points, params)
                for kind, n in itertools.product(kinds, range(1, 5)):  # 5^4 is within the guard
                    assert power_model(m0, n) == oracle_power_model(m0, n)
                    got = truncated_family(m0, kind(points), n)
                    assert got == oracle_truncated_family(m0, kind(points), n)


class TestSubmodelSelectors:
    def test_selector_forms(self):
        m = fc.load("CE55").model
        assert fc.parse_submodel(m, "all") == SubmodelRef.full(m)
        assert fc.parse_submodel(m, "theta1=2").param_indices == (2, 3)
        assert fc.parse_submodel(m, "theta2=1").param_indices == (0, 2)
        assert fc.parse_submodel(m, "params=0,3").param_indices == (0, 3)

    def test_selector_errors(self):
        m = fc.load("CE55").model
        with pytest.raises(InputError):
            fc.parse_submodel(m, "theta3=9")
        with pytest.raises(InputError):
            fc.parse_submodel(m, "params=0,99")
        with pytest.raises(InputError):
            fc.parse_submodel(m, "nonsense")

    def test_restrict_keeps_labels_and_rows_of_the_selected_parameters(self):
        m = fc.load("CE55").model
        sub = fc.parse_submodel(m, "theta2=1")
        assert sub.restrict(m) == FiniteModel(m.points, (m.params[0], m.params[2]), (m.prob[0], m.prob[2]))
        assert SubmodelRef.full(m).restrict(m) == m
        with pytest.raises(ValueError, match="out of range"):
            SubmodelRef.of(0, m.num_params).restrict(m)


def test_no_procedure_takes_a_submodel():
    """Selectors are resolved into restricted models at the edges (CLI,
    exhaustion pieces, sections, registry rows); a procedure takes one
    model and never a ``SubmodelRef``."""
    functions = [support_union] + [
        f for module in (checks, optimal, verify) for _, f in inspect.getmembers(module, inspect.isfunction)
    ]
    assert len(functions) > 50
    offenders = [
        f"{f.__module__}.{f.__qualname__}({name})"
        for f in functions
        for name, param in inspect.signature(f).parameters.items()
        if "SubmodelRef" in str(param.annotation)
    ]
    assert offenders == []


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_partition_canonicalization_is_stable(ids):
    p = Partition(tuple(ids))
    assert Partition(p.block_id) == p
    seen = []
    for b in p.block_id:
        if b not in seen:
            seen.append(b)
    assert seen == list(range(len(seen)))
