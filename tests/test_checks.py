import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fincomplete as fc
from fincomplete import (
    FiniteModel,
    Partition,
    SubmodelRef,
    are_independent,
    basu_consistency,
    is_ancillary,
    is_boundedly_complete,
    is_complete,
    is_complete_sufficient,
    is_homogeneous,
    is_minimal_sufficient,
    is_sufficient,
    join,
    meet,
    minimal_sufficient_partition,
    power_model,
    product_model,
    support_union,
)
from fincomplete import linalg
from fincomplete.errors import CertificateError
from fincomplete.model import RationalFunction
from fincomplete.reports import VERDICT_FAIL, VERDICT_PASS, CheckReport, combine_reports

from conftest import (
    all_partitions,
    bernoulli_pair_grid,
    coin,
    coin_family,
    oracle_event_mass,
    oracle_is_complete,
    valid_incompleteness_witness,
)


def random_small_model(rng, max_points=4, max_params=4):
    n = rng.randint(1, max_points)
    k = rng.randint(1, max_params)
    rows = []
    for _ in range(k):
        while True:
            raw = [Fraction(rng.randint(0, 6)) for _ in range(n)]
            if sum(raw) > 0:
                rows.append(tuple(w / sum(raw) for w in raw))
                break
    return FiniteModel(
        tuple(f"x{i}" for i in range(n)), tuple(f"t{i}" for i in range(k)), tuple(rows)
    )


def random_partition(rng, n):
    return Partition(tuple(rng.randint(0, n - 1) for _ in range(n)))


def random_case(rng, max_points=7, max_params=5):
    """A model, a submodel and a partition for the differential tests.
    Masses are often zero, so points and blocks can be null under the
    whole submodel; a member may repeat an earlier one, so block masses
    can agree; the submodel is often a single member; the partition is
    trivial, discrete or random."""
    n, k = rng.randint(1, max_points), rng.randint(1, max_params)
    rows: list[tuple[Fraction, ...]] = []
    for _ in range(k):
        if rows and rng.random() < 0.3:
            rows.append(rng.choice(rows))
            continue
        raw = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(n)]
        raw[rng.randrange(n)] += 1
        rows.append(tuple(Fraction(w, sum(raw)) for w in raw))
    m = FiniteModel(tuple(f"x{i}" for i in range(n)), tuple(f"t{i}" for i in range(k)), tuple(rows))
    size = 1 if rng.random() < 0.2 else rng.randint(1, k)
    c = rng.choice((Partition.trivial(n), Partition.discrete(n), random_partition(rng, n), random_partition(rng, n)))
    return m, SubmodelRef(tuple(rng.sample(range(k), size))), c


def random_huge_case(rng, max_points=6, max_params=4):
    """A model and a submodel with 30-digit integer weights: zero masses,
    all-zero columns, columns that are multiples of earlier ones (by a
    small or a 30-digit factor) and members equal to earlier ones, so gcd
    and sign normalization meet large integers."""
    n, k = rng.randint(1, max_points), rng.randint(1, max_params)

    def big():
        return rng.randrange(10**29, 10**30)

    cols: list[list[int]] = []
    for _ in range(n):
        kind = rng.choice(("fresh", "fresh", "zero", "multiple") if cols else ("fresh",))
        if kind == "multiple":
            factor = rng.choice((rng.randint(2, 9), big()))
            cols.append([factor * w for w in rng.choice(cols)])
        elif kind == "zero":
            cols.append([0] * k)
        else:
            cols.append([rng.choice((0, big(), big())) for _ in range(k)])
    raw = [[col[i] for col in cols] for i in range(k)]
    for i in range(1, k):
        if rng.random() < 0.3:
            raw[i] = list(rng.choice(raw[:i]))
    rows = []
    for row in raw:
        if not any(row):
            row[rng.randrange(n)] = big()
        rows.append(tuple(Fraction(w, sum(row)) for w in row))
    m = FiniteModel(tuple(f"x{i}" for i in range(n)), tuple(f"t{i}" for i in range(k)), tuple(rows))
    return m, SubmodelRef(tuple(rng.sample(range(k), rng.randint(1, k))))


# --- oracles: the engine's former representative scan for the minimal
# sufficient partition and its all-pairs sufficiency loop, kept verbatim as
# the references for the ray-key pass and the first-member comparison ---


def _proportional(u, v) -> bool:
    """Proportionality of nonzero rational vectors by cross-multiplication."""
    iu = next(i for i, x in enumerate(u) if x != 0)
    iv = next(i for i, x in enumerate(v) if x != 0)
    if iu != iv:
        return False
    return all(u[iu] * v[j] == v[iu] * u[j] for j in range(iu + 1, len(u)))


def oracle_minimal_sufficient_partition(m: FiniteModel, sub: SubmodelRef) -> Partition:
    """Each support point joins the first earlier representative whose
    likelihood vector is proportional to its own."""
    sub.validate(m)
    su = support_union(sub.restrict(m))
    reps: list[tuple[int, tuple[Fraction, ...]]] = []
    labels = []
    for x in range(m.num_points):
        if x not in su:
            labels.append("off-support")
            continue
        vec = tuple(m.prob[i][x] for i in sub.param_indices)
        for g, (rep_point, rep_vec) in enumerate(reps):
            if _proportional(rep_vec, vec):
                labels.append(g)
                break
        else:
            labels.append(len(reps))
            reps.append((x, vec))
    return Partition(tuple(labels))


def oracle_is_sufficient(c: Partition, m: FiniteModel, sub: SubmodelRef) -> CheckReport:
    """Every pair of members giving a block positive mass is compared."""
    sub.validate(m)
    idx = sub.param_indices
    for bnum, block in enumerate(c.blocks()):
        masses = [(i, oracle_event_mass(m, i, block)) for i in idx]
        positive = [(i, t) for i, t in masses if t > 0]
        for a in range(len(positive)):
            i, ti = positive[a]
            for b in range(a + 1, len(positive)):
                j, tj = positive[b]
                for x in block:
                    if m.prob[i][x] * tj != m.prob[j][x] * ti:
                        witness = {
                            "point": m.points[x],
                            "block": tuple(m.points[y] for y in block),
                            "params": (m.params[i], m.params[j]),
                        }
                        return CheckReport("sufficient", VERDICT_FAIL, witness, ())
    return CheckReport("sufficient", VERDICT_PASS, None, ())


# --- oracles: the engine's former completeness and sufficiency checks,
# which summed the block masses as Fractions with event_mass, once in each
# check, kept verbatim as the references for the integer block masses ---


def _support_blocks(c: Partition, su: frozenset[int]) -> list[int]:
    """Block ids of c meeting the support union, in canonical block order."""
    hit = {c.block_id[x] for x in su}
    return [b for b in range(c.num_blocks) if b in hit]


def _lift_block_vector(c: Partition, live: list[int], vec) -> RationalFunction:
    by_block = dict(zip(live, vec))
    zero = Fraction(0)
    return RationalFunction(tuple(by_block.get(b, zero) for b in c.block_id))


def fraction_is_complete(c: Partition, m: FiniteModel, sub: SubmodelRef) -> CheckReport:
    """Decide completeness of the partition for the submodel.

    Pass means: every block-constant function with zero expectation under
    all submodel members vanishes on the support union.  On fail the
    witness is such a function that is not almost surely zero; it is
    re-checked exactly (M v = 0, v != 0) before it is returned, and a
    vector failing that raises ``CertificateError`` instead.
    """
    sub.validate(m)
    su = support_union(sub.restrict(m))
    live = _support_blocks(c, su)
    blocks = c.blocks()
    rows = [
        tuple(oracle_event_mass(m, i, blocks[b]) for b in live) for i in sub.param_indices
    ]
    rank = linalg.fraction_free_rank(rows) if live else 0
    notes = (f"support blocks: {len(live)}", f"rank: {rank}")
    if rank == len(live):
        return CheckReport("complete", VERDICT_PASS, None, notes)
    vec = linalg.first_kernel_vector(rows, len(live))
    if vec is None or len(vec) != len(live) or not any(vec) or any(
        sum(a * v for a, v in zip(row, vec) if v) for row in rows
    ):
        raise CertificateError("incompleteness witness failed its exact re-check (M v = 0, v != 0)")
    witness = _lift_block_vector(c, live, vec)
    return CheckReport("complete", VERDICT_FAIL, {"function": witness}, notes)


def fraction_is_sufficient(c: Partition, m: FiniteModel, sub: SubmodelRef) -> CheckReport:
    """Decide sufficiency: conditional masses within each block must agree
    across all parameters giving the block positive mass.

    The comparison is by cross-multiplication, P(x) P'(B) = P'(x) P(B), so
    no division occurs.  Agreement is transitive, so each member is
    compared with the first one giving the block positive mass only.  On
    fail the witness names the first offending (point, block, parameter
    pair), the same one an all-pairs scan finds first.
    """
    sub.validate(m)
    for block in c.blocks():
        positive = [(i, t) for i in sub.param_indices if (t := oracle_event_mass(m, i, block)) > 0]
        if not positive:
            continue
        i, ti = positive[0]
        for j, tj in positive[1:]:
            for x in block:
                if m.prob[i][x] * tj != m.prob[j][x] * ti:
                    witness = {
                        "point": m.points[x],
                        "block": tuple(m.points[y] for y in block),
                        "params": (m.params[i], m.params[j]),
                    }
                    return CheckReport("sufficient", VERDICT_FAIL, witness, ())
    return CheckReport("sufficient", VERDICT_PASS, None, ())


# --- oracles: the engine's former ancillarity and independence checks,
# which summed event masses as Fractions, kept verbatim (event_mass is now
# oracle_event_mass) as the references for the integer block masses ---


def fraction_is_ancillary(c: Partition, m: FiniteModel, sub: SubmodelRef) -> CheckReport:
    """Ancillarity: every block mass is constant across the submodel."""
    sub.validate(m)
    idx = sub.param_indices
    for block in c.blocks():
        first = oracle_event_mass(m, idx[0], block)
        for j in idx[1:]:
            other = oracle_event_mass(m, j, block)
            if other != first:
                witness = {
                    "block": tuple(m.points[y] for y in block),
                    "params": (m.params[idx[0]], m.params[j]),
                    "masses": (first, other),
                }
                return CheckReport("ancillary", VERDICT_FAIL, witness, ())
    return CheckReport("ancillary", VERDICT_PASS, None, ())


def fraction_are_independent(
    c1: Partition, c2: Partition, m: FiniteModel, sub: SubmodelRef
) -> CheckReport:
    """Independence of two partitions under every submodel member."""
    sub.validate(m)
    blocks1 = [set(b) for b in c1.blocks()]
    blocks2 = [set(b) for b in c2.blocks()]
    for i in sub.param_indices:
        for b1 in blocks1:
            p1 = oracle_event_mass(m, i, b1)
            for b2 in blocks2:
                p2 = oracle_event_mass(m, i, b2)
                joint = oracle_event_mass(m, i, b1 & b2)
                if joint != p1 * p2:
                    witness = {
                        "block1": tuple(m.points[y] for y in sorted(b1)),
                        "block2": tuple(m.points[y] for y in sorted(b2)),
                        "param": m.params[i],
                        "joint": joint,
                        "product": p1 * p2,
                    }
                    return CheckReport("independent", VERDICT_FAIL, witness, ())
    return CheckReport("independent", VERDICT_PASS, None, ())


_SCALES = (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5, 2))


@st.composite
def models_with_submodels(draw, max_points=8, max_params=5):
    """Models with zero masses, all-zero (off-support) columns, columns
    that are scaled copies of earlier ones and members equal to earlier
    ones, plus a possibly proper submodel; columns zero on the submodel
    alone are off its support."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    k = draw(st.integers(min_value=1, max_value=max_params))
    weights = st.sampled_from((0, 0, 1, 2, 3, 5))
    cols: list[list[Fraction]] = []
    for _ in range(n):
        kinds = ("fresh", "fresh", "fresh", "zero") + (("copy",) if cols else ())
        kind = draw(st.sampled_from(kinds))
        if kind == "copy":
            scale = draw(st.sampled_from(_SCALES))
            cols.append([scale * v for v in draw(st.sampled_from(cols))])
        elif kind == "zero":
            cols.append([Fraction(0)] * k)
        else:
            cols.append([Fraction(draw(weights)) for _ in range(k)])
    raw = [[col[i] for col in cols] for i in range(k)]
    for i in range(1, k):  # equal members: a block's first two can agree
        if draw(st.sampled_from((False, False, True))):
            raw[i] = list(raw[draw(st.integers(min_value=0, max_value=i - 1))])
    rows = []
    for row in raw:
        if not any(row):
            row[draw(st.integers(min_value=0, max_value=n - 1))] = Fraction(1)
        rows.append(tuple(w / sum(row) for w in row))
    m = FiniteModel(tuple(f"x{x}" for x in range(n)), tuple(f"t{i}" for i in range(k)), tuple(rows))
    if draw(st.booleans()):
        return m, SubmodelRef.full(m)
    return m, SubmodelRef(tuple(draw(st.sets(st.integers(min_value=0, max_value=k - 1), min_size=1))))


signed_entries = st.fractions(min_value=-4, max_value=4, max_denominator=6)
signed_vectors = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(signed_entries, min_size=n, max_size=n)
)


class TestIsComplete:
    def test_registry_section_is_complete(self):
        e = fc.load("CE55")
        rep = is_complete(e.partitions["C1"], SubmodelRef.of(2, 3).restrict(e.model))
        assert rep.passed

    def test_grid_discrete_partition_fails_with_coordinate_difference(self):
        e = fc.load("CE52")
        m = e.model
        rep = is_complete(Partition.discrete(4), m)
        assert rep.failed
        w = rep.witness["function"]
        assert w.values == (0, -1, 1, 0)
        assert valid_incompleteness_witness(w, m, SubmodelRef.full(m))

    def test_single_distribution_trivial_partition(self):
        m = coin_family("1/3")
        assert is_complete(Partition.trivial(2), m).passed

    def test_agrees_with_exhaustive_oracle(self):
        rng = random.Random(101)
        mismatches = 0
        for _ in range(300):
            m = random_small_model(rng)
            c = random_partition(rng, m.num_points)
            sub = SubmodelRef.full(m)
            rep = is_complete(c, m)
            if rep.passed != oracle_is_complete(c, m, sub):
                mismatches += 1
            if rep.failed:
                lifted = rep.witness["function"]
                assert lifted.is_measurable(c)
                assert valid_incompleteness_witness(lifted, m, sub)
        assert mismatches == 0

    def test_bounded_alias_carries_note(self):
        m = coin_family("1/3")
        rep = is_boundedly_complete(Partition.trivial(2), m)
        assert rep.passed
        assert any("bounded" in n for n in rep.notes)


    def test_integer_block_masses_match_fraction_checks(self):
        rng = random.Random(365)
        for _ in range(500):
            m, sub, c = random_case(rng)
            complete, sufficient = fraction_is_complete(c, m, sub), fraction_is_sufficient(c, m, sub)
            assert is_complete(c, sub.restrict(m)) == complete
            assert is_sufficient(c, sub.restrict(m)) == sufficient
            both = combine_reports("complete-sufficient", complete, sufficient)
            assert is_complete_sufficient(c, sub.restrict(m)) == both

    def test_partition_of_the_wrong_length_is_a_value_error(self):
        m = coin_family("1/3", "1/2")
        for check in (is_complete, is_sufficient, is_complete_sufficient, is_ancillary):
            for c in (Partition((0,)), Partition.discrete(3)):
                with pytest.raises(ValueError, match="partition has"):
                    check(c, m)


class TestIsSufficient:
    def test_discrete_partition_always_sufficient(self):
        rng = random.Random(5)
        for _ in range(20):
            m = random_small_model(rng)
            assert is_sufficient(
                Partition.discrete(m.num_points), m
            ).passed

    def test_sum_statistic_for_coin_powers(self):
        m = bernoulli_pair_grid(("0",), ("1/5", "1/4", "1/3"), swap=False)
        sum_p = Partition((0, 1, 1, 2))
        assert is_sufficient(sum_p, m).passed

    def test_registry_join_insufficient(self):
        e = fc.load("CE55")
        rep = is_sufficient(e.partitions["C1"], e.model)
        assert rep.failed
        assert rep.witness["point"] == "1"
        assert rep.witness["params"] == (("1", "1"), ("2", "2"))

    def test_upward_heredity_of_sufficiency(self):
        rng = random.Random(6)
        for _ in range(60):
            m = random_small_model(rng)
            n = m.num_points
            c = random_partition(rng, n)
            if not is_sufficient(c, m).passed:
                continue
            finer = join(c, random_partition(rng, n))
            assert is_sufficient(finer, m).passed

    @given(models_with_submodels(), st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_first_member_comparison_matches_all_pairs(self, case, data):
        m, sub = case
        n = m.num_points
        labels = data.draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
        c = Partition(tuple(labels))
        got, want = is_sufficient(c, sub.restrict(m)), oracle_is_sufficient(c, m, sub)
        assert (got.verdict, got.witness) == (want.verdict, want.witness)


class TestMinimalSufficiency:
    def test_single_parameter_collapses_support(self):
        m = coin_family("1/3")
        part = minimal_sufficient_partition(m)
        assert part == Partition.trivial(2)

    def test_registry_section_blocks(self):
        e = fc.load("CE55")
        part = minimal_sufficient_partition(SubmodelRef.of(2, 3).restrict(e.model))
        assert part.block_id == (0, 0, 1)

    def test_bernoulli_grid_partition_by_sum(self):
        m = bernoulli_pair_grid(("0",), ("1/5", "1/4", "1/3"), swap=False)
        part = minimal_sufficient_partition(m)
        assert part == Partition((0, 1, 1, 2))

    def test_off_support_points_form_one_block(self):
        m = FiniteModel(
            ("a", "b", "c", "d"),
            ("t0", "t1"),
            (
                (Fraction(1, 2), Fraction(1, 2), 0, 0),
                (Fraction(1, 4), Fraction(3, 4), 0, 0),
            ),
        )
        part = minimal_sufficient_partition(m)
        assert part.block_id == (0, 1, 2, 2)

    def test_output_is_sufficient_and_coarsest(self):
        rng = random.Random(7)
        for _ in range(60):
            m = random_small_model(rng)
            msp = minimal_sufficient_partition(m)
            assert is_sufficient(msp, m).passed
            su = support_union(m)
            for c in all_partitions(m.num_points):
                if not is_sufficient(c, m).passed:
                    continue
                # on the support union, msp is coarser than or equal to c
                for x in su:
                    for y in su:
                        if c.block_id[x] == c.block_id[y]:
                            assert msp.block_id[x] == msp.block_id[y]

    def test_is_minimal_sufficient_verdicts(self):
        e = fc.load("CE55")
        sec = SubmodelRef.of(2, 3).restrict(e.model)
        msp = minimal_sufficient_partition(sec)
        assert is_minimal_sufficient(msp, sec).passed
        finer = is_minimal_sufficient(Partition.discrete(3), sec)
        assert finer.failed
        assert "sufficient but not minimal" in finer.notes
        # the full model's minimal sufficient partition is discrete
        assert is_minimal_sufficient(Partition.discrete(3), e.model).passed

    @given(models_with_submodels())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_ray_keys_match_representative_scan(self, case):
        m, sub = case
        assert minimal_sufficient_partition(sub.restrict(m)) == oracle_minimal_sufficient_partition(m, sub)

    def test_huge_weights_match_representative_scan(self):
        rng = random.Random(71)
        for _ in range(300):
            m, sub = random_huge_case(rng)
            assert minimal_sufficient_partition(sub.restrict(m)) == oracle_minimal_sufficient_partition(m, sub)

    @given(signed_vectors, st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_ray_key_equal_exactly_when_proportional(self, u, data):
        # the key minimal_sufficient_partition gives each likelihood vector
        def key(vec):
            return linalg.primitive(linalg.clear_denominators(vec))

        scaled = st.sampled_from((-2, -1, Fraction(-1, 3), Fraction(1, 3), 3)).map(
            lambda s: [s * x for x in u]
        )
        arbitrary = st.lists(signed_entries, min_size=len(u), max_size=len(u))
        v = data.draw(st.one_of(arbitrary, scaled))
        if any(u) and any(v):
            assert (key(u) == key(v)) == _proportional(u, v)
        else:
            assert (key(u) == key(v)) == (not any(u) and not any(v))


class TestAncillaryIndependentHomogeneous:
    def test_trivial_partition_is_ancillary(self):
        m = coin_family("1/3", "1/2")
        assert is_ancillary(Partition.trivial(2), m).passed

    def test_coordinate_partition_not_ancillary_for_coin_grid(self):
        m = bernoulli_pair_grid(("0",), ("1/5", "1/4"), swap=False)
        rep = is_ancillary(Partition((0, 0, 1, 1)), m)
        assert rep.failed

    def test_first_coordinate_ancillary_when_law_fixed(self):
        # product of a fixed coin with a varying coin
        a = coin("1/3")
        b = coin_family("1/5", "1/4", "1/3")
        m = product_model(a, b)
        c1, _ = fc.coordinate_partitions(a, b)
        assert is_ancillary(c1, m).passed

    def test_product_coordinates_independent(self):
        a = coin_family("1/3", "1/2")
        b = coin_family("1/5", "1/4")
        m = product_model(a, b)
        c1, c2 = fc.coordinate_partitions(a, b)
        assert are_independent(c1, c2, m).passed

    def test_trivial_partition_independent_of_anything(self):
        m = bernoulli_pair_grid(("0", "1"), ("1/5",))
        c1 = Partition((0, 0, 1, 1))
        assert are_independent(c1, Partition.trivial(4), m).passed

    def test_coordinate_and_sum_dependent_exactly(self):
        m = power_model(coin("1/3"), 2)
        c1 = Partition((0, 0, 1, 1))
        sum_p = Partition((0, 1, 1, 2))
        rep = are_independent(c1, sum_p, m)
        assert rep.failed
        assert rep.witness["joint"] != rep.witness["product"]

    def test_integer_masses_match_fraction_ancillary_and_independent(self):
        rng = random.Random(61)
        for _ in range(1500):
            m, sub, c1 = random_case(rng)
            c2 = random_partition(rng, m.num_points)
            assert is_ancillary(c1, sub.restrict(m)) == fraction_is_ancillary(c1, m, sub)
            assert are_independent(c1, c2, sub.restrict(m)) == fraction_are_independent(c1, c2, m, sub)

    @pytest.mark.parametrize("position", [0, 1])
    def test_partition_of_the_wrong_length_is_rejected(self, position):
        m = FiniteModel(("a", "b", "c"), ("t",), ((Fraction(1, 3),) * 3,))
        right = Partition((0, 0, 0))
        for wrong in (Partition((0, 0)), Partition((0, 1)), Partition((0, 0, 0, 1))):
            pair = (wrong, right) if position == 0 else (right, wrong)
            with pytest.raises(ValueError, match="partition has"):
                are_independent(*pair, m)
            with pytest.raises(ValueError, match="partition has"):
                basu_consistency(*pair, m)

    def test_homogeneous_verdicts(self):
        assert is_homogeneous(SubmodelRef.of(0, 1).restrict(coin_family("1/3", "1/2"))).passed
        e = fc.load("CE55")
        rep = is_homogeneous(e.model)
        assert rep.failed
        r = fc.load("CE53").components["R"]
        assert is_homogeneous(fc.parse_submodel(r, "theta2=0").restrict(r)).failed


class TestBasu:
    def test_product_model_instance(self):
        a = coin_family("1/3", "1/2", "2/3")
        b = coin("1/4")
        m = product_model(a, b)
        c1, c2 = fc.coordinate_partitions(a, b)
        rep = basu_consistency(c1, c2, m)
        assert rep.passed

    def test_vacuous_when_hypotheses_fail(self):
        e = fc.load("CE55")
        m = e.model
        rep = basu_consistency(e.partitions["C1"], Partition.trivial(3), m)
        assert rep.verdict == "vacuous"

    def test_generated_complete_sufficient_instances(self):
        rng = random.Random(8)
        checked = 0
        for _ in range(80):
            m = random_small_model(rng, max_points=4, max_params=4)
            rep = fc.exists_complete_sufficient(m)
            if not rep.passed:
                continue
            c_cs = rep.witness["partition"]
            rep2 = basu_consistency(c_cs, Partition.trivial(m.num_points), m)
            assert rep2.passed
            checked += 1
        assert checked > 10


class TestStructuralProperties:
    def test_downward_heredity_of_completeness(self):
        rng = random.Random(9)
        for _ in range(80):
            m = random_small_model(rng)
            n = m.num_points
            d = random_partition(rng, n)
            if not is_complete(d, m).passed:
                continue
            coarser = meet(d, random_partition(rng, n))
            assert is_complete(coarser, m).passed

    def test_relabeling_invariance(self):
        rng = random.Random(10)
        for _ in range(40):
            m = random_small_model(rng)
            n, k = m.num_points, m.num_params
            c = random_partition(rng, n)
            point_perm = list(range(n))
            param_perm = list(range(k))
            rng.shuffle(point_perm)
            rng.shuffle(param_perm)
            permuted = FiniteModel(
                tuple(m.points[point_perm[i]] for i in range(n)),
                tuple(m.params[param_perm[j]] for j in range(k)),
                tuple(
                    tuple(m.prob[param_perm[j]][point_perm[i]] for i in range(n))
                    for j in range(k)
                ),
            )
            c_perm = Partition(tuple(c.block_id[point_perm[i]] for i in range(n)))
            for fn in (is_complete, is_sufficient, is_ancillary):
                assert fn(c, m).verdict == fn(c_perm, permuted).verdict
            assert is_homogeneous(m).verdict == is_homogeneous(permuted).verdict
