import itertools
import json
import os
import random
from fractions import Fraction

import pytest

import fincomplete as fc
from fincomplete import linalg, optimal
from fincomplete import (
    Estimand,
    FiniteModel,
    Partition,
    RationalFunction,
    SubmodelRef,
    conditional_expectation,
    covariance_criterion,
    exists_complete_sufficient,
    is_complete,
    is_optimal_unbiased,
    is_sufficient,
    meet_of_optimal_sigmas,
    minimal_sufficient_partition,
    optimal_sigma_algebra,
    power_model,
    rao_blackwell,
    support_union,
    umvue,
    unbiased_class,
    zero_unbiased_basis,
)
from fincomplete.cli import run
from fincomplete.errors import CertificateError, ExhaustionError, NotSufficientError
from fincomplete.optimal import UmvueResult
from fincomplete.serialization import model_to_dict, save_model_file
from fincomplete.verify import Exhaustion

from conftest import bernoulli_pair_grid, coin, coin_family, oracle_event_mass

from test_checks import random_case, random_huge_case, random_small_model
from test_linalg import oracle_kernel_basis


def bernoulli_grid():
    return bernoulli_pair_grid(("0",), ("1/5", "1/4", "1/3"), swap=False)


def oracle_optimal_sigma(m, sub):
    """The optimal partition by enumerating all 2^n subsets in Gray-code
    order with running orthogonality sums (the engine's first algorithm,
    kept as a reference)."""
    n = m.num_points
    wrows = [
        linalg.clear_denominators([v * p for v, p in zip(h.values, m.prob[i])])
        for h in zero_unbiased_basis(sub.restrict(m))
        for i in sub.param_indices
    ]
    if not wrows:
        return Partition.discrete(n)
    d = len(wrows)
    sums = [0] * d
    members = [0]
    mask = 0
    for k in range(1, 1 << n):
        bit = (k & -k).bit_length() - 1
        mask ^= 1 << bit
        if mask >> bit & 1:
            for j in range(d):
                sums[j] += wrows[j][bit]
        else:
            for j in range(d):
                sums[j] -= wrows[j][bit]
        if not any(sums):
            members.append(mask)
    full = (1 << n) - 1
    atom = [full] * n
    for a in members:
        for x in range(n):
            if a >> x & 1:
                atom[x] &= a
    # The survivor family must be exactly the unions of the atoms: each
    # member a union of atoms, and their counts matching.  This certifies
    # closure under complement and intersection.
    for a in members:
        for x in range(n):
            if a >> x & 1 and atom[x] & ~a:
                raise RuntimeError("orthogonal family is not closed; this is a bug")
    num_atoms = len({a for a in atom})
    if len(members) != 1 << num_atoms:
        raise RuntimeError("orthogonal family is not a sigma-algebra; this is a bug")
    return Partition(tuple(atom))


def oracle_dense_w_sigma(m, sub):
    """The optimal partition from the kernel of the dense matrix W, the rows
    (h(x) P(x))_x over a zero-unbiased basis h and the members P (the
    engine's former route, kept as the reference for the row space route).
    Both kernels are the Fraction Gauss-Jordan oracle's, so this reference
    shares no elimination routine with the engine."""
    ps = [m.prob[i] for i in sub.param_indices]
    hs = oracle_kernel_basis(ps, m.num_points)
    rows = [tuple(a * b for a, b in zip(h, p)) for h in hs for p in ps]
    basis = oracle_kernel_basis(rows, m.num_points)
    part = Partition(tuple(zip(*basis)))
    blocks = part.blocks()
    if len(blocks) != len(basis) or any(sum(row[x] for x in b) for row in rows for b in blocks):
        raise RuntimeError("dense W partition failed its re-check; this is a bug")
    return part


def model_with_null_points(rng, n, k, zero_share):
    """k random distributions on n points; each mass is zero with
    probability ``zero_share``, and a point may be null for every one."""
    rows = []
    for _ in range(k):
        while True:
            raw = [0 if rng.random() < zero_share else rng.randint(1, 6) for _ in range(n)]
            if sum(raw):
                rows.append(tuple(Fraction(w, sum(raw)) for w in raw))
                break
    return FiniteModel(tuple(f"x{i}" for i in range(n)), tuple(f"t{i}" for i in range(k)), tuple(rows))


class TestZeroUnbiasedBasis:
    def test_single_uniform_two_points(self):
        m = coin("1/2")
        basis = zero_unbiased_basis(m)
        assert [b.values for b in basis] == [(-1, 1)]

    def test_full_rank_model_has_empty_basis(self):
        m = coin_family("1/3", "1/2")
        assert zero_unbiased_basis(m) == []

    def test_grid_model_contains_coordinate_difference(self):
        e = fc.load("CE52")
        m = e.model
        basis = zero_unbiased_basis(m)
        assert len(basis) == 1
        assert basis[0].values in ((0, -1, 1, 0), (0, 1, -1, 0))


@pytest.mark.parametrize("values", [(1,), (1, 2, 3, 4)])
def test_estimand_of_the_wrong_length_is_a_value_error(values):
    m = bernoulli_grid()  # three members
    for procedure in (umvue, unbiased_class):
        with pytest.raises(ValueError, match=f"estimand has {len(values)} values, the model 3 parameters"):
            procedure(m, Estimand.of(values))


@pytest.mark.parametrize("size", [2, 4])
def test_function_of_the_wrong_length_is_a_value_error(size):
    m = fc.load("CE55").model  # three points
    g = RationalFunction(tuple(range(size)))
    procedures = (
        lambda: is_optimal_unbiased(g, m),
        lambda: covariance_criterion(g, m),
        lambda: rao_blackwell(g, Partition.discrete(3), m),
        lambda: fc.verify_bondesson(m, Exhaustion.single(m), g),
    )
    for procedure in procedures:
        with pytest.raises(ValueError, match=f"function has {size} points, the model 3"):
            procedure()


class TestUnbiasedClass:
    def test_zero_estimand(self):
        m = coin("1/2")
        out = unbiased_class(m, Estimand.of([0]))
        assert out.particular is not None
        assert all(v == 0 for v in out.particular.values)
        assert len(out.zero_basis) == 1

    def test_bernoulli_grid_mean(self):
        m = bernoulli_grid()
        kappa = Estimand.of([Fraction(t) for t in ("1/5", "1/4", "1/3")])
        out = unbiased_class(m, kappa)
        assert out.particular is not None
        for i, t in enumerate(("1/5", "1/4", "1/3")):
            assert m.expectation(i, out.particular.values) == Fraction(t)
        half_sum = RationalFunction(("0", "1/2", "1/2", "1"))
        diff = [a - b for a, b in zip(half_sum.values, out.particular.values)]
        for i in range(3):
            assert m.expectation(i, diff) == 0

    def test_inconsistent_estimand(self):
        m = FiniteModel(
            ("a", "b"),
            ("t0", "t1"),
            ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))),
        )
        out = unbiased_class(m, Estimand.of([0, 1]))
        assert out.particular is None


class TestOptimalSigmaAlgebra:
    def test_single_full_support_distribution_trivial(self):
        m = coin_family("1/3")
        assert optimal_sigma_algebra(m) == Partition.trivial(2)

    def test_registry_section_equals_complete_sufficient_partition(self):
        e = fc.load("CE55")
        part = optimal_sigma_algebra(SubmodelRef.of(2, 3).restrict(e.model))
        assert part.block_id == (0, 0, 1)

    def test_empty_zero_space_gives_discrete(self):
        m = coin_family("1/3", "1/2")
        assert optimal_sigma_algebra(m) == Partition.discrete(2)

    def test_kernel_route_matches_enumeration_oracle(self):
        rng = random.Random(41)
        for case in range(300):
            m = model_with_null_points(rng, rng.randint(1, 12), rng.randint(1, 5), (0.3, 0.5)[case % 2])
            k = m.num_params
            sub = SubmodelRef(tuple(sorted(rng.sample(range(k), rng.randint(1, k)))))
            assert optimal_sigma_algebra(sub.restrict(m)) == oracle_optimal_sigma(m, sub)

    def test_row_space_route_matches_dense_w_oracle(self):
        rng = random.Random(43)
        for _ in range(1500):
            m = model_with_null_points(rng, rng.randint(1, 9), rng.randint(1, 5), 0.35)
            if m.num_params > 1 and rng.random() < 0.3:
                # a member repeated under a second label
                m = FiniteModel(m.points, m.params + ("copy",), m.prob + (rng.choice(m.prob),))
            k = m.num_params
            sub = SubmodelRef(tuple(sorted(rng.sample(range(k), rng.randint(1, k)))))
            assert optimal_sigma_algebra(sub.restrict(m)) == oracle_dense_w_sigma(m, sub)
        for _ in range(150):
            m, sub = random_huge_case(rng)
            assert optimal_sigma_algebra(sub.restrict(m)) == oracle_dense_w_sigma(m, sub)

    def test_every_registry_submodel_matches_dense_w_oracle(self):
        for ce in ("CE52", "CE53", "CE54", "CE55"):
            e = fc.load(ce)
            for m in (e.model, *e.components.values()):
                for k in range(1, m.num_params + 1):
                    for idx in itertools.combinations(range(m.num_params), k):
                        sub = SubmodelRef(idx)
                        assert optimal_sigma_algebra(sub.restrict(m)) == oracle_dense_w_sigma(m, sub)

    def test_coin_powers_match_dense_w_oracle(self):
        base = coin_family("1/3", "1/2", "2/3")
        for n in range(1, 7):
            m = power_model(base, n)
            sub = SubmodelRef.full(m)
            assert optimal_sigma_algebra(m) == oracle_dense_w_sigma(m, sub)

    def test_nine_bias_coin_power_gives_the_sum_partition(self):
        # the sum of 8 tosses is binomial: a function h of it with zero mean
        # under 9 distinct biases p gives a degree-8 polynomial in p/(1-p)
        # with 9 roots (a Vandermonde system), so h = 0 and the sum is
        # complete sufficient; the optimal partition is then its partition
        m = power_model(coin_family(*(Fraction(i, 10) for i in range(1, 10))), 8)
        by_sum = Partition(tuple(sum(t) for t in itertools.product((0, 1), repeat=8)))
        assert optimal_sigma_algebra(m) == by_sum

    def test_iid_power_past_the_former_guard(self, capsys, tmp_path):
        # 32 points; six distinct biases make the sum complete for five tosses
        m = power_model(coin_family("1/7", "1/5", "1/3", "1/2", "2/3", "4/5"), 5)
        by_sum = Partition(tuple(sum(t) for t in itertools.product((0, 1), repeat=5)))
        assert optimal_sigma_algebra(m) == by_sum
        path = tmp_path / "p5.model"
        save_model_file(str(path), model_to_dict(m))
        assert run(["--json", "optimal-sigma", "--model", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["partition"] == list(by_sum.block_id)

    def test_off_support_points_are_singleton_atoms(self):
        m = FiniteModel(
            ("a", "b", "c"),
            ("t",),
            ((Fraction(1, 2), Fraction(1, 2), 0),),
        )
        part = optimal_sigma_algebra(m)
        assert part.block_id == (0, 0, 1)

    def test_completeness_of_optimal_partition(self):
        rng = random.Random(21)
        for _ in range(60):
            m = random_small_model(rng, max_points=5, max_params=4)
            part = optimal_sigma_algebra(m)
            assert is_complete(part, m).passed

    def test_optimal_below_every_sufficient_partition(self):
        rng = random.Random(22)
        for _ in range(60):
            m = random_small_model(rng, max_points=5, max_params=4)
            part = optimal_sigma_algebra(m)
            su = support_union(m)
            for c in (
                minimal_sufficient_partition(m),
                Partition.discrete(m.num_points),
            ):
                assert is_sufficient(c, m).passed
                # on the support union, same c-block implies same O-block
                for x in su:
                    for y in su:
                        if c.block_id[x] == c.block_id[y]:
                            assert part.block_id[x] == part.block_id[y]


def _unit_outside_kernel(rows, width):
    """The unit vector of the first column with a nonzero entry."""
    t = next(t for t in range(width) if any(row[t] for row in rows))
    return tuple(int(s == t) for s in range(width))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda b, rows, width: [],
        lambda b, rows, width: b + [_unit_outside_kernel(rows, width)],
        lambda b, rows, width: [(b[0][0] + 1,) + b[0][1:]] + b[1:],
        lambda b, rows, width: [v[::-1] for v in b],
    ],
    ids=["empty", "extra-unit", "perturbed", "reversed"],
)
def test_corrupted_kernel_is_never_a_partition(capsys, monkeypatch, tmp_path, corrupt):
    # the optimal partition here is (0, 0, 0, 1) and the constraints on the
    # pivot values are not empty, so each corruption changes the atoms: an
    # empty basis merges them, while a unit vector outside the kernel, a
    # perturbed or a reversed basis splits them
    m = FiniteModel(
        ("a", "b", "c", "d"),
        ("uniform", "point", "mix"),
        (
            (Fraction(1, 4),) * 4,
            (0, 0, 0, Fraction(1)),
            (Fraction(1, 2), Fraction(1, 4), 0, Fraction(1, 4)),
        ),
    )
    assert optimal_sigma_algebra(m).block_id == (0, 0, 0, 1)
    genuine = linalg.kernel_basis
    monkeypatch.setattr(linalg, "kernel_basis", lambda rows, width: corrupt(genuine(rows, width), rows, width))
    with pytest.raises(CertificateError):
        optimal_sigma_algebra(m)
    path = tmp_path / "mix.model"
    save_model_file(str(path), model_to_dict(m))
    assert run(["--json", "optimal-sigma", "--model", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err and "re-check" in captured.err


def test_wrong_atoms_of_the_right_count_fail_the_membership_check(monkeypatch):
    # swapping the first two coordinates of each kernel vector gives atoms
    # (0, 1, 1, 0) instead of (0, 1, 0, 0): the count still matches, so only
    # the row space membership of P_i 1_A can reject them
    m = FiniteModel(
        ("a", "b", "c", "d"),
        ("t0", "t1", "t2"),
        (
            (Fraction(2, 7), Fraction(1, 7), 0, Fraction(4, 7)),
            (Fraction(1, 5), Fraction(2, 5), 0, Fraction(2, 5)),
            (Fraction(1, 7), Fraction(1, 7), Fraction(4, 7), Fraction(1, 7)),
        ),
    )
    assert optimal_sigma_algebra(m).block_id == (0, 1, 0, 0)
    genuine = linalg.kernel_basis
    monkeypatch.setattr(
        linalg, "kernel_basis", lambda rows, width: [(v[1], v[0]) + v[2:] for v in genuine(rows, width)]
    )
    with pytest.raises(CertificateError):
        optimal_sigma_algebra(m)


def _pivot_at_first_free_column(red, pivots, d):
    """A reduced form of a larger row space that keeps every clause but the
    rank: the row d e_j at the first free column j, with column j cleared
    in the other rows, so the pivots still carry d times the identity and
    every genuine member of the row space still passes the membership
    test."""
    j = next(j for j in range(len(red[0])) if j not in pivots)
    t = sum(pc < j for pc in pivots)
    rows = [[0 if x == j else v for x, v in enumerate(row)] for row in red]
    rows.insert(t, [d if x == j else 0 for x in range(len(red[0]))])
    return rows, sorted(pivots + [j]), d


def test_a_reduction_of_too_high_rank_fails_the_rank_check(monkeypatch):
    # only the first elimination is the reduction of P; the kernel's own
    # elimination stays genuine.  Without the rank clause 228 of these 300
    # models return a wrong partition with no error.
    rng = random.Random(47)
    genuine = linalg._eliminate
    models = []
    while len(models) < 300:
        m = model_with_null_points(rng, rng.randint(2, 7), rng.randint(1, 4), 0.3)
        if len(genuine([linalg.clear_denominators(row) for row in m.prob])[1]) < m.num_points:
            models.append(m)
    calls = []

    def fake(rows, reduce=False):
        calls.append(None)
        out = genuine(rows, reduce)
        return _pivot_at_first_free_column(*out) if len(calls) == 1 else out

    monkeypatch.setattr(linalg, "_eliminate", fake)
    for m in models:
        calls.clear()
        with pytest.raises(CertificateError):
            optimal_sigma_algebra(m)


def test_a_minor_divisible_by_the_first_prime_is_not_rejected(capsys, tmp_path):
    # the integer rows (1, 1) and (1, p + 1) have determinant p = 2^61 - 1,
    # the first certificate prime, so P has rank 1 modulo it
    p = 2**61 - 1
    m = FiniteModel(
        ("a", "b"), ("s", "t"), ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, p + 2), Fraction(p + 1, p + 2)))
    )
    assert optimal_sigma_algebra(m) == Partition.discrete(2)
    path = tmp_path / "prime-minor.model"
    save_model_file(str(path), model_to_dict(m))
    assert run(["--json", "optimal-sigma", "--model", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"partition": [0, 1]}
    assert run(["--json", "umvue", "--model", str(path), "--estimand", "0,1"]) == 0
    assert json.loads(capsys.readouterr().out)["optimal_partition"] == [0, 1]


def test_primes_that_lower_a_rank_lead_to_the_next_prime(monkeypatch):
    rng = random.Random(29)
    cases = [random_case(rng)[:2] for _ in range(300)]
    expected = [optimal_sigma_algebra(sub.restrict(m)) for m, sub in cases]
    genuine_primes, genuine_rank = optimal._certificate_primes, optimal._rank_mod
    used: dict[int, int] = {}

    def counting_rank(rows, p):
        used[p] = used.get(p, 0) + 1
        return genuine_rank(rows, p)

    monkeypatch.setattr(optimal, "_certificate_primes", lambda: itertools.chain((3, 5), genuine_primes()))
    monkeypatch.setattr(optimal, "_rank_mod", counting_rank)
    assert [optimal_sigma_algebra(sub.restrict(m)) for m, sub in cases] == expected
    assert used[3] > used[5] > used[2**61 - 1] > 0


def test_certificate_primes_are_prime():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(optimal._is_prime(n) == trial(n) for n in range(3000))
    # a strong pseudoprime to every prime base up to 37
    assert not optimal._is_prime(318665857834031151167461)
    first = list(itertools.islice(optimal._certificate_primes(), 3))
    assert first == [2**61 - 1, 2**61 + 15, 2**61 + 21]


class TestOptimalityChecks:
    def test_constants_are_optimal(self):
        m = bernoulli_grid()
        g = RationalFunction.constant(5, 4)
        assert is_optimal_unbiased(g, m).passed

    def test_coordinate_difference_not_optimal_in_grid(self):
        e = fc.load("CE52")
        m = e.model
        rep = is_optimal_unbiased(e.functions["x1-x2"], m)
        assert rep.failed

    def test_block_average_is_optimal(self):
        m = bernoulli_grid()
        part = optimal_sigma_algebra(m)
        g = RationalFunction(("3", "-2", "7", "1"))
        averaged = conditional_expectation(g, part, m, 0)
        assert is_optimal_unbiased(averaged, m).passed

    def test_covariance_criterion_directions(self):
        m = bernoulli_grid()
        part = optimal_sigma_algebra(m)
        g = conditional_expectation(RationalFunction(("1", "0", "2", "5")), part, m, 0)
        assert covariance_criterion(g, m).passed
        basis = zero_unbiased_basis(m)
        assert basis and covariance_criterion(basis[0], m).failed

    def test_agreement_harness(self):
        # proven direction asserted; the converse only counted
        rng = random.Random(23)
        agree = disagree = 0
        for _ in range(60):
            m = random_small_model(rng, max_points=4, max_params=3)
            g = RationalFunction(tuple(Fraction(rng.randint(-3, 3)) for _ in range(m.num_points)))
            opt = is_optimal_unbiased(g, m).passed
            cov = covariance_criterion(g, m).passed
            if opt:
                assert cov
            if opt == cov:
                agree += 1
            else:
                disagree += 1
        assert agree > 0


class TestUmvue:
    def test_constant_estimand(self):
        m = bernoulli_grid()
        out = umvue(m, Estimand.of([7, 7, 7]))
        assert out.estimator is not None
        assert set(out.estimator.values) == {Fraction(7)}

    def test_bernoulli_grid_mean_is_half_sum(self):
        m = bernoulli_grid()
        kappa = Estimand.of([Fraction(t) for t in ("1/5", "1/4", "1/3")])
        out = umvue(m, kappa)
        assert out.estimator is not None
        assert out.estimator.values == (0, Fraction(1, 2), Fraction(1, 2), 1)

    def test_grid_zero_estimand_gives_zero(self):
        e = fc.load("CE52")
        m = e.model
        out = umvue(m, Estimand.of([0] * 6))
        assert out.estimator is not None
        assert set(out.estimator.values) == {Fraction(0)}
        # while the coordinate difference is unbiased for 0, it is not optimal
        assert is_optimal_unbiased(e.functions["x1-x2"], m).failed

    def test_inestimable_vs_no_measurable_solution(self):
        m = FiniteModel(
            ("a", "b"),
            ("t0", "t1"),
            ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))),
        )
        out = umvue(m, Estimand.of([0, 1]))
        assert out.estimator is None
        assert "not unbiasedly estimable" in out.note


def oracle_umvue(m, sub, estimand):
    """The engine's former umvue, whose block-mass rows were Fraction sums
    of event_mass on the live blocks, kept verbatim as the reference."""
    sub.validate(m)
    part = optimal_sigma_algebra(sub.restrict(m))
    su = support_union(sub.restrict(m))
    blocks = part.blocks()
    live = [b for b in range(len(blocks)) if any(x in su for x in blocks[b])]
    rows = [
        tuple(oracle_event_mass(m, i, blocks[b]) for b in live) for i in sub.param_indices
    ]
    rhs = [estimand.values[i] for i in sub.param_indices]
    sol = linalg.solve(rows, rhs)
    if sol is None:
        estimable = linalg.solve([m.prob[i] for i in sub.param_indices], rhs) is not None
        note = (
            "estimable, but no estimator measurable for the optimal partition"
            if estimable
            else "estimand is not unbiasedly estimable"
        )
        return UmvueResult(None, part, None, note)
    by_block = dict(zip(live, sol))
    zero = Fraction(0)
    atom_values = tuple(by_block.get(b, zero) for b in range(len(blocks)))
    values = tuple(atom_values[b] for b in part.block_id)
    return UmvueResult(
        RationalFunction(values), part, atom_values, "unique up to null sets"
    )


def _small_fraction(rng: random.Random) -> Fraction:
    d = rng.randint(1, 4)
    return Fraction(rng.randint(-3 * d, 3 * d), d)


def test_umvue_on_integer_block_masses_matches_fraction_rows():
    """Estimands are the means of a random function (always estimable) or
    arbitrary values (often not)."""
    rng = random.Random(496)
    for _ in range(500):
        m, sub, _ = random_case(rng)
        if rng.random() < 0.5:
            g = [_small_fraction(rng) for _ in range(m.num_points)]
            estimand = Estimand(tuple(m.expectation(i, g) for i in range(m.num_params)))
        else:
            estimand = Estimand(tuple(_small_fraction(rng) for _ in range(m.num_params)))
        selected = Estimand(tuple(estimand.values[i] for i in sub.param_indices))
        assert umvue(sub.restrict(m), selected) == oracle_umvue(m, sub, estimand)


class TestExistsCompleteSufficient:
    def test_bernoulli_grid_power(self):
        m = bernoulli_grid()
        rep = exists_complete_sufficient(m)
        assert rep.passed
        part = rep.witness["partition"]
        assert is_complete(part, m).passed
        assert is_sufficient(part, m).passed
        assert part == Partition((0, 1, 1, 2))

    def test_registry_full_model_decided_outright(self):
        e = fc.load("CE55")
        rep = exists_complete_sufficient(e.model)
        assert rep.passed
        assert rep.witness["partition"] == Partition.discrete(3)

    def test_single_distribution(self):
        m = coin_family("1/3")
        rep = exists_complete_sufficient(m)
        assert rep.passed
        assert rep.witness["partition"] == Partition.trivial(2)

    def test_grid_model_sum_partition_is_canonical(self):
        # the swap grid is a family of i.i.d. coin pairs, so the sum
        # partition is complete sufficient even though the join of the
        # coordinate partitions is not complete
        e = fc.load("CE52")
        rep = exists_complete_sufficient(e.model)
        assert rep.passed
        assert rep.witness["partition"] == Partition((0, 1, 1, 2))

    def test_overlapping_uniforms_have_none(self):
        m = FiniteModel(
            ("1", "2", "3"),
            ("t0", "t1"),
            (
                (Fraction(1, 2), Fraction(1, 2), 0),
                (0, Fraction(1, 2), Fraction(1, 2)),
            ),
        )
        assert optimal_sigma_algebra(m) == Partition.trivial(3)
        rep = exists_complete_sufficient(m)
        assert rep.failed


class TestRaoBlackwell:
    def test_fixed_point_of_projection(self):
        m = bernoulli_grid()
        sum_p = Partition((0, 1, 1, 2))
        g = RationalFunction(("4", "9", "9", "-1"))
        assert rao_blackwell(g, sum_p, m) == g

    def test_coordinate_estimator_averages_to_half_sum(self):
        m = bernoulli_grid()
        g = RationalFunction(("0", "0", "1", "1"))  # first coordinate
        out = rao_blackwell(g, Partition((0, 1, 1, 2)), m)
        assert out.values == (0, Fraction(1, 2), Fraction(1, 2), 1)

    def test_insufficient_partition_is_an_error(self):
        e = fc.load("CE55")
        g = RationalFunction(("1", "2", "3"))
        with pytest.raises(NotSufficientError):
            rao_blackwell(g, e.partitions["C1"], e.model)

    def test_mean_preservation_and_idempotence(self):
        rng = random.Random(31)
        for _ in range(40):
            m = random_small_model(rng, max_points=4, max_params=3)
            sub = SubmodelRef.full(m)
            c = minimal_sufficient_partition(m)
            g = RationalFunction(tuple(Fraction(rng.randint(-3, 3)) for _ in range(m.num_points)))
            rb = rao_blackwell(g, c, m)
            for i in sub.param_indices:
                assert m.expectation(i, rb.values) == m.expectation(i, g.values)
            assert rao_blackwell(rb, c, m) == rb


def fraction_rao_blackwell(
    g: RationalFunction, c: Partition, m: FiniteModel, sub: SubmodelRef
) -> RationalFunction:
    """The engine's former rao_blackwell, which summed block masses as
    Fractions, kept verbatim (event_mass is now oracle_event_mass) as the
    reference for the integer block masses."""
    suff = is_sufficient(c, sub.restrict(m))
    if not suff.passed:
        raise NotSufficientError(f"partition is not sufficient: witness {suff.witness}")
    values = [Fraction(0)] * m.num_points
    for block in c.blocks():
        avg = None
        for i in sub.param_indices:
            mass = oracle_event_mass(m, i, block)
            if mass == 0:
                continue
            candidate = sum((g.values[x] * m.prob[i][x] for x in block), Fraction(0)) / mass
            if avg is None:
                avg = candidate
            elif candidate != avg:
                raise AssertionError("sufficiency check passed but averages differ")
        if avg is not None:
            for x in block:
                values[x] = avg
    return RationalFunction(tuple(values))


def test_rao_blackwell_on_integer_block_masses_matches_fraction_sums():
    """The partition is minimal sufficient (always sufficient) or drawn,
    and then often not sufficient: both raise the same error."""
    rng = random.Random(64)
    for _ in range(1000):
        m, sub, c = random_case(rng)
        if rng.random() < 0.5:
            c = minimal_sufficient_partition(sub.restrict(m))
        g = RationalFunction(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m.num_points)))
        try:
            expected = fraction_rao_blackwell(g, c, m, sub)
        except NotSufficientError as e:
            with pytest.raises(NotSufficientError) as got:
                rao_blackwell(g, c, sub.restrict(m))
            assert str(got.value) == str(e)
        else:
            assert rao_blackwell(g, c, sub.restrict(m)) == expected


class TestMeetOfOptimalSigmas:
    def test_single_piece_exhaustion(self):
        m = bernoulli_grid()
        exh = Exhaustion.single(m)
        met, rep = meet_of_optimal_sigmas(m, exh)
        assert rep.passed
        assert met == optimal_sigma_algebra(m)

    def test_registry_section_exhaustion(self):
        e = fc.load("CE55")
        m = e.model
        exh = Exhaustion(
            "sections",
            (
                ("theta1=1", SubmodelRef.of(0, 1)),
                ("theta1=2", SubmodelRef.of(2, 3)),
                ("theta2=1", SubmodelRef.of(0, 2)),
                ("theta2=2", SubmodelRef.of(1, 3)),
            ),
        )
        met, rep = meet_of_optimal_sigmas(m, exh)
        assert rep.passed
        assert met.block_id == (0, 0, 1)

    def test_random_exhaustions(self):
        rng = random.Random(32)
        for _ in range(40):
            m = random_small_model(rng, max_points=4, max_params=4)
            k = m.num_params
            pieces = []
            for j, start in enumerate(range(0, k, 2)):
                pieces.append((str(j), SubmodelRef(tuple(range(start, min(start + 2, k))))))
            # overlap one piece to vary the shapes
            if k >= 2:
                pieces.append(("ov", SubmodelRef((0, k - 1))))
            _, rep = meet_of_optimal_sigmas(m, Exhaustion("e", tuple(pieces)))
            assert rep.passed

    def test_exhaustion_must_cover_the_model(self):
        m = fc.load("CE55").model
        short = Exhaustion("short", (("theta1=1", SubmodelRef.of(0, 1)),))
        with pytest.raises(ExhaustionError, match="exhaustion 'short' does not cover the model"):
            meet_of_optimal_sigmas(m, short)
        beyond = Exhaustion("beyond", (("all", SubmodelRef.of(0, 1, 2, 3, 4)),))
        with pytest.raises(ValueError, match="submodel index out of range"):
            meet_of_optimal_sigmas(m, beyond)


class TestPiecewiseOptimality:
    def test_intersection_of_optimal_sigmas_yields_optimal_estimator(self):
        e = fc.load("CE55")
        m = e.model
        exh = Exhaustion(
            "axis-sections",
            (
                ("theta1=1", SubmodelRef.of(0, 1)),
                ("theta1=2", SubmodelRef.of(2, 3)),
            ),
        )
        met, rep = meet_of_optimal_sigmas(m, exh)
        assert rep.passed
        g = RationalFunction(tuple(Fraction(b) for b in met.block_id))
        for _, piece in exh.pieces:
            assert is_optimal_unbiased(g, piece.restrict(m)).passed
        assert is_optimal_unbiased(g, m).passed
