"""Optimal unbiased estimation on finite models.

The zero-unbiased space of a model is the kernel of its expectation
matrix P.  The optimal partition is the partition of the sigma-algebra of
events A with P(1_A h) = 0 for every zero-unbiased h and every member P.
A function f has P(f h) = 0 for all such h and P exactly when P_i * f
(pointwise) lies in the row space of P for every member i; those f
contain the constants and are closed under pointwise product, so they are
exactly the functions constant on the atoms.  In reduced form the row
space test fixes f on the support union by its values g on the pivot
columns and leaves integer linear constraints on g, with one column per
pivot: the atoms are the classes of points with equal values across a
kernel basis of those constraints, in polynomial time and without
building a zero-unbiased basis.
Optimality of an estimator, defined as simultaneous minimal risk for every
convex loss among unbiased estimators of the same estimand, is equivalent
to measurability with respect to this partition, which is what the
procedures here certify; quantification over losses is never attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .checks import _block_masses, _require_size, _sufficient, is_sufficient
from .errors import CertificateError, NotSufficientError
from .model import (
    FiniteModel,
    Partition,
    RationalFunction,
    meet,
    support_union,
)
from .reports import VERDICT_FAIL, VERDICT_PASS, CheckReport

OPTIMALITY_NOTE = (
    "optimality (simultaneous minimal risk for every convex loss) is "
    "certified through measurability with respect to the optimal partition"
)


@dataclass(frozen=True)
class Estimand:
    """A target value per parameter of the model."""

    values: tuple[Fraction, ...]

    @staticmethod
    def of(values) -> "Estimand":
        return Estimand(tuple(Fraction(v) for v in values))


@dataclass(frozen=True)
class UnbiasedClass:
    """All unbiased estimators of an estimand: one particular solution (or
    None when the estimand is not estimable) plus a basis of the
    zero-unbiased space."""

    particular: RationalFunction | None
    zero_basis: tuple[RationalFunction, ...]


@dataclass(frozen=True)
class UmvueResult:
    """Outcome of the optimal unbiased estimator computation.

    ``estimator`` is None when no optimal-partition-measurable unbiased
    estimator exists; ``note`` then distinguishes an inestimable estimand
    from an estimable one without a measurable solution.  ``atom_values``
    lists the solved value per block of ``optimal_partition`` (zero on
    blocks of total mass zero; uniqueness is only up to null sets).
    """

    estimator: RationalFunction | None
    optimal_partition: Partition
    atom_values: tuple[Fraction, ...] | None
    note: str


def _estimand_values(m: FiniteModel, estimand: Estimand) -> tuple[Fraction, ...]:
    n = len(estimand.values)
    if n != m.num_params:
        raise ValueError(f"estimand has {n} values, the model {m.num_params} parameters")
    return estimand.values


def zero_unbiased_basis(m: FiniteModel) -> list[RationalFunction]:
    """Canonical exact basis of the functions with zero expectation under
    every member (possibly empty)."""
    return [RationalFunction(v) for v in linalg.kernel_basis(m.prob, m.num_points)]


def unbiased_class(m: FiniteModel, estimand: Estimand) -> UnbiasedClass:
    """Solve the unbiasedness equations; inestimability is a reported
    state, not an error.  The estimand needs one value per parameter."""
    sol = linalg.solve(m.prob, _estimand_values(m, estimand))
    particular = RationalFunction(sol) if sol is not None else None
    return UnbiasedClass(particular, tuple(zero_unbiased_basis(m)))


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases 2 to 41, exact below 3.3 * 10^24
    (bases 2 to 37 already fail at 3.2 * 10^23)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1
    for b in bases:
        x = pow(b, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _certificate_primes():
    """The primes from 2^61 - 1 upwards, each found only when asked for;
    a fixed sequence keeps the certificate deterministic."""
    p = 2**61 - 1
    while True:
        yield p
        p += 2
        while not _is_prime(p):
            p += 2


def _rank_mod(rows, p: int) -> int:
    """Rank of an integer matrix modulo the prime ``p``; never above its
    rank over the rationals."""
    rows = [[a % p for a in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        top = [a * inv % p for a in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def _has_rank_mod_some_prime(rows, rank: int) -> bool:
    """Whether the integer matrix has rank ``rank`` modulo some certificate
    prime.

    Any one prime gives a sound clause, since a modular rank never exceeds
    the rational one.  When the rational rank is ``rank``, every prime
    that lowers it divides one nonzero minor, whose absolute value is
    below 2^B for the Hadamard bound B (the sum over rows of half the bit
    length of the squared row norm, rounded up).  So the primes are tried
    until their product reaches 2^B, at most B // 60 + 1 primes above
    2^60, and a correct rank is never rejected.
    """
    bits, product = None, 1
    for p in _certificate_primes():
        if _rank_mod(rows, p) == rank:
            return True
        if bits is None:
            bits = sum((sum(a * a for a in row).bit_length() + 1) // 2 for row in rows)
        product *= p
        if product.bit_length() > bits:
            return False


def _in_row_space(v, red, pivots, d) -> bool:
    """The integer membership test d v(x) = sum_t v(pivot_t) red_t(x): v is
    the combination of the reduced rows given by its pivot entries."""
    terms = [(v[pc], red[t]) for t, pc in enumerate(pivots) if v[pc]]
    return all(d * vx == sum(c * row[x] for c, row in terms) for x, vx in enumerate(v))


def optimal_sigma_algebra(m: FiniteModel) -> Partition:
    """The partition of the optimal sigma-algebra of the model.

    The integer member rows are reduced once to rows red_t with pivot
    columns pi_t and pivot value d.  At a support point x the first member
    with mass there fixes f(x) = a_x . g, where g = f|pi, and each other
    member gives one integer constraint row on g; off-support points are
    singleton atoms.  The atoms are the classes of equal (a_x . g_j)_j over
    a kernel basis g_j of the constraints.

    The atoms are re-checked exactly, trusting no kernel routine: red is
    d times the identity on the pivots, P has rank len(pi) modulo a prime,
    and P_i * 1_A passes the membership test for every member and atom
    (summed over the atoms, so does P_i: the reduced rows span the row
    space), so each atom is in the sigma-algebra; and the atom count
    equals the off-support count plus len(pi) minus the constraint rank
    modulo a prime, an upper bound on the dimension, so no finer
    partition fits.  A failure raises ``CertificateError``.

    When d != 0 the rank and membership clauses already imply the pivot
    identity: d P = M red with M = P|pi and rank P >= len(pi) forces M to
    full column rank, and then d M = M R, R = red|pi, gives R = d I.  The
    clause stays as a direct check.
    """
    ps = [linalg.clear_denominators(row) for row in m.prob]
    red, pivots, d = linalg._eliminate(ps, reduce=True)
    r = len(pivots)
    cols = list(zip(*red[:r]))
    first = [next((i for i, p in enumerate(ps) if p[x]), None) for x in range(m.num_points)]
    constraints: dict[tuple[int, ...], None] = {}
    for x, i0 in enumerate(first):
        if i0 is not None:
            p0 = ps[i0]
            for p in ps:
                row = tuple((p[x] * p0[pc] - p0[x] * p[pc]) * c for pc, c in zip(pivots, cols[x]))
                if any(row):
                    constraints[row] = None
    rows = list(constraints)
    gs = linalg.kernel_basis(rows, r)
    weights = [[[p[pc] * g[t] for t, pc in enumerate(pivots)] for g in gs] for p in ps]
    labels: list = []
    for x, i0 in enumerate(first):
        if i0 is None:
            labels.append(x)
            continue
        key = (ps[i0][x], *(sum(w * c for w, c in zip(ws, cols[x])) for ws in weights[i0]))
        labels.append(linalg.primitive(key))
    part = Partition(tuple(labels))
    bid = part.block_id
    if not (
        all(red[t][pc] == (d if s == t else 0) for t in range(r) for s, pc in enumerate(pivots))
        and _has_rank_mod_some_prime(ps, r)
        and all(
            _in_row_space([v if bid[x] == b else 0 for x, v in enumerate(p)], red, pivots, d)
            for p in ps
            for b in range(part.num_blocks)
        )
        and _has_rank_mod_some_prime(rows, first.count(None) + r - part.num_blocks)
    ):
        raise CertificateError(
            "optimal partition failed its exact re-check (P_i 1_A in the row space of P per atom, "
            "atoms = off-support points + rank P - rank of the constraints mod p)"
        )
    return part


def is_optimal_unbiased(g: RationalFunction, m: FiniteModel) -> CheckReport:
    """Optimality of an estimator for its own expectation: constancy on
    every block of the optimal partition that meets the support union."""
    _require_size(g, m, "function")
    part = optimal_sigma_algebra(m)
    su = support_union(m)
    for block in part.blocks():
        live = [x for x in block if x in su]
        if not live:
            continue
        first = g.values[live[0]]
        for x in live[1:]:
            if g.values[x] != first:
                witness = {
                    "block": tuple(m.points[y] for y in block),
                    "points": (m.points[live[0]], m.points[x]),
                    "values": (first, g.values[x]),
                }
                return CheckReport("optimal-unbiased", VERDICT_FAIL, witness, (OPTIMALITY_NOTE,))
    return CheckReport("optimal-unbiased", VERDICT_PASS, None, (OPTIMALITY_NOTE,))


def covariance_criterion(g: RationalFunction, m: FiniteModel) -> CheckReport:
    """Vanishing of P(g h) for every zero-unbiased h and member.

    Measurability with respect to the optimal partition implies a pass;
    the converse for general g is reported by the comparison harness, not
    asserted.
    """
    _require_size(g, m, "function")
    for j, h in enumerate(zero_unbiased_basis(m)):
        prod = [a * b for a, b in zip(g.values, h.values)]
        for i in range(m.num_params):
            val = m.expectation(i, prod)
            if val != 0:
                witness = {"param": m.params[i], "basis_index": j, "value": val}
                return CheckReport("covariance-criterion", VERDICT_FAIL, witness, ())
    return CheckReport("covariance-criterion", VERDICT_PASS, None, ())


def umvue(m: FiniteModel, estimand: Estimand) -> UmvueResult:
    """The optimal unbiased estimator of an estimand, when one exists.

    Solves the unbiasedness equations over functions constant on the
    blocks of the optimal partition; blocks of total mass zero get the
    value 0.  The estimand needs one value per parameter.
    """
    rhs = _estimand_values(m, estimand)
    part = optimal_sigma_algebra(m)
    scales, _, live, rows = _block_masses(part, m)
    sol = linalg.solve(rows, [v * s for v, s in zip(rhs, scales)])
    if sol is None:
        estimable = linalg.solve(m.prob, rhs) is not None
        note = (
            "estimable, but no estimator measurable for the optimal partition"
            if estimable
            else "estimand is not unbiasedly estimable"
        )
        return UmvueResult(None, part, None, note)
    by_block = dict(zip(live, sol))
    zero = Fraction(0)
    atom_values = tuple(by_block.get(b, zero) for b in range(part.num_blocks))
    values = tuple(atom_values[b] for b in part.block_id)
    return UmvueResult(
        RationalFunction(values), part, atom_values, "unique up to null sets"
    )


def exists_complete_sufficient(m: FiniteModel) -> CheckReport:
    """Existence of a complete sufficient partition, decided outright:
    one exists exactly when the optimal partition is sufficient, and then
    the optimal partition is the canonical one (attached as witness)."""
    part = optimal_sigma_algebra(m)
    suff = is_sufficient(part, m)
    if suff.passed:
        return CheckReport(
            "exists-complete-sufficient",
            VERDICT_PASS,
            {"partition": part},
            ("the optimal partition is sufficient and is the canonical witness",),
        )
    return CheckReport(
        "exists-complete-sufficient",
        VERDICT_FAIL,
        suff.witness,
        ("the optimal partition is not sufficient",),
    )


def rao_blackwell(g: RationalFunction, c: Partition, m: FiniteModel) -> RationalFunction:
    """Conditional expectation of g given a sufficient partition.

    Sufficiency makes the block averages parameter-free wherever a block
    has positive mass (verified here); blocks of mass zero under every
    member get the value 0.  Raises when the partition is not
    sufficient: the operation is undefined otherwise.
    """
    _require_size(g, m, "function")
    _, points, live, rows = _block_masses(c, m)
    suff = _sufficient(c, m, points, live, rows)
    if not suff.passed:
        raise NotSufficientError(f"partition is not sufficient: witness {suff.witness}")
    values = [Fraction(0)] * m.num_points
    blocks = c.blocks()
    for k, b in enumerate(live):
        avg = None
        for ints, row in zip(points, rows):
            if row[k] == 0:
                continue
            candidate = sum((g.values[x] * ints[x] for x in blocks[b]), Fraction(0)) / row[k]
            if avg is None:
                avg = candidate
            elif candidate != avg:
                raise AssertionError("sufficiency check passed but averages differ")
        for x in blocks[b]:
            values[x] = avg
    return RationalFunction(tuple(values))


def meet_of_optimal_sigmas(
    m: FiniteModel, exhaustion
) -> tuple[Partition, CheckReport]:
    """Meet of the pieces' optimal partitions along an exhaustion, with a
    report that the meet is coarser than or equal to the full-model
    optimal partition up to null sets (restricted to the support union).
    An exhaustion that does not cover the model raises ``ExhaustionError``."""
    acc: Partition | None = None
    for _, piece in exhaustion.restrict(m):
        part = optimal_sigma_algebra(piece)
        acc = part if acc is None else meet(acc, part)
    assert acc is not None
    full_part = optimal_sigma_algebra(m)
    su = support_union(m)
    pts = sorted(su)
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            x, y = pts[a], pts[b]
            if full_part.block_id[x] == full_part.block_id[y] and acc.block_id[x] != acc.block_id[y]:
                witness = {"point_pair": (m.points[x], m.points[y])}
                return acc, CheckReport("optimal-meet-bound", VERDICT_FAIL, witness, ())
    return acc, CheckReport("optimal-meet-bound", VERDICT_PASS, None, ())
