"""Optimal unbiased estimation on finite models.

The zero-unbiased space of a submodel is the kernel of its expectation
matrix.  The optimal partition (the sigma-algebra of events A with
P 1_A h = 0 for every zero-unbiased h and every submodel member) is
computed by enumerating all subsets of the sample space and keeping those
orthogonal to the span of the vectors (h(x) P(x))_x; its atoms give the
partition.  Optimality of an estimator, defined as simultaneous minimal
risk for every convex loss among unbiased estimators of the same estimand,
is equivalent to measurability with respect to this partition, which is
what the procedures here certify; quantification over losses is never
attempted.

The enumeration is guarded (default 16 points, overridable via the
FINCOMPLETE_ENUM_GUARD environment variable or per call).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .checks import is_sufficient
from .errors import EnumerationGuardError, ExhaustionError, NotSufficientError
from .model import (
    FiniteModel,
    Partition,
    RationalFunction,
    SubmodelRef,
    meet,
    support_union,
)
from .reports import VERDICT_FAIL, VERDICT_PASS, CheckReport

DEFAULT_ENUM_GUARD = 16
ENUM_GUARD_ENV = "FINCOMPLETE_ENUM_GUARD"

OPTIMALITY_NOTE = (
    "optimality (simultaneous minimal risk for every convex loss) is "
    "certified through measurability with respect to the optimal partition"
)


def resolve_enum_guard(explicit: int | None = None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(ENUM_GUARD_ENV)
    return int(env) if env else DEFAULT_ENUM_GUARD


@dataclass(frozen=True)
class Estimand:
    """A target value per parameter of the ambient model."""

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


def _expectation_rows(m: FiniteModel, sub: SubmodelRef):
    return [m.prob[i] for i in sub.param_indices]


def zero_unbiased_basis(m: FiniteModel, sub: SubmodelRef) -> list[RationalFunction]:
    """Canonical exact basis of the functions with zero expectation under
    every submodel member (possibly empty)."""
    sub.validate(m)
    basis = linalg.kernel_basis(_expectation_rows(m, sub), m.num_points)
    return [RationalFunction(v) for v in basis]


def unbiased_class(m: FiniteModel, sub: SubmodelRef, estimand: Estimand) -> UnbiasedClass:
    """Solve the unbiasedness equations; inestimability is a reported
    state, not an error."""
    sub.validate(m)
    rhs = [estimand.values[i] for i in sub.param_indices]
    sol = linalg.solve(_expectation_rows(m, sub), rhs)
    particular = RationalFunction(sol) if sol is not None else None
    return UnbiasedClass(particular, tuple(zero_unbiased_basis(m, sub)))


def _orthogonality_rows(m: FiniteModel, sub: SubmodelRef) -> list[tuple[int, ...]]:
    """Integer basis of the span of (h(x) P(x))_x over zero-unbiased h and
    submodel members P."""
    basis = zero_unbiased_basis(m, sub)
    raw = []
    for h in basis:
        for i in sub.param_indices:
            raw.append(tuple(v * p for v, p in zip(h.values, m.prob[i])))
    return [tuple(linalg.clear_denominators(row)) for row in linalg.row_space_basis(raw)]


def optimal_sigma_algebra(
    m: FiniteModel, sub: SubmodelRef, *, enum_guard: int | None = None
) -> Partition:
    """The partition of the optimal sigma-algebra of the submodel.

    Subsets are enumerated in Gray-code order with running orthogonality
    sums; the surviving family is checked to be exactly the unions of its
    atoms (closure under complement and intersection) and to contain every
    null set before the atoms are returned.
    """
    sub.validate(m)
    n = m.num_points
    guard = resolve_enum_guard(enum_guard)
    if n > guard:
        raise EnumerationGuardError(
            f"{n} points exceeds the enumeration guard of {guard}"
        )
    wrows = _orthogonality_rows(m, sub)
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


def is_optimal_unbiased(
    g: RationalFunction, m: FiniteModel, sub: SubmodelRef, *, enum_guard: int | None = None
) -> CheckReport:
    """Optimality of an estimator for its own expectation: constancy on
    every block of the optimal partition that meets the support union."""
    part = optimal_sigma_algebra(m, sub, enum_guard=enum_guard)
    su = support_union(m, sub)
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


def covariance_criterion(
    g: RationalFunction, m: FiniteModel, sub: SubmodelRef
) -> CheckReport:
    """Vanishing of P(g h) for every zero-unbiased h and submodel member.

    Measurability with respect to the optimal partition implies a pass;
    the converse for general g is reported by the comparison harness, not
    asserted.
    """
    sub.validate(m)
    basis = zero_unbiased_basis(m, sub)
    for j, h in enumerate(basis):
        prod = [a * b for a, b in zip(g.values, h.values)]
        for i in sub.param_indices:
            val = m.expectation(i, prod)
            if val != 0:
                witness = {"param": m.params[i], "basis_index": j, "value": val}
                return CheckReport("covariance-criterion", VERDICT_FAIL, witness, ())
    return CheckReport("covariance-criterion", VERDICT_PASS, None, ())


def umvue(
    m: FiniteModel, sub: SubmodelRef, estimand: Estimand, *, enum_guard: int | None = None
) -> UmvueResult:
    """The optimal unbiased estimator of an estimand, when one exists.

    Solves the unbiasedness equations over functions constant on the
    blocks of the optimal partition; blocks of total mass zero get the
    value 0.
    """
    sub.validate(m)
    part = optimal_sigma_algebra(m, sub, enum_guard=enum_guard)
    su = support_union(m, sub)
    blocks = part.blocks()
    live = [b for b in range(len(blocks)) if any(x in su for x in blocks[b])]
    rows = [
        tuple(m.event_mass(i, blocks[b]) for b in live) for i in sub.param_indices
    ]
    rhs = [estimand.values[i] for i in sub.param_indices]
    sol = linalg.solve(rows, rhs)
    if sol is None:
        estimable = linalg.solve(_expectation_rows(m, sub), rhs) is not None
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


def exists_complete_sufficient(
    m: FiniteModel, sub: SubmodelRef, *, enum_guard: int | None = None
) -> CheckReport:
    """Existence of a complete sufficient partition, decided outright:
    one exists exactly when the optimal partition is sufficient, and then
    the optimal partition is the canonical one (attached as witness)."""
    part = optimal_sigma_algebra(m, sub, enum_guard=enum_guard)
    suff = is_sufficient(part, m, sub)
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


def rao_blackwell(
    g: RationalFunction, c: Partition, m: FiniteModel, sub: SubmodelRef
) -> RationalFunction:
    """Conditional expectation of g given a sufficient partition.

    Sufficiency makes the block averages parameter-free wherever a block
    has positive mass (verified here); blocks of mass zero under every
    submodel member get the value 0.  Raises when the partition is not
    sufficient: the operation is undefined otherwise.
    """
    suff = is_sufficient(c, m, sub)
    if not suff.passed:
        raise NotSufficientError(f"partition is not sufficient: witness {suff.witness}")
    values = [Fraction(0)] * m.num_points
    for block in c.blocks():
        avg = None
        for i in sub.param_indices:
            mass = m.event_mass(i, block)
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


def meet_of_optimal_sigmas(
    m: FiniteModel, exhaustion, *, enum_guard: int | None = None
) -> tuple[Partition, CheckReport]:
    """Meet of the submodel optimal partitions along an exhaustion, with a
    report that the meet is coarser than or equal to the full-model
    optimal partition up to null sets (restricted to the support union)."""
    full_sub = SubmodelRef.full(m)
    covered = set()
    for _, piece in exhaustion.pieces:
        covered.update(piece.param_indices)
    if covered != set(range(m.num_params)):
        raise ExhaustionError("exhaustion does not cover the model")
    acc: Partition | None = None
    for _, piece in exhaustion.pieces:
        part = optimal_sigma_algebra(m, piece, enum_guard=enum_guard)
        acc = part if acc is None else meet(acc, part)
    assert acc is not None
    full_part = optimal_sigma_algebra(m, full_sub, enum_guard=enum_guard)
    su = support_union(m, full_sub)
    pts = sorted(su)
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            x, y = pts[a], pts[b]
            if full_part.block_id[x] == full_part.block_id[y] and acc.block_id[x] != acc.block_id[y]:
                witness = {"point_pair": (m.points[x], m.points[y])}
                return acc, CheckReport("optimal-meet-bound", VERDICT_FAIL, witness, ())
    return acc, CheckReport("optimal-meet-bound", VERDICT_PASS, None, ())
