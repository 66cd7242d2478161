"""Optimal unbiased estimation on finite models.

The zero-unbiased space of a submodel is the kernel of its expectation
matrix.  The optimal partition is the partition of the sigma-algebra of
events A with P(1_A h) = 0 for every zero-unbiased h and every submodel
member P, i.e. of the A whose indicator lies in the kernel of the rows
W = (h(x) P(x))_x.  A function f is in that kernel exactly when f h is
zero-unbiased for every zero-unbiased h, so the kernel contains the
constants and is closed under pointwise product: it is exactly the
functions constant on the atoms, and one kernel basis gives the atoms as
the classes of points with equal coordinates, in polynomial time.
Optimality of an estimator, defined as simultaneous minimal risk for every
convex loss among unbiased estimators of the same estimand, is equivalent
to measurability with respect to this partition, which is what the
procedures here certify; quantification over losses is never attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .checks import _block_masses, is_sufficient
from .errors import CertificateError, ExhaustionError, NotSufficientError
from .model import (
    FiniteModel,
    Partition,
    RationalFunction,
    SubmodelRef,
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


def optimal_sigma_algebra(m: FiniteModel, sub: SubmodelRef) -> Partition:
    """The partition of the optimal sigma-algebra of the submodel.

    The atoms are the classes of points with equal coordinates across a
    basis of the kernel of W, the rows (h(x) P(x))_x over zero-unbiased h
    and submodel members P, each scaled to integers (which changes neither
    the kernel nor which sums vanish).  Before they are returned, every
    row of W is re-checked to sum to zero over every atom (each atom is in
    the sigma-algebra) and the atom count to equal the kernel dimension
    (no finer partition fits); a failure raises ``CertificateError``.
    """
    hs = [linalg.clear_denominators(h.values) for h in zero_unbiased_basis(m, sub)]
    ps = [linalg.clear_denominators(m.prob[i]) for i in sub.param_indices]
    rows = [tuple(a * b for a, b in zip(h, p)) for h in hs for p in ps]
    basis = linalg.kernel_basis(rows, m.num_points)
    part = Partition(tuple(zip(*basis)))
    blocks = part.blocks()
    if len(blocks) != len(basis) or any(sum(row[x] for x in b) for row in rows for b in blocks):
        raise CertificateError(
            "optimal partition failed its exact re-check (W 1_A = 0 per atom, atoms = dim ker W)"
        )
    return part


def is_optimal_unbiased(
    g: RationalFunction, m: FiniteModel, sub: SubmodelRef
) -> CheckReport:
    """Optimality of an estimator for its own expectation: constancy on
    every block of the optimal partition that meets the support union."""
    part = optimal_sigma_algebra(m, sub)
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
    m: FiniteModel, sub: SubmodelRef, estimand: Estimand
) -> UmvueResult:
    """The optimal unbiased estimator of an estimand, when one exists.

    Solves the unbiasedness equations over functions constant on the
    blocks of the optimal partition; blocks of total mass zero get the
    value 0.
    """
    part = optimal_sigma_algebra(m, sub)
    scales, _, live, rows = _block_masses(part, m, sub)
    rhs = [estimand.values[i] for i in sub.param_indices]
    sol = linalg.solve(rows, [v * s for v, s in zip(rhs, scales)])
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
    atom_values = tuple(by_block.get(b, zero) for b in range(part.num_blocks))
    values = tuple(atom_values[b] for b in part.block_id)
    return UmvueResult(
        RationalFunction(values), part, atom_values, "unique up to null sets"
    )


def exists_complete_sufficient(
    m: FiniteModel, sub: SubmodelRef
) -> CheckReport:
    """Existence of a complete sufficient partition, decided outright:
    one exists exactly when the optimal partition is sufficient, and then
    the optimal partition is the canonical one (attached as witness)."""
    part = optimal_sigma_algebra(m, sub)
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
    m: FiniteModel, exhaustion
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
        part = optimal_sigma_algebra(m, piece)
        acc = part if acc is None else meet(acc, part)
    assert acc is not None
    full_part = optimal_sigma_algebra(m, full_sub)
    su = support_union(m, full_sub)
    pts = sorted(su)
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            x, y = pts[a], pts[b]
            if full_part.block_id[x] == full_part.block_id[y] and acc.block_id[x] != acc.block_id[y]:
                witness = {"point_pair": (m.points[x], m.points[y])}
                return acc, CheckReport("optimal-meet-bound", VERDICT_FAIL, witness, ())
    return acc, CheckReport("optimal-meet-bound", VERDICT_PASS, None, ())
