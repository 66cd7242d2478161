"""Decision procedures for structural properties of a partition relative to
a submodel: completeness, sufficiency, minimal sufficiency, ancillarity,
independence, homogeneity, and the Basu consistency check.

Completeness of a partition C for a submodel is a rank condition: with B+
the blocks of C meeting the submodel's support union, C is complete exactly
when the parameter-by-block matrix of block masses has trivial kernel.  A
nontrivial kernel vector, lifted to a block-constant function, is a
certificate of incompleteness (its expectations vanish yet it is nonzero on
the support union).

All witnesses are minimal in a fixed scan order (first failing block, then
point, then parameter pair), so reports are reproducible byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import linalg
from .errors import CertificateError
from .model import FiniteModel, Partition, RationalFunction, SubmodelRef, support_union
from .reports import (
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_VACUOUS,
    CheckReport,
    combine_reports,
)

FINITE_BOUNDED_NOTE = (
    "on a finite sample space every function is bounded, so bounded "
    "completeness coincides with completeness"
)


def _support_blocks(c: Partition, su: frozenset[int]) -> list[int]:
    """Block ids of c meeting the support union, in canonical block order."""
    hit = {c.block_id[x] for x in su}
    return [b for b in range(c.num_blocks) if b in hit]


def _lift_block_vector(c: Partition, live: list[int], vec) -> RationalFunction:
    by_block = dict(zip(live, vec))
    zero = Fraction(0)
    return RationalFunction(tuple(by_block.get(b, zero) for b in c.block_id))


def is_complete(c: Partition, m: FiniteModel, sub: SubmodelRef) -> CheckReport:
    """Decide completeness of the partition for the submodel.

    Pass means: every block-constant function with zero expectation under
    all submodel members vanishes on the support union.  On fail the
    witness is such a function that is not almost surely zero; it is
    re-checked exactly (M v = 0, v != 0) before it is returned, and a
    vector failing that raises ``CertificateError`` instead.
    """
    sub.validate(m)
    su = support_union(m, sub)
    live = _support_blocks(c, su)
    blocks = c.blocks()
    rows = [
        tuple(m.event_mass(i, blocks[b]) for b in live) for i in sub.param_indices
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


def is_boundedly_complete(c: Partition, m: FiniteModel, sub: SubmodelRef) -> CheckReport:
    rep = is_complete(c, m, sub)
    return CheckReport("boundedly-complete", rep.verdict, rep.witness, rep.notes + (FINITE_BOUNDED_NOTE,))


def is_sufficient(c: Partition, m: FiniteModel, sub: SubmodelRef) -> CheckReport:
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
        positive = [(i, t) for i in sub.param_indices if (t := m.event_mass(i, block)) > 0]
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


def _ray_key(column) -> tuple[int, ...] | str:
    """The primitive integer vector on the ray through a likelihood vector,
    first nonzero entry positive: equal exactly for proportional vectors.
    The zero vector, a point off the support union, is "off-support"."""
    ints = linalg.clear_denominators(column)
    g = gcd(*ints)
    if g == 0:
        return "off-support"
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def minimal_sufficient_partition(m: FiniteModel, sub: SubmodelRef) -> Partition:
    """The minimal sufficient partition: on the support union, points share
    a block exactly when their likelihood vectors are proportional, that
    is, when they have the same ray key.

    Points outside the support union form one dedicated extra block; the
    construction is only almost surely determined there, and the fixed
    convention keeps minimality decidable.  Comparisons elsewhere in this
    module are always restricted to the support union.
    """
    sub.validate(m)
    columns = zip(*(m.prob[i] for i in sub.param_indices))
    return Partition(tuple(_ray_key(column) for column in columns))


def is_minimal_sufficient(c: Partition, m: FiniteModel, sub: SubmodelRef) -> CheckReport:
    """Sufficiency plus agreement with the minimal sufficient partition on
    the support union (equality up to null sets)."""
    suff = is_sufficient(c, m, sub)
    minimal = minimal_sufficient_partition(m, sub)
    su = support_union(m, sub)
    agrees = c.restricted_blocks(su) == minimal.restricted_blocks(su)
    notes: tuple[str, ...] = ()
    if not is_homogeneous(m, sub).passed:
        notes += (
            "family not homogeneous; minimality is decided by the finite-space "
            "likelihood-vector construction restricted to the support union",
        )
    if suff.failed:
        return CheckReport("minimal-sufficient", VERDICT_FAIL, suff.witness, notes + ("not sufficient",))
    if not agrees:
        pair = _first_disagreeing_pair(c, minimal, su)
        witness = {"point_pair": (m.points[pair[0]], m.points[pair[1]])}
        return CheckReport(
            "minimal-sufficient", VERDICT_FAIL, witness, notes + ("sufficient but not minimal",)
        )
    return CheckReport("minimal-sufficient", VERDICT_PASS, None, notes)


def _first_disagreeing_pair(p: Partition, q: Partition, su: frozenset[int]) -> tuple[int, int]:
    pts = sorted(su)
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            x, y = pts[a], pts[b]
            same_p = p.block_id[x] == p.block_id[y]
            same_q = q.block_id[x] == q.block_id[y]
            if same_p != same_q:
                return (x, y)
    raise AssertionError("partitions agree on the subset")


def is_ancillary(c: Partition, m: FiniteModel, sub: SubmodelRef) -> CheckReport:
    """Ancillarity: every block mass is constant across the submodel."""
    sub.validate(m)
    idx = sub.param_indices
    for block in c.blocks():
        first = m.event_mass(idx[0], block)
        for j in idx[1:]:
            other = m.event_mass(j, block)
            if other != first:
                witness = {
                    "block": tuple(m.points[y] for y in block),
                    "params": (m.params[idx[0]], m.params[j]),
                    "masses": (first, other),
                }
                return CheckReport("ancillary", VERDICT_FAIL, witness, ())
    return CheckReport("ancillary", VERDICT_PASS, None, ())


def are_independent(
    c1: Partition, c2: Partition, m: FiniteModel, sub: SubmodelRef
) -> CheckReport:
    """Independence of two partitions under every submodel member."""
    sub.validate(m)
    blocks1 = [set(b) for b in c1.blocks()]
    blocks2 = [set(b) for b in c2.blocks()]
    for i in sub.param_indices:
        for b1 in blocks1:
            p1 = m.event_mass(i, b1)
            for b2 in blocks2:
                p2 = m.event_mass(i, b2)
                joint = m.event_mass(i, b1 & b2)
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


def is_homogeneous(m: FiniteModel, sub: SubmodelRef) -> CheckReport:
    """Mutual absolute continuity; on a finite space, equal supports."""
    sub.validate(m)
    idx = sub.param_indices
    base = m.support(idx[0])
    base_set = set(base)
    for j in idx[1:]:
        supp = set(m.support(j))
        if supp != base_set:
            x = min(base_set.symmetric_difference(supp))
            witness = {"params": (m.params[idx[0]], m.params[j]), "point": m.points[x]}
            return CheckReport("homogeneous", VERDICT_FAIL, witness, ())
    return CheckReport("homogeneous", VERDICT_PASS, None, ())


def basu_consistency(
    c_cs: Partition, c_anc: Partition, m: FiniteModel, sub: SubmodelRef
) -> CheckReport:
    """Basu's theorem as a consistency check: when the first partition is
    complete sufficient and the second ancillary, the two must be
    independent.  When the hypotheses fail the verdict is vacuous."""
    hyp = combine_reports(
        "basu-hypotheses",
        is_complete(c_cs, m, sub),
        is_sufficient(c_cs, m, sub),
        is_ancillary(c_anc, m, sub),
    )
    if hyp.failed:
        return CheckReport(
            "basu-consistency",
            VERDICT_VACUOUS,
            None,
            ("hypotheses not met",) + hyp.notes,
        )
    indep = are_independent(c_cs, c_anc, m, sub)
    return CheckReport("basu-consistency", indep.verdict, indep.witness, hyp.notes + indep.notes)
