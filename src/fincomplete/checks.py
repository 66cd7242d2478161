"""Decision procedures for structural properties of a partition relative to
a model: completeness, sufficiency, minimal sufficiency, ancillarity,
independence, homogeneity, and the Basu consistency check.

Completeness of a partition C for a model is a rank condition: with B+
the blocks of C meeting the model's support union, C is complete exactly
when the parameter-by-block matrix of block masses has trivial kernel.  A
nontrivial kernel vector, lifted to a block-constant function, is a
certificate of incompleteness (its expectations vanish yet it is nonzero on
the support union).

Every per-block check reads integer block masses, built once per call by
``_block_masses``: each member's row is scaled to integers and its block
masses summed in ``int``, which keeps rank, kernel and every
cross-multiplication.  A mass in a witness is the integer mass over its
row's scale, a ``Fraction``.

All witnesses are minimal in a fixed scan order (first failing block, then
point, then parameter pair), so reports are reproducible byte for byte.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import CertificateError
from .model import FiniteModel, Partition, RationalFunction, support_union
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


def _require_size(x: Partition | RationalFunction, m: FiniteModel, what: str = "partition") -> None:
    """Reject a point-indexed argument whose length is not the point count."""
    if x.size != m.num_points:
        raise ValueError(f"{what} has {x.size} points, the model {m.num_points}")


def _block_masses(c: Partition, m: FiniteModel):
    """Per member, in model order: the positive integer ``s`` its row is
    scaled by and the scaled row; then the live blocks (nonzero mass: on
    nonnegative masses, the blocks meeting the support union) and each
    member's scaled live block masses, summed in ``int``.  Each mass is the
    true mass times ``s``, which changes no rank, kernel or
    cross-multiplication."""
    _require_size(c, m)
    scales, points = zip(*map(linalg.scale_to_integers, m.prob))
    sums = []
    for ints in points:
        masses = [0] * c.num_blocks
        for b, v in zip(c.block_id, ints):
            masses[b] += v
        sums.append(masses)
    live = [b for b, column in enumerate(zip(*sums)) if any(column)]
    return scales, points, live, [[row[b] for b in live] for row in sums]


def _complete(c: Partition, live: list[int], rows: list[list[int]]) -> CheckReport:
    rank = linalg.fraction_free_rank(rows) if live else 0
    notes = (f"support blocks: {len(live)}", f"rank: {rank}")
    if rank == len(live):
        return CheckReport("complete", VERDICT_PASS, None, notes)
    vec = linalg.first_kernel_vector(rows, len(live))
    if vec is None or len(vec) != len(live) or not any(vec) or any(
        sum(a * v for a, v in zip(row, vec) if v) for row in rows
    ):
        raise CertificateError("incompleteness witness failed its exact re-check (M v = 0, v != 0)")
    by_block = dict(zip(live, vec))
    witness = RationalFunction(tuple(by_block.get(b, Fraction(0)) for b in c.block_id))
    return CheckReport("complete", VERDICT_FAIL, {"function": witness}, notes)


def is_complete(c: Partition, m: FiniteModel) -> CheckReport:
    """Decide completeness of the partition for the model.

    Pass means: every block-constant function with zero expectation under
    all members vanishes on the support union.  On fail the witness is
    such a function that is not almost surely zero; it is re-checked
    exactly (M v = 0, v != 0) before it is returned, and a vector failing
    that raises ``CertificateError`` instead.
    """
    _, _, live, rows = _block_masses(c, m)
    return _complete(c, live, rows)


def is_boundedly_complete(c: Partition, m: FiniteModel) -> CheckReport:
    rep = is_complete(c, m)
    return CheckReport("boundedly-complete", rep.verdict, rep.witness, rep.notes + (FINITE_BOUNDED_NOTE,))


def _sufficient(c: Partition, m: FiniteModel, points, live, rows) -> CheckReport:
    blocks = c.blocks()
    for k, b in enumerate(live):
        positive = [(i, row[k]) for i, row in enumerate(rows) if row[k] > 0]
        if not positive:
            continue
        i, ti = positive[0]
        for j, tj in positive[1:]:
            for x in blocks[b]:
                if points[i][x] * tj != points[j][x] * ti:
                    witness = {
                        "point": m.points[x],
                        "block": tuple(m.points[y] for y in blocks[b]),
                        "params": (m.params[i], m.params[j]),
                    }
                    return CheckReport("sufficient", VERDICT_FAIL, witness, ())
    return CheckReport("sufficient", VERDICT_PASS, None, ())


def is_sufficient(c: Partition, m: FiniteModel) -> CheckReport:
    """Decide sufficiency: conditional masses within each block must agree
    across all parameters giving the block positive mass.

    The comparison is by cross-multiplication, P(x) P'(B) = P'(x) P(B), so
    no division occurs.  Agreement is transitive, so each member is
    compared with the first one giving the block positive mass only.  On
    fail the witness names the first offending (point, block, parameter
    pair), the same one an all-pairs scan finds first.
    """
    _, points, live, rows = _block_masses(c, m)
    return _sufficient(c, m, points, live, rows)


def is_complete_sufficient(c: Partition, m: FiniteModel) -> CheckReport:
    """Completeness and sufficiency, combined as "complete-sufficient",
    from one set of block masses."""
    _, points, live, rows = _block_masses(c, m)
    return combine_reports(
        "complete-sufficient", _complete(c, live, rows), _sufficient(c, m, points, live, rows)
    )


def minimal_sufficient_partition(m: FiniteModel) -> Partition:
    """The minimal sufficient partition: on the support union, points share
    a block exactly when their likelihood vectors are proportional, that
    is, when the primitive integer vectors on their rays are equal.

    Points outside the support union, whose likelihood vectors are zero,
    share the zero vector's key and so form one dedicated extra block; the
    construction is only almost surely determined there, and the fixed
    convention keeps minimality decidable.  Comparisons elsewhere in this
    module are always restricted to the support union.
    """
    return Partition(tuple(linalg.primitive(linalg.clear_denominators(column)) for column in zip(*m.prob)))


def is_minimal_sufficient(c: Partition, m: FiniteModel) -> CheckReport:
    """Sufficiency plus agreement with the minimal sufficient partition on
    the support union (equality up to null sets)."""
    suff = is_sufficient(c, m)
    minimal = minimal_sufficient_partition(m)
    su = support_union(m)
    agrees = c.restricted_blocks(su) == minimal.restricted_blocks(su)
    notes: tuple[str, ...] = ()
    if not is_homogeneous(m).passed:
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


def is_ancillary(c: Partition, m: FiniteModel) -> CheckReport:
    """Ancillarity: every block mass is constant across the model.
    Masses are compared by cross-multiplying with the row scales; a block
    of mass zero under every member never fails."""
    scales, _, live, rows = _block_masses(c, m)
    for k, b in enumerate(live):
        for j in range(1, len(rows)):
            if rows[j][k] * scales[0] != rows[0][k] * scales[j]:
                witness = {
                    "block": tuple(m.points[y] for y in c.blocks()[b]),
                    "params": (m.params[0], m.params[j]),
                    "masses": (Fraction(rows[0][k], scales[0]), Fraction(rows[j][k], scales[j])),
                }
                return CheckReport("ancillary", VERDICT_FAIL, witness, ())
    return CheckReport("ancillary", VERDICT_PASS, None, ())


def are_independent(c1: Partition, c2: Partition, m: FiniteModel) -> CheckReport:
    """Independence of two partitions under every member.  On a member's
    row scaled to integers by ``s``, P(B1 & B2) = P(B1) P(B2) reads
    s joint = p1 p2."""
    scales, points, _, _ = _block_masses(c1, m)
    _require_size(c2, m)
    blocks1 = [set(b) for b in c1.blocks()]
    blocks2 = [set(b) for b in c2.blocks()]
    for param, s, ints in zip(m.params, scales, points):
        for b1 in blocks1:
            p1 = sum(ints[x] for x in b1)
            for b2 in blocks2:
                p2 = sum(ints[x] for x in b2)
                joint = sum(ints[x] for x in b1 & b2)
                if joint * s != p1 * p2:
                    witness = {
                        "block1": tuple(m.points[y] for y in sorted(b1)),
                        "block2": tuple(m.points[y] for y in sorted(b2)),
                        "param": param,
                        "joint": Fraction(joint, s),
                        "product": Fraction(p1 * p2, s * s),
                    }
                    return CheckReport("independent", VERDICT_FAIL, witness, ())
    return CheckReport("independent", VERDICT_PASS, None, ())


def is_homogeneous(m: FiniteModel) -> CheckReport:
    """Mutual absolute continuity; on a finite space, equal supports."""
    base = set(m.support(0))
    for j in range(1, m.num_params):
        supp = set(m.support(j))
        if supp != base:
            x = min(base.symmetric_difference(supp))
            witness = {"params": (m.params[0], m.params[j]), "point": m.points[x]}
            return CheckReport("homogeneous", VERDICT_FAIL, witness, ())
    return CheckReport("homogeneous", VERDICT_PASS, None, ())


# the properties of one partition, by name, and the check of this module
# that decides each; ``check_partition`` looks the check up when called, so
# rebinding the module attribute (as ``bench/tracer.py`` does) reaches it
PARTITION_CHECKS = {
    "complete": "is_complete",
    "boundedly-complete": "is_boundedly_complete",
    "sufficient": "is_sufficient",
    "minimal-sufficient": "is_minimal_sufficient",
    "ancillary": "is_ancillary",
}


def check_partition(prop: str, c: Partition, m: FiniteModel) -> CheckReport:
    """Decide the one-partition property named ``prop``."""
    return globals()[PARTITION_CHECKS[prop]](c, m)


def basu_consistency(c_cs: Partition, c_anc: Partition, m: FiniteModel) -> CheckReport:
    """Basu's theorem as a consistency check: when the first partition is
    complete sufficient and the second ancillary, the two must be
    independent.  When the hypotheses fail the verdict is vacuous."""
    _, points, live, rows = _block_masses(c_cs, m)
    hyp = combine_reports(
        "basu-hypotheses",
        _complete(c_cs, live, rows),
        _sufficient(c_cs, m, points, live, rows),
        is_ancillary(c_anc, m),
    )
    if hyp.failed:
        return CheckReport(
            "basu-consistency",
            VERDICT_VACUOUS,
            None,
            ("hypotheses not met",) + hyp.notes,
        )
    indep = are_independent(c_cs, c_anc, m)
    return CheckReport("basu-consistency", indep.verdict, indep.witness, hyp.notes + indep.notes)
