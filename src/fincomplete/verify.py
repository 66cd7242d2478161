"""Executable theorem instances.

Every verifier is a declaration: ``X_hypotheses`` checks the
preconditions and returns a :class:`Hypotheses` of lazy checks, and
``verify_X`` returns its report.  The report evaluates every hypothesis
(never short-circuiting, so it localizes all gaps at once) and then the
conclusion, and classifies the outcome: verified, hypothesis unmet with the
conclusion still holding, or conclusion failing alongside a hypothesis gap.
A failing conclusion with all hypotheses passing would contradict a proved
theorem and is reported under its own status; the test suite treats
producing it as a bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from .checks import (
    _block_masses,
    is_ancillary,
    is_complete,
    is_complete_sufficient,
    is_homogeneous,
    is_minimal_sufficient,
    is_sufficient,
)
from .errors import ExhaustionError, GridError
from .model import (
    FiniteModel,
    Partition,
    RationalFunction,
    SubmodelRef,
    check_intersection_stable,
    component_roots,
    event_label,
    flatten_label,
    join,
    power_model,
    truncated_family,
    weighted_model,
)
from .optimal import is_optimal_unbiased
from .reports import VERDICT_FAIL, VERDICT_PASS, CheckReport, TheoremReport

INTEGRABILITY_NOTE = "vacuous on a finite sample space: every function is integrable"
INTEGRABILITY = CheckReport("integrability", VERDICT_PASS, None, (INTEGRABILITY_NOTE,))

Check = Callable[[], CheckReport]
Entry = tuple[str, str, Check]


@dataclass(frozen=True)
class Hypotheses:
    """A theorem instance as data: each hypothesis is a lazy ``(family,
    label, check)`` entry, and the conclusion a lazy check.

    ``families`` lists the droppable families in the order the hunt checks
    them.  An entry whose family is not listed is never dropped.
    """

    theorem: str
    families: tuple[str, ...]
    entries: tuple[Entry, ...]
    conclusion: Check

    def report(self) -> TheoremReport:
        """Every hypothesis in declaration order, then the conclusion."""
        hyps = tuple((label, check()) for _, label, check in self.entries)
        return TheoremReport(self.theorem, hyps, self.conclusion())

    def violated(self, dropped: str | None) -> bool:
        """Whether every hypothesis outside the ``dropped`` family passes
        while the conclusion fails.  Unlike :meth:`report` this stops at
        the first failure: it checks the droppable families one by one in
        ``families`` order, then the entries of no droppable family, and
        the conclusion last."""
        for family in self.families:
            if family != dropped and not all(
                check().passed for f, _, check in self.entries if f == family
            ):
                return False
        fixed = (check for f, _, check in self.entries if f not in self.families)
        return all(check().passed for check in fixed) and self.conclusion().failed


@dataclass(frozen=True)
class Exhaustion:
    """A labeled family of submodels covering the model."""

    label: str
    pieces: tuple[tuple[str, SubmodelRef], ...]

    @staticmethod
    def single(m: FiniteModel, label: str = "all") -> "Exhaustion":
        return Exhaustion(label, ((label, SubmodelRef.full(m)),))

    @staticmethod
    def by_coordinate(m: FiniteModel, coord: int, label: str | None = None) -> "Exhaustion":
        """One piece per distinct value of a tuple-label coordinate, each
        piece varying everything else."""
        values: list[str] = []
        for lab in m.params:
            flat = flatten_label(lab)
            if len(flat) <= coord:
                raise GridError("parameter labels lack the requested coordinate")
            if flat[coord] not in values:
                values.append(flat[coord])
        pieces = tuple(
            (v, SubmodelRef.section(m, coord, v)) for v in values
        )
        return Exhaustion(label or f"fix-coordinate-{coord}", pieces)

    def validate(self, m: FiniteModel) -> None:
        covered: set[int] = set()
        for _, piece in self.pieces:
            piece.validate(m)
            covered.update(piece.param_indices)
        if covered != set(range(m.num_params)):
            raise ExhaustionError(f"exhaustion {self.label!r} does not cover the model")

    def restrict(self, m: FiniteModel) -> tuple[tuple[str, FiniteModel], ...]:
        """Each piece's label and submodel, once the cover is checked."""
        self.validate(m)
        return tuple((eta, m.restrict_params(piece.param_indices)) for eta, piece in self.pieces)


def grid_axes(m: FiniteModel) -> tuple[list[str], list[str]]:
    """Axis values of a two-coordinate parameter grid, checked exhaustively."""
    axis1: list[str] = []
    axis2: list[str] = []
    for lab in m.params:
        flat = flatten_label(lab)
        if not isinstance(lab, tuple) or len(flat) != 2:
            raise GridError("parameters must be 2-tuples over a grid")
        if flat[0] not in axis1:
            axis1.append(flat[0])
        if flat[1] not in axis2:
            axis2.append(flat[1])
    expected = {(a, b) for a in axis1 for b in axis2}
    if set(m.params) != expected or len(m.params) != len(expected):
        raise GridError("parameters do not form a full product grid")
    return axis1, axis2


def _sectioned(
    check: Callable[..., CheckReport], m: FiniteModel, coord: int, v: str, *parts
) -> Check:
    """``check(*parts, section)``, building the section of ``m`` at
    ``coord == v`` only when the check runs."""
    return lambda: check(*parts, SubmodelRef.section(m, coord, v).restrict(m))


def _discretely_complete(m: FiniteModel) -> CheckReport:
    return is_complete(Partition.discrete(m.num_points), m)


def _join_complete(m: FiniteModel, c1: Partition, c2: Partition) -> CheckReport:
    return is_complete(join(c1, c2), m)


JOINT_COMPLETENESS_FAMILIES = ("completeness", "sufficiency")


def joint_completeness_hypotheses(
    m: FiniteModel, family: Sequence[tuple[Partition, Exhaustion]]
) -> Hypotheses:
    """Joint completeness from partial complete sufficiency: when each
    partition is complete sufficient for every piece of its exhaustion,
    the join of all partitions is complete for the whole model."""
    entries: list[Entry] = []
    joined: Partition | None = None
    for i, (part, exh) in enumerate(family):
        joined = part if joined is None else join(joined, part)
        for eta, piece in exh.restrict(m):
            at = f"[{exh.label}={eta}]"
            entries += [
                ("completeness", f"C{i + 1} complete{at}", partial(is_complete, part, piece)),
                ("sufficiency", f"C{i + 1} sufficient{at}", partial(is_sufficient, part, piece)),
            ]
    if joined is None:
        raise ExhaustionError("family must contain at least one partition")
    conclusion = partial(is_complete, joined, m)
    return Hypotheses("joint-completeness", JOINT_COMPLETENESS_FAMILIES, tuple(entries), conclusion)


def verify_joint_completeness(m: FiniteModel, family: Sequence[tuple[Partition, Exhaustion]]) -> TheoremReport:
    return joint_completeness_hypotheses(m, family).report()


TWO_BLOCK_GRID_FAMILIES = (
    "c1-sufficiency", "c1-completeness", "c2-sufficiency", "c2-completeness"
)


def two_block_grid_hypotheses(m: FiniteModel, c1: Partition, c2: Partition) -> Hypotheses:
    """The two-partition grid case of joint completeness: for a model
    parametrized by a product grid, complete sufficiency of the first
    partition along one axis and of the second along the other forces the
    join to be complete.  (Sufficiency of the join is not part of the
    conclusion and can genuinely fail.)"""
    axis1, axis2 = grid_axes(m)
    entries: list[Entry] = []
    for v in axis2:
        entries += [
            ("c1-completeness", f"c1-complete[axis2={v}]", _sectioned(is_complete, m, 1, v, c1)),
            ("c1-sufficiency", f"c1-sufficient[axis2={v}]", _sectioned(is_sufficient, m, 1, v, c1)),
        ]
    for v in axis1:
        entries += [
            ("c2-completeness", f"c2-complete[axis1={v}]", _sectioned(is_complete, m, 0, v, c2)),
            ("c2-sufficiency", f"c2-sufficient[axis1={v}]", _sectioned(is_sufficient, m, 0, v, c2)),
        ]
    conclusion = partial(_join_complete, m, c1, c2)
    return Hypotheses("two-block-grid", TWO_BLOCK_GRID_FAMILIES, tuple(entries), conclusion)


def verify_two_block_grid(m: FiniteModel, c1: Partition, c2: Partition) -> TheoremReport:
    return two_block_grid_hypotheses(m, c1, c2).report()


def cks_product(q: FiniteModel, r: FiniteModel) -> FiniteModel:
    """The coupled product {Q_a (x) R_(a,b)} of a first-coordinate family
    and a grid-indexed second-coordinate family."""
    axis1, _ = grid_axes(r)
    q_labels = [flatten_label(lab)[0] for lab in q.params]
    if q_labels != axis1:
        raise GridError("first grid axis must list the first family's parameters")
    points = tuple(f"({x},{y})" for x in q.points for y in r.points)
    rows = []
    for i, lab in enumerate(r.params):
        qi = q_labels.index(flatten_label(lab)[0])
        rows.append(tuple(pa * pb for pa in q.prob[qi] for pb in r.prob[i]))
    return FiniteModel(points, r.params, tuple(rows))


# The integrability entry always passes, so no droppable family tags it.
CKS_FAMILIES = ("q-completeness", "r-completeness", "homogeneity")


def cks_hypotheses(q: FiniteModel, r: FiniteModel) -> Hypotheses:
    """Cramer-Kamps-Schenk completeness of a coupled product: completeness
    of the first family, per-first-coordinate completeness of the second,
    and per-second-coordinate homogeneity of the second yield completeness
    of the coupled product, which is built only when the conclusion is
    checked.  The integrability hypothesis of the general statement is
    vacuous on finite spaces and recorded as such."""
    axis1, axis2 = grid_axes(r)
    discrete = Partition.discrete(r.num_points)
    entries: list[Entry] = [
        ("q-completeness", "first-family-complete", partial(_discretely_complete, q))
    ]
    for v in axis1:
        check = _sectioned(is_complete, r, 0, v, discrete)
        entries.append(("r-completeness", f"second-family-complete[axis1={v}]", check))
    for v in axis2:
        check = _sectioned(is_homogeneous, r, 1, v)
        entries.append(("homogeneity", f"second-family-homogeneous[axis2={v}]", check))
    entries.append(("integrability", "integrability", lambda: INTEGRABILITY))
    return Hypotheses(
        "cks", CKS_FAMILIES, tuple(entries), lambda: _discretely_complete(cks_product(q, r))
    )


def verify_cks(q: FiniteModel, r: FiniteModel) -> TheoremReport:
    return cks_hypotheses(q, r).report()


def _marginal_support_report(c: Partition, m: FiniteModel) -> CheckReport:
    """Homogeneity of the restricted family: supports of the block-mass
    vectors must agree across the model."""
    _, _, live, rows = _block_masses(c, m)
    base = [v > 0 for v in rows[0]]
    for j in range(1, len(rows)):
        other = [v > 0 for v in rows[j]]
        if other != base:
            k = next(k for k in range(len(live)) if base[k] != other[k])
            witness = {
                "block": tuple(m.points[y] for y in c.blocks()[live[k]]),
                "params": (m.params[0], m.params[j]),
            }
            return CheckReport("restricted-homogeneous", VERDICT_FAIL, witness, ())
    return CheckReport("restricted-homogeneous", VERDICT_PASS, None, ())


def cks_rewrite_hypotheses(m: FiniteModel, c1: Partition, c2: Partition) -> Hypotheses:
    """The grid rewrite of the coupled-product completeness theorem:
    per-axis2 completeness of the first partition; per-axis1 ancillarity
    of the first plus complete sufficiency of the second; per-axis2
    homogeneity of the model restricted to the second partition.  The
    conclusion is completeness of the join."""
    axis1, axis2 = grid_axes(m)
    entries: list[Entry] = []
    for v in axis2:
        entries.append(("c1-completeness", f"c1-complete[axis2={v}]", _sectioned(is_complete, m, 1, v, c1)))
    for v in axis1:
        entries.append(("c1-ancillarity", f"c1-ancillary[axis1={v}]", _sectioned(is_ancillary, m, 0, v, c1)))
        check = _sectioned(is_complete_sufficient, m, 0, v, c2)
        entries.append(("c2-complete-sufficiency", f"c2-complete-sufficient[axis1={v}]", check))
    for v in axis2:
        check = _sectioned(_marginal_support_report, m, 1, v, c2)
        entries.append(("c2-homogeneity", f"c2-marginal-homogeneous[axis2={v}]", check))
    entries.append(("integrability", "integrability", lambda: INTEGRABILITY))
    return Hypotheses("cks-rewrite", (), tuple(entries), partial(_join_complete, m, c1, c2))


def verify_cks_rewrite(m: FiniteModel, c1: Partition, c2: Partition) -> TheoremReport:
    return cks_rewrite_hypotheses(m, c1, c2).report()


def _connectedness_report(m: FiniteModel, family) -> CheckReport:
    """Connectivity of the graph on parameters with an edge whenever two
    parameters share an exhaustion piece."""
    groups = [piece.param_indices for _, exh in family for _, piece in exh.pieces]
    roots = sorted(set(component_roots(m.num_params, groups)))
    if len(roots) == 1:
        return CheckReport("connected", VERDICT_PASS, None, ())
    witness = {"components": tuple(m.params[r] for r in roots)}
    return CheckReport("connected", VERDICT_FAIL, witness, ())


def _sufficient_somewhere(c: Partition, pieces) -> CheckReport:
    """Sufficiency of ``c`` for some piece, with each piece's verdict noted."""
    results = [(eta, is_sufficient(c, piece)) for eta, piece in pieces]
    verdict = VERDICT_PASS if any(r.passed for _, r in results) else VERDICT_FAIL
    notes = tuple(f"piece {eta}: {r.verdict}" for eta, r in results)
    return CheckReport("sufficient-somewhere", verdict, None, notes)


def homogeneous_connected_hypotheses(
    m: FiniteModel, family: Sequence[tuple[Partition, Exhaustion]], mode: str, *, weak: bool = False
) -> Hypotheses:
    """For a homogeneous model with connected exhaustions, the per-piece
    property of each partition (sufficient, minimal sufficient, or
    complete sufficient, per ``mode``) transfers to the join.

    ``weak`` implements the two-partition grid refinement for
    mode="sufficient": sufficiency of the second partition is required for
    just one piece of its exhaustion.
    """
    checks = {"sufficient": is_sufficient, "minimal": is_minimal_sufficient, "complete": is_complete_sufficient}
    if mode not in checks:
        raise ValueError(f"unknown mode {mode!r}")
    if weak and (mode != "sufficient" or len(family) != 2):
        raise ValueError("weak form applies to mode='sufficient' with two partitions")
    check = checks[mode]
    entries: list[Entry] = [
        ("homogeneity", "homogeneous", partial(is_homogeneous, m)),
        ("connectedness", "connected", partial(_connectedness_report, m, family)),
    ]
    joined: Partition | None = None
    for i, (part, exh) in enumerate(family):
        joined = part if joined is None else join(joined, part)
        pieces = exh.restrict(m)
        if weak and i == 1:
            entries.append((mode, "C2 sufficient[some piece]", partial(_sufficient_somewhere, part, pieces)))
        else:
            for eta, piece in pieces:
                entries.append((mode, f"C{i + 1} {mode}[{exh.label}={eta}]", partial(check, part, piece)))
    if joined is None:
        raise ExhaustionError("family must contain at least one partition")
    conclusion = partial(check, joined, m)
    return Hypotheses(f"homogeneous-connected[{mode}]", (), tuple(entries), conclusion)


def verify_homogeneous_connected(
    m: FiniteModel, family: Sequence[tuple[Partition, Exhaustion]], mode: str, *, weak: bool = False
) -> TheoremReport:
    return homogeneous_connected_hypotheses(m, family, mode, weak=weak).report()


def _stability_report(m0: FiniteModel, events) -> CheckReport:
    evs = [frozenset(e) for e in events]
    bad = check_intersection_stable(evs)
    if bad is None:
        return CheckReport("events-intersection-stable", VERDICT_PASS, None, ())
    i, j = bad
    witness = {"events": (event_label(m0, evs[i]), event_label(m0, evs[j]))}
    return CheckReport("events-intersection-stable", VERDICT_FAIL, witness, ())


def truncation_family_hypotheses(m0: FiniteModel, events, n: int) -> Hypotheses:
    """For one base distribution and an intersection-stable event list,
    the sigma-algebra generated by the event powers is sufficient and
    complete for the family of event-conditioned i.i.d. powers.

    "One distribution" is checked as the trivial partition being complete
    sufficient for the base model, which holds exactly when all base rows
    are equal, and so exactly when it holds for the n-fold power."""
    model, sig = truncated_family(m0, events, n, require_stable=False)
    entries: tuple[Entry, ...] = (
        ("stability", "events-intersection-stable", partial(_stability_report, m0, events)),
        ("single-distribution", "base-single-distribution",
         partial(is_complete_sufficient, Partition.trivial(m0.num_points), m0)),
    )
    conclusion = partial(is_complete_sufficient, sig, model)
    return Hypotheses("truncation-family", (), entries, conclusion)


def verify_truncation_family(m0: FiniteModel, events, n: int) -> TheoremReport:
    return truncation_family_hypotheses(m0, events, n).report()


def truncation_exhaustions(
    m0: FiniteModel, model: FiniteModel
) -> tuple[Exhaustion, Exhaustion]:
    """The two canonical exhaustions of a truncated family: pieces fixing
    the event, and pieces fixing the base parameter."""
    base_width = len(flatten_label(m0.params[0]))
    by_event: dict[str, list[int]] = {}
    by_param: dict[tuple, list[int]] = {}
    for i, lab in enumerate(model.params):
        flat = flatten_label(lab)
        by_event.setdefault(flat[base_width], []).append(i)
        by_param.setdefault(flat[:base_width], []).append(i)
    ev_pieces = tuple(
        (label, SubmodelRef(tuple(idx))) for label, idx in by_event.items()
    )
    par_pieces = tuple(
        (",".join(label), SubmodelRef(tuple(idx))) for label, idx in by_param.items()
    )
    return Exhaustion("fix-event", ev_pieces), Exhaustion("fix-base-param", par_pieces)


def unknown_truncation_hypotheses(m0: FiniteModel, c: Partition, events, n: int) -> Hypotheses:
    """Complete sufficiency survives truncation by an unknown event: when
    the event list is intersection-stable and ``c`` (a partition of the
    n-fold power space) is complete sufficient for the power family, the
    join of ``c`` with the event-power sigma-algebra is complete
    sufficient for the truncated family.

    The proof route (weighting permanence along fixed events, plus the
    truncation-family result along fixed base parameters, combined by
    joint completeness) is re-run and its status recorded in the notes.
    """
    powered = power_model(m0, n)
    model, sig = truncated_family(m0, events, n, require_stable=False)
    entries: tuple[Entry, ...] = (
        ("stability", "events-intersection-stable", partial(_stability_report, m0, events)),
        ("base-complete-sufficiency", "base-complete-sufficient",
         partial(is_complete_sufficient, c, powered)),
    )

    def conclusion() -> CheckReport:
        result = is_complete_sufficient(join(c, sig), model)
        by_event, by_param = truncation_exhaustions(m0, model)
        route = verify_joint_completeness(model, [(c, by_event), (sig, by_param)])
        return result.with_notes(f"joint-completeness proof route status: {route.status}")

    return Hypotheses("unknown-truncation", (), entries, conclusion)


def verify_unknown_truncation(m0: FiniteModel, c: Partition, events, n: int) -> TheoremReport:
    return unknown_truncation_hypotheses(m0, c, events, n).report()


def smith_hypotheses(m: FiniteModel, c: Partition, q: RationalFunction, mode: str = "b") -> Hypotheses:
    """Permanence of (complete) sufficiency under a fixed nonnegative
    weighting: mode "a" carries sufficiency to the weighted model, mode
    "b" carries complete sufficiency."""
    if mode not in ("a", "b"):
        raise ValueError(f"unknown mode {mode!r}")
    weighted = weighted_model(m, q)
    entries: list[Entry] = [("sufficiency", "sufficient-for-base", partial(is_sufficient, c, m))]
    if mode == "b":
        entries.append(("completeness", "complete-for-base", partial(is_complete, c, m)))
    carried = is_sufficient if mode == "a" else is_complete_sufficient
    conclusion = partial(carried, c, weighted)
    return Hypotheses(f"smith-weighting[{mode}]", (), tuple(entries), conclusion)


def verify_smith(m: FiniteModel, c: Partition, q: RationalFunction, mode: str = "b") -> TheoremReport:
    return smith_hypotheses(m, c, q, mode).report()


def bondesson_hypotheses(m: FiniteModel, exhaustion: Exhaustion, g: RationalFunction) -> Hypotheses:
    """Piecewise optimality implies optimality: an estimator optimal
    unbiased in every piece of an exhaustion is optimal unbiased in the
    whole model."""
    entries = tuple(
        ("optimality", f"optimal[{exhaustion.label}={eta}]", partial(is_optimal_unbiased, g, piece))
        for eta, piece in exhaustion.restrict(m)
    )
    return Hypotheses("bondesson", (), entries, partial(is_optimal_unbiased, g, m))


def verify_bondesson(m: FiniteModel, exhaustion: Exhaustion, g: RationalFunction) -> TheoremReport:
    return bondesson_hypotheses(m, exhaustion, g).report()
