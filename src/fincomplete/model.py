"""Finite statistical models, partitions as sub-sigma-algebras, and the
standard model constructors (products, i.i.d. powers, weightings,
truncations).

A model is a finite family of finitely supported distributions on a common
finite sample space, with every probability mass an exact rational.  On a
finite space the sub-sigma-algebras of the power set correspond bijectively
to partitions of the points, so partitions stand in for sigma-algebras
throughout: the sigma-algebra generated by a statistic is the partition by
equal statistic values, the supremum of two sigma-algebras is the common
refinement, and a function is measurable exactly when it is constant on
blocks.

Everything here is immutable and every operation is a pure function, so the
whole module is safe to use from any number of threads.
"""

from __future__ import annotations

import itertools
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .errors import InputError, SizeGuardError, StabilityError, WeightError
from .reports import CheckReport

DEFAULT_SIZE_GUARD = 4096
SIZE_GUARD_ENV = "FINCOMPLETE_SIZE_GUARD"


def resolve_size_guard() -> int:
    env = os.environ.get(SIZE_GUARD_ENV)
    return int(env) if env else DEFAULT_SIZE_GUARD


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        from .serialization import parse_rational

        return parse_rational(x)
    raise TypeError(f"not an exact rational: {x!r}")


def flatten_label(label) -> tuple[str, ...]:
    """View a parameter label as a tuple of coordinates."""
    if isinstance(label, tuple):
        return label
    return (label,)


def combine_labels(a, b) -> tuple[str, ...]:
    return flatten_label(a) + flatten_label(b)


@dataclass(frozen=True)
class FiniteModel:
    """A finite family of distributions on a common finite sample space.

    ``prob[i][x]`` is the mass that parameter ``i`` puts on point ``x``.
    Parameter labels are opaque strings, or tuples of strings for product
    parameter grids; tuples enable the coordinate-section submodel
    selectors used by the theorem verifiers.
    """

    points: tuple[str, ...]
    params: tuple  # of str | tuple[str, ...]
    prob: tuple[tuple[Fraction, ...], ...]

    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def num_params(self) -> int:
        return len(self.params)

    def support(self, theta: int) -> tuple[int, ...]:
        return tuple(x for x, p in enumerate(self.prob[theta]) if p > 0)

    def expectation(self, theta: int, values: Sequence[Fraction]) -> Fraction:
        row = self.prob[theta]
        return sum((v * p for v, p in zip(values, row)), Fraction(0))

    def param_index(self, label) -> int:
        label = tuple(label) if isinstance(label, (tuple, list)) else label
        return self.params.index(label)

    def restrict_params(self, indices: Sequence[int]) -> "FiniteModel":
        return FiniteModel(
            points=self.points,
            params=tuple([self.params[i] for i in indices]),
            prob=tuple([self.prob[i] for i in indices]),
        )


@dataclass(frozen=True)
class SubmodelRef:
    """A submodel, as a set of parameter indices of the ambient model."""

    param_indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(self.param_indices))
        if not idx:
            raise ValueError("submodel must contain at least one parameter")
        if len(set(idx)) != len(idx):
            raise ValueError("submodel indices must be distinct")
        object.__setattr__(self, "param_indices", idx)

    @staticmethod
    def full(m: FiniteModel) -> "SubmodelRef":
        return SubmodelRef(tuple(range(m.num_params)))

    @staticmethod
    def of(*indices: int) -> "SubmodelRef":
        return SubmodelRef(tuple(indices))

    @staticmethod
    def section(m: FiniteModel, coord: int, value: str) -> "SubmodelRef":
        """All parameters whose tuple label has ``value`` at ``coord``."""
        idx = tuple(
            i
            for i, lab in enumerate(m.params)
            if len(flatten_label(lab)) > coord and flatten_label(lab)[coord] == value
        )
        if not idx:
            raise ValueError(f"no parameter has coordinate {coord} equal to {value!r}")
        return SubmodelRef(idx)

    def validate(self, m: FiniteModel) -> None:
        if self.param_indices[-1] >= m.num_params:
            raise ValueError("submodel index out of range")

    def restrict(self, m: FiniteModel) -> FiniteModel:
        """The submodel as a model: its parameters' labels and rows."""
        self.validate(m)
        return m.restrict_params(self.param_indices)


_SECTION_RE = re.compile(r"^theta(\d+)=(.*)$")


def parse_submodel(m: FiniteModel, selector: str) -> SubmodelRef:
    """Parse a submodel selector.

    ``"all"`` (or empty) selects every parameter; ``"thetaK=v"`` fixes the
    K-th tuple-label coordinate to ``v`` (1-based); ``"params=0,2,3"``
    selects explicit indices.
    """
    sel = selector.strip()
    if sel in ("", "all"):
        return SubmodelRef.full(m)
    if sel.startswith("params="):
        try:
            idx = tuple(int(t) for t in sel[len("params=") :].split(","))
        except ValueError:
            raise InputError(f"bad parameter index list in selector {selector!r}") from None
        if min(idx) < 0 or max(idx) >= m.num_params:
            raise InputError(f"parameter index out of range in selector {selector!r}")
        try:
            return SubmodelRef(idx)
        except ValueError as e:
            raise InputError(f"{e} in selector {selector!r}") from None
    match = _SECTION_RE.match(sel)
    if match:
        coord = int(match.group(1)) - 1
        if coord < 0:
            raise InputError(f"coordinates are 1-based in selector {selector!r}")
        try:
            return SubmodelRef.section(m, coord, match.group(2))
        except ValueError as e:
            raise InputError(str(e)) from None
    raise InputError(f"cannot parse submodel selector {selector!r}")


def _canonical_block_ids(ids: Sequence) -> tuple[int, ...]:
    """First-appearance ranks of any hashable labels."""
    seen: dict = {}
    out = []
    for b in ids:
        if b not in seen:
            seen[b] = len(seen)
        out.append(seen[b])
    return tuple(out)


@dataclass(frozen=True)
class Partition:
    """A partition of the sample space, standing for a sub-sigma-algebra.

    ``block_id[x]`` is the block of point ``x``.  Instances are always in
    canonical form: blocks are numbered by first appearance when scanning
    points in order, so equal partitions compare and serialize identically.
    """

    block_id: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "block_id", _canonical_block_ids(tuple(self.block_id)))

    @staticmethod
    def trivial(n: int) -> "Partition":
        return Partition((0,) * n)

    @staticmethod
    def discrete(n: int) -> "Partition":
        return Partition(tuple(range(n)))

    @property
    def size(self) -> int:
        return len(self.block_id)

    @property
    def num_blocks(self) -> int:
        return max(self.block_id) + 1 if self.block_id else 0

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for x, b in enumerate(self.block_id):
            out[b].append(x)
        return tuple(tuple(b) for b in out)

    def refines(self, other: "Partition") -> bool:
        """True when every block of self lies inside a block of other."""
        image: dict[int, int] = {}
        for sb, ob in zip(self.block_id, other.block_id):
            if image.setdefault(sb, ob) != ob:
                return False
        return True

    def restricted_blocks(self, subset: Iterable[int]) -> frozenset[frozenset[int]]:
        """The partition induced on a subset of points, as a set of sets."""
        by_block: dict[int, set[int]] = {}
        for x in subset:
            by_block.setdefault(self.block_id[x], set()).add(x)
        return frozenset(frozenset(v) for v in by_block.values())


def partition_from_statistic(labels: Sequence) -> Partition:
    """The sigma-algebra generated by a statistic: points share a block
    exactly when their statistic values are equal."""
    return Partition(tuple(labels))


def join(p: Partition, q: Partition) -> Partition:
    """Lattice supremum: the common refinement."""
    if p.size != q.size:
        raise ValueError("partitions on different point sets")
    return partition_from_statistic(tuple(zip(p.block_id, q.block_id)))


def component_roots(n: int, groups: Iterable[Sequence[int]]) -> list[int]:
    """Union-find on the indices 0..n-1 that joins each group into one
    class; each index's root is the least index of its class."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for group in groups:
        for other in group[1:]:
            ra, rb = find(group[0]), find(other)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return [find(x) for x in range(n)]


def meet(p: Partition, q: Partition) -> Partition:
    """Lattice infimum: the finest common coarsening, i.e. the transitive
    closure of the union of the two equivalence relations.  On a finite
    space this is exactly the partition of the intersection
    sigma-algebra."""
    if p.size != q.size:
        raise ValueError("partitions on different point sets")
    return Partition(tuple(component_roots(p.size, p.blocks() + q.blocks())))


@dataclass(frozen=True)
class RationalFunction:
    """A function on the sample space, as a point-indexed rational vector."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(_as_fraction(v) for v in self.values))

    @staticmethod
    def constant(c, n: int) -> "RationalFunction":
        return RationalFunction((_as_fraction(c),) * n)

    @staticmethod
    def indicator(points: Iterable[int], n: int) -> "RationalFunction":
        pts = set(points)
        return RationalFunction(tuple(Fraction(1 if x in pts else 0) for x in range(n)))

    @property
    def size(self) -> int:
        return len(self.values)

    def is_measurable(self, c: Partition) -> bool:
        rep: dict[int, Fraction] = {}
        for x, v in enumerate(self.values):
            if rep.setdefault(c.block_id[x], v) != v:
                return False
        return True


def validate_model(m: FiniteModel) -> CheckReport:
    """Check every model invariant; failures are reported, not raised.

    The first violated invariant is named in the note, and located by the
    witness.
    """
    prop = "valid-model"
    if m.num_points < 1:
        return CheckReport(prop, "fail", {"points": 0}, ("no points",))
    if m.num_params < 1:
        return CheckReport(prop, "fail", {"params": 0}, ("no parameters",))
    for kind, key, labels in (("point", "point", m.points), ("parameter", "param", m.params)):
        if len(set(labels)) != len(labels):
            repeated = next(lab for x, lab in enumerate(labels) if lab in labels[:x])
            return CheckReport(prop, "fail", {key: repeated}, (f"{kind} labels not distinct",))
    for i, row in enumerate(m.prob):
        at = {"param": m.params[i]}
        if len(row) != m.num_points:
            return CheckReport(prop, "fail", at, (f"row length mismatch at param {i}",))
        scale, masses = linalg.scale_to_integers(row)
        if min(masses) < 0:
            x = next(x for x, v in enumerate(masses) if v < 0)
            at["point"] = m.points[x]
            return CheckReport(prop, "fail", at, (f"negative mass at param {i}, point {x}",))
        if sum(masses) != scale:
            return CheckReport(prop, "fail", at, (f"row sum != 1 at param {i}",))
    return CheckReport(prop, "pass", None, ())


def support_union(m: FiniteModel) -> frozenset[int]:
    """Points carrying positive mass under some parameter of the model.

    A statement holds almost surely for the model exactly when it holds on
    this set.
    """
    return frozenset(x for i in range(m.num_params) for x in m.support(i))


def conditional_expectation(
    h: RationalFunction, c: Partition, m: FiniteModel, theta: int
) -> RationalFunction:
    """Conditional expectation of h given the partition, under parameter
    ``theta``.  Blocks of mass zero get the value 0; conditional
    expectations are only almost surely defined, and a fixed convention
    keeps outputs deterministic."""
    ints = linalg.clear_denominators(m.prob[theta])
    values = [Fraction(0)] * m.num_points
    for block in c.blocks():
        mass = sum(ints[x] for x in block)
        if mass > 0:
            avg = sum((h.values[x] * ints[x] for x in block), Fraction(0)) / mass
            for x in block:
                values[x] = avg
    return RationalFunction(tuple(values))


def _pair_point(a: str, b: str) -> str:
    return f"({a},{b})"


def product_model(a: FiniteModel, b: FiniteModel) -> FiniteModel:
    """The model of all products P (x) Q with P from a and Q from b.

    Points and parameters are cartesian pairs and masses multiply.
    ``coordinate_partitions`` gives the two coordinate sigma-algebras on
    the product space.
    """
    points = tuple(_pair_point(x, y) for x in a.points for y in b.points)
    params = tuple(combine_labels(la, lb) for la in a.params for lb in b.params)
    prob = tuple(
        tuple(pa * pb for pa in ra for pb in rb) for ra in a.prob for rb in b.prob
    )
    return FiniteModel(points, params, prob)


def coordinate_partitions(a: FiniteModel, b: FiniteModel) -> tuple[Partition, Partition]:
    """Sigma-algebras of the two coordinate projections of product_model(a, b)."""
    na, nb = a.num_points, b.num_points
    first = partition_from_statistic([i for i in range(na) for _ in range(nb)])
    second = partition_from_statistic([j for _ in range(na) for j in range(nb)])
    return first, second


def power_model(a: FiniteModel, n: int) -> FiniteModel:
    """The i.i.d. n-fold power: same parameters, product masses on n-tuples.
    The point count is bounded by ``FINCOMPLETE_SIZE_GUARD`` (default 4096)."""
    if n < 1:
        raise ValueError("power requires n >= 1")
    guard = resolve_size_guard()
    if a.num_points**n > guard:
        raise SizeGuardError(f"{a.num_points}^{n} points exceeds the guard of {guard}")
    points = tuple("(" + ",".join(a.points[i] for i in t) + ")" for t in power_tuples(a, n))
    prob = []
    for row in a.prob:
        out = [Fraction(1)]
        for _ in range(n):  # appending a coordinate that varies fastest
            out = [p * q for p in out for q in row]
        prob.append(tuple(out))
    return FiniteModel(points, a.params, tuple(prob))


def power_tuples(a: FiniteModel, n: int) -> tuple[tuple[int, ...], ...]:
    """Point tuples of power_model(a, n), in the same point order."""
    return tuple(itertools.product(range(a.num_points), repeat=n))


def weighted_model(m: FiniteModel, q: RationalFunction) -> FiniteModel:
    """Reweight every distribution by q and renormalize.

    Parameters giving the weight zero total mass are dropped; if that
    drops everything the weight annihilates the model and an error is
    raised.
    """
    if q.size != m.num_points:
        raise ValueError("weight length mismatch")
    if any(v < 0 for v in q.values):
        raise ValueError("weight must be nonnegative")
    params = []
    rows = []
    for i, row in enumerate(m.prob):
        total = sum((p * w for p, w in zip(row, q.values)), Fraction(0))
        if total > 0:
            params.append(m.params[i])
            rows.append(tuple(p * w / total for p, w in zip(row, q.values)))
    if not rows:
        raise WeightError("weight annihilates model")
    return FiniteModel(m.points, tuple(params), tuple(rows))


def event_label(m: FiniteModel, event: Iterable[int]) -> str:
    return "{" + ",".join(m.points[x] for x in sorted(event)) + "}"


def check_intersection_stable(events: Sequence[frozenset[int]]) -> tuple[int, int] | None:
    """Return the first offending pair of indices, or None when the list is
    closed under pairwise intersection (the empty set is admitted
    implicitly, a conditioning event never has mass zero)."""
    known = set(events)
    for i, e in enumerate(events):
        for j2 in range(i, len(events)):
            inter = e & events[j2]
            if inter and inter not in known:
                return (i, j2)
    return None


def truncated_family(
    m0: FiniteModel,
    events: Sequence[Iterable[int]],
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
    powered = power_model(m0, n)
    tuples = power_tuples(m0, n)
    # masks[k][t]: whether power point t lies in evs[k]^n
    masks = [[e.issuperset(t) for t in tuples] for e in evs]
    zero = Fraction(0)
    params = []
    rows = []
    for i, powered_row in enumerate(powered.prob):
        s, ints = linalg.scale_to_integers(m0.prob[i])
        for e, mask in zip(evs, masks):
            emass = sum(ints[x] for x in e)
            if emass == 0:
                continue
            scale = Fraction(emass, s) ** n
            rows.append(tuple(p / scale if inside else zero for p, inside in zip(powered_row, mask)))
            params.append(combine_labels(m0.params[i], event_label(m0, e)))
    if not rows:
        raise WeightError("no event has positive mass under any parameter")
    model = FiniteModel(powered.points, tuple(params), tuple(rows))
    return model, partition_from_statistic(list(zip(*masks)))


def interval_events(n: int) -> list[frozenset[int]]:
    """All nonempty order-convex subsets of the chain 0..n-1."""
    return [frozenset(range(a, b + 1)) for a in range(n) for b in range(a, n)]


def upray_events(n: int) -> list[frozenset[int]]:
    """All nonempty upward-closed subsets of the chain 0..n-1."""
    return [frozenset(range(a, n)) for a in range(n)]


def downray_events(n: int) -> list[frozenset[int]]:
    """All nonempty downward-closed subsets of the chain 0..n-1."""
    return [frozenset(range(0, b + 1)) for b in range(n)]


# the event lists of a chain of n points, by name
EVENT_KINDS = {"intervals": interval_events, "uprays": upray_events, "downrays": downray_events}

# partitions that every partition flag and registry row accepts by name, as
# functions of (model, n) on the n-fold power space of the model (n = 1:
# its points)
BUILTIN_PARTITIONS = {
    "discrete": lambda m0, n: Partition.discrete(m0.num_points**n),
    "trivial": lambda m0, n: Partition.trivial(m0.num_points**n),
}


def min_max_partition(m0: FiniteModel, n: int) -> Partition:
    """Partition of the n-fold power space by (min, max) in base order."""
    return partition_from_statistic([(min(t), max(t)) for t in power_tuples(m0, n)])


def min_partition(m0: FiniteModel, n: int) -> Partition:
    return partition_from_statistic([min(t) for t in power_tuples(m0, n)])


def max_partition(m0: FiniteModel, n: int) -> Partition:
    return partition_from_statistic([max(t) for t in power_tuples(m0, n)])
