"""Shared builders for the test suite."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

from hypothesis import settings

from fincomplete import FiniteModel, Partition, SubmodelRef, support_union

# Every property test draws its examples from a fixed seed, so a run is
# reproducible, and no wall-clock deadline can fail a slow example.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def coin(p) -> FiniteModel:
    """A single biased coin on points 0/1."""
    p = Fraction(p)
    return FiniteModel(("0", "1"), ("t",), ((1 - p, p),))


def coin_family(*ps) -> FiniteModel:
    """One coin per parameter, labeled by the bias."""
    rows = tuple((1 - Fraction(p), Fraction(p)) for p in ps)
    return FiniteModel(("0", "1"), tuple(str(p) for p in ps), rows)


def bernoulli_pair_grid(thetas1, thetas2, swap=True) -> FiniteModel:
    """I.i.d. coin pairs on a (theta1, theta2) grid; theta1=1 swaps the
    bias, matching the incomplete-join construction."""
    points = ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
    params = []
    rows = []
    for a in thetas1:
        for t in thetas2:
            p = Fraction(t) if (a == "0" or not swap) else 1 - Fraction(t)
            params.append((a, t))
            rows.append(((1 - p) * (1 - p), (1 - p) * p, p * (1 - p), p * p))
    return FiniteModel(points, tuple(params), tuple(rows))


def uniform_chain(n: int) -> FiniteModel:
    """The uniform distribution on a chain of n points, one parameter."""
    w = Fraction(1, n)
    return FiniteModel(tuple(str(i + 1) for i in range(n)), ("u",), ((w,) * n,))


def random_chain_base(rng, points: int, params: int) -> FiniteModel:
    """Random distributions on a chain of points; masses may be zero, so
    some events can get no mass."""
    rows = []
    for _ in range(params):
        raw = [rng.choice((0, 0, 1, 2, 5)) for _ in range(points)]
        raw[rng.randrange(points)] += 1
        rows.append(tuple(Fraction(w, sum(raw)) for w in raw))
    return FiniteModel(
        tuple(str(x) for x in range(points)), tuple(f"t{i}" for i in range(params)), tuple(rows)
    )


def oracle_event_mass(m: FiniteModel, theta: int, points) -> Fraction:
    """The mass of an event summed in ``Fraction``: the engine's former
    ``FiniteModel.event_mass``, kept for the oracles that used it."""
    row = m.prob[theta]
    return sum((row[x] for x in points), Fraction(0))


def all_partitions(n: int):
    """Every partition of n points, via restricted growth strings."""

    def rec(prefix, next_block):
        if len(prefix) == n:
            yield Partition(tuple(prefix))
            return
        for b in range(next_block + 1):
            yield from rec(prefix + [b], max(next_block, b + 1))

    yield from rec([], 0)


def _perm_sign(perm) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def oracle_is_complete(c: Partition, m: FiniteModel, sub: SubmodelRef) -> bool:
    """Completeness decided by exhaustive minor enumeration: the block-mass
    matrix has trivial kernel iff some square row-subset has a nonzero
    determinant, each determinant expanded by the full permutation sum.
    Shares no code with the elimination-based engine."""
    su = support_union(sub.restrict(m))
    blocks = [b for b in c.blocks() if set(b) & su]
    rows = [
        [sum((m.prob[i][x] for x in b), Fraction(0)) for b in blocks]
        for i in sub.param_indices
    ]
    nb = len(blocks)
    if nb == 0:
        return True
    if len(rows) < nb:
        return False
    for subset in combinations(range(len(rows)), nb):
        det = Fraction(0)
        for perm in permutations(range(nb)):
            term = Fraction(_perm_sign(perm))
            for r, col in zip(subset, perm):
                term *= rows[r][col]
            det += term
        if det != 0:
            return True
    return False


def valid_incompleteness_witness(witness_fn, m: FiniteModel, sub: SubmodelRef) -> bool:
    """Re-check an incompleteness certificate from first principles."""
    su = support_union(sub.restrict(m))
    zero_means = all(m.expectation(i, witness_fn.values) == 0 for i in sub.param_indices)
    nonzero = any(witness_fn.values[x] != 0 for x in su)
    return zero_means and nonzero
