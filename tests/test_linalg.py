import random
from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from fincomplete import linalg

rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=6
)
matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda cols: st.lists(
        st.lists(rationals, min_size=cols, max_size=cols), min_size=1, max_size=4
    )
)


# --- oracle: the Fraction Gauss-Jordan route the engine used before its
# single fraction-free elimination core, kept verbatim as the reference ---


def oracle_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form with the pivot columns, exact over Fraction.

    Pivoting is deterministic: the first row with a nonzero entry in the
    current column is used, so identical inputs give identical output.
    """
    m = [[Fraction(x) for x in r] for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def oracle_normalize(vec):
    vec = tuple(Fraction(x) for x in vec)
    if all(x == 0 for x in vec):
        return vec
    mult = lcm(*(x.denominator for x in vec))
    ints = [int(x * mult) for x in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    last_nonzero = next(v for v in reversed(ints) if v != 0)
    sign = 1 if last_nonzero > 0 else -1
    return tuple(Fraction(sign * v, g) for v in ints)


def oracle_kernel_basis(rows, width):
    if not rows:
        ident = []
        for j in range(width):
            v = [Fraction(0)] * width
            v[j] = Fraction(1)
            ident.append(tuple(v))
        return ident
    m, pivots = oracle_rref(rows)
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * width
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(oracle_normalize(v))
    return basis


def oracle_solve(rows, rhs):
    if not rows:
        return None
    width = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    m, pivots = oracle_rref(aug)
    if width in pivots:
        return None
    x = [Fraction(0)] * width
    for r, pc in enumerate(pivots):
        x[pc] = m[r][width]
    return tuple(x)


small_rationals = st.builds(
    Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=6)
)


@st.composite
def structured_matrices(draw, max_dim=7):
    """Matrices up to 7x7 with duplicate rows, dependent rows (combinations
    of earlier rows) and zero columns mixed in."""
    nr = draw(st.integers(min_value=1, max_value=max_dim))
    nc = draw(st.integers(min_value=1, max_value=max_dim))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=nc - 1), max_size=nc))
    rows = []
    for i in range(nr):
        kind = draw(st.sampled_from(("fresh", "fresh", "duplicate", "combination", "zero")))
        if kind == "duplicate" and rows:
            row = list(rows[draw(st.integers(min_value=0, max_value=i - 1))])
        elif kind == "combination" and rows:
            a, b = draw(small_rationals), draw(small_rationals)
            j = draw(st.integers(min_value=0, max_value=i - 1))
            k = draw(st.integers(min_value=0, max_value=i - 1))
            row = [a * x + b * y for x, y in zip(rows[j], rows[k])]
        elif kind == "zero":
            row = [Fraction(0)] * nc
        else:
            row = draw(st.lists(small_rationals, min_size=nc, max_size=nc))
        rows.append([Fraction(0) if c in zero_cols else x for c, x in enumerate(row)])
    return rows


@given(structured_matrices(), st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_single_core_matches_fraction_oracle(rows, data):
    width = len(rows[0])
    m, pivots = oracle_rref(rows)
    assert linalg.fraction_free_rank(rows) == len(pivots)
    assert linalg.rref(rows) == (m, pivots)
    kernel = oracle_kernel_basis(rows, width)
    assert linalg.kernel_basis(rows, width) == kernel
    first = linalg.first_kernel_vector(rows, width)
    assert first == (kernel[0] if kernel else None)
    if kernel:
        assert first == linalg.kernel_basis(rows, width)[0]
    # a consistent system (rhs in the column space) and an arbitrary one,
    # which is inconsistent whenever the oracle says so
    x = data.draw(st.lists(small_rationals, min_size=width, max_size=width))
    consistent = [sum(a * b for a, b in zip(row, x)) for row in rows]
    arbitrary = data.draw(st.lists(small_rationals, min_size=len(rows), max_size=len(rows)))
    for rhs in (consistent, arbitrary):
        assert linalg.solve(rows, rhs) == oracle_solve(rows, rhs)
    assert linalg.solve(rows, consistent) is not None


@given(matrices)
@settings(max_examples=200, deadline=None)
def test_bareiss_rank_matches_rref_pivots(rows):
    _, pivots = oracle_rref(rows)
    assert linalg.fraction_free_rank(rows) == len(pivots)


@given(matrices)
@settings(max_examples=200, deadline=None)
def test_kernel_vectors_annihilate(rows):
    width = len(rows[0])
    basis = linalg.kernel_basis(rows, width)
    assert len(basis) == width - linalg.fraction_free_rank(rows)
    for v in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_kernel_of_empty_matrix_is_identity():
    basis = linalg.kernel_basis([], 3)
    assert len(basis) == 3
    assert basis[0] == (Fraction(1), Fraction(0), Fraction(0))
    assert linalg.first_kernel_vector([], 3) == basis[0]
    assert linalg.first_kernel_vector([], 0) is None


def test_kernel_vectors_are_primitive_int_tuples():
    rows = [(Fraction(1, 2), Fraction(1, 3), Fraction(-1, 6), Fraction(0))]
    out = [*linalg.kernel_basis(rows, 4), linalg.first_kernel_vector(rows, 4)]
    out += [linalg.primitive([6, -4, 0]), linalg.primitive([0, 0]), linalg.normalize_vector((Fraction(1, 2), 1))]
    for v in out:
        assert type(v) is tuple and all(type(x) is int for x in v)
    assert out[-3:] == [(-3, 2, 0), (0, 0), (1, 2)]
    assert linalg.primitive([6 * (10**30 + 1), 0, -9]) == (-2 * (10**30 + 1), 0, 3)


def test_normalize_vector_canonical():
    v = linalg.normalize_vector((Fraction(1, 2), Fraction(-1, 3), Fraction(0)))
    assert v == (Fraction(-3), Fraction(2), Fraction(0))
    assert linalg.normalize_vector((0, 0)) == (0, 0)
    # last nonzero entry positive
    assert linalg.normalize_vector((Fraction(2), Fraction(-4)))[-1] > 0


def test_solve_consistent_and_inconsistent():
    rows = [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))]
    assert linalg.solve(rows, [Fraction(2), Fraction(2)]) == (Fraction(2), Fraction(0))
    assert linalg.solve(rows, [Fraction(2), Fraction(3)]) is None


def test_solve_matches_random_systems():
    rng = random.Random(7)
    for _ in range(100):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        rows = [
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(nc))
            for _ in range(nr)
        ]
        x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(nc))
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
        sol = linalg.solve(rows, rhs)
        assert sol is not None
        for row, b in zip(rows, rhs):
            assert sum(a * s for a, s in zip(row, sol)) == b
