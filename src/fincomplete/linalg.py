"""Exact linear algebra over the rationals.

Rank, kernels, solutions and the reduced form all come from one
fraction-free routine, ``_eliminate``: each row is scaled to integers and
reduced by Bareiss elimination (Bareiss 1968), whose only arithmetic is
integer multiplication and exact integer division.  Rank needs forward
elimination alone.  The reduced form also clears the rows above each
pivot, which leaves every pivot equal to one common integer ``d``.  A
solution is read off the integer rows with one division by ``d``; a
kernel vector is read off as integers and made primitive by ``primitive``
(content 1, last nonzero entry positive), the one normalization of
integer vectors in the package.  So kernel vectors are tuples of ``int``,
while ``rref`` and ``solve`` return ``Fraction``s.  Pivoting is
deterministic and the reduced form, kernel basis and solution are unique,
so results are byte-stable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]


def scale_to_integers(row) -> tuple[int, list[int]]:
    """The lcm ``s`` of a rational row's denominators, and the row times ``s``."""
    mult = lcm(*(f.denominator for f in row)) if row else 1
    return mult, [f.numerator * (mult // f.denominator) for f in row]


def clear_denominators(row) -> list[int]:
    """Scale a rational row to integers (does not change rank or kernel)."""
    return scale_to_integers(row)[1]


def _eliminate(rows, reduce: bool = False) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free echelon form of ``rows`` as (integer rows, pivot
    columns, last pivot).

    Forward elimination only touches rows below a pivot and columns right
    of it.  With ``reduce`` the rows above are cleared too, every pivot
    ends equal to the returned ``d``, and the rows over ``d`` are the
    reduced row echelon form.  Each division is exact.
    """
    m = [clear_denominators(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots: list[int] = []
    prev = 1
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        p = top[c]
        for i in range(r + 1, nr):
            row = m[i]
            f = row[c]
            for j in range(c + 1, nc):
                row[j] = (row[j] * p - f * top[j]) // prev
            row[c] = 0
        if reduce:
            for i in range(r):
                row = m[i]
                f = row[c]
                m[i] = [(a * p - f * b) // prev for a, b in zip(row, top)]
        prev = p
        pivots.append(c)
    return m, pivots, prev


def fraction_free_rank(rows) -> int:
    """Rank via Bareiss elimination; all intermediate values are integers."""
    return len(_eliminate(rows)[1])


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form with the pivot columns, exact over Fraction."""
    m, pivots, d = _eliminate(rows, reduce=True)
    return [[Fraction(x, d) for x in row] for row in m], pivots


def primitive(ints) -> IntVector:
    """The primitive integer vector on the ray through an integer vector:
    coprime entries, the last nonzero entry positive.  Equal exactly for
    vectors that are nonzero multiples of each other; the zero vector
    stays zero."""
    g = gcd(*ints)
    if not g:
        return tuple(ints)
    for v in reversed(ints):
        if v:
            if v < 0:
                g = -g
            break
    return tuple([v // g for v in ints])


def normalize_vector(vec) -> IntVector:
    """Canonical representative of a rational vector up to scaling: the
    primitive integer vector on its ray (the zero vector stays zero)."""
    return primitive(clear_denominators([Fraction(x) for x in vec]))


def _kernel_vector(m, pivots, d, fc: int, width: int) -> IntVector:
    """The normalized kernel vector of a reduced form for free column fc."""
    v = [0] * width
    v[fc] = d
    for r, pc in enumerate(pivots):
        v[pc] = -m[r][fc]
    return primitive(v)


def kernel_basis(rows, width: int) -> list[IntVector]:
    """Basis of {v : M v = 0}, one normalized vector per free column.

    ``width`` is the number of columns, needed when ``rows`` is empty.
    Vectors are ordered by ascending free column, giving a canonical basis.
    """
    m, pivots, d = _eliminate(rows, reduce=True)
    free = sorted(set(range(width)) - set(pivots))
    return [_kernel_vector(m, pivots, d, fc, width) for fc in free]


def first_kernel_vector(rows, width: int) -> IntVector | None:
    """``kernel_basis(rows, width)[0]``, or None for a trivial kernel.  Only
    the first ``len(rows) + 1`` columns are reduced: every column left of
    the first free column is a pivot column."""
    prefix = min(width, len(rows) + 1)
    m, pivots, d = _eliminate([r[:prefix] for r in rows], reduce=True)
    fc = next((i for i, pc in enumerate(pivots) if pc != i), len(pivots))
    return None if fc == prefix else _kernel_vector(m, pivots, d, fc, width)


def solve(rows, rhs) -> Vector | None:
    """One exact solution of M x = b with free variables set to 0.

    Returns None when the system is inconsistent.
    """
    if not rows:
        return None
    width = len(rows[0])
    m, pivots, d = _eliminate([list(r) + [b] for r, b in zip(rows, rhs)], reduce=True)
    if width in pivots:
        return None
    x = [Fraction(0)] * width
    for r, pc in enumerate(pivots):
        x[pc] = Fraction(m[r][width], d)
    return tuple(x)

