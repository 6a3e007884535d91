"""Plain-Fraction matrix and polynomial helpers shared by the generators and
the checkers.

Nothing here imports sympsheaf: the benchmark builds its inputs and judges the
CLI's reports with this code alone, so a fault in the library cannot hide
behind the same fault in its judge.
"""

from __future__ import annotations

from fractions import Fraction

Q = Fraction


def identity(n):
    return [[Q(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(rows, cols):
    return [[Q(0)] * cols for _ in range(rows)]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Q(0)) for col in cols] for row in a]


def matvec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Q(0)) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def det(a):
    """Determinant by Gaussian elimination over Q."""
    m = [row[:] for row in a]
    n = len(m)
    out = Q(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Q(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            out = -out
        out *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return out


def standard_J(m):
    """[[0, I_m], [-I_m, 0]]."""
    return block_form(m, 2 * m)


def block_form(m, n):
    """[[0, I_m, 0], [-I_m, 0, 0], [0, 0, 0]] of size n."""
    out = zeros(n, n)
    for i in range(m):
        out[i][m + i] = Q(1)
        out[m + i][i] = Q(-1)
    return out


def poly_mul(a, b):
    """Product of coefficient lists, constant term first."""
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def to_json(q):
    """A rational as the CLI writes it: an int when integral, else "p/q"."""
    q = Q(q)
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def from_json(obj):
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise ValueError(f"not a rational: {obj!r}")
    return Q(obj)
