"""Exact integer matrices as immutable tuples of tuples.

Everything in this package works over plain Python ints: products are exact
and determinants use fraction-free (Bareiss) elimination, so unimodularity
checks are literal equalities with +1/-1.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping

Matrix = tuple  # tuple[tuple[int, ...], ...]


@lru_cache(maxsize=64)
def identity(n: int) -> Matrix:
    """The n x n identity, cached per n; its rows are shared, immutable tuples."""
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def winner_row_matrix(n: int, row: int, counts: Mapping[int, int]) -> Matrix:
    """Identity plus ``counts`` (column -> count) on row ``row``; indices 0-based, ``row`` < n.

    Only that row is built: the others are the shared rows of ``identity(n)``.
    """
    rows = list(identity(n))
    rows[row] = tuple((1 if j == row else 0) + counts.get(j, 0) for j in range(n))
    return tuple(rows)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def mat_product(mats: Iterable[Matrix], n: int) -> Matrix:
    """Ordered product; identity for the empty sequence."""
    out = identity(n)
    for m in mats:
        out = matmul(out, m)
    return out


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def entry_sum(a: Matrix) -> int:
    return sum(sum(row) for row in a)


def determinant(a: Matrix) -> int:
    """Exact determinant by Bareiss elimination (integer-preserving)."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
