"""Exact integer matrix helpers.

Matrices are tuples of row tuples of Python ints; everything is
arbitrary-precision and fraction-free.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Sequence

from .modular import bounded_message

IntMatrix = tuple[tuple[int, ...], ...]

ORDER_THREE_BLOCK: IntMatrix = ((0, 1), (-1, -1))  # order 3, det 1
ORDER_CAP = 128
# validation and det are O(k^3) in pure Python: rank 200 takes seconds, rank 600 a minute
MAX_RANK = 200


def check_rank(k: int) -> None:
    if k > MAX_RANK:
        raise ValueError(bounded_message("rank {} exceeds the supported maximum {}", k, MAX_RANK))


def as_matrix(rows: Iterable[Sequence[int]]) -> IntMatrix:
    mat = tuple(tuple(map(int, row)) for row in rows)
    if not mat or any(len(r) != len(mat[0]) for r in mat):
        raise ValueError("matrix rows must be nonempty and of equal length")
    check_rank(max(len(mat), len(mat[0])))
    return mat


def identity(k: int) -> IntMatrix:
    check_rank(k)
    zeros = (0,) * k
    return tuple(zeros[:i] + (1,) + zeros[i + 1:] for i in range(k))


def block_diagonal(block: IntMatrix, k: int) -> IntMatrix:
    """The k x k matrix with `block` repeated along its diagonal."""
    check_rank(k)
    b = len(block)
    if k % b:
        raise ValueError(f"a {b}x{b} block does not tile rank {k}")
    zeros = (0,) * k
    return tuple(zeros[:j] + tuple(row) + zeros[j + b:] for j in range(0, k, b) for row in block)


def transpose(m: IntMatrix) -> IntMatrix:
    return tuple(zip(*m))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if len(a[0]) != len(b):
        raise ValueError("inner dimensions differ")
    cols = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_vec(m: IntMatrix, z: Sequence[int]) -> tuple[int, ...]:
    if len(m[0]) != len(z):
        raise ValueError("dimension mismatch")
    return tuple(sum(map(mul, row, z)) for row in m)


def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def det(m: IntMatrix) -> int:
    """Fraction-free Gaussian elimination (Bareiss); exact for any size."""
    k = len(m)
    if any(len(r) != k for r in m):
        raise ValueError("determinant of a non-square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for i in range(k - 1):
        if a[i][i] == 0:
            for r in range(i + 1, k):
                if a[r][i]:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
        prev = a[i][i]
    return sign * a[k - 1][k - 1]


def matrix_order(m: IntMatrix) -> int | None:
    """Least t >= 1 with m^t = identity, or None if no such t up to ORDER_CAP.

    The eigenvalues of a finite-order matrix are roots of unity, so each of
    its powers has a trace of absolute value at most k; a larger one ends
    the search early.
    """
    k = len(m)
    ident = identity(k)
    p = m
    for t in range(1, ORDER_CAP + 1):
        if p == ident:
            return t
        if abs(sum(p[i][i] for i in range(k))) > k:
            return None
        p = mat_mul(p, m)
    return None
