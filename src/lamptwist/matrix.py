"""Exact integer matrix helpers and the Smith normal form.

Matrices are tuples of row tuples of Python ints; everything is
arbitrary-precision and fraction-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import mul
from typing import Iterable, Sequence

IntMatrix = tuple[tuple[int, ...], ...]


def as_matrix(rows: Iterable[Sequence[int]]) -> IntMatrix:
    mat = tuple(tuple(map(int, row)) for row in rows)
    if not mat or any(len(r) != len(mat[0]) for r in mat):
        raise ValueError("matrix rows must be nonempty and of equal length")
    return mat


def identity(k: int) -> IntMatrix:
    zeros = (0,) * k
    return tuple(zeros[:i] + (1,) + zeros[i + 1:] for i in range(k))


def transpose(m: IntMatrix) -> IntMatrix:
    return tuple(zip(*m))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact product by Kronecker substitution.

    Each row of `b` is packed into one integer with a slot of `w` bits per
    column, so an output row is a single sum of `row[j] * packed[j]` done in
    big-integer arithmetic.  The slot holds any entry of the product with
    room to spare (|entry| <= len(b) * max|a| * max|b| < 2**(w - 1)), so
    the slots are read back exactly as balanced digits.
    """
    if len(a[0]) != len(b):
        raise ValueError("inner dimensions differ")
    cols = len(b[0]) if b else 0
    bound = max(map(abs, chain.from_iterable(a)), default=0)
    bound *= max(map(abs, chain.from_iterable(b)), default=0)
    w = (len(b) * bound).bit_length() + 1
    packed = []
    for row in b:
        acc = 0
        for x in reversed(row):
            acc = (acc << w) + x
        packed.append(acc)
    mask = (1 << w) - 1
    half = 1 << (w - 1)
    out = []
    for row in a:
        acc = sum(map(mul, row, packed))
        digits = []
        for _ in range(cols):
            d = acc & mask
            if d >= half:
                d -= mask + 1
            digits.append(d)
            acc = (acc - d) >> w
        out.append(tuple(digits))
    return tuple(out)


def mat_vec(m: IntMatrix, z: Sequence[int]) -> tuple[int, ...]:
    if len(m[0]) != len(z):
        raise ValueError("dimension mismatch")
    return tuple(sum(map(mul, row, z)) for row in m)


def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a: IntMatrix) -> IntMatrix:
    return tuple(tuple(-x for x in row) for row in a)


def mat_pow(m: IntMatrix, e: int) -> IntMatrix:
    if e < 0:
        raise ValueError("negative power")
    out = identity(len(m))
    base = m
    while e:
        if e & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        e >>= 1
    return out


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


def is_unimodular(m: IntMatrix) -> bool:
    return len(m) == len(m[0]) and det(m) in (1, -1)


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant +-1 (adjugate route)."""
    d = det(m)
    if d not in (1, -1):
        raise ValueError(f"matrix determinant is {d}, not a unit")
    k = len(m)
    if k == 1:
        return ((d,),)
    inv = []
    for i in range(k):
        row = []
        for j in range(k):
            minor = tuple(
                tuple(m[r][c] for c in range(k) if c != i) for r in range(k) if r != j
            )
            cof = det(minor)
            if (i + j) & 1:
                cof = -cof
            row.append(cof * d)
        inv.append(tuple(row))
    return tuple(inv)


def matrix_order(m: IntMatrix, cap: int = 128) -> int | None:
    """Least t >= 1 with m^t = identity, or None if no such t up to cap."""
    ident = identity(len(m))
    p = m
    for t in range(1, cap + 1):
        if p == ident:
            return t
        p = mat_mul(p, m)
    return None


def random_unimodular(rng, k: int, steps: int = 12, coeff_bound: int = 3) -> IntMatrix:
    """Product of random elementary row operations; always determinant +-1."""
    a = [list(row) for row in identity(k)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(k)
        j = rng.randrange(k)
        if kind == 0 and i != j:
            q = rng.randint(-coeff_bound, coeff_bound)
            for c in range(k):
                a[i][c] += q * a[j][c]
        elif kind == 1 and i != j:
            a[i], a[j] = a[j], a[i]
        elif kind == 2:
            for c in range(k):
                a[i][c] = -a[i][c]
    return tuple(tuple(row) for row in a)


@dataclass(frozen=True)
class SnfTriple:
    """Factorization U @ B @ V = D with U, V unimodular and D diagonal."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    def diagonal(self) -> list[int]:
        return [self.d[i][i] for i in range(min(len(self.d), len(self.d[0])))]


def smith_normal_form(b: IntMatrix) -> SnfTriple:
    """Smith normal form over Z.

    Returns SnfTriple(U, D, V) with U b V = D, |det U| = |det V| = 1, the
    diagonal nonnegative and each entry dividing the next.  Rectangular
    input is allowed.  Pivots are chosen by minimal absolute value, the
    first such entry in row-major order.
    """
    b = as_matrix(b)
    m, n = len(b), len(b[0])
    a = [list(row) for row in b]
    u = [list(row) for row in identity(m)]
    vt = [list(row) for row in identity(n)]  # V transposed: column ops act on rows

    # Before step t, rows and columns < t of `a` are zero off the diagonal,
    # so column operations only need to touch rows t and below.

    def add_row(i, j, q):
        # row_i += q * row_j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def add_col(t, i, j, q):
        # col_i += q * col_j
        for r in range(t, m):
            row = a[r]
            row[i] += q * row[j]
        vt[i] = [x + q * y for x, y in zip(vt[i], vt[j])]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            row = a[i]
            nonzero = [abs(x) for x in row[t:] if x]
            if nonzero:
                least = min(nonzero)
                if best is None or least < best[0]:
                    j = next(j for j in range(t, n) if abs(row[j]) == least)
                    best = (least, i, j)
                    if least == 1:
                        break
        return best

    for t in range(min(m, n)):
        while True:
            piv = find_pivot(t)
            if piv is None:
                break
            _, pi, pj = piv
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
                u[t], u[pi] = u[pi], u[t]
            if pj != t:
                for r in range(t, m):
                    row = a[r]
                    row[t], row[pj] = row[pj], row[t]
                vt[t], vt[pj] = vt[pj], vt[t]
            # clear below and to the right of the pivot
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    add_col(t, j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            # divisibility: the pivot must divide the remaining block
            p = a[t][t]
            if p in (1, -1):
                break
            stray = next((i for i in range(t + 1, m) if any(x % p for x in a[i][t + 1:])), None)
            if stray is None:
                break
            add_row(t, stray, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]

    triple = SnfTriple(
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in a),
        transpose(vt),
    )
    if mat_mul(mat_mul(triple.u, b), triple.v) != triple.d:
        raise AssertionError("Smith normal form accumulator mismatch")
    return triple
