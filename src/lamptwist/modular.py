"""Modular arithmetic utilities: factorization, CRT, linear solving over Z_n.

The linear solver diagonalizes the coefficient matrix over Z (Smith normal
form), which decouples the system into independent congruences d_i y_i = c_i
that are each decidable by a gcd condition.  That route is complete: unlike
echelon back-substitution over Z_n, it cannot reject a system that a better
choice of free variables would satisfy.  Most systems the box solver poses
have no solution, and most of those have none modulo a prime p | n already;
a sparse elimination over F_p finds the row combination that proves it
before any Smith form is built.  All steps are exact.
"""

from __future__ import annotations

from itertools import compress
from math import gcd
from operator import mul

TRIAL_LIMIT = 10**6  # trial division stops here; a larger cofactor must test prime
# Miller-Rabin with the prime bases up to 41 is exact below this bound.
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n > 41; False at or above the exact bound."""
    if n >= MILLER_RABIN_EXACT_BELOW:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization: trial division up to TRIAL_LIMIT, then a prime test.

    A cofactor left by trial division has no prime factor up to the limit, so
    it is prime below TRIAL_LIMIT**2; above that it must pass Miller-Rabin.
    A composite cofactor, or one too large for the test, is refused with a
    ValueError instead of being factored slowly.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    if n > TRIAL_LIMIT**2 and _is_prime(n):
        return {n: 1}  # a large prime modulus skips the trial division
    out: dict[int, int] = {}
    d = 2
    while d * d <= n and d <= TRIAL_LIMIT:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > TRIAL_LIMIT**2 and not _is_prime(n):
        why = "composite" if n < MILLER_RABIN_EXACT_BELOW else "too large to test for primality"
        raise ValueError(f"cannot factor {n}: no prime factor up to {TRIAL_LIMIT}, and it is {why}")
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def modinv(a: int, m: int) -> int | None:
    """Inverse of a mod m, or None when gcd(a, m) > 1."""
    try:
        return pow(a, -1, m)
    except ValueError:
        return None


def crt_pair(a1: int, m1: int, a2: int, m2: int) -> int:
    """Solve x = a1 (mod m1), x = a2 (mod m2) for coprime moduli."""
    if gcd(m1, m2) != 1:
        raise ValueError(f"moduli {m1}, {m2} are not coprime")
    inv = pow(m1 % m2, -1, m2)
    return (a1 + m1 * (((a2 - a1) * inv) % m2)) % (m1 * m2)


def crt(residues) -> tuple[int, int]:
    """Fold a sequence of (residue, modulus) pairs; returns (x, product)."""
    x, m = 0, 1
    for a, mm in residues:
        x = crt_pair(x, m, a % mm, mm)
        m *= mm
    return x, m


def _refute_mod_prime(a, b, p: int):
    """Weights w with w a = 0 and w b != 0 (mod p), one per row, or None.

    Sparse elimination over F_p of the rows of [a | b | I]: key j < ncols is
    column j of a, key ncols the right-hand side, and key ncols + 1 + i the
    weight of original row i.  Every pivot leads with its least key, a column
    of a, scaled to 1, so reducing a row raises its least key.  A row whose
    least key is the right-hand side reads 0 = r with r != 0, and its weight
    keys are the refutation.  None means the system is solvable mod p.
    """
    ncols = len(a[0])
    cols = range(ncols)
    pivots: dict[int, dict[int, int]] = {}
    for i, (row, rhs) in enumerate(zip(a, b)):
        r = {j: row[j] % p for j in compress(cols, row) if row[j] % p}
        if rhs % p:
            r[ncols] = rhs % p
        r[ncols + 1 + i] = 1
        lead = min(r)
        while lead in pivots:
            f = r[lead]
            for j, x in pivots[lead].items():
                y = (r.get(j, 0) - f * x) % p
                if y:
                    r[j] = y
                else:
                    del r[j]
            lead = min(r)
        if lead < ncols:
            inv = pow(r[lead], -1, p)
            pivots[lead] = {j: x * inv % p for j, x in r.items()}
        elif lead == ncols:
            return [r.get(ncols + 1 + i, 0) for i in range(len(a))]
    return None


def solve_linear(a, b, modulus: int):
    """Particular solution of a x = b (mod modulus), or None.

    `a` is a list of rows, `b` the right-hand side.  A system found
    unsolvable modulo a prime factor is refuted by a row combination that is
    checked against the original system; every other system is decided by
    the Smith normal form, and a solution is verified before being returned.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be at least 2, got {modulus}")
    from .matrix import mat_vec, smith_normal_form

    nrows = len(a)
    if nrows == 0:
        return []
    ncols = len(a[0])
    if ncols == 0:
        return [] if all(bb % modulus == 0 for bb in b) else None
    for p in factorize(modulus):
        w = _refute_mod_prime(a, b, p)
        if w is not None:
            weights = [x for x in w if x]
            used = zip(*compress(a, w))
            if any(sum(map(mul, weights, col)) % p for col in used) or not sum(map(mul, w, b)) % p:
                raise AssertionError("modular solver produced an invalid refutation")
            return None
    triple = smith_normal_form(a)
    c = mat_vec(triple.u, tuple(b))
    rank_bound = min(nrows, ncols)
    y = [0] * ncols
    for i in range(nrows):
        d = triple.d[i][i] if i < rank_bound else 0
        ci = c[i] % modulus
        g = gcd(d, modulus)
        if ci % g:
            return None
        if d:
            reduced = modulus // g
            if reduced > 1:
                inv = pow((d // g) % reduced, -1, reduced)
                y[i] = ((ci // g) * inv) % reduced
    x = [v % modulus for v in mat_vec(triple.v, tuple(y))]
    for row, bb in zip(a, b):
        if (sum(r * xx for r, xx in zip(row, x)) - bb) % modulus:
            raise AssertionError("modular solver produced an invalid solution")
    return x


def divisors(n: int) -> list[int]:
    """Sorted positive divisors."""
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
