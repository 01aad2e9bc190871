"""Seeded inputs for the benchmark, built without importing lamptwist.

Automorphisms of Z_n wr Z^k are written in the program's file format
(schema 1: modulus, rank, matrix, u, cocycle), so the program only ever
sees files and argv.  The arithmetic here (determinants, inner twists,
witness automorphisms and their Reidemeister numbers) is an independent
re-derivation used both to build inputs and to check outputs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

# -- integer linear algebra ---------------------------------------------------


def identity(k):
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def mat_vec(m, z):
    return tuple(sum(a * b for a, b in zip(row, z)) for row in m)


def det(m):
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    k = len(a)
    out = Fraction(1)
    for c in range(k):
        piv = next((r for r in range(c, k) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, k):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return int(out)


def lattice_count(m):
    """Fixed characters of Z^k under M^T: |det(M^T - I)|, None when infinite."""
    k = len(m)
    d = det([[m[j][i] - int(i == j) for j in range(k)] for i in range(k)])
    return abs(d) or None


def random_unimodular(rng, k, steps=12, bound=3):
    """Product of random elementary row operations (determinant +-1)."""
    a = [list(row) for row in identity(k)]
    for _ in range(steps):
        kind, i, j = rng.randrange(3), rng.randrange(k), rng.randrange(k)
        if kind == 0 and i != j:
            q = rng.randint(-bound, bound)
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        elif kind == 1:
            a[i], a[j] = a[j], a[i]
        elif kind == 2:
            a[i] = [-x for x in a[i]]
    return tuple(tuple(row) for row in a)


def block_order_three(k):
    rows = []
    for b in range(k // 2):
        for r in ((0, 1), (-1, -1)):
            row = [0] * k
            row[2 * b], row[2 * b + 1] = r
            rows.append(tuple(row))
    return tuple(rows)


def prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def units(n):
    return [c for c in range(1, n) if gcd(c, n) == 1]


# -- torsion elements as {point: coeff} dicts ----------------------------------


def torsion(n, items):
    acc = {}
    for p, c in items:
        p = tuple(p)
        acc[p] = (acc.get(p, 0) + c) % n
    return {p: c for p, c in acc.items() if c}


def shifted(t, z):
    return {tuple(a + b for a, b in zip(p, z)): c for p, c in t.items()}


def add(n, *terms):
    return torsion(n, [(p, c) for t in terms for p, c in t.items()])


def neg(n, t):
    return {p: (-c) % n for p, c in t.items()}


def random_torsion(rng, n, k, terms, spread):
    return torsion(
        n,
        [
            (tuple(rng.randint(-spread, spread) for _ in range(k)), rng.randint(1, n - 1))
            for _ in range(terms)
        ],
    )


# -- automorphism triples -------------------------------------------------------


class Aut:
    """Split triple (matrix, origin image u, basis cocycle values)."""

    def __init__(self, n, k, matrix, u, cocycle=None):
        self.n, self.k, self.matrix, self.u = n, k, matrix, u
        self.cocycle = cocycle if cocycle is not None else [{} for _ in range(k)]

    def twisted(self, sigma, z):
        """Conjugation by (sigma, z) composed after self; same Reidemeister number."""
        n, k = self.n, self.k
        cocycle = []
        for i in range(k):
            step = mat_vec(self.matrix, tuple(int(i == j) for j in range(k)))
            cocycle.append(
                add(n, shifted(self.cocycle[i], z), sigma, neg(n, shifted(sigma, step)))
            )
        return Aut(n, k, self.matrix, shifted(self.u, z), cocycle)

    def to_dict(self):
        def terms(t):
            return [{"coeff": c, "point": list(p)} for p, c in sorted(t.items())]

        return {
            "schema": 1,
            "modulus": self.n,
            "rank": self.k,
            "matrix": [list(row) for row in self.matrix],
            "u": terms(self.u),
            "cocycle": [terms(t) for t in self.cocycle],
        }


def admits_finite(n, k):
    """Parity rule: some automorphism has finite R iff n odd and (3 does not divide n or k even)."""
    return n % 2 == 1 and (n % 3 != 0 or k % 2 == 0)


def witness(n, k):
    """A finite-R automorphism and its R, for pairs without a 7 | n, 3 | n clash.

    gcd(n, 6) = 1: lattice inversion with doubling, R = 2^k.  3 | n, k even:
    order-3 blocks with doubling, R = 3^(k/2) (doubling needs 7 not to divide n).
    """
    if not admits_finite(n, k):
        raise ValueError(f"no finite-R automorphism of Z_{n} wr Z^{k}")
    if gcd(n, 6) == 1:
        matrix, r = tuple(tuple(-int(i == j) for j in range(k)) for i in range(k)), 2**k
    elif n % 7 == 0:
        raise ValueError("doubling witness needs 7 not to divide n when 3 divides n")
    else:
        matrix, r = block_order_three(k), 3 ** (k // 2)
    return Aut(n, k, matrix, {(0,) * k: 2}), r


def random_element(rng, n, k, spread=2):
    """A group element (sigma, z) with small support and shift."""
    sigma = random_torsion(rng, n, k, rng.randint(0, 3), spread)
    return sigma, tuple(rng.randint(-spread, spread) for _ in range(k))


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
