"""Reference implementations kept as independent oracles for the tests.

None of these is on a path the program runs.  `inverse_in_box` decides by
a bounded linear solve whether a group-ring element has an inverse; the
acceptance gate checks it against the unit criterion.  The solve diagonalizes
over Z with the Smith normal form.  `fixed_character_count` counts the
characters of Z^k that a lattice map fixes, from the same Smith normal form.
`twisted_classes_unionfind` counts twisted classes by a literal union-find
over every pair (h, x), and `orbit_minima_unionfind` finds the least element
of each orbit of a stack of edge maps by union-find over the edges.
`group_ring_inverse` inverts a unit by Hensel lifting per prime power,
`inverse_unimodular` inverts a lattice map by its adjugate, and
`automorphism_inverse` combines the two; tests check composition against
them.  `encode`, `decode`, `point_index`, `multiply` and
`inverse` are the elementwise group law of a finite model, built only from
its public `modulus`, `box`, `rank`, `points` and `point_count`, so they share
no code with the numpy tables they check; `element_to_group` and
`group_to_index` bridge it to Z_n wr Z^k.  The remaining helpers build test
inputs and the maps they are compared with: `mat_pow` and `random_unimodular`
for lattice maps, `project_element` for reduction mod a divisor, `compose`,
`inner` and `twist` for automorphisms of Z_n wr Z^k, and `identity_descent`,
`twisted_by`, `zero_cocycle_catalog` and `inner_twists` for automorphisms of a
finite model.  `TableAutomorphism` is an automorphism of a model given by its
whole image table and checked over the whole group, and `whole_table_descent`
builds such a table from the model's translations; the tests compare the
formula and its guard with them.  `central_cosets` names each element's coset
of the center from the center's known form; the shift check's twists, told
apart by their generator images, are compared with it.  `rule_reidemeister` is
the mod-p rule for R(phi), written from `Torsion` items and `mat_pow` alone;
a census test judges the program's definite verdicts by it.
"""

from math import gcd, inf, prod

import numpy as np

from lamptwist.automorphism import InvalidAutomorphism, WreathAutomorphism, is_group_ring_unit
from lamptwist.finite import (
    DescentError,
    FiniteAutomorphism,
    TwistedClassPartition,
    descend_automorphism,
    distinct_descents,
    zero_cocycle_automorphisms,
)
from lamptwist.group import GroupElement, GroupParams, IncompatibleParams, Torsion
from lamptwist.matrix import as_matrix, det, identity, mat_mul, mat_sub, mat_vec, transpose
from lamptwist.modular import crt, factorize

DEFAULT_INVERSE_RADIUS = 8


def _as_triple(u, d, v):
    return tuple(map(tuple, u)), tuple(map(tuple, d)), tuple(map(tuple, v))


def reference_smith_normal_form(b):
    """Smith normal form over Z, one elimination step per term.

    Returns (U, D, V) with U b V = D, U and V unimodular, the diagonal of D
    nonnegative and each entry dividing the next.  Rectangular input is
    allowed.  Pivots are chosen by least absolute value, the first such
    entry in row-major order.  The factorization is checked before it is
    returned.
    """
    b = as_matrix(b)
    m, n = len(b), len(b[0])
    a = [list(row) for row in b]
    u = [list(row) for row in identity(m)]
    v = [list(row) for row in identity(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def add_row(i, j, q):
        for c in range(n):
            a[i][c] += q * a[j][c]
        for c in range(m):
            u[i][c] += q * u[j][c]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_col(i, j, q):
        for row in a:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        return best

    for t in range(min(m, n)):
        while True:
            piv = find_pivot(t)
            if piv is None:
                break
            _, pi, pj = piv
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            stray = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        stray = i
                        break
                if stray is not None:
                    break
            if stray is None:
                break
            add_row(t, stray, 1)
        if a[t][t] < 0:
            negate_row(t)

    triple = _as_triple(u, a, v)
    if mat_mul(mat_mul(triple[0], b), triple[2]) != triple[1]:
        raise AssertionError("Smith normal form accumulator mismatch")
    return triple


def fixed_character_count(m) -> int:
    """Characters of Z^k fixed by precomposition with m, 0 when there are infinitely many.

    A character x in (R/Z)^k is fixed when (m^T - I) x is integral; the count is
    the product of the Smith diagonal of m^T - I.
    """
    k = len(m)
    _, d, _ = reference_smith_normal_form(mat_sub(transpose(m), identity(k)))
    return prod(d[i][i] for i in range(k))


def reference_solve_linear(a, b, modulus):
    """Particular solution of a x = b (mod modulus), or None.

    The Smith normal form U a V = D splits the system into congruences
    d_i y_i = (U b)_i, each decided by a gcd condition, so no solvable
    system is missed; x = V y.
    """
    nrows = len(a)
    if nrows == 0:
        return []
    ncols = len(a[0])
    if ncols == 0:
        return [] if all(bb % modulus == 0 for bb in b) else None
    u, d, v = reference_smith_normal_form(a)
    c = mat_vec(u, tuple(b))
    rank_bound = min(nrows, ncols)
    y = [0] * ncols
    for i in range(nrows):
        di = d[i][i] if i < rank_bound else 0
        ci = c[i] % modulus
        g = gcd(di, modulus)
        if ci % g:
            return None
        if di:
            reduced = modulus // g
            if reduced > 1:
                inv = pow((di // g) % reduced, -1, reduced)
                y[i] = ((ci // g) * inv) % reduced
    return [x % modulus for x in mat_vec(v, tuple(y))]


def inverse_in_box(u: Torsion, radius: int = DEFAULT_INVERSE_RADIUS) -> Torsion | None:
    """Search the box |x|_inf <= radius for v with u * v = origin generator.

    Independent of the unit criterion: sets up the convolution equations on
    the box support and solves them modulo n.  Returns None when no inverse
    supported in the box exists.
    """
    n, k = u.modulus, u.rank
    if u.is_zero():
        return None
    box = []

    def fill(prefix):
        if len(prefix) == k:
            box.append(tuple(prefix))
            return
        for c in range(-radius, radius + 1):
            fill(prefix + [c])

    fill([])
    index = {pt: i for i, pt in enumerate(box)}
    eq_points = sorted({tuple(a + b for a, b in zip(p, s)) for p, _ in u.items() for s in box})
    origin = (0,) * k
    rows = []
    rhs = []
    for x in eq_points:
        row = [0] * len(box)
        for p, c in u.items():
            y = tuple(a - b for a, b in zip(x, p))
            j = index.get(y)
            if j is not None:
                row[j] = (row[j] + c) % n
        rows.append(row)
        rhs.append(1 if x == origin else 0)
    sol = reference_solve_linear(rows, rhs, n)
    if sol is None:
        return None
    v = Torsion(n, k, zip(box, sol))
    if not u.convolve(v) == Torsion.delta(n, k, origin):
        raise AssertionError("box solver returned a non-inverse")
    return v


def group_ring_inverse(u: Torsion) -> Torsion:
    """Convolution inverse of a unit, by Hensel lifting per prime power.

    Raises ValueError when `u` is not a unit.  The result is verified
    exactly; an internal failure after a positive unit test raises
    AssertionError (it would indicate a bug, not a math failure).
    """
    if not is_group_ring_unit(u):
        raise ValueError(f"{u.render()} is not a unit mod {u.modulus}")
    n, k = u.modulus, u.rank
    parts = []
    for p, s in sorted(factorize(n).items()):
        q = p**s
        up = Torsion(q, k, u.items())
        mod_p = [(pt, c % p) for pt, c in up.items() if c % p]
        (point, coeff), = mod_p
        inv0 = pow(coeff, -1, p)
        v = Torsion.delta(q, k, tuple(-x for x in point), inv0)
        two_delta = Torsion.delta(q, k, (0,) * k, 2)
        precision = 1
        while precision < s:
            v = v.convolve(two_delta - up.convolve(v))
            precision *= 2
        if not up.convolve(v) == Torsion.delta(q, k, (0,) * k):
            raise AssertionError("Hensel lifting failed on a certified unit")
        parts.append((q, v))
    support = sorted({pt for _, v in parts for pt, _ in v.items()})
    items = []
    for pt in support:
        val, _ = crt((v.coeff(pt), q) for q, v in parts)
        items.append((pt, val))
    out = Torsion(n, k, items)
    if not u.convolve(out) == Torsion.delta(n, k, (0,) * k):
        raise AssertionError("group-ring inverse failed exact verification")
    return out


def inverse_unimodular(m):
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


def automorphism_inverse(aut: WreathAutomorphism) -> WreathAutomorphism:
    """The inverse automorphism; refuses a triple that fails validation."""
    aut._require_valid()
    minv = inverse_unimodular(aut.matrix)
    u_prime = group_ring_inverse(aut.origin_image).relabeled(minv)
    cocycle = tuple(
        -aut.cocycle_value(column).relabeled(minv).convolve(u_prime)
        for column in transpose(minv)
    )
    return WreathAutomorphism(aut.params, minv, u_prime, cocycle)


def point_index(group, p) -> int:
    """The position in `group.points` of the box point p, reduced mod the box."""
    return group.points.index(tuple(x % group.box for x in p))


def encode(group, coeffs, shift) -> int:
    """The model index of the lamps `coeffs` (over `group.points`) and the shift."""
    t = 0
    for c in reversed(coeffs):
        t = t * group.modulus + c % group.modulus
    return t * group.point_count + point_index(group, shift)


def decode(group, index: int):
    """The lamps over `group.points` and the shift point of a model index."""
    t, s = divmod(index, group.point_count)
    coeffs = []
    for _ in range(group.point_count):
        t, c = divmod(t, group.modulus)
        coeffs.append(c)
    return tuple(coeffs), group.points[s]


def multiply(group, i: int, j: int) -> int:
    """The product of model elements i and j, one coefficient slot at a time."""
    (c1, z1), (c2, z2) = decode(group, i), decode(group, j)
    combined = list(c1)
    for p, c in zip(group.points, c2):
        if c:
            tgt = point_index(group, [a + b for a, b in zip(p, z1)])
            combined[tgt] = (combined[tgt] + c) % group.modulus
    return encode(group, combined, [a + b for a, b in zip(z1, z2)])


def inverse(group, i: int) -> int:
    """The inverse of model element i: the lamp at p goes to p - z, negated."""
    coeffs, z = decode(group, i)
    out = [0] * group.point_count
    for p, c in zip(group.points, coeffs):
        out[point_index(group, [a - b for a, b in zip(p, z)])] = -c % group.modulus
    return encode(group, out, [-x for x in z])


def element_to_group(group, index: int) -> GroupElement:
    """The element of Z_n wr Z^k with the model element's lamps and shift, in the box."""
    coeffs, shift = decode(group, index)
    items = [(p, c) for p, c in zip(group.points, coeffs) if c]
    return GroupElement(Torsion(group.modulus, group.rank, items), shift)


def group_to_index(group, g: GroupElement) -> int:
    """The model element that g reduces to mod the box."""
    if g.torsion.modulus != group.modulus or g.torsion.rank != group.rank:
        raise ValueError("element parameters do not match the model")
    coeffs = [0] * group.point_count
    for p, c in g.torsion.items():
        idx = point_index(group, p)
        coeffs[idx] = (coeffs[idx] + c) % group.modulus
    return encode(group, coeffs, g.shift)


def twisted_classes_unionfind(group, aut) -> TwistedClassPartition:
    """Twisted classes of a finite model by union-find over all (h, g) pairs."""
    order = group.order
    parent = list(range(order))
    size = [1] * order

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        size[ra] += size[rb]

    for h in range(order):
        fh = int(aut.at(inverse(group, h)))
        for g in range(order):
            union(g, multiply(group, multiply(group, h, g), fh))

    mins: dict[int, int] = {}
    for x in range(order):
        r = find(x)
        if r not in mins or x < mins[r]:
            mins[r] = x
    reps = sorted(mins.values())
    labels = np.array([mins[find(x)] for x in range(order)], dtype=np.int64)
    return TwistedClassPartition(labels, np.array(reps, dtype=np.int64), len(reps))


def orbit_minima_unionfind(edges, order: int) -> np.ndarray:
    """The least element of each element's orbit under the edges x -> edge[x], by union-find.

    Every union hangs the larger root under the smaller, so a set's root is
    always its least element.
    """
    parent = list(range(order))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in edges:
        for x, y in enumerate(np.asarray(edge).tolist()):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
    return np.array([find(x) for x in range(order)], dtype=np.int64)


def mat_pow(m, e: int):
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


def rule_reidemeister(aut: WreathAutomorphism) -> int | float:
    """R(phi) by the mod-p rule: |det(I - M)| or math.inf, for rank at most 3.

    R is infinite when det(I - M) = 0, when M has infinite order, or when
    c_p^N = 1 (mod p) for some prime p | n, where N is the order of M and
    u = c_p D[q_p] (mod p); otherwise R = |det(I - M)|.  |det(I - M)| is
    the fixed-character count, and N is found by the plain power loop up to
    12, which misses no finite order at rank 3 or less: those orders are 1,
    2, 3, 4 and 6.
    """
    k, n = aut.params.rank, aut.params.modulus
    if k > 3:
        raise ValueError("the power loop finds every finite order only up to rank 3")
    quotient = fixed_character_count(aut.matrix)
    order = next((e for e in range(1, 13) if mat_pow(aut.matrix, e) == identity(k)), None)
    if quotient == 0 or order is None:
        return inf
    for p in (p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))):
        (c,) = [c % p for _, c in aut.origin_image.items() if c % p]  # u is a unit: one point mod p
        if pow(c, order, p) == 1:
            return inf
    return quotient


def random_unimodular(rng, k: int, steps: int = 12, coeff_bound: int = 3):
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


def project_element(g: GroupElement, divisor: int) -> GroupElement:
    """Entire-group reduction: torsion coefficients mod d, shift untouched."""
    return GroupElement(g.torsion.project(divisor), g.shift)


def compose(aut: WreathAutomorphism, other: WreathAutomorphism) -> WreathAutomorphism:
    """aut after other."""
    aut._require_valid()
    other._require_valid()
    if aut.params != other.params:
        raise IncompatibleParams("cannot compose automorphisms of different groups")
    k = aut.params.rank
    basis = identity(k)
    cocycle = tuple(
        aut.on_torsion(other.cocycle[i]) + aut.cocycle_value(mat_vec(other.matrix, basis[i]))
        for i in range(k)
    )
    return WreathAutomorphism(
        aut.params,
        mat_mul(aut.matrix, other.matrix),
        aut.on_torsion(other.origin_image),
        cocycle,
    )


def inner(gamma: GroupElement) -> WreathAutomorphism:
    """Conjugation by gamma as a split triple (matrix is the identity)."""
    params = gamma.params
    n, k = params.modulus, params.rank
    sigma = gamma.torsion
    basis = identity(k)
    cocycle = tuple(sigma - sigma.shifted(basis[i]) for i in range(k))
    return WreathAutomorphism(params, basis, Torsion.delta(n, k, gamma.shift), cocycle)


def twist(aut: WreathAutomorphism, gamma: GroupElement) -> WreathAutomorphism:
    """Inner twist: conjugation by gamma composed after aut."""
    return compose(inner(gamma), aut)


class TableAutomorphism(FiniteAutomorphism):
    """An automorphism of a finite model given by its whole image table.

    The form every automorphism of a model had before descents were kept as
    formulas.  Construction checks the whole table (see `_verify`) unless
    `check` is false; `at` reads the table, and `images`, equality and
    hashing mean what they mean for a formula.
    """

    def __init__(self, group, table, provenance: str = "anonymous", check: bool = True):
        self.group, self.provenance = group, provenance
        self.table = np.asarray(table, dtype=np.int32)
        if self.table.shape != (group.order,):
            raise ValueError("automorphism table has the wrong length")
        if check:
            self._verify()
        self.images = tuple(self.at(group.ensure_tables()["inverse_gens"]).tolist())

    def _verify(self):
        """Check bijectivity, then T(x s) == T(x) T(s) for every x and generator s.

        The second check is exact.  Taking x = e gives T(s) = T(e) T(s), so
        T(e) = e.  G is finite, so every y in G is a product s_1 ... s_r of
        generators (no inverses needed), and induction on r gives
        T(x s_1 ... s_r) = T(x) T(s_1) ... T(s_r); at x = e this reads
        T(y) = T(s_1) ... T(s_r), hence T(x y) = T(x) T(y) for all x and y.
        """
        group, table, name = self.group, self.table, self.provenance
        order = group.order
        in_range = table.min() >= 0 and table.max() < order  # bincount needs it
        if not in_range or np.any(np.bincount(table, minlength=order) != 1):
            raise InvalidAutomorphism(f"{name} is not a bijection")
        gens = group.generators()
        # rows x -> x s, then x -> x T(s), for every generator s
        maps = group.translations([(group.identity, s) for s in [*gens, *table[gens]]])
        lhs, rhs = table[maps[: len(gens)]], maps[len(gens) :, table]
        if not np.array_equal(lhs, rhs):
            s = next(s for s, left, right in zip(gens, lhs, rhs) if not np.array_equal(left, right))
            raise InvalidAutomorphism(f"{name} is not multiplicative at generator {s}")

    def at(self, indices) -> np.ndarray:
        return self.table[indices].astype(np.int64)


def identity_descent(group) -> FiniteAutomorphism:
    """The identity of a finite model: the descent of the identity of Z_n wr Z^k."""
    params = GroupParams(group.modulus, group.rank)
    return descend_automorphism(WreathAutomorphism.identity(params), group)


def twisted_by(f: FiniteAutomorphism, g: int) -> TableAutomorphism:
    """Inner twist of a finite model's automorphism: conjugation by g composed after f."""
    group = f.group
    conjugation = group.translations([(g, group.inverses([g])[0])])[0]
    return TableAutomorphism(
        group,
        conjugation[f.at(np.arange(group.order))],
        provenance=f"tw[{g}]*{f.provenance}",
        check=False,
    )


def zero_cocycle_catalog(group) -> list[FiniteAutomorphism]:
    """Descended single-point-unit automorphisms with zero cocycle, deduplicated."""
    auts = zero_cocycle_automorphisms(group.modulus, group.rank, group.box)
    return [fin for _, fin in distinct_descents(auts, group)]


def inner_twists(group, aut: FiniteAutomorphism) -> list[TableAutomorphism]:
    """All inner twists of aut, deduplicated by their generator images (g = identity first)."""
    return list(dict.fromkeys(twisted_by(aut, g) for g in range(group.order)))


def whole_table_descent(aut: WreathAutomorphism, group) -> np.ndarray:
    """The image table of `aut` descended to `group`, built over the whole group.

    Same recurrences as `descend_automorphism`: each axis's cocycle
    obstruction, then the box's cocycle values corr(p + e_i) = corr(p) +
    shift(M p) c_i.  The table applies the linear part to every torsion
    index, adds corr(z) by the left translation by (corr(z), 0), and pairs
    the result with the reduced shift map.
    """
    aut._require_valid()
    n, k, m = group.modulus, group.rank, group.box
    pcount, strides = group.point_count, group.strides
    tables = group.ensure_tables()

    def reduce_vec(t: Torsion) -> np.ndarray:
        vec = np.zeros(pcount, dtype=np.int64)
        for p, c in t.items():
            vec[sum(x % m * stride for x, stride in zip(p, strides))] += c
        return vec % n

    reduced = np.array([[x % m for x in row] for row in aut.matrix], dtype=np.int64)
    shift_map = (np.array(group.points, dtype=np.int64) @ reduced.T) % m @ strides
    moved = tables["perms"][tables["sneg"][shift_map]]
    steps = [reduce_vec(c)[moved] for c in aut.cocycle]
    for i, step in enumerate(steps):
        if np.any(step[np.arange(m) * strides[i]].sum(axis=0) % n):
            raise DescentError(f"cocycle obstruction on axis {i}")
    corr = np.zeros((pcount, pcount), dtype=np.int64)
    for q in range(1, pcount):
        i = k - 1
        while q // strides[i] % m == 0:
            i -= 1
        corr[q] = (corr[q - strides[i]] + steps[i][q - strides[i]]) % n
    u_rows = reduce_vec(aut.origin_image)[moved]
    linear = ((tables["digits"] @ u_rows) % n) @ tables["wt"]
    # row z: x -> (corr(z), 0) x, read at x = (U c, 0) for every c
    added = group.translations([(int(row @ tables["wt"]) * pcount, group.identity) for row in corr])
    return (added[:, linear * pcount] + shift_map[:, None]).T.reshape(-1)


def central_cosets(group, elements: list[int]) -> dict[int, int]:
    """Each element's coset of the center, named by its member with origin digit 0.

    The center is the constant lamp configurations with zero shift, or all
    of G when m^k = 1; subtracting the origin digit from every digit, shift
    kept, gives the member.
    """
    tables = group.ensure_tables()
    digits, wt = tables["digits"], tables["wt"]
    t, s = np.divmod(np.array(elements, dtype=np.int64), group.point_count)
    torsion = ((digits[t] - digits[t, :1]) % group.modulus) @ wt
    return dict(zip(elements, (torsion * group.point_count + s).tolist()))
