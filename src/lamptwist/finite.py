"""Brute-force finite models Z_n wr (Z/mZ)^k for exhaustive class checks.

The model truncates the lattice to the box (Z/mZ)^k.  Elements are encoded
as mixed-radix integers: torsion coefficients in base n over the m^k box
points (lexicographic order), then the shift in base m, so that

    index = torsion_index * m^k + shift_index.

The model has one arithmetic, the numpy digit tables of this encoding
(`ensure_tables`); there is no per-element path.  Translations x -> a x b,
inverses, elementwise products and reductions mod a divisor are built from
them; a translation costs O(|G|) work, and no multiplication table is ever
formed.

An automorphism of the model is its formula f(c, z) = (U c + corr[z], M z),
the only form a descent takes, and no table of its values is kept.  `at`
evaluates it only where a check reads it: at the generator inverses once (a
class count reads nothing else), at the class representatives for tbft, at
the torsion elements for restriction, and on all of G for the projection
diagram.  The formula's guard is exact and costs O(k·m^2k) work: z -> M z
permutes the box, det U is a unit mod n, and the formula is multiplicative
at every generator, which is an identity over the box points.

Twisted-conjugacy classes are the orbits of the action h: x -> h x f(h^-1).
That is a genuine group action, so its orbits are already the connected
components of the k+1 edge maps x -> s x f(s)^-1 for the generators s.  They
are found by min-label propagation in the manner of Shiloach and Vishkin:
each edge map's hook is followed at once by a pointer jump, in O(|G|·(k+1))
work per round, and the rounds stop when the labels are flat and constant
along every edge, a test made of gathers alone.  Many automorphisms of one
model are counted in one propagation over the disjoint union of their graphs:
the ordinary classes that a TBFT check needs (the identity's row) join the
count of the automorphism's own classes, and the shift check feeds its inner
twists to that count a bounded chunk at a time.  Automorphisms, inner twists
included, are told apart by one rule, their images of the generator inverses.
Everything here is deterministic: a class is named by its least element.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Iterator
from math import gcd
from typing import NamedTuple

import numpy as np

from .group import GroupParams, Torsion
from .matrix import ORDER_THREE_BLOCK, block_diagonal, check_rank, det, identity as identity_matrix
from .automorphism import InvalidAutomorphism, WreathAutomorphism
from .modular import bounded_message

DEFAULT_BUDGET = 10**6


class BudgetExceeded(ValueError):
    """A finite-model computation would overrun its configured budget."""


class DescentError(ValueError):
    """An automorphism does not descend to the requested truncation."""


class FiniteWreathGroup:
    """The finite group Z_n wr (Z/mZ)^k with indexed elements."""

    def __init__(self, modulus: int, box: int, rank: int, budget: int = DEFAULT_BUDGET):
        for name, x, least in (("modulus", modulus, 2), ("box", box, 1), ("rank", rank, 1)):
            if x < least:
                raise ValueError(bounded_message(f"{name} must be at least {least}, got {{}}", x))
        check_rank(rank)
        self.modulus = modulus
        self.box = box
        self.rank = rank
        npoints = box**rank
        if npoints > 60:
            raise BudgetExceeded(bounded_message(
                "box {}^{} has {} points; the model order exceeds any budget", box, rank, npoints
            ))
        self.points = list(itertools.product(range(box), repeat=rank))
        self.point_count = npoints
        # the index of a box point p is p . strides: lexicographic mixed radix
        self.strides = [box ** (rank - 1 - i) for i in range(rank)]
        self.torsion_count = modulus**npoints
        self.order = self.torsion_count * npoints
        if self.order > budget:
            raise BudgetExceeded(bounded_message(
                "|G| = {}^{} * {} = {} exceeds budget {}",
                modulus, npoints, npoints, self.order, budget,
            ))
        self._tables = None

    @property
    def identity(self) -> int:
        return 0

    def generators(self) -> list[int]:
        """Origin torsion generator plus the basis shifts, which are trivial when m = 1."""
        # torsion digit 1 at the origin slot; the basis shift e_i has point index strides[i]
        return [self.point_count, *(self.strides if self.box > 1 else [])]

    # -- vectorized arithmetic ---------------------------------------------------

    def ensure_tables(self) -> dict:
        """Digit tables of the encoding: O(|G|) entries, built once per model."""
        if self._tables is None:
            n, pcount = self.modulus, self.point_count
            d = np.arange(self.torsion_count, dtype=np.int64)
            digits = np.empty((self.torsion_count, pcount), dtype=np.int64)
            for i in range(pcount):
                digits[:, i] = d % n
                d //= n
            coords = np.array(self.points, dtype=np.int64)
            strides = np.array(self.strides, dtype=np.int64)
            low = pcount // 2
            self._tables = {
                "digits": digits,
                "wt": n ** np.arange(pcount, dtype=np.int64),
                # perms[s, p] is the point index of p + s, sneg[p] that of -p
                "perms": (coords[:, None, :] + coords) % self.box @ strides,
                "sneg": -coords % self.box @ strides,
                # row h holds slot * n + digit for the digits of the high (low) half h
                # of a torsion index: the term columns that `translations` sums
                "high": np.arange(low, pcount) * n + digits[: n ** (pcount - low), : pcount - low],
                "low": np.arange(low) * n + digits[: n**low, :low],
            }
            # s^-1 for every generator s, which every class count's edge maps read
            self._tables["inverse_gens"] = self.inverses(self.generators())
        return self._tables

    def inverses(self, elements) -> np.ndarray:
        """The inverse of every element: (c, z)^-1 = (-((-z) . c), -z)."""
        tables = self.ensure_tables()
        t, s = np.divmod(np.asarray(elements, dtype=np.int64), self.point_count)
        neg = tables["sneg"][s]
        # slot i of -c moves to slot i - z
        torsion = (-tables["digits"][t] % self.modulus * tables["wt"][tables["perms"][neg]]).sum(1)
        return torsion * self.point_count + neg

    def products(self, a, b) -> np.ndarray:
        """a[i] b[i] for every i: (c, z)(d, w) = (c + z . d, z + w)."""
        tables = self.ensure_tables()
        digits, perms = tables["digits"], tables["perms"]
        pcount = self.point_count
        (ta, sa), (tb, sb) = (np.divmod(np.asarray(x, dtype=np.int64), pcount) for x in (a, b))
        # slot j of z . d holds d[j - z]
        moved = np.take_along_axis(digits[tb], perms[tables["sneg"][sa]], axis=1)
        torsion = (digits[ta] + moved) % self.modulus @ tables["wt"]
        return torsion * pcount + perms[sa, sb]

    def translations(self, pairs) -> np.ndarray:
        """Row j is the array x -> a x b over all x, for (a, b) = pairs[j].

        a x b = (c_a + z_a . c_x + (z_a + z_x) . c_b, z_a + z_x + z_b), where
        (z . c)[i] = c[i - z].  For each pair and shift z_x the image index,
        its torsion index times m^k plus its shift, is a constant plus one
        term per digit of c_x, so it is summed from the high and the low half
        of the digits, each tabulated over about sqrt(T) values.  The halves
        are added by broadcasting into an array of shape (pairs, T_high,
        T_low, m^k), whose flat index t·m^k + z_x is the element index of x:
        O(|G|) work per pair, and nothing of that size is copied.
        """
        tables = self.ensure_tables()
        digits, perms, sneg = tables["digits"], tables["perms"], tables["sneg"]
        n, pcount = self.modulus, self.point_count
        (ta, sa), (tb, sb) = (np.divmod(np.array(side), pcount) for side in zip(*pairs))
        # target[j, i] = z_a + i: slot i of c_x moves there, and z_x = i shifts to it
        target = perms[sa]
        # added[j, i, z]: c_a + (z_a + z) . c_b at slot target[j, i], for z_x = z
        moved_a = np.take_along_axis(digits[ta], target, axis=1)
        added = moved_a[:, :, None] + digits[tb][:, perms[:, sneg]]
        # term[j, i * n + d, z]: the contribution of digit value d at slot i, times m^k
        term = (np.arange(n)[:, None] + added[:, :, None, :]) % n
        term *= (tables["wt"][target] * pcount)[:, :, None, None]
        term = term.reshape(len(ta), -1, pcount)
        high = term[:, tables["high"]].sum(axis=2) + perms[target, sb[:, None]][:, None, :]
        low = term[:, tables["low"]].sum(axis=2)
        # allocated in C order, whatever the layout of the fancy-indexed halves
        out = np.add(high[:, :, None, :], low[:, None, :, :], order="C")
        return out.reshape(len(ta), -1)


class FiniteAutomorphism:
    """The automorphism (c, z) -> (U c + corr[z], S z) of a finite model, kept as its formula.

    Row p of `u_rows` is U applied to the lamp at slot p, row z of `corr` is
    a digit vector, and `shift[z]` is the point index of S z.  Construction
    checks, exactly, that the formula is an automorphism (see `_guard`).
    The checks read it through `at`, which evaluates it on an index array
    in O(m^2k) work per element, and `images`, its values at the generator
    inverses s^-1.  Two automorphisms of one model are equal when their
    images are: a homomorphism is fixed by its values on generators.
    """

    def __init__(self, group: FiniteWreathGroup, u_rows, corr, shift, provenance: str):
        self.group, self.provenance = group, provenance
        self.u_rows, self.corr, self.shift = u_rows, corr, shift
        self._guard()
        self.images = tuple(self.at(group.ensure_tables()["inverse_gens"]).tolist())

    def _guard(self):
        """Refuse a formula that is not a bijection and a homomorphism, in O(k·m^2k) work.

        f is a bijection exactly when S permutes the box and U is
        invertible, that is det U is a unit mod n.  f is a homomorphism
        exactly when f(x s) = f(x) f(s) for every x and generator s: taking
        x = e gives f(e) = e, every element is a product of generators, and
        induction on its length gives f(x y) = f(x) f(y).  For x = (c, z)
        this reduces, c cancelling, to an identity over the box points z: at
        the lamp generator a = (e_0, 0), S 0 = 0 and U e_z = S(z) . (U e_0 +
        corr[0]); at the shift generator (0, e_i), S(z + e_i) = S z + S e_i
        and corr[z + e_i] = corr[z] + S(z) . corr[e_i].
        """
        group, name = self.group, self.provenance
        n, pcount = group.modulus, group.point_count
        tables = group.ensure_tables()
        perms, shift, u_rows, corr = tables["perms"], self.shift, self.u_rows, self.corr
        permutes = np.array_equal(np.sort(shift), np.arange(pcount))
        if not permutes or gcd(det(u_rows.tolist()), n) != 1:
            raise InvalidAutomorphism(f"{name} is not a bijection")
        # row z of v[moved] is v translated by S z: (w . v)[j] = v[j - w]
        moved = perms[tables["sneg"][shift]]
        gens = group.generators()
        if shift[0] != 0 or np.any(u_rows != (u_rows[0] + corr[0])[moved] % n):
            raise InvalidAutomorphism(f"{name} is not multiplicative at generator {gens[0]}")
        for e in gens[1:]:
            additive = np.array_equal(shift[perms[e]], perms[shift[e], shift])
            if not additive or np.any(corr[perms[e]] != (corr + corr[e][moved]) % n):
                raise InvalidAutomorphism(f"{name} is not multiplicative at generator {e}")

    def at(self, indices) -> np.ndarray:
        """The image of every element of an index array, as int64."""
        tables = self.group.ensure_tables()
        t, s = np.divmod(np.asarray(indices, dtype=np.int64), self.group.point_count)
        lamps = (tables["digits"][t] @ self.u_rows + self.corr[s]) % self.group.modulus
        return (lamps @ tables["wt"]) * self.group.point_count + self.shift[s]

    def _key(self):
        group = self.group
        return group.modulus, group.box, group.rank, self.images

    def __eq__(self, other):
        return isinstance(other, FiniteAutomorphism) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def descend_automorphism(aut: WreathAutomorphism, group: FiniteWreathGroup) -> FiniteAutomorphism:
    """Reduce a validated automorphism of Z_n wr Z^k to the finite model.

    Requires the cocycle obstruction to vanish: for every axis i the cocycle
    value at m·e_i, the sum of shift(j·M e_i) c_i over j < m, must reduce to
    zero, otherwise the map is not well defined on the quotient and
    DescentError is raised.  The cocycle values on the box follow from the
    crossed-homomorphism identity corr(p + e_i) = corr(p) + shift(M p) c_i,
    filled in lexicographic order from corr(0) = 0, all on digit vectors.
    The result is the formula (c, z) -> (U c + corr[z], M z), where row p
    of U is shift(M p) u; it is checked to be an automorphism of the model.
    """
    aut._require_valid()
    if aut.params.modulus != group.modulus or aut.params.rank != group.rank:
        raise ValueError("automorphism parameters do not match the model")
    n, k, m = group.modulus, group.rank, group.box
    pcount, strides = group.point_count, group.strides
    tables = group.ensure_tables()

    def reduce_vec(t: Torsion) -> np.ndarray:
        vec = np.zeros(pcount, dtype=np.int64)
        for p, c in t.items():
            vec[sum(x % m * stride for x, stride in zip(p, strides))] += c
        return vec % n

    # the point index of M p for every box point p
    reduced = np.array([[x % m for x in row] for row in aut.matrix], dtype=np.int64)
    shift = (np.array(group.points, dtype=np.int64) @ reduced.T) % m @ strides
    # row p of v[moved] is v translated by M p: (z . v)[j] = v[j - z]
    moved = tables["perms"][tables["sneg"][shift]]
    steps = [reduce_vec(c)[moved] for c in aut.cocycle]  # steps[i][p] = shift(M p) c_i

    for i, step in enumerate(steps):
        if np.any(step[np.arange(m) * strides[i]].sum(axis=0) % n):
            raise DescentError(
                f"cocycle obstruction on axis {i} does not vanish in the box of side {m}"
            )

    corr = np.zeros((pcount, pcount), dtype=np.int64)
    for q in range(1, pcount):
        i = k - 1
        while q // strides[i] % m == 0:  # the last axis on which point q is nonzero
            i -= 1
        corr[q] = (corr[q - strides[i]] + steps[i][q - strides[i]]) % n

    u_rows = reduce_vec(aut.origin_image)[moved]
    return FiniteAutomorphism(group, u_rows, corr, shift, f"descended({aut.label()})")


# -- twisted classes -----------------------------------------------------------


class TwistedClassPartition(NamedTuple):
    """Partition of the model into twisted-conjugacy classes.

    A class is named by its least element: `labels[i]` is the least element
    of i's class, and `reps` lists those names in increasing order.  Both
    are int64 arrays.
    """

    labels: np.ndarray
    reps: np.ndarray
    count: int


def twisted_classes(aut: FiniteAutomorphism) -> TwistedClassPartition:
    """Orbits of x -> h x aut(h^-1), from one edge map per generator h."""
    return _partitions(aut.group, [aut.images])[0]


def _partitions(group: FiniteWreathGroup, images) -> list[TwistedClassPartition]:
    """`twisted_classes` of automorphisms f given by rows of images f(s^-1), s the generators.

    f is a homomorphism, so f(s)^-1 = f(s^-1) and row r's edge maps are
    x -> s x f(s^-1).  The rows form one graph: row r's edge maps are offset
    by r·|G|, so its orbits are the components in [r·|G|, (r+1)·|G|) and one
    propagation finds the orbit minima of the whole stack.  The pairs are
    listed generator-major, so the edge maps of one generator over all rows
    are one row of the union graph as built.
    """
    order, gens = group.order, group.generators()
    rows = len(images)
    pairs = [(s, row[i]) for i, s in enumerate(gens) for row in images]
    offsets = np.arange(0, rows * order, order, dtype=np.int64)
    edges = group.translations(pairs).reshape(len(gens), rows, order)
    edges += offsets[:, None]
    union = edges.reshape(len(gens), -1)
    all_minima = _orbit_minima(union, rows * order).reshape(rows, order)
    all_minima -= offsets[:, None]
    ids = np.arange(order)
    out = []
    for labels in all_minima:
        reps = np.flatnonzero(labels == ids)
        out.append(TwistedClassPartition(labels, reps, len(reps)))
    return out


def _orbit_minima(edges: np.ndarray, order: int) -> np.ndarray:
    """The least element of each element's orbit under the permutation rows of `edges`.

    Hook and jump: every edge x -> e(x) hooks the label of each end onto the
    smaller of the two labels, and a pointer jump right after each edge's
    hook shortens the label chains.  A label is always an element of the
    same orbit and never larger than its element, so once the labels are
    flat (each label labels itself) and constant along every edge, each
    orbit is labelled by its least element.  That stop is tested by gathers
    alone, after each round over the edges.
    """
    labels = np.arange(order, dtype=np.int64)
    while True:
        for edge in edges:
            here, there = labels, labels[edge]
            low = np.minimum(here, there)
            labels = here.copy()
            np.minimum.at(labels, here, low)
            np.minimum.at(labels, there, low)
            labels = labels[labels]
        if (labels[labels] == labels).all() and (labels[edges] == labels).all():
            return labels


def fixed_conjugacy_classes(ordinary: TwistedClassPartition, aut: FiniteAutomorphism) -> int:
    """Number of the ordinary classes, the identity's partition, that aut maps to themselves."""
    labels, reps, _ = ordinary
    return int(np.count_nonzero(labels[aut.at(reps)] == reps))


# -- verification reports --------------------------------------------------------


class OracleCheck(NamedTuple):
    name: str
    params: str
    passed: bool
    lhs: object
    rhs: object

    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return f"CHECK {self.name} {self.params} {word} {self.lhs} {self.rhs}"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "pass": self.passed,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


def _model_params(group: FiniteWreathGroup, **extra) -> str:
    parts = [f"n={group.modulus}", f"m={group.box}", f"k={group.rank}"]
    parts.extend(f"{key}={value}" for key, value in extra.items())
    return ";".join(parts)


def verify_tbft_finite(
    aut: FiniteAutomorphism, base: TwistedClassPartition, ordinary: TwistedClassPartition
) -> OracleCheck:
    """Twisted-class count against automorphism-fixed ordinary classes.

    `base` is the partition of `aut`, `ordinary` that of the identity.
    """
    lhs = base.count
    rhs = fixed_conjugacy_classes(ordinary, aut)
    return OracleCheck(
        name="tbft",
        params=_model_params(aut.group, aut=aut.provenance),
        passed=(lhs == rhs),
        lhs=lhs,
        rhs=rhs,
    )


# nodes in the union graph of one batch of class counts
_CHUNK_NODES = 4096


def verify_shift_invariance(
    aut: FiniteAutomorphism, elements: Iterable[int], base: TwistedClassPartition
) -> list[OracleCheck]:
    """Count invariance under the inner twists by `elements`, plus the class-level bijection.

    Three checks per g, in the order of `elements`.  A twist is known by its
    generator images, the row c f(s^-1) c^-1 for the twist by c, so twists
    by every g and g^-1 are computed in one batch and each distinct row is
    counted once, a chunk at a time; the row `aut.images`, the twist by the
    center, is `base`, the partition of `aut` itself.  Right translation by
    g must send the classes of `base` one to one onto those of the twist by
    g^-1.  Of a chunk's partitions only the counts and the class-map figures
    are kept, so memory stays that of one chunk.
    """
    group = aut.group
    elements = list(elements)
    twisting = [*elements, *group.inverses(elements).tolist()]
    left = np.repeat(twisting, len(aut.images))
    images = group.products(group.products(left, aut.images * len(twisting)), group.inverses(left))
    rows = list(map(tuple, images.reshape(len(twisting), -1).tolist()))
    by_g, by_inverse = rows[: len(elements)], rows[len(elements) :]
    counts, classmap = {}, {}

    def record(parts):
        counts.update((row, part.count) for row, part in parts.items())
        moved = {g: parts[row] for g, row in zip(elements, by_inverse) if row in parts}
        if moved:
            rights = group.translations([(group.identity, g) for g in moved])
            for (g, part), right in zip(moved.items(), rights):
                classmap[g] = _class_map(base, part, right)

    record({aut.images: base})
    rest = [row for row in dict.fromkeys(rows) if row != aut.images]
    size = max(1, _CHUNK_NODES // group.order)
    for i in range(0, len(rest), size):
        chunk = rest[i : i + size]
        record(dict(zip(chunk, _partitions(group, chunk))))  # freed before the next chunk
    checks = []
    for g, row, inverse_row in zip(elements, by_g, by_inverse):
        params = _model_params(group, aut=aut.provenance, g=g)
        count, inverse_count = counts[row], counts[inverse_row]
        pairs, onto = classmap[g]
        checks += [
            OracleCheck("shift-count", params, base.count == count, base.count, count),
            OracleCheck("shift-classmap", params, pairs == base.count, pairs, base.count),
            OracleCheck("shift-onto", params, onto == inverse_count, onto, inverse_count),
        ]
    return checks


def _distinct(a: np.ndarray) -> int:
    """Number of distinct values in an int array, by one sort.

    `np.unique` would do as well, but it imports `numpy.ma` on first use.
    """
    s = np.sort(a, axis=None)
    return int(s.size > 0) + int(np.count_nonzero(s[1:] != s[:-1]))


def _class_map(
    base: TwistedClassPartition, part: TwistedClassPartition, where: np.ndarray
) -> tuple[int, int]:
    """The figures of x -> where[x] against the classes: (pairs, onto).

    `pairs` is the number of distinct (base class of x, `part` class of
    where[x]) pairs, which equals base.count when the map sends each base
    class into one `part` class; `onto` is the number of `part` classes hit.
    """
    mapped = part.labels[where]
    return _distinct(base.labels * len(part.labels) + mapped), _distinct(mapped)


def projection_index_map(big: FiniteWreathGroup, small: FiniteWreathGroup) -> np.ndarray:
    """Elementwise coefficient reduction map between models sharing box and rank."""
    if big.box != small.box or big.rank != small.rank or big.modulus % small.modulus:
        raise ValueError("projection needs equal boxes and a dividing modulus")
    d, pcount = small.modulus, big.point_count
    torsion = (big.ensure_tables()["digits"] % d) @ (d ** np.arange(pcount, dtype=np.int64))
    return (torsion[:, None] * pcount + np.arange(pcount)).astype(np.int32).reshape(-1)


def verify_projection(
    aut_big: FiniteAutomorphism, aut_small: FiniteAutomorphism, base: TwistedClassPartition
) -> list[OracleCheck]:
    """Projection compatibility: diagram, class map, and the count bound.

    `base` is the partition of `aut_big`.
    """
    big, small = aut_big.group, aut_small.group
    pi = projection_index_map(big, small)
    params = _model_params(big, d=small.modulus, aut=aut_big.provenance)
    diagram_bad = int(np.count_nonzero(aut_small.at(pi) != pi[aut_big.at(np.arange(big.order))]))
    checks = [OracleCheck("projection-diagram", params, diagram_bad == 0, diagram_bad, 0)]
    part_small = twisted_classes(aut_small)
    pairs, onto = _class_map(base, part_small, pi)
    checks.append(
        OracleCheck("projection-classmap", params, pairs == base.count, pairs, base.count)
    )
    checks.append(
        OracleCheck("projection-onto", params, onto == part_small.count, onto, part_small.count)
    )
    checks.append(
        OracleCheck(
            "projection-bound",
            params,
            base.count >= part_small.count,
            base.count,
            part_small.count,
        )
    )
    return checks


def verify_restriction_bound(
    aut: FiniteAutomorphism, base: TwistedClassPartition
) -> list[OracleCheck]:
    """R(restriction) <= R(full map) * fixed points of the shift quotient map.

    `base` is the partition of `aut`.  The torsion subgroup is abelian, so
    the restriction's classes are the cosets of the image of x -> x - aut(x)
    and counting them reduces to an image size.
    """
    group = aut.group
    params = _model_params(group, aut=aut.provenance)
    pcount = group.point_count
    images = aut.at(np.arange(group.torsion_count, dtype=np.int64) * pcount)
    preserved_bad = int(np.count_nonzero(images % pcount))
    checks = [
        OracleCheck("restriction-preserved", params, preserved_bad == 0, preserved_bad, 0)
    ]
    if preserved_bad:
        return checks
    tables = group.ensure_tables()
    digits, wt = tables["digits"], tables["wt"]
    chi = ((digits - digits[images // pcount]) % group.modulus) @ wt
    restricted = group.torsion_count // _distinct(chi)
    fixed = int(np.count_nonzero(aut.shift == np.arange(pcount)))
    bound = base.count * fixed
    checks.append(
        OracleCheck("restriction-bound", params, restricted <= bound, restricted, bound)
    )
    return checks


# -- catalogs ---------------------------------------------------------------------


def zero_cocycle_automorphisms(n: int, k: int, box: int) -> list[WreathAutomorphism]:
    """Single-point-unit, zero-cocycle automorphisms of Z_n wr Z^k.

    The matrices are I, -I, the cyclic coordinate shift (k >= 2) and the
    order-three block diagonal (even k).  Support points range over the box
    [0, box)^k so every entry descends to the matching finite model.
    Deterministic order: matrix, point, unit.
    """
    params = GroupParams(n, k)
    matrices = [identity_matrix(k), block_diagonal(((-1,),), k)]
    if k >= 2:
        matrices.append(
            tuple(tuple(1 if j == (i + 1) % k else 0 for j in range(k)) for i in range(k))
        )
    if k % 2 == 0:
        matrices.append(block_diagonal(ORDER_THREE_BLOCK, k))
    units = [c for c in range(1, n) if gcd(c, n) == 1]
    return [
        WreathAutomorphism(params, matrix, Torsion.delta(n, k, point, c))
        for matrix in matrices
        for point in itertools.product(range(box), repeat=k)
        for c in units
    ]


def distinct_descents(
    auts: Iterable[WreathAutomorphism], group: FiniteWreathGroup
) -> list[tuple[WreathAutomorphism, FiniteAutomorphism]]:
    """Each automorphism with its descent to `group`; of equal descents only the first is kept.

    Descents are compared by their generator images, which is exact.
    """
    first = {}
    for aut in auts:
        first.setdefault(descend_automorphism(aut, group), aut)
    return [(aut, fin) for fin, aut in first.items()]


# -- the oracle run -----------------------------------------------------------------

ORACLE_CHECKS = ("tbft", "shift", "projection", "restriction")
SHIFT_SAMPLE_CAP = 200
SHIFT_SAMPLES = 25


def _shift_samples(order: int) -> list[int]:
    """Every element of a model up to SHIFT_SAMPLE_CAP, else SHIFT_SAMPLES seeded picks."""
    if order <= SHIFT_SAMPLE_CAP:
        return list(range(order))
    rng = random.Random(0x5EED)
    return sorted({rng.randrange(order) for _ in range(SHIFT_SAMPLES)})


def run_checks(
    group: FiniteWreathGroup, sources: Iterable[WreathAutomorphism], checks, divisor=None
) -> Iterator[OracleCheck]:
    """Yield the named checks, in the order tbft, shift, restriction, projection (against
    the model of modulus `divisor`), on each distinct descent of `sources` to `group`.

    Each descent's classes are counted once for every check; with `tbft`, the
    model's ordinary classes (the identity's row) join the first count.
    """
    if "projection" in checks:
        # divisor < modulus, so the smaller model fits the budget `group` met
        small = FiniteWreathGroup(divisor, group.box, group.rank, budget=group.order)
    samples = _shift_samples(group.order) if "shift" in checks else []
    try:
        # the identity's images of the generator inverses are the inverses themselves
        identity, ordinary = tuple(group.ensure_tables()["inverse_gens"].tolist()), None
        for aut, fin in distinct_descents(sources, group):
            if "tbft" in checks and ordinary is None:
                # one row when fin is the identity
                parts = _partitions(group, list(dict.fromkeys([fin.images, identity])))
                base, ordinary = parts[0], parts[-1]
            else:
                base = twisted_classes(fin)
            if "tbft" in checks:
                yield verify_tbft_finite(fin, base, ordinary)
            if "shift" in checks:
                yield from verify_shift_invariance(fin, samples, base)
            if "restriction" in checks:
                yield from verify_restriction_bound(fin, base)
            if "projection" in checks:
                small_fin = descend_automorphism(aut.induce(divisor), small)
                yield from verify_projection(fin, small_fin, base)
    except MemoryError:
        # a raised budget admits models whose tables outgrow memory
        raise ValueError(f"|G| = {group.order}: the finite model does not fit in memory") from None
