"""Brute-force finite models Z_n wr (Z/mZ)^k for exhaustive class checks.

The model truncates the lattice to the box (Z/mZ)^k.  Elements are encoded
as mixed-radix integers: torsion coefficients in base n over the m^k box
points (lexicographic order), then the shift in base m, so that

    index = torsion_index * m^k + shift_index.

Whole-group arrays (the translations x -> a x b, descended automorphisms,
reductions mod a divisor) are built by numpy digit arithmetic on this
encoding; a translation costs O(|G|) work, and no multiplication table is
ever formed.

Twisted-conjugacy classes are the orbits of the action h: x -> h x f(h^-1).
That is a genuine group action, so its orbits are already the connected
components of the k+1 edge maps x -> s x f(s)^-1 for the generators s; they
are found by min-label propagation with pointer jumping in O(|G|·(k+1)) work
per round.  Many automorphisms of one model are counted in one propagation
over the disjoint union of their graphs; the shift check feeds its inner
twists to that count a bounded chunk at a time.
Everything here is deterministic: representatives are minimal element
indices and class ids are their ranks.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from math import gcd
from typing import NamedTuple

import numpy as np

from .group import GroupParams, Torsion
from .matrix import identity as identity_matrix, mat_vec
from .automorphism import InvalidAutomorphism, WreathAutomorphism
from .reidemeister import block_order_three

DEFAULT_BUDGET = 10**6


class BudgetExceeded(ValueError):
    """A finite-model computation would overrun its configured budget."""


class DescentError(ValueError):
    """An automorphism does not descend to the requested truncation."""


class FiniteWreathGroup:
    """The finite group Z_n wr (Z/mZ)^k with indexed elements."""

    def __init__(self, modulus: int, box: int, rank: int, budget: int = DEFAULT_BUDGET):
        if modulus < 2:
            raise ValueError(f"modulus must be at least 2, got {modulus}")
        if box < 1:
            raise ValueError(f"box must be at least 1, got {box}")
        if rank < 1:
            raise ValueError(f"rank must be at least 1, got {rank}")
        self.modulus = modulus
        self.box = box
        self.rank = rank
        npoints = box**rank
        if npoints > 60:
            raise BudgetExceeded(
                f"box {box}^{rank} has {npoints} points; the model order exceeds any budget"
            )
        points = list(itertools.product(range(box), repeat=rank))
        self.points = points
        self.point_count = npoints
        self.torsion_count = modulus**npoints
        self.order = self.torsion_count * npoints
        if self.order > budget:
            raise BudgetExceeded(
                f"|G| = {modulus}^{npoints} * {npoints} = {self.order} exceeds budget {budget}"
            )
        self._point_index = {p: i for i, p in enumerate(points)}
        # permutation tables for the shift action on coefficient slots
        self._shift_perms = [
            [self._point_index[tuple((a + b) % box for a, b in zip(p, s))] for p in points]
            for s in points
        ]
        self._tables = None
        self._conjugacy = None

    # -- encoding ------------------------------------------------------------

    def encode(self, coeffs, shift) -> int:
        n = self.modulus
        t = 0
        for c in reversed(coeffs):
            t = t * n + (c % n)
        s = self._point_index[tuple(c % self.box for c in shift)]
        return t * self.point_count + s

    def decode(self, index: int):
        t, s = divmod(index, self.point_count)
        coeffs = []
        for _ in range(self.point_count):
            t, c = divmod(t, self.modulus)
            coeffs.append(c)
        return tuple(coeffs), self.points[s]

    @property
    def identity(self) -> int:
        return 0

    def generators(self) -> list[int]:
        """Origin torsion generator plus the basis shifts."""
        gens = [self.point_count]  # torsion digit 1 at the origin slot
        for i in range(self.rank):
            e = tuple(1 if j == i else 0 for j in range(self.rank))
            if e in self._point_index:
                gens.append(self._point_index[e])
        return gens

    def inverse(self, i: int) -> int:
        coeffs, z = self.decode(i)
        neg = tuple((-c) % self.box for c in z)
        perm = self._shift_perms[self._point_index[neg]]
        shifted = [0] * self.point_count
        for idx, c in enumerate(coeffs):
            shifted[perm[idx]] = c
        return self.encode([(-c) % self.modulus for c in shifted], neg)

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
            self._tables = {
                "digits": digits,
                "wt": n ** np.arange(pcount, dtype=np.int64),
                "perms": np.array(self._shift_perms, dtype=np.int64),
                "sneg": np.array(
                    [self._point_index[tuple((-c) % self.box for c in p)] for p in self.points],
                    dtype=np.int64,
                ),
            }
        return self._tables

    def _torsion_maps(self, shifts, addends) -> np.ndarray:
        """Row r sends every torsion index t to shifts[r] . c_t + addends[r].

        `shifts` holds point indices and `addends` digit vectors over the slots.
        The image index is a sum of one term per digit of t, so it is summed
        from the low and the high half of the digits, each tabulated over
        about sqrt(T) values: O(T) work per row.
        """
        tables = self.ensure_tables()
        digits, wt, perms = tables["digits"], tables["wt"], tables["perms"]
        n, pcount = self.modulus, self.point_count
        target = perms[shifts]  # slot i of c_t moves to slot target[r, i]
        added = np.asarray(addends)[np.arange(len(target))[:, None], target]
        # term[r, i * n + d]: the contribution of digit value d at slot i
        term = (np.arange(n) + added[:, :, None]) % n * wt[target][:, :, None]
        term = term.reshape(len(target), -1)
        low = pcount // 2
        high = term[:, np.arange(low, pcount) * n + digits[: n ** (pcount - low), : pcount - low]]
        rest = term[:, np.arange(low) * n + digits[: n**low, :low]]
        out = high.sum(axis=2)[:, :, None] + rest.sum(axis=2)[:, None, :]
        return out.reshape(len(target), -1)

    def _elements(self, torsion_maps: np.ndarray, shift_maps) -> np.ndarray:
        """Row j is the array x -> (torsion_maps[j, z_x](t_x), shift_maps[j, z_x]).

        `torsion_maps` has one row per shift, or a single row for all shifts.
        """
        out = torsion_maps * self.point_count + np.asarray(shift_maps)[:, :, None]
        return out.swapaxes(1, 2).reshape(len(out), -1)

    def translations(self, pairs) -> np.ndarray:
        """Row j is the array x -> a x b over all x, for (a, b) = pairs[j]."""
        tables = self.ensure_tables()
        digits, perms, sneg = tables["digits"], tables["perms"], tables["sneg"]
        pcount = self.point_count
        (ta, sa), (tb, sb) = (np.divmod(np.array(side), pcount) for side in zip(*pairs))
        # a x b = (c_a + z_a . c_x + (z_a + z_x) . c_b, z_a + z_x + z_b),
        # where (z . c)[i] = c[i - z]; row r of each pair is the shift z_x = r
        front = perms[sa]  # z_a + z_x
        moved_b = digits[tb][np.arange(len(tb))[:, None, None], perms[sneg[front]]]
        addends = (digits[ta][:, None, :] + moved_b).reshape(-1, pcount)
        torsion = self._torsion_maps(np.repeat(sa, pcount), addends)
        return self._elements(torsion.reshape(len(ta), pcount, -1), perms[front, sb[:, None]])

    def conjugacy_partition(self) -> "TwistedClassPartition":
        if self._conjugacy is None:
            self._conjugacy = twisted_classes(self, identity_automorphism(self))
        return self._conjugacy


class FiniteAutomorphism:
    """Automorphism of a finite model, stored as a permutation table.

    Construction verifies, exactly, that the table is a bijection and a
    homomorphism (see `_verify`).
    """

    def __init__(self, group: FiniteWreathGroup, table, provenance: str = "", check: bool = True):
        self.group = group
        self.table = np.asarray(table, dtype=np.int32)
        self.provenance = provenance
        if self.table.shape != (group.order,):
            raise ValueError("automorphism table has the wrong length")
        if check:
            self._verify()

    def _verify(self):
        """Check bijectivity, then T(x s) == T(x) T(s) for every x and generator s.

        The second check is exact.  Taking x = e gives T(s) = T(e) T(s), so
        T(e) = e.  G is finite, so every y in G is a product s_1 ... s_r of
        generators (no inverses needed), and induction on r gives
        T(x s_1 ... s_r) = T(x) T(s_1) ... T(s_r); at x = e this reads
        T(y) = T(s_1) ... T(s_r), hence T(x y) = T(x) T(y) for all x and y.
        """
        group = self.group
        name = self.provenance or "map"
        if not np.array_equal(np.sort(self.table), np.arange(group.order, dtype=np.int32)):
            raise InvalidAutomorphism(f"{name} is not a bijection")
        gens = group.generators()
        lhs = self.table[group.translations([(group.identity, s) for s in gens])]
        rhs = group.translations([(group.identity, self(s)) for s in gens])[:, self.table]
        for s, left, right in zip(gens, lhs, rhs):
            if not np.array_equal(left, right):
                raise InvalidAutomorphism(f"{name} is not multiplicative at generator {s}")

    def __call__(self, index: int) -> int:
        return int(self.table[index])

    def twisted_by(self, g: int) -> "FiniteAutomorphism":
        """Inner twist: conjugation by g composed after this automorphism."""
        group = self.group
        conjugation = group.translations([(g, group.inverse(g))])[0]
        return FiniteAutomorphism(
            group, conjugation[self.table], provenance=f"tw[{g}]*{self.provenance}", check=False
        )

    def shift_map(self) -> np.ndarray:
        """Induced permutation of the shift quotient (Z/mZ)^k."""
        pcount = self.group.point_count
        return self.table[np.arange(pcount)] % pcount

    def __eq__(self, other):
        return isinstance(other, FiniteAutomorphism) and np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash(self.table.tobytes())


def identity_automorphism(group: FiniteWreathGroup) -> FiniteAutomorphism:
    return FiniteAutomorphism(
        group, np.arange(group.order, dtype=np.int32), provenance="identity", check=False
    )


def descend_automorphism(aut: WreathAutomorphism, group: FiniteWreathGroup) -> FiniteAutomorphism:
    """Reduce a validated automorphism of Z_n wr Z^k to the finite model.

    Requires the cocycle obstruction to vanish: for every axis i the cocycle
    value at m·e_i, its sum over a full box period, must reduce to zero,
    otherwise the map is not well defined on the quotient and DescentError
    is raised.
    The result is checked to be a genuine automorphism of the model.
    """
    aut._require_valid()
    if aut.params.modulus != group.modulus or aut.params.rank != group.rank:
        raise ValueError("automorphism parameters do not match the model")
    n, k, m = group.modulus, group.rank, group.box
    pcount = group.point_count

    def reduce_vec(t: Torsion) -> list[int]:
        vec = [0] * pcount
        for p, c in t.items():
            idx = group._point_index[tuple(x % m for x in p)]
            vec[idx] = (vec[idx] + c) % n
        return vec

    for i in range(k):
        if any(reduce_vec(aut.cocycle_value(tuple(m if j == i else 0 for j in range(k))))):
            raise DescentError(
                f"cocycle obstruction on axis {i} does not vanish in the box of side {m}"
            )

    u_rows = [reduce_vec(aut.origin_image.shifted(mat_vec(aut.matrix, p))) for p in group.points]
    corr = [reduce_vec(aut.cocycle_value(p)) for p in group.points]
    shift_map = [
        group._point_index[tuple(c % m for c in mat_vec(aut.matrix, p))] for p in group.points
    ]

    # (c, z) -> (U c + corr[z], M z), with U the linear map whose rows are u_rows
    tables = group.ensure_tables()
    linear = ((tables["digits"] @ np.array(u_rows, dtype=np.int64)) % n) @ tables["wt"]
    added = group._torsion_maps(np.zeros(pcount, dtype=np.int64), corr)
    table = group._elements(added[None, :, linear], [shift_map])[0]
    return FiniteAutomorphism(group, table, provenance=f"descended({aut.label()})")


# -- twisted classes -----------------------------------------------------------


class TwistedClassPartition(NamedTuple):
    """Partition of the model into twisted-conjugacy classes.

    `labels[i]` is the class id of element i; ids are the ranks of the
    minimal-element representatives listed in `reps`.  Both are int64 arrays.
    """

    labels: np.ndarray
    reps: np.ndarray
    count: int


def twisted_classes(group: FiniteWreathGroup, aut: FiniteAutomorphism) -> TwistedClassPartition:
    """Orbits of x -> h x aut(h^-1), from one edge map per generator h."""
    return _partitions(group, aut.table[None, :])[0]


def _partitions(group: FiniteWreathGroup, tables) -> list[TwistedClassPartition]:
    """`twisted_classes` of every row of a stack of automorphism tables.

    The rows form one graph: row r's edge maps are offset by r·|G|, so its
    orbits are the components in [r·|G|, (r+1)·|G|) and one propagation
    finds the orbit minima of the whole stack.  Each table is a
    homomorphism, so f(s)^-1 is read off as f(s^-1).
    """
    order, gens = group.order, group.generators()
    rows = len(tables)
    inverse_gens = [group.inverse(s) for s in gens]
    pairs = [(s, fs) for row in tables[:, inverse_gens].tolist() for s, fs in zip(gens, row)]
    offsets = np.arange(0, rows * order, order, dtype=np.int64)
    edges = group.translations(pairs).reshape(rows, len(gens), order)
    edges += offsets[:, None, None]
    union = edges.swapaxes(0, 1).reshape(len(gens), -1)
    all_minima = _orbit_minima(union, rows * order).reshape(rows, order)
    all_minima -= offsets[:, None]
    ids = np.arange(order)
    out = []
    for minima in all_minima:
        is_rep = minima == ids
        reps = np.flatnonzero(is_rep)
        out.append(TwistedClassPartition((np.cumsum(is_rep) - 1)[minima], reps, len(reps)))
    return out


def _orbit_minima(edges: np.ndarray, order: int) -> np.ndarray:
    """The least element of each element's orbit under the permutation rows of `edges`.

    Min-label propagation: every edge x -> e(x) hooks the label of each end
    onto the smaller of the two labels, then one pointer jump per round
    shortens the label chains.  A label is always an element of the same
    orbit and never larger than its element, so a round that changes nothing
    leaves the labels flat and constant along every edge, each orbit labelled
    by its least element.
    """
    labels = np.arange(order, dtype=np.int64)
    while True:
        before = labels.copy()
        for edge in edges:
            here, there = labels.copy(), labels[edge]
            low = np.minimum(here, there)
            np.minimum.at(labels, here, low)
            np.minimum.at(labels, there, low)
        labels = labels[labels]
        if np.array_equal(labels, before):
            return labels


def fixed_conjugacy_classes(group: FiniteWreathGroup, aut: FiniteAutomorphism) -> int:
    """Number of ordinary conjugacy classes mapped to themselves by aut."""
    labels, reps, _ = group.conjugacy_partition()
    return int(np.count_nonzero(labels[aut.table[reps]] == labels[reps]))


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
    group: FiniteWreathGroup, aut: FiniteAutomorphism, base: TwistedClassPartition
) -> OracleCheck:
    """Twisted-class count against automorphism-fixed ordinary classes.

    `base` is the partition of `aut`.
    """
    lhs = base.count
    rhs = fixed_conjugacy_classes(group, aut)
    return OracleCheck(
        name="tbft",
        params=_model_params(group, aut=aut.provenance or "anonymous"),
        passed=(lhs == rhs),
        lhs=lhs,
        rhs=rhs,
    )


# nodes in the union graph of one batch of class counts
_CHUNK_NODES = 4096


def _chunks(group: FiniteWreathGroup, rows):
    """Consecutive runs of `rows`, as many per run as fit _CHUNK_NODES, at least one."""
    size = max(1, _CHUNK_NODES // group.order)
    return [rows[i : i + size] for i in range(0, len(rows), size)]


def verify_shift_invariance(
    group: FiniteWreathGroup,
    aut: FiniteAutomorphism,
    elements: Iterable[int],
    base: TwistedClassPartition,
) -> list[OracleCheck]:
    """Count invariance under the inner twists by `elements`, plus the class-level bijection.

    Three checks per g, in the order of `elements`.  h and h·c twist alike
    for every central c, so one twist is counted per coset of the center
    met by every g and g^-1, a chunk at a time; of a chunk's partitions only
    the counts and the class-map figures are kept, so memory stays that of
    one chunk.  `base` is the partition of `aut` itself.
    """
    elements = list(elements)
    inverse = {g: group.inverse(g) for g in elements}
    coset = _central_cosets(group, [*elements, *inverse.values()])
    counts, classmap = {}, {}
    for chunk in _chunks(group, sorted(set(coset.values()))):
        twists = group.translations([(c, group.inverse(c)) for c in chunk])[:, aut.table]
        parts = dict(zip(chunk, _partitions(group, twists)))
        counts.update((c, part.count) for c, part in parts.items())
        moved = {g: parts[coset[inverse[g]]] for g in elements if coset[inverse[g]] in parts}
        classmap.update(_class_maps(group, base, moved))
        del twists, parts, moved  # freed before the next chunk is counted
    checks = []
    for g in elements:
        params = _model_params(group, aut=aut.provenance or "anonymous", g=g)
        twisted, other = counts[coset[g]], counts[coset[inverse[g]]]
        pairs, onto = classmap[g]
        checks += [
            OracleCheck("shift-count", params, base.count == twisted, base.count, twisted),
            OracleCheck("shift-classmap", params, pairs == base.count, pairs, base.count),
            OracleCheck("shift-onto", params, onto == other, onto, other),
        ]
    return checks


def _central_cosets(group: FiniteWreathGroup, elements: list[int]) -> dict[int, int]:
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


def _class_maps(
    group: FiniteWreathGroup, base: TwistedClassPartition, parts: dict
) -> dict[int, tuple[int, int]]:
    """Right translation by g against the classes, for each g -> partition P of the twist by g^-1.

    Right translation by g must send the classes of `base` onto those of P,
    one to one.  Returns the number of distinct (base class of x, P class of
    x g) pairs and the number of P classes hit, for each g.
    """
    if not parts:
        return {}
    base_labels = base.labels * group.order
    rights = group.translations([(group.identity, g) for g in parts])
    figures = {}
    for (g, part), right in zip(parts.items(), rights):
        mapped = part.labels[right]
        figures[g] = len(np.unique(base_labels + mapped)), len(np.unique(mapped))
    return figures


def projection_index_map(big: FiniteWreathGroup, small: FiniteWreathGroup) -> np.ndarray:
    """Elementwise coefficient reduction map between models sharing box and rank."""
    if big.box != small.box or big.rank != small.rank or big.modulus % small.modulus:
        raise ValueError("projection needs equal boxes and a dividing modulus")
    d, pcount = small.modulus, big.point_count
    torsion = (big.ensure_tables()["digits"] % d) @ (d ** np.arange(pcount, dtype=np.int64))
    return big._elements(torsion[None, None, :], [np.arange(pcount)])[0].astype(np.int32)


def verify_projection(
    big: FiniteWreathGroup,
    small: FiniteWreathGroup,
    aut_big: FiniteAutomorphism,
    aut_small: FiniteAutomorphism,
    base: TwistedClassPartition,
) -> list[OracleCheck]:
    """Projection compatibility: diagram, class map, and the count bound.

    `base` is the partition of `aut_big`.
    """
    pi = projection_index_map(big, small)
    params = _model_params(big, d=small.modulus, aut=aut_big.provenance or "anonymous")
    diagram_bad = int(np.count_nonzero(aut_small.table[pi] != pi[aut_big.table]))
    checks = [OracleCheck("projection-diagram", params, diagram_bad == 0, diagram_bad, 0)]
    part_small = twisted_classes(small, aut_small)
    mapped = part_small.labels[pi]
    pairs = np.unique(base.labels * small.order + mapped)
    checks.append(
        OracleCheck(
            "projection-classmap", params, len(pairs) == base.count, len(pairs), base.count
        )
    )
    onto = len(np.unique(mapped))
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
    group: FiniteWreathGroup, aut: FiniteAutomorphism, base: TwistedClassPartition
) -> list[OracleCheck]:
    """R(restriction) <= R(full map) * fixed points of the shift quotient map.

    `base` is the partition of `aut`.  The torsion subgroup is abelian, so
    the restriction's classes are the cosets of the image of x -> x - aut(x)
    and counting them reduces to an image size.
    """
    params = _model_params(group, aut=aut.provenance or "anonymous")
    pcount = group.point_count
    images = aut.table[np.arange(group.torsion_count, dtype=np.int64) * pcount]
    preserved_bad = int(np.count_nonzero(images % pcount))
    checks = [
        OracleCheck("restriction-preserved", params, preserved_bad == 0, preserved_bad, 0)
    ]
    if preserved_bad:
        return checks
    tables = group.ensure_tables()
    digits, wt = tables["digits"], tables["wt"]
    chi = ((digits - digits[images // pcount]) % group.modulus) @ wt
    restricted = group.torsion_count // len(np.unique(chi))
    fixed = int(np.count_nonzero(aut.shift_map() == np.arange(pcount)))
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
    matrices = [identity_matrix(k), tuple(tuple(-x for x in row) for row in identity_matrix(k))]
    if k >= 2:
        matrices.append(
            tuple(tuple(1 if j == (i + 1) % k else 0 for j in range(k)) for i in range(k))
        )
    if k % 2 == 0:
        matrices.append(block_order_three(k))
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
    """Each automorphism with its descent to `group`; of equal tables only the first is kept."""
    first = {}
    for aut in auts:
        first.setdefault(descend_automorphism(aut, group), aut)
    return [(aut, fin) for fin, aut in first.items()]


def zero_cocycle_catalog(group: FiniteWreathGroup) -> list[FiniteAutomorphism]:
    """Descended single-point-unit automorphisms with zero cocycle, deduplicated."""
    auts = zero_cocycle_automorphisms(group.modulus, group.rank, group.box)
    return [fin for _, fin in distinct_descents(auts, group)]


def inner_twists(group: FiniteWreathGroup, aut: FiniteAutomorphism) -> list[FiniteAutomorphism]:
    """All inner twists of aut, deduplicated by their tables (g = identity first)."""
    return list(dict.fromkeys(aut.twisted_by(g) for g in range(group.order)))
