"""Exact arithmetic in restricted wreath products Z_n wr Z^k.

An element is a pair (torsion, shift): a finitely supported Z_n-valued
function on the lattice Z^k together with a lattice translation.  The
translation part acts on the torsion part by shifting supports, and the
group law twists the second factor through that action:

    (s1, z1) * (s2, z2) = (s1 + shift_by(z1)(s2), z1 + z2)

All arithmetic is exact; lattice coordinates are arbitrary-precision
integers and torsion coefficients live in Z_n.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from operator import add, mul

from .modular import bounded_message, decimal

Point = tuple[int, ...]


class IncompatibleParams(ValueError):
    """Operands belong to different ambient groups (modulus or rank differ)."""


class GroupParams:
    """Ambient group descriptor for Z_n wr Z^k: torsion modulus n, lattice rank k."""

    __slots__ = ("modulus", "rank")

    def __init__(self, modulus: int, rank: int):
        if modulus < 2:
            raise ValueError(bounded_message("modulus must be at least 2, got {}", modulus))
        if rank < 1:
            raise ValueError(bounded_message("rank must be at least 1, got {}", rank))
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name, value):
        raise AttributeError("GroupParams is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.modulus == other.modulus and self.rank == other.rank

    def __hash__(self):
        return hash((self.modulus, self.rank))

    def __repr__(self):
        return f"GroupParams(modulus={self.modulus!r}, rank={self.rank!r})"

    def __str__(self):
        return f"Z_{self.modulus} wr Z^{self.rank}"


def _check_same(a, b):
    if a.modulus != b.modulus or a.rank != b.rank:
        raise IncompatibleParams(
            f"mixed parameters: Z_{a.modulus} rank {a.rank} vs Z_{b.modulus} rank {b.rank}"
        )


class Torsion:
    """Finitely supported formal sum of lattice generators with Z_n coefficients.

    Canonical form: coefficients reduced into [1, n), zero terms dropped,
    support ordered lexicographically.  Instances are immutable and doubly
    serve as elements of the group ring Z_n[Z^k] under `convolve`.
    """

    __slots__ = ("modulus", "rank", "_items")

    def __init__(self, modulus: int, rank: int, items: Iterable | Mapping = ()):
        if modulus < 2 or rank < 1:
            GroupParams(modulus, rank)  # raises the error
        acc: dict[Point, int] = {}
        pairs = items.items() if isinstance(items, Mapping) else items
        for point, coeff in pairs:
            pt = tuple(map(int, point))
            if len(pt) != rank:
                raise IncompatibleParams(
                    f"support point {pt} has length {len(pt)}, expected rank {rank}"
                )
            acc[pt] = acc.get(pt, 0) + int(coeff)
        self.modulus = modulus
        self.rank = rank
        self._items = self._canonical(modulus, rank, acc)._items

    @classmethod
    def _canonical(cls, modulus: int, rank: int, acc: dict[Point, int]) -> "Torsion":
        """The canonical form of a trusted dict of rank-length int points to int coefficients.

        Coefficients are reduced mod `modulus`, zero terms dropped and the
        support sorted.  Nothing is validated: outside input goes through
        `__init__`, which validates and then lands here.
        """
        t = object.__new__(cls)
        t.modulus = modulus
        t.rank = rank
        t._items = tuple(sorted([(p, r) for p, c in acc.items() if (r := c % modulus)]))
        return t

    @classmethod
    def zero(cls, modulus: int, rank: int) -> "Torsion":
        return cls(modulus, rank)

    @classmethod
    def delta(cls, modulus: int, rank: int, point: Iterable[int], coeff: int = 1) -> "Torsion":
        """Single generator coeff * D[point]."""
        return cls(modulus, rank, [(tuple(point), coeff)])

    def items(self) -> tuple[tuple[Point, int], ...]:
        """Canonically ordered (point, coefficient) pairs."""
        return self._items

    @property
    def support(self) -> dict[Point, int]:
        return dict(self._items)

    def coeff(self, point: Iterable[int]) -> int:
        pt = tuple(point)
        for p, c in self._items:
            if p == pt:
                return c
        return 0

    def is_zero(self) -> bool:
        return not self._items

    # -- module structure ------------------------------------------------

    def __add__(self, other: "Torsion") -> "Torsion":
        _check_same(self, other)
        acc = dict(self._items)
        for p, c in other._items:
            acc[p] = acc.get(p, 0) + c
        return Torsion._canonical(self.modulus, self.rank, acc)

    def __neg__(self) -> "Torsion":
        return Torsion._canonical(self.modulus, self.rank, {p: -c for p, c in self._items})

    def __sub__(self, other: "Torsion") -> "Torsion":
        _check_same(self, other)
        acc = dict(self._items)
        for p, c in other._items:
            acc[p] = acc.get(p, 0) - c
        return Torsion._canonical(self.modulus, self.rank, acc)

    def scaled(self, factor: int) -> "Torsion":
        factor = int(factor)
        return Torsion._canonical(self.modulus, self.rank, {p: c * factor for p, c in self._items})

    def shifted(self, z: Iterable[int]) -> "Torsion":
        """Translation action: every support point moves by z."""
        zz = tuple(int(c) for c in z)
        if len(zz) != self.rank:
            raise IncompatibleParams(f"shift {zz} has length {len(zz)}, expected {self.rank}")
        return Torsion._canonical(
            self.modulus,
            self.rank,
            {tuple(map(add, p, zz)): c for p, c in self._items},
        )

    def relabeled(self, matrix) -> "Torsion":
        """Support points mapped through an integer matrix (rows of tuples)."""
        if len(matrix) != self.rank or any(len(row) != self.rank for row in matrix):
            raise IncompatibleParams(f"relabeling matrix must be {self.rank}x{self.rank}")
        acc: dict[Point, int] = {}
        for p, c in self._items:
            q = tuple([sum(map(mul, row, p)) for row in matrix])
            acc[q] = acc.get(q, 0) + c
        return Torsion._canonical(self.modulus, self.rank, acc)

    def convolve(self, other: "Torsion") -> "Torsion":
        """Group-ring product in Z_n[Z^k]."""
        _check_same(self, other)
        acc: dict[Point, int] = {}
        for p, c in self._items:
            for q, d in other._items:
                r = tuple(map(add, p, q))
                acc[r] = acc.get(r, 0) + c * d
        return Torsion._canonical(self.modulus, self.rank, acc)

    # -- changes of modulus ------------------------------------------------

    def project(self, divisor: int) -> "Torsion":
        """Coefficients reduced mod a divisor of the modulus (zero terms drop)."""
        if divisor < 2 or self.modulus % divisor:
            raise ValueError(f"divisor {divisor} does not divide modulus {self.modulus}")
        return Torsion._canonical(divisor, self.rank, dict(self._items))

    # -- plumbing ----------------------------------------------------------

    def render(self) -> str:
        terms = (f"{decimal(c)}*D[{','.join(map(decimal, p))}]" for p, c in self._items)
        return " + ".join(terms) or "0"

    def __eq__(self, other):
        return (
            isinstance(other, Torsion)
            and self.modulus == other.modulus
            and self.rank == other.rank
            and self._items == other._items
        )

    def __hash__(self):
        return hash((self.modulus, self.rank, self._items))

    def __repr__(self):
        return f"Torsion({self.modulus}, {self.rank}, {self.render()})"


class GroupElement:
    """Element (torsion, shift) of Z_n wr Z^k."""

    __slots__ = ("torsion", "shift")

    def __init__(self, torsion: Torsion, shift: Iterable[int]):
        shift = tuple(int(c) for c in shift)
        if len(shift) != torsion.rank:
            raise IncompatibleParams(
                f"shift {shift} has length {len(shift)}, expected rank {torsion.rank}"
            )
        object.__setattr__(self, "torsion", torsion)
        object.__setattr__(self, "shift", shift)

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.torsion == other.torsion and self.shift == other.shift

    def __hash__(self):
        return hash((self.torsion, self.shift))

    def __repr__(self):
        return f"GroupElement(torsion={self.torsion!r}, shift={self.shift!r})"

    @property
    def params(self) -> GroupParams:
        return GroupParams(self.torsion.modulus, self.torsion.rank)

    @classmethod
    def identity(cls, params: GroupParams) -> "GroupElement":
        return cls(Torsion.zero(params.modulus, params.rank), (0,) * params.rank)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        _check_same(self.torsion, other.torsion)
        return GroupElement(
            self.torsion + other.torsion.shifted(self.shift),
            tuple(a + b for a, b in zip(self.shift, other.shift)),
        )

    def inverse(self) -> "GroupElement":
        neg = tuple(-c for c in self.shift)
        return GroupElement(-self.torsion.shifted(neg), neg)

    def render(self) -> str:
        return f"({self.torsion.render()} ; {','.join(map(decimal, self.shift))})"


def twisted_conjugate(h: GroupElement, g: GroupElement, phi: Callable[[GroupElement], GroupElement]) -> GroupElement:
    """h * g * phi(h^-1) for an automorphism given as a callable."""
    return h * g * phi(h.inverse())
