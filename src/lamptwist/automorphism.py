"""Automorphisms of Z_n wr Z^k in split form.

Every automorphism considered here is determined by three pieces of data:

  * an integer matrix with determinant +-1 (the induced lattice map),
  * the image of the origin torsion generator under the torsion
    restriction (an element of the group ring Z_n[Z^k]), and
  * the values of the shift cocycle on the standard basis vectors.

The torsion restriction sends the generator at z to the origin image
translated by (matrix @ z); it is bijective exactly when the origin image
is a unit of the group ring.  The basis cocycle values extend to all
shifts through the crossed-homomorphism identity

    correction(z1 + z2) = correction(z1) + shift_by(matrix @ z1)(correction(z2)).

Unit detection reduces the origin image modulo every prime dividing n and
asks for single-point support (group rings of ordered groups over fields
have only trivial units; units lift through nilpotents).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .group import GroupElement, GroupParams, IncompatibleParams, Torsion
from .matrix import (
    as_matrix,
    det,
    identity as identity_matrix,
    mat_vec,
)
from .modular import bounded_message, factorize


class InvalidAutomorphism(ValueError):
    """A triple failed validation but was used where a real automorphism is required."""


def is_group_ring_unit(u: Torsion) -> bool:
    """Unit test in Z_n[Z^k]: single-point support modulo every prime of n."""
    for p in factorize(u.modulus):
        reduced = [(pt, c % p) for pt, c in u.items() if c % p]
        if len(reduced) != 1:
            return False
    return True


class ValidationReport(NamedTuple):
    matrix_unimodular: bool
    u_is_unit: bool
    cocycle_consistent: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.matrix_unimodular and self.u_is_unit and self.cocycle_consistent


class WreathAutomorphism:
    """Split-form automorphism of Z_n wr Z^k.

    Construction only checks shapes; `validate` decides whether the data is
    a genuine automorphism, naming the first failure of each property, and
    `apply` refuses triples that fail it.
    Instances are immutable; cached fields are computed once.
    """

    __slots__ = ("params", "matrix", "origin_image", "cocycle", "_report")

    def __init__(
        self,
        params: GroupParams,
        matrix,
        origin_image: Torsion,
        cocycle: Iterable[Torsion] = (),
    ):
        matrix = as_matrix(matrix)
        k = params.rank
        if len(matrix) != k or len(matrix[0]) != k:
            raise ValueError(f"matrix must be {k}x{k}")
        if origin_image.modulus != params.modulus or origin_image.rank != k:
            raise IncompatibleParams("origin image parameters differ from the group's")
        cocycle = tuple(cocycle) or tuple(Torsion.zero(params.modulus, k) for _ in range(k))
        if len(cocycle) != k:
            raise ValueError(f"cocycle must list {k} torsion elements")
        for t in cocycle:
            if t.modulus != params.modulus or t.rank != k:
                raise IncompatibleParams("cocycle parameters differ from the group's")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "origin_image", origin_image)
        object.__setattr__(self, "cocycle", cocycle)
        object.__setattr__(self, "_report", None)

    def __setattr__(self, name, value):
        raise AttributeError("WreathAutomorphism is immutable")

    @classmethod
    def identity(cls, params: GroupParams) -> "WreathAutomorphism":
        return cls(
            params,
            identity_matrix(params.rank),
            Torsion.delta(params.modulus, params.rank, (0,) * params.rank),
        )

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidationReport:
        if self._report is not None:
            return self._report
        failures = []
        d = det(self.matrix)
        unimodular = d in (1, -1)
        if not unimodular:
            failures.append(bounded_message("matrix determinant is {}, not +-1", d))
        unit = is_group_ring_unit(self.origin_image)
        if not unit:
            failures.append(
                f"origin image {self.origin_image.render()} is not a unit "
                f"mod {self.params.modulus}"
            )
        k, c = self.params.rank, self.cocycle
        images = tuple(zip(*self.matrix))  # M e_i is column i of M
        zero = [t.is_zero() for t in c]
        clash = next((
            (i, j) for i in range(k) for j in range(i + 1, k)
            # both sides vanish when both values are zero
            if not (zero[i] and zero[j])
            and c[i] + c[j].shifted(images[i]) != c[j] + c[i].shifted(images[j])
        ), None)
        if clash:
            failures.append("cocycle values on axes {} and {} do not commute".format(*clash))
        report = ValidationReport(unimodular, unit, clash is None, tuple(failures))
        object.__setattr__(self, "_report", report)
        return report

    def _require_valid(self):
        report = self.validate()
        if not report.ok:
            raise InvalidAutomorphism("; ".join(report.failures))

    # -- the three components ----------------------------------------------

    def on_torsion(self, sigma: Torsion) -> Torsion:
        """Torsion restriction: relabel support through the matrix, then convolve."""
        if sigma.modulus != self.params.modulus or sigma.rank != self.params.rank:
            raise IncompatibleParams("torsion parameters differ from the automorphism's")
        return sigma.relabeled(self.matrix).convolve(self.origin_image)

    def cocycle_value(self, z: Sequence[int]) -> Torsion:
        """Crossed-homomorphism extension of the basis cocycle values to z.

        The axes are expanded in order; any order gives the same value, since
        validate checks that the basis values commute pairwise.
        """
        n, k = self.params.modulus, self.params.rank
        z = tuple(int(c) for c in z)
        if len(z) != k:
            raise IncompatibleParams(f"shift {z} has length {len(z)}, expected {k}")
        total = Torsion.zero(n, k)
        prefix = (0,) * k
        for i in range(k):
            zi = z[i]
            if zi:
                step = mat_vec(self.matrix, _basis(k, i))
                axis_total = Torsion.zero(n, k)
                # z_i > 0 adds the cocycle shifted by j M e_i for 0 <= j < z_i;
                # z_i < 0 subtracts it for z_i <= j <= -1
                for j in range(zi) if zi > 0 else range(-1, zi - 1, -1):
                    term = self.cocycle[i].shifted(tuple(j * c for c in step))
                    axis_total = axis_total + term if zi > 0 else axis_total - term
                total = total + axis_total.shifted(mat_vec(self.matrix, prefix))
                prefix = tuple(a + zi * b for a, b in zip(prefix, _basis(k, i)))
        return total

    # -- group actions -------------------------------------------------------

    def apply(self, g: GroupElement) -> GroupElement:
        self._require_valid()
        if g.params != self.params:
            raise IncompatibleParams("element parameters differ from the automorphism's")
        return GroupElement(
            self.on_torsion(g.torsion) + self.cocycle_value(g.shift),
            mat_vec(self.matrix, g.shift),
        )

    __call__ = apply

    def induce(self, divisor: int) -> "WreathAutomorphism":
        """Induced automorphism of Z_d wr Z^k for a divisor d of n."""
        n = self.params.modulus
        if divisor == n:
            return self
        if divisor < 2 or n % divisor:
            raise ValueError(f"divisor {divisor} does not divide modulus {n}")
        params = GroupParams(divisor, self.params.rank)
        return WreathAutomorphism(
            params,
            self.matrix,
            self.origin_image.project(divisor),
            tuple(t.project(divisor) for t in self.cocycle),
        )

    # -- plumbing ------------------------------------------------------------

    def label(self) -> str:
        """Compact deterministic descriptor (used in oracle report lines)."""
        mat = ";".join(",".join(str(x) for x in row) for row in self.matrix)
        parts = [f"u={self.origin_image.render().replace(' ', '')}", f"M=[{mat}]"]
        if any(not t.is_zero() for t in self.cocycle):
            coc = "|".join(t.render().replace(" ", "") for t in self.cocycle)
            parts.append(f"T={coc}")
        return ",".join(parts)

    def __eq__(self, other):
        return (
            isinstance(other, WreathAutomorphism)
            and self.params == other.params
            and self.matrix == other.matrix
            and self.origin_image == other.origin_image
            and self.cocycle == other.cocycle
        )

    def __hash__(self):
        return hash((self.params, self.matrix, self.origin_image, self.cocycle))

    def __repr__(self):
        return f"WreathAutomorphism({self.params}, {self.label()})"


def _basis(k: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(k))
