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
have only trivial units; units lift through nilpotents).  Explicit
inverses are produced by prime-power Hensel lifting and verified exactly.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .fileformat import SCHEMA_VERSION, SchemaError, check_schema, json_int
from .group import GroupElement, GroupParams, IncompatibleParams, Torsion
from .matrix import (
    as_matrix,
    det,
    identity as identity_matrix,
    inverse_unimodular,
    mat_mul,
    mat_vec,
)
from .modular import crt, factorize


class InvalidAutomorphism(ValueError):
    """A triple failed validation but was used where a real automorphism is required."""


def is_group_ring_unit(u: Torsion) -> bool:
    """Unit test in Z_n[Z^k]: single-point support modulo every prime of n."""
    for p in factorize(u.modulus):
        reduced = [(pt, c % p) for pt, c in u.items() if c % p]
        if len(reduced) != 1:
            return False
    return True


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
    a genuine automorphism, and `apply`/`compose`/`inverse` refuse triples
    that fail it.  Instances are immutable; cached fields are computed once.
    """

    __slots__ = ("params", "matrix", "origin_image", "cocycle", "_report", "_origin_inverse")

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
        object.__setattr__(self, "_origin_inverse", None)

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
            failures.append(f"matrix determinant is {d}, not +-1")
        unit = is_group_ring_unit(self.origin_image)
        if not unit:
            failures.append(
                f"origin image {self.origin_image.render()} is not a unit "
                f"mod {self.params.modulus}"
            )
        consistent = True
        k = self.params.rank
        images = tuple(zip(*self.matrix))  # M e_i is column i of M
        for i in range(k):
            for j in range(i + 1, k):
                lhs = self.cocycle[i] + self.cocycle[j].shifted(images[i])
                rhs = self.cocycle[j] + self.cocycle[i].shifted(images[j])
                if lhs != rhs:
                    consistent = False
                    failures.append(f"cocycle values on axes {i} and {j} do not commute")
        report = ValidationReport(unimodular, unit, consistent, tuple(failures))
        object.__setattr__(self, "_report", report)
        return report

    @property
    def is_valid(self) -> bool:
        return self.validate().ok

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

    def cocycle_value(self, z: Sequence[int], axis_order: Sequence[int] | None = None) -> Torsion:
        """Crossed-homomorphism extension of the basis cocycle values to z.

        The expansion order of the axes is irrelevant (consequence of the
        pairwise commutation checked by validate); `axis_order` exists so
        tests can confirm that.
        """
        n, k = self.params.modulus, self.params.rank
        z = tuple(int(c) for c in z)
        if len(z) != k:
            raise IncompatibleParams(f"shift {z} has length {len(z)}, expected {k}")
        total = Torsion.zero(n, k)
        prefix = (0,) * k
        for i in axis_order if axis_order is not None else range(k):
            zi = z[i]
            if zi:
                step = mat_vec(self.matrix, _basis(k, i))
                axis_total = Torsion.zero(n, k)
                if zi > 0:
                    for j in range(zi):
                        axis_total = axis_total + self.cocycle[i].shifted(
                            tuple(j * c for c in step)
                        )
                else:
                    for j in range(1, -zi + 1):
                        axis_total = axis_total - self.cocycle[i].shifted(
                            tuple(-j * c for c in step)
                        )
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

    def compose(self, other: "WreathAutomorphism") -> "WreathAutomorphism":
        """self after other."""
        self._require_valid()
        other._require_valid()
        if self.params != other.params:
            raise IncompatibleParams("cannot compose automorphisms of different groups")
        k = self.params.rank
        cocycle = tuple(
            self.on_torsion(other.cocycle[i])
            + self.cocycle_value(mat_vec(other.matrix, _basis(k, i)))
            for i in range(k)
        )
        return WreathAutomorphism(
            self.params,
            mat_mul(self.matrix, other.matrix),
            self.on_torsion(other.origin_image),
            cocycle,
        )

    def origin_inverse(self) -> Torsion:
        """Cached group-ring inverse of the origin image."""
        if self._origin_inverse is None:
            object.__setattr__(self, "_origin_inverse", group_ring_inverse(self.origin_image))
        return self._origin_inverse

    def inverse(self) -> "WreathAutomorphism":
        self._require_valid()
        k = self.params.rank
        minv = inverse_unimodular(self.matrix)
        u_prime = self.origin_inverse().relabeled(minv)

        def inv_on_torsion(sigma):
            return sigma.relabeled(minv).convolve(u_prime)

        cocycle = tuple(
            -inv_on_torsion(self.cocycle_value(mat_vec(minv, _basis(k, i)))) for i in range(k)
        )
        return WreathAutomorphism(self.params, minv, u_prime, cocycle)

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


def inner(gamma: GroupElement) -> WreathAutomorphism:
    """Conjugation by gamma as a split triple (matrix is the identity)."""
    params = gamma.params
    n, k = params.modulus, params.rank
    sigma = gamma.torsion
    cocycle = tuple(sigma - sigma.shifted(_basis(k, i)) for i in range(k))
    return WreathAutomorphism(params, identity_matrix(k), Torsion.delta(n, k, gamma.shift), cocycle)


def twist(aut: WreathAutomorphism, gamma: GroupElement) -> WreathAutomorphism:
    """Inner twist: conjugation by gamma composed after aut."""
    return inner(gamma).compose(aut)


# -- serialization -----------------------------------------------------------


def _torsion_to_list(t: Torsion) -> list[dict]:
    return [{"coeff": c, "point": list(p)} for p, c in t.items()]


def _torsion_from_list(data, modulus: int, rank: int) -> Torsion:
    if not isinstance(data, list):
        raise ValueError("torsion element must be a list of {coeff, point} objects")
    items = []
    for entry in data:
        if not isinstance(entry, dict) or "coeff" not in entry or "point" not in entry:
            raise ValueError(f"bad torsion term {entry!r}")
        point = tuple(json_int(x, "point coordinate") for x in entry["point"])
        items.append((point, json_int(entry["coeff"], "coeff")))
    return Torsion(modulus, rank, items)


def automorphism_to_dict(aut: WreathAutomorphism) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "modulus": aut.params.modulus,
        "rank": aut.params.rank,
        "matrix": [list(row) for row in aut.matrix],
        "u": _torsion_to_list(aut.origin_image),
        "cocycle": [_torsion_to_list(t) for t in aut.cocycle],
    }


def automorphism_from_dict(data: dict) -> WreathAutomorphism:
    check_schema(data)
    try:
        modulus = json_int(data["modulus"], "modulus")
        rank = json_int(data["rank"], "rank")
        params = GroupParams(modulus, rank)
        matrix = as_matrix([json_int(x, "matrix entry") for x in row] for row in data["matrix"])
        u = _torsion_from_list(data["u"], modulus, rank)
        cocycle_data = data["cocycle"]
        if not isinstance(cocycle_data, list) or len(cocycle_data) != rank:
            raise ValueError(f"cocycle must list {rank} torsion elements")
        cocycle = tuple(_torsion_from_list(entry, modulus, rank) for entry in cocycle_data)
    except KeyError as exc:
        raise SchemaError(f"missing field {exc.args[0]!r} in automorphism data") from exc
    except TypeError as exc:
        raise SchemaError(f"malformed automorphism data: {exc}") from exc
    return WreathAutomorphism(params, matrix, u, cocycle)
