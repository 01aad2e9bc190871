"""Reidemeister numbers for Z_n wr Z^k and the machinery behind them.

The pipeline: the lattice quotient count is |det(I - M)|, infinite when
that determinant vanishes; a surjectivity certificate for (1 - torsion
restriction) upgrades that count to the full group when available;
otherwise the result is unknown (never silently promoted to infinite).
Each result names its route: how it was decided, or why it is unknown.

Certificates are produced by an orbit-uniform argument that applies when
the lattice matrix has finite order and the origin image is a single
scaled generator: preimages of generators are supported on affine orbits
and solve by geometric progressions whose denominators (1 - c^t) must be
invertible for every orbit length t.  Outside that regime the certificate
is unknown, and its notes say why no template exists.  One function decides
whether a template exists and what it is; replay re-derives it from the
automorphism and rejects a certificate whose stored template differs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .automorphism import WreathAutomorphism
from .group import GroupParams, Point, Torsion
from .matrix import (
    ORDER_THREE_BLOCK,
    IntMatrix,
    block_diagonal,
    det,
    identity as identity_matrix,
    mat_sub,
    mat_vec,
    matrix_order,
)
from .modular import crt, decimal, divisors, factorize, modinv


def render_count(count: int | float | None) -> str:
    """A count as the CLI prints it: decimal, `infinite` for math.inf, `unknown` for None."""
    return "unknown" if count is None else "infinite" if count == math.inf else decimal(count)


def reidemeister_abelian(matrix: IntMatrix) -> int | float:
    """Twisted-class count of a unimodular lattice map: index of Im(1 - M).

    The index is the product of the Smith diagonal of I - M, that is
    |det(I - M)|, and math.inf when the determinant vanishes.  `matrix` is
    the matrix of a validated automorphism, so it is unimodular.
    """
    d = det(mat_sub(identity_matrix(len(matrix)), matrix))
    return abs(d) if d else math.inf


# -- surjectivity certificates -------------------------------------------------


class PreimageTemplate(NamedTuple):
    """Uniform recipe for preimages of generators under (1 - restriction).

    Valid when the lattice matrix has finite order and the origin image is
    coeff * D[offset]: the preimage of the generator at z is the geometric
    progression coeff^j / (1 - coeff^t) along the affine orbit of z, where
    t is the orbit length.  `inverses` maps every possible orbit length to
    the inverse of (1 - coeff^t) mod n.
    """

    coeff: int
    offset: Point
    order: int
    inverses: dict[int, int]


class SurjectivityCertificate(NamedTuple):
    """Verdict on (1 - restriction); preimages come from the template alone.

    Stored witnesses are replayed but serve no preimages: an older
    certificate may hold some without a template.  `route` is "template" or the
    code of the reason in `notes`; it is not stored, so a loaded certificate has None.
    """

    automorphism: WreathAutomorphism
    certified: bool
    witnesses: dict[Point, Torsion]
    template: PreimageTemplate | None = None
    notes: tuple[str, ...] = ()
    route: str | None = None

    @property
    def status(self) -> str:
        return "certified" if self.certified else "unknown"


def restriction_difference(aut: WreathAutomorphism, sigma: Torsion) -> Torsion:
    """(1 - torsion restriction) applied to sigma."""
    return sigma - aut.on_torsion(sigma)


def _affine_orbit(matrix, offset, z, cap):
    """Orbit of z under x -> M x + offset, or None if it does not close by cap."""
    orbit = [z]
    x = z
    for _ in range(cap):
        x = tuple(a + b for a, b in zip(mat_vec(matrix, x), offset))
        if x == z:
            return orbit
        orbit.append(x)
    return None


def template_preimage(aut: WreathAutomorphism, template: PreimageTemplate, z) -> Torsion:
    """Instantiate the orbit template at z.

    A derived template never fails: every orbit length divides `order`, and
    `inverses` covers every divisor.  Any other template raises ValueError.
    """
    n, k = aut.params.modulus, aut.params.rank
    z = tuple(int(c) for c in z)
    orbit = _affine_orbit(aut.matrix, template.offset, z, template.order)
    x0 = None if orbit is None else template.inverses.get(len(orbit))
    if x0 is None:
        raise ValueError(f"orbit template gives no preimage for generator at {z}")
    items = []
    c_pow = 1
    for pt in orbit:
        items.append((pt, c_pow * x0))
        c_pow = (c_pow * template.coeff) % n
    return Torsion(n, k, items)


def default_test_points(rank: int) -> list[Point]:
    units = [tuple(s * (j == i) for j in range(rank)) for i in range(rank) for s in (1, -1)]
    return sorted({(0,) * rank, *units})


def _orbit_template(aut: WreathAutomorphism) -> tuple[PreimageTemplate | None, str, str | None]:
    """The orbit template of aut and the route "template"; or None, the code of the
    reason why no template exists, and that reason in prose."""
    n, k = aut.params.modulus, aut.params.rank
    items = aut.origin_image.items()
    if len(items) != 1:
        why = "origin image has multi-point support; orbit template unavailable"
        return None, "multi-point", why
    (offset, coeff), = items
    order = matrix_order(aut.matrix)
    if order is None:
        return None, "no-order", "lattice map has no finite order within the search cap"
    # M^order = I, so the orbit map to the power `order` is a translation; it is
    # the identity exactly when the origin's orbit closes by then (always if det(I - M) != 0)
    if _affine_orbit(aut.matrix, offset, (0,) * k, order) is None:
        return None, "open-orbit", "orbit map translation part does not close; orbits are infinite"
    inverses = {t: modinv((1 - pow(coeff, t, n)) % n, n) for t in divisors(order)}
    missing = [t for t, inv in inverses.items() if inv is None]
    if missing:
        return None, "non-invertible", (
            f"no inverse of (1 - c^t) mod {n} for orbit lengths {missing}; template incomplete"
        )
    return PreimageTemplate(coeff % n, offset, order, inverses), "template", None


def restriction_surjectivity(aut: WreathAutomorphism) -> SurjectivityCertificate:
    """Certificate that (1 - torsion restriction) hits every generator.

    Certified exactly when the orbit template exists: finite-order lattice
    part, single-point origin image, and (1 - coeff^t) invertible for every
    divisor t of the orbit-map order.  Every orbit length divides that
    order, so the template yields a witness at each test point, and each is
    verified exactly.  Without a template the status is unknown, the
    certificate holds no witnesses, and its notes and route say why.
    """
    aut._require_valid()
    n, k = aut.params.modulus, aut.params.rank
    template, route, why = _orbit_template(aut)
    if template is None:
        return SurjectivityCertificate(aut, False, {}, notes=(why,), route=route)
    witnesses = {z: template_preimage(aut, template, z) for z in default_test_points(k)}
    for z, sigma in witnesses.items():
        if restriction_difference(aut, sigma) != Torsion.delta(n, k, z):
            raise AssertionError(f"template preimage at {z} failed exact verification")
    return SurjectivityCertificate(aut, True, witnesses, template, route=route)


# -- classification and the full pipeline --------------------------------------


def _r_infinity_reason(n: int, k: int) -> str | None:
    """The paper's reason why every automorphism has infinite R, or None if none does."""
    if n % 2 == 0:
        return "modulus is even"
    if n % 3 == 0 and k % 2:
        return "modulus divisible by 3 and rank odd"
    return None


def finite_reidemeister_automorphism(n: int, k: int) -> WreathAutomorphism:
    """An automorphism of Z_n wr Z^k with finite Reidemeister number.

    Exists exactly when n is odd and (n is coprime to 3 or k is even).  The
    lattice map repeats one block of prime order N along its diagonal: -1
    (N = 2) when 3 does not divide n, the order-3 block otherwise.  The
    origin image is c at the origin, where c is, modulo each prime power
    p^s of n, the least c >= 2 with c^N != 1 (mod p).  Such a c exists
    because p - 1 does not divide N, and then 1 - c^t is a unit mod n for
    every orbit length t dividing N, so the orbit template exists.
    """
    params = GroupParams(n, k)
    if _r_infinity_reason(n, k):
        raise ValueError(f"every automorphism of Z_{n} wr Z^{k} has infinite Reidemeister number")
    block, order = (((-1,),), 2) if n % 3 else (ORDER_THREE_BLOCK, 3)
    mult, _ = crt(
        (next(c for c in range(2, p) if pow(c, order, p) != 1), p**s)
        for p, s in sorted(factorize(n).items())
    )
    return WreathAutomorphism(params, block_diagonal(block, k), Torsion.delta(n, k, (0,) * k, mult))


class Classification(NamedTuple):
    modulus: int
    rank: int
    always_infinite: bool
    reason: str | None = None
    automorphism: WreathAutomorphism | None = None
    reidemeister: int | None = None


def classify_r_infinity(n: int, k: int) -> Classification:
    """Decide whether every automorphism of Z_n wr Z^k has infinite Reidemeister number."""
    GroupParams(n, k)  # validates the inputs
    reason = _r_infinity_reason(n, k)
    if reason:
        return Classification(n, k, True, reason=reason)
    aut = finite_reidemeister_automorphism(n, k)
    result = reidemeister_number(aut)
    if result.route != "template":
        raise AssertionError("constructed automorphism failed to certify a finite count")
    return Classification(n, k, False, automorphism=aut, reidemeister=result.value)


class ReidemeisterResult(NamedTuple):
    """`quotient` is |det(I - M)|, math.inf when it vanishes.  R is infinite on route
    "lattice-infinite" (no certificate), the quotient on "template" (a certified
    certificate), and unknown on the certificate's reason code: "multi-point",
    "no-order" or "non-invertible"."""

    quotient: int | float
    route: str
    certificate: SurjectivityCertificate | None

    @property
    def value(self) -> int | float | None:
        """R(phi), None exactly when it is unknown."""
        return self.quotient if self.route in ("lattice-infinite", "template") else None

    def describe(self) -> str:
        return render_count(self.value)


def reidemeister_number(aut: WreathAutomorphism) -> ReidemeisterResult:
    """Full-group Reidemeister count.

    Infinite when the lattice quotient count is infinite; equal to the
    quotient count when the restriction certificate is certified (the
    projection onto the lattice is then class-bijective); unknown otherwise.
    Raises InvalidAutomorphism, on every route, when aut fails validation.
    """
    aut._require_valid()
    quotient = reidemeister_abelian(aut.matrix)
    if quotient == math.inf:
        return ReidemeisterResult(quotient, "lattice-infinite", None)
    cert = restriction_surjectivity(aut)
    return ReidemeisterResult(quotient, cert.route, cert)


def _template_differences(stored, derived, why) -> list[str]:
    """How a stored orbit template departs from the one derived from the automorphism."""
    if derived is None:
        return [f"certificate carries an orbit template, but {why}"]
    if stored is None:
        return ["certificate omits the orbit template its automorphism has"]
    fields = [("coeff", stored.coeff, derived.coeff),
              ("point", stored.offset, derived.offset),
              ("order", stored.order, derived.order)]
    got, want = stored.inverses, derived.inverses
    fields += [(f"inverse for orbit length {t}", got.get(t), want.get(t))
               for t in sorted(got.keys() | want.keys())]
    return [f"template {name} is {a}, expected {b}" for name, a, b in fields if a != b]


def replay_certificate(cert: SurjectivityCertificate) -> list[str]:
    """Re-run every claim a certificate makes; returns failure messages.

    The orbit template is derived again from the automorphism, and a stored
    template must equal it: each inverse mod n is unique, so equality is exact.
    A certificate is certified exactly when that template exists.
    """
    failures = []
    aut = cert.automorphism
    report = aut.validate()
    if not report.ok:
        failures.extend(report.failures)
        return failures
    n, k = aut.params.modulus, aut.params.rank
    if cert.certified and not cert.witnesses:
        failures.append("certified certificate carries no witnesses")
    template, _, why = _orbit_template(aut)
    if cert.certified and cert.template is None:
        failures.append("certified certificate carries no orbit template")
    elif cert.template != template:
        failures.extend(_template_differences(cert.template, template, why))
    elif not cert.certified and template is not None:
        failures.append("certificate status is unknown, but its automorphism has a template")
    for pt, sigma in sorted(cert.witnesses.items()):
        expected = Torsion.delta(n, k, pt)
        actual = restriction_difference(aut, sigma)
        if actual != expected:
            failures.append(
                f"witness at {pt} replays to {actual.render()}, expected {expected.render()}"
            )
    return failures
