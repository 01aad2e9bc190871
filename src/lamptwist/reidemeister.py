"""Reidemeister numbers for Z_n wr Z^k and the machinery behind them.

The pipeline: the lattice quotient count is |det(I - M)|, infinite when
that determinant vanishes; a surjectivity certificate for (1 - torsion
restriction) upgrades that count to the full group when available;
otherwise the result is reported as unknown (never silently promoted to
infinite).

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

from math import gcd
from typing import NamedTuple

from .automorphism import (
    WreathAutomorphism,
    _torsion_from_list,
    _torsion_to_list,
    automorphism_from_dict,
    automorphism_to_dict,
)
from .fileformat import SCHEMA_VERSION, SchemaError, check_schema, json_int
from .group import GroupParams, Point, Torsion
from .matrix import (
    IntMatrix,
    as_matrix,
    det,
    identity as identity_matrix,
    is_unimodular,
    mat_sub,
    mat_vec,
    matrix_order,
)
from .modular import crt, divisors, factorize, modinv

CERTIFICATE_KIND = "surjectivity-certificate"


class ExtNat(NamedTuple):
    """Nonnegative count extended by an absorbing infinite value (None)."""

    value: int | None

    @classmethod
    def of(cls, v: int) -> "ExtNat":
        return cls(int(v))

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __str__(self):
        return "infinite" if self.value is None else str(self.value)


INFINITE = ExtNat(None)


def reidemeister_abelian(matrix: IntMatrix) -> ExtNat:
    """Twisted-class count of a unimodular lattice map: index of Im(1 - M).

    The index is the product of the Smith diagonal of I - M, that is
    |det(I - M)|, and infinite when the determinant vanishes.
    """
    matrix = as_matrix(matrix)
    if not is_unimodular(matrix):
        raise ValueError("lattice map must be unimodular")
    d = det(mat_sub(identity_matrix(len(matrix)), matrix))
    return ExtNat(abs(d)) if d else INFINITE


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
    inverses: tuple[tuple[int, int], ...]

    def inverse_for(self, length: int) -> int | None:
        return dict(self.inverses).get(length)


class SurjectivityCertificate:
    __slots__ = ("automorphism", "certified", "witnesses", "template", "notes")

    def __init__(
        self,
        automorphism: WreathAutomorphism,
        certified: bool,
        witnesses: dict[Point, Torsion],
        template: PreimageTemplate | None = None,
        notes: tuple[str, ...] = (),
    ):
        self.automorphism = automorphism
        self.certified = certified
        self.witnesses = witnesses
        self.template = template
        self.notes = notes

    @property
    def status(self) -> str:
        return "certified" if self.certified else "unknown"

    def preimage(self, z) -> Torsion:
        """Preimage of the generator at z (template first, stored witness second)."""
        z = tuple(int(c) for c in z)
        if self.template is not None:
            sigma = template_preimage(self.automorphism, self.template, z)
            if sigma is not None:
                return sigma
        if z in self.witnesses:
            return self.witnesses[z]
        raise ValueError(f"certificate holds no preimage for generator at {z}")


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


def template_preimage(aut: WreathAutomorphism, template: PreimageTemplate, z) -> Torsion | None:
    """Instantiate the orbit template at z; None when the orbit length lacks an inverse."""
    n, k = aut.params.modulus, aut.params.rank
    z = tuple(int(c) for c in z)
    orbit = _affine_orbit(aut.matrix, template.offset, z, template.order)
    if orbit is None:
        return None
    x0 = template.inverse_for(len(orbit))
    if x0 is None:
        return None
    items = []
    c_pow = 1
    for pt in orbit:
        items.append((pt, c_pow * x0))
        c_pow = (c_pow * template.coeff) % n
    return Torsion(n, k, items)


def default_test_points(rank: int) -> list[Point]:
    pts = {(0,) * rank}
    for i in range(rank):
        e = tuple(1 if j == i else 0 for j in range(rank))
        pts.add(e)
        pts.add(tuple(-c for c in e))
    return sorted(pts)


def _orbit_template(aut: WreathAutomorphism) -> tuple[PreimageTemplate | None, str | None]:
    """The orbit template of aut, or None and the reason why none exists."""
    n, k = aut.params.modulus, aut.params.rank
    items = aut.origin_image.items()
    if len(items) != 1:
        return None, "origin image has multi-point support; orbit template unavailable"
    (offset, coeff), = items
    order = matrix_order(aut.matrix)
    if order is None:
        return None, "lattice map has no finite order within the search cap"
    # M^order = I, so the orbit map to the power `order` is a translation;
    # it is the identity exactly when the origin's orbit closes by then
    if _affine_orbit(aut.matrix, offset, (0,) * k, order) is None:
        return None, "orbit map translation part does not close; orbits are infinite"
    inverses = [(t, modinv((1 - pow(coeff, t, n)) % n, n)) for t in divisors(order)]
    missing = [t for t, inv in inverses if inv is None]
    if missing:
        return None, (
            f"no inverse of (1 - c^t) mod {n} for orbit lengths {missing}; template incomplete"
        )
    return PreimageTemplate(coeff % n, offset, order, tuple(inverses)), None


def restriction_surjectivity(aut: WreathAutomorphism) -> SurjectivityCertificate:
    """Certificate that (1 - torsion restriction) hits every generator.

    Certified only under the orbit-uniform argument: finite-order lattice
    part, single-point origin image, and (1 - coeff^t) invertible for every
    divisor t of the orbit-map order.  Outside that regime the status is
    unknown, the certificate holds no witnesses, and its notes say why.
    """
    aut._require_valid()
    n, k = aut.params.modulus, aut.params.rank
    test_points = default_test_points(k)
    template, why = _orbit_template(aut)
    notes = [] if why is None else [why]

    witnesses: dict[Point, Torsion] = {}
    if template is not None:
        for z in test_points:
            sigma = template_preimage(aut, template, z)
            if sigma is not None and restriction_difference(aut, sigma) == Torsion.delta(n, k, z):
                witnesses[z] = sigma
            else:
                notes.append(f"no verified preimage for generator at {z}")

    certified = bool(witnesses) and all(z in witnesses for z in test_points)
    return SurjectivityCertificate(
        automorphism=aut,
        certified=certified,
        witnesses=witnesses,
        template=template,
        notes=tuple(notes),
    )


# -- constructive CRT lifting --------------------------------------------------


def crt_lift_preimage(
    aut: WreathAutomorphism,
    z,
    cert_first: SurjectivityCertificate,
    cert_second: SurjectivityCertificate | None = None,
) -> Torsion:
    """Preimage of the generator at z over a composite modulus n*m.

    Uses a certified preimage over the first factor, measures the defect of
    its coefficient-preserving re-embedding, and corrects with a certified
    preimage of the defect over the second factor.  `cert_second=None`
    handles the trivial split m=1.  The result is verified exactly.
    """
    big = aut.params.modulus
    k = aut.params.rank
    z = tuple(int(c) for c in z)
    n = cert_first.automorphism.params.modulus
    m = 1 if cert_second is None else cert_second.automorphism.params.modulus
    if n * m != big:
        raise ValueError(f"split {n} * {m} does not match modulus {big}")
    if not cert_first.certified or (cert_second is not None and not cert_second.certified):
        raise ValueError("both factor certificates must be certified")
    if cert_first.automorphism != aut.induce(n):
        raise ValueError("first certificate does not match the induced automorphism")
    if cert_second is not None and cert_second.automorphism != aut.induce(m):
        raise ValueError("second certificate does not match the induced automorphism")

    eta1 = cert_first.preimage(z)
    sigma = eta1.embedded(big)
    target = Torsion.delta(big, k, z)
    defect = restriction_difference(aut, sigma) - target
    if cert_second is not None:
        theta = defect.exact_div(n)  # guaranteed by the projection identity
        reduced = theta.project(m)
        eta2 = Torsion.zero(m, k)
        for pt, c in reduced.items():
            eta2 = eta2 + cert_second.preimage(pt).scaled(c)
        sigma = sigma - eta2.embedded(big).scaled(n)
    if restriction_difference(aut, sigma) != target:
        raise AssertionError("lifted preimage failed exact verification")
    return sigma


# -- classification and the full pipeline --------------------------------------


_BLOCK = ((0, 1), (-1, -1))  # order 3, det 1


def block_order_three(rank: int) -> IntMatrix:
    """Block-diagonal lattice map of order 3 built from 2x2 blocks (even rank)."""
    if rank % 2:
        raise ValueError("order-3 block matrix needs an even rank")
    half = rank // 2
    rows = []
    for b in range(half):
        for r in range(2):
            row = [0] * rank
            row[2 * b] = _BLOCK[r][0]
            row[2 * b + 1] = _BLOCK[r][1]
            rows.append(row)
    return as_matrix(rows)


def _orbit_multiplier(n: int) -> int:
    """CRT multiplier: 3 mod the 7-part of n, 2 mod every other prime power."""
    x, _ = crt((3 if p == 7 else 2, p**s) for p, s in sorted(factorize(n).items()))
    return x


def finite_reidemeister_automorphism(n: int, k: int) -> WreathAutomorphism:
    """An automorphism of Z_n wr Z^k with finite Reidemeister number.

    Exists exactly when n is odd and (n is coprime to 3 or k is even).
    gcd(n, 6) = 1: doubling origin image with lattice inversion, any rank.
    Otherwise (n odd, 3 | n, k even): order-3 block lattice map with a CRT
    multiplier handling the 7-part separately.
    """
    params = GroupParams(n, k)
    if n % 2 == 0 or (n % 3 == 0 and k % 2 == 1):
        raise ValueError(f"every automorphism of Z_{n} wr Z^{k} has infinite Reidemeister number")
    if gcd(n, 6) == 1:
        matrix = tuple(tuple(-1 if i == j else 0 for j in range(k)) for i in range(k))
        mult = 2
    else:
        matrix = block_order_three(k)
        mult = _orbit_multiplier(n)
    return WreathAutomorphism(params, matrix, Torsion.delta(n, k, (0,) * k, mult))


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
    if n % 2 == 0:
        return Classification(n, k, True, reason="modulus is even")
    if n % 3 == 0 and k % 2 == 1:
        return Classification(n, k, True, reason="modulus divisible by 3 and rank odd")
    aut = finite_reidemeister_automorphism(n, k)
    result = reidemeister_number(aut)
    if result.value is None or not result.value.is_finite:
        raise AssertionError("constructed automorphism failed to certify a finite count")
    return Classification(n, k, False, automorphism=aut, reidemeister=result.value.value)


class ReidemeisterResult(NamedTuple):
    quotient: ExtNat
    certificate: SurjectivityCertificate | None
    value: ExtNat | None  # None encodes unknown

    @property
    def is_unknown(self) -> bool:
        return self.value is None

    def describe(self) -> str:
        return "unknown" if self.value is None else str(self.value)


def reidemeister_number(aut: WreathAutomorphism) -> ReidemeisterResult:
    """Full-group Reidemeister count.

    Infinite when the lattice quotient count is infinite; equal to the
    quotient count when the restriction certificate is certified (the
    projection onto the lattice is then class-bijective); unknown otherwise.
    """
    quotient = reidemeister_abelian(aut.matrix)
    if not quotient.is_finite:
        return ReidemeisterResult(quotient, None, INFINITE)
    cert = restriction_surjectivity(aut)
    if cert.certified:
        return ReidemeisterResult(quotient, cert, quotient)
    return ReidemeisterResult(quotient, cert, None)


# -- certificate serialization --------------------------------------------------


def certificate_to_dict(cert: SurjectivityCertificate) -> dict:
    template = None
    if cert.template is not None:
        template = {
            "coeff": cert.template.coeff,
            "point": list(cert.template.offset),
            "order": cert.template.order,
            "inverses": {str(t): inv for t, inv in cert.template.inverses},
        }
    return {
        "schema": SCHEMA_VERSION,
        "kind": CERTIFICATE_KIND,
        "automorphism": automorphism_to_dict(cert.automorphism),
        "status": cert.status,
        "template": template,
        "witnesses": [
            {"point": list(pt), "preimage": _torsion_to_list(sigma)}
            for pt, sigma in sorted(cert.witnesses.items())
        ],
        "notes": list(cert.notes),
    }


def _orbit_length(key: str) -> int:
    """A template `inverses` key: a positive orbit length written as str(t) writes it."""
    try:
        t = int(key)
    except ValueError:
        t = 0
    if key != str(t) or t < 1:
        raise SchemaError(f"template inverses key {key!r} is not a positive orbit length")
    return t


def certificate_from_dict(data: dict) -> SurjectivityCertificate:
    check_schema(data, kind=CERTIFICATE_KIND)
    try:
        aut = automorphism_from_dict(data["automorphism"])
        n, k = aut.params.modulus, aut.params.rank
        status = data.get("status")
        if status not in ("certified", "unknown"):
            raise ValueError(f"bad certificate status {status!r}")
        template = None
        tdata = data.get("template")
        if tdata is not None:
            template = PreimageTemplate(
                coeff=json_int(tdata["coeff"], "template coeff"),
                offset=tuple(json_int(x, "template point coordinate") for x in tdata["point"]),
                order=json_int(tdata["order"], "template order"),
                inverses=tuple(sorted(
                    (_orbit_length(t), json_int(v, "template inverse"))
                    for t, v in tdata["inverses"].items()
                )),
            )
        witnesses = {}
        for entry in data.get("witnesses", []):
            pt = tuple(json_int(x, "witness point coordinate") for x in entry["point"])
            witnesses[pt] = _torsion_from_list(entry["preimage"], n, k)
        notes = data.get("notes", [])
        if not isinstance(notes, list) or not all(isinstance(note, str) for note in notes):
            raise SchemaError("certificate notes must be a list of strings")
        notes = tuple(notes)
    except KeyError as exc:
        raise SchemaError(f"missing field {exc.args[0]!r} in certificate data") from exc
    except (TypeError, AttributeError) as exc:
        raise SchemaError(f"malformed certificate data: {exc}") from exc
    # preimages walk orbits for up to `order` steps, so only the true order is taken
    if template is not None and template.order != matrix_order(aut.matrix):
        raise SchemaError(f"template order {template.order} is not the order of the lattice map")
    return SurjectivityCertificate(
        automorphism=aut,
        certified=(status == "certified"),
        witnesses=witnesses,
        template=template,
        notes=notes,
    )


def _template_differences(stored, derived, why) -> list[str]:
    """How a stored orbit template departs from the one derived from the automorphism."""
    if derived is None:
        return [f"certificate carries an orbit template, but {why}"]
    if stored is None:
        return ["certificate omits the orbit template its automorphism has"]
    fields = [("coeff", stored.coeff, derived.coeff),
              ("point", stored.offset, derived.offset),
              ("order", stored.order, derived.order)]
    got, want = dict(stored.inverses), dict(derived.inverses)
    fields += [(f"inverse for orbit length {t}", got.get(t), want.get(t))
               for t in sorted(got.keys() | want.keys())]
    # an orbit length listed twice, say, differs in no field
    return [f"template {name} is {a}, expected {b}" for name, a, b in fields if a != b] or [
        "template lists its inverses differently from the derived one"
    ]


def replay_certificate(cert: SurjectivityCertificate) -> list[str]:
    """Re-run every claim a certificate makes; returns failure messages.

    The orbit template is derived again from the automorphism, and a stored
    template must equal it: each inverse mod n is unique, so equality is exact.
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
    template, why = _orbit_template(aut)
    if cert.certified and cert.template is None:
        failures.append("certified certificate carries no orbit template")
    elif cert.template != template:
        failures.extend(_template_differences(cert.template, template, why))
    for pt, sigma in sorted(cert.witnesses.items()):
        expected = Torsion.delta(n, k, pt)
        actual = restriction_difference(aut, sigma)
        if actual != expected:
            failures.append(
                f"witness at {pt} replays to {actual.render()}, expected {expected.render()}"
            )
    return failures
