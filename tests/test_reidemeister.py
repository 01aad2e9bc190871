import gzip
import json
import math
import pathlib
import random
from collections import Counter
from math import gcd

import pytest

from lamptwist.group import GroupElement, GroupParams, Torsion
from lamptwist.automorphism import InvalidAutomorphism, WreathAutomorphism
from lamptwist.reidemeister import (
    default_test_points,
    finite_reidemeister_automorphism,
    reidemeister_abelian,
    reidemeister_number,
    render_count,
    replay_certificate,
    restriction_difference,
    restriction_surjectivity,
    template_preimage,
)
from lamptwist.fileformat import SchemaError, certificate_from_dict, certificate_to_dict
from lamptwist.modular import crt, factorize
from lamptwist.matrix import block_diagonal, identity, mat_sub, det
from reference import (
    fixed_character_count,
    mat_pow,
    random_unimodular,
    reference_smith_normal_form,
    rule_reidemeister,
    twist,
)

BLOCK = ((0, 1), (-1, -1))
GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestLatticeCounts:
    def test_frozen_values(self):
        assert reidemeister_abelian(((-1,),)) == 2
        assert reidemeister_abelian(BLOCK) == 3
        assert reidemeister_abelian(identity(3)) == math.inf
        assert reidemeister_abelian(((1, 1), (0, 1))) == math.inf

    def test_rejects_non_unimodular(self):
        aut = WreathAutomorphism(GroupParams(5, 1), ((2,),), Torsion.delta(5, 1, (0,)))
        with pytest.raises(InvalidAutomorphism):
            reidemeister_number(aut)

    def test_character_count_agrees(self):
        rng = random.Random(51)
        for _ in range(120):
            k = rng.randrange(1, 5)
            m = random_unimodular(rng, k)
            count = fixed_character_count(m)
            assert reidemeister_abelian(m) == (count if count else math.inf)

    def test_matches_smith_diagonal(self):
        rng = random.Random(53)
        for _ in range(120):
            k = rng.randrange(1, 5)
            m = random_unimodular(rng, k)
            _, d, _ = reference_smith_normal_form(mat_sub(identity(k), m))
            prod = 1
            for i in range(k):
                prod *= d[i][i]
            assert reidemeister_abelian(m) == (prod if prod else math.inf)


class TestBlockMatrix:
    def test_order_three(self):
        for k in (2, 4, 6):
            m = block_diagonal(BLOCK, k)
            assert mat_pow(m, 3) == identity(k)
            assert mat_pow(m, 1) != identity(k)
            assert det(mat_sub(identity(k), m)) == 3 ** (k // 2)

    def test_odd_rank_rejected(self):
        with pytest.raises(ValueError):
            block_diagonal(BLOCK, 3)


class TestConstructions:
    def test_always_infinite_inputs_rejected(self):
        for n, k in [(2, 1), (4, 3), (6, 2), (3, 1), (9, 3), (15, 5)]:
            with pytest.raises(ValueError):
                finite_reidemeister_automorphism(n, k)

    def test_doubling_shape(self):
        aut = finite_reidemeister_automorphism(5, 1)
        assert aut.matrix == ((-1,),)
        assert aut.origin_image == Torsion.delta(5, 1, (0,), 2)
        assert aut.validate().ok

    def test_block_shape(self):
        aut = finite_reidemeister_automorphism(9, 2)
        assert aut.matrix == BLOCK
        assert aut.origin_image == Torsion.delta(9, 2, (0, 0), 2)
        assert aut.validate().ok

    def test_multiplier_congruences(self):
        # the 7-part needs residue 3, every other prime power residue 2
        m21 = finite_reidemeister_automorphism(21, 2).origin_image.coeff((0, 0))
        assert m21 == 17 and m21 % 7 == 3 and m21 % 3 == 2
        m63 = finite_reidemeister_automorphism(63, 2).origin_image.coeff((0, 0))
        assert m63 == 38 and m63 % 7 == 3 and m63 % 9 == 2
        for n in (9, 27, 45):
            assert finite_reidemeister_automorphism(n, 2).origin_image.coeff((0, 0)) == 2

        # the least c with c^N != 1 mod each p agrees with the hand-made rule: 2 when
        # 3 does not divide n, else 3 mod the 7-part of n and 2 mod every other prime power
        def hand_made(n):
            if n % 3:
                return 2
            return crt((3 if p == 7 else 2, p**s) for p, s in sorted(factorize(n).items()))[0]

        checked = 0
        for n in range(3, 500, 2):
            for k in (1, 2):
                if n % 3 == 0 and k % 2:
                    continue
                aut = finite_reidemeister_automorphism(n, k)
                assert aut.origin_image == Torsion.delta(n, k, (0,) * k, hand_made(n))
                checked += 1
        assert checked == 415


class TestCertificates:
    def test_doubling_certified(self):
        aut = finite_reidemeister_automorphism(5, 1)
        cert = restriction_surjectivity(aut)
        assert cert.certified and cert.status == "certified"
        assert cert.template is not None and cert.template.coeff == 2
        assert cert.template.order == 2
        for t, inv in cert.template.inverses.items():
            assert ((1 - pow(2, t, 5)) * inv) % 5 == 1
        for z, sigma in cert.witnesses.items():
            assert restriction_difference(aut, sigma) == Torsion.delta(5, 1, z)

    def test_template_preimage_fresh_points(self):
        aut = finite_reidemeister_automorphism(7, 2)
        cert = restriction_surjectivity(aut)
        for z in [(3, -2), (5, 5), (-4, 1), (0, 0)]:
            sigma = template_preimage(aut, cert.template, z)
            assert restriction_difference(aut, sigma) == Torsion.delta(7, 2, z)

    def test_block_certificate_orbit_length_three(self):
        aut = finite_reidemeister_automorphism(9, 2)
        cert = restriction_surjectivity(aut)
        assert cert.certified
        assert cert.template.order == 3
        sigma = template_preimage(aut, cert.template, (1, 0))
        # orbit of (1,0) under the order-3 block map has full length
        assert len(sigma.items()) == 3
        assert restriction_difference(aut, sigma) == Torsion.delta(9, 2, (1, 0))

    def test_uncertifiable_automorphism(self):
        # 3 | 9 with odd rank: torsion restriction cannot be surjective
        aut = WreathAutomorphism(
            GroupParams(9, 1), ((-1,),), Torsion(9, 1, [((0,), 1), ((1,), 3)])
        )
        cert = restriction_surjectivity(aut)
        assert not cert.certified and cert.status == "unknown"
        assert any("multi-point" in note for note in cert.notes)

    def test_missing_inverse_blocks_template(self):
        # n = 9 and coeff = 4: 1 - 4^3 = -63 is divisible by 9
        aut = WreathAutomorphism(GroupParams(9, 2), BLOCK, Torsion.delta(9, 2, (0, 0), 4))
        cert = restriction_surjectivity(aut)
        assert not cert.certified
        assert any("template incomplete" in note for note in cert.notes)

    @pytest.mark.parametrize(
        "aut, why",
        [
            (WreathAutomorphism(GroupParams(9, 1), ((-1,),), Torsion(9, 1, [((0,), 1), ((1,), 3)])),
             "origin image has multi-point support; orbit template unavailable"),
            (WreathAutomorphism(GroupParams(9, 2), BLOCK, Torsion.delta(9, 2, (0, 0), 4)),
             "no inverse of (1 - c^t) mod 9 for orbit lengths [1, 3]; template incomplete"),
            (WreathAutomorphism(GroupParams(5, 2), ((2, 1), (1, 1)), Torsion.delta(5, 2, (0, 0), 2)),
             "lattice map has no finite order within the search cap"),
            (WreathAutomorphism(GroupParams(5, 1), ((1,),), Torsion.delta(5, 1, (1,), 2)),
             "orbit map translation part does not close; orbits are infinite"),
        ],
        ids=["multi-point", "no-inverse", "infinite-order", "open-orbit"],
    )
    def test_unknown_certificate_says_why_no_template(self, aut, why):
        cert = restriction_surjectivity(aut)
        assert cert.status == "unknown" and cert.template is None
        assert cert.witnesses == {} and cert.notes == (why,)

    def test_failed_template_preimage_is_an_assertion(self, monkeypatch):
        # a derived template always verifies; a wrong preimage would be a bug
        monkeypatch.setattr(
            "lamptwist.reidemeister.template_preimage",
            lambda aut, template, z: Torsion.delta(aut.params.modulus, aut.params.rank, z),
        )
        with pytest.raises(AssertionError, match="failed exact verification"):
            restriction_surjectivity(finite_reidemeister_automorphism(5, 1))

    def test_default_test_points(self):
        assert default_test_points(1) == [(-1,), (0,), (1,)]
        assert default_test_points(2) == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]


class TestPipeline:
    def test_frozen_counts(self):
        assert reidemeister_number(finite_reidemeister_automorphism(5, 1)).describe() == "2"
        assert reidemeister_number(finite_reidemeister_automorphism(25, 3)).describe() == "8"
        assert reidemeister_number(finite_reidemeister_automorphism(9, 2)).describe() == "3"
        assert reidemeister_number(finite_reidemeister_automorphism(21, 4)).describe() == "9"

    def test_identity_is_infinite(self):
        result = reidemeister_number(WreathAutomorphism.identity(GroupParams(5, 2)))
        assert result.value == math.inf
        assert result.certificate is None

    @pytest.mark.parametrize(
        "origin, cocycle",
        [(Torsion.zero(5, 2), ()),
         (Torsion.delta(5, 2, (0, 0)), (Torsion.delta(5, 2, (0, 0)), Torsion.zero(5, 2)))],
        ids=["non-unit", "inconsistent-cocycle"],
    )
    def test_lattice_infinite_route_validates(self, origin, cocycle):
        # det(I - I) = 0 would answer infinite before any certificate is built
        aut = WreathAutomorphism(GroupParams(5, 2), identity(2), origin, cocycle)
        with pytest.raises(InvalidAutomorphism):
            reidemeister_number(aut)

    def test_unknown_result(self):
        aut = WreathAutomorphism(
            GroupParams(9, 1), ((-1,),), Torsion(9, 1, [((0,), 1), ((1,), 3)])
        )
        result = reidemeister_number(aut)
        assert result.value is None and result.describe() == "unknown"
        assert result.quotient == 2

    def test_classification_matches_parity_rule(self):
        for n in range(2, 20):
            for k in range(1, 4):
                reason = GroupParams(n, k).r_infinity_reason()
                expected = n % 2 == 0 or (n % 3 == 0 and k % 2 == 1)
                assert (reason is not None) == expected
                if not expected:
                    aut = finite_reidemeister_automorphism(n, k)
                    assert aut.validate().ok
                    result = reidemeister_number(aut)
                    want = 2**k if n % 3 else 3 ** (k // 2)
                    assert result.route == "template" and result.value == want


# one automorphism per route reidemeister_number can take
ROUTES = {
    "lattice-infinite": WreathAutomorphism.identity(GroupParams(5, 2)),
    "template": finite_reidemeister_automorphism(5, 1),
    "multi-point": WreathAutomorphism(
        GroupParams(9, 1), ((-1,),), Torsion(9, 1, [((0,), 1), ((1,), 3)])
    ),
    "no-order": WreathAutomorphism(
        GroupParams(5, 2), ((2, 1), (1, 1)), Torsion.delta(5, 2, (0, 0), 2)
    ),
    # M has order 4 and 1 - 2^4 = -15 is 0 mod 5
    "non-invertible": WreathAutomorphism(
        GroupParams(5, 2), ((0, -1), (1, 0)), Torsion.delta(5, 2, (0, 0), 2)
    ),
}


class TestRoutes:
    @pytest.mark.parametrize("route", ROUTES)
    def test_route_code(self, route):
        result = reidemeister_number(ROUTES[route])
        assert result.route == route
        if result.certificate is not None:
            assert result.certificate.route == route

    @pytest.mark.parametrize("route", ROUTES)
    def test_value_and_certificate_encode_the_route(self, route):
        # value is None exactly when R is unknown; certificate is None exactly
        # when the lattice quotient alone decided R
        result = reidemeister_number(ROUTES[route])
        decided = route in ("lattice-infinite", "template")
        assert (result.value is None) == (not decided)
        assert (result.certificate is None) == (route == "lattice-infinite")
        assert (result.describe() == "unknown") == (not decided)

    def test_values_per_route(self):
        assert reidemeister_number(ROUTES["lattice-infinite"]).value == math.inf
        assert reidemeister_number(ROUTES["template"]).value == 2
        assert [reidemeister_number(ROUTES[r]).quotient
                for r in ("multi-point", "no-order", "non-invertible")] == [2, 1, 2]

    def test_open_orbit_only_behind_a_lattice_infinite_map(self):
        # det(I - M) = 0 here, so reidemeister_number never reaches the template
        aut = WreathAutomorphism(GroupParams(5, 1), ((1,),), Torsion.delta(5, 1, (1,), 2))
        assert restriction_surjectivity(aut).route == "open-orbit"
        assert reidemeister_number(aut).route == "lattice-infinite"

    def test_render_count(self):
        counts = (7, 0, math.inf, None)
        assert [render_count(x) for x in counts] == ["7", "0", "infinite", "unknown"]


class TestCertificateSerialization:
    def test_roundtrip(self):
        aut = finite_reidemeister_automorphism(9, 2)
        cert = restriction_surjectivity(aut)
        data = certificate_to_dict(cert)
        back = certificate_from_dict(data)
        assert back.automorphism == aut
        assert back.certified == cert.certified
        assert back.witnesses == cert.witnesses
        assert back.template == cert.template
        assert "radius" not in data

    def test_fresh_certificate_replays_clean(self):
        for n, k in [(5, 1), (7, 3), (9, 2), (21, 2)]:
            cert = restriction_surjectivity(finite_reidemeister_automorphism(n, k))
            assert replay_certificate(cert) == []

    def test_tampered_witness_detected(self):
        cert = restriction_surjectivity(finite_reidemeister_automorphism(5, 1))
        data = certificate_to_dict(cert)
        data["witnesses"][0]["preimage"][0]["coeff"] += 1
        failures = replay_certificate(certificate_from_dict(data))
        assert any("replays to" in f for f in failures)

    def test_tampered_template_detected(self):
        cert = restriction_surjectivity(finite_reidemeister_automorphism(5, 1))
        data = certificate_to_dict(cert)
        data["template"]["inverses"]["1"] += 1
        failures = replay_certificate(certificate_from_dict(data))
        assert any("inverse for orbit length 1" in f for f in failures)

    def test_orbit_length_listed_twice_detected(self):
        # a file cannot list it twice: a key other than str(t) is a schema error
        cert = restriction_surjectivity(finite_reidemeister_automorphism(5, 1))
        data = certificate_to_dict(cert)
        data["template"]["inverses"]["01"] = data["template"]["inverses"]["1"]
        with pytest.raises(SchemaError, match="inverses key '01'"):
            certificate_from_dict(data)

    def test_omitted_template_detected(self):
        # an unknown certificate may not hide the template its automorphism has
        cert = restriction_surjectivity(finite_reidemeister_automorphism(5, 1))
        data = certificate_to_dict(cert)
        data.update(status="unknown", template=None)
        assert replay_certificate(certificate_from_dict(data)) == [
            "certificate omits the orbit template its automorphism has"
        ]

    def test_certified_without_witnesses_rejected(self):
        cert = restriction_surjectivity(finite_reidemeister_automorphism(5, 1))
        data = certificate_to_dict(cert)
        data["witnesses"] = []
        failures = replay_certificate(certificate_from_dict(data))
        assert any("no witnesses" in f for f in failures)

    def test_stored_witnesses_serve_preimages(self):
        # a certificate without a template, with witnesses from an earlier solver:
        # they still replay, but only the orbit template serves preimages
        with gzip.open(GOLDEN / "reidemeister-box-n49-k1.json.gz", "rt", encoding="utf-8") as fh:
            cert = certificate_from_dict(json.loads(json.load(fh)["certificate"]))
        assert cert.template is None and sorted(cert.witnesses) == [(-1,), (0,), (1,)]
        assert replay_certificate(cert) == []

    def test_wrong_kind_rejected(self):
        from lamptwist.fileformat import SchemaError

        cert = restriction_surjectivity(finite_reidemeister_automorphism(5, 1))
        data = certificate_to_dict(cert)
        data["kind"] = "something-else"
        with pytest.raises(SchemaError):
            certificate_from_dict(data)


CENSUS_MODULI = (5, 7, 9, 25, 35, 45, 49)
NILPOTENT_MODULI = (9, 25, 45, 49)


def census_automorphism(rng, kind: str, k: int) -> WreathAutomorphism:
    """One automorphism of rank k, drawn as the benchmark's verdict corpus draws its kind.

    "random": a random lattice map and a unit at one point of {-1, 0, 1}^k;
    "nilpotent": the same plus one or two terms in the radical of n, so u
    has several points; "twist": an inner twist of the finite-R construction.
    """
    if kind == "twist":
        n = rng.choice([n for n in CENSUS_MODULI if n % 3 or k % 2 == 0])
        sigma = Torsion(n, k, [([rng.randint(-2, 2) for _ in range(k)], 1) for _ in range(3)])
        gamma = GroupElement(sigma, [rng.randint(-2, 2) for _ in range(k)])
        return twist(finite_reidemeister_automorphism(n, k), gamma)
    n = rng.choice(NILPOTENT_MODULI if kind == "nilpotent" else CENSUS_MODULI)
    point = [rng.randint(-1, 1) for _ in range(k)]
    terms = [(point, rng.choice([c for c in range(1, n) if gcd(c, n) == 1]))]
    if kind == "nilpotent":
        radical = math.prod(factorize(n))
        for _ in range(rng.randint(1, 2)):
            terms.append(([rng.randint(-1, 1) for _ in range(k)], rng.randint(1, n) * radical))
    return WreathAutomorphism(GroupParams(n, k), random_unimodular(rng, k), Torsion(n, k, terms))


class TestRuleCensus:
    # seeded draws of every rank and kind; the counts record each route with the
    # rule's value, and each stage that decides an unknown route moves its count
    # to a definite route
    CENSUS = Counter({
        ("lattice-infinite", "infinite"): 107,
        ("template", "finite"): 118,
        ("multi-point", "infinite"): 45,
        ("multi-point", "finite"): 3,
        ("no-order", "infinite"): 54,
        ("non-invertible", "infinite"): 33,
    })

    def test_rule_frozen_values(self):
        # the rule's three ways to infinity, and a finite count
        def aut(n, matrix, u):
            return WreathAutomorphism(GroupParams(n, len(matrix)), matrix, u)

        quarter_turn = ((0, -1), (1, 0))  # order 4, det(I - M) = 2, and 2^4 = 1 mod 5
        assert rule_reidemeister(aut(5, quarter_turn, Torsion.delta(5, 2, (0, 0), 2))) == math.inf
        assert rule_reidemeister(aut(5, quarter_turn, Torsion.delta(5, 2, (0, 0), 3))) == math.inf
        assert rule_reidemeister(aut(7, quarter_turn, Torsion.delta(7, 2, (0, 0), 2))) == 2
        shear = ((2, 1), (1, 1))  # infinite order, det(I - M) = -1
        assert rule_reidemeister(aut(5, shear, Torsion.delta(5, 2, (0, 0), 2))) == math.inf
        assert rule_reidemeister(aut(5, identity(2), Torsion.delta(5, 2, (0, 0), 2))) == math.inf
        # the multi-point unit mod 9 of `test_unknown_result`: c_3 = 1
        assert rule_reidemeister(aut(9, ((-1,),), Torsion(9, 1, [((0,), 1), ((1,), 3)]))) == math.inf
        assert rule_reidemeister(finite_reidemeister_automorphism(25, 3)) == 8

    def test_definite_verdicts_agree_with_the_rule(self):
        rng = random.Random(4711)
        census = Counter()
        for _ in range(360):
            kind, k = rng.choice(["random", "nilpotent", "twist"]), rng.randint(1, 3)
            aut = census_automorphism(rng, kind, k)
            rule = rule_reidemeister(aut)
            result = reidemeister_number(aut)
            if result.value is not None:
                assert result.value == rule, (aut.label(), result.route)
            census[result.route, "infinite" if rule == math.inf else "finite"] += 1
        assert census == self.CENSUS
