import gzip
import json
import pathlib
import random

import pytest

from lamptwist.group import GroupParams, Torsion
from lamptwist.automorphism import WreathAutomorphism
from lamptwist.reidemeister import (
    INFINITE,
    ExtNat,
    PreimageTemplate,
    block_order_three,
    certificate_from_dict,
    certificate_to_dict,
    classify_r_infinity,
    crt_lift_preimage,
    default_test_points,
    finite_reidemeister_automorphism,
    reidemeister_abelian,
    reidemeister_number,
    replay_certificate,
    restriction_difference,
    restriction_surjectivity,
    template_preimage,
)
from lamptwist.fileformat import SchemaError
from lamptwist.matrix import identity, mat_pow, mat_sub, det, random_unimodular
from reference import fixed_character_count, reference_smith_normal_form

BLOCK = ((0, 1), (-1, -1))
GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestExtNat:
    def test_str(self):
        assert str(ExtNat.of(7)) == "7"
        assert str(INFINITE) == "infinite"


class TestLatticeCounts:
    def test_frozen_values(self):
        assert reidemeister_abelian(((-1,),)) == ExtNat.of(2)
        assert reidemeister_abelian(BLOCK) == ExtNat.of(3)
        assert reidemeister_abelian(identity(3)) == INFINITE
        assert reidemeister_abelian(((1, 1), (0, 1))) == INFINITE

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            reidemeister_abelian(((2,),))

    def test_character_count_agrees(self):
        rng = random.Random(51)
        for _ in range(120):
            k = rng.randrange(1, 5)
            m = random_unimodular(rng, k)
            count = fixed_character_count(m)
            assert reidemeister_abelian(m) == (ExtNat.of(count) if count else INFINITE)

    def test_matches_smith_diagonal(self):
        rng = random.Random(53)
        for _ in range(120):
            k = rng.randrange(1, 5)
            m = random_unimodular(rng, k)
            _, d, _ = reference_smith_normal_form(mat_sub(identity(k), m))
            prod = 1
            for i in range(k):
                prod *= d[i][i]
            assert reidemeister_abelian(m) == (ExtNat.of(prod) if prod else INFINITE)


class TestBlockMatrix:
    def test_order_three(self):
        for k in (2, 4, 6):
            m = block_order_three(k)
            assert mat_pow(m, 3) == identity(k)
            assert mat_pow(m, 1) != identity(k)
            assert det(mat_sub(identity(k), m)) == 3 ** (k // 2)

    def test_odd_rank_rejected(self):
        with pytest.raises(ValueError):
            block_order_three(3)


class TestConstructions:
    def test_always_infinite_inputs_rejected(self):
        for n, k in [(2, 1), (4, 3), (6, 2), (3, 1), (9, 3), (15, 5)]:
            with pytest.raises(ValueError):
                finite_reidemeister_automorphism(n, k)

    def test_doubling_shape(self):
        aut = finite_reidemeister_automorphism(5, 1)
        assert aut.matrix == ((-1,),)
        assert aut.origin_image == Torsion.delta(5, 1, (0,), 2)
        assert aut.is_valid

    def test_block_shape(self):
        aut = finite_reidemeister_automorphism(9, 2)
        assert aut.matrix == BLOCK
        assert aut.origin_image == Torsion.delta(9, 2, (0, 0), 2)
        assert aut.is_valid

    def test_multiplier_congruences(self):
        # the 7-part needs residue 3, every other prime power residue 2
        m21 = finite_reidemeister_automorphism(21, 2).origin_image.coeff((0, 0))
        assert m21 == 17 and m21 % 7 == 3 and m21 % 3 == 2
        m63 = finite_reidemeister_automorphism(63, 2).origin_image.coeff((0, 0))
        assert m63 == 38 and m63 % 7 == 3 and m63 % 9 == 2
        for n in (9, 27, 45):
            assert finite_reidemeister_automorphism(n, 2).origin_image.coeff((0, 0)) == 2


class TestCertificates:
    def test_doubling_certified(self):
        aut = finite_reidemeister_automorphism(5, 1)
        cert = restriction_surjectivity(aut)
        assert cert.certified and cert.status == "certified"
        assert cert.template is not None and cert.template.coeff == 2
        assert cert.template.order == 2
        for t, inv in cert.template.inverses:
            assert ((1 - pow(2, t, 5)) * inv) % 5 == 1
        for z, sigma in cert.witnesses.items():
            assert restriction_difference(aut, sigma) == Torsion.delta(5, 1, z)

    def test_template_preimage_fresh_points(self):
        aut = finite_reidemeister_automorphism(7, 2)
        cert = restriction_surjectivity(aut)
        for z in [(3, -2), (5, 5), (-4, 1), (0, 0)]:
            sigma = cert.preimage(z)
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
        assert result.value == INFINITE
        assert result.certificate is None

    def test_unknown_result(self):
        aut = WreathAutomorphism(
            GroupParams(9, 1), ((-1,),), Torsion(9, 1, [((0,), 1), ((1,), 3)])
        )
        result = reidemeister_number(aut)
        assert result.is_unknown and result.describe() == "unknown"
        assert result.quotient == ExtNat.of(2)

    def test_classification_matches_parity_rule(self):
        for n in range(2, 20):
            for k in range(1, 4):
                verdict = classify_r_infinity(n, k)
                expected = n % 2 == 0 or (n % 3 == 0 and k % 2 == 1)
                assert verdict.always_infinite == expected
                if not expected:
                    assert verdict.automorphism.is_valid
                    want = 2**k if n % 3 else 3 ** (k // 2)
                    assert verdict.reidemeister == want


class TestCrtLift:
    def test_lift_over_35(self):
        aut = finite_reidemeister_automorphism(35, 1)
        cert5 = restriction_surjectivity(aut.induce(5))
        cert7 = restriction_surjectivity(aut.induce(7))
        for z in [(0,), (1,), (-3,), (10,)]:
            sigma = crt_lift_preimage(aut, z, cert5, cert7)
            assert restriction_difference(aut, sigma) == Torsion.delta(35, 1, z)

    def test_trivial_split(self):
        aut = finite_reidemeister_automorphism(35, 1)
        cert = restriction_surjectivity(aut)
        sigma = crt_lift_preimage(aut, (2,), cert, None)
        assert restriction_difference(aut, sigma) == Torsion.delta(35, 1, (2,))

    def test_mismatched_split_rejected(self):
        aut = finite_reidemeister_automorphism(35, 1)
        cert5 = restriction_surjectivity(aut.induce(5))
        with pytest.raises(ValueError):
            crt_lift_preimage(aut, (0,), cert5, cert5)

    def test_uncertified_factor_rejected(self):
        aut = finite_reidemeister_automorphism(35, 1)
        cert5 = restriction_surjectivity(aut.induce(5))
        cert7 = restriction_surjectivity(aut.induce(7))
        cert7.certified = False
        with pytest.raises(ValueError):
            crt_lift_preimage(aut, (0,), cert5, cert7)


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
        cert = restriction_surjectivity(finite_reidemeister_automorphism(5, 1))
        t = cert.template
        cert.template = PreimageTemplate(t.coeff, t.offset, t.order, t.inverses[:1] + t.inverses)
        assert replay_certificate(cert) == [
            "template lists its inverses differently from the derived one"
        ]
        # a file cannot list it twice: a key other than str(t) is a schema error
        data = certificate_to_dict(restriction_surjectivity(cert.automorphism))
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
        # a certificate without a template, with witnesses from an earlier solver
        with gzip.open(GOLDEN / "reidemeister-box-n49-k1.json.gz", "rt", encoding="utf-8") as fh:
            cert = certificate_from_dict(json.loads(json.load(fh)["certificate"]))
        assert cert.template is None and sorted(cert.witnesses) == [(-1,), (0,), (1,)]
        assert replay_certificate(cert) == []
        assert cert.preimage((0,)) == cert.witnesses[(0,)]
        with pytest.raises(ValueError, match="no preimage"):
            cert.preimage((2,))

    def test_wrong_kind_rejected(self):
        from lamptwist.fileformat import SchemaError

        cert = restriction_surjectivity(finite_reidemeister_automorphism(5, 1))
        data = certificate_to_dict(cert)
        data["kind"] = "something-else"
        with pytest.raises(SchemaError):
            certificate_from_dict(data)
