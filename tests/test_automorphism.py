import random

import pytest

from lamptwist.group import GroupElement, GroupParams, Torsion
from lamptwist.automorphism import (
    InvalidAutomorphism,
    WreathAutomorphism,
    automorphism_from_dict,
    automorphism_to_dict,
    group_ring_inverse,
    inner,
    is_group_ring_unit,
    twist,
)
from lamptwist.fileformat import SchemaError
from reference import inverse_in_box


def delta(n, k, pt, c=1):
    return Torsion.delta(n, k, pt, c)


DOUBLING_5 = WreathAutomorphism(GroupParams(5, 1), ((-1,),), delta(5, 1, (0,), 2))
BLOCK_9 = WreathAutomorphism(
    GroupParams(9, 2), ((0, 1), (-1, -1)), delta(9, 2, (0, 0), 2)
)


def random_torsion(rng, n, k, span=3, terms=3):
    items = [
        (tuple(rng.randint(-span, span) for _ in range(k)), rng.randrange(n))
        for _ in range(rng.randrange(terms + 1))
    ]
    return Torsion(n, k, items)


def random_element(rng, n, k, span=3):
    return GroupElement(random_torsion(rng, n, k, span), tuple(rng.randint(-span, span) for _ in range(k)))


class TestUnitDetection:
    def test_single_point_units(self):
        assert is_group_ring_unit(delta(5, 1, (0,), 2))
        assert is_group_ring_unit(delta(5, 2, (1, -1), 3))
        assert is_group_ring_unit(delta(6, 1, (2,), 5))

    def test_coefficient_must_be_invertible(self):
        assert not is_group_ring_unit(delta(6, 1, (0,), 3))
        assert not is_group_ring_unit(delta(6, 1, (0,), 2))

    def test_multi_point_over_prime_is_not_unit(self):
        assert not is_group_ring_unit(Torsion(5, 1, [((0,), 1), ((1,), 1)]))

    def test_nilpotent_perturbation_is_unit(self):
        # 1 + 2t squares to 1 mod 4
        u = Torsion(4, 1, [((0,), 1), ((1,), 2)])
        assert is_group_ring_unit(u)
        assert group_ring_inverse(u) == u

    def test_zero_is_not_unit(self):
        assert not is_group_ring_unit(Torsion.zero(5, 1))


class TestGroupRingInverse:
    def test_frozen_single_point(self):
        assert group_ring_inverse(delta(5, 1, (0,), 2)) == delta(5, 1, (0,), 3)
        assert group_ring_inverse(delta(5, 2, (1, -1), 2)) == delta(5, 2, (-1, 1), 3)

    def test_wide_support_mod_prime_square(self):
        u = Torsion(9, 1, [((-3,), 2), ((3,), 3)])
        v = group_ring_inverse(u)
        assert u.convolve(v) == delta(9, 1, (0,))
        # the inverse genuinely needs support out to |x| = 9
        assert max(abs(p[0]) for p, _ in v.items()) == 9

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            group_ring_inverse(Torsion(5, 1, [((0,), 1), ((1,), 1)]))

    def test_composite_modulus(self):
        u = Torsion(45, 1, [((0,), 2), ((1,), 15)])  # 15 vanishes mod 3 and mod 5
        v = group_ring_inverse(u)
        assert u.convolve(v) == delta(45, 1, (0,))

    def test_random_units_invert(self):
        from lamptwist.modular import factorize

        rng = random.Random(41)
        for _ in range(100):
            n = rng.choice([4, 9, 25, 27, 45, 49])
            primes = list(factorize(n))
            rad = 1
            for p in primes:
                rad *= p
            # unit = invertible single point + multiple-of-radical noise
            coeff = rng.choice([c for c in range(1, n) if all(c % p for p in primes)])
            base = delta(n, 1, (rng.randint(-2, 2),), coeff)
            noise = random_torsion(rng, n, 1, span=2).scaled(rad)
            u = base + noise
            assert is_group_ring_unit(u)
            v = group_ring_inverse(u)
            assert u.convolve(v) == delta(n, 1, (0,))


class TestInverseInBox:
    def test_agrees_on_single_point(self):
        u = delta(5, 1, (1,), 2)
        assert inverse_in_box(u, 3) == delta(5, 1, (-1,), 3)

    def test_none_for_non_unit(self):
        assert inverse_in_box(Torsion(5, 1, [((0,), 1), ((1,), 1)]), 3) is None
        assert inverse_in_box(Torsion.zero(5, 1), 3) is None

    def test_radius_matters(self):
        u = Torsion(9, 1, [((-3,), 2), ((3,), 3)])
        assert inverse_in_box(u, 4) is None  # true inverse reaches |x| = 9
        v = inverse_in_box(u, 9)
        assert v is not None and u.convolve(v) == delta(9, 1, (0,))

    def test_matches_hensel_route(self):
        u = Torsion(4, 1, [((0,), 1), ((1,), 2)])
        assert inverse_in_box(u, 4) == group_ring_inverse(u)


class TestValidation:
    def test_doubling_construction_is_valid(self):
        report = DOUBLING_5.validate()
        assert report.ok and report.failures == ()

    def test_non_unimodular_matrix(self):
        aut = WreathAutomorphism(GroupParams(5, 1), ((2,),), delta(5, 1, (0,), 2))
        report = aut.validate()
        assert not report.matrix_unimodular and not report.ok
        with pytest.raises(InvalidAutomorphism):
            aut.apply(GroupElement.identity(GroupParams(5, 1)))

    def test_non_unit_origin_image(self):
        aut = WreathAutomorphism(
            GroupParams(5, 1), ((1,),), Torsion(5, 1, [((0,), 1), ((1,), 1)])
        )
        assert not aut.validate().u_is_unit

    def test_inconsistent_cocycle(self):
        aut = WreathAutomorphism(
            GroupParams(5, 2),
            ((1, 0), (0, 1)),
            delta(5, 2, (0, 0)),
            [delta(5, 2, (0, 0)), Torsion.zero(5, 2)],
        )
        report = aut.validate()
        assert not report.cocycle_consistent
        assert any("axes 0 and 1" in f for f in report.failures)

    def test_consistent_cocycle_from_conjugation(self):
        gamma = GroupElement(Torsion(5, 2, [((1, 0), 2), ((0, 1), 3)]), (1, -1))
        assert inner(gamma).validate().ok


class TestApply:
    def test_homomorphism_property(self):
        rng = random.Random(97)
        gamma = GroupElement(Torsion(9, 2, [((1, 0), 4)]), (0, 1))
        for aut in [DOUBLING_5, BLOCK_9, twist(BLOCK_9, gamma)]:
            n, k = aut.params.modulus, aut.params.rank
            for _ in range(60):
                a = random_element(rng, n, k)
                b = random_element(rng, n, k)
                assert aut(a * b) == aut(a) * aut(b)

    def test_equivariance(self):
        rng = random.Random(13)
        from lamptwist.matrix import mat_vec

        for aut in [DOUBLING_5, BLOCK_9]:
            n, k = aut.params.modulus, aut.params.rank
            for _ in range(60):
                sigma = random_torsion(rng, n, k)
                z = tuple(rng.randint(-3, 3) for _ in range(k))
                assert aut.on_torsion(sigma.shifted(z)) == aut.on_torsion(sigma).shifted(
                    mat_vec(aut.matrix, z)
                )

    def test_identity_automorphism(self):
        params = GroupParams(7, 2)
        ident = WreathAutomorphism.identity(params)
        g = GroupElement(Torsion(7, 2, [((2, -1), 3)]), (4, 5))
        assert ident(g) == g

    def test_frozen_application(self):
        # doubling: torsion generator at z maps to 2 D[-z], lattice negates
        g = GroupElement(delta(5, 1, (3,)), (2,))
        assert DOUBLING_5(g) == GroupElement(delta(5, 1, (-3,), 2), (-2,))


class TestCocycleValue:
    def test_basis_values(self):
        gamma = GroupElement(Torsion(9, 2, [((1, 1), 2)]), (1, 0))
        aut = twist(BLOCK_9, gamma)
        assert aut.cocycle_value((1, 0)) == aut.cocycle[0]
        assert aut.cocycle_value((0, 1)) == aut.cocycle[1]
        assert aut.cocycle_value((0, 0)).is_zero()

    def test_crossed_homomorphism_identity(self):
        rng = random.Random(29)
        from lamptwist.matrix import mat_vec

        gamma = GroupElement(Torsion(9, 2, [((1, 1), 2), ((0, -1), 5)]), (1, -2))
        aut = twist(BLOCK_9, gamma)
        for _ in range(80):
            z = tuple(rng.randint(-4, 4) for _ in range(2))
            w = tuple(rng.randint(-4, 4) for _ in range(2))
            zw = tuple(a + b for a, b in zip(z, w))
            assert aut.cocycle_value(zw) == aut.cocycle_value(z) + aut.cocycle_value(
                w
            ).shifted(mat_vec(aut.matrix, z))

    def test_axis_order_irrelevant(self):
        gamma = GroupElement(Torsion(9, 2, [((1, 1), 2)]), (0, 1))
        aut = twist(BLOCK_9, gamma)
        for z in [(2, 3), (-1, 4), (-3, -2), (5, 0)]:
            assert aut.cocycle_value(z) == aut.cocycle_value(z, axis_order=(1, 0))


class TestComposeInverse:
    def test_frozen_composition(self):
        sq = DOUBLING_5.compose(DOUBLING_5)
        assert sq.matrix == ((1,),)
        assert sq.origin_image == delta(5, 1, (0,), 4)

    def test_compose_matches_pointwise(self):
        rng = random.Random(31)
        gamma = GroupElement(Torsion(9, 2, [((1, 0), 3)]), (1, 1))
        a, b = twist(BLOCK_9, gamma), BLOCK_9
        comp = a.compose(b)
        for _ in range(50):
            g = random_element(rng, 9, 2)
            assert comp(g) == a(b(g))

    def test_inverse_frozen(self):
        inv = DOUBLING_5.inverse()
        assert inv.matrix == ((-1,),)
        assert inv.origin_image == delta(5, 1, (0,), 3)

    def test_inverse_roundtrip(self):
        rng = random.Random(37)
        gamma = GroupElement(Torsion(9, 2, [((0, 1), 6)]), (2, -1))
        for aut in [DOUBLING_5, BLOCK_9, twist(BLOCK_9, gamma)]:
            inv = aut.inverse()
            ident = WreathAutomorphism.identity(aut.params)
            assert aut.compose(inv) == ident
            assert inv.compose(aut) == ident
            n, k = aut.params.modulus, aut.params.rank
            for _ in range(40):
                g = random_element(rng, n, k)
                assert inv(aut(g)) == g

    def test_inner_twist_is_conjugation(self):
        rng = random.Random(43)
        gamma = GroupElement(Torsion(5, 1, [((2,), 3)]), (1,))
        tw = twist(DOUBLING_5, gamma)
        for _ in range(40):
            g = random_element(rng, 5, 1)
            assert tw(g) == gamma * DOUBLING_5(g) * gamma.inverse()

    def test_inner_frozen_cocycle(self):
        gamma = GroupElement(delta(3, 1, (0,)), (0,))
        aut = inner(gamma)
        assert aut.origin_image == delta(3, 1, (0,))
        assert aut.cocycle[0] == Torsion(3, 1, [((0,), 1), ((1,), 2)])


class TestInduce:
    def test_projects_every_component(self):
        aut = WreathAutomorphism(GroupParams(35, 1), ((-1,),), delta(35, 1, (0,), 2))
        small = aut.induce(5)
        assert small.params == GroupParams(5, 1)
        assert small.origin_image == delta(5, 1, (0,), 2)
        assert small.matrix == aut.matrix

    def test_identity_divisor_returns_self(self):
        assert DOUBLING_5.induce(5) is DOUBLING_5

    def test_commutes_with_application(self):
        from lamptwist.group import project_element

        rng = random.Random(47)
        aut = WreathAutomorphism(GroupParams(45, 2), BLOCK_9.matrix, delta(45, 2, (0, 0), 2))
        small = aut.induce(9)
        for _ in range(60):
            g = random_element(rng, 45, 2)
            assert project_element(aut(g), 9) == small(project_element(g, 9))

    def test_bad_divisor(self):
        with pytest.raises(ValueError):
            DOUBLING_5.induce(3)


class TestSerialization:
    def test_roundtrip(self):
        gamma = GroupElement(Torsion(9, 2, [((1, 1), 2)]), (1, 0))
        for aut in [DOUBLING_5, BLOCK_9, twist(BLOCK_9, gamma)]:
            assert automorphism_from_dict(automorphism_to_dict(aut)) == aut

    def test_missing_field(self):
        data = automorphism_to_dict(DOUBLING_5)
        del data["matrix"]
        with pytest.raises(ValueError):
            automorphism_from_dict(data)

    def test_wrong_schema_version(self):
        data = automorphism_to_dict(DOUBLING_5)
        data["schema"] = 99
        with pytest.raises(SchemaError):
            automorphism_from_dict(data)

    def test_cocycle_length_checked(self):
        data = automorphism_to_dict(BLOCK_9)
        data["cocycle"] = data["cocycle"][:1]
        with pytest.raises(ValueError):
            automorphism_from_dict(data)
