import pytest
from hypothesis import given, settings, strategies as st

from lamptwist.group import (
    GroupElement,
    GroupParams,
    IncompatibleParams,
    Torsion,
    project_element,
    twisted_conjugate,
)


def elem(n, k, items, shift):
    return GroupElement(Torsion(n, k, items), shift)


class TestTorsionCanonicalForm:
    def test_coefficients_reduced_and_zeros_dropped(self):
        t = Torsion(3, 1, [((0,), 4), ((1,), 3), ((2,), -1)])
        assert t.items() == (((0,), 1), ((2,), 2))

    def test_duplicate_points_merge(self):
        t = Torsion(5, 1, [((0,), 2), ((0,), 4)])
        assert t.items() == (((0,), 1),)

    def test_support_sorted_lexicographically(self):
        t = Torsion(7, 2, [((1, 0), 1), ((-1, 2), 1), ((0, 5), 1)])
        assert [p for p, _ in t.items()] == [(-1, 2), (0, 5), (1, 0)]

    def test_mapping_input(self):
        t = Torsion(5, 1, {(2,): 3})
        assert t.coeff((2,)) == 3

    def test_rank_mismatch_rejected(self):
        with pytest.raises(IncompatibleParams):
            Torsion(5, 2, [((0,), 1)])

    def test_bad_modulus_rejected(self):
        with pytest.raises(ValueError):
            Torsion(1, 1)


class TestTorsionAlgebra:
    def test_add_sub_neg(self):
        a = Torsion(5, 1, [((0,), 2)])
        b = Torsion(5, 1, [((0,), 3), ((1,), 1)])
        assert (a + b).items() == (((1,), 1),)
        assert (a - b) == Torsion(5, 1, [((0,), -1), ((1,), -1)])
        assert (-(a + b)).coeff((1,)) == 4

    def test_mixed_modulus_rejected(self):
        with pytest.raises(IncompatibleParams):
            Torsion(5, 1) + Torsion(7, 1)

    def test_shift_moves_support(self):
        t = Torsion(3, 1, [((0,), 1), ((1,), 2)])
        assert t.shifted((2,)) == Torsion(3, 1, [((2,), 1), ((3,), 2)])

    def test_relabel_through_matrix(self):
        t = Torsion(5, 2, [((1, 0), 1), ((0, 1), 2)])
        swap = ((0, 1), (1, 0))
        assert t.relabeled(swap) == Torsion(5, 2, [((0, 1), 1), ((1, 0), 2)])

    def test_convolution(self):
        # (D0 + D1) * (D0 + 2 D1) = D0 + 3 D1 + 2 D2 = D0 + 2 D2 mod 3
        a = Torsion(3, 1, [((0,), 1), ((1,), 1)])
        b = Torsion(3, 1, [((0,), 1), ((1,), 2)])
        assert a.convolve(b) == Torsion(3, 1, [((0,), 1), ((2,), 2)])

    def test_convolution_identity(self):
        one = Torsion.delta(7, 2, (0, 0))
        t = Torsion(7, 2, [((1, -1), 3), ((0, 2), 5)])
        assert one.convolve(t) == t
        assert t.convolve(one) == t

    def test_projection_reduces_coefficients(self):
        t = Torsion(35, 1, [((0,), 7), ((1,), 10)])
        assert t.project(5) == Torsion(5, 1, [((0,), 2)])
        assert t.project(7) == Torsion(7, 1, [((1,), 3)])

    def test_projection_requires_divisor(self):
        with pytest.raises(ValueError):
            Torsion(10, 1).project(3)

    def test_embed_then_project_roundtrip(self):
        t = Torsion(5, 1, [((2,), 4)])
        assert t.embedded(35).project(5) == t

    def test_exact_div(self):
        t = Torsion(45, 1, [((0,), 9), ((1,), 18)])
        assert t.exact_div(9) == Torsion(45, 1, [((0,), 1), ((1,), 2)])
        with pytest.raises(ValueError):
            t.exact_div(4)

    def test_render(self):
        assert Torsion.zero(5, 2).render() == "0"
        t = Torsion(5, 2, [((1, -2), 3), ((-1, 0), 1)])
        assert t.render() == "1*D[-1,0] + 3*D[1,-2]"


class TestGroupLaw:
    def test_frozen_product(self):
        # (D0 ; 1) * (2 D0 ; -1) = (D0 + 2 D1 ; 0)
        a = elem(3, 1, [((0,), 1)], (1,))
        b = elem(3, 1, [((0,), 2)], (-1,))
        assert a * b == elem(3, 1, [((0,), 1), ((1,), 2)], (0,))

    def test_noncommutative(self):
        a = elem(3, 1, [((0,), 1)], (1,))
        b = elem(3, 1, [((0,), 2)], (-1,))
        assert b * a == elem(3, 1, [((-1,), 1), ((0,), 2)], (0,))
        assert a * b != b * a

    def test_frozen_inverse(self):
        a = elem(3, 1, [((0,), 1)], (1,))
        assert a.inverse() == elem(3, 1, [((-1,), 2)], (-1,))

    def test_identity(self):
        e = GroupElement.identity(GroupParams(3, 2))
        g = elem(3, 2, [((1, 1), 2)], (4, -1))
        assert e * g == g
        assert g * e == g

    def test_render(self):
        g = elem(3, 1, [((0,), 1), ((1,), 2)], (0,))
        assert g.render() == "(1*D[0] + 2*D[1] ; 0)"

    def test_project_element_keeps_shift(self):
        g = elem(35, 1, [((0,), 7)], (3,))
        assert project_element(g, 7) == elem(7, 1, [], (3,))

    def test_twisted_conjugate_with_identity_is_conjugation(self):
        g = elem(3, 1, [((0,), 1)], (1,))
        h = elem(3, 1, [((1,), 2)], (-1,))
        assert twisted_conjugate(h, g, lambda x: x) == h * g * h.inverse()


points = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
torsions = st.builds(
    lambda items: Torsion(6, 2, items),
    st.lists(st.tuples(points, st.integers(-10, 10)), max_size=4),
)
elements = st.builds(GroupElement, torsions, points)


@settings(max_examples=150, deadline=None)
@given(elements, elements, elements)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=150, deadline=None)
@given(elements)
def test_inverse_cancels(g):
    e = GroupElement.identity(GroupParams(6, 2))
    assert g * g.inverse() == e
    assert g.inverse() * g == e


@settings(max_examples=150, deadline=None)
@given(elements, elements)
def test_projection_is_homomorphism(a, b):
    assert project_element(a * b, 3) == project_element(a, 3) * project_element(b, 3)


@settings(max_examples=150, deadline=None)
@given(torsions, torsions)
def test_shift_action_distributes(a, b):
    z = (2, -1)
    assert (a + b).shifted(z) == a.shifted(z) + b.shifted(z)
    assert a.convolve(b).shifted(z) == a.shifted(z).convolve(b)
