import random

import pytest
from hypothesis import example, given, settings, strategies as st

from lamptwist.matrix import (
    MAX_RANK,
    as_matrix,
    block_diagonal,
    det,
    identity,
    mat_mul,
    mat_sub,
    mat_vec,
    matrix_order,
    transpose,
)

import reference
from reference import inverse_unimodular, mat_pow, random_unimodular, reference_smith_normal_form

BLOCK = ((0, 1), (-1, -1))


def reference_mat_mul(a, b):
    if len(a[0]) != len(b):
        raise ValueError("inner dimensions differ")
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def snf_diagonal(b):
    _, d, _ = reference_smith_normal_form(b)
    return [d[i][i] for i in range(min(len(d), len(d[0])))]


ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**64), 2**64),
    st.integers(-(2**260), 2**260),
)


@st.composite
def product_operands(draw):
    rows, inner, cols = (draw(st.integers(1, 7)) for _ in range(3))
    a = tuple(tuple(draw(ENTRIES) for _ in range(inner)) for _ in range(rows))
    b = tuple(tuple(draw(ENTRIES) for _ in range(cols)) for _ in range(inner))
    return a, b


class TestBasics:
    def test_identity_and_mul(self):
        m = ((1, 2), (3, 4))
        assert identity(3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert mat_mul(identity(2), m) == m
        assert mat_mul(m, identity(2)) == m

    def test_mat_vec(self):
        assert mat_vec(((1, 2), (3, 4)), (1, -1)) == (-1, -1)

    def test_mat_pow_block_has_order_three(self):
        assert mat_pow(BLOCK, 2) == ((-1, -1), (1, 0))
        assert mat_pow(BLOCK, 3) == identity(2)
        assert matrix_order(BLOCK) == 3

    def test_matrix_order_cases(self):
        assert matrix_order(identity(3)) == 1
        assert matrix_order(((-1, 0), (0, -1))) == 2
        assert matrix_order(((1, 1), (0, 1))) is None

    def test_matrix_order_matches_plain_search(self):
        # the trace bound may only end the search for matrices of infinite order
        def plain_order(m):
            p = m
            for t in range(1, 129):
                if p == identity(len(m)):
                    return t
                p = mat_mul(p, m)
            return None

        rng = random.Random(61)
        finite = [BLOCK, ((1, -1), (1, 0)), ((0, 1, 0), (0, 0, 1), (-1, 0, 0))]
        cases = [random_unimodular(rng, rng.randrange(1, 5)) for _ in range(200)]
        for f in finite:
            for _ in range(20):
                u = random_unimodular(rng, len(f))
                cases.append(mat_mul(mat_mul(u, f), inverse_unimodular(u)))
        assert sum(plain_order(m) is not None for m in cases) >= 60
        for m in cases:
            assert matrix_order(m) == plain_order(m)

    def test_as_matrix_rejects_ragged(self):
        with pytest.raises(ValueError):
            as_matrix([[1, 2], [3]])

    def test_rank_bound(self):
        # every builder accepts a matrix at the bound and refuses one past it
        builders = [identity, lambda k: block_diagonal(((-1,),), k), lambda k: as_matrix([[0] * k])]
        for build in builders:
            assert len(build(MAX_RANK)[-1]) == MAX_RANK
            with pytest.raises(ValueError, match=f"rank {MAX_RANK + 1} exceeds"):
                build(MAX_RANK + 1)
        with pytest.raises(ValueError, match="exceeds"):
            as_matrix([[0]] * (MAX_RANK + 1))


class TestMatMul:
    """mat_mul against a term-by-term reference, entries up to 2**260."""

    @settings(max_examples=300, deadline=None)
    @given(product_operands())
    @example((((0,),), ((0,),)))
    @example((((-5,),), ((7,),)))
    @example((((0, 0), (0, 0), (0, 0)), ((0,), (0,))))
    @example((((-(2**200), 2**200 - 1),), ((2**201, -1, 0), (-(2**203), 3, -1))))
    def test_matches_reference(self, operands):
        a, b = operands
        assert mat_mul(a, b) == reference_mat_mul(a, b)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mat_mul(((1, 2),), ((1, 2),))
        with pytest.raises(ValueError):
            mat_mul(((1,), (2,)), ((1, 2), (3, 4)))


class TestDeterminant:
    def test_frozen_values(self):
        assert det(((1, 2), (3, 4))) == -2
        assert det(((2, 0, 1), (1, 1, 0), (0, 3, 1))) == 5
        assert det(BLOCK) == 1
        assert det(mat_sub(identity(2), BLOCK)) == 3

    def test_singular(self):
        assert det(((1, 2), (2, 4))) == 0

    def test_agrees_with_permutation_expansion(self):
        rng = random.Random(7)
        import itertools

        for _ in range(40):
            k = rng.randrange(1, 5)
            m = tuple(tuple(rng.randint(-4, 4) for _ in range(k)) for _ in range(k))
            ref = 0
            for perm in itertools.permutations(range(k)):
                sign = 1
                for i in range(k):
                    for j in range(i + 1, k):
                        if perm[i] > perm[j]:
                            sign = -sign
                prod = 1
                for i in range(k):
                    prod *= m[i][perm[i]]
                ref += sign * prod
            assert det(m) == ref


class TestInverse:
    def test_frozen(self):
        m = ((2, 1), (1, 1))
        assert inverse_unimodular(m) == ((1, -1), (-1, 2))

    def test_random_unimodular_roundtrip(self):
        rng = random.Random(11)
        for _ in range(60):
            k = rng.randrange(1, 5)
            m = random_unimodular(rng, k)
            assert det(m) in (1, -1)
            assert mat_mul(m, inverse_unimodular(m)) == identity(k)

    def test_rejects_non_unit_determinant(self):
        with pytest.raises(ValueError):
            inverse_unimodular(((2, 0), (0, 1)))


class TestSmithNormalForm:
    """The reference Smith normal form behind the test-side linear solver."""

    def test_frozen_diagonal(self):
        assert snf_diagonal(((1, -1), (1, 2))) == [1, 3]

    def test_zero_matrix(self):
        assert snf_diagonal(((0, 0), (0, 0))) == [0, 0]

    def test_shear_gives_unit_diagonal(self):
        assert snf_diagonal(((1, 5), (0, 1))) == [1, 1]

    def test_random_properties(self):
        rng = random.Random(23)
        for _ in range(80):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            b = tuple(tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows))
            u, d, v = reference_smith_normal_form(b)
            assert mat_mul(mat_mul(u, b), v) == d
            assert det(u) in (1, -1)
            assert det(v) in (1, -1)
            diag = snf_diagonal(b)
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert d[i][j] == 0
            assert all(x >= 0 for x in diag)
            for a, b2 in zip(diag, diag[1:]):
                if a:
                    assert b2 % a == 0
                else:
                    assert b2 == 0

    def test_diagonal_product_matches_determinant(self):
        rng = random.Random(31)
        for _ in range(40):
            k = rng.randrange(1, 5)
            m = tuple(tuple(rng.randint(-6, 6) for _ in range(k)) for _ in range(k))
            prod = 1
            for x in snf_diagonal(m):
                prod *= x
            assert prod == abs(det(m))

    def test_self_check_detects_corrupted_triple(self, monkeypatch):
        real = reference._as_triple

        def corrupted(u, d, v):
            u, d, v = real(u, d, v)
            flipped = [list(row) for row in u]
            flipped[0][-1] += 1
            return tuple(map(tuple, flipped)), d, v

        monkeypatch.setattr(reference, "_as_triple", corrupted)
        with pytest.raises(AssertionError, match="accumulator mismatch"):
            reference_smith_normal_form(((2, 4, 4), (-6, 6, 12), (10, 4, 16)))

    def test_transpose_consistency(self):
        m = ((2, 4, 4), (-6, 6, 12), (10, 4, 16))
        assert snf_diagonal(m) == snf_diagonal(transpose(m))
