import random

import pytest
from hypothesis import example, given, settings, strategies as st

import lamptwist.matrix as matrix_module
from lamptwist.matrix import (
    as_matrix,
    det,
    identity,
    inverse_unimodular,
    is_unimodular,
    mat_mul,
    mat_pow,
    mat_sub,
    mat_vec,
    matrix_order,
    random_unimodular,
    smith_normal_form,
    transpose,
)

BLOCK = ((0, 1), (-1, -1))


# -- references: the former implementations, one Python step per term ----------


def reference_mat_mul(a, b):
    if len(a[0]) != len(b):
        raise ValueError("inner dimensions differ")
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def reference_smith_normal_form(b):
    """The former elimination, step for step: full scans, V updated column-wise.

    Its U b V = D self-check is left out; every triple it is compared with
    comes from `smith_normal_form`, which runs that check itself.
    """
    b = as_matrix(b)
    m, n = len(b), len(b[0])
    a = [list(row) for row in b]
    u = [list(row) for row in identity(m)]
    v = [list(row) for row in identity(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def add_row(i, j, q):
        for c in range(n):
            a[i][c] += q * a[j][c]
        for c in range(m):
            u[i][c] += q * u[j][c]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_col(i, j, q):
        for row in a:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        return best

    for t in range(min(m, n)):
        while True:
            piv = find_pivot(t)
            if piv is None:
                break
            _, pi, pj = piv
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            stray = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        stray = i
                        break
                if stray is not None:
                    break
            if stray is None:
                break
            add_row(t, stray, 1)
        if t < m and t < n and a[t][t] < 0:
            negate_row(t)

    return (
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in a),
        tuple(tuple(row) for row in v),
    )


def assert_same_as_reference(b):
    triple = smith_normal_form(b)
    assert (triple.u, triple.d, triple.v) == reference_smith_normal_form(b)


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

    def test_as_matrix_rejects_ragged(self):
        with pytest.raises(ValueError):
            as_matrix([[1, 2], [3]])


class TestPackedProduct:
    @settings(max_examples=300, deadline=None)
    @given(product_operands())
    @example((((0,),), ((0,),)))
    @example((((-5,),), ((7,),)))
    @example((((0, 0), (0, 0), (0, 0)), ((0,), (0,))))
    @example((((-(2**200), 2**200 - 1),), ((2**201, -1, 0), (-(2**203), 3, -1))))
    def test_matches_reference(self, operands):
        a, b = operands
        assert mat_mul(a, b) == reference_mat_mul(a, b)

    def test_slot_boundary(self):
        # every product entry at the extreme of its slot, both signs
        for x in (1, 7, 2**64 - 1, 2**200):
            for size in (1, 2, 5):
                a = ((x,) * size, (-x,) * size)
                b = tuple((x, -x, 0) for _ in range(size))
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
            assert is_unimodular(m)
            assert mat_mul(m, inverse_unimodular(m)) == identity(k)

    def test_rejects_non_unit_determinant(self):
        with pytest.raises(ValueError):
            inverse_unimodular(((2, 0), (0, 1)))


class TestSmithNormalForm:
    def test_frozen_diagonal(self):
        triple = smith_normal_form(((1, -1), (1, 2)))
        assert triple.diagonal() == [1, 3]

    def test_zero_matrix(self):
        triple = smith_normal_form(((0, 0), (0, 0)))
        assert triple.diagonal() == [0, 0]

    def test_shear_gives_unit_diagonal(self):
        triple = smith_normal_form(((1, 5), (0, 1)))
        assert triple.diagonal() == [1, 1]

    def test_random_properties(self):
        rng = random.Random(23)
        for _ in range(80):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            b = tuple(tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows))
            triple = smith_normal_form(b)
            assert mat_mul(mat_mul(triple.u, b), triple.v) == triple.d
            assert is_unimodular(triple.u)
            assert is_unimodular(triple.v)
            diag = triple.diagonal()
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert triple.d[i][j] == 0
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
            diag = smith_normal_form(m).diagonal()
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(det(m))

    def test_same_triple_as_reference_on_random_matrices(self):
        rng = random.Random(41)
        for _ in range(150):
            rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
            density = rng.random()
            b = tuple(
                tuple(rng.randint(-12, 12) if rng.random() < density else 0 for _ in range(cols))
                for _ in range(rows)
            )
            assert_same_as_reference(b)

    def test_same_triple_as_reference_on_box_solver_systems(self, box_solver_systems):
        # every matrix the box solver passes to solve_linear on one block of a
        # seeded verdict corpus, refuted mod p or not
        matrices = [a for a, _, _ in box_solver_systems]
        assert (107, 56) in {(len(a), len(a[0])) for a in matrices}
        for a in matrices:
            assert_same_as_reference(a)

    def test_self_check_detects_corrupted_triple(self, monkeypatch):
        real = matrix_module.SnfTriple

        def corrupted(u, d, v):
            flipped = [list(row) for row in u]
            flipped[0][-1] += 1
            return real(tuple(map(tuple, flipped)), d, v)

        monkeypatch.setattr(matrix_module, "SnfTriple", corrupted)
        with pytest.raises(AssertionError, match="accumulator mismatch"):
            smith_normal_form(((2, 4, 4), (-6, 6, 12), (10, 4, 16)))

    def test_transpose_consistency(self):
        m = ((2, 4, 4), (-6, 6, 12), (10, 4, 16))
        assert smith_normal_form(m).diagonal() == smith_normal_form(transpose(m)).diagonal()
