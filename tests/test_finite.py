import random
import tracemalloc
from math import gcd

import numpy as np
import pytest

import lamptwist.cli as cli
import lamptwist.finite as finite
from lamptwist.group import GroupElement, GroupParams, Torsion
from lamptwist.automorphism import InvalidAutomorphism, WreathAutomorphism
from lamptwist.reidemeister import finite_reidemeister_automorphism
from lamptwist.finite import (
    BudgetExceeded,
    DescentError,
    FiniteAutomorphism,
    FiniteWreathGroup,
    OracleCheck,
    TwistedClassPartition,
    descend_automorphism,
    fixed_conjugacy_classes,
    projection_index_map,
    twisted_classes,
    verify_projection,
    verify_restriction_bound,
    verify_shift_invariance,
    verify_tbft_finite,
    zero_cocycle_automorphisms,
)
from lamptwist.matrix import identity as identity_matrix, mat_vec
from reference import (
    TableAutomorphism,
    central_cosets,
    decode,
    element_to_group,
    encode,
    group_to_index,
    identity_descent,
    inner_twists,
    inverse,
    multiply,
    orbit_minima_unionfind,
    point_index,
    project_element,
    twist,
    twisted_by,
    twisted_classes_unionfind,
    whole_table_descent,
    zero_cocycle_catalog,
)

# the acceptance gate's FINITE_MODELS plus (2, 2, 2)
REFERENCE_MODELS = ((3, 2, 1), (5, 2, 1), (3, 3, 1), (5, 4, 1), (3, 2, 2), (2, 2, 2))
BATCH_MODELS = ((3, 2, 1), (2, 2, 2), (3, 2, 2))


def reference_cayley(group):
    """Cayley table and inverse array of a small model, built over all pairs.

    An O(|G|^2) construction that shares no code with `translations`, kept as
    a reference for the class counts.
    """
    n, pcount, tcount = group.modulus, group.point_count, group.torsion_count
    d = np.arange(tcount, dtype=np.int64)
    digits = np.empty((tcount, pcount), dtype=np.int64)
    for i in range(pcount):
        digits[:, i] = d % n
        d = d // n
    wt = n ** np.arange(pcount, dtype=np.int64)
    perms = np.array(
        [[point_index(group, np.add(p, s).tolist()) for p in group.points] for s in group.points]
    )
    tshift = (digits @ wt[perms].T).T.copy()
    tadd = ((digits[:, None, :] + digits[None, :, :]) % n) @ wt
    tneg = ((n - digits) % n) @ wt
    sneg = np.array([point_index(group, [-a for a in p]) for p in group.points])
    ti = np.arange(group.order, dtype=np.int64) // pcount
    si = np.arange(group.order, dtype=np.int64) % pcount
    cayley = (
        tadd[ti[:, None], tshift[si[:, None], ti[None, :]]] * pcount
        + perms[si[:, None], si[None, :]]
    )
    inverses = tneg[tshift[sneg[si], ti]] * pcount + sneg[si]
    return cayley.astype(np.int32), inverses.astype(np.int32)


def all_h_classes(cayley, inverses, aut):
    """Twisted classes as per-element minima over the image table of every h."""
    images = cayley[cayley, aut.at(inverses)[:, None]]  # images[h, g] = (h g) aut(h^-1)
    minima = images.min(axis=0)
    reps = np.unique(minima)
    return TwistedClassPartition(minima, reps, len(reps))


def same_partition(a, b):
    """Equal labels, equal reps and equal counts."""
    return (
        np.array_equal(a.labels, b.labels)
        and np.array_equal(a.reps, b.reps)
        and a.count == b.count
    )


def python_descent_table(aut, group):
    """Image table of a descended automorphism, one element at a time.

    The elementwise loop that served as the descent for large models before
    the vectorized path, kept as a reference: each lamp digit maps through the
    reduced image of its point, then the cocycle correction and the reduced
    shift are applied.
    """
    n, pcount = group.modulus, group.point_count

    def reduce_vec(t):
        vec = [0] * pcount
        for p, c in t.items():
            idx = point_index(group, p)
            vec[idx] = (vec[idx] + c) % n
        return vec

    u_rows = [reduce_vec(aut.origin_image.shifted(mat_vec(aut.matrix, p))) for p in group.points]
    corr = [reduce_vec(aut.cocycle_value(p)) for p in group.points]
    shift_map = [point_index(group, mat_vec(aut.matrix, p)) for p in group.points]
    table = np.empty(group.order, dtype=np.int32)
    for idx in range(group.order):
        coeffs, shift = decode(group, idx)
        out = [0] * pcount
        for slot, c in enumerate(coeffs):
            if c:
                row = u_rows[slot]
                for tgt in range(pcount):
                    out[tgt] = (out[tgt] + c * row[tgt]) % n
        s = point_index(group, shift)
        out = [(a + b) % n for a, b in zip(out, corr[s])]
        table[idx] = encode(group, out, group.points[shift_map[s]])
    return table


class TestGroupModel:
    def test_order(self):
        g = FiniteWreathGroup(3, 2, 1)
        assert g.order == 3**2 * 2 == 18
        assert FiniteWreathGroup(5, 2, 2).order == 5**4 * 4

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            FiniteWreathGroup(5, 4, 2)  # 5^16 torsion configurations
        with pytest.raises(BudgetExceeded):
            FiniteWreathGroup(2, 9, 2)  # 81 box points
        assert FiniteWreathGroup(5, 4, 2, budget=10**13).order == 5**16 * 16

    def test_reference_decode_matches_digit_tables(self):
        # the reference's elementwise encoding against the model's digit tables
        g = FiniteWreathGroup(3, 2, 2)
        digits = g.ensure_tables()["digits"]
        for idx in range(g.order):
            coeffs, shift = decode(g, idx)
            assert coeffs == tuple(digits[idx // g.point_count])
            assert shift == g.points[idx % g.point_count]
            assert encode(g, coeffs, shift) == idx

    def test_identity(self):
        g = FiniteWreathGroup(3, 2, 1)
        coeffs, shift = decode(g, g.identity)
        assert not any(coeffs) and shift == (0,)

    @pytest.mark.parametrize(
        "model, expected",
        [((5, 4, 1), [4, 1]), ((3, 2, 2), [4, 2, 1]), ((2, 3, 2), [9, 3, 1]), ((3, 1, 2), [1])],
        ids=["5-4-1", "3-2-2", "2-3-2", "3-1-2-torsion-only"],
    )
    def test_generators(self, model, expected):
        # the origin torsion generator (index m^k), then e_1, ..., e_k; with m = 1
        # every shift is trivial and the torsion generator alone generates
        assert FiniteWreathGroup(*model).generators() == expected

    @pytest.mark.parametrize(
        "model", [*REFERENCE_MODELS, (3, 1, 2)], ids="{0[0]}-{0[1]}-{0[2]}".format
    )
    def test_inverses_match_reference(self, model):
        g = FiniteWreathGroup(*model)
        fast = g.inverses(range(g.order))
        assert fast.tolist() == [inverse(g, i) for i in range(g.order)]

    def test_multiply_matches_infinite_group(self):
        rng = random.Random(61)
        g = FiniteWreathGroup(3, 2, 2)
        for _ in range(150):
            i, j = rng.randrange(g.order), rng.randrange(g.order)
            bridged = element_to_group(g, i) * element_to_group(g, j)
            assert multiply(g, i, j) == group_to_index(g, bridged)

    def test_inverse_matches_infinite_group(self):
        rng = random.Random(67)
        g = FiniteWreathGroup(5, 3, 1)
        for _ in range(150):
            i = rng.randrange(g.order)
            assert inverse(g, i) == group_to_index(g, element_to_group(g, i).inverse())
            assert multiply(g, i, inverse(g, i)) == g.identity

    def test_tables_agree_with_fallback(self):
        # the vectorized translations against the elementwise group law
        rng = random.Random(71)
        for model in ((5, 2, 1), (3, 2, 2), (2, 3, 2)):
            g = FiniteWreathGroup(*model)
            for _ in range(20):
                a, b = rng.randrange(g.order), rng.randrange(g.order)
                left, right, both = g.translations([(a, g.identity), (g.identity, b), (a, b)])
                for x in rng.sample(range(g.order), 30):
                    assert left[x] == multiply(g, a, x)
                    assert right[x] == multiply(g, x, b)
                    assert both[x] == multiply(g, multiply(g, a, x), b)

    @pytest.mark.parametrize("model", [(3, 1, 2), (2, 3, 1), (3, 2, 2), (2, 3, 2)])
    def test_translations_over_every_element(self, model):
        # m = 1 leaves the low half of the digits empty; the other models have
        # an odd point count or halves of unequal length
        rng = random.Random(73)
        g = FiniteWreathGroup(*model)
        x = np.arange(g.order)
        for _ in range(3):
            pairs = [(rng.randrange(g.order), rng.randrange(g.order)) for _ in range(4)]
            pairs += [(pairs[0][0], g.identity), (g.identity, pairs[1][1])]
            rows = g.translations(pairs)
            assert rows.shape == (len(pairs), g.order) and rows.dtype == np.int64
            for (a, b), row in zip(pairs, rows):
                expected = g.products(g.products(np.full(g.order, a), x), np.full(g.order, b))
                assert np.array_equal(row, expected)

    @pytest.mark.parametrize("model", [(5, 2, 1), (3, 2, 2), (2, 3, 2), (3, 1, 2)])
    def test_products_match_reference(self, model):
        rng = random.Random(59)
        g = FiniteWreathGroup(*model)
        a, b = ([rng.randrange(g.order) for _ in range(80)] for _ in range(2))
        assert g.products(a, b).tolist() == [multiply(g, x, y) for x, y in zip(a, b)]

    def test_no_table_cap(self):
        g = FiniteWreathGroup(7, 2, 2)  # order 9604: class counts need no multiplication table
        assert g.order == 9604
        f = descend_automorphism(finite_reidemeister_automorphism(7, 2), g)
        part = twisted_classes(f)
        assert part.count == 4
        chk = verify_tbft_finite(f, part, twisted_classes(identity_descent(g)))
        assert chk.passed and chk.lhs == 4, chk.line()
        assert sum(a.nbytes for a in g.ensure_tables().values()) < 1 << 20


class TestFiniteAutomorphism:
    def test_identity(self):
        # the identity table passes the whole-table check and equals the identity's descent
        g = FiniteWreathGroup(3, 2, 1)
        ident = TableAutomorphism(g, np.arange(g.order), provenance="identity")
        assert ident.at(7) == 7 and ident == identity_descent(g)

    def test_rejects_non_bijection(self):
        g = FiniteWreathGroup(3, 2, 1)
        with pytest.raises(InvalidAutomorphism):
            TableAutomorphism(g, np.zeros(g.order, dtype=np.int32))

    @pytest.mark.parametrize("entry", ["minus-one", "order", "duplicate"])
    def test_out_of_range_or_repeated_entry_is_not_a_bijection(self, entry):
        # refused as InvalidAutomorphism, never as an IndexError or bincount's ValueError
        g = FiniteWreathGroup(3, 2, 1)
        table = np.arange(g.order, dtype=np.int32)
        table[7] = {"minus-one": -1, "order": g.order, "duplicate": 3}[entry]
        with pytest.raises(InvalidAutomorphism) as info:
            TableAutomorphism(g, table, provenance="bent")
        assert type(info.value) is InvalidAutomorphism
        assert str(info.value) == "bent is not a bijection"

    def test_rejects_non_homomorphism(self):
        g = FiniteWreathGroup(3, 2, 1)
        table = np.roll(np.arange(g.order, dtype=np.int32), 1)
        with pytest.raises(InvalidAutomorphism):
            TableAutomorphism(g, table)

    def test_non_homomorphism_names_first_failing_generator(self):
        # swap two cosets of <t>, t the origin generator, so the map is
        # multiplicative at t and fails at both shift generators; the message
        # names the first of them in generators() order
        g = FiniteWreathGroup(2, 2, 2)
        gens = g.generators()
        t = gens[0]
        a, b = 5, 9
        coset_a, coset_b = [a, multiply(g, a, t)], [b, multiply(g, b, t)]
        assert not {*coset_a, *coset_b} & {g.identity, t} and not set(coset_a) & set(coset_b)
        table = np.arange(g.order, dtype=np.int32)
        table[coset_a + coset_b] = coset_b + coset_a
        failing = [
            s
            for s in gens
            if any(table[multiply(g, x, s)] != multiply(g, table[x], table[s]) for x in range(g.order))
        ]
        assert failing == gens[1:]
        with pytest.raises(InvalidAutomorphism) as info:
            TableAutomorphism(g, table, provenance="swapped")
        assert str(info.value) == f"swapped is not multiplicative at generator {failing[0]}"

    def test_twisted_by_is_conjugation(self):
        g = FiniteWreathGroup(5, 2, 1)
        f = descend_automorphism(finite_reidemeister_automorphism(5, 1), g)
        rng = random.Random(73)
        for _ in range(40):
            a = rng.randrange(g.order)
            x = rng.randrange(g.order)
            tw = twisted_by(f, a)
            assert tw.at(x) == multiply(g, multiply(g, a, f.at(x)), inverse(g, a))

    def test_rejects_swap_of_two_non_generators(self):
        # agrees with an automorphism on the generators and everywhere but two
        # elements, so only a check over every x can catch it
        g = FiniteWreathGroup(3, 6, 1)
        assert g.order == 4374
        f = zero_cocycle_catalog(g)[1]
        x, y = 1000, 3001
        assert not {x, y} & set(g.generators() + [g.identity])
        table = f.at(np.arange(g.order))
        table[[x, y]] = table[[y, x]]
        with pytest.raises(InvalidAutomorphism):
            TableAutomorphism(g, table)

    def test_shift_map(self):
        g = FiniteWreathGroup(5, 4, 1)
        f = descend_automorphism(finite_reidemeister_automorphism(5, 1), g)
        assert list(f.shift) == [0, 3, 2, 1]  # negation mod 4


class TestDescend:
    def test_identity_descends_to_identity(self):
        g = FiniteWreathGroup(3, 2, 2)
        f = descend_automorphism(WreathAutomorphism.identity(GroupParams(3, 2)), g)
        assert np.array_equal(f.at(np.arange(g.order)), np.arange(g.order))

    def test_invalid_automorphism_rejected(self):
        g = FiniteWreathGroup(5, 2, 1)
        bad = WreathAutomorphism(GroupParams(5, 1), ((2,),), Torsion.delta(5, 1, (0,), 2))
        with pytest.raises(InvalidAutomorphism):
            descend_automorphism(bad, g)

    def test_parameter_mismatch_rejected(self):
        g = FiniteWreathGroup(5, 2, 1)
        with pytest.raises(ValueError):
            descend_automorphism(finite_reidemeister_automorphism(7, 1), g)

    def test_cocycle_obstruction(self):
        g = FiniteWreathGroup(3, 2, 1)
        aut = WreathAutomorphism(
            GroupParams(3, 1),
            ((1,),),
            Torsion.delta(3, 1, (0,)),
            [Torsion.delta(3, 1, (0,))],
        )
        assert aut.validate().ok
        with pytest.raises(DescentError):
            descend_automorphism(aut, g)

    def test_vanishing_obstruction_descends(self):
        # coboundary cocycles always satisfy the box-period sum condition
        from lamptwist.group import GroupElement

        g = FiniteWreathGroup(3, 2, 1)
        gamma = GroupElement(Torsion(3, 1, [((0,), 1), ((1,), 2)]), (1,))
        aut = twist(WreathAutomorphism.identity(GroupParams(3, 1)), gamma)
        f = descend_automorphism(aut, g)
        # inner automorphisms never change class counts
        assert twisted_classes(f).count == twisted_classes(identity_descent(g)).count

    def test_matches_pointwise_application(self):
        g = FiniteWreathGroup(5, 2, 1)
        aut = finite_reidemeister_automorphism(5, 1)
        f = descend_automorphism(aut, g)
        for idx in range(g.order):
            image = aut(element_to_group(g, idx))
            assert f.at(idx) == group_to_index(g, image)
        # a larger model, on sampled elements
        rng = random.Random(83)
        g = FiniteWreathGroup(7, 2, 2)
        aut = finite_reidemeister_automorphism(7, 2)
        f = descend_automorphism(aut, g)
        for idx in rng.sample(range(g.order), 300):
            assert f.at(idx) == group_to_index(g, aut(element_to_group(g, idx)))

    def test_python_fallback_matches_vectorized(self):
        cases = [
            ((5, 2, 1), finite_reidemeister_automorphism(5, 1)),
            ((7, 2, 2), finite_reidemeister_automorphism(7, 2)),  # above the former table cap
        ]
        # seeded inner twists of maps with M != I: nonzero cocycles, whose box
        # values the reference expands with `cocycle_value` at every point
        rng = random.Random(4127)
        for (n, m, k), matrix in (
            ((5, 2, 1), ((-1,),)),
            ((7, 3, 1), ((-1,),)),
            ((3, 4, 1), ((-1,),)),
            ((3, 2, 2), ((1, 1), (0, 1))),
            ((2, 3, 2), ((0, 1), (1, 0))),
        ):
            units = [c for c in range(1, n) if gcd(c, n) == 1]
            unit = Torsion.delta(n, k, [rng.randrange(-2, 3) for _ in range(k)], rng.choice(units))
            sigma = Torsion(n, k, [([rng.randrange(-3, 4) for _ in range(k)], 1) for _ in range(3)])
            gamma = GroupElement(sigma, [rng.randrange(-3, 4) for _ in range(k)])
            aut = twist(WreathAutomorphism(GroupParams(n, k), matrix, unit), gamma)
            assert aut.matrix != identity_matrix(k) and any(not c.is_zero() for c in aut.cocycle)
            cases.append(((n, m, k), aut))
        for model, aut in cases:
            g = FiniteWreathGroup(*model)
            fast = descend_automorphism(aut, g).at(np.arange(g.order))
            assert np.array_equal(python_descent_table(aut, g), fast)

    def test_cocycle_obstruction_names_its_axis(self, monkeypatch):
        # every consistent cocycle of rank 2 is a coboundary sigma - shift(M z) sigma,
        # whose box sums vanish, so the axis is checked on a cocycle kept from
        # validation: c = D[0,0] - D[1,0] on both axes sums to zero along axis 0
        # but not along axis 1
        n = 3
        c = Torsion(n, 2, [((0, 0), 1), ((1, 0), -1)])
        origin = Torsion.delta(n, 2, (0, 0))
        aut = WreathAutomorphism(GroupParams(n, 2), ((1, 0), (0, 1)), origin, [c, c])
        assert not aut.validate().ok
        monkeypatch.setattr(WreathAutomorphism, "_require_valid", lambda self: None)
        with pytest.raises(DescentError, match="^cocycle obstruction on axis 1 does not vanish"):
            descend_automorphism(aut, FiniteWreathGroup(n, 2, 2))


# every model of the exactness test: the oracle's CLI and CI models and the battery's
FORMULA_MODELS = (
    (3, 2, 1), (3, 2, 2), (5, 2, 1), (9, 2, 1), (25, 2, 1),
    (5, 4, 1), (7, 3, 1), (3, 1, 2), (2, 3, 2),
)


def seeded_sources(rng, n, m, k, count):
    """Inner twists of catalog entries by seeded elements: nonzero cocycles, all descending."""
    catalog = zero_cocycle_automorphisms(n, k, m)
    out = []
    for _ in range(count):
        sigma = Torsion(n, k, [([rng.randrange(-3, 4) for _ in range(k)], 1) for _ in range(3)])
        gamma = GroupElement(sigma, [rng.randrange(-3, 4) for _ in range(k)])
        out.append(twist(rng.choice(catalog), gamma))
    return out


def refusal(build):
    """The message of the InvalidAutomorphism that `build()` raises, or None."""
    try:
        build()
    except InvalidAutomorphism as exc:
        return str(exc)
    return None


def guard_and_table_refusals(monkeypatch, group, u_rows, corr, shift):
    """How the formula's guard and the whole-table check each judge one formula.

    The table is the one `at` evaluates, built with the guard switched off.
    """
    with monkeypatch.context() as patch:
        patch.setattr(FiniteAutomorphism, "_guard", lambda self: None)
        table = FiniteAutomorphism(group, u_rows, corr, shift, "bent").at(np.arange(group.order))
    guard = refusal(lambda: FiniteAutomorphism(group, u_rows, corr, shift, "bent"))
    return guard, refusal(lambda: TableAutomorphism(group, table, provenance="bent"))


class TestFormulaDescent:
    @pytest.mark.parametrize("model", FORMULA_MODELS, ids="{0[0]}-{0[1]}-{0[2]}".format)
    def test_at_matches_whole_table_descent(self, model):
        n, m, k = model
        g = FiniteWreathGroup(*model)
        rng = random.Random(n * m + k)
        sources = zero_cocycle_automorphisms(n, k, m) + seeded_sources(rng, *model, 4)
        assert any(not c.is_zero() for aut in sources for c in aut.cocycle)
        inverse_gens = g.ensure_tables()["inverse_gens"]
        for aut in sources:
            fin = descend_automorphism(aut, g)
            whole = fin.at(np.arange(g.order))
            assert np.array_equal(whole, whole_table_descent(aut, g))
            checked = TableAutomorphism(g, whole)  # passes the whole-table check
            assert fin == checked and fin.images == tuple(whole[inverse_gens].tolist())

    def test_guard_refuses_exactly_as_the_table_check(self, monkeypatch):
        # one-entry corruptions of U or corr: refused with the table check's
        # message, and accepted exactly when the table check accepts
        rng = random.Random(4729)
        outcomes = []
        for model in ((3, 2, 1), (5, 2, 1), (9, 2, 1), (3, 2, 2), (2, 2, 2), (3, 1, 2), (7, 3, 1)):
            n, m, k = model
            g = FiniteWreathGroup(*model)
            sources = zero_cocycle_automorphisms(n, k, m) + seeded_sources(rng, *model, 4)
            for _ in range(40):
                fin = descend_automorphism(rng.choice(sources), g)
                u_rows, corr = fin.u_rows.copy(), fin.corr.copy()
                bent = rng.choice([u_rows, corr])
                p, j = rng.randrange(g.point_count), rng.randrange(g.point_count)
                bent[p, j] = (bent[p, j] + rng.randrange(1, n)) % n
                guard, table = guard_and_table_refusals(monkeypatch, g, u_rows, corr, fin.shift)
                assert guard == table
                outcomes.append(table and table.split(" at ")[0])
        assert len(outcomes) >= 200
        assert set(outcomes) == {None, "bent is not a bijection", "bent is not multiplicative"}

    def test_guard_refuses_a_non_permuting_shift_map(self, monkeypatch):
        g = FiniteWreathGroup(3, 2, 1)
        fin = descend_automorphism(WreathAutomorphism.identity(GroupParams(3, 1)), g)
        shift = np.zeros(2, dtype=np.int64)
        refusals = guard_and_table_refusals(monkeypatch, g, fin.u_rows, fin.corr, shift)
        assert refusals == ("bent is not a bijection",) * 2

    def test_guard_refuses_u_singular_mod_p(self, monkeypatch):
        # 3 U keeps every identity, so the map is an endomorphism, but det U is
        # divisible by 3, a prime factor of 9
        g = FiniteWreathGroup(9, 2, 1)
        fin = descend_automorphism(zero_cocycle_automorphisms(9, 1, 2)[-1], g)
        u_rows = 3 * fin.u_rows % 9
        refusals = guard_and_table_refusals(monkeypatch, g, u_rows, fin.corr, fin.shift)
        assert refusals == ("bent is not a bijection",) * 2

    def test_guard_refuses_a_failed_equivariance(self, monkeypatch):
        # U = [[1, 0], [1, 1]] is invertible, but U e_1 is not the translate of U e_0
        g = FiniteWreathGroup(3, 2, 1)
        fin = descend_automorphism(WreathAutomorphism.identity(GroupParams(3, 1)), g)
        u_rows = np.array([[1, 0], [1, 1]], dtype=np.int64)
        refusals = guard_and_table_refusals(monkeypatch, g, u_rows, fin.corr, fin.shift)
        assert refusals == (f"bent is not multiplicative at generator {g.generators()[0]}",) * 2

    def test_guard_refuses_a_failed_crossed_homomorphism(self, monkeypatch):
        # corr[1] = e_0 fails corr[1 + 1] = corr[1] + 1 . corr[1] at the wrap-around
        g = FiniteWreathGroup(3, 2, 1)
        fin = descend_automorphism(WreathAutomorphism.identity(GroupParams(3, 1)), g)
        corr = np.array([[0, 0], [1, 0]], dtype=np.int64)
        refusals = guard_and_table_refusals(monkeypatch, g, fin.u_rows, corr, fin.shift)
        assert refusals == (f"bent is not multiplicative at generator {g.generators()[1]}",) * 2
        # a coboundary, corr[1] = e_0 - e_1, passes both
        corr[1] = [1, 2]
        assert guard_and_table_refusals(monkeypatch, g, fin.u_rows, corr, fin.shift) == (None, None)

    def test_guard_refuses_a_non_additive_shift_map(self, monkeypatch):
        # S swaps the points 2 and 3 of Z/4 and U permutes the slots alike, so
        # the map is multiplicative at the lamp generator but not at the shift
        g = FiniteWreathGroup(3, 4, 1)
        shift = np.array([0, 1, 3, 2], dtype=np.int64)
        u_rows = np.eye(4, dtype=np.int64)[shift]
        corr = np.zeros((4, 4), dtype=np.int64)
        refusals = guard_and_table_refusals(monkeypatch, g, u_rows, corr, shift)
        assert refusals == (f"bent is not multiplicative at generator {g.generators()[1]}",) * 2


def spy_at_sizes(monkeypatch):
    """Record each call of `FiniteAutomorphism.at` as (model order, argument size)."""
    calls = []
    real = FiniteAutomorphism.at

    def spy(self, indices):
        calls.append((self.group.order, np.size(indices)))
        return real(self, indices)

    monkeypatch.setattr(FiniteAutomorphism, "at", spy)
    return calls


class TestDescentWork:
    def test_descent_allocates_under_a_megabyte(self):
        # M = [[-1]], u = 2 D[3] on the order-590490 model, whose int32 table
        # alone would take 2.4 MB
        g = FiniteWreathGroup(3, 10, 1)
        assert g.order == 590490
        aut = WreathAutomorphism(GroupParams(3, 1), ((-1,),), Torsion.delta(3, 1, (3,), 2))
        g.ensure_tables()
        tracemalloc.start()
        try:
            fin = descend_automorphism(aut, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_only_projection_builds_whole_tables(self, monkeypatch):
        # no check but projection evaluates a formula on as many elements as its model has
        calls = spy_at_sizes(monkeypatch)
        aut = WreathAutomorphism(GroupParams(3, 1), ((-1,),), Torsion.delta(3, 1, (3,), 2))
        runs = [
            (FiniteWreathGroup(3, 10, 1), [aut], ["tbft"]),
            (FiniteWreathGroup(3, 10, 1), [aut], ["tbft", "restriction"]),
            (FiniteWreathGroup(5, 4, 1), zero_cocycle_automorphisms(5, 1, 4), ["tbft"]),
            (FiniteWreathGroup(3, 2, 2), zero_cocycle_automorphisms(3, 2, 2), ["tbft", "shift"]),
        ]
        for group, sources, checks in runs:
            results = list(finite.run_checks(group, sources, checks))
            assert results and all(r.passed for r in results)
        assert calls and all(size < order for order, size in calls)
        calls.clear()
        aut = WreathAutomorphism(GroupParams(9, 1), ((-1,),), Torsion.delta(9, 1, (1,), 2))
        results = list(finite.run_checks(FiniteWreathGroup(9, 2, 1), [aut], ["projection"], 3))
        assert all(r.passed for r in results)
        # the diagram evaluates the small model's formula at pi(x), then the big one's, for all x
        assert [call for call in calls if call[1] >= call[0]] == [(18, 162), (162, 162)]


class TestTwistedClasses:
    def test_conjugacy_frozen(self):
        # Z_3 wr Z/2: torsion pairs split into 6 classes, the 9 swap-side
        # elements into 3 classes by coefficient sum
        g = FiniteWreathGroup(3, 2, 1)
        assert twisted_classes(identity_descent(g)).count == 9

    def test_matches_unionfind(self):
        g = FiniteWreathGroup(3, 2, 1)
        for f in zero_cocycle_catalog(g):
            fast = twisted_classes(f)
            slow = twisted_classes_unionfind(g, f)
            assert same_partition(fast, slow)

    def test_matches_unionfind_rank_two(self):
        g = FiniteWreathGroup(2, 2, 2)
        f = zero_cocycle_catalog(g)[-1]
        assert np.array_equal(twisted_classes(f).labels, twisted_classes_unionfind(g, f).labels)

    @pytest.mark.parametrize("model", REFERENCE_MODELS, ids="{0[0]}-{0[1]}-{0[2]}".format)
    def test_matches_references(self, model):
        g = FiniteWreathGroup(*model)
        cayley, inverses = reference_cayley(g)
        rng = random.Random(89)
        for _ in range(50):
            a, b = rng.randrange(g.order), rng.randrange(g.order)
            assert cayley[a, b] == multiply(g, a, b) and inverses[a] == inverse(g, a)
        catalog = zero_cocycle_catalog(g)
        twists = [twisted_by(f, rng.randrange(g.order)) for f in rng.sample(catalog, 4)]
        for f in catalog + twists:
            fast = twisted_classes(f)
            assert same_partition(fast, all_h_classes(cayley, inverses, f))
            if g.order <= 81:  # the literal union-find takes |G|^2 Python steps
                assert same_partition(fast, twisted_classes_unionfind(g, f))

    def test_doubling_has_two_classes(self):
        g = FiniteWreathGroup(5, 2, 1)
        f = descend_automorphism(finite_reidemeister_automorphism(5, 1), g)
        assert twisted_classes(f).count == 2

    def test_labels_constant_on_orbits(self):
        rng = random.Random(79)
        g = FiniteWreathGroup(5, 2, 1)
        f = descend_automorphism(finite_reidemeister_automorphism(5, 1), g)
        part = twisted_classes(f)
        for _ in range(100):
            h = rng.randrange(g.order)
            x = rng.randrange(g.order)
            moved = multiply(g, multiply(g, h, x), f.at(inverse(g, h)))
            assert part.labels[moved] == part.labels[x]

    def test_fixed_conjugacy_identity(self):
        g = FiniteWreathGroup(3, 2, 1)
        assert fixed_conjugacy_classes(twisted_classes(i := identity_descent(g)), i) == 9


def spy_orbit_minima(monkeypatch):
    """Record each call of `finite._orbit_minima` as (edges, order, minima)."""
    calls = []
    real = finite._orbit_minima

    def spy(edges, order):
        minima = real(edges, order)
        calls.append((edges, order, minima.copy()))  # the caller subtracts its offsets in place
        return minima

    monkeypatch.setattr(finite, "_orbit_minima", spy)
    return calls


def assert_orbit_minima(edges, order, minima):
    """`minima` are the union-find orbit minima of `edges`, and flat."""
    assert minima.dtype == np.int64
    assert np.array_equal(minima, orbit_minima_unionfind(edges, order))
    assert np.array_equal(minima[minima], minima)


def permutation_rows(rng, order, gens, kind):
    """`gens` permutations of range(order) of one kind."""
    ids = np.arange(order)
    if kind == "identity":
        return np.tile(ids, (gens, 1))
    if kind == "descending":  # one cycle x -> x - 1, whose label chains are longest
        return np.tile(np.roll(ids, 1), (gens, 1))
    if kind == "swaps":  # a few transpositions, most elements fixed
        rows = np.tile(ids, (gens, 1))
        for row in rows:
            pairs = rng.choice(order, size=2 * (order // 8), replace=False).reshape(2, -1)
            row[pairs[0]], row[pairs[1]] = pairs[1], pairs[0]
        return rows
    return np.stack([rng.permutation(order) for _ in range(gens)])


class TestOrbitMinima:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_permutation_stacks(self, seed):
        # rows stacked as `_partitions` stacks them: row r's edges offset by
        # r * order, so the stack is one disjoint union graph.  Small orders
        # often end a round with flat labels that still differ along an edge
        rng = np.random.default_rng(seed)
        for _ in range(30):
            order, gens = int(rng.integers(1, 60)), int(rng.integers(1, 4))
            kinds = ["identity", "random", "descending", "swaps"]
            kinds += list(rng.choice(kinds, size=int(rng.integers(0, 4))))
            rng.shuffle(kinds)
            rows = [permutation_rows(rng, order, gens, kind) + r * order for r, kind in enumerate(kinds)]
            edges = np.concatenate(rows, axis=1)
            nodes = len(kinds) * order
            assert_orbit_minima(edges, nodes, finite._orbit_minima(edges, nodes))

    def test_edges_of_a_large_model(self, monkeypatch):
        # the identity and three catalog maps of order 4374, stacked in one count
        g = FiniteWreathGroup(3, 6, 1)
        assert g.order == 4374
        auts = [descend_automorphism(a, g) for a in zero_cocycle_automorphisms(3, 1, 6)[1::11]]
        calls = spy_orbit_minima(monkeypatch)
        finite._partitions(g, [identity_descent(g).images] + [f.images for f in auts])
        ((edges, order, minima),) = calls
        assert edges.shape == (len(g.generators()), order) and order == 4 * g.order
        assert_orbit_minima(edges, order, minima)

    def test_edges_of_inner_twists(self, monkeypatch):
        # the chunks of inner twists that the shift check counts on (7, 3, 1)
        g = FiniteWreathGroup(7, 3, 1)
        f = zero_cocycle_catalog(g)[-1]
        base = twisted_classes(f)
        calls = spy_orbit_minima(monkeypatch)
        verify_shift_invariance(f, finite._shift_samples(g.order), base)
        assert len(calls) > 1 and max(order for _, order, _ in calls) > g.order
        for call in calls:
            assert_orbit_minima(*call)


def mismatched_projection():
    """(9, 2, 1) over (3, 2, 1), a catalog map of the big model, and the mod-3 map of
    another catalog entry: the small map that the big one induces is a different one."""
    catalog = zero_cocycle_automorphisms(9, 1, 2)
    return FiniteWreathGroup(9, 2, 1), FiniteWreathGroup(3, 2, 1), catalog[-1], catalog[1].induce(3)


def batch_automorphisms(group):
    """The catalog of a model plus three seeded inner twists of each entry."""
    rng = random.Random(97)
    catalog = zero_cocycle_catalog(group)
    return catalog + [twisted_by(f, rng.randrange(group.order)) for f in catalog for _ in range(3)]


def chunk_bounds(group, rows):
    """Node bounds for `finite._CHUNK_NODES`: one node, |G| + 1 (one row a
    chunk either way), and whole rows in a count that does not divide `rows`."""
    per_chunk = next(r for r in range(2, rows) if rows % r)
    return {"one-node": 1, "order-plus-one": group.order + 1, "ragged": per_chunk * group.order}


def spy_partitions(monkeypatch):
    """Record each call of `finite._partitions` as its list of (generator images, partition)."""
    calls = []
    real = finite._partitions

    def spy(group, images):
        parts = real(group, images)
        calls.append([(tuple(row), part) for row, part in zip(images, parts)])
        return parts

    monkeypatch.setattr(finite, "_partitions", spy)
    return calls


class TestBatchedPartitions:
    @pytest.mark.parametrize("model", BATCH_MODELS, ids="{0[0]}-{0[1]}-{0[2]}".format)
    def test_rows_match_single_counts_and_reference(self, model):
        g = FiniteWreathGroup(*model)
        auts = batch_automorphisms(g)
        batch = finite._partitions(g, [f.images for f in auts])
        assert len(batch) == len(auts)
        cayley, inverses = reference_cayley(g)
        for f, part in zip(auts, batch):
            assert part.labels.dtype == part.reps.dtype == np.int64 and type(part.count) is int
            assert same_partition(part, twisted_classes(f))
            assert same_partition(part, all_h_classes(cayley, inverses, f))

    @pytest.mark.parametrize("bound", ["one-node", "order-plus-one", "ragged"])
    @pytest.mark.parametrize("model", BATCH_MODELS, ids="{0[0]}-{0[1]}-{0[2]}".format)
    def test_chunk_bound_does_not_change_partitions(self, monkeypatch, model, bound):
        # the shift check is the one caller that chunks its rows; every twist
        # it counts gets the same partition, and every check the same figures
        g = FiniteWreathGroup(*model)
        f = zero_cocycle_catalog(g)[-1]
        base = twisted_classes(f)
        calls = spy_partitions(monkeypatch)
        expected = verify_shift_invariance(f, range(g.order), base)
        expected_calls = calls[:]
        calls.clear()
        # one twist per coset of the n constant configurations; the center's is f itself
        twisted = g.order // g.modulus - 1
        monkeypatch.setattr(finite, "_CHUNK_NODES", chunk_bounds(g, twisted)[bound])
        assert verify_shift_invariance(f, range(g.order), base) == expected
        assert len(calls) != len(expected_calls)  # the rows really were chunked otherwise
        rows = [row for call in calls for row in call]
        expected_rows = [row for call in expected_calls for row in call]
        assert len(rows) == len(expected_rows) == twisted
        for (images, part), (expected_images, expected_part) in zip(rows, expected_rows):
            assert images == expected_images and same_partition(part, expected_part)

    @pytest.mark.parametrize(
        "model", [(3, 2, 1), (2, 2, 2), (5, 2, 1), (3, 1, 1)], ids="{0[0]}-{0[1]}-{0[2]}".format
    )
    def test_central_cosets_group_equal_twists(self, monkeypatch, model):
        # h and h' twist alike exactly when they share a coset of the center;
        # the shift check tells twists apart by their generator images alone,
        # so it counts one row per coset but the center's, f's own images
        g = FiniteWreathGroup(*model)
        f = zero_cocycle_catalog(g)[-1]
        elements = list(range(g.order))
        coset = central_cosets(g, elements)
        inverse_gens = g.ensure_tables()["inverse_gens"]
        by_table, by_coset, images = {}, {}, {}
        for h in elements:
            table = twisted_by(f, h).table
            assert twisted_by(f, coset[h]) == twisted_by(f, h)
            by_table.setdefault(table.tobytes(), set()).add(h)
            by_coset.setdefault(coset[h], set()).add(h)
            images[table.tobytes()] = tuple(table[inverse_gens].tolist())
        assert sorted(map(sorted, by_table.values())) == sorted(map(sorted, by_coset.values()))
        base = twisted_classes(f)
        calls = spy_partitions(monkeypatch)
        verify_shift_invariance(f, elements, base)
        counted = sorted(row for call in calls for row, _ in call)
        assert counted == sorted(set(images.values()) - {f.images})
        assert len(counted) == len(by_coset) - 1

    @pytest.mark.parametrize("bound", ["one-node", "order-plus-one", "ragged"])
    def test_chunk_bound_does_not_change_shift_output(self, capsys, monkeypatch, bound):
        argv = ["oracle", "3", "2", "2", "--check", "shift"]
        assert cli.main(argv) == 0
        expected = capsys.readouterr()
        g = FiniteWreathGroup(3, 2, 2)
        samples = finite._shift_samples(g.order)
        inverses = g.inverses(samples).tolist()
        # one row per coset but the center's
        rows = len(set(central_cosets(g, samples + inverses).values()) - {g.identity})
        monkeypatch.setattr(finite, "_CHUNK_NODES", chunk_bounds(g, rows)[bound])
        assert cli.main(argv) == 0
        assert capsys.readouterr() == expected


class TestOracleChecks:
    def test_check_line_format(self):
        chk = OracleCheck("tbft", "n=3;m=2;k=1", True, 9, 9)
        assert chk.line() == "CHECK tbft n=3;m=2;k=1 PASS 9 9"
        chk = OracleCheck("tbft", "n=3;m=2;k=1", False, 9, 8)
        assert chk.line() == "CHECK tbft n=3;m=2;k=1 FAIL 9 8"

    def test_tbft_on_catalogs(self):
        for n, m, k in [(3, 2, 1), (5, 2, 1), (3, 3, 1), (2, 2, 2)]:
            g = FiniteWreathGroup(n, m, k)
            ordinary = twisted_classes(identity_descent(g))
            for f in zero_cocycle_catalog(g):
                chk = verify_tbft_finite(f, twisted_classes(f), ordinary)
                assert chk.passed, chk.line()

    def test_tbft_with_inner_twists(self):
        g = FiniteWreathGroup(3, 2, 1)
        f = zero_cocycle_catalog(g)[1]
        twists = inner_twists(g, f)
        assert twists[0] == f
        base = twisted_classes(f).count
        ordinary = twisted_classes(identity_descent(g))
        for tw in twists:
            assert verify_tbft_finite(tw, twisted_classes(tw), ordinary).passed
            assert twisted_classes(tw).count == base

    def test_inner_twists_of_identity_frozen_count(self):
        # the center of Z_3 wr Z/2 is the three constant torsion elements
        g = FiniteWreathGroup(3, 2, 1)
        twists = inner_twists(g, identity_descent(g))
        assert len(twists) == g.order // 3 == 6

    def test_shift_invariance(self):
        g = FiniteWreathGroup(5, 2, 1)
        f = descend_automorphism(finite_reidemeister_automorphism(5, 1), g)
        checks = verify_shift_invariance(f, range(g.order), twisted_classes(f))
        assert len(checks) == 3 * g.order == 150
        for chk in checks:
            assert chk.passed, chk.line()

    def test_projection(self):
        big = FiniteWreathGroup(15, 2, 1)
        for d in (3, 5):
            small = FiniteWreathGroup(d, 2, 1)
            for aut in zero_cocycle_automorphisms(15, 1, 2):
                fb = descend_automorphism(aut, big)
                fs = descend_automorphism(aut.induce(d), small)
                checks = verify_projection(fb, fs, twisted_classes(fb))
                assert all(c.passed for c in checks), [c.line() for c in checks]

    def test_projection_diagram_fail_counts_the_disagreements(self):
        # the diagram fails at exactly the x where aut_small(pi(x)) != pi(aut_big(x))
        big, small, aut_big, aut_other = mismatched_projection()
        fb = descend_automorphism(aut_big, big)
        fs = descend_automorphism(aut_other, small)
        checks = verify_projection(fb, fs, twisted_classes(fb))
        bad = 0
        for x in range(big.order):
            gx = element_to_group(big, x)
            down_then_map = aut_other.apply(project_element(gx, 3))
            map_then_down = project_element(aut_big.apply(gx), 3)
            bad += group_to_index(small, down_then_map) != group_to_index(small, map_then_down)
        assert 0 < bad < big.order
        assert checks[0] == OracleCheck("projection-diagram", checks[0].params, False, bad, 0)

    def test_projection_class_map_figures_match_brute_force(self):
        big, small, aut_big, aut_other = mismatched_projection()
        fb = descend_automorphism(aut_big, big)
        fs = descend_automorphism(aut_other, small)
        checks = {c.name: c for c in verify_projection(fb, fs, twisted_classes(fb))}
        big_labels = twisted_classes_unionfind(big, fb).labels
        small_labels = twisted_classes_unionfind(small, fs).labels
        down = [
            small_labels[group_to_index(small, project_element(element_to_group(big, x), 3))]
            for x in range(big.order)
        ]
        pairs, onto = len(set(zip(big_labels, down))), len(set(down))
        classmap = checks["projection-classmap"]
        assert not classmap.passed and (classmap.lhs, classmap.rhs) == (pairs, 6) == (7, 6)
        assert checks["projection-onto"] == OracleCheck(
            "projection-onto", classmap.params, True, onto, onto
        )

    def test_shift_class_map_figures_match_brute_force(self):
        # right translation by x against the classes of f and of its twist by x^-1
        g = FiniteWreathGroup(3, 2, 1)
        f = zero_cocycle_catalog(g)[1]
        base = twisted_classes(f)
        labels = twisted_classes_unionfind(g, f).labels
        checks = verify_shift_invariance(f, range(g.order), base)
        for x in range(g.order):
            _, classmap, onto = checks[3 * x : 3 * x + 3]
            twist_labels = twisted_classes_unionfind(g, twisted_by(f, inverse(g, x))).labels
            moved = [twist_labels[multiply(g, y, x)] for y in range(g.order)]
            assert classmap.lhs == len(set(zip(labels, moved))) == base.count
            assert onto.lhs == len(set(moved)) == onto.rhs

    def test_class_map_into_one_class(self):
        g = FiniteWreathGroup(3, 2, 1)
        base = twisted_classes(zero_cocycle_catalog(g)[1])
        where = np.full(g.order, 5)
        assert finite._class_map(base, base, where) == (base.count, 1)

    def test_projection_index_map_needs_matching_box(self):
        with pytest.raises(ValueError):
            projection_index_map(FiniteWreathGroup(15, 2, 1), FiniteWreathGroup(5, 3, 1))

    def test_restriction_bound_frozen(self):
        g = FiniteWreathGroup(5, 2, 1)
        f = descend_automorphism(finite_reidemeister_automorphism(5, 1), g)
        checks = verify_restriction_bound(f, twisted_classes(f))
        assert [c.name for c in checks] == ["restriction-preserved", "restriction-bound"]
        assert all(c.passed for c in checks)
        bound = checks[1]
        assert bound.lhs == 1 and bound.rhs == 4  # R(f') = 1 <= R(f) * fixed = 2 * 2

    def test_restriction_bound_catalogs(self):
        for n, m, k in [(3, 2, 1), (5, 2, 1), (3, 3, 1)]:
            g = FiniteWreathGroup(n, m, k)
            for f in zero_cocycle_catalog(g):
                checks = verify_restriction_bound(f, twisted_classes(f))
                assert all(c.passed for c in checks)


class TestCatalogs:
    def test_zero_cocycle_automorphism_count(self):
        auts = zero_cocycle_automorphisms(3, 1, 2)
        assert len(auts) == 2 * 2 * 2  # matrices x box points x units
        assert all(a.validate().ok for a in auts)

    def test_catalog_dedupes(self):
        g = FiniteWreathGroup(3, 2, 1)
        catalog = zero_cocycle_catalog(g)
        assert len(catalog) == 4  # negation collapses onto identity mod 2
        tables = {f.at(np.arange(g.order)).tobytes() for f in catalog}
        assert len(tables) == 4

    def test_catalog_rank_two_includes_order_three_blocks(self):
        g = FiniteWreathGroup(2, 2, 2)
        catalog = zero_cocycle_catalog(g)
        assert len(catalog) >= 2
        ordinary = twisted_classes(identity_descent(g))
        for f in catalog:
            assert verify_tbft_finite(f, twisted_classes(f), ordinary).passed
