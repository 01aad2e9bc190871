import random

import numpy as np
import pytest

import lamptwist.cli as cli
import lamptwist.finite as finite
from lamptwist.group import GroupParams, Torsion
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
    identity_automorphism,
    inner_twists,
    projection_index_map,
    twisted_classes,
    verify_projection,
    verify_restriction_bound,
    verify_shift_invariance,
    verify_tbft_finite,
    zero_cocycle_automorphisms,
    zero_cocycle_catalog,
)
from lamptwist.matrix import mat_vec
from reference import element_to_group, group_to_index, multiply, twisted_classes_unionfind

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
    perms = np.array(group._shift_perms, dtype=np.int64)
    tshift = (digits @ wt[perms].T).T.copy()
    tadd = ((digits[:, None, :] + digits[None, :, :]) % n) @ wt
    tneg = ((n - digits) % n) @ wt
    sneg = np.array([group.encode([0] * pcount, tuple(-c for c in p)) for p in group.points])
    ti = np.arange(group.order, dtype=np.int64) // pcount
    si = np.arange(group.order, dtype=np.int64) % pcount
    cayley = (
        tadd[ti[:, None], tshift[si[:, None], ti[None, :]]] * pcount
        + perms[si[:, None], si[None, :]]
    )
    inverse = tneg[tshift[sneg[si], ti]] * pcount + sneg[si]
    return cayley.astype(np.int32), inverse.astype(np.int32)


def all_h_classes(cayley, inverse, aut):
    """Twisted classes as per-element minima over the image table of every h."""
    images = cayley[cayley, aut.table[inverse][:, None]]  # images[h, g] = (h g) aut(h^-1)
    minima = images.min(axis=0)
    reps = np.unique(minima)
    return TwistedClassPartition(np.searchsorted(reps, minima), reps, len(reps))


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
    n, m, pcount = group.modulus, group.box, group.point_count

    def reduce_vec(t):
        vec = [0] * pcount
        for p, c in t.items():
            idx = group._point_index[tuple(x % m for x in p)]
            vec[idx] = (vec[idx] + c) % n
        return vec

    u_rows = [reduce_vec(aut.origin_image.shifted(mat_vec(aut.matrix, p))) for p in group.points]
    corr = [reduce_vec(aut.cocycle_value(p)) for p in group.points]
    shift_map = [
        group._point_index[tuple(c % m for c in mat_vec(aut.matrix, p))] for p in group.points
    ]
    table = np.empty(group.order, dtype=np.int32)
    for idx in range(group.order):
        coeffs, shift = group.decode(idx)
        out = [0] * pcount
        for slot, c in enumerate(coeffs):
            if c:
                row = u_rows[slot]
                for tgt in range(pcount):
                    out[tgt] = (out[tgt] + c * row[tgt]) % n
        s = group._point_index[shift]
        out = [(a + b) % n for a, b in zip(out, corr[s])]
        table[idx] = group.encode(out, group.points[shift_map[s]])
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

    def test_encode_decode_roundtrip(self):
        g = FiniteWreathGroup(3, 2, 2)
        for idx in range(g.order):
            coeffs, shift = g.decode(idx)
            assert g.encode(coeffs, shift) == idx

    def test_identity(self):
        g = FiniteWreathGroup(3, 2, 1)
        coeffs, shift = g.decode(g.identity)
        assert not any(coeffs) and shift == (0,)

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
            assert g.inverse(i) == group_to_index(g, element_to_group(g, i).inverse())
            assert multiply(g, i, g.inverse(i)) == g.identity

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

    def test_no_table_cap(self):
        g = FiniteWreathGroup(7, 2, 2)  # order 9604: class counts need no multiplication table
        assert g.order == 9604
        f = descend_automorphism(finite_reidemeister_automorphism(7, 2), g)
        part = twisted_classes(g, f)
        assert part.count == 4
        chk = verify_tbft_finite(g, f, part)
        assert chk.passed and chk.lhs == 4, chk.line()
        assert sum(a.nbytes for a in g.ensure_tables().values()) < 1 << 20


class TestFiniteAutomorphism:
    def test_identity(self):
        g = FiniteWreathGroup(3, 2, 1)
        ident = identity_automorphism(g)
        assert ident(7) == 7

    def test_rejects_non_bijection(self):
        g = FiniteWreathGroup(3, 2, 1)
        with pytest.raises(InvalidAutomorphism):
            FiniteAutomorphism(g, np.zeros(g.order, dtype=np.int32))

    def test_rejects_non_homomorphism(self):
        g = FiniteWreathGroup(3, 2, 1)
        table = np.roll(np.arange(g.order, dtype=np.int32), 1)
        with pytest.raises(InvalidAutomorphism):
            FiniteAutomorphism(g, table)

    def test_twisted_by_is_conjugation(self):
        g = FiniteWreathGroup(5, 2, 1)
        f = descend_automorphism(finite_reidemeister_automorphism(5, 1), g)
        rng = random.Random(73)
        for _ in range(40):
            a = rng.randrange(g.order)
            x = rng.randrange(g.order)
            tw = f.twisted_by(a)
            assert tw(x) == multiply(g, multiply(g, a, f(x)), g.inverse(a))

    def test_rejects_swap_of_two_non_generators(self):
        # agrees with an automorphism on the generators and everywhere but two
        # elements, so only a check over every x can catch it
        g = FiniteWreathGroup(3, 6, 1)
        assert g.order == 4374
        f = zero_cocycle_catalog(g)[1]
        x, y = 1000, 3001
        assert not {x, y} & set(g.generators() + [g.identity])
        table = f.table.copy()
        table[[x, y]] = table[[y, x]]
        with pytest.raises(InvalidAutomorphism):
            FiniteAutomorphism(g, table)

    def test_shift_map(self):
        g = FiniteWreathGroup(5, 4, 1)
        f = descend_automorphism(finite_reidemeister_automorphism(5, 1), g)
        assert list(f.shift_map()) == [0, 3, 2, 1]  # negation mod 4


class TestDescend:
    def test_identity_descends_to_identity(self):
        g = FiniteWreathGroup(3, 2, 2)
        f = descend_automorphism(WreathAutomorphism.identity(GroupParams(3, 2)), g)
        assert np.array_equal(f.table, np.arange(g.order))

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
        assert aut.is_valid
        with pytest.raises(DescentError):
            descend_automorphism(aut, g)

    def test_vanishing_obstruction_descends(self):
        # coboundary cocycles always satisfy the box-period sum condition
        from lamptwist.group import GroupElement
        from lamptwist.automorphism import twist

        g = FiniteWreathGroup(3, 2, 1)
        gamma = GroupElement(Torsion(3, 1, [((0,), 1), ((1,), 2)]), (1,))
        aut = twist(WreathAutomorphism.identity(GroupParams(3, 1)), gamma)
        f = descend_automorphism(aut, g)
        # inner automorphisms never change class counts
        assert twisted_classes(g, f).count == g.conjugacy_partition().count

    def test_matches_pointwise_application(self):
        g = FiniteWreathGroup(5, 2, 1)
        aut = finite_reidemeister_automorphism(5, 1)
        f = descend_automorphism(aut, g)
        for idx in range(g.order):
            image = aut(element_to_group(g, idx))
            assert f(idx) == group_to_index(g, image)
        # a larger model, on sampled elements
        rng = random.Random(83)
        g = FiniteWreathGroup(7, 2, 2)
        aut = finite_reidemeister_automorphism(7, 2)
        f = descend_automorphism(aut, g)
        for idx in rng.sample(range(g.order), 300):
            assert f(idx) == group_to_index(g, aut(element_to_group(g, idx)))

    def test_python_fallback_matches_vectorized(self):
        for model, aut in (
            ((5, 2, 1), finite_reidemeister_automorphism(5, 1)),
            ((7, 2, 2), finite_reidemeister_automorphism(7, 2)),  # above the former table cap
        ):
            g = FiniteWreathGroup(*model)
            fast = descend_automorphism(aut, g).table
            assert np.array_equal(python_descent_table(aut, g), fast)


class TestTwistedClasses:
    def test_conjugacy_frozen(self):
        # Z_3 wr Z/2: torsion pairs split into 6 classes, the 9 swap-side
        # elements into 3 classes by coefficient sum
        g = FiniteWreathGroup(3, 2, 1)
        assert g.conjugacy_partition().count == 9

    def test_matches_unionfind(self):
        g = FiniteWreathGroup(3, 2, 1)
        for f in zero_cocycle_catalog(g):
            fast = twisted_classes(g, f)
            slow = twisted_classes_unionfind(g, f)
            assert same_partition(fast, slow)

    def test_matches_unionfind_rank_two(self):
        g = FiniteWreathGroup(2, 2, 2)
        f = zero_cocycle_catalog(g)[-1]
        assert np.array_equal(twisted_classes(g, f).labels, twisted_classes_unionfind(g, f).labels)

    @pytest.mark.parametrize("model", REFERENCE_MODELS, ids="{0[0]}-{0[1]}-{0[2]}".format)
    def test_matches_references(self, model):
        g = FiniteWreathGroup(*model)
        cayley, inverse = reference_cayley(g)
        rng = random.Random(89)
        for _ in range(50):
            a, b = rng.randrange(g.order), rng.randrange(g.order)
            assert cayley[a, b] == multiply(g, a, b) and inverse[a] == g.inverse(a)
        catalog = zero_cocycle_catalog(g)
        twists = [f.twisted_by(rng.randrange(g.order)) for f in rng.sample(catalog, 4)]
        for f in catalog + twists:
            fast = twisted_classes(g, f)
            assert same_partition(fast, all_h_classes(cayley, inverse, f))
            if g.order <= 81:  # the literal union-find takes |G|^2 Python steps
                assert same_partition(fast, twisted_classes_unionfind(g, f))

    def test_doubling_has_two_classes(self):
        g = FiniteWreathGroup(5, 2, 1)
        f = descend_automorphism(finite_reidemeister_automorphism(5, 1), g)
        assert twisted_classes(g, f).count == 2

    def test_labels_constant_on_orbits(self):
        rng = random.Random(79)
        g = FiniteWreathGroup(5, 2, 1)
        f = descend_automorphism(finite_reidemeister_automorphism(5, 1), g)
        part = twisted_classes(g, f)
        for _ in range(100):
            h = rng.randrange(g.order)
            x = rng.randrange(g.order)
            moved = multiply(g, multiply(g, h, x), f(g.inverse(h)))
            assert part.labels[moved] == part.labels[x]

    def test_fixed_conjugacy_identity(self):
        g = FiniteWreathGroup(3, 2, 1)
        assert fixed_conjugacy_classes(g, identity_automorphism(g)) == 9


def batch_automorphisms(group):
    """The catalog of a model plus three seeded inner twists of each entry."""
    rng = random.Random(97)
    catalog = zero_cocycle_catalog(group)
    return catalog + [f.twisted_by(rng.randrange(group.order)) for f in catalog for _ in range(3)]


def chunk_bounds(group, rows):
    """Node bounds for `finite._CHUNK_NODES`: one node, |G| + 1 (one row a
    chunk either way), and whole rows in a count that does not divide `rows`."""
    per_chunk = next(r for r in range(2, rows) if rows % r)
    return {"one-node": 1, "order-plus-one": group.order + 1, "ragged": per_chunk * group.order}


def spy_partitions(monkeypatch):
    """Record each call of `finite._partitions` as its list of (table bytes, partition)."""
    calls = []
    real = finite._partitions

    def spy(group, tables):
        parts = real(group, tables)
        calls.append([(table.tobytes(), part) for table, part in zip(tables, parts)])
        return parts

    monkeypatch.setattr(finite, "_partitions", spy)
    return calls


class TestBatchedPartitions:
    @pytest.mark.parametrize("model", BATCH_MODELS, ids="{0[0]}-{0[1]}-{0[2]}".format)
    def test_rows_match_single_counts_and_reference(self, model):
        g = FiniteWreathGroup(*model)
        auts = batch_automorphisms(g)
        batch = finite._partitions(g, np.stack([f.table for f in auts]))
        assert len(batch) == len(auts)
        cayley, inverse = reference_cayley(g)
        for f, part in zip(auts, batch):
            assert part.labels.dtype == part.reps.dtype == np.int64 and type(part.count) is int
            assert same_partition(part, twisted_classes(g, f))
            assert same_partition(part, all_h_classes(cayley, inverse, f))

    @pytest.mark.parametrize("bound", ["one-node", "order-plus-one", "ragged"])
    @pytest.mark.parametrize("model", BATCH_MODELS, ids="{0[0]}-{0[1]}-{0[2]}".format)
    def test_chunk_bound_does_not_change_partitions(self, monkeypatch, model, bound):
        # the shift check is the one caller that chunks its rows; every twist
        # it counts gets the same partition, and every check the same figures
        g = FiniteWreathGroup(*model)
        f = zero_cocycle_catalog(g)[-1]
        base = twisted_classes(g, f)
        calls = spy_partitions(monkeypatch)
        expected = verify_shift_invariance(g, f, range(g.order), base)
        expected_calls = calls[:]
        calls.clear()
        cosets = g.order // g.modulus  # one twist per coset of the n constant configurations
        monkeypatch.setattr(finite, "_CHUNK_NODES", chunk_bounds(g, cosets)[bound])
        assert verify_shift_invariance(g, f, range(g.order), base) == expected
        assert len(calls) != len(expected_calls)  # the rows really were chunked otherwise
        rows = [row for call in calls for row in call]
        expected_rows = [row for call in expected_calls for row in call]
        assert len(rows) == len(expected_rows) == cosets
        for (table, part), (expected_table, expected_part) in zip(rows, expected_rows):
            assert table == expected_table and same_partition(part, expected_part)

    @pytest.mark.parametrize(
        "model", [(3, 2, 1), (2, 2, 2), (5, 2, 1), (3, 1, 1)], ids="{0[0]}-{0[1]}-{0[2]}".format
    )
    def test_central_cosets_group_equal_twists(self, monkeypatch, model):
        # h and h' twist alike exactly when they share a coset of the center,
        # and the shift check counts one twist per distinct table
        g = FiniteWreathGroup(*model)
        f = zero_cocycle_catalog(g)[-1]
        elements = list(range(g.order))
        coset = finite._central_cosets(g, elements)
        by_table, by_coset = {}, {}
        for h in elements:
            table = f.twisted_by(h).table.astype(np.int64).tobytes()  # as the spy records it
            assert f.twisted_by(coset[h]) == f.twisted_by(h)
            by_table.setdefault(table, set()).add(h)
            by_coset.setdefault(coset[h], set()).add(h)
        assert sorted(map(sorted, by_table.values())) == sorted(map(sorted, by_coset.values()))
        base = twisted_classes(g, f)
        calls = spy_partitions(monkeypatch)
        verify_shift_invariance(g, f, elements, base)
        assert sorted(table for call in calls for table, _ in call) == sorted(by_table)

    @pytest.mark.parametrize("bound", ["one-node", "order-plus-one", "ragged"])
    def test_chunk_bound_does_not_change_shift_output(self, capsys, monkeypatch, bound):
        argv = ["oracle", "3", "2", "2", "--check", "shift"]
        assert cli.main(argv) == 0
        expected = capsys.readouterr()
        g = FiniteWreathGroup(3, 2, 2)
        samples = cli._shift_elements(g.order)
        rows = len(set(samples) | {g.inverse(x) for x in samples})
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
            for f in zero_cocycle_catalog(g):
                chk = verify_tbft_finite(g, f, twisted_classes(g, f))
                assert chk.passed, chk.line()

    def test_tbft_with_inner_twists(self):
        g = FiniteWreathGroup(3, 2, 1)
        f = zero_cocycle_catalog(g)[1]
        twists = inner_twists(g, f)
        assert twists[0] == f
        base = twisted_classes(g, f).count
        for tw in twists:
            assert verify_tbft_finite(g, tw, twisted_classes(g, tw)).passed
            assert twisted_classes(g, tw).count == base

    def test_inner_twists_of_identity_frozen_count(self):
        # the center of Z_3 wr Z/2 is the three constant torsion elements
        g = FiniteWreathGroup(3, 2, 1)
        twists = inner_twists(g, identity_automorphism(g))
        assert len(twists) == g.order // 3 == 6

    def test_shift_invariance(self):
        g = FiniteWreathGroup(5, 2, 1)
        f = descend_automorphism(finite_reidemeister_automorphism(5, 1), g)
        checks = verify_shift_invariance(g, f, range(g.order), twisted_classes(g, f))
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
                checks = verify_projection(big, small, fb, fs, twisted_classes(big, fb))
                assert all(c.passed for c in checks), [c.line() for c in checks]

    def test_projection_index_map_needs_matching_box(self):
        with pytest.raises(ValueError):
            projection_index_map(FiniteWreathGroup(15, 2, 1), FiniteWreathGroup(5, 3, 1))

    def test_restriction_bound_frozen(self):
        g = FiniteWreathGroup(5, 2, 1)
        f = descend_automorphism(finite_reidemeister_automorphism(5, 1), g)
        checks = verify_restriction_bound(g, f, twisted_classes(g, f))
        assert [c.name for c in checks] == ["restriction-preserved", "restriction-bound"]
        assert all(c.passed for c in checks)
        bound = checks[1]
        assert bound.lhs == 1 and bound.rhs == 4  # R(f') = 1 <= R(f) * fixed = 2 * 2

    def test_restriction_bound_catalogs(self):
        for n, m, k in [(3, 2, 1), (5, 2, 1), (3, 3, 1)]:
            g = FiniteWreathGroup(n, m, k)
            for f in zero_cocycle_catalog(g):
                checks = verify_restriction_bound(g, f, twisted_classes(g, f))
                assert all(c.passed for c in checks)


class TestCatalogs:
    def test_zero_cocycle_automorphism_count(self):
        auts = zero_cocycle_automorphisms(3, 1, 2)
        assert len(auts) == 2 * 2 * 2  # matrices x box points x units
        assert all(a.is_valid for a in auts)

    def test_catalog_dedupes(self):
        g = FiniteWreathGroup(3, 2, 1)
        catalog = zero_cocycle_catalog(g)
        assert len(catalog) == 4  # negation collapses onto identity mod 2
        tables = {f.table.tobytes() for f in catalog}
        assert len(tables) == 4

    def test_catalog_rank_two_includes_order_three_blocks(self):
        g = FiniteWreathGroup(2, 2, 2)
        catalog = zero_cocycle_catalog(g)
        assert len(catalog) >= 2
        for f in catalog:
            assert verify_tbft_finite(g, f, twisted_classes(g, f)).passed
