import itertools
import math
import random

import pytest

from lamptwist.modular import crt, crt_pair, divisors, factorize, modinv, totient

import reference
from reference import reference_solve_linear


class TestFactorize:
    def test_frozen(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(1) == {}
        assert factorize(97) == {97: 1}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_large_primes_are_tested_not_divided(self):
        assert factorize(10**18 + 3) == {10**18 + 3: 1}
        assert factorize(2 * (10**18 + 3)) == {2: 1, 10**18 + 3: 1}
        assert factorize(97 * (10**6 + 3)) == {97: 1, 10**6 + 3: 1}

    @pytest.mark.parametrize(
        "n, why",
        [
            ((10**9 + 7) * (10**9 + 9), "composite"),
            ((10**6 + 3) ** 2, "composite"),
            (2**89 - 1, "too large"),  # prime, above the exact Miller-Rabin bound
        ],
    )
    def test_refuses_cofactor_it_cannot_certify(self, n, why):
        with pytest.raises(ValueError, match=why):
            factorize(n)

    def test_reconstruction(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randrange(1, 100000)
            prod = 1
            for p, e in factorize(n).items():
                prod *= p**e
            assert prod == n


class TestModInv:
    def test_frozen(self):
        assert modinv(3, 7) == 5
        assert modinv(2, 4) is None
        assert modinv(1, 2) == 1

    def test_property(self):
        rng = random.Random(5)
        for _ in range(300):
            m = rng.randrange(2, 1000)
            a = rng.randrange(0, m)
            inv = modinv(a, m)
            from math import gcd

            if gcd(a, m) == 1:
                assert inv is not None and (a * inv) % m == 1
            else:
                assert inv is None


class TestCrt:
    def test_frozen_pair(self):
        assert crt_pair(2, 3, 3, 7) == 17

    def test_fold(self):
        x, m = crt([(1, 2), (2, 3), (3, 5)])
        assert m == 30
        assert x % 2 == 1 and x % 3 == 2 and x % 5 == 3

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            crt_pair(1, 4, 3, 6)


class TestSolveLinear:
    """The test-side solver behind the inverse-in-box oracle."""

    def test_consistent_square(self):
        # 2x = 2 mod 4 has solutions despite 2 not being invertible
        sol = reference_solve_linear([[2]], [2], 4)
        assert sol is not None and (2 * sol[0]) % 4 == 2

    def test_inconsistent(self):
        assert reference_solve_linear([[2]], [1], 4) is None

    def test_inconsistent_system(self):
        # rows force x + y = 1 and 2x + 2y = 1 mod 6, impossible
        assert reference_solve_linear([[1, 1], [2, 2]], [1, 1], 6) is None

    def test_random_consistent_systems_are_solved(self):
        rng = random.Random(17)
        for _ in range(300):
            m = rng.choice([2, 3, 4, 5, 8, 9, 12, 27, 35, 45, 343])
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            a = [[rng.randrange(m) for _ in range(cols)] for _ in range(rows)]
            x0 = [rng.randrange(m) for _ in range(cols)]
            b = [sum(r * x for r, x in zip(row, x0)) % m for row in a]
            sol = reference_solve_linear(a, b, m)
            assert sol is not None
            for row, want in zip(a, b):
                assert sum(r * x for r, x in zip(row, sol)) % m == want

    def test_random_inconsistent_detected(self):
        rng = random.Random(19)
        hits = 0
        for _ in range(300):
            m = rng.choice([4, 8, 9, 27, 12])
            a = [[rng.randrange(m) for _ in range(3)] for _ in range(3)]
            b = [rng.randrange(m) for _ in range(3)]
            sol = reference_solve_linear(a, b, m)
            if sol is None:
                hits += 1
            else:
                for row, want in zip(a, b):
                    assert sum(r * x for r, x in zip(row, sol)) % m == want
        assert hits > 0  # some random systems must be unsolvable

    def test_matches_brute_force_on_small_systems(self):
        rng = random.Random(23)
        for _ in range(300):
            m = rng.choice([2, 4, 6, 8, 9, 12])
            rows, cols = rng.randrange(1, 4), rng.randrange(1, 3)
            a = [[rng.choice([0, rng.randrange(m)]) for _ in range(cols)] for _ in range(rows)]
            b = [rng.randrange(m) for _ in range(rows)]
            solvable = any(
                all(sum(r * x for r, x in zip(row, xs)) % m == want for row, want in zip(a, b))
                for xs in itertools.product(range(m), repeat=cols)
            )
            assert (reference_solve_linear(a, b, m) is not None) == solvable

    def test_unsolvable_mod_prime_power_only_goes_through_snf(self, monkeypatch):
        # x + y = 1 and x + y = 4 agree mod 3 but not mod 9
        a, b = [[1, 1], [1, 1]], [1, 4]
        assert reference_solve_linear(a, b, 3) is not None
        calls = []
        snf = reference.reference_smith_normal_form

        def counting(m):
            calls.append(m)
            return snf(m)

        monkeypatch.setattr(reference, "reference_smith_normal_form", counting)
        assert reference_solve_linear(a, b, 9) is None
        assert len(calls) == 1


class TestDivisors:
    def test_frozen(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]
        assert divisors(49) == [1, 7, 49]


class TestTotient:
    def test_matches_counting_units(self):
        for n in range(1, 300):
            assert totient(n) == sum(1 for c in range(1, n + 1) if math.gcd(c, n) == 1)

    def test_large_prime(self):
        assert totient(999983) == 999982
