"""Modular arithmetic utilities: factorization, inverses, CRT, divisors, and short
error lines for huge numbers."""

from __future__ import annotations

from math import gcd, log10

TRIAL_LIMIT = 10**6  # trial division stops here; a larger cofactor must test prime
# Miller-Rabin with the prime bases up to 41 is exact below this bound.
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_EXACT_BELOW = 3317044064679887385961981


def decimal(x: int) -> str:
    """x in decimal, however many digits: str() refuses past sys.get_int_max_str_digits(),
    a limit that stays in place to keep hostile JSON from quadratic parsing."""
    try:
        return str(x)
    except ValueError:
        from decimal import Decimal  # exact for an int, and not bound by that limit

        return str(Decimal(x))


def bounded_message(message: str, *numbers: int) -> str:
    """`message` with `numbers`, those past 40 digits by order of magnitude if the error
    line would reach 200 characters (Python prints no integer of over 4300 digits)."""
    if all(abs(x) < 10**200 for x in numbers) and len(line := message.format(*numbers)) < 193:
        return line  # 193 + len("error: ") = 200
    return message.format(*(
        x if abs(x) < 10**40 else f"~{'-' * (x < 0)}10^{round(x.bit_length() * log10(2))}"
        for x in numbers
    ))


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n > 41; False at or above the exact bound."""
    if n >= MILLER_RABIN_EXACT_BELOW:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization: trial division up to TRIAL_LIMIT, then a prime test.

    A cofactor left by trial division has no prime factor up to the limit, so
    it is prime below TRIAL_LIMIT**2; above that it must pass Miller-Rabin.
    A composite cofactor, or one too large for the test, is refused with a
    ValueError instead of being factored slowly.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    if n > TRIAL_LIMIT**2 and _is_prime(n):
        return {n: 1}  # a large prime modulus skips the trial division
    out: dict[int, int] = {}
    d = 2
    while d * d <= n and d <= TRIAL_LIMIT:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > TRIAL_LIMIT**2 and not _is_prime(n):
        why = "composite" if n < MILLER_RABIN_EXACT_BELOW else "too large to test for primality"
        message = f"cannot factor {{}}: no prime factor up to {TRIAL_LIMIT}, and it is {why}"
        raise ValueError(bounded_message(message, n))
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def modinv(a: int, m: int) -> int | None:
    """Inverse of a mod m, or None when gcd(a, m) > 1."""
    try:
        return pow(a, -1, m)
    except ValueError:
        return None


def crt_pair(a1: int, m1: int, a2: int, m2: int) -> int:
    """Solve x = a1 (mod m1), x = a2 (mod m2) for coprime moduli."""
    if gcd(m1, m2) != 1:
        raise ValueError(f"moduli {m1}, {m2} are not coprime")
    inv = pow(m1 % m2, -1, m2)
    return (a1 + m1 * (((a2 - a1) * inv) % m2)) % (m1 * m2)


def crt(residues) -> tuple[int, int]:
    """Fold a sequence of (residue, modulus) pairs; returns (x, product)."""
    x, m = 0, 1
    for a, mm in residues:
        x = crt_pair(x, m, a % mm, mm)
        m *= mm
    return x, m


def divisors(n: int) -> list[int]:
    """Sorted positive divisors."""
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
