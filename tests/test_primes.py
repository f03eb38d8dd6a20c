import math
import random

import pytest

from q16det import primes
from q16det.errors import InternalInconsistency
from q16det.primes import factor_map, is_probable_prime, prime_powers, primes_below


def _next_prime(n, residue=None):
    """The first prime >= n, congruent to ``residue`` mod 8 when given."""
    while not is_probable_prime(n) or (residue is not None and n % 8 != residue):
        n += 1
    return n


def _smooth_prime(rng, digits):
    """A prime q of ``digits`` digits with q - 1 twice a product of distinct
    odd primes below the p-1 bound B1, so that q - 1 divides lcm(1..B1)."""
    odd = primes_below(primes._PM1_B1)[1:]
    lo, hi = 10 ** (digits - 1), 10**digits
    while True:
        k = 2
        for p in rng.sample(odd, len(odd)):
            if 2 * k * p >= hi:
                break
            k *= p
        if k >= lo and is_probable_prime(k + 1):
            return k + 1


def _semiprime(rng, digits):
    """The shape of perfbench's certify semiprimes: two distinct primes of
    about equal size, their product of exactly ``digits`` digits and 5 mod 8."""
    lo, hi = 10 ** (digits - 1), 10**digits
    while True:
        r1, r2 = rng.choice(((1, 5), (5, 1), (3, 7), (7, 3)))
        q1 = _next_prime(int(math.isqrt(lo) * (1 + 2 * rng.random())), r1)
        q2 = _next_prime(-(-lo // q1) + rng.randrange(max(1, lo // q1)), r2)
        if lo <= q1 * q2 < hi and q1 != q2:
            return q1 * q2


def _exact_root(n, k):
    """The r with r**k == n, or None; by bisection, apart from the library."""
    lo, hi = 1, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if mid**k < n else (lo, mid)
    return lo if lo**k == n else None


def test_below_two():
    assert [n for n in range(-3, 2) if is_probable_prime(n)] == []
    assert [primes_below(n) for n in (-1, 0, 1, 2, 3)] == [[], [], [], [], [2]]


class TestFactorMap:
    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="^cannot factor 0$"):
            factor_map(0)

    def test_square_cofactors_split_without_rho(self, monkeypatch):
        """Squares and higher powers, p**2, m*p**2, p**3, p**5, m*p**3,
        p**4*q**2, (p*q)**2, (p*q)**3 and p**3*q**2, factor exactly, and rho
        never sees a perfect power."""
        rho = primes._pollard_brent

        def rho_on_non_powers(n):
            assert not any(_exact_root(n, k) for k in range(2, n.bit_length())), n
            return rho(n)

        monkeypatch.setattr(primes, "_pollard_brent", rho_on_non_powers)
        rng = random.Random(4)
        for _ in range(4):
            p = _next_prime(rng.randrange(10**6, 10**9))
            q = _next_prime(rng.randrange(10**6, 10**7))
            if p == q:
                continue
            m = 5 + 8 * rng.randrange(30)
            cases = {
                p * p: {p: 2},
                m * p * p: {**factor_map(m), p: 2},
                p**3: {p: 3},
                p**5: {p: 5},
                m * p**3: {**factor_map(m), p: 3},
                p**4 * q * q: {p: 4, q: 2},
                (p * q) ** 2: {p: 2, q: 2},
                (p * q) ** 3: {p: 3, q: 3},
                p**3 * q * q: {p: 3, q: 2},
            }
            for n, want in cases.items():
                assert factor_map(n) == want, n
                assert factor_map(-n) == want, -n

    def test_square_cofactor_tested_once(self, monkeypatch):
        """5*p**2 takes one Miller-Rabin test of p**2 and one of p: the root
        of a square cofactor is tested once, whatever its multiplicity."""
        tested = []
        real = primes.is_probable_prime

        def counted(n):
            tested.append(n)
            return real(n)

        monkeypatch.setattr(primes, "is_probable_prime", counted)
        p = _next_prime(10**9, 7)
        assert factor_map(5 * p * p) == {5: 1, p: 2}
        assert tested == [p * p, p]

    def test_matches_sympy_factorint(self):
        """prime_powers against sympy's factorint, primes ascending, on seeded
        inputs below 10**18, on the certify workload's m*p**2 and m*r**2
        forms, and on perfect powers whose primes pass the trial bound."""
        sympy = pytest.importorskip("sympy")
        rng = random.Random(18)
        inputs = [rng.randrange(2, 10**18) for _ in range(200)]
        for _ in range(20):
            m = 5 + 8 * rng.randrange(30)
            inputs.append(m * _next_prime(rng.randrange(7, 10**9), 7) ** 2)
            inputs.append(m * _next_prime(rng.randrange(11, 10**9), 3) ** 2)
            p = _next_prime(rng.randrange(10**4, 10**8))
            q = _next_prime(rng.randrange(10**4, 10**6))
            inputs += [p**3, m * p**3, p**5, p**7, (p * q) ** 3, m * p**4 * q**3]
        # Certify's refusals at 16-20 digits, which p-1 splits or leaves to
        # rho, and q1*q2*r with q1 - 1 and q2 - 1 B1-smooth, where the p-1
        # gcd can be the composite q1*q2.
        inputs += [_semiprime(rng, d) for d in range(16, 21) for _ in range(2)]
        for _ in range(3):
            q1, q2 = _smooth_prime(rng, 6), _smooth_prime(rng, 7)
            inputs.append(q1 * q2 * _next_prime(rng.randrange(10**7, 10**8)))
        for n in inputs:
            assert list(prime_powers(n)) == sorted(sympy.factorint(n).items()), n
            assert factor_map(n) == sympy.factorint(n), n


class TestIntegerRoot:
    def test_is_the_floor_root(self):
        rng = random.Random(5)
        for _ in range(2000):
            k = rng.randrange(2, 12)
            m = rng.randrange(1, 2 ** rng.randrange(1, 300))
            r = primes._iroot(m, k)
            assert r**k <= m < (r + 1) ** k, (m, k)
            assert primes._iroot(r**k, k) == r and primes._iroot((r + 1) ** k - 1, k) == r


class TestPMinus1:
    def test_smooth_prime_splits_without_rho(self, monkeypatch):
        """A 17-20-digit semiprime whose smaller prime q has q - 1 dividing
        lcm(1..B1) is split by the one p-1 power: rho never runs."""

        def no_rho(n):
            raise AssertionError(f"rho on {n}")

        rng = random.Random(35)
        cases = []
        for digits in range(17, 21):
            q = _smooth_prime(rng, digits // 2)
            r = _next_prime(rng.randrange(10 ** (digits - 1) // q + 1, 10**digits // q))
            assert q < r and len(str(q * r)) == digits
            cases.append((q * r, {q: 1, r: 1}))
        monkeypatch.setattr(primes, "_pollard_brent", no_rho)
        for n, want in cases:
            assert factor_map(n) == want, n

    def test_both_primes_smooth_falls_back_to_rho(self, monkeypatch):
        """When q - 1 and r - 1 both divide lcm(1..B1) the p-1 gcd is q*r
        itself, and rho splits it."""
        calls = []
        power, rho = primes._pm1, primes._pollard_brent

        def counted_power(n):
            calls.append(("p-1", n, power(n)))
            return calls[-1][2]

        def counted_rho(n):
            calls.append(("rho", n))
            return rho(n)

        monkeypatch.setattr(primes, "_pm1", counted_power)
        monkeypatch.setattr(primes, "_pollard_brent", counted_rho)
        rng = random.Random(36)
        for _ in range(3):
            q, r = _smooth_prime(rng, 9), _smooth_prime(rng, 10)
            calls.clear()
            assert factor_map(q * r) == {q: 1, r: 1}
            assert calls == [("p-1", q * r, q * r), ("rho", q * r)]


class TestPollardBrent:
    def test_splits_every_small_odd_composite(self):
        # About 500 of these end a block with the product 0 mod n and find
        # their factor by the backtrack through that block.
        for n in range(9, 20_000, 2):
            if not is_probable_prime(n):
                d = primes._pollard_brent(n)
                assert 1 < d < n and n % d == 0, n

    def test_backtrack_is_bounded(self, monkeypatch):
        # A gcd that reports the first block's product as 0 mod n and then
        # no common factor: the backtrack gives up after the 128 steps a
        # block can hold, instead of spinning.
        calls = []

        def lying_gcd(a, n):
            calls.append(a)
            return n if len(calls) == 1 else 1

        monkeypatch.setattr(primes, "gcd", lying_gcd)
        with pytest.raises(InternalInconsistency, match="^rho's backtrack found no factor of 10403"):
            primes._pollard_brent(10403)
        assert len(calls) == 1 + 128
