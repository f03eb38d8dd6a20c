import random
from math import isqrt

import pytest

from q16det import primes
from q16det.primes import factor_map, is_probable_prime, primes_below


def _next_prime(n, residue=None):
    """The first prime >= n, congruent to ``residue`` mod 8 when given."""
    while not is_probable_prime(n) or (residue is not None and n % 8 != residue):
        n += 1
    return n


def test_below_two():
    assert [n for n in range(-3, 2) if is_probable_prime(n)] == []
    assert [primes_below(n) for n in (-1, 0, 1, 2, 3)] == [[], [], [], [], [2]]


class TestFactorMap:
    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="^cannot factor 0$"):
            factor_map(0)

    def test_square_cofactors_split_without_rho(self, monkeypatch):
        """p**2, m*p**2, p**3, p**4*q**2 and (p*q)**2 factor exactly, and rho
        never sees a perfect square."""
        rho = primes._pollard_brent

        def rho_on_non_squares(n):
            assert isqrt(n) ** 2 != n, f"pollard rho called on the square {n}"
            return rho(n)

        monkeypatch.setattr(primes, "_pollard_brent", rho_on_non_squares)
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
                p**4 * q * q: {p: 4, q: 2},
                (p * q) ** 2: {p: 2, q: 2},
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
        """factor_map against sympy's factorint on seeded inputs below 10**18
        and on the certify workload's m*p**2 and m*r**2 forms."""
        sympy = pytest.importorskip("sympy")
        rng = random.Random(18)
        inputs = [rng.randrange(2, 10**18) for _ in range(200)]
        for _ in range(20):
            m = 5 + 8 * rng.randrange(30)
            inputs.append(m * _next_prime(rng.randrange(7, 10**9), 7) ** 2)
            inputs.append(m * _next_prime(rng.randrange(11, 10**9), 3) ** 2)
        for n in inputs:
            assert factor_map(n) == sympy.factorint(n), n
