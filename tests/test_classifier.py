import random
from math import prod

import pytest

from q16det import primes
from q16det.classifier import (
    Classification,
    EvenFamily,
    Odd1Mod8,
    Odd5Mod8,
    Reason,
    classify,
    classify_and_witness,
    factorize,
)
from q16det.primes import primes_below
from q16det.witness import WitnessCertificate
from test_primes import _next_prime


class TestFactorize:
    def test_examples(self):
        assert factorize(245).factors == ((5, 1), (7, 2))
        f = factorize(-147)
        assert f.sign == -1 and f.factors == ((3, 1), (7, 2))
        assert f.sign * prod(p**e for p, e in f.factors) == -147
        assert factorize(1024).factors == ((2, 10),)

    def test_units(self):
        assert factorize(1).factors == ()
        assert factorize(-1).sign == -1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_certainty_flag_and_large_semiprime(self):
        p, q = 1_000_003, 1_000_033
        f = factorize(p * q)
        assert f.factors == ((p, 1), (q, 1))
        assert f.certain

    def test_random_reconstruction(self):
        rng = random.Random(8)
        for _ in range(50):
            n = rng.randint(2, 10**9) * rng.choice((1, -1))
            f = factorize(n)
            assert f.sign * prod(p**e for p, e in f.factors) == n


class TestClassify:
    @pytest.mark.parametrize(
        "n,recipe",
        [
            (17, Odd1Mod8()),
            (245, Odd5Mod8(p=7, m=5)),
            (-7, Odd1Mod8()),
            (0, EvenFamily(t=0)),
            (1024, EvenFamily(t=1)),
            (-1024 * 5, EvenFamily(t=-5)),
            (-147, Odd5Mod8(p=7, m=-3)),
            (2645, Odd5Mod8(p=23, m=5)),
        ],
    )
    def test_achievable(self, n, recipe):
        c = classify(n)
        assert c.achievable and c.recipe == recipe

    @pytest.mark.parametrize(
        "n,reason",
        [
            (512, Reason.EVEN_NOT_MULTIPLE_OF_1024),
            (12, Reason.EVEN_NOT_MULTIPLE_OF_1024),
            (2, Reason.EVEN_NOT_MULTIPLE_OF_1024),
            (3, Reason.ODD_CONGRUENT_3_MOD_4),
            (7, Reason.ODD_CONGRUENT_3_MOD_4),
            (-9, Reason.ODD_CONGRUENT_3_MOD_4),
            (13, Reason.FIVE_MOD_8_NO_ADMISSIBLE_PRIME_SQUARE),
            (5, Reason.FIVE_MOD_8_NO_ADMISSIBLE_PRIME_SQUARE),
            (-3, Reason.FIVE_MOD_8_NO_ADMISSIBLE_PRIME_SQUARE),
            (21, Reason.FIVE_MOD_8_NO_ADMISSIBLE_PRIME_SQUARE),  # 3 * 7, 7^1 only
            (5 * 17 * 17, Reason.FIVE_MOD_8_NO_ADMISSIBLE_PRIME_SQUARE),
        ],
    )
    def test_not_achievable(self, n, reason):
        c = classify(n)
        assert not c.achievable and c.reason == reason

    def test_smallest_admissible_prime_chosen(self):
        n = 5 * 7 * 7 * 23 * 23
        c = classify(n)
        assert isinstance(c.recipe, Odd5Mod8) and c.recipe.p == 7

    def test_small_admissible_prime_needs_no_rho(self, monkeypatch):
        # 5*p**2*q1*q2 with a 23-digit q1*q2: trial division meets p first,
        # one of the primes it tests one by one (7) or one the gcd with the
        # product of the others finds (71, 9967), so the answer needs no
        # split of q1*q2.
        def no_rho(n):
            raise AssertionError(f"pollard rho called on {n}")

        monkeypatch.setattr(primes, "_pollard_brent", no_rho)
        rng = random.Random(33)
        for _ in range(3):
            q1 = _next_prime(rng.randrange(10**11, 10**12))
            q2 = _next_prime(rng.randrange(10**11, 10**12), residue=q1 % 8)
            for p in (7, 71, 9967):
                n = 5 * p**2 * q1 * q2
                assert classify(n).recipe == Odd5Mod8(p=p, m=5 * q1 * q2)

    def test_cube_cofactor_needs_no_rho(self, monkeypatch):
        # 3*p**3 and p**5 with p the first prime = 7 mod 8 above 10**12: the
        # cofactor left by trial division is a perfect power.
        def no_rho(n):
            raise AssertionError(f"pollard rho called on {n}")

        monkeypatch.setattr(primes, "_pollard_brent", no_rho)
        p = _next_prime(10**12, residue=7)
        assert classify(3 * p**3).recipe == Odd5Mod8(p=p, m=3 * p)
        assert factorize(p**5).factors == ((p, 5),)

    def test_matches_complete_factorization(self):
        # The oracle: the smallest p = 7 mod 8 with p**2 | n in the complete
        # factorization, on a small p**2 times a large cofactor, p**2, p**3
        # and p**5 with p > 10**4, (p*q)**3, two admissible squares above
        # 10**4, and a semiprime refusal.
        rng = random.Random(17)
        sevens = [p for p in primes_below(10_000) if p % 8 == 7]
        for _ in range(10):
            p = rng.choice(sevens)
            big = _next_prime(rng.randrange(10**4, 10**6), residue=7)
            big2 = _next_prime(rng.randrange(10**4, 10**6), residue=7)
            r = _next_prime(rng.randrange(10**4, 10**6))
            s = _next_prime(rng.randrange(10**4, 10**6))
            q1 = _next_prime(rng.randrange(10**6, 10**8))
            q2 = _next_prime(rng.randrange(10**6, 10**8), residue=(5 * q1) % 8)

            def odd(residue):  # 8*k + residue with k seeded
                return 8 * rng.randrange(-1000, 1000) + residue

            cases = [
                (8 * rng.randrange(10**12, 10**13) + 5) * p * p,
                odd(5) * big * big,
                odd(5 * big % 8) * big**3,
                odd(5 * r % 8) * r**3,
                odd(5 * r % 8) * r**5,
                odd(5 * r * s % 8) * (r * s) ** 3,
                odd(5 * big * r % 8) * (big * r) ** 3,
                odd(5) * big**2 * big2**2,
                q1 * q2,
            ]
            for n in cases:
                _check_against_factorization(n)
        # The cofactor shapes of the trial bounds, B = 10**4 and 10**5, each
        # times a seeded 5 mod 8 multiplier whose primes trial division
        # removes: the shapes the bounds settle, and the ones next to them
        # that they must not.
        rng = random.Random(38)
        for _ in range(6):
            for m in _bound_shapes(rng):
                _check_against_factorization(_five_mod_8_multiple(rng, m))

    def test_bound_settled_refusals_split_nothing(self, monkeypatch):
        # Below 10**12, and below 10**15 with no prime under 10**5, a
        # cofactor that is no square is refused without rho or p-1.
        def no_split(n):
            raise AssertionError(f"split of {n}")

        monkeypatch.setattr(primes, "_pollard_brent", no_split)
        monkeypatch.setattr(primes, "_pm1", no_split)
        rng = random.Random(39)
        for _ in range(6):
            q1 = _next_prime(rng.randrange(10**4, 10**6))
            q2 = _next_prime(rng.randrange(10**5, 10**6))
            q3 = _next_prime(rng.randrange(10**5, 10**7))
            q4 = _next_prime(rng.randrange(10**7, 10**8))
            below = [q1 * q2, _next_prime(rng.randrange(10**11, 10**12))]
            between = [q3 * q4, _next_prime(rng.randrange(10**12, 10**15))]
            assert all(m < 10**12 for m in below) and all(10**12 <= m < 10**15 for m in between)
            for m in below + between:
                assert primes._bound_proves_squarefree(m), m
                n = _five_mod_8_multiple(rng, m)
                assert classify(n).reason == Reason.FIVE_MOD_8_NO_ADMISSIBLE_PRIME_SQUARE, n

    def test_automatic_residue_lemma(self):
        # For n = 5 mod 8 and p = 7 mod 8 with p^2 | n: n / p^2 = 5 mod 8.
        rng = random.Random(77)
        sevens = [p for p in primes_below(3000) if p % 8 == 7]
        for _ in range(200):
            p = rng.choice(sevens)
            m = 8 * rng.randint(-1000, 1000) + 5
            n = m * p * p
            assert n % 8 == 5
            assert (n // (p * p)) % 8 == 5
            c = classify(n)
            assert c.achievable

    def test_negative_even(self):
        assert classify(-2048).achievable
        assert not classify(-512).achievable


def _check_against_factorization(n):
    """classify(n) for n = 5 mod 8 against the smallest p = 7 mod 8 with
    p**2 | n in the complete factorization."""
    assert n % 8 == 5
    admissible = [q for q, e in factorize(n).factors if e >= 2 and q % 8 == 7]
    c = classify(n)
    if admissible:
        p_min = min(admissible)
        assert c.recipe == Odd5Mod8(p=p_min, m=n // p_min**2), n
    else:
        assert c.reason == Reason.FIVE_MOD_8_NO_ADMISSIBLE_PRIME_SQUARE, n


def _five_mod_8_multiple(rng, m):
    """k * m = 5 mod 8 for odd m, with |k| < 8000 seeded: k's primes are all
    below 10**4, so trial division leaves the cofactor m."""
    return (8 * rng.randrange(-1000, 1000) + 5 * m % 8) * m


def _bound_shapes(rng):
    """Seeded odd cofactors of every shape around the trial bounds."""
    q = _next_prime(rng.randrange(10**6, 10**7))
    r = _next_prime(rng.randrange(10**5, 10**7))
    between = _next_prime(rng.randrange(10**4, 10**5))  # a prime in [10**4, 10**5)
    shapes = [
        _next_prime(rng.randrange(10**5, 10**12 // q - 1000)) * q,  # pq below 10**12
        r * _next_prime(rng.randrange(10**7, 10**15 // r - 1000)),  # pq in [10**12, 10**15)
        between * q,  # pq below 10**12 with a prime in [10**4, 10**5)
        between * _next_prime(rng.randrange(10**8, 10**10)),  # pq in [10**12, 10**15), ditto
        q * _next_prime(rng.randrange(10**5, 10**6)) * _next_prime(rng.randrange(10**5, 10**6)),
    ]
    for residue in (7, 3):
        p_small = _next_prime(rng.randrange(10**4, 10**5), residue)  # p**2 below 10**12
        p_mid = _next_prime(rng.randrange(10**6, 3 * 10**7), residue)  # p**2 in [10**12, 10**15)
        # p**2 * q in [10**12, 10**15), both primes in [10**4, 10**5)
        shapes += [p_small**2, p_mid**2, p_small**2 * _next_prime(rng.randrange(10**4, 10**5))]
        # p**2 * q in [10**15, 10**16) with no prime below 10**5
        p_big = _next_prime(rng.randrange(10**5, 2 * 10**5), residue)
        lo = max(10**5, 10**15 // p_big**2 + 1)
        shapes.append(p_big**2 * _next_prime(rng.randrange(lo, 10**16 // p_big**2 - 1000)))
    return shapes


@pytest.mark.parametrize("bad", [245.0, 17.0, 2.5, "245", None])
@pytest.mark.parametrize("entry", [classify, classify_and_witness])
def test_non_integer_target_rejected(entry, bad):
    # classify(245.0) used to answer Odd5Mod8(p=7, m=5.0).
    with pytest.raises(TypeError):
        entry(bad)


class TestClassifyAndWitness:
    def test_achievable_produces_verified_certificate(self):
        for n in (17, 245, 0, -3072, -147, 1, 637):
            result = classify_and_witness(n)
            assert isinstance(result, WitnessCertificate)
            assert result.verified and result.n == n

    def test_not_achievable_returns_classification(self):
        result = classify_and_witness(12)
        assert isinstance(result, Classification)
        assert not result.achievable

    def test_small_range_roundtrip(self):
        count = 0
        for n in range(-1500, 1501):
            result = classify_and_witness(n)
            if isinstance(result, WitnessCertificate):
                assert result.verified and result.n == n
                count += 1
        # 1 mod 8 plus multiples of 49/529 with the right residue, plus evens
        assert count > 350
