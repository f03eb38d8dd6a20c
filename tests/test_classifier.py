import math
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
        # The cofactor shapes of the squarefree ladder's steps, each times a
        # seeded 5 mod 8 multiplier whose primes trial division removes: the
        # shapes the ladder settles, and the ones next to them that it must
        # not.
        rng = random.Random(38)
        for _ in range(6):
            for m in _bound_shapes(rng):
                _check_against_factorization(_five_mod_8_multiple(rng, m))

    def test_bound_settled_refusals_split_nothing(self, monkeypatch):
        # Below 10**12, and below B**3 with no prime under B at each later
        # step B, a cofactor that is no square is refused without rho or
        # p-1.  Next to each q*r just below B**3, a q*r*s and a q**2*r whose
        # smallest prime lies in the step's new range [lo, B) still split.
        def no_split(n):
            raise AssertionError(f"split of {n}")

        monkeypatch.setattr(primes, "_pollard_brent", no_split)
        monkeypatch.setattr(primes, "_pm1", no_split)
        rng = random.Random(39)
        for _ in range(6):
            q1 = _next_prime(rng.randrange(10**4, 10**6))
            q2 = _next_prime(rng.randrange(10**5, 10**6))
            below = [q1 * q2, _next_prime(rng.randrange(10**11, 10**12))]
            assert all(m < 10**12 for m in below)
            settled = below + [_next_prime(rng.randrange(10**12, 10**15))]
            for lo, hi in zip(STEPS, STEPS[1:]):
                q = _next_prime(rng.randrange(hi, 2 * hi))
                settled.append(_just_below_cube(q, hi))
                assert 10**12 <= lo**3 <= settled[-1] < hi**3, settled[-1]
                for m in (_three_primes(rng, lo, hi), _square_times_prime(rng, lo, hi, 7)):
                    assert lo**3 <= m < hi**3, m
                    assert not primes._bound_proves_squarefree(m), m
                    with pytest.raises(AssertionError, match="^split of "):
                        classify(_five_mod_8_multiple(rng, m, squarefree=True))
            for m in settled:
                assert primes._bound_proves_squarefree(m), m
                n = _five_mod_8_multiple(rng, m, squarefree=True)
                assert classify(n).reason == Reason.FIVE_MOD_8_NO_ADMISSIBLE_PRIME_SQUARE, n

    def test_prime_cofactor_takes_no_gcd(self, monkeypatch):
        # Miller-Rabin settles a prime cofactor in [10**15, 10**17) before
        # the step's gcd: the gcd is patched to raise on the ladder's
        # products (trial division's own gcd still runs), and rho and p-1
        # to raise on anything.
        ladder = [primes._step_product(step) for step in range(1, len(STEPS))]

        def gcd_off_the_ladder(a, b):
            if any(a is p or b is p for p in ladder):
                raise AssertionError(f"the ladder's gcd on {min(a, b)}")
            return math.gcd(a, b)

        def no_split(n):
            raise AssertionError(f"split of {n}")

        monkeypatch.setattr(primes, "gcd", gcd_off_the_ladder)
        monkeypatch.setattr(primes, "_pollard_brent", no_split)
        monkeypatch.setattr(primes, "_pm1", no_split)
        rng = random.Random(40)
        for lo, hi in ((10**15, 10**16), (10**16, 10**17)):
            for _ in range(3):
                q = _next_prime(rng.randrange(lo, hi - 10**6))
                assert primes._bound_proves_squarefree(q), q
                n = _five_mod_8_multiple(rng, q, squarefree=True)
                assert classify(n).reason == Reason.FIVE_MOD_8_NO_ADMISSIBLE_PRIME_SQUARE, n
        # A composite cofactor there still takes the gcd.
        m = _just_below_cube(_next_prime(10**6), 464_159)
        with pytest.raises(AssertionError, match="^the ladder's gcd on "):
            primes._bound_proves_squarefree(m)

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


def _five_mod_8_multiple(rng, m, squarefree=False):
    """k * m = 5 mod 8 for odd m, with |k| < 8000 seeded, and squarefree
    when asked: k's primes are all below 10**4, so trial division leaves
    the cofactor m."""
    while True:
        k = 8 * rng.randrange(-1000, 1000) + 5 * m % 8
        if not squarefree or max(primes.factor_map(k).values(), default=1) == 1:
            return k * m


#: The squarefree ladder's steps B, each the least with B**3 >= 10**12,
#: 10**15, 10**16 and 10**17.
STEPS = (10**4, 10**5, 215_444, 464_159)


def _prev_prime(n):
    """The last prime <= n."""
    while not primes.is_probable_prime(n):
        n -= 1
    return n


def _just_below_cube(q, b):
    """q * r for the last prime r with q * r < b**3."""
    return q * _prev_prime((b**3 - 1) // q)


def _three_primes(rng, lo, hi):
    """q * r * s, one prime from each third of [lo, hi)."""
    third = (hi - lo) // 3
    starts = (lo, lo + third, lo + 2 * third)
    return prod(_next_prime(rng.randrange(start, start + third - 1000)) for start in starts)


def _square_times_prime(rng, lo, hi, residue):
    """p**2 * r in [lo**3, hi**3) with p = residue mod 8 in [lo, hi) its
    smallest prime."""
    p = _next_prime(rng.randrange(lo, (lo + hi) // 2), residue)
    return p * p * _next_prime(rng.randrange(p + 1, hi**3 // p**2 - 10**4))


def _bound_shapes(rng):
    """Seeded odd cofactors of every shape around the squarefree ladder."""
    q = _next_prime(rng.randrange(10**6, 10**7))
    between = _next_prime(rng.randrange(10**4, 10**5))  # a prime in [10**4, 10**5)
    shapes = [
        _next_prime(rng.randrange(10**5, 10**12 // q - 1000)) * q,  # pq below 10**12
        between * q,  # pq below 10**12 with a prime in [10**4, 10**5)
    ]
    for residue in (7, 3):
        p_small = _next_prime(rng.randrange(10**4, 10**5), residue)  # p**2 below 10**12
        shapes.append(p_small**2)
    # At each gcd step B over the step below, lo: q*r just below B**3 with
    # no prime below B, q*r with q in [lo, B), q*r*s with all three there,
    # a prime, p**2, and p**2*r with p in [lo, B), all in [lo**3, B**3).
    for lo, hi in zip(STEPS, STEPS[1:]):
        q = _next_prime(rng.randrange(lo, hi - 1000))
        shapes += [
            _just_below_cube(_next_prime(rng.randrange(hi, 2 * hi)), hi),
            q * _next_prime(rng.randrange(lo**3 // q + 1, hi**3 // q - 10**4)),
            _three_primes(rng, lo, hi),
            _next_prime(rng.randrange(lo**3, hi**3 - 10**4)),
        ]
        for residue in (7, 3):
            roots = math.isqrt(lo**3) + 1, math.isqrt(hi**3) - 1000
            p = _next_prime(rng.randrange(*roots), residue)  # p**2 in [lo**3, hi**3)
            shapes += [p**2, _square_times_prime(rng, lo, hi, residue)]
    # Past the ladder's top, top = 464,159**3 (just above 10**17): p**2*r in
    # [top, 10**18) with no prime below 464,159, and q*r just above top.
    top = STEPS[-1] ** 3
    for residue in (7, 3):
        p = _next_prime(rng.randrange(STEPS[-1], 6 * 10**5), residue)
        shapes.append(p * p * _next_prime(rng.randrange(p + 1, 10**18 // p**2 - 10**4)))
    q = _next_prime(rng.randrange(STEPS[-1], 10**6))
    shapes.append(q * _next_prime(top // q + 1))
    assert all(m % 2 and m > 1 for m in shapes)
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
