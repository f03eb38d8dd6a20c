"""Membership decision for the set of achievable determinant values.

The value set: even integers exactly when divisible by 2**10 (0 included);
odd integers when congruent 1 mod 8, or congruent 5 mod 8 and of the form
m*p**2 with p = 7 mod 8 prime (m = n/p**2 is then automatically 5 mod 8,
because p**2 = 1 mod 16).  Negative integers are classified by their
residue class; the witness families realize negative values through their
integer parameter, and every Achievable answer is backed by a verified
certificate.
"""

import enum
import operator
from typing import NamedTuple, Union

from . import primes
from .witness import (
    WitnessCertificate,
    witness_even,
    witness_odd_1mod8,
    witness_odd_5mod8,
)


class Reason(enum.Enum):
    EVEN_NOT_MULTIPLE_OF_1024 = "EvenNotMultipleOf1024"
    ODD_CONGRUENT_3_MOD_4 = "OddCongruent3Mod4"
    FIVE_MOD_8_NO_ADMISSIBLE_PRIME_SQUARE = "FiveMod8NoAdmissiblePrimeSquare"


class EvenFamily(NamedTuple):
    t: int  # n = 1024 * t


class Odd1Mod8(NamedTuple):
    pass


class Odd5Mod8(NamedTuple):
    p: int
    m: int  # n = m * p**2


Recipe = Union[EvenFamily, Odd1Mod8, Odd5Mod8]


class Classification(NamedTuple):
    n: int
    recipe: Recipe | None
    reason: Reason | None

    @property
    def achievable(self) -> bool:
        return self.recipe is not None


class FactorizationResult(NamedTuple):
    """Signed prime factorization of n; ``certain`` is False when primality
    of some factor relied on probabilistic Miller-Rabin rounds."""

    sign: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending

    certain: bool


def factorize(n: int) -> FactorizationResult:
    """Deterministic factorization of n != 0 (desk scale)."""
    factors = tuple(primes.prime_powers(n))
    return FactorizationResult(
        sign=-1 if n < 0 else 1,
        factors=factors,
        certain=all(p < primes.MR_DETERMINISTIC_BOUND for p, _ in factors),
    )


def classify(n: int) -> Classification:
    """Decide achievability of n; residues are mathematical (in 0..7).
    n must be an integer: any other type raises TypeError.

    A 5 mod 8 target is achievable exactly when some prime p = 7 mod 8 has
    p**2 | n, so a refusal needs no split of what trial division leaves:
    only a proof that no square divides it.  primes.square_candidates skips
    the split when that cofactor m is no perfect square, is below
    464,159**3 (just above 10**17), and is prime or has no prime below the
    least B of 10**4, 10**5, 215,444 and 464,159 with m < B**3 (one gcd
    past 10**4): then m is 1, a prime or a product of two distinct primes.
    Otherwise m is split, and the answer is the first admissible prime
    found."""
    n = operator.index(n)
    if n % 2 == 0:
        if n % 1024 == 0:
            return Classification(n, EvenFamily(t=n // 1024), None)
        return Classification(n, None, Reason.EVEN_NOT_MULTIPLE_OF_1024)
    r = n % 8
    if r == 1:
        return Classification(n, Odd1Mod8(), None)
    if r in (3, 7):  # n = 3 mod 4
        return Classification(n, None, Reason.ODD_CONGRUENT_3_MOD_4)
    # r == 5: need some prime p = 7 mod 8 with p**2 | n; take the smallest.
    # The primes come in ascending order and lazily, so the first that
    # qualifies is the answer and nothing past it is split.
    for p, e in primes.square_candidates(n):
        if e >= 2 and p % 8 == 7:
            return Classification(n, Odd5Mod8(p=p, m=n // (p * p)), None)
    return Classification(n, None, Reason.FIVE_MOD_8_NO_ADMISSIBLE_PRIME_SQUARE)


def classify_and_witness(n: int) -> WitnessCertificate | Classification:
    """A verified certificate when n is achievable, otherwise the
    NotAchievable classification.  n must be an integer: any other type
    raises TypeError."""
    n = operator.index(n)
    c = classify(n)
    if c.recipe is None:
        return c
    if isinstance(c.recipe, EvenFamily):
        return witness_even(n)
    if isinstance(c.recipe, Odd1Mod8):
        return witness_odd_1mod8(n)
    return witness_odd_5mod8(n, c.recipe.p)
