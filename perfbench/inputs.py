"""Seeded inputs of the four workloads.

Each generator yields an endless, prefix-stable request sequence, so a run
that stops at a deadline has processed a prefix of the same sequence for
the same seed.  Where the cost of a request grows steeply with a drawn
size (the prime p of an m*p**2 target, the digits of a semiprime, the
support of a scan), the size is spread with a Weyl sequence
u_i = frac(u_0 + i * (sqrt(5) - 1) / 2) rather than drawn independently:
every stretch of the sequence then covers the range evenly, so runs of
different seeds carry the same mix of cheap and expensive requests and the
same tail.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator

from oracle import next_prime

_GOLDEN = (math.sqrt(5) - 1) / 2

CROSSCHECK_HEIGHTS = (1, 9, 10**6)
CROSSCHECK_BATCH = 256

# All 171 two-value supports in [-9, 9], ordered by spread; the Weyl
# stride below walks this order evenly, since a scan's cost grows with the
# size of the values.
SCAN_SUPPORTS = sorted(
    itertools.combinations(range(-9, 10), 2), key=lambda s: (s[1] - s[0], s)
)

# One direct pass is 2**16 16x16 eliminations (about 15 s in the pure lane),
# so a run holds a single pass and its support must not change the amount
# of arithmetic between seeds.  {0, 1} and {-1, 0} give the matrices M and
# -M: the same elimination on numbers of the same size.
SCAN_DIRECT_SUPPORTS = ((0, 1), (-1, 0))

# Target classes of the certify mix, per block of 20 targets.
CERTIFY_BLOCK = (
    ("even_refused", 1),
    ("odd_3mod4_refused", 1),
    ("family_even", 5),
    ("family_1mod8", 6),
    ("mp2", 4),
    ("semiprime_refused", 2),
    ("mr2_refused", 1),
)
FAMILY_MAX = 10**15
MP2_P_RANGE = (7, 10**9)
MR2_R_RANGE = (11, 10**9)
SEMIPRIME_DIGITS = range(12, 21)


class _Weyl:
    """Low-discrepancy stream of numbers in [0, 1) with a seeded start."""

    def __init__(self, rng: random.Random):
        self.u = rng.random()

    def __next__(self) -> float:
        self.u = (self.u + _GOLDEN) % 1.0
        return self.u


def _log_uniform(u: float, lo: int, hi: int) -> int:
    return int(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def crosscheck_requests(seed: int) -> Iterator[tuple[int, int, int]]:
    """(count, height, batch seed) of seeded random_crosscheck batches,
    cycling through the heights."""
    rng = random.Random(seed)
    for i in itertools.count():
        yield CROSSCHECK_BATCH, CROSSCHECK_HEIGHTS[i % 3], rng.getrandbits(48)


def scan_requests(seed: int) -> Iterator[tuple[int, int]]:
    """Two-value supports, a seeded walk through SCAN_SUPPORTS."""
    rng = random.Random(seed)
    offset = rng.randrange(len(SCAN_SUPPORTS))
    stride = round(_GOLDEN * len(SCAN_SUPPORTS))  # 106, coprime with 171
    for i in itertools.count():
        yield SCAN_SUPPORTS[(offset + i * stride) % len(SCAN_SUPPORTS)]


def scan_direct_requests(seed: int) -> Iterator[tuple[int, int]]:
    rng = random.Random(seed)
    while True:
        yield rng.choice(SCAN_DIRECT_SUPPORTS)


def one_value_supports(seed: int) -> Iterator[tuple[int]]:
    rng = random.Random(seed)
    while True:
        yield (rng.randint(-9, 9),)


def semiprime(rng: random.Random, digits: int) -> int:
    """A product of two distinct primes of about equal size with exactly
    ``digits`` digits, congruent 5 mod 8."""
    lo, hi = 10 ** (digits - 1), 10**digits
    while True:
        r1, r2 = rng.choice(((1, 5), (5, 1), (3, 7), (7, 3)))
        q1 = next_prime(int(math.isqrt(lo) * (1 + 2 * rng.random())), r1)
        q2 = next_prime(-(-lo // q1) + rng.randrange(max(1, lo // q1)), r2)
        n = q1 * q2
        if lo <= n < hi and q1 != q2:
            return n


def certify_requests(seed: int) -> Iterator[tuple[str, int, int]]:
    """(class, target, p) triples; p is the admissible prime of an m*p**2
    target and 0 otherwise.  Blocks of 20 targets follow CERTIFY_BLOCK in
    a seeded order."""
    rng = random.Random(seed)
    p_u, r_u, d_u = _Weyl(rng), _Weyl(rng), _Weyl(rng)
    block = [name for name, k in CERTIFY_BLOCK for _ in range(k)]
    while True:
        rng.shuffle(block)
        for kind in block:
            sign = rng.choice((1, -1))
            p = 0
            if kind == "even_refused":
                n = sign * (2 ** rng.randrange(1, 10)) * (2 * rng.randrange(1, 10**11) + 1)
            elif kind == "odd_3mod4_refused":
                n = 4 * rng.randrange(-(10**14), 10**14) + 3
            elif kind == "family_even":
                n = sign * 1024 * _log_uniform(rng.random(), 1, FAMILY_MAX // 1024)
            elif kind == "family_1mod8":
                n = 8 * sign * _log_uniform(rng.random(), 1, FAMILY_MAX // 8) + 1
            elif kind == "mp2":
                p = next_prime(_log_uniform(next(p_u), *MP2_P_RANGE), 7)
                # m = 5 mod 8 below 245 = 5 * 7**2 holds no square of a prime
                # = 7 mod 8, so p is the prime the classifier must find.
                m = 5 + 8 * rng.randrange(30)
                n = m * p * p
            elif kind == "semiprime_refused":
                digits = SEMIPRIME_DIGITS[int(next(d_u) * len(SEMIPRIME_DIGITS))]
                n = semiprime(rng, digits)
            else:  # mr2_refused: r = 3 mod 8 squared, no admissible square
                r = next_prime(_log_uniform(next(r_u), *MR2_R_RANGE), 3)
                m = 5 + 8 * rng.randrange(30)
                n = m * r * r
            yield kind, n, p
