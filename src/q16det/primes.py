"""Primality testing and integer factorization at desk scale.

Deterministic Miller-Rabin with the 12-base set that is exact below
3.3 * 10**24; inputs above that bound fall back to the same bases plus extra
fixed witnesses and are flagged as probabilistic.  Composites are split by
trial division below 10**4, then the cofactor by an exact integer k-th root
when it is a perfect power (the p**2 of m*p**2, the p**3 of m*p**3), and
otherwise by one Pollard p-1 stage-1 power (Pollard 1974) with the fixed
bound B1 = 3000 on cofactors of at least 50 bits, and where that finds no
proper factor by Brent's Pollard rho (Brent 1980) with fixed parameters:
results reproduce.  ``square_candidates`` skips the split of a cofactor
up to about 10**17 that the squarefree ladder proves squarefree.
"""

from __future__ import annotations

from collections.abc import Generator, Iterator
from functools import cache
from itertools import compress
from math import gcd, isqrt, lcm, prod

from .errors import InternalInconsistency, int_text

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: Below this bound the Miller-Rabin bases above are a proof of primality.
MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

#: Trial division divides out every prime below _TRIAL_BOUND: it tests the
#: primes of _PLAIN_TRIAL one by one, then asks one gcd which of the others
#: divide n.
_TRIAL_BOUND = 10_000
_PLAIN_TRIAL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

#: The squarefree ladder, B**3 >= 10**12, 10**15, 10**16 and 10**17:
#: _bound_proves_squarefree takes, at the least step B with m < B**3, one
#: gcd with the product of the primes in [_TRIAL_BOUND, B).
_SQUAREFREE_STEPS = (_TRIAL_BOUND, 100_000, 215_444, 464_159)

#: Pollard p-1 stage 1 raises 2 to lcm(1..B1) modulo each composite cofactor
#: of at least this many bits; _cofactor_powers says how both were chosen.
_PM1_B1 = 3000
_PM1_MIN_BITS = 50


@cache
def _trial_rest() -> tuple[tuple[int, ...], int]:
    """The primes below _TRIAL_BOUND past _PLAIN_TRIAL, and their product."""
    rest = tuple(primes_below(_TRIAL_BOUND)[len(_PLAIN_TRIAL) :])
    return rest, prod(rest)


@cache
def _step_product(step: int) -> int:
    """The product of the primes in [_TRIAL_BOUND, _SQUAREFREE_STEPS[step]):
    the step below's product times a balanced product of the new primes,
    read from a sieve below the step's B that is dropped once read."""
    if step == 0:
        return 1
    lo, hi = _SQUAREFREE_STEPS[step - 1], _SQUAREFREE_STEPS[step]
    layer = list(compress(range(lo, hi), memoryview(_sieve(hi))[lo:hi]))
    # variant: len(layer), which halves on every pass
    while len(layer) > 1:
        layer = [prod(layer[i : i + 2]) for i in range(0, len(layer), 2)]
    return _step_product(step - 1) * layer[0]


@cache
def _pm1_exponent() -> int:
    return lcm(*range(1, _PM1_B1 + 1))


def _sieve(limit: int) -> bytearray:
    """A plain sieve for limit > 2: byte i is 1 exactly when i is prime."""
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return sieve


def primes_below(limit: int) -> list[int]:
    """All primes < limit by a plain sieve."""
    if limit <= 2:
        return []
    return list(compress(range(limit), _sieve(limit)))


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; exact for n < MR_DETERMINISTIC_BOUND."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    # variant: d, halved on every pass
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR_BASES
    if n >= MR_DETERMINISTIC_BOUND:
        bases = _MR_BASES + (41, 43, 47, 53, 59, 61, 67, 71)
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of odd composite n (deterministic parameters)."""
    if n % 2 == 0:
        return 2
    x0 = 2
    for c in range(1, 1000):
        y, r, q = x0, 1, 1
        g = 1
        x = y
        # variant: none; unbounded by design until rho has a work budget (ROADMAP Direction 5)
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            # variant: r - k, which falls by 128 on every pass
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # The product before the last block was prime to n, so one of
            # the block's at most 128 steps shares a factor with n: take
            # them again one at a time.
            y = ys
            for _ in range(128):
                y = (y * y + c) % n
                if (g := gcd(abs(x - y), n)) > 1:
                    break
            else:
                raise InternalInconsistency(
                    f"rho's backtrack found no factor of {int_text(n)} in the last block"
                )
        if 1 < g < n:
            return g
    raise RuntimeError(f"pollard rho failed on {n}")  # pragma: no cover


def _iroot(m: int, k: int) -> int:
    """floor(m ** (1/k)) for m >= 1 and k >= 2, by Newton's method from
    above: each step from r > root lands on an integer in [root, r)."""
    r = 1 << -(-m.bit_length() // k)  # 2**ceil(bits/k) > m ** (1/k)
    # variant: r, which falls on every pass and stays >= the root
    while (s := ((k - 1) * r + m // r ** (k - 1)) // k) < r:
        r = s
    return r


def _trial_powers(n: int) -> Generator[tuple[int, int], None, int]:
    """Yield (p, e) for each prime p below _TRIAL_BOUND with p**e exactly
    dividing n != 0, p ascending, and return the cofactor: |n| without
    them.  n = 0 raises ValueError on the first step.  Lazy: a prime is
    yielded as soon as it is divided out, so a caller that stops early
    divides nothing past it.  The cofactor is 1, a prime, or has no prime
    below _TRIAL_BOUND.

    The primes 2 to 53 are tested one by one, stopping once p * p > n.  Past
    them, g = gcd(n, product of the other primes below _TRIAL_BOUND) names
    the trial primes left to find, and the walk ends when g is 1: an n with
    no such prime skips about 1,200 divisions."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    for p in _PLAIN_TRIAL:
        if p * p > n:
            return n
        if n % p == 0:
            e = 0
            # variant: n, divided by p on every pass
            while n % p == 0:
                n //= p
                e += 1
            yield p, e
    # g is the product of the primes of rest still to come that divide n.
    rest, rest_product = _trial_rest()
    g = gcd(n, rest_product)
    for p in rest if g > 1 else ():
        if p * p > n:
            break
        if g % p == 0:
            e = 0
            # variant: n, divided by p on every pass
            while n % p == 0:
                n //= p
                e += 1
            yield p, e
            g //= p
            if g == 1:
                break
    return n


def _bound_proves_squarefree(m: int) -> bool:
    """True when the squarefree ladder proves that m, a cofactor returned
    by _trial_powers, has no square factor but 1: m is no perfect square,
    m is below the top step's cube 464,159**3 (just above 10**17), and at
    the least step B of _SQUAREFREE_STEPS with m < B**3, m is prime or
    prime to every prime in [_TRIAL_BOUND, B).  The first step,
    B = _TRIAL_BOUND, needs no gcd.  Only such a cofactor: 45 passes the
    test, and 9 divides it.

    Proof.  A prime m is squarefree; Miller-Rabin is exact at this size.  A
    cofactor with a prime below _TRIAL_BOUND is that prime, since trial
    division stopped at p * p > m.  Otherwise m has no prime below B (trial
    division, then the gcd), and m < B**3.  Three primes of m would make
    m >= B**3, so m is 1, a prime q, q**2 or q*r with primes q < r.  Of
    these only q**2 is a square, and only q**2 has a square factor other
    than 1.

    The gcd costs about 70-90, 150-165 and 340-495 us at the steps 10**5,
    215,444 and 464,159; each step's product, of 0.13, 0.30 and 0.65
    million bits, is built on first use.  A False says nothing: m may
    still be squarefree."""
    if m >= _SQUAREFREE_STEPS[-1] ** 3 or isqrt(m) ** 2 == m:
        return False
    step = next(i for i, b in enumerate(_SQUAREFREE_STEPS) if m < b**3)
    return step == 0 or is_probable_prime(m) or gcd(m, _step_product(step)) == 1


def _pm1(m: int) -> int:
    """gcd(2**E - 1, m) with E = lcm(1..B1): Pollard p-1 stage 1.  Every
    prime q of m with q - 1 dividing E divides it."""
    return gcd(pow(2, _pm1_exponent(), m) - 1, m)


def _cofactor_powers(m: int) -> Iterator[tuple[int, int]]:
    """(p, e) for each prime power p**e exactly dividing m, a cofactor
    returned by _trial_powers, p ascending, yielded once m is split.

    A composite m has no prime below _TRIAL_BOUND, so its primes exceed
    2**13.  It is split by its k-th root when a perfect k-th power.
    Otherwise, on at least 50 bits, it first gets one p-1 power (_pm1):
    1 < g < m is a split, and else rho splits m.  B1 and the gate were
    chosen by a paired sweep over 4,800 seeded 12-20 digit semiprimes of
    the benchmark's certify shape, each split by rho alone and by p-1 then
    rho.  Gated at 50 bits, B1 = 3000 ran the set 1.14-1.17x faster and
    split 13-16% of it with no rho; B1 = 2000 gave 1.13-1.14x, and 4000 or
    5000 1.15-1.17x with a longer power.  Below 50 bits (about 15 digits)
    rho is quicker than the power itself, which made 12-15 digit inputs
    1.1-2.9x slower."""
    out: dict[int, int] = {}
    stack = [(m, 1)] if m > 1 else []  # cofactors with the multiplicity each has in m
    # variant: the sum over the stack of 2*Omega(m) - 1, Omega counting prime factors
    while stack:
        m, e = stack.pop()
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + e
            continue
        # m's primes exceed 2**13, so m = r**k needs 13*k < bits.
        for k in range(2, m.bit_length() // 13 + 1):
            if (r := _iroot(m, k)) ** k == m:
                stack.append((r, k * e))
                break
        else:
            d = _pm1(m) if m.bit_length() >= _PM1_MIN_BITS else 1
            if not 1 < d < m:
                d = _pollard_brent(m)
            stack.append((d, e))
            stack.append((m // d, e))
    yield from sorted(out.items())


def prime_powers(n: int) -> Iterator[tuple[int, int]]:
    """(p, e) for each prime power p**e exactly dividing n != 0, p ascending.
    Lazy: a prime below 10**4 is yielded as soon as trial division takes it
    out, so a caller that stops early splits nothing past it; the cofactor
    left over is split, and its primes are yielded sorted.  The
    factorization is always complete: square_candidates is the variant that
    may skip the cofactor."""
    m = yield from _trial_powers(n)
    yield from _cofactor_powers(m)


def square_candidates(n: int) -> Iterator[tuple[int, int]]:
    """prime_powers(n), but without the cofactor's primes when the
    squarefree ladder proves the cofactor squarefree: every prime p with
    p**2 | n is still yielded, with its exponent, in ascending order.

    The rule: after trial division below 10**4, a cofactor m that is no
    perfect square and below 464,159**3 is not split when it is below
    10**12, or is prime, or is prime to the primes in [10**4, B) (one gcd)
    for the least B of 10**5, 215,444 and 464,159 with m < B**3.  Such an m
    has no prime below B and is below B**3, so it is 1, a prime or a
    product of two distinct primes: none of its primes divides n twice.
    _bound_proves_squarefree has the proof in full."""
    m = yield from _trial_powers(n)
    if not _bound_proves_squarefree(m):
        yield from _cofactor_powers(m)


def factor_map(n: int) -> dict[int, int]:
    """Prime -> exponent map of |n| for n != 0 (empty for |n| = 1)."""
    return dict(prime_powers(n))
