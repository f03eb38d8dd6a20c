"""Primality testing and integer factorization at desk scale.

Deterministic Miller-Rabin with the 12-base set that is exact below
3.3 * 10**24; inputs above that bound fall back to the same bases plus extra
fixed witnesses and are flagged as probabilistic.  Composites are split by
trial division, then the cofactor by an exact integer k-th root when it is
a perfect power (the p**2 of m*p**2, the p**3 of m*p**3), and otherwise by
one Pollard p-1 stage-1 power (Pollard 1974) with the fixed bound
B1 = 3000 on cofactors of at least 50 bits, and where that finds no proper
factor by Brent's Pollard rho (Brent 1980) with fixed parameters: results
reproduce.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache
from math import gcd, isqrt, lcm, prod

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: Below this bound the Miller-Rabin bases above are a proof of primality.
MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

#: Trial division tests these primes one by one, then asks one gcd which of
#: the other primes below 10**4 divide n.
_PLAIN_TRIAL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

#: Pollard p-1 stage 1 raises 2 to lcm(1..B1) modulo each composite cofactor
#: of at least this many bits; prime_powers says how both were chosen.
_PM1_B1 = 3000
_PM1_MIN_BITS = 50


@cache
def _trial_rest() -> tuple[tuple[int, ...], int]:
    """The primes below 10**4 past _PLAIN_TRIAL, and their product."""
    rest = tuple(primes_below(10_000)[len(_PLAIN_TRIAL) :])
    return rest, prod(rest)


@cache
def _pm1_exponent() -> int:
    return lcm(*range(1, _PM1_B1 + 1))


def primes_below(limit: int) -> list[int]:
    """All primes < limit by a plain sieve."""
    if limit <= 2:
        return []
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(limit) if sieve[i]]


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
            # Backtrack one squaring at a time.
            g = 1
            y = ys
            # variant: the last block's steps left, one of which shares a factor with n
            while g == 1:
                y = (y * y + c) % n
                g = gcd(abs(x - y), n)
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


def prime_powers(n: int) -> Iterator[tuple[int, int]]:
    """(p, e) for each prime power p**e exactly dividing n != 0, p ascending.
    Lazy: a trial prime is yielded as soon as it is divided out, so a caller
    that stops early splits nothing past it.  The cofactor left by trial
    division is split by its k-th root when a perfect k-th power, by Pollard
    p-1 or rho otherwise, and its primes are yielded sorted once it is split.

    Trial division tests the primes 2 to 53 one by one and stops once
    p * p > n.  Past them, g = gcd(n, product of the other primes below
    10**4) names the trial primes left to find, and the walk ends when g is
    1: an n with no such prime skips about 1,200 divisions.

    A composite cofactor m that is no perfect power and has at least 50 bits
    first gets one p-1 stage-1 power, g = gcd(2**E - 1, m) with
    E = lcm(1..B1), B1 = 3000.  Every prime q of m with q - 1 dividing E
    divides g; 1 < g < m is a split, and otherwise rho splits m.  B1 and the
    gate were chosen by a paired sweep over 4,800 seeded 12-20 digit
    semiprimes of the benchmark's certify shape, each split by rho alone and
    by p-1 then rho.  Gated at 50 bits, B1 = 3000 ran the set 1.14-1.17x
    faster and split 13-16% of it with no rho; B1 = 2000 gave 1.13-1.14x,
    and 4000 or 5000 1.15-1.17x with a longer power.  Below 50 bits (about
    15 digits) rho is quicker than the power itself, which made 12-15 digit
    inputs 1.1-2.9x slower."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    for p in _PLAIN_TRIAL:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            # variant: n, divided by p on every pass
            while n % p == 0:
                n //= p
                e += 1
            yield p, e
    else:
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
    out: dict[int, int] = {}
    stack = [(n, 1)] if n > 1 else []  # cofactors with the multiplicity each has in n
    # variant: the sum over the stack of 2*Omega(m) - 1, Omega counting prime factors
    while stack:
        m, e = stack.pop()
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + e
            continue
        # A composite m means trial division removed every prime below
        # 10**4, so m's primes exceed 2**13 and m = r**k needs 13*k < bits.
        for k in range(2, m.bit_length() // 13 + 1):
            if (r := _iroot(m, k)) ** k == m:
                stack.append((r, k * e))
                break
        else:
            d = 1
            if m.bit_length() >= _PM1_MIN_BITS:
                d = gcd(pow(2, _pm1_exponent(), m) - 1, m)
            if not 1 < d < m:
                d = _pollard_brent(m)
            stack.append((d, e))
            stack.append((m // d, e))
    yield from sorted(out.items())


def factor_map(n: int) -> dict[int, int]:
    """Prime -> exponent map of |n| for n != 0 (empty for |n| = 1)."""
    return dict(prime_powers(n))
