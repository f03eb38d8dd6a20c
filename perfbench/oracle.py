"""Reference arithmetic the benchmark checks the library against.

Nothing here imports q16det: the group law is derived from the
presentation X**8 = 1, Y**2 = X**4, X*Y = Y*X**-1, the determinant is
plain Gaussian elimination over Fractions, and primes for the generated
targets come from a Miller-Rabin test written here.
"""

from __future__ import annotations

from fractions import Fraction

# Element (e, j) stands for Y**e * X**j; index j for e = 0, 8 + j for e = 1.


def _mul(e1: int, j1: int, e2: int, j2: int) -> tuple[int, int]:
    # X**j * Y = Y * X**-j, so Y**e1 X**j1 Y**e2 X**j2 = Y**(e1+e2) X**(+-j1 + j2),
    # and Y**2 = X**4 folds the Y-degree back to 0 or 1.
    j = (-j1 if e2 else j1) + j2
    e = e1 + e2
    if e == 2:
        e, j = 0, j + 4
    return e, j % 8


def _inv(e: int, j: int) -> tuple[int, int]:
    # (Y X**j)**-1 = Y X**(j+4) because (Y X**j)(Y X**(j+4)) = Y**2 X**4 = 1.
    return (1, (j + 4) % 8) if e else (0, (-j) % 8)


def _index(e: int, j: int) -> int:
    return 8 * e + j


_ELEMENTS = [(i // 8, i % 8) for i in range(16)]

#: _DET_INDEX[g][h] = index of g * h**-1.
_DET_INDEX = [
    [_index(*_mul(*g, *_inv(*h))) for h in _ELEMENTS] for g in _ELEMENTS
]


def group_determinant(coeffs: list[int]) -> int:
    """det(c[g * h**-1]) of the 16 coefficients (a0..a7, b0..b7), by
    Gaussian elimination over the rationals."""
    m = [[Fraction(coeffs[i]) for i in row] for row in _DET_INDEX]
    det = Fraction(1)
    for k in range(16):
        pivot_row = next((r for r in range(k, 16) if m[r][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        pivot = m[k][k]
        det *= pivot
        for r in range(k + 1, 16):
            factor = m[r][k] / pivot
            if factor:
                row_r, row_k = m[r], m[k]
                for c in range(k, 16):
                    row_r[c] -= factor * row_k[c]
    if det.denominator != 1:
        raise ArithmeticError(f"non-integral determinant {det}")
    return det.numerator


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: a proof of primality
    below 3.3e24, far above every number the benchmark generates."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def next_prime(start: int, residue: int) -> int:
    """Smallest prime p >= start with p = residue (mod 8)."""
    p = max(start, 2)
    p += (residue - p) % 8
    while not is_prime(p):
        p += 8
    return p
