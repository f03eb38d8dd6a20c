"""Pure-Python kernels: the fallback lane used when the compiled extension
is unavailable, and the reference its outputs are compared against.

All three entry points are exact over arbitrary-precision integers:

* :func:`group_det`   - 16x16 group determinant by fraction-free (Bareiss)
  elimination of the literal ``DET_INDEX`` matrix,
* :func:`factored_terms` - the tuple (A, B, C, X, Y) of the determinant
  factorization,
* :func:`scan_range`  - enumeration of a contiguous index range of a
  coefficient-support scan, returning mergeable tallies.

Direct scans (``scan_range(..., direct=True)``) check each element against
:func:`circulant_det`, which eliminates the 8x8 circulant of
q = f(x)*f(1/x) - x**4*g(x)*g(1/x) mod x**8 - 1 instead of the 16x16
matrix; certificates and crosschecks keep the literal 16x16 via
:func:`group_det`.  Both eliminations share :func:`_bareiss`.

The compiled lane in ``q16det._kernel`` implements the same interface with
128-bit arithmetic and falls back per call (returning None) when it cannot
guarantee exactness; this module never returns None.
"""

from __future__ import annotations

from typing import Sequence

from ._cayley import DET_INDEX

LANE = "pure"


def _bareiss(m: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix; destroys its argument.

    Fraction-free elimination: every intermediate entry is (up to sign) a
    minor of the original matrix, and each division is exact.  Zero pivots
    are handled by row swaps; a column with no usable pivot means the
    determinant is 0.
    """
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            if lead == 0:
                for j in range(k + 1, n):
                    row_i[j] = row_i[j] * pivot // prev
            else:
                for j in range(k + 1, n):
                    row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
                row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def group_det(a: Sequence[int], b: Sequence[int]) -> int:
    """Group determinant det(c[g * h**-1]) of the element with X-block
    coefficients ``a`` and Y-block coefficients ``b``."""
    c = list(a) + list(b)
    m = [[c[i] for i in row] for row in DET_INDEX]
    return _bareiss(m)


def circulant_q(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients q[0..7] of q = f(x)*f(1/x) - x**4*g(x)*g(1/x) mod x**8 - 1,
    built from the integer autocorrelations of ``a`` and ``b``."""
    q = [0] * 8
    for i in range(8):
        ai = a[i]
        if ai:
            for j in range(8):
                q[(i - j) % 8] += ai * a[j]
        bi = b[i]
        if bi:
            for j in range(8):
                q[(i - j + 4) % 8] -= bi * b[j]
    return q


#: Layout of the 8x8 circulant of q: C[i][j] = q[(j - i) % 8].
_CIRCULANT_INDEX = tuple(tuple((j - i) % 8 for j in range(8)) for i in range(8))


def circulant_det(a: Sequence[int], b: Sequence[int]) -> int:
    """Group determinant of the element, as the determinant of the 8x8
    circulant of :func:`circulant_q`.

    The 16x16 matrix is [[F, G1], [G2, F']] with 8x8 circulant blocks, which
    commute, so its determinant is that of one 8x8 circulant (Silvester,
    "Determinants of block matrices", 2000).  Exact, but not the literal
    definition: certificates and crosschecks use :func:`group_det`.
    """
    q = circulant_q(a, b)
    return _bareiss([[q[k] for k in row] for row in _CIRCULANT_INDEX])


def factored_terms(a: Sequence[int], b: Sequence[int]) -> tuple[int, int, int, int, int]:
    """(A, B, C, X, Y) of the factorization; D = X**2 - 2*Y**2 and the
    determinant A*B*C**2*D**2 are left to the caller."""
    a0, a1, a2, a3, a4, a5, a6, a7 = a
    b0, b1, b2, b3, b4, b5, b6, b7 = b

    f1 = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
    g1 = b0 + b1 + b2 + b3 + b4 + b5 + b6 + b7
    fm1 = a0 - a1 + a2 - a3 + a4 - a5 + a6 - a7
    gm1 = b0 - b1 + b2 - b3 + b4 - b5 + b6 - b7
    A = f1 * f1 - g1 * g1
    B = fm1 * fm1 - gm1 * gm1

    fre = a0 - a2 + a4 - a6
    fim = a1 - a3 + a5 - a7
    gre = b0 - b2 + b4 - b6
    gim = b1 - b3 + b5 - b7
    C = fre * fre + fim * fim - gre * gre - gim * gim

    u0, u1, u2, u3 = a0 - a4, a1 - a5, a2 - a6, a3 - a7
    v0, v1, v2, v3 = b0 - b4, b1 - b5, b2 - b6, b3 - b7
    X = u0 * u0 + u1 * u1 + u2 * u2 + u3 * u3 + v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3
    Y = u0 * u1 - u0 * u3 + u1 * u2 + u2 * u3 + v0 * v1 - v0 * v3 + v1 * v2 + v2 * v3
    return A, B, C, X, Y


def scan_range(
    values: Sequence[int],
    start: int,
    stop: int,
    direct: bool = False,
    sample_abs_limit: int = 1 << 20,
) -> dict:
    """Scan elements number ``start`` (inclusive) to ``stop`` (exclusive) of
    the coefficient space values^16.

    Element number i has coefficient k equal to values[d_k] where d_k is the
    k-th base-len(values) digit of i (least significant digit = a0, digits
    8..15 = b0..b7).  Returns a dict of tallies and value sets that merges
    commutatively across disjoint ranges:

    * counters: count, zero, even, even_mult_1024, odd, odd_mod8 histogram
    * even_violations: distinct even values not divisible by 2**10
    * odd3_violations: distinct odd values congruent 3 mod 4
    * five_mod8: all distinct values congruent 5 mod 8
    * sample: distinct values with |value| <= sample_abs_limit
    * direct_mismatches: distinct values where :func:`circulant_det` and the
      factored product disagreed (only populated when ``direct`` is true)
    """
    base = len(values)
    digits = [0] * 16
    coeffs = [values[0]] * 16
    idx = start
    for k in range(16):
        digits[k] = idx % base
        coeffs[k] = values[digits[k]]
        idx //= base

    n_zero = n_even = n_even_1024 = n_odd = 0
    odd_mod8 = {1: 0, 3: 0, 5: 0, 7: 0}
    even_violations: set[int] = set()
    odd3_violations: set[int] = set()
    five_mod8: set[int] = set()
    sample: set[int] = set()
    direct_mismatches: set[int] = set()

    top = base - 1
    v0 = values[0]
    for _ in range(stop - start):
        a = coeffs[:8]
        b = coeffs[8:]
        A, B, C, X, Y = factored_terms(a, b)
        D = X * X - 2 * Y * Y
        det = A * B * C * C * D * D
        if direct:
            if circulant_det(a, b) != det:
                direct_mismatches.add(det)

        if det == 0:
            n_zero += 1
            n_even += 1
            n_even_1024 += 1
        elif det % 2 == 0:
            n_even += 1
            if det % 1024 == 0:
                n_even_1024 += 1
            else:
                even_violations.add(det)
        else:
            n_odd += 1
            r = det % 8
            odd_mod8[r] += 1
            if r == 3 or r == 7:
                odd3_violations.add(det)
            elif r == 5:
                five_mod8.add(det)
        if -sample_abs_limit <= det <= sample_abs_limit:
            sample.add(det)

        # Odometer increment of the mixed-radix digit vector.
        k = 0
        while k < 16 and digits[k] == top:
            digits[k] = 0
            coeffs[k] = v0
            k += 1
        if k < 16:
            digits[k] += 1
            coeffs[k] = values[digits[k]]

    return {
        "count": stop - start,
        "zero": n_zero,
        "even": n_even,
        "even_mult_1024": n_even_1024,
        "odd": n_odd,
        "odd_mod8": odd_mod8,
        "even_violations": even_violations,
        "odd3_violations": odd3_violations,
        "five_mod8": five_mod8,
        "sample": sample,
        "direct_mismatches": direct_mismatches,
    }
