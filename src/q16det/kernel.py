"""The hot loops, exact over arbitrary-precision integers.

* :func:`group_det`   - determinant of the literal 16x16 ``DET_INDEX``
  matrix, the definition that certificates and crosschecks rely on,
* :func:`factored_terms` - the tuple (A, B, C, X, Y) of the determinant
  factorization, built from two calls of :func:`_half_terms`, the only
  evaluation at 1, -1, i and w,
* :func:`scan_range`  - enumeration of a contiguous index range of a
  coefficient-support scan that starts on a b-row, returning a histogram
  of its determinant values that merges across ranges; it evaluates each
  unordered pair of halves once where the range holds both orders,
* :func:`direct_mismatches` - the check behind direct scans: the factored
  values, from the :func:`_dets` that builds :func:`scan_range`'s
  histogram, that the circulant determinant :func:`_reflection_det`
  contradicts, one comparison per pair of half-classes.

Every factored term is an f-only part plus a g-only part, and a g-side
half enters A, B and C with the opposite sign, so :func:`scan_range` calls
:func:`_half_terms` once per half-vector of the range: a table of a-rows,
built in blocks of at most ``_A_BLOCK`` rows, and b-rows streamed past
each block, each combined with a prefix of it.  The same sign rule makes
det(a, b) = det(b, a) and det(a, a) = 0, so a whole-space scan evaluates
each unordered pair of distinct halves once and counts its value twice.
The group determinant also equals that of the 8x8 circulant of
q = f(x)*f(1/x) - x**4*g(x)*g(1/x) mod x**8 - 1.  q is palindromic, so
the circulant splits by the reflection j -> -j into a 5x5 and a 3x3
block, and :func:`_reflection_det`, the one place that eliminates them,
takes q from the two halves' autocorrelations and eliminates the 3x3
first with :func:`q16det.core._bareiss`: when it is singular the
determinant is 0, and only otherwise is the 5x5 eliminated and
multiplied in.  Exact, but not the literal definition.  q splits into an
f-part plus a g-part too, so :func:`direct_mismatches` keeps each
half-class's autocorrelation and eliminates once per pair of
half-classes, never per element.  That the circulant's determinant is
A*B*C**2*D**2 is proved by finite exact checks in
``tests/test_factorization_identity.py``.

:func:`group_det`, :func:`factored_terms` and :func:`_half_terms` are
defined in :mod:`q16det.core`, the trusted module, and re-exported here:
``kernel.factored_terms is core.factored_terms``.  The crosscheck and the
scan reach them, and :func:`scan_range`, as ``kernel.<name>``, so a
tracer or a test that patches this module sees those calls.  The
certificate rule, :func:`q16det.core.certificate_terms`, looks its names
up on :mod:`q16det.core` instead.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import islice, product
from typing import Iterator, Sequence

# Defined in core; the crosscheck, and the tracer that patches it, use kernel.<name>.
from .core import _bareiss, _half_terms, factored_terms, group_det
from .errors import int_text

# The lane names perfbench reads; scan and crosscheck reports carry ACTIVE_LANE.
ACTIVE_LANE: str = "pure"


def lanes() -> dict[str, object]:
    """Mapping of lane name -> kernel module: this module, as ``"pure"``."""
    return {ACTIVE_LANE: sys.modules[__name__]}


def _autocorrelation(h: Sequence[int]) -> tuple[int, int, int, int, int]:
    """r[0..4] of the cyclic autocorrelation r[k] = sum_i h[i]*h[(i + k) % 8];
    r[8 - k] = r[k] gives the rest."""
    h0, h1, h2, h3, h4, h5, h6, h7 = h
    return (
        h0 * h0 + h1 * h1 + h2 * h2 + h3 * h3 + h4 * h4 + h5 * h5 + h6 * h6 + h7 * h7,
        h0 * h1 + h1 * h2 + h2 * h3 + h3 * h4 + h4 * h5 + h5 * h6 + h6 * h7 + h7 * h0,
        h0 * h2 + h1 * h3 + h2 * h4 + h3 * h5 + h4 * h6 + h5 * h7 + h6 * h0 + h7 * h1,
        h0 * h3 + h1 * h4 + h2 * h5 + h3 * h6 + h4 * h7 + h5 * h0 + h6 * h1 + h7 * h2,
        2 * (h0 * h4 + h1 * h5 + h2 * h6 + h3 * h7),
    )


def _q_parts(ra: Sequence[int], rb: Sequence[int]) -> tuple[int, int, int, int, int]:
    """q[0..4] = r_a[k] - r_b[4 - k] from the autocorrelations r[0..4] of
    an a-half and a b-half; q[8 - k] = q[k] gives the rest."""
    return ra[0] - rb[4], ra[1] - rb[3], ra[2] - rb[2], ra[3] - rb[1], ra[4] - rb[0]


def _reflection_det(ra: Sequence[int], rb: Sequence[int]) -> int:
    """Group determinant of every element whose a-half has the
    :func:`_autocorrelation` ``ra`` and whose b-half has ``rb``: the
    determinant of the 8x8 circulant C[i][j] = q[(j - i) % 8] of
    q = :func:`_q_parts` ``(ra, rb)``, from a 3x3 and a 5x5 block.

    The 16x16 matrix is [[F, G1], [G2, F']] with 8x8 circulant blocks, which
    commute, so its determinant is that of C (Silvester, "Determinants of
    block matrices", 2000).  q is palindromic, so C commutes with the
    reflection e_j -> e_-j and keeps the symmetric sublattice (basis e0,
    e1+e7, e2+e6, e3+e5, e4) and the antisymmetric one (basis e1-e7,
    e2-e6, e3-e5); det C is the product sym * anti of the determinants of
    C on the two.  The 3x3 antisymmetric block is eliminated first, and
    the 5x5 symmetric one only when that is nonzero.  Exact, but not the
    literal definition: certificates and crosschecks use :func:`group_det`.
    """
    q0, q1, q2, q3, q4 = _q_parts(ra, rb)
    d02, d13, d24 = q0 - q2, q1 - q3, q2 - q4
    anti = _bareiss([[d02, d13, d24], [d13, q0 - q4, d13], [d24, d13, d02]])
    if not anti:
        return 0
    s13 = q1 + q3
    symmetric = [
        [q0, 2 * q1, 2 * q2, 2 * q3, q4],
        [q1, q0 + q2, s13, q2 + q4, q3],
        [q2, s13, q0 + q4, s13, q2],
        [q3, q2 + q4, s13, q0 + q2, q1],
        [q4, 2 * q3, 2 * q2, 2 * q1, q0],
    ]
    return _bareiss(symmetric) * anti


#: The most a-rows :func:`scan_range` holds at once.
_A_BLOCK = 1 << 14


def _halves(values: Sequence[int], first: int, count: int) -> Iterator[tuple[int, ...]]:
    """Half-vectors number ``first`` to ``first + count - 1`` of values^8:
    digit k of a half index, least significant first, picks coefficient k.
    ``first + count`` is at most base**8."""
    # product varies its last position fastest; reversed, coefficient 0 does.
    return (h[::-1] for h in islice(product(values, repeat=8), first, first + count))


def _dets(a_rows: Sequence[tuple[int, ...]], b_terms: tuple[int, ...]) -> list[int]:
    """Factored determinants of the elements (a, b) whose a-halves have the
    :func:`_half_terms` ``a_rows`` and whose b-half has ``b_terms``: the
    one product A*B*C**2*D**2 of two half-term rows, read by both
    :func:`scan_range` and :func:`direct_mismatches`."""
    Pb, Qb, Rb, Xb, Yb = b_terms
    dets = []
    for Pa, Qa, Ra, Xa, Ya in a_rows:
        C = Ra - Rb
        X = Xa + Xb
        Y = Ya + Yb
        D = X * X - 2 * Y * Y
        dets.append((Pa - Pb) * (Qa - Qb) * C * C * D * D)
    return dets


def scan_range(values: Sequence[int], start: int, stop: int) -> dict:
    """Scan elements number ``start`` (inclusive) to ``stop`` (exclusive) of
    the coefficient space values^16.

    Element number i has coefficient k equal to values[d_k] where d_k is the
    k-th base-len(values) digit of i (least significant digit = a0, digits
    8..15 = b0..b7).  ``start`` must begin a b-row, a multiple of base**8,
    and ``start <= stop <= base**16``, or ValueError is raised; ``stop``
    may end anywhere.  Returns a dict that merges across disjoint ranges:

    * count: the number of elements scanned, ``stop - start``
    * values: histogram of the range, a Counter determinant -> multiplicity

    The residue laws are not checked here:
    :func:`q16det.analysis.exhaustive_scan` sorts the merged histogram.

    Element i is (a, b) with a = i mod base**8 and b = i // base**8, and
    :func:`factored_terms` combines ``_half_terms(a)`` and ``_half_terms(b)``
    term by term.  Swapping the halves negates A, B and C and keeps X and
    Y, so det(a, b) = det(b, a), and det(a, a) = 0 since A = 0.  The
    complete b-rows b_lo <= b < b_full of the range hold both orders of
    every pair of their own indices, so in row b the a-halves b_lo <= a < b
    are evaluated once and counted twice, a = b counts as a zero, and
    b < a < b_full are skipped: row a counts them.  Every other a-half,
    and every element of a partial last row, is evaluated once.  A
    whole-space scan thus evaluates each unordered pair of halves once.
    Each b-row takes a prefix of the a-halves 0, 1, ..., so the scan
    tables them in blocks of at most ``_A_BLOCK`` a-rows and streams the
    b-rows past each block.
    """
    half = len(values) ** 8
    if start % half:
        raise ValueError(
            f"start {int_text(start)} does not begin a b-row of {int_text(half)} elements"
        )
    if not start <= stop <= half * half:
        raise ValueError(
            f"range [{int_text(start)}, {int_text(stop)}) "
            f"is not within [0, {int_text(half * half)}]"
        )
    b_lo, b_full = start // half, stop // half
    tail = stop - b_full * half  # a-halves in the partial last row, if any
    a_count = half if b_full > b_lo else tail
    b_stop = b_full + (tail > 0)
    hist: Counter[int] = Counter()
    twice: Counter[int] = Counter()
    for a_lo in range(0, a_count, _A_BLOCK):
        a_rows = [_half_terms(h) for h in _halves(values, a_lo, min(_A_BLOCK, a_count - a_lo))]
        for b, h in zip(range(b_lo, b_stop), _halves(values, b_lo, b_stop - b_lo)):
            if b < b_full:
                spans = ((0, b_lo, hist), (b_lo, b, twice), (b_full, half, hist))
            else:
                spans = ((0, tail, hist),)
            b_terms = _half_terms(h)
            for lo, hi, tally in spans:
                # A span ending before this block starts has hi - a_lo < 0,
                # which as a slice bound would take rows from the block's end.
                tally.update(_dets(a_rows[max(0, lo - a_lo) : max(0, hi - a_lo)], b_terms))
    for v, c in twice.items():
        hist[v] += 2 * c
    if b_full > b_lo:
        hist[0] += b_full - b_lo

    return {"count": stop - start, "values": hist}


def direct_mismatches(values: Sequence[int]) -> set[int]:
    """Factored values of the scan of values^16 that the circulant
    determinant contradicts.

    An element's factored value depends only on the :func:`_half_terms` of
    its two halves (see :func:`scan_range`), and its circulant determinant
    only on the autocorrelations of its halves (see :func:`_reflection_det`).
    So the half-vectors fall into half-classes, one per distinct (half
    terms, autocorrelation), the same on either side, and one comparison
    per ordered pair of classes decides every element of the pair.  Each
    b-class takes one :func:`_dets` call over the rows of half terms of
    all the a-classes, the call that builds :func:`scan_range`'s
    histogram, and compares each of its values with the
    :func:`_reflection_det` of the two stored autocorrelations.
    """
    classes = list({(_half_terms(h), _autocorrelation(h)) for h in product(values, repeat=8)})
    a_rows = [terms for terms, _ in classes]

    mismatches: set[int] = set()
    for b_terms, rb in classes:
        for (_, ra), det in zip(classes, _dets(a_rows, b_terms)):
            if _reflection_det(ra, rb) != det:
                mismatches.add(det)
    return mismatches
