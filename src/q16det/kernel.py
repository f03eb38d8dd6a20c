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
* :func:`direct_scan` - the whole scan behind ``scan --direct``: the
  histogram and the factored values that the literal :func:`group_det`
  contradicts, from one table of half-classes and one literal
  evaluation per pair of classes.

Every factored term is an f-only part plus a g-only part, and a g-side
half enters A, B and C with the opposite sign, so :func:`scan_range` calls
:func:`_half_terms` once per half-vector of the range: a table of a-rows,
built in blocks of at most ``_A_BLOCK`` rows, and b-rows streamed past
each block, each combined with a prefix of it.  The same sign rule makes
det(a, b) = det(b, a) and det(a, a) = 0, so a whole-space scan evaluates
each unordered pair of distinct halves once and counts its value twice.
The group determinant depends on the halves only through their cyclic
autocorrelations, since it equals that of the 8x8 circulant of
q = f(x)*f(1/x) - x**4*g(x)*g(1/x) mod x**8 - 1, so
:func:`direct_scan` groups the half-vectors by half terms and
autocorrelation and evaluates once per pair of groups, never per
element.  The circulant form itself, and the proof that its determinant
is A*B*C**2*D**2, live in ``tests/``.

:func:`group_det`, :func:`factored_terms` and :func:`_half_terms` are
defined in :mod:`q16det.core`, the trusted module, and re-exported here:
``kernel.factored_terms is core.factored_terms``.  The crosscheck and the
scan reach them, and :func:`scan_range`, as ``kernel.<name>``, so a
tracer or a test that patches this module sees those calls.  The
certificate rule, :func:`q16det.core.certificate_terms`, and
:func:`q16det.group_algebra.direct_determinant` look their names up on
:mod:`q16det.core` instead, so classifying, witnessing and checking a
certificate never load this module; only the scan, crosscheck and audit
in :mod:`q16det.analysis` do.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import islice, product
from typing import Iterator, Sequence

# Defined in core; the crosscheck, and the tracer that patches it, use kernel.<name>.
from .core import _half_terms, factored_terms, group_det
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
    :func:`scan_range` and :func:`direct_scan`."""
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


def direct_scan(values: Sequence[int]) -> tuple[Counter[int], set[int]]:
    """The histogram of the whole scan of values^16, as :func:`scan_range`
    gives it, and the set of its factored values that the literal 16x16
    determinant contradicts.

    The half-vectors fall into half-classes, one per distinct pair of
    :func:`_half_terms` and :func:`_autocorrelation`, the same on either
    side; the table holds each class's count and one representative half.
    One literal evaluation decides every element of a pair of classes:

    * every element of the pair has the same autocorrelations, so the
      same literal determinant: the 16x16 equals the determinant of the
      circulant of q, which its halves' autocorrelations give (steps (a)
      and (b) of ``tests/test_factorization_identity.py``);
    * every element also has the same half terms, so the same factored
      value.

    Each b-class takes one :func:`_dets` call over the rows of half terms
    of all the a-classes.  Each value of the ordered pair (a-class,
    b-class) enters the histogram n_a*n_b times and is compared with
    :func:`group_det` of the two representatives, looked up once per call.
    """
    literal_det = group_det
    classes: dict[tuple, list] = {}
    for h in product(values, repeat=8):
        entry = classes.setdefault((_half_terms(h), _autocorrelation(h)), [0, h])
        entry[0] += 1
    a_rows = [terms for terms, _ in classes]
    table = list(classes.values())

    hist: Counter[int] = Counter()
    mismatches: set[int] = set()
    for (b_terms, _), (nb, hb) in classes.items():
        for (na, ha), det in zip(table, _dets(a_rows, b_terms)):
            hist[det] += na * nb
            if literal_det(ha, hb) != det:
                mismatches.add(det)
    return hist, mismatches
