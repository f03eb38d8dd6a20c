"""The hot loops, exact over arbitrary-precision integers.

* :func:`group_det`   - determinant of the literal 16x16 ``DET_INDEX``
  matrix, the definition that certificates and crosschecks rely on: one
  exact block step at the central element X**4 splits it into two 8x8
  blocks, whose rows are read from the eight central sums c[g] + c[g + 4]
  and differences, each eliminated by two-step fraction-free (Bareiss)
  elimination,
* :func:`factored_terms` - the tuple (A, B, C, X, Y) of the determinant
  factorization, built from two calls of :func:`_half_terms`, the only
  evaluation at 1, -1, i and w (:func:`q16det.exact_eval.factored_form`
  and the witness and audit checks read it here),
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
first: when it is singular the determinant is 0, and only otherwise is
the 5x5 eliminated and multiplied in.  Exact, but not the literal
definition.  q splits into an f-part plus a g-part too, so
:func:`direct_mismatches` keeps each half-class's autocorrelation and
eliminates once per pair of half-classes, never per element.  Every
elimination is Bareiss's two-step integer-preserving elimination
("Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968): each pass clears two columns with
the determinant d2 of a 2x2 pivot block and divides every updated entry
by the square of the previous pass's pivot, exactly by Sylvester's
identity.  :func:`_bareiss` runs it for any n, on the 3x3 and 5x5 blocks
of :func:`_reflection_det`; :func:`_bareiss8` runs it on the two 8x8
blocks of :func:`group_det` with n fixed at 8 and each pass written out
on tuple rows.  Both hand a singular pivot block to :func:`_pivot`, the
one pivot policy: when no row makes d2 nonzero the determinant is 0,
unless the pivot row is zero in both columns and a later row takes its
place.  That is 112 entry updates on the two 8x8 blocks of
:func:`group_det`, where the whole 16x16 takes 560 and one column per
pass 1,240.

Callers reach every entry point as ``kernel.<name>``, so a tracer or a
test that patches this module sees every call.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import islice, product
from operator import itemgetter, neg
from typing import Iterator, Sequence

from ._cayley import DET_INDEX
from .errors import InternalInconsistency

# The lane names perfbench reads; scan and crosscheck reports carry ACTIVE_LANE.
ACTIVE_LANE: str = "pure"


def lanes() -> dict[str, object]:
    """Mapping of lane name -> kernel module: this module, as ``"pure"``."""
    return {ACTIVE_LANE: sys.modules[__name__]}


def _pivot(m: list, k: int) -> tuple[int, int]:
    """The pivot policy of :func:`_bareiss` and :func:`_bareiss8`, for a pass
    whose rows k and k + 1 make the 2x2 block of columns k and k + 1 of the
    rows ``m`` singular: returns (d2, sign) after swapping rows of ``m`` in
    place, d2 the new block's determinant and sign -1 after an odd number
    of swaps.  d2 = 0 means the determinant of the matrix is 0.

    The first later row that makes d2 nonzero is swapped into row k + 1.
    When no row does, columns k and k + 1 of the remaining block are
    dependent and the determinant is 0, unless row k is zero in both: then
    a later row nonzero in column k is swapped into row k and the search
    starts again, and with no such row the determinant is 0.
    """
    n = len(m)
    sign = 1
    while True:
        p, q = m[k][k], m[k][k + 1]
        for r in range(k + 1, n):
            d2 = p * m[r][k + 1] - q * m[r][k]
            if d2:
                if r > k + 1:
                    m[k + 1], m[r] = m[r], m[k + 1]
                    sign = -sign
                return d2, sign
        # p*a_r(k+1) == q*a_rk for every row r > k: with p != 0 columns k
        # and k + 1 are dependent; with p == 0 either column k is zero from
        # row k down or q == 0 too, and a row nonzero in column k becomes
        # row k.
        if p:
            return 0, sign
        r = next((i for i in range(k + 1, n) if m[i][k]), 0)
        if not r:
            return 0, sign
        m[k], m[r] = m[r], m[k]
        sign = -sign


def _bareiss(m: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix; destroys its argument.

    Two-step fraction-free elimination (Bareiss, "Sylvester's identity and
    multistep integer-preserving Gaussian elimination", Math. Comp. 22,
    1968).  Each pass eliminates columns k and k + 1 at once with the 2x2
    pivot block's determinant d2: every later entry becomes
    (d2*a_ij + u_i*a_kj + v_i*a_(k+1)j) // prev**2, u_i and v_i the row's
    two 2x2 cofactors, then prev becomes d2 // prev.  Every entry is then
    (up to sign) a minor of the original matrix, so each division is
    exact.  When d2 is 0, :func:`_pivot` swaps rows or finds the
    determinant 0.  For odd n the last pass leaves the determinant in the
    bottom right entry.
    """
    n = len(m)
    sign = 1
    prev = 1
    k = 0
    while k < n - 1:
        row_k, row_l = m[k], m[k + 1]
        d2 = row_k[k] * row_l[k + 1] - row_k[k + 1] * row_l[k]
        if not d2:
            d2, flip = _pivot(m, k)
            if not d2:
                return 0
            sign *= flip
            row_k, row_l = m[k], m[k + 1]
        p, q, s, t = row_k[k], row_k[k + 1], row_l[k], row_l[k + 1]
        square = prev * prev
        columns = range(k + 2, n)
        for row_i in m[k + 2 :]:
            aik, ail = row_i[k], row_i[k + 1]
            u = ail * s - aik * t
            v = aik * q - ail * p
            for j in columns:
                row_i[j] = (d2 * row_i[j] + u * row_k[j] + v * row_l[j]) // square
        prev = d2 // prev
        k += 2
    return sign * (m[k][k] if k < n else prev)


def _bareiss8(m: list[tuple[int, ...]]) -> int:
    """Exact determinant of the 8x8 integer matrix with row tuples ``m``:
    :func:`_bareiss` with n fixed at 8, each pass written out.

    Pass 1 leaves six rows of six entries, pass 2 four of four and pass 3
    two of two, and the last 2x2 block's d2 // prev is the determinant.
    Each row is unpacked into locals and its entries written as one
    tuple, so no entry is subscripted or stored on its own.  prev is 1 in
    pass 1, which therefore divides by nothing.  A singular pivot block
    goes through :func:`_pivot` (``m`` is then permuted in place), except
    in the last pass, whose d2 is prev times the determinant, so 0 means
    the determinant is 0.
    """
    sign = 1
    r0, r1 = m[0], m[1]
    d2 = r0[0] * r1[1] - r0[1] * r1[0]
    if not d2:
        d2, sign = _pivot(m, 0)
        if not d2:
            return 0
        r0, r1 = m[0], m[1]
    p, q, a2, a3, a4, a5, a6, a7 = r0
    s, t, b2, b3, b4, b5, b6, b7 = r1
    rows = []
    for x0, x1, x2, x3, x4, x5, x6, x7 in m[2:]:
        u = x1 * s - x0 * t
        v = x0 * q - x1 * p
        rows.append((
            d2 * x2 + u * a2 + v * b2,
            d2 * x3 + u * a3 + v * b3,
            d2 * x4 + u * a4 + v * b4,
            d2 * x5 + u * a5 + v * b5,
            d2 * x6 + u * a6 + v * b6,
            d2 * x7 + u * a7 + v * b7,
        ))
    prev = d2

    m = rows
    r0, r1 = m[0], m[1]
    d2 = r0[0] * r1[1] - r0[1] * r1[0]
    if not d2:
        d2, flip = _pivot(m, 0)
        if not d2:
            return 0
        sign *= flip
        r0, r1 = m[0], m[1]
    p, q, a4, a5, a6, a7 = r0
    s, t, b4, b5, b6, b7 = r1
    square = prev * prev
    rows = []
    for x2, x3, x4, x5, x6, x7 in m[2:]:
        u = x3 * s - x2 * t
        v = x2 * q - x3 * p
        rows.append((
            (d2 * x4 + u * a4 + v * b4) // square,
            (d2 * x5 + u * a5 + v * b5) // square,
            (d2 * x6 + u * a6 + v * b6) // square,
            (d2 * x7 + u * a7 + v * b7) // square,
        ))
    prev = d2 // prev

    m = rows
    r0, r1 = m[0], m[1]
    d2 = r0[0] * r1[1] - r0[1] * r1[0]
    if not d2:
        d2, flip = _pivot(m, 0)
        if not d2:
            return 0
        sign *= flip
        r0, r1 = m[0], m[1]
    p, q, a6, a7 = r0
    s, t, b6, b7 = r1
    square = prev * prev
    (x4, x5, x6, x7), (y4, y5, y6, y7) = m[2], m[3]
    u, v = x5 * s - x4 * t, x4 * q - x5 * p
    w, z = y5 * s - y4 * t, y4 * q - y5 * p
    c66 = (d2 * x6 + u * a6 + v * b6) // square
    c67 = (d2 * x7 + u * a7 + v * b7) // square
    c76 = (d2 * y6 + w * a6 + z * b6) // square
    c77 = (d2 * y7 + w * a7 + z * b7) // square
    prev = d2 // prev

    return sign * ((c66 * c77 - c67 * c76) // prev)


#: Indices of 1, X, X**2, X**3, Y, Y*X, Y*X**2, Y*X**3: with z = X**4, the
#: group is these eight elements followed by z times them, index + 4.
_COSET_REPS = (0, 1, 2, 3, 8, 9, 10, 11)


def _central_pairs(index: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The 8x8 table of index pairs (index[g][h], index[g][h + 4]) over g, h
    in ``_COSET_REPS``, after checking that the 16x16 table ``index`` has
    the block form [[A, B], [B, A]] in that order: index[g + 4][h + 4] ==
    index[g][h] and index[g + 4][h] == index[g][h + 4].  Raises
    InternalInconsistency otherwise."""
    pairs = []
    for g in _COSET_REPS:
        row = []
        for h in _COSET_REPS:
            i0, i1 = index[g][h], index[g][h + 4]
            if index[g + 4][h + 4] != i0 or index[g + 4][h] != i1:
                raise InternalInconsistency(
                    f"index table is not [[A, B], [B, A]] at rows {g}, {g + 4} "
                    f"and columns {h}, {h + 4}"
                )
            row.append((i0, i1))
        pairs.append(tuple(row))
    return tuple(pairs)


#: (A + B)[i][j] = c[i0] + c[i1] and (A - B)[i][j] = c[i0] - c[i1] for
#: (i0, i1) = _CENTRAL_PAIRS[i][j], c the 16 coefficients.
_CENTRAL_PAIRS = _central_pairs(DET_INDEX)


def _central_rows(
    pairs: Sequence[Sequence[tuple[int, int]]],
) -> tuple[tuple[itemgetter, ...], tuple[itemgetter, ...]]:
    """One itemgetter per row of A + B and one per row of A - B, for the
    table ``pairs`` of :func:`_central_pairs`.  Each pair must be {g, g + 4}
    for g = ``_COSET_REPS``[t], or InternalInconsistency is raised; the
    entry is then c[g] + c[g + 4], the central sum number t, and c[g] -
    c[g + 4] or its negative, item t or t + 8 of the central differences
    followed by their negatives."""
    position = {g: t for t, g in enumerate(_COSET_REPS)}
    plus, minus = [], []
    for row in pairs:
        sums, differences = [], []
        for i0, i1 in row:
            g = min(i0, i1)
            if g not in position or max(i0, i1) != g + 4:
                raise InternalInconsistency(
                    f"index pair ({i0}, {i1}) is not {{g, g + 4}} for a coset representative g"
                )
            sums.append(position[g])
            differences.append(position[g] + (8 if i0 > i1 else 0))
        plus.append(itemgetter(*sums))
        minus.append(itemgetter(*differences))
    return tuple(plus), tuple(minus)


_PLUS_ROWS, _MINUS_ROWS = _central_rows(_CENTRAL_PAIRS)


def group_det(a: Sequence[int], b: Sequence[int]) -> int:
    """Group determinant det(c[g * h**-1]) of the element with X-block
    coefficients ``a`` and Y-block coefficients ``b``: the determinant of
    the literal ``DET_INDEX`` matrix M, from two 8x8 eliminations.

    Order rows and columns alike as ``_COSET_REPS`` followed by z times
    them, z = X**4; a simultaneous permutation keeps the determinant.  z is
    central and z**2 = 1, so M[zg][zh] = M[g][h] and M[g][zh] = M[zg][h]:
    M = [[A, B], [B, A]] (checked on ``DET_INDEX`` at import).  Adding
    block row 2 to block row 1 and then subtracting block column 1 from
    block column 2 gives [[A + B, 0], [B, A - B]], so det M =
    det(A + B) * det(A - B): unimodular integer steps, no division.  Every
    entry of A + B is one of the eight central sums c[g] + c[g + 4], g in
    ``_COSET_REPS``, and every entry of A - B one of the central
    differences or its negative, so each row is one itemgetter over them.
    :func:`_bareiss8` eliminates A + B first, and when it is singular the
    determinant is 0.
    """
    # c[g] + c[g + 4] and c[g] - c[g + 4] for g in _COSET_REPS, c = (*a, *b).
    a0, a1, a2, a3, a4, a5, a6, a7 = a
    b0, b1, b2, b3, b4, b5, b6, b7 = b
    sums = (a0 + a4, a1 + a5, a2 + a6, a3 + a7, b0 + b4, b1 + b5, b2 + b6, b3 + b7)
    plus = _bareiss8([row(sums) for row in _PLUS_ROWS])
    if not plus:
        return 0
    d = (a0 - a4, a1 - a5, a2 - a6, a3 - a7, b0 - b4, b1 - b5, b2 - b6, b3 - b7)
    differences = d + tuple(map(neg, d))
    return plus * _bareiss8([row(differences) for row in _MINUS_ROWS])


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


def _half_terms(h: Sequence[int]) -> tuple[int, int, int, int, int]:
    """(f(1)**2, f(-1)**2, |f(i)|**2, X, Y) for f with coefficients ``h``,
    where X + Y*sqrt(2) = |f(w)|**2 and w = exp(2*pi*i/8): the only
    evaluation at 1, -1, i and w."""
    h0, h1, h2, h3, h4, h5, h6, h7 = h
    s1 = h0 + h1 + h2 + h3 + h4 + h5 + h6 + h7
    sm1 = h0 - h1 + h2 - h3 + h4 - h5 + h6 - h7
    re, im = h0 - h2 + h4 - h6, h1 - h3 + h5 - h7
    u0, u1, u2, u3 = h0 - h4, h1 - h5, h2 - h6, h3 - h7
    return (
        s1 * s1,
        sm1 * sm1,
        re * re + im * im,
        u0 * u0 + u1 * u1 + u2 * u2 + u3 * u3,
        u0 * u1 - u0 * u3 + u1 * u2 + u2 * u3,
    )


def factored_terms(a: Sequence[int], b: Sequence[int]) -> tuple[int, int, int, int, int]:
    """(A, B, C, X, Y) of the factorization; D = X**2 - 2*Y**2 and the
    determinant A*B*C**2*D**2 are left to the caller.  A, B and C are the
    f-side :func:`_half_terms` minus the g-side ones, X and Y their sums."""
    Pa, Qa, Ra, Xa, Ya = _half_terms(a)
    Pb, Qb, Rb, Xb, Yb = _half_terms(b)
    return Pa - Pb, Qa - Qb, Ra - Rb, Xa + Xb, Ya + Yb


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
        raise ValueError(f"start {start} does not begin a b-row of {half} elements")
    if not start <= stop <= half * half:
        raise ValueError(f"range [{start}, {stop}) is not within [0, {half * half}]")
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
