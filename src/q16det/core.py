"""The trusted core: the group table of the dicyclic group of order 16,
the literal group determinant det(c[g * h**-1]), the factored terms
A, B, C, X, Y, and :func:`certificate_terms`, the one rule for a valid
certificate, which requires both determinants to equal the target.

Element indices: 0..7 encode X**j, 8..15 encode Y*X**(j-8).  The defining
relations are X**8 = 1, Y**2 = X**4 and X*Y = Y*X**(-1), which give the
four multiplication rules implemented in :func:`mul`.

:func:`group_det` computes the determinant of the literal 16x16
``DET_INDEX`` matrix: one exact block step at the central element X**4
splits it into two 8x8 blocks, whose rows are read from the eight central
sums c[g] + c[g + 4] and differences, each eliminated by :func:`_bareiss8`,
the library's one elimination: Bareiss's two-step integer-preserving
elimination ("Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 22, 1968) with n fixed at 8, which
hands a singular pivot block to :func:`_pivot`.  That is 112 entry
updates on the two 8x8 blocks of :func:`group_det`, where the whole
16x16 takes 560 and one column per pass 1,240.  The pivot rule is one
pass over the rows left: the first row nonzero in the two pivot columns
and the first later row independent of it there become the pivot rows,
and with no such pair the two columns are dependent and the determinant
is 0.

The factored side evaluates each half f at 1, -1, i and w = exp(2*pi*i/8)
in :func:`_half_terms`; :func:`factored_terms` combines the two halves
into (A, B, C, X, Y), :func:`norm_of_sum` checks that X + Y*sqrt(2) is
totally nonnegative and gives D = X**2 - 2*Y**2, and
:func:`factored_product` is A*B*C**2*D**2.  That this product equals
:func:`group_det` for every element is proved by finite exact checks in
``tests/test_factorization_identity.py``.

This module imports nothing from the library but :mod:`q16det.errors`,
and a test checks that; ``import q16det.core`` loads no other library
module, and no ``typing``.  :func:`certificate_terms` looks up
:func:`group_det` and :func:`factored_terms` on this module, so a test
that patches either here reaches the rule.  The scan and crosscheck
loops reach them as ``kernel.group_det`` and ``kernel.factored_terms``,
the same objects.
"""

from __future__ import annotations

from operator import itemgetter, neg

from .errors import InternalInconsistency, int_text

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Sequence


def mul(i: int, j: int) -> int:
    """Index of the product of group elements ``i`` and ``j``."""
    if i < 8:
        if j < 8:
            return (i + j) % 8
        return 8 + (j - 8 - i) % 8
    if j < 8:
        return 8 + (i - 8 + j) % 8
    return (4 + (j - 8) - (i - 8)) % 8


def inv(i: int) -> int:
    """Index of the inverse of group element ``i``."""
    if i < 8:
        return (-i) % 8
    return 8 + (i - 8 + 4) % 8


#: 16x16 multiplication table, MUL_TABLE[i][j] = index of element i * j.
MUL_TABLE = tuple(tuple(mul(i, j) for j in range(16)) for i in range(16))

#: INVERSE[i] = index of the inverse of element i.
INVERSE = tuple(inv(i) for i in range(16))

#: DET_INDEX[g][h] = index of g * h**-1; the group determinant of an element
#: with coefficient vector c is det(c[DET_INDEX[g][h]]).
DET_INDEX = tuple(
    tuple(MUL_TABLE[g][INVERSE[h]] for h in range(16)) for g in range(16)
)


def _pivot(m: list) -> tuple[int, int]:
    """The pivot rule of :func:`_bareiss8`, for rows ``m`` whose first two
    rows make the 2x2 block of columns 0 and 1 singular: returns (d2, sign)
    after swapping rows of ``m`` in place, d2 the new block's determinant
    and sign -1 after an odd number of swaps.  d2 = 0 means the
    determinant of the matrix is 0.

    One pass: the anchor is the first row nonzero in columns 0 and 1, its
    partner the first later row whose 2x2 minor with it is nonzero, and
    the two are swapped into rows 0 and 1.  With no anchor, or no partner,
    every row is zero or a multiple of the anchor in those two columns, so
    the columns are dependent and the determinant is 0.
    """
    for a, row in enumerate(m):
        p, q = row[0], row[1]
        if p or q:
            break
    # Without an anchor, a is the last row and no partner follows it.
    for r in range(a + 1, len(m)):
        d2 = p * m[r][1] - q * m[r][0]
        if d2:
            break
    else:
        return 0, 1
    m[0], m[a] = m[a], m[0]
    m[1], m[r] = m[r], m[1]
    # Each swap of two distinct rows flips the sign: a > 0 moves the
    # anchor, r > 1 the partner (r > a, so the first swap leaves it).
    return d2, -1 if (a > 0) != (r > 1) else 1


def _bareiss8(m: list[tuple[int, ...]]) -> int:
    """Exact determinant of the 8x8 integer matrix with row tuples ``m``,
    by two-step fraction-free elimination, each pass written out.

    A pass eliminates columns k and k + 1 at once with the 2x2 pivot
    block's determinant d2: every later entry becomes (d2*a_ij + u_i*a_kj
    + v_i*a_(k+1)j) // prev**2, u_i and v_i the row's two 2x2 cofactors,
    then prev becomes d2 // prev.  Every entry is then (up to sign) a
    minor of the original matrix, so each division is exact.  Pass 1
    leaves six rows of six entries, pass 2 four of four and pass 3 two of
    two, and the last 2x2 block's d2 // prev is the determinant.
    Each row is unpacked into locals and its entries written as one
    tuple, so no entry is subscripted or stored on its own.  prev is 1 in
    pass 1, which therefore divides by nothing.  A singular pivot block
    goes through :func:`_pivot` (``m`` is then permuted in place), except
    in the last pass, whose d2 is prev times the determinant, so 0 means
    the determinant is 0.  Every pass takes the pivot rule's result in one
    form: d2 = 0 ends the elimination at 0, and otherwise sign *= flip.
    :func:`_pivot` makes one pass over the rows that remain: the first row
    nonzero in the two pivot columns is the anchor, the first later row
    whose 2x2 minor with it is nonzero its partner, and the two become
    rows 0 and 1.
    """
    sign = 1
    r0, r1 = m[0], m[1]
    d2 = r0[0] * r1[1] - r0[1] * r1[0]
    if not d2:
        d2, flip = _pivot(m)
        if not d2:
            return 0
        sign *= flip
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
        d2, flip = _pivot(m)
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
        d2, flip = _pivot(m)
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


def _central_rows(
    index: Sequence[Sequence[int]],
) -> tuple[tuple[itemgetter, ...], tuple[itemgetter, ...]]:
    """One itemgetter per row of A + B and one per row of A - B, for the
    16x16 table ``index`` ordered as ``_COSET_REPS`` followed by z times
    them.  Raises InternalInconsistency unless ``index`` has the block form
    [[A, B], [B, A]] in that order, index[g + 4][h + 4] == index[g][h] and
    index[g + 4][h] == index[g][h + 4], and each pair (index[g][h],
    index[g][h + 4]) over g, h in ``_COSET_REPS`` is {g', g' + 4} for
    g' = ``_COSET_REPS``[t].  The entry of A + B is then c[g'] + c[g' + 4],
    the central sum number t, and that of A - B c[g'] - c[g' + 4] or its
    negative, item t or t + 8 of the central differences followed by their
    negatives."""
    position = {g: t for t, g in enumerate(_COSET_REPS)}
    plus, minus = [], []
    for g in _COSET_REPS:
        sums, differences = [], []
        for h in _COSET_REPS:
            i0, i1 = index[g][h], index[g][h + 4]
            if index[g + 4][h + 4] != i0 or index[g + 4][h] != i1:
                raise InternalInconsistency(
                    f"index table is not [[A, B], [B, A]] at rows {g}, {g + 4} "
                    f"and columns {h}, {h + 4}"
                )
            low = min(i0, i1)
            if low not in position or max(i0, i1) != low + 4:
                raise InternalInconsistency(
                    f"index pair ({i0}, {i1}) is not {{g, g + 4}} for a coset representative g"
                )
            sums.append(position[low])
            differences.append(position[low] + (8 if i0 > i1 else 0))
        plus.append(itemgetter(*sums))
        minus.append(itemgetter(*differences))
    return tuple(plus), tuple(minus)


_PLUS_ROWS, _MINUS_ROWS = _central_rows(DET_INDEX)


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
    """(A, B, C, X, Y) of the factorization of the element with X-block
    coefficients ``a`` and Y-block coefficients ``b``: A, B and C are the
    f-side :func:`_half_terms` minus the g-side ones, X and Y their sums.
    D is :func:`norm_of_sum` of (X, Y)."""
    Pa, Qa, Ra, Xa, Ya = _half_terms(a)
    Pb, Qb, Rb, Xb, Yb = _half_terms(b)
    return Pa - Pb, Qa - Qb, Ra - Rb, Xa + Xb, Ya + Yb


def totally_nonneg(x: int, y: int) -> bool:
    """x + y*sqrt(2) >= 0 under both real embeddings, exactly.

    Both embeddings x +- y*sqrt(2) are nonnegative iff x >= |y|*sqrt(2),
    i.e. x >= 0 and x**2 >= 2*y**2.
    """
    return x >= 0 and x * x >= 2 * y * y


def norm_of_sum(x: int, y: int) -> int:
    """D = x**2 - 2*y**2 for the sum of norms z = x + y*sqrt(2) of
    :func:`factored_terms`.  Such a z is totally nonnegative, so
    InternalInconsistency is raised when it is not."""
    if not totally_nonneg(x, y):
        raise InternalInconsistency(
            f"sum of norms QuadraticSqrt2(x={int_text(x)}, y={int_text(y)}) "
            "not totally nonnegative"
        )
    return x * x - 2 * y * y


def factored_product(A: int, B: int, C: int, D: int) -> int:
    """The determinant A * B * C**2 * D**2."""
    return A * B * C * C * D * D


def certificate_terms(
    n: int, a: Sequence[int], b: Sequence[int], trace: dict
) -> tuple[int, int, int, int, int, int]:
    """The one rule for a valid certificate of ``n`` on the element with
    halves ``a`` and ``b``: the literal 16x16 determinant
    :func:`group_det` and A*B*C**2*D**2 from :func:`factored_terms` both
    equal ``n``.  Returns (A, B, C, D, X, Y).  Raises
    InternalInconsistency otherwise, the first message showing ``trace``,
    the record of how the element was built; every integer in a message
    goes through :func:`q16det.errors.int_text`."""
    det = group_det(a, b)
    if det != n:
        shown = ", ".join(
            f"{k!r}: {int_text(v) if isinstance(v, int) else repr(v)}"
            for k, v in trace.items()
        )
        raise InternalInconsistency(
            f"witness for {int_text(n)} evaluates to {int_text(det)}; trace={{{shown}}}"
        )
    A, B, C, X, Y = factored_terms(a, b)
    D = norm_of_sum(X, Y)
    value = factored_product(A, B, C, D)
    if value != n:
        raise InternalInconsistency(
            f"witness for {int_text(n)}: A*B*C^2*D^2 of (A, B, C, D) = "
            f"({', '.join(map(int_text, (A, B, C, D)))}) is {int_text(value)}"
        )
    return A, B, C, D, X, Y
