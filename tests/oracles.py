"""Independent oracles used by the tests.

These deliberately avoid the library's algorithms: the determinant
oracle uses rational Gaussian elimination instead of fraction-free
elimination, prime splitting enumerates Y directly, the Laurent helpers
multiply polynomials term by term, and the evaluations at i and w use
Gaussian and Z[w] arithmetic instead of the kernel's closed forms, and
the embedding signs of x + y*sqrt(2) come from a case analysis instead
of the library's one-line predicates.  The scan references walk the index
range one element at a time, calling the kernel's ``factored_terms`` and
``group_det`` on each, where the library scan sums precomputed
half-vector rows and the library's direct scan evaluates once per pair
of half-classes.  The block-circulant form of the group determinant
(Silvester 2000), which the library does not use, lives here:
``_q_parts`` and ``_reflection_det`` take q from two halves'
autocorrelations and eliminate its 3x3 and 5x5 reflection blocks with
``bareiss_reference``, and ``circulant_det`` and ``circulant_q`` are
their per-element forms.  The report reference sorts each element into
the tallies as it is made, where the library sorts the distinct values
of a merged histogram.  The group-ring product ``convolve`` feeds the
multiplicativity check of the determinant, and ``determinant_matrix``
lays out the literal 16x16 matrix for the Fraction oracle.  The circulant
reference eliminates the whole 8x8 circulant of q, summed pair by pair,
where ``_reflection_det`` eliminates its two reflection blocks.  The
four-squares reference builds and sorts the whole candidate list of a
target up front and searches it by index, where the library enumerates
each level's candidates lazily.  The normalization reference branches on
the counts of odd alphas and odd betas and then checks the layout it
built, where the library sorts the pairs by parity and looks the layout
up in one table.  The audit normalization reference evaluates each
candidate element at 1 and -1 from its coefficient sums, where the
library reads the residues once from the squares in the kernel's half
terms.
"""

from collections import Counter
from fractions import Fraction
from math import isqrt

from q16det import kernel
from q16det.classifier import classify
from q16det.core import DET_INDEX, MUL_TABLE, totally_nonneg
from q16det.errors import NoDecomposition, NoValidArrangement, PreconditionUnreachable
from q16det.exact_eval import QuadraticSqrt2
from q16det.group_algebra import GroupRingElement, substitute_neg_x, swap_components
from q16det.quad_ring import CaseLabel, FourSquares


def fraction_det(matrix) -> int:
    """Exact determinant via Gaussian elimination over Fractions."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for r in range(k + 1, n):
            factor = m[r][k] * inv
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[k])]
    assert det.denominator == 1
    return int(det)


def determinant_matrix(e: GroupRingElement) -> list[list[int]]:
    """The 16x16 matrix M[g][h] = coefficient of g * h**-1 in e."""
    c = e.a + e.b
    return [[c[i] for i in row] for row in DET_INDEX]


def convolve(e1: GroupRingElement, e2: GroupRingElement) -> GroupRingElement:
    """Group-ring product (convolution over the group): the determinant is
    multiplicative over it, which gives an independent consistency check."""
    c1 = e1.a + e1.b
    c2 = e2.a + e2.b
    out = [0] * 16
    for h in range(16):
        x = c1[h]
        if x == 0:
            continue
        row = MUL_TABLE[h]
        for k in range(16):
            y = c2[k]
            if y != 0:
                out[row[k]] += x * y
    return GroupRingElement.from_coeffs(out)


def sign_plus_sqrt2(x: int, y: int) -> int:
    """Exact sign of the real number x + y*sqrt(2), as -1, 0 or 1, by
    integer case analysis (compare x**2 with 2*y**2)."""
    if y == 0:
        return 0 if x == 0 else (1 if x > 0 else -1)
    if x == 0:
        return 1 if y > 0 else -1
    if x > 0 and y > 0:
        return 1
    if x < 0 and y < 0:
        return -1
    # Opposite signs: the larger square wins.
    if x > 0:  # y < 0
        return 1 if x * x > 2 * y * y else -1
    return 1 if x * x < 2 * y * y else -1


def brute_split(p: int) -> tuple[int, int]:
    """Smallest Y > 0 with p + 2*Y**2 a perfect square (minimal totally
    positive solution of X^2 - 2Y^2 = p)."""
    y = 1
    while True:
        xx = p + 2 * y * y
        x = isqrt(xx)
        if x * x == xx:
            return x, y
        y += 1


def laurent_self_product(poly) -> dict[int, int]:
    """f(x) * f(1/x) as a dict exponent -> coefficient."""
    out: dict[int, int] = {}
    for i, ci in enumerate(poly):
        for j, cj in enumerate(poly):
            if ci and cj:
                out[i - j] = out.get(i - j, 0) + ci * cj
    return {k: v for k, v in out.items() if v}


def chebyshev_expand(c) -> dict[int, int]:
    """sum c[j] * (x + 1/x)**j as a Laurent dict."""
    out: dict[int, int] = {}
    power: dict[int, int] = {0: 1}  # (x + 1/x)**0
    for j, coeff in enumerate(c):
        if coeff:
            for e, v in power.items():
                out[e] = out.get(e, 0) + coeff * v
        nxt: dict[int, int] = {}
        for e, v in power.items():
            nxt[e + 1] = nxt.get(e + 1, 0) + v
            nxt[e - 1] = nxt.get(e - 1, 0) + v
        power = nxt
    return {k: v for k, v in out.items() if v}


def norm_at_omega_float(poly) -> float:
    """|f(w)|**2 with w = exp(2*pi*i/8), in floating point."""
    import cmath

    w = cmath.exp(2j * cmath.pi / 8)
    val = sum(c * w**j for j, c in enumerate(poly))
    return abs(val) ** 2


def eval_at_i(poly) -> tuple[int, int]:
    """f(i) as a Gaussian integer (re, im), using i**2 = -1."""
    re = im = 0
    for j, c in enumerate(poly):
        unit = (1, 0, -1, 0)[j % 4], (0, 1, 0, -1)[j % 4]
        re += c * unit[0]
        im += c * unit[1]
    return re, im


def eval_at_omega(poly) -> tuple[int, int, int, int]:
    """f(w) in Z[w] = Z[x]/(x**4 + 1) as coordinates (c0, c1, c2, c3)."""
    out = [0, 0, 0, 0]
    for j, c in enumerate(poly):
        out[j % 4] += c if j % 8 < 4 else -c
    return tuple(out)


def cyclotomic_mul(u, v) -> tuple[int, int, int, int]:
    """Product in Z[w] of coordinate 4-tuples, folding by w**4 = -1."""
    out = [0, 0, 0, 0]
    for i in range(4):
        for j in range(4):
            k = i + j
            if k < 4:
                out[k] += u[i] * v[j]
            else:
                out[k - 4] -= u[i] * v[j]
    return tuple(out)


def cyclotomic_conj(u) -> tuple[int, int, int, int]:
    """Complex conjugation w -> w**-1 = -w**3."""
    return (u[0], -u[3], -u[2], -u[1])


def _q_parts(ra, rb) -> tuple[int, int, int, int, int]:
    """q[0..4] = r_a[k] - r_b[4 - k] from the autocorrelations r[0..4] of
    an a-half and a b-half; q[8 - k] = q[k] gives the rest."""
    return ra[0] - rb[4], ra[1] - rb[3], ra[2] - rb[2], ra[3] - rb[1], ra[4] - rb[0]


def _reflection_det(ra, rb) -> int:
    """Group determinant of every element whose a-half has the
    ``kernel._autocorrelation`` ``ra`` and whose b-half has ``rb``: the
    determinant of the 8x8 circulant C[i][j] = q[(j - i) % 8] of
    q = ``_q_parts(ra, rb)``, from a 3x3 and a 5x5 block.

    The 16x16 matrix is [[F, G1], [G2, F']] with 8x8 circulant blocks, which
    commute, so its determinant is that of C (Silvester, "Determinants of
    block matrices", 2000).  q is palindromic, so C commutes with the
    reflection e_j -> e_-j and keeps the symmetric sublattice (basis e0,
    e1+e7, e2+e6, e3+e5, e4) and the antisymmetric one (basis e1-e7,
    e2-e6, e3-e5); det C is the product sym * anti of the determinants of
    C on the two.  The 3x3 antisymmetric block is eliminated first, and
    the 5x5 symmetric one only when that is nonzero; ``bareiss_reference``
    is looked up on each call, so a test that patches it sees both.
    """
    q0, q1, q2, q3, q4 = _q_parts(ra, rb)
    d02, d13, d24 = q0 - q2, q1 - q3, q2 - q4
    anti = bareiss_reference([[d02, d13, d24], [d13, q0 - q4, d13], [d24, d13, d02]])
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
    return bareiss_reference(symmetric) * anti


def circulant_q(a, b) -> list[int]:
    """Coefficients q[0..7] of q = f(x)*f(1/x) - x**4*g(x)*g(1/x) mod x**8 - 1:
    q[k] = r_a[k] - r_b[k + 4] from the cyclic autocorrelations of ``a``
    and ``b``.  q is palindromic, q[k] = q[8 - k]."""
    q0, q1, q2, q3, q4 = _q_parts(kernel._autocorrelation(a), kernel._autocorrelation(b))
    return [q0, q1, q2, q3, q4, q3, q2, q1]


def circulant_det(a, b) -> int:
    """Group determinant of the element (a, b) from the circulant form,
    ``_reflection_det`` of the two halves' autocorrelations."""
    return _reflection_det(kernel._autocorrelation(a), kernel._autocorrelation(b))


#: Layout of the 8x8 circulant of q: C[i][j] = q[(j - i) % 8].
_CIRCULANT_INDEX = tuple(tuple((j - i) % 8 for j in range(8)) for i in range(8))


def circulant_det_reference(a, b) -> int:
    """Determinant of the whole 8x8 circulant of q = f(x)*f(1/x) -
    x**4*g(x)*g(1/x) mod x**8 - 1, with q summed pair by pair, where the
    library builds q from five autocorrelation sums and eliminates its
    5x5 and 3x3 reflection blocks."""
    q = [0] * 8
    for i in range(8):
        for j in range(8):
            q[(i - j) % 8] += a[i] * a[j]
            q[(i - j + 4) % 8] -= b[i] * b[j]
    return bareiss_reference([[q[k] for k in row] for row in _CIRCULANT_INDEX])


def bareiss_reference(m) -> int:
    """Exact determinant by one-step fraction-free elimination, one column
    per pass with the previous pivot as divisor; destroys its argument."""
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
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def _reference_dets(values, start, stop, direct):
    """(det, agrees) for elements ``start`` .. ``stop - 1``, one at a time:
    an odometer over the mixed-radix digits of the index (least significant
    digit = a0), ``factored_terms`` on every element and, when ``direct``,
    ``kernel.group_det``, looked up on each call, on every element
    (``agrees`` is True otherwise)."""
    base = len(values)
    digits = [0] * 16
    coeffs = [values[0]] * 16
    idx = start
    for k in range(16):
        digits[k] = idx % base
        coeffs[k] = values[digits[k]]
        idx //= base

    top = base - 1
    v0 = values[0]
    for _ in range(stop - start):
        a = coeffs[:8]
        b = coeffs[8:]
        A, B, C, X, Y = kernel.factored_terms(a, b)
        D = X * X - 2 * Y * Y
        det = A * B * C * C * D * D
        yield det, not direct or kernel.group_det(a, b) == det

        k = 0
        while k < 16 and digits[k] == top:
            digits[k] = 0
            coeffs[k] = v0
            k += 1
        if k < 16:
            digits[k] += 1
            coeffs[k] = values[digits[k]]


def scan_range_reference(values, start, stop) -> dict:
    """``kernel.scan_range``'s count and value histogram, one element at a
    time."""
    hist = Counter(det for det, _ in _reference_dets(values, start, stop, False))
    return {"count": stop - start, "values": hist}


def direct_agrees_reference(values, start, stop) -> bool:
    """Whether ``kernel.group_det`` equals the factored value on each
    element ``start`` .. ``stop - 1``, checked one element at a time."""
    return all(agrees for _, agrees in _reference_dets(values, start, stop, True))


def scan_report_reference(values, direct=False, sample_abs_limit=1 << 20, sample_limit=64) -> dict:
    """``exhaustive_scan(values, direct=direct).to_dict()`` without
    ``elapsed_s``, with its sample bounds set to ``sample_abs_limit`` and
    ``sample_limit``, one element at a time: each determinant is sorted into the tallies as it is made, and
    the violation lists are sorted afterwards."""
    values = tuple(sorted(set(values)))
    total = len(values) ** 16
    n_zero = n_even = n_even_1024 = n_odd = 0
    odd_mod8 = {1: 0, 3: 0, 5: 0, 7: 0}
    even_violations = set()
    odd3_violations = set()
    five_mod8 = set()
    sample = set()
    direct_mismatches = set()

    for det, agrees in _reference_dets(values, 0, total, direct):
        if not agrees:
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

    violations = [(v, "even value not divisible by 2**10") for v in sorted(even_violations)]
    violations += [(v, "odd value congruent 3 mod 4") for v in sorted(odd3_violations)]
    violations += [
        (v, "value 5 mod 8 rejected by classifier")
        for v in sorted(five_mod8)
        if not classify(v).achievable
    ]
    violations += [
        (v, "direct and factored determinants disagree") for v in sorted(direct_mismatches)
    ]
    return {
        "support": list(values),
        "total": total,
        "workers": 1,
        "lane": "pure",
        "direct": direct,
        "zero": n_zero,
        "even": n_even,
        "even_mult_1024": n_even_1024,
        "odd": n_odd,
        "odd_mod8": {str(r): n for r, n in odd_mod8.items()},
        "sample": [str(v) for v in sorted(sample, key=lambda v: (abs(v), v))[:sample_limit]],
        "five_mod8_values": len(five_mod8),
        "violations": [{"value": str(v), "reason": r} for v, r in violations],
        "ok": not violations,
    }


def _square_candidates(target: QuadraticSqrt2) -> list[tuple[int, int]]:
    """All canonical pairs (alpha, beta) whose square fits under the target
    in both embeddings; ascending lexicographic (|alpha|, |beta|) order with
    canonical sign alpha > 0, or alpha = 0 and beta >= 0."""
    tx, ty = target.x, target.y
    out: list[tuple[int, int]] = []
    # (a + b*sqrt2)^2 + (a - b*sqrt2)^2 = 2a^2 + 4b^2 <= 2*tx.
    for a in range(isqrt(tx) + 1 if tx >= 0 else 0):
        rem = tx - a * a
        bmax = isqrt(rem // 2) if rem >= 0 else -1
        bmin = 0 if a == 0 else -bmax
        for b in range(bmin, bmax + 1):
            if totally_nonneg(tx - (a * a + 2 * b * b), ty - 2 * a * b):
                out.append((a, b))
    out.sort(key=lambda ab: (abs(ab[0]), abs(ab[1]), ab[1] < 0))
    return out


def _dfs_four(target: QuadraticSqrt2, cands: list[tuple[int, int]]) -> list[tuple[int, int]] | None:
    """First decomposition into exactly four candidate squares, searching
    non-increasing candidate indices from the largest candidate down."""
    if not cands:
        return None
    chosen: list[tuple[int, int]] = []

    def rec(rx: int, ry: int, max_i: int, depth: int) -> bool:
        if depth == 4:
            return rx == 0 and ry == 0
        for i in range(max_i, -1, -1):
            a, b = cands[i]
            nx = rx - (a * a + 2 * b * b)
            ny = ry - 2 * a * b
            if not totally_nonneg(nx, ny):
                continue
            chosen.append((a, b))
            if rec(nx, ny, i, depth + 1):
                return True
            chosen.pop()
        return False

    if rec(target.x, target.y, len(cands) - 1, 0):
        return list(chosen)
    return None


def four_squares_reference(target: QuadraticSqrt2) -> tuple[tuple[int, int], ...]:
    """``quad_ring.four_squares(target).pairs`` from the eager search: the
    sorted list of all the target's candidates, odd alphas first, then all
    of them.  Raises NoDecomposition where the library does."""
    if target.y % 2 != 0 or not target.is_totally_nonneg():
        raise NoDecomposition(f"{target}: odd sqrt(2)-coefficient or not totally nonnegative")
    cands = _square_candidates(target)
    odd_cands = [ab for ab in cands if ab[0] % 2 == 1]
    sol = _dfs_four(target, odd_cands)
    if sol is None:
        sol = _dfs_four(target, cands)
    if sol is None:
        raise NoDecomposition(f"search exhausted for {target}")
    return tuple(sol)


def _layout_ok(pairs: list[tuple[int, int]], label: CaseLabel) -> bool:
    (a1, b1), (a2, b2), (a3, b3), (a4, b4) = pairs
    if a1 % 2 == 0 or a2 % 2 == 0 or (a3 - a4) % 2 != 0 or b1 % 2 == 0:
        return False
    betas = (b1 % 2, b2 % 2, b3 % 2, b4 % 2)
    if label is CaseLabel.CASE1_ONE_ODD_BETA:
        return a3 % 2 == 1 and betas == (1, 0, 0, 0)
    if label is CaseLabel.CASE1_THREE_ODD_BETA:
        return a3 % 2 == 1 and betas == (1, 1, 1, 0)
    if label is CaseLabel.CASE2_CONGRUENT_MOD4:
        return a3 % 2 == 0 and betas == (1, 0, 1, 0) and (a3 - a4) % 4 == 0
    return a3 % 2 == 0 and betas == (1, 0, 1, 0) and (a3 - a4) % 4 != 0


def normalize_reference(fs: FourSquares) -> tuple[FourSquares, CaseLabel]:
    """``quad_ring.normalize_decomposition(fs)`` from branches on the counts
    of odd alphas and odd betas, each building its order by hand, and a
    separate check of the layout built.  Raises NoValidArrangement where
    the library does."""
    pairs = [p if p[0] > 0 or (p[0] == 0 and p[1] >= 0) else (-p[0], -p[1]) for p in fs.pairs]
    odd_a = [p for p in pairs if p[0] % 2 == 1]
    even_a = [p for p in pairs if p[0] % 2 == 0]

    if len(odd_a) == 4:
        odd_b = [p for p in pairs if p[1] % 2 == 1]
        even_b = [p for p in pairs if p[1] % 2 == 0]
        if len(odd_b) == 1:
            ordered, label = odd_b + even_b, CaseLabel.CASE1_ONE_ODD_BETA
        elif len(odd_b) == 3:
            ordered, label = odd_b + even_b, CaseLabel.CASE1_THREE_ODD_BETA
        else:
            raise NoValidArrangement(f"{fs.pairs}: {len(odd_b)} odd betas with 4 odd alphas")
    elif len(odd_a) == 2:
        oa_ob = [p for p in odd_a if p[1] % 2 == 1]
        oa_eb = [p for p in odd_a if p[1] % 2 == 0]
        ea_ob = [p for p in even_a if p[1] % 2 == 1]
        ea_eb = [p for p in even_a if p[1] % 2 == 0]
        if len(oa_ob) != 1 or len(ea_ob) != 1:
            raise NoValidArrangement(f"{fs.pairs}: odd-beta counts {len(oa_ob)}/{len(ea_ob)}")
        ordered = oa_ob + oa_eb + ea_ob + ea_eb
        a3, a4 = ordered[2][0], ordered[3][0]
        label = (
            CaseLabel.CASE2_CONGRUENT_MOD4
            if (a3 - a4) % 4 == 0
            else CaseLabel.CASE2_INCONGRUENT_MOD4
        )
    else:
        raise NoValidArrangement(f"{fs.pairs}: {len(odd_a)} odd alphas")

    if not _layout_ok(ordered, label):
        raise NoValidArrangement(f"{fs.pairs}: layout check failed for {label}")
    return FourSquares(tuple(ordered)), label


def _eval_at_pm1(e: GroupRingElement) -> tuple[int, int, int, int]:
    """(f(1), g(1), f(-1), g(-1)) as plain signed coefficient sums."""
    a, b = e.a, e.b
    f1 = sum(a)
    g1 = sum(b)
    fm1 = a[0] - a[1] + a[2] - a[3] + a[4] - a[5] + a[6] - a[7]
    gm1 = b[0] - b[1] + b[2] - b[3] + b[4] - b[5] + b[6] - b[7]
    return f1, g1, fm1, gm1


def normalize_for_audit_reference(e: GroupRingElement) -> tuple[GroupRingElement, bool, bool]:
    """``analysis._normalize_for_audit(e)`` from the coefficient sums of each
    candidate element: reach f(1), f(-1) odd, g(1) = 2 mod 4, g(-1) = 0
    mod 4 by swapping f with g and/or substituting x -> -x.  Raises
    PreconditionUnreachable where the library does."""
    for swapped in (False, True):
        cand = swap_components(e) if swapped else e
        f1, g1, fm1, _ = _eval_at_pm1(cand)
        if f1 % 2 == 0 or fm1 % 2 == 0:
            continue
        for negated in (False, True):
            cand2 = substitute_neg_x(cand) if negated else cand
            _, g1, _, gm1 = _eval_at_pm1(cand2)
            if g1 % 4 == 2 and gm1 % 4 == 0:
                return cand2, swapped, negated
    raise PreconditionUnreachable(
        f"no swap/negate normalization of {e} meets the residue preconditions"
    )
