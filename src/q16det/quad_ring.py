"""Number theory in the real quadratic ring Z[sqrt(2)].

Covers what the witness pipeline needs: square roots of 2 modulo p, prime
splitting X**2 - 2*Y**2 = p for p = 7 mod 8, unit adjustment by 3 + 2*sqrt(2)
to steer X mod 4, and four squares summing to 2*(X + Y*sqrt(2)), found by a
depth-first search that lists each level's squares lazily and takes the last
square as the remainder's exact square root.  All is exact.

The split reduces a basis of a prime ideal over p once, by Lagrange's
reduction, and ``split_prime``'s docstring proves that the shortest vector
is already an orbit minimum.  Every product in Z[sqrt(2)] of the split and
the unit steer (the sign fix by 1 + sqrt(2), the conjugate step and both
steps of ``unit_adjust``) is one call of :func:`_times` on raw integers.
Each row of ``_LAYOUTS`` is one accepted parity layout of the four squares
with its (label, X mod 4) for both values of a3 - a4 mod 4; the witness
pipeline checks its X against that row.
"""

import enum
from math import isqrt
from typing import NamedTuple

from .core import totally_nonneg
from .errors import (
    InternalInconsistency,
    InvalidResidue,
    NoDecomposition,
    NonResidue,
    NotPrime,
    NoValidArrangement,
    int_text,
)
from .exact_eval import QuadraticSqrt2
from .primes import is_probable_prime


class _Split(NamedTuple):
    X: int
    Y: int
    p: int


class SplitSolution(_Split):
    """A totally positive solution of X**2 - 2*Y**2 = p with X, Y odd."""

    __slots__ = ()

    def __new__(cls, X: int, Y: int, p: int) -> "SplitSolution":
        if X * X - 2 * Y * Y != p:
            raise InternalInconsistency(
                f"({int_text(X)}, {int_text(Y)}) does not solve X^2-2Y^2={int_text(p)}"
            )
        if X <= 0 or Y <= 0:
            raise InternalInconsistency(f"({int_text(X)}, {int_text(Y)}) not positive")
        if X % 2 == 0 or Y % 2 == 0:
            raise InternalInconsistency(f"({int_text(X)}, {int_text(Y)}) not both odd")
        if not QuadraticSqrt2(X, Y).is_totally_positive():
            raise InternalInconsistency(f"({int_text(X)}, {int_text(Y)}) not totally positive")
        return super().__new__(cls, X, Y, p)

    def element(self) -> QuadraticSqrt2:
        return QuadraticSqrt2(self.X, self.Y)


class _Pairs(NamedTuple):
    pairs: tuple[tuple[int, int], ...]


class FourSquares(_Pairs):
    """Four pairs (alpha_j, beta_j) with
    sum_j (alpha_j + beta_j*sqrt(2))**2 equal to a target in Z[sqrt(2)]."""

    __slots__ = ()

    def __new__(cls, pairs: tuple[tuple[int, int], ...]) -> "FourSquares":
        if len(pairs) != 4:
            raise ValueError("exactly four pairs required")
        return super().__new__(cls, pairs)

    def total(self) -> QuadraticSqrt2:
        """sum of the four squares: (sum a^2 + 2 sum b^2) + 2(sum a*b)*sqrt2."""
        x = sum(a * a + 2 * b * b for a, b in self.pairs)
        y = 2 * sum(a * b for a, b in self.pairs)
        return QuadraticSqrt2(x, y)


class CaseLabel(enum.Enum):
    """Parity layout of a normalized decomposition."""

    CASE1_ONE_ODD_BETA = "case1_one_odd_beta"
    CASE1_THREE_ODD_BETA = "case1_three_odd_beta"
    CASE2_CONGRUENT_MOD4 = "case2_congruent_mod4"
    CASE2_INCONGRUENT_MOD4 = "case2_incongruent_mod4"


def sqrt2_mod_p(p: int) -> int:
    """The smaller root r of r**2 = 2 (mod p) for a prime p = +-1 mod 8.

    p = 7 mod 8 uses the exponent shortcut for p = 3 mod 4; p = 1 mod 8
    runs Tonelli-Shanks with the smallest non-residue as the helper, so the
    result is deterministic for a fixed p.
    """
    if p < 2 or not is_probable_prime(p):
        raise NotPrime(f"{int_text(p)} is not prime")
    if p % 8 not in (1, 7):
        raise NonResidue(f"2 is a non-residue mod {int_text(p)} (p = {p % 8} mod 8)")
    if p % 4 == 3:
        r = pow(2, (p + 1) // 4, p)
    else:
        r = _tonelli_shanks(2, p)
    if r * r % p != 2 % p:
        raise NotPrime(f"{int_text(p)}: square-root verification failed, not prime")
    return min(r, p - r)


def _tonelli_shanks(a: int, p: int) -> int:
    """A square root of the residue ``a`` mod the odd prime ``p``.

    The helper z is the smallest non-residue, and the search for it stops
    at z*(z - 1) >= p, raising NotPrime: a prime has a smaller one.  For
    the smallest non-residue n and m = ceil(p/n), 0 < m*n - p < n, so
    m*n - p is a residue, m a non-residue, m >= n and p > (m - 1)*n >=
    (n - 1)*n.  The main loop keeps t**(2**(m - 1)) = 1 when p is prime,
    so each pass finds an i < m with t**(2**i) = 1 and lowers m to it; a
    pass that finds none raises NotPrime.
    """
    q, s = p - 1, 0
    # variant: q, halved on every pass
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    # variant: p - z*(z - 1), which falls on every pass and ends the search at 0 or below
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
        if z * (z - 1) >= p:
            raise NotPrime(
                f"{int_text(p)}: no quadratic non-residue z with z*(z - 1) < p, not prime"
            )
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    # variant: m, which every pass replaces by an i with 0 < i < m, or raises
    while t != 1:
        t2i = t
        for i in range(1, m):
            t2i = t2i * t2i % p
            if t2i == 1:
                break
        else:
            raise NotPrime(f"{int_text(p)}: no i < m with t**(2**i) = 1, not prime")
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


def _times(x: int, y: int, u: int, v: int) -> tuple[int, int]:
    """The parts of (x + y*sqrt(2))*(u + v*sqrt(2)): the one product in
    Z[sqrt(2)] of the split and the unit steer."""
    return x * u + 2 * y * v, x * v + y * u


def _shortest(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """A shortest nonzero vector of the lattice with basis u, v, given
    Q(u) < Q(v), by Lagrange's reduction (1773).

    A pair (a, b) stands for a + b*sqrt(2), and its length is
    Q(a, b) = a**2 + 2*b**2, half the sum of its squared real embeddings.
    Each pass makes the shorter vector v, takes from the other the nearest
    multiple of v, and stops when the remainder is no shorter than v: the
    basis is then reduced, and v is a shortest vector.
    """
    (ux, uy), (vx, vy) = u, v
    qu, qv = ux * ux + 2 * uy * uy, vx * vx + 2 * vy * vy
    # variant: qv, a positive integer that falls on every pass
    while qu < qv:
        ux, uy, vx, vy, qv = vx, vy, ux, uy, qu
        m = (2 * (ux * vx + 2 * uy * vy) + qv) // (2 * qv)
        ux, uy = ux - m * vx, uy - m * vy
        qu = ux * ux + 2 * uy * uy
    return vx, vy


def split_prime(p: int) -> SplitSolution:
    """The minimal (smallest Y > 0) totally positive solution of
    X**2 - 2*Y**2 = p for a prime p = 7 mod 8.

    With r**2 = 2 (mod p) and r < p/2, the prime ideal (p, r - sqrt(2))
    has the basis (r, -1), (p, 0) in order of length, and one reduction
    finds its shortest vector v.  The
    totally positive solutions with Y > 0 fall in two orbits of the unit
    3 + 2*sqrt(2), those of the ideal and of its conjugate, and v already
    gives the first orbit's minimum:

    * The embeddings a +- b*sqrt(2) map the ideal onto a lattice of
      covolume 2*sqrt(2)*p, on which the squared length is 2*Q.  Hermite's
      constant gamma_2 = 2/sqrt(3) bounds 2*Q(v) by gamma_2 times the
      covolume, so Q(v) <= sqrt(8/3)*p and |N(v)| <= Q(v) < 2*p.  Since p
      divides N(v), which is not 0, |N(v)| = p: v generates the ideal.
    * The two embeddings e1, e2 of v have |e1*e2| = p and
      e1**2 + e2**2 = 2*Q(v) <= 2*sqrt(8/3)*p, so their ratio is at most
      2.93.  The sign fix by 1 + sqrt(2) multiplies it by at most
      (1 + sqrt(2))**2, so the solution X, Y > 0 has
      (X + Y*sqrt(2))/(X - Y*sqrt(2)) <= 17.1 < (3 + 2*sqrt(2))**2.  That
      bound is equivalent to Y**2 < 4*p, and so to 3*Y < 2*X, which says
      that the step down by 3 - 2*sqrt(2) gives 3*Y - 2*X < 0.  Y rises
      along the orbit, so no member has a smaller Y > 0.  The check of
      3*Y < 2*X stands in for a walk down the orbit.
    * The conjugate orbit's minimum is one step away:
      (X - Y*sqrt(2))*(3 + 2*sqrt(2)) = X' + Y'*sqrt(2) has
      Y' = 2*X - 3*Y > 0 by 3*Y < 2*X, and
      3*Y' = 6*X - 9*Y < 6*X - 8*Y = 2*X' since Y > 0.

    The smaller of the two minima's Y is the answer.
    """
    if p % 8 != 7:
        raise InvalidResidue(f"p must be 7 mod 8, got {int_text(p)} = {p % 8} mod 8")
    r = sqrt2_mod_p(p)
    x, y = _shortest((r, -1), (p, 0))
    if x * x < 2 * y * y:
        x, y = _times(x, y, 1, 1)  # the unit 1 + sqrt(2) has norm -1
    x, y = abs(x), abs(y)
    if 3 * y >= 2 * x:
        raise InternalInconsistency(f"({int_text(x)}, {int_text(y)}) is not an orbit minimum")
    x2, y2 = _times(x, -y, 3, 2)
    if y2 < y:
        x, y = x2, y2
    return SplitSolution(X=x, Y=y, p=p)


def unit_adjust(s: SplitSolution, target: int) -> SplitSolution:
    """A solution for the same prime with X = target (mod 4).

    One multiplication by 3 + 2*sqrt(2) or its inverse 3 - 2*sqrt(2) always
    suffices, since 3X + 4Y = -X mod 4 flips the residue; the inverse is
    preferred when it keeps Y positive (it shrinks the solution).
    """
    if target not in (1, 3):
        raise ValueError(f"target must be 1 or 3 mod 4, got {int_text(target)}")
    if s.X % 4 == target:
        return s
    x, y = _times(s.X, s.Y, 3, -2)
    if y <= 0:
        x, y = _times(s.X, s.Y, 3, 2)
    return SplitSolution(X=x, Y=y, p=s.p)


def _floor_div_sqrt2(s: int) -> int:
    """floor(s / sqrt(2)), exactly."""
    return isqrt(s * s // 2) if s >= 0 else -isqrt(s * s // 2) - 1


def _squares_under(rx: int, ry: int, top: tuple[int, int] | None, odd: bool):
    """Canonical pairs (alpha > 0, or alpha = 0 <= beta) whose squares fit under
    the totally nonnegative rx + ry*sqrt(2), in descending (|alpha|, |beta|,
    beta < 0) order from ``top`` (None: the largest) on; ``odd``: odd alphas."""
    ta, tb = top or (rx + 1, 0)
    # s1 > sqrt(rx + ry*sqrt2) and s2 > sqrt(rx - ry*sqrt2), within 2.
    q = _floor_div_sqrt2(2 * ry)  # floor(ry * sqrt2)
    s1, s2 = isqrt(rx + q + 1) + 1, isqrt(rx - q) + 1
    # 2a = (a + b*sqrt2) + (a - b*sqrt2) <= sqrt(u1) + sqrt(u2), with u1, u2
    # the embeddings of the remainder: 2a**2 <= rx + sqrt(rx**2 - 2ry**2).
    hi_a = min(ta, isqrt((rx + isqrt(rx * rx - 2 * ry * ry)) // 2))
    for a in range(hi_a - (odd and hi_a % 2 == 0), -1, -2 if odd else -1):
        rem = rx - a * a
        # The betas that fit, |a +- b*sqrt2| <= sqrt(rx +- ry*sqrt2), form an
        # interval; s1 and s2 bound it from outside, the exact test trims it.
        lo = -_floor_div_sqrt2(min(s1 + a, s2 - a)) if a else 0
        hi = _floor_div_sqrt2(min(s1 - a, s2 + a))
        # variant: hi - lo, which falls on every pass
        while lo <= hi and not totally_nonneg(rem - 2 * lo * lo, ry - 2 * a * lo):
            lo += 1
        # variant: hi - lo, which falls on every pass
        while hi >= lo and not totally_nonneg(rem - 2 * hi * hi, ry - 2 * a * hi):
            hi -= 1
        mtop = max(hi, -lo) if a != ta else min(max(hi, -lo), abs(tb))
        for m in range(mtop, max(0, lo, -hi) - 1, -1):
            if m and -m >= lo and not (a == ta and m == abs(tb) and tb >= 0):
                yield a, -m
            if m <= hi:
                yield a, m


def _square_root(rx: int, ry: int) -> tuple[int, int] | None:
    """The canonical pair (a > 0, or a = 0 <= b) with (a + b*sqrt2)**2 =
    rx + ry*sqrt2 for a totally nonnegative rx + ry*sqrt2; else None.

    Its norm is (a**2 - 2*b**2)**2, so a**2 is (rx + d)/2 or (rx - d)/2 with
    d the norm's square root."""
    n = rx * rx - 2 * ry * ry
    d = isqrt(n)
    if d * d != n:
        return None
    for a2 in ((rx + d) // 2, (rx - d) // 2):
        a = isqrt(a2)
        b = ry // (2 * a) if a else isqrt(rx // 2)
        if a * a + 2 * b * b == rx and 2 * a * b == ry:
            return a, b
    return None


def _dfs_four(rx: int, ry: int, odd: bool, top: tuple[int, int] | None = None, depth: int = 0):
    """First decomposition of rx + ry*sqrt(2) into 4 - depth squares, each
    drawn from _squares_under at or below the previous one; else None.

    The last square must equal the remainder, and at most one canonical pair
    squares to it, so the last level is the remainder's exact square root.
    That root never lies above the previous square: the search reaches the
    sorted order of the same four squares first, and would have returned it.
    """
    if depth == 3:
        root = _square_root(rx, ry)
        return None if root is None or (odd and root[0] % 2 == 0) else [root]
    for a, b in _squares_under(rx, ry, top, odd):
        rest = _dfs_four(rx - (a * a + 2 * b * b), ry - 2 * a * b, odd, (a, b), depth + 1)
        if rest is not None:
            return [(a, b)] + rest
    return None


def four_squares(target: QuadraticSqrt2) -> FourSquares:
    """Write a totally nonnegative target with even sqrt(2)-coefficient as a
    sum of four squares in Z[sqrt(2)].

    Decompositions whose alphas are all odd are searched first: they exist
    in practice for the doubled split solutions this library consumes and
    they lead to the simpler parity layout downstream.  The search is a
    deterministic depth-first scan, so certificates are reproducible.  Each
    level lists lazily the pairs that fit its remainder, and so the target:
    the first decomposition is that of a scan of the target's sorted list.
    """
    if target.y % 2 != 0:
        raise NoDecomposition(
            f"sqrt(2)-coefficient of {target} is odd; no four-squares decomposition"
        )
    if not target.is_totally_nonneg():
        raise NoDecomposition(f"{target} is not totally nonnegative")
    sol = _dfs_four(target.x, target.y, True) or _dfs_four(target.x, target.y, False)
    if sol is None:
        raise NoDecomposition(f"search exhausted for {target}")
    fs = FourSquares(tuple(sol))
    if fs.total() != target:
        raise InternalInconsistency(f"decomposition of {target} does not reconstruct")
    return fs


def cohn_four_squares(s: SplitSolution) -> FourSquares:
    """Four squares summing to 2*(X + Y*sqrt(2)) for a split solution."""
    return four_squares(QuadraticSqrt2(2 * s.X, 2 * s.Y))


def _canonical_pair(pair: tuple[int, int]) -> tuple[int, int]:
    a, b = pair
    if a > 0 or (a == 0 and b >= 0):
        return pair
    return (-a, -b)


# The parity layouts (alpha_j mod 2, beta_j mod 2) the coefficient assignment
# accepts, each with its (label, X mod 4) for a3 - a4 = 0 and = 2 (mod 4):
# four squares of that layout and label sum to 2*(X + Y*sqrt(2)) only with
# X of that residue.
_LAYOUTS = {
    ((1, 1), (1, 0), (1, 0), (1, 0)): ((CaseLabel.CASE1_ONE_ODD_BETA, 3),) * 2,
    ((1, 1), (1, 1), (1, 1), (1, 0)): ((CaseLabel.CASE1_THREE_ODD_BETA, 1),) * 2,
    ((1, 1), (1, 0), (0, 1), (0, 0)): (
        (CaseLabel.CASE2_CONGRUENT_MOD4, 3),
        (CaseLabel.CASE2_INCONGRUENT_MOD4, 1),
    ),
}


def normalize_decomposition(fs: FourSquares) -> tuple[FourSquares, CaseLabel]:
    """Reorder (and sign-canonicalize) a decomposition into the parity
    layout the coefficient assignment expects, and label it.

    Only square-preserving moves are used: permutations of the four pairs
    and joint negations (a, b) -> (-a, -b).  The canonical pairs are sorted
    stably, odd alphas first and odd betas first within each, and the
    sorted layout must be one of ``_LAYOUTS``; else NoValidArrangement,
    whose message prints that layout and not the pairs, so huge pairs
    still raise it.  In every layout a3 and a4 have the same parity, so
    a3 - a4 is 0 or 2 mod 4, and it picks the label from the layout's row.
    For a target 2*(X + Y*sqrt(2)) with X, Y odd a valid arrangement always
    exists: Y odd forces a pair with both entries odd, and 2X even forces
    two or four odd alphas.
    """
    pairs = sorted(map(_canonical_pair, fs.pairs), key=lambda p: (p[0] % 2 == 0, p[1] % 2 == 0))
    layout = tuple((a % 2, b % 2) for a, b in pairs)
    if layout not in _LAYOUTS:
        raise NoValidArrangement(f"no accepted parity layout: the sorted pairs have {layout}")
    return FourSquares(tuple(pairs)), _LAYOUTS[layout][(pairs[2][0] - pairs[3][0]) % 4 // 2][0]
