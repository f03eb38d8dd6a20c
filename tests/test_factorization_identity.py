"""det = A*B*C**2*D**2 for every element, proved by finite exact checks.

The chain, one test per step:

(a) In the order X**0..X**7, Y*X**0..Y*X**7 the four 8x8 blocks of the
    literal matrix M = [[F, G1], [G2, F']] are circulants.  Circulants
    commute, so det M = det(F*F' - G1*G2) (Silvester, "Determinants of
    block matrices", Math. Gazette 2000).
(b) F*F' - G1*G2 is the circulant of the palindromic q whose q[0..4] are
    ``oracles._q_parts`` of the kernel's ``_autocorrelation`` of a and b.
(c) (A, B, C, X, Y) of ``factored_terms`` are q^(1), q^(-1), q^(i) and the
    two parts of q^(w) = X + Y*sqrt(2), w = exp(2*pi*i/8).
(d) For palindromic q, det circ(q) = A*B*C**2*(X**2 - 2*Y**2)**2 with
    (A, B, C, X, Y) those evaluations of q.

(b) and (c) compare quadratic forms in the 16 coefficients, which agree
everywhere once they agree at 0, at each e_i and at each e_i + e_j: 137
points.  (d) compares polynomials of degree at most 8 in each of q0..q4,
which agree everywhere once they agree on S**5 with |S| = 9: a polynomial
of degree at most 8 in each variable that vanishes there is zero.  The
left side of (d) is ``oracles._reflection_det``, the product of the
determinants of a 5x5 and a 3x3 block.  Each degree is asserted, not
assumed, by running the closed forms once on symbolic
polynomials (:class:`Poly`); the same pass checks that the two blocks are
the circulant in a basis of its reflection-symmetric and antisymmetric
vectors, so that their product is det circ(q).
"""

from itertools import combinations, product

from q16det import kernel
from q16det.core import DET_INDEX

import oracles
from oracles import _q_parts, _reflection_det, fraction_det


class Poly:
    """Integer polynomial as {monomial: coefficient}, a monomial being the
    sorted tuple of its variables' indices, with the ring operations the
    kernel's closed forms use."""

    def __init__(self, terms):
        self.terms = {m: c for m, c in terms.items() if c}

    @staticmethod
    def var(k):
        return Poly({(k,): 1})

    @staticmethod
    def of(x):
        return x if isinstance(x, Poly) else Poly({(): x})

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in Poly.of(other).terms.items():
            terms[m] = terms.get(m, 0) + c
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -Poly.of(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in Poly.of(other).terms.items():
                m = tuple(sorted(m1 + m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.terms == Poly.of(other).terms

    def __bool__(self):
        return bool(self.terms)

    def total_degrees(self):
        return {len(m) for m in self.terms}

    def variables(self):
        return {k for m in self.terms for k in m}


def _palindrome(q):
    """q[0..7] from q[0..4], by q[8 - k] = q[k]."""
    return (*q, q[3], q[2], q[1])


def _evaluations(q0, q1, q2, q3, q4):
    """(q^(1), q^(-1), q^(i), X, Y) with q^(w) = X + Y*sqrt(2), for the
    palindromic q with q[0..4] given: on |x| = 1, q^(x) = q0 + q4*x**4 +
    sum over k = 1..3 of q_k*2*cos(k*t), and 2*cos(k*t) for k = 1, 2, 3 is
    2, 2, 2 at x = 1, -2, 2, -2 at x = -1, 0, -2, 0 at x = i and sqrt(2),
    0, -sqrt(2) at x = w, where x**4 is 1, 1, 1, -1."""
    return (
        q0 + 2 * q1 + 2 * q2 + 2 * q3 + q4,
        q0 - 2 * q1 + 2 * q2 - 2 * q3 + q4,
        q0 - 2 * q2 + q4,
        q0 - q4,
        q1 - q3,
    )


def _factored_det(q):
    A, B, C, X, Y = _evaluations(*q)
    D = X * X - 2 * Y * Y
    return A * B * C * C * D * D


def _blocks(c):
    """F, G1, G2 and F' of the literal matrix M[g][h] = c[DET_INDEX[g][h]]."""
    m = [[c[i] for i in row] for row in DET_INDEX]
    return [[row[j : j + 8] for row in m[i : i + 8]] for i in (0, 8) for j in (0, 8)]


def _matmul(x, y):
    return [[sum((x[i][t] * y[t][j] for t in range(8)), 0) for j in range(8)] for i in range(8)]


def _schur(c):
    """F*F' - G1*G2 for the 16 coefficients ``c``."""
    F, G1, G2, F2 = _blocks(c)
    return [
        [u - v for u, v in zip(ru, rv)] for ru, rv in zip(_matmul(F, F2), _matmul(G1, G2))
    ]


def _kernel_q(c):
    """q[0..4] from the kernel's autocorrelations of the halves of ``c``."""
    return _q_parts(kernel._autocorrelation(c[:8]), kernel._autocorrelation(c[8:]))


#: 0, each e_i and each e_i + e_j in Z**16.
POINTS = [
    tuple(int(k in pair) for k in range(16))
    for n in (0, 1, 2)
    for pair in combinations(range(16), n)
]

#: The 16 coefficients as variables.
C16 = [Poly.var(k) for k in range(16)]


def test_a_blocks_of_det_index_are_circulants():
    for i0, j0 in product((0, 8), repeat=2):
        for i, j in product(range(8), repeat=2):
            assert DET_INDEX[i0 + i][j0 + j] == DET_INDEX[i0][j0 + (j - i) % 8], (i0, j0, i, j)


def test_b_schur_complement_is_circulant_of_kernel_q():
    # Both sides are quadratic forms in the 16 coefficients.
    assert all(entry.total_degrees() == {2} for row in _schur(C16) for entry in row)
    assert all(p.total_degrees() == {2} for p in _kernel_q(C16))
    assert len(set(POINTS)) == 137
    for c in POINTS:
        q = _palindrome(_kernel_q(c))
        assert _schur(c) == [[q[(j - i) % 8] for j in range(8)] for i in range(8)], c


def test_c_factored_terms_are_evaluations_of_q():
    assert all(p.total_degrees() == {2} for p in kernel.factored_terms(C16[:8], C16[8:]))
    assert all(p.total_degrees() == {2} for p in _evaluations(*_kernel_q(C16)))
    for c in POINTS:
        assert kernel.factored_terms(c[:8], c[8:]) == _evaluations(*_kernel_q(c)), c


#: The grid of step (d).
S = range(-4, 5)

#: A basis of Z**8 that a palindromic circulant maps into itself in two
#: parts: e0, e1+e7, e2+e6, e3+e5, e4 (symmetric), e1-e7, e2-e6, e3-e5.
REFLECTION_BASIS = [
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 1],
    [0, 0, 1, 0, 0, 0, 1, 0],
    [0, 0, 0, 1, 0, 1, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, -1],
    [0, 0, 1, 0, 0, 0, -1, 0],
    [0, 0, 0, 1, 0, -1, 0, 0],
]


def test_d_reflection_blocks_and_degree_bound(monkeypatch):
    # Each elimination returns a fresh variable, 5 then 6, so the result
    # shows how _reflection_det combines them: as their product.  Both blocks
    # have linear entries in q, so the degree in each q_k is at most the
    # number of rows that hold q_k, summed over the blocks.
    blocks = []

    def recorded(m):
        blocks.append(m)
        return Poly.var(4 + len(blocks))

    monkeypatch.setattr(oracles, "bareiss_reference", recorded)
    q = [Poly.var(k) for k in range(5)]
    assert _reflection_det(q, (0,) * 5) == Poly.var(5) * Poly.var(6)
    assert [len(m) for m in blocks] == [3, 5]
    for m in blocks:
        assert all(len(row) == len(m) for row in m)
        assert all(Poly.of(x).total_degrees() <= {1} for row in m for x in row)
    for k in range(5):
        rows = sum(any(k in Poly.of(x).variables() for x in row) for m in blocks for row in m)
        assert rows <= 8 < len(S), k
    # The right side is a product of eight linear forms in q.
    assert _factored_det(q).total_degrees() == {8}
    # C*P = P*diag(sym, anti) with P the reflection basis as columns, and
    # det P != 0: so det C = det(sym) * det(anti).
    anti, sym = blocks
    P = [list(column) for column in zip(*REFLECTION_BASIS)]
    assert fraction_det(P) != 0
    qq = _palindrome(q)
    circ = [[qq[(j - i) % 8] for j in range(8)] for i in range(8)]
    diag = [[0] * 8 for _ in range(8)]
    for i, j in product(range(5), repeat=2):
        diag[i][j] = sym[i][j]
    for i, j in product(range(3), repeat=2):
        diag[5 + i][5 + j] = anti[i][j]
    assert _matmul(circ, P) == _matmul(P, diag)


def test_d_grid():
    # q = _q_parts(q, 0): the b-half's autocorrelation is zero.
    zero = (0,) * 5
    grid = product(S, repeat=5)
    assert [q for q in grid if _reflection_det(q, zero) != _factored_det(q)] == []
