"""Finite exact checks that the witness recipes cover what they claim.

Each check reads the library's own tables, so a change to a table is
checked again here.  The chain, one test per step:

(a) The families of ``witness._FAMILIES``: each row is (base f, base g,
    sign of m*h in f, in g, step, offset), member m of a family has
    determinant step*m + offset, and ``witness._FAMILY_OF_CLASS`` finds
    the one family whose class holds a target.
(b) ``quad_ring.unit_adjust`` steers X of a split X**2 - 2*Y**2 = p to
    either residue mod 4 in one unit step.
(c) Every four squares summing to 2*(X + Y*sqrt(2)) sort into a layout of
    ``quad_ring._LAYOUTS`` whose row pairs their label with X mod 4, and
    lift to patterns of ``witness._U_PATTERNS`` and ``witness._V_PATTERNS``.
(d) ``witness._lift`` fixes A*B*C**2 = m by the patterns and the shift,
    and keeps X + Y*sqrt(2), so D = p.
(e) Such four squares exist: a totally positive element of Z[sqrt(2)]
    with even sqrt(2)-coefficient is a sum of four integral squares (H.
    Cohn, "Decomposition into four integral squares in the fields of
    2^(1/2) and 3^(1/2)", Amer. J. Math. 82, 1960), and
    ``quad_ring.four_squares`` searches exhaustively, so it finds one.
    This step is the cited theorem, not a check here.

A split X**2 - 2*Y**2 = p exists for every prime p = 7 mod 8: 2 is a
square mod p and Z[sqrt(2)] is norm-Euclidean, and ``split_prime`` finds
it by a gcd.  With p prime and 7 mod 8, which ``witness_odd_5mod8``
checks, the pipeline therefore reaches every n = m*p**2 with m = 5 mod 8.
"""

import itertools
import random
from functools import cache

import pytest

from q16det import core
from q16det.classifier import classify_and_witness
from q16det.primes import primes_below
from q16det.quad_ring import (
    _LAYOUTS,
    CaseLabel,
    FourSquares,
    normalize_decomposition,
    split_prime,
    unit_adjust,
)
from q16det.witness import (
    _FAMILIES,
    _FAMILY_OF_CLASS,
    _U_PATTERNS,
    _V_PATTERNS,
    _lift,
    build_low_degree_pair,
    family_element,
    family_value,
    witness_even,
    witness_odd_1mod8,
    witness_odd_5mod8,
)


@pytest.mark.parametrize("family", _FAMILIES)
def test_family_determinant_is_its_value_for_every_m(family):
    """The literal group determinant of member m equals step*m + offset
    for every integer m.

    Every coefficient of ``family_element(family, m)`` is linear in m, so
    every entry of the 16x16 group matrix is too, and its determinant is
    a polynomial in m of degree at most 16.  ``family_value`` is a
    polynomial of degree 1.  Two polynomials of degree at most 16 that
    agree at 17 points are equal, so agreement at m = -8, ..., 8 proves
    the identity for every m."""
    for m in range(-8, 9):
        e = family_element(family, m)
        assert core.group_det(e.a, e.b) == family_value(family, m), m


def _family_by_search(n):
    """The first row of ``_FAMILIES`` whose class, offset mod step, holds
    ``n``, found row by row: the reference for the class table."""
    for family, (*_, step, offset) in _FAMILIES.items():
        if (n - offset) % step == 0:
            return family
    return None


def test_family_classes_cover_each_residue_once():
    # The even classes are the four multiples of 2**10 mod 4096 and the odd
    # ones the two classes 1 mod 8 mod 16, each held by one family: every
    # multiple of 2**10 and every n = 1 mod 8 lies in exactly one class.
    classes = sorted((step, offset % step) for *_, step, offset in _FAMILIES.values())
    assert classes == [(16, 1), (16, 9), (4096, 0), (4096, 1024), (4096, 2048), (4096, 3072)]
    # The witness functions find the family by one lookup of its class: the
    # table has one key per class, names each family once with its offset,
    # and in every class picks the family the row-by-row search finds.
    assert sorted(_FAMILY_OF_CLASS) == classes
    assert sorted(_FAMILY_OF_CLASS.values()) == sorted(
        (family, offset) for family, (*_, offset) in _FAMILIES.items()
    )
    for step, r in classes:
        witness = witness_even if step == 4096 else witness_odd_1mod8
        for k in (-(10**12), -2, -1, 0, 1, 2, 10**12):
            n = r + step * k
            assert witness(n).trace["family"] == _family_by_search(n), n


@pytest.mark.parametrize("family", _FAMILIES)
def test_lookup_takes_the_family_of_the_class(family):
    # Members come back as the family and the m they were built from, from
    # the witness function of their parity and from the classifier, for
    # small m and seeded m of both signs below 10**15.
    step = _FAMILIES[family][4]
    witness = witness_even if step == 4096 else witness_odd_1mod8
    rng = random.Random(f"family:{family}")
    for m in (-3, 0, 2, *(sign * rng.randrange(10**15) for sign in (1, -1) for _ in range(8))):
        n = family_value(family, m)
        assert witness(n).trace == classify_and_witness(n).trace == {"family": family, "m": m}, n


def test_unit_steer_flips_x_mod_4():
    """(b) ``unit_adjust`` returns the split itself when X already has the
    target residue, else the split times 3 - 2*sqrt(2) or 3 + 2*sqrt(2):
    X becomes 3X - 4Y or 3X + 4Y, both -X (mod 4), and X is odd, so the
    other residue is one step away.  A split multiplied by 3 + 2*sqrt(2)
    steers back down through 3 - 2*sqrt(2), so both branches run."""
    for x, y in itertools.product(range(4), repeat=2):
        assert (3 * x - 4 * y) % 4 == (3 * x + 4 * y) % 4 == -x % 4
    for p in primes_below(400):
        if p % 8 != 7:
            continue
        s = split_prime(p)
        down = (3 * s.X - 4 * s.Y, 3 * s.Y - 2 * s.X)
        up = (3 * s.X + 4 * s.Y, 2 * s.X + 3 * s.Y)
        for target in (1, 3):
            t = unit_adjust(s, target)
            assert t.X % 4 == target and t.p == p
            assert t == s if s.X % 4 == target else (t.X, t.Y) in (down, up)
        away = unit_adjust(s, 4 - s.X % 4)
        assert unit_adjust(away, s.X % 4) == s, p


@cache
def _residue_table():
    """(X mod 4, pairs, layout, label, u, v) for every tuple of four pairs
    (alpha mod 4, beta mod 2) whose squares can sum to 2*(X + Y*sqrt(2))
    for X, Y odd: sum(alpha**2 + 2*beta**2) = 2X (mod 8) and
    sum(alpha*beta) = Y odd."""
    rows = []
    for x_target in (1, 3):
        for pairs in itertools.product(itertools.product(range(4), range(2)), repeat=4):
            if sum(a * a + 2 * b * b for a, b in pairs) % 8 != 2 * x_target:
                continue
            if sum(a * b for a, b in pairs) % 2 == 0:
                continue
            nfs, label = normalize_decomposition(FourSquares(pairs))
            layout = tuple((a % 2, b % 2) for a, b in nfs.pairs)
            a4, b4 = build_low_degree_pair(nfs)
            u, _ = _lift(a4, 0, _U_PATTERNS)
            v, _ = _lift(b4, 0, _V_PATTERNS)
            rows.append((x_target, pairs, layout, label, u, v))
    return rows


def test_every_decomposition_has_a_layout_and_patterns():
    """(c) p = X**2 - 2*Y**2 = 7 (mod 8) makes X and Y odd.  For four pairs
    whose squares sum to 2*(X + Y*sqrt(2)), sum(alpha**2 + 2*beta**2) = 2X
    and sum(alpha*beta) = Y, so 2X (mod 8) and the parity of Y constrain
    only alpha mod 4 and beta mod 2.  Joint negation keeps the squares,
    and canonical pairs have alpha >= 0, so the representatives 0..3 and
    0..1 stand for every canonical pair; the sort reads parities, the
    label a3 - a4 (mod 4) and the low-degree patterns (a1 -+ a2)/2 and
    (a3 -+ a4)/2 mod 2, all functions of these residues.  So this
    enumeration covers every decomposition in every order:
    ``normalize_decomposition``, ``build_low_degree_pair`` and ``_lift``
    raise on none of them, the layout's row of ``_LAYOUTS`` pairs each
    label with X mod 4 (the pairing ``witness_odd_5mod8`` checks), and
    every entry of the three tables occurs."""
    rows = _residue_table()
    assert len(rows) == 512
    for x_target, pairs, layout, label, _, _ in rows:
        assert (label, x_target) in _LAYOUTS[layout], pairs
    assert {layout for _, _, layout, _, _, _ in rows} == set(_LAYOUTS)
    assert {label for _, _, _, label, _, _ in rows} == set(CaseLabel)
    assert {u for *_, u, _ in rows} == set(_U_PATTERNS)
    assert {v for *_, v in rows} == set(_V_PATTERNS)


def _at_fourth_roots(h):
    """h(1), h(-1) and h(i) as (re, im): the evaluations A, B and C read."""
    i = (h[0] - h[2] + h[4] - h[6], h[1] - h[3] + h[5] - h[7])
    return sum(h), sum(h[0::2]) - sum(h[1::2]), i


def test_lift_fixes_the_quotient_and_keeps_z():
    """(d) ``_lift`` of c = u + 2k at shift s is u + (1 - x^4)*k - s*h.  It
    is affine in (k, s), so checking k = 0 and each unit vector, at s = 0
    and 1, shows for every k and s that its evaluations at 1, -1 and i do
    not depend on k, and that its coefficients j - (j + 4), which give
    the evaluation at the primitive 8th roots, are c's: z = X + Y*sqrt(2)
    is kept, so D = X**2 - 2*Y**2 = p.  A, B and C then depend only on
    (u, v, s); h(1) = 8 and h(-1) = h(i) = 0, so A = (u(1) - 8s)**2 -
    (v(1) - 8s)**2 is linear in s and B, C do not depend on it.  A*B*C**2
    is therefore linear in s, and equal to 5 - 16s (X = 1 mod 4) or
    16s - 3 (X = 3 mod 4) at two values of s, for all s."""
    units = [(0,) * 4] + [tuple(int(i == j) for i in range(4)) for j in range(4)]
    for patterns in (_U_PATTERNS, _V_PATTERNS):
        for u, s, k in itertools.product(patterns, (0, 1), units):
            c = tuple(x + 2 * y for x, y in zip(u, k))
            pattern, lifted = _lift(c, s, patterns)
            assert pattern == u
            assert _at_fourth_roots(lifted) == _at_fourth_roots(_lift(u, s, patterns)[1])
            assert tuple(lifted[j] - lifted[j + 4] for j in range(4)) == c
    combos = {(x_target, u, v) for x_target, *_, u, v in _residue_table()}
    assert len(combos) == 12
    for x_target, u, v in combos:
        for s in (0, 1):
            f, g = _lift(u, s, _U_PATTERNS)[1], _lift(v, s, _V_PATTERNS)[1]
            A, B, C, _, _ = core.factored_terms(f, g)
            m = 5 - 16 * s if x_target == 1 else 16 * s - 3
            assert A * B * C * C == m, (x_target, u, v, s)


@pytest.mark.parametrize("m", [5, 21, -11, 13, 29, -3])
def test_pipeline_shift_solves_the_lift(m):
    # witness_odd_5mod8 picks the shift s with m = 5 - 16s or 16s - 3,
    # which (d) proves A*B*C**2 equals.
    trace = witness_odd_5mod8(m * 49, 7).trace
    s = trace["shift"]
    assert m == (5 - 16 * s if trace["x_target"] == 1 else 16 * s - 3)
