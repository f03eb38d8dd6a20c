"""Constructions achieving every attainable determinant value.

Even multiples of 2**10 and odd values 1 mod 8 come from six fixed
one-parameter coefficient families built around h(x) = (x+1)(x^2+1)(x^4+1)
= 1 + x + ... + x^7, which vanishes at -1, i and the primitive 8th roots of
unity, so adding a multiple of h only moves the evaluation at 1.  Each
family is one row of ``_FAMILIES``: member m has determinant
step*m + offset, and a target takes the one family whose class, offset
mod step, holds it.  The family is found by residue class, one lookup of
(step, n mod step) in a table derived from ``_FAMILIES`` at import, with
step 4096 for even targets and 16 for odd ones; the certificate rule
below is the same for every family.

Values m*p^2 with m = 5 mod 8 and p = 7 mod 8 prime go through the
quadratic-ring pipeline: split p as X**2 - 2*Y**2, steer X mod 4 with the
unit 3 + 2*sqrt(2), write 2*(X + Y*sqrt(2)) as four squares, sort them
into one of the parity layouts of ``quad_ring._LAYOUTS``, check X mod 4
against the residue that layout's row pairs with the label, read off a
degree-3 coefficient pair whose norms at the 8th root of unity sum to
X + Y*sqrt(2), and lift each vector c = u + 2k of the pair to
u + (1 - x^4)*k(x) - m'*h(x), which preserves that sum while moving the
evaluations at 1; the parities u must match ``_U_PATTERNS`` and
``_V_PATTERNS``.

Every certificate is verified by :func:`_certify`, which applies
:func:`q16det.core.certificate_terms`: the full 16x16 determinant and
A*B*C**2*D**2 must both equal the target, and an unverified certificate
is never returned.  Targets and primes must be integers: a float, a
string or None raises TypeError.  A refusal prints a target or prime
through :func:`q16det.errors.int_text`, and the refusals of
:func:`build_low_degree_pair` and :func:`_lift` print parities only, so
an integer past the interpreter's string limit still raises the
library's own error.
"""

import operator
from typing import NamedTuple

from .core import certificate_terms, factored_terms
from .errors import (
    BadInput,
    InternalInconsistency,
    NotMultiple,
    ParityViolation,
    PatternMismatch,
    WrongResidue,
    int_text,
)
from .exact_eval import FactoredForm, QuadraticSqrt2
from .group_algebra import GroupRingElement
from .primes import is_probable_prime
from .quad_ring import (
    _LAYOUTS,
    FourSquares,
    cohn_four_squares,
    normalize_decomposition,
    split_prime,
    unit_adjust,
)

# Not called here; perfbench's tracer wraps these two names on this module.
from .exact_eval import factored_form  # noqa: F401
from .group_algebra import direct_determinant  # noqa: F401


def poly_h() -> tuple[int, ...]:
    """(x+1)(x^2+1)(x^4+1) = 1 + x + ... + x^7: all-ones coefficients.

    h(1) = 8 and h vanishes at -1, i and the primitive 8th roots of unity.
    """
    return (1,) * 8


class WitnessCertificate(NamedTuple):
    n: int
    element: GroupRingElement
    factored: FactoredForm
    trace: dict
    verified: bool


# One-parameter families: id -> (base f, base g, sign of m*h in f, in g,
# step, offset).  Member m has determinant step*m + offset, so each family
# covers the class offset mod step: the even families step by 4096 through
# the classes 0, 1024, 2048 and 3072, the odd ones by 16 through 1 and 9.
# Every emitted certificate is verified.
_H = poly_h()

_FAMILIES = {
    "even_1024_4m_minus_3": (
        _H, (1, 0, 1, 1, 1, 0, 0, 0), -1, -1, 4096, -3072
    ),
    "even_1024_4m_minus_1": (
        (1, 1, 0, 0, 1, 1, 0, 0), (1, 1, 0, -1, 0, 0, 0, -1), -1, -1, 4096, -1024
    ),
    "even_2048_2m_minus_1": (
        (1, 1, 1, 1, 1, 1, 0, 0), (1, 0, 0, 0, 1, 0, 0, 0), -1, -1, 4096, -2048
    ),
    "even_4096_m": (
        (1, 1, 0, 0, 1, 1, -1, -1), (1, 1, 0, -1, 1, 1, 0, -1), -1, 1, 4096, 0
    ),
    "odd_16m_plus_1": (
        (1, 0, 0, 0, 0, 0, 0, 0), (0,) * 8, 1, 1, 16, 1
    ),
    "odd_16m_minus_7": (
        (1, -1, 1, 1, 0, 0, 0, 1), (1, 0, 0, 1, 1, 0, 0, 1), -1, -1, 16, -7
    ),
}


# (step, offset mod step) -> (family, offset): the one family whose class
# holds a target, read off n mod step.
_FAMILY_OF_CLASS = {
    (step, offset % step): (family, offset)
    for family, (*_, step, offset) in _FAMILIES.items()
}


def family_element(family: str, m: int) -> GroupRingElement:
    """The coefficient vectors of a family member (exposed for tests)."""
    base_f, base_g, sf, sg, _, _ = _FAMILIES[family]
    mf, mg = sf * m, sg * m
    return GroupRingElement([c + mf for c in base_f], [c + mg for c in base_g])


def family_value(family: str, m: int) -> int:
    """The determinant step*m + offset of a family member."""
    step, offset = _FAMILIES[family][4:]
    return step * m + offset


def _certify(n: int, e: GroupRingElement, trace: dict) -> WitnessCertificate:
    """The certificate of ``n`` on ``e``, from
    :func:`q16det.core.certificate_terms`, the one rule for a valid
    certificate: the literal 16x16 determinant of ``e`` and
    A*B*C**2*D**2 both equal ``n``.  Every certificate made here goes
    through it, and :func:`q16det.certificate.verify_document` applies
    the same rule to every one loaded.  Raises InternalInconsistency when
    the rule fails; the certificate carries the factored form the rule
    computed."""
    A, B, C, D, X, Y = certificate_terms(n, e.a, e.b, trace)
    ff = FactoredForm(A, B, C, D, QuadraticSqrt2(X, Y))
    return WitnessCertificate(n, e, ff, trace, True)


def _family_witness(n: int, step: int) -> WitnessCertificate:
    """The certificate of ``n`` from the family whose class, offset mod
    ``step``, holds ``n``, at m = (n - offset) // step."""
    found = _FAMILY_OF_CLASS.get((step, n % step))
    if found is None:
        raise InternalInconsistency(f"no family holds {int_text(n)}")
    family, offset = found
    m = (n - offset) // step
    return _certify(n, family_element(family, m), {"family": family, "m": m})


def witness_even(n: int) -> WitnessCertificate:
    """A verified witness for any multiple of 2**10 (including 0)."""
    n = operator.index(n)
    if n % 1024 != 0:
        raise NotMultiple(f"{int_text(n)} is not a multiple of 2**10")
    return _family_witness(n, 4096)


def witness_odd_1mod8(n: int) -> WitnessCertificate:
    """A verified witness for any n = 1 mod 8."""
    n = operator.index(n)
    if n % 8 != 1:
        raise WrongResidue(f"{int_text(n)} is not 1 mod 8")
    return _family_witness(n, 16)


def build_low_degree_pair(
    fs: FourSquares,
) -> tuple[tuple[int, int, int, int], tuple[int, int, int, int]]:
    """Degree-3 coefficient vectors from a normalized decomposition:

        a = ((a1-a2)/2, b1, (a1+a2)/2, b2),  b = ((a3-a4)/2, b3, (a3+a4)/2, b4)

    where (aj, bj) are the decomposition pairs.  Then |f(w)|^2 + |g(w)|^2
    reproduces exactly half the decomposed target.
    """
    (al1, be1), (al2, be2), (al3, be3), (al4, be4) = fs.pairs
    if (al1 - al2) % 2 != 0 or (al3 - al4) % 2 != 0:
        parities = (al1 % 2, al2 % 2, al3 % 2, al4 % 2)
        raise ParityViolation(f"alphas not pairwise congruent mod 2: parities {parities}")
    a = ((al1 - al2) // 2, be1, (al1 + al2) // 2, be2)
    b = ((al3 - al4) // 2, be3, (al3 + al4) // 2, be4)
    return a, b


# Parity patterns of the low-degree pair (1 = odd coefficient).
_U_PATTERNS = {
    (1, 1, 0, 0): "1+x",
    (0, 1, 1, 0): "x(1+x)",
    (1, 1, 0, 1): "1+x+x^3",
    (0, 1, 1, 1): "x(1+x+x^2)",
}
_V_PATTERNS = {
    (1, 0, 0, 0): "1",
    (0, 1, 0, 0): "x",
    (0, 0, 1, 0): "x^2",
    (1, 1, 0, 0): "1+x",
    (0, 1, 1, 0): "x(1+x)",
    (1, 1, 1, 0): "1+x+x^2",
}


def _lift(
    c: tuple[int, int, int, int], m: int, patterns: dict
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The parity pattern u = c mod 2 of a degree-3 vector c and the degree-7
    coefficients of u + (1 - x^4)*k - m*h with k = c // 2, which is
    (c - k - m) + (-k - m)*x^4 since c = u + 2k.

    At 1, -1 and i the (1 - x^4) term vanishes; at the primitive 8th roots
    of unity h vanishes and (1 - x^4) doubles, so the lift equals c there,
    keeping the quadratic-ring data of the low-degree pair.  Raises
    PatternMismatch unless u is one of ``patterns``.
    """
    u = tuple(x % 2 for x in c)
    if u not in patterns:
        raise PatternMismatch(f"parities {u} match no expected pattern")
    k = tuple(x // 2 for x in c)
    return u, tuple(x - y - m for x, y in zip(c, k)) + tuple(-y - m for y in k)


def witness_odd_5mod8(n: int, p: int) -> WitnessCertificate:
    """A verified witness for n = m*p**2 with m = 5 mod 8, via the
    quadratic-ring pipeline for the prime p = 7 mod 8."""
    n, p = operator.index(n), operator.index(p)
    if n % 8 != 5:
        raise BadInput(f"{int_text(n)} is not 5 mod 8")
    if p % 8 != 7 or not is_probable_prime(p):
        raise BadInput(f"p={int_text(p)} is not a prime congruent to 7 mod 8")
    if n % (p * p) != 0:
        raise BadInput(f"p^2={int_text(p * p)} does not divide {int_text(n)}")
    m = n // (p * p)
    if m % 8 != 5:  # automatic: p^2 = 1 mod 16
        raise InternalInconsistency(f"m={m} not 5 mod 8 despite residues")

    if m % 16 == 5:
        x_target, shift = 1, (5 - m) // 16
    else:
        x_target, shift = 3, (m + 3) // 16

    s0 = split_prime(p)
    s = unit_adjust(s0, x_target)
    fs = cohn_four_squares(s)
    nfs, label = normalize_decomposition(fs)
    a4, b4 = build_low_degree_pair(nfs)

    _, _, _, x, y = factored_terms(a4 + (0, 0, 0, 0), b4 + (0, 0, 0, 0))
    if (x, y) != (s.X, s.Y):
        raise InternalInconsistency(
            f"low-degree pair norms {(x, y)} != split solution {(s.X, s.Y)}"
        )
    # Each row of the layout table pairs a label with the X mod 4 it goes with.
    if (label, x_target) not in (row for rows in _LAYOUTS.values() for row in rows):
        raise InternalInconsistency(f"case {label} inconsistent with X={s.X} mod 4")

    u, f = _lift(a4, shift, _U_PATTERNS)
    v, g = _lift(b4, shift, _V_PATTERNS)
    trace = {
        "family": "odd_5mod8_pipeline",
        "p": p,
        "m": m,
        "shift": shift,
        "x_target": x_target,
        "split": (s0.X, s0.Y),
        "adjusted": (s.X, s.Y),
        "four_squares": nfs.pairs,
        "case": label.value,
        "u": u,
        "v": v,
    }
    cert = _certify(n, GroupRingElement(f, g), trace)
    if cert.factored.D != p or (cert.factored.z.x, cert.factored.z.y) != (s.X, s.Y):
        raise InternalInconsistency(
            f"factored data {cert.factored} does not show D={p}, z={(s.X, s.Y)}"
        )
    return cert
