"""Finite exact checks that the witness recipes cover what they claim.

Each check reads the library's own tables, so a change to a table is
checked again here.  The families of ``witness._FAMILIES``: each row is
(base f, base g, sign of m*h in f, in g, step, offset), and member m of a
family has determinant step*m + offset.
"""

import pytest

from q16det import core
from q16det.witness import (
    _FAMILIES,
    family_element,
    family_value,
    witness_even,
    witness_odd_1mod8,
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


def test_family_classes_cover_each_residue_once():
    # The even classes are the four multiples of 2**10 mod 4096 and the odd
    # ones the two classes 1 mod 8 mod 16, each held by one family: every
    # multiple of 2**10 and every n = 1 mod 8 lies in exactly one class.
    classes = sorted((step, offset % step) for *_, step, offset in _FAMILIES.values())
    assert classes == [(16, 1), (16, 9), (4096, 0), (4096, 1024), (4096, 2048), (4096, 3072)]


@pytest.mark.parametrize("family", _FAMILIES)
def test_lookup_takes_the_family_of_the_class(family):
    *_, step, offset = _FAMILIES[family]
    witness = witness_even if step == 4096 else witness_odd_1mod8
    for m in (-3, 0, 2):
        n = step * m + offset
        assert witness(n).trace == {"family": family, "m": m}, n
