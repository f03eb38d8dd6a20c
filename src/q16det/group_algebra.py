"""Integer group ring of the order-16 dicyclic group and its determinant.

An element is stored as two blocks of eight integer coefficients: ``a`` for
the powers X**0..X**7 and ``b`` for Y*X**0..Y*X**7.  The group determinant
is det(M) for the 16x16 matrix M[g][h] = coefficient of g * h**-1, computed
exactly on that literal matrix by :func:`q16det.kernel.group_det`: one
block step at the central element X**4, unimodular and division-free,
splits M into two 8x8 blocks, each eliminated fraction-free.
"""

import operator
from typing import Iterable, NamedTuple, Sequence

from . import kernel


def _coeff_tuple(coeffs: Iterable[int], name: str) -> tuple[int, ...]:
    """The coefficients as a tuple of ints; a float, a string or None raises
    TypeError rather than being truncated or parsed."""
    t = tuple(map(operator.index, coeffs))
    if len(t) != 8:
        raise ValueError(f"{name} must have exactly 8 coefficients, got {len(t)}")
    return t


class _Blocks(NamedTuple):
    a: tuple[int, ...]
    b: tuple[int, ...]


class GroupRingElement(_Blocks):
    """sum(a[j] * X**j) + sum(b[j] * Y*X**j) with integer coefficients."""

    __slots__ = ()

    def __new__(cls, a: Iterable[int], b: Iterable[int]) -> "GroupRingElement":
        return super().__new__(cls, _coeff_tuple(a, "a"), _coeff_tuple(b, "b"))

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[int]) -> "GroupRingElement":
        """Build from a flat length-16 vector (a0..a7, b0..b7)."""
        if len(coeffs) != 16:
            raise ValueError(f"expected 16 coefficients, got {len(coeffs)}")
        return cls(tuple(coeffs[:8]), tuple(coeffs[8:]))


def direct_determinant(e: GroupRingElement) -> int:
    """Exact group determinant straight from the 16x16 matrix definition."""
    return kernel.group_det(e.a, e.b)


def substitute_neg_x(e: GroupRingElement) -> GroupRingElement:
    """Replace x by -x in both blocks: a[j] -> (-1)**j a[j], same for b."""
    return GroupRingElement(
        tuple(c if j % 2 == 0 else -c for j, c in enumerate(e.a)),
        tuple(c if j % 2 == 0 else -c for j, c in enumerate(e.b)),
    )


def swap_components(e: GroupRingElement) -> GroupRingElement:
    """Exchange the X-block and the Y-block (swap f and g)."""
    return GroupRingElement(e.b, e.a)

