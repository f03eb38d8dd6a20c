"""The Z[sqrt(2)] type and the factored form A, B, C, D of the determinant.

A group-ring element is split into two degree-7 polynomials f (coefficients
a0..a7 of the X-block) and g (coefficients b0..b7 of the Y-block).  The
determinant factors as A * B * C**2 * D**2 through evaluations at the roots
of x**8 - 1:

    A = f(1)**2  - g(1)**2
    B = f(-1)**2 - g(-1)**2
    C = |f(i)|**2 - |g(i)|**2
    D = (|f(w)|**2 + |g(w)|**2) * (|f(w**3)|**2 + |g(w**3)|**2)

with w a primitive 8th root of unity.  |f(w)|**2 + |g(w)|**2 is an element
z = X + Y*sqrt(2) of the real quadratic ring Z[sqrt(2)], and the conjugation
sqrt(2) -> -sqrt(2) realizes the evaluation at w**3, so D is the ring norm
X**2 - 2*Y**2.  The integers (A, B, C, X, Y) come from
:func:`q16det.kernel.factored_terms`, and every evaluation at 1, -1, i and
w from the kernel's per-half ``_half_terms``; this module wraps them and
evaluates nothing itself.  No floating point is used anywhere.
"""

from typing import TYPE_CHECKING, NamedTuple

from . import kernel
from .errors import InternalInconsistency

if TYPE_CHECKING:  # pragma: no cover
    from .group_algebra import GroupRingElement


def totally_nonneg(x: int, y: int) -> bool:
    """x + y*sqrt(2) >= 0 under both real embeddings, exactly.

    Both embeddings x +- y*sqrt(2) are nonnegative iff x >= |y|*sqrt(2),
    i.e. x >= 0 and x**2 >= 2*y**2.
    """
    return x >= 0 and x * x >= 2 * y * y


class QuadraticSqrt2(NamedTuple):
    """An element x + y*sqrt(2) of the real quadratic ring Z[sqrt(2)]."""

    x: int
    y: int

    def __add__(self, other: "QuadraticSqrt2") -> "QuadraticSqrt2":
        return QuadraticSqrt2(self.x + other.x, self.y + other.y)

    def norm(self) -> int:
        """Ring norm x**2 - 2*y**2 (can be negative)."""
        return self.x * self.x - 2 * self.y * self.y

    def is_totally_nonneg(self) -> bool:
        return totally_nonneg(self.x, self.y)

    def is_totally_positive(self) -> bool:
        """x + y*sqrt(2) > 0 under both real embeddings, exactly."""
        return self.x > 0 and self.x * self.x > 2 * self.y * self.y


class FactoredForm(NamedTuple):
    """The exact integers A, B, C, D of the determinant factorization,
    together with the Z[sqrt(2)] element z = X + Y*sqrt(2) whose ring norm
    is D."""

    A: int
    B: int
    C: int
    D: int
    z: QuadraticSqrt2


def factored_form(e: "GroupRingElement") -> FactoredForm:
    """Exact factorization data of a group-ring element, from
    :func:`q16det.kernel.factored_terms`."""
    A, B, C, X, Y = kernel.factored_terms(e.a, e.b)
    z = QuadraticSqrt2(X, Y)
    if not z.is_totally_nonneg():
        raise InternalInconsistency(f"sum of norms {z} not totally nonnegative")
    return FactoredForm(A=A, B=B, C=C, D=z.norm(), z=z)


def determinant_from_factored(ff: FactoredForm) -> int:
    """A * B * C**2 * D**2."""
    return ff.A * ff.B * ff.C * ff.C * ff.D * ff.D
