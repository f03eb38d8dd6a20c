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
X**2 - 2*Y**2.  Every evaluation, the total-nonnegativity check on z and
the product live in :mod:`q16det.core`; this module only builds the
public records from them.  No floating point is used anywhere.
"""

from typing import TYPE_CHECKING, NamedTuple

from . import core
from .errors import int_text

if TYPE_CHECKING:  # pragma: no cover
    from .group_algebra import GroupRingElement


class QuadraticSqrt2(NamedTuple):
    """An element x + y*sqrt(2) of the real quadratic ring Z[sqrt(2)]."""

    x: int
    y: int

    def __repr__(self) -> str:
        # Each part through int_text, so a message showing a huge element
        # raises its own error, not the interpreter's ValueError.
        return f"QuadraticSqrt2(x={int_text(self.x)}, y={int_text(self.y)})"

    def __add__(self, other: "QuadraticSqrt2") -> "QuadraticSqrt2":
        return QuadraticSqrt2(self.x + other.x, self.y + other.y)

    def norm(self) -> int:
        """Ring norm x**2 - 2*y**2 (can be negative)."""
        return self.x * self.x - 2 * self.y * self.y

    def is_totally_nonneg(self) -> bool:
        return core.totally_nonneg(self.x, self.y)

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
    :func:`q16det.core.factored_terms` and :func:`q16det.core.norm_of_sum`."""
    A, B, C, X, Y = core.factored_terms(e.a, e.b)
    return FactoredForm(A=A, B=B, C=C, D=core.norm_of_sum(X, Y), z=QuadraticSqrt2(X, Y))


def determinant_from_factored(ff: FactoredForm) -> int:
    """A * B * C**2 * D**2."""
    return core.factored_product(ff.A, ff.B, ff.C, ff.D)
