"""The one import point of the hot loops.

The 16x16 exact determinant, the factored-form terms and the support scans
live in :mod:`q16det._pykernel`, exact over arbitrary-precision integers.
Each function here is one call into it, looked up at call time, so a
tracer or a test that patches the lane module sees every call.

:func:`factored_terms` is the only evaluation at 1, -1, i and w:
:func:`q16det.exact_eval.factored_form` and the witness and audit checks
read it here.  The scan computes it once per half-vector and sums an
a-row and a b-row per element, since every term is an f-only part plus a
g-only part.

:func:`group_det` always eliminates the literal 16x16 matrix, the
definition that certificates and crosschecks rely on.  Direct scans
(``scan_range(..., direct=True)``) eliminate the equal 8x8 circulant of
q = f(x)*f(1/x) - x**4*g(x)*g(1/x), once per pair of q-classes of the two
halves, because q also splits into an f-part plus a g-part.
"""

from __future__ import annotations

from typing import Sequence

from . import _pykernel

pure = _pykernel

#: Name of the lane that does the work, reported in scans and crosschecks.
ACTIVE_LANE: str = "pure"


def lanes() -> dict[str, object]:
    """Mapping of lane name -> kernel module."""
    return {ACTIVE_LANE: pure}


def group_det(a: Sequence[int], b: Sequence[int]) -> int:
    """Exact group determinant of the literal 16x16 matrix."""
    return _pykernel.group_det(a, b)


def factored_terms(a: Sequence[int], b: Sequence[int]) -> tuple[int, int, int, int, int]:
    """(A, B, C, X, Y) of the determinant factorization."""
    return _pykernel.factored_terms(a, b)


def scan_range(
    values: Sequence[int],
    start: int,
    stop: int,
    direct: bool = False,
    sample_abs_limit: int = 1 << 20,
) -> dict:
    """Mergeable tallies of a contiguous index range of values^16."""
    return _pykernel.scan_range(values, start, stop, direct, sample_abs_limit)
