"""Kernel lane selection.

The hot loops (16x16 exact determinant, factored-form terms, support scans)
exist twice: a Cython extension (``q16det._kernel``) doing guarded 128-bit
arithmetic, and a pure-Python twin (``q16det._pykernel``) exact for
arbitrary integers.  The compiled lane is picked at import when present;
every wrapper here falls back to the pure lane whenever the compiled lane
declines a call (returns None), so results are always exact.

Each lane computes the evaluations at 1, -1, i and w in its
``factored_terms`` only: :func:`q16det.exact_eval.factored_form` and the
witness and audit checks read it through :func:`factored_terms` here.  The
compiled scan calls it per element; the pure scan calls it once per
half-vector and sums an a-row and a b-row per element, since every term is
an f-only part plus a g-only part.

:func:`group_det` always eliminates the literal 16x16 matrix, the
definition that certificates and crosschecks rely on.  Direct scans
(``scan_range(..., direct=True)``) eliminate the 16x16 per element in the
compiled lane.  The pure lane eliminates the equal 8x8 circulant of
q = f(x)*f(1/x) - x**4*g(x)*g(1/x), once per pair of q-classes of the two
halves, because q also splits into an f-part plus a g-part.

:func:`scan_range_with_lane` reports which lane served a range, so scan
reports name the pure lane when the compiled lane declined.
"""

from __future__ import annotations

from typing import Sequence

from . import _pykernel

try:
    from . import _kernel as _compiled  # type: ignore[attr-defined]
except ImportError:  # extension not built
    _compiled = None

pure = _pykernel
compiled = _compiled
active = _compiled if _compiled is not None else _pykernel

#: Name of the lane selected at import time: "compiled" or "pure".
ACTIVE_LANE: str = active.LANE


def lanes() -> dict[str, object]:
    """Mapping of available lane name -> kernel module."""
    out: dict[str, object] = {"pure": pure}
    if compiled is not None:
        out["compiled"] = compiled
    return out


def group_det(a: Sequence[int], b: Sequence[int]) -> int:
    """Exact group determinant via the active lane."""
    r = active.group_det(a, b)
    if r is None:
        r = _pykernel.group_det(a, b)
    return r


def factored_terms(a: Sequence[int], b: Sequence[int]) -> tuple[int, int, int, int, int]:
    """(A, B, C, X, Y) via the active lane."""
    r = active.factored_terms(a, b)
    if r is None:
        r = _pykernel.factored_terms(a, b)
    return r


def scan_range_with_lane(
    values: Sequence[int],
    start: int,
    stop: int,
    direct: bool = False,
    sample_abs_limit: int = 1 << 20,
) -> tuple[str, dict]:
    """The :func:`scan_range` tallies, with the name of the lane that served
    the range: "pure" when the active lane declined it."""
    r = active.scan_range(values, start, stop, direct, sample_abs_limit)
    if r is None:
        return _pykernel.LANE, _pykernel.scan_range(values, start, stop, direct, sample_abs_limit)
    return active.LANE, r


def scan_range(
    values: Sequence[int],
    start: int,
    stop: int,
    direct: bool = False,
    sample_abs_limit: int = 1 << 20,
) -> dict:
    """Scan a contiguous index range of values^16 via the active lane."""
    return scan_range_with_lane(values, start, stop, direct, sample_abs_limit)[1]
