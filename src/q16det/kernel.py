"""Kernel lane selection.

The hot loops (16x16 exact determinant, factored-form terms, support scans)
exist twice: a Cython extension (``q16det._kernel``) doing guarded 128-bit
arithmetic, and a pure-Python twin (``q16det._pykernel``) exact for
arbitrary integers.  The compiled lane is picked at import when present;
every wrapper here falls back to the pure lane whenever the compiled lane
declines a call (returns None), so results are always exact.

Each lane computes the evaluations at 1, -1, i and w in its
``factored_terms`` only: scans call it per element, and
:func:`q16det.exact_eval.factored_form` and the witness and audit checks
read it through :func:`factored_terms` here.

:func:`group_det` always eliminates the literal 16x16 matrix, the
definition that certificates and crosschecks rely on.  Direct scans
(``scan_range(..., direct=True)``) eliminate the equal 8x8 circulant of
q = f(x)*f(1/x) - x**4*g(x)*g(1/x) in the pure lane, and the 16x16 in the
compiled lane.
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


def scan_range(
    values: Sequence[int],
    start: int,
    stop: int,
    direct: bool = False,
    sample_abs_limit: int = 1 << 20,
) -> dict:
    """Scan a contiguous index range of values^16 via the active lane."""
    r = active.scan_range(values, start, stop, direct, sample_abs_limit)
    if r is None:
        r = _pykernel.scan_range(values, start, stop, direct, sample_abs_limit)
    return r
