"""errors.int_text: ``str`` up to the interpreter's integer string limit, a
bounded form past it."""

import sys
import tracemalloc
from contextlib import contextmanager

import pytest

from q16det.errors import int_text

needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no integer string limit"
)


@contextmanager
def digit_limit(limit):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def bounded(n):
    """Sign, first 20 digits and digit count, read off the full text."""
    with digit_limit(0):
        digits = str(abs(n))
    return f"{'-' * (n < 0)}{digits[:20]}...({len(digits)} digits)"


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "n,short",
    [
        (0, True),
        (12345, True),
        (10**4300 - 1, True),
        (10**4300, False),
        (123456789 * 10**4992 + 7, False),
    ],
    ids=["0", "12345", "10^4300-1", "10^4300", "5001-digits"],
)
def test_text_at_the_default_limit(default_digit_limit, n, short, sign):
    n *= sign
    assert int_text(n) == (str(n) if short else bounded(n))


@needs_digit_limit
def test_no_limit_prints_every_digit():
    n = -(10**5000) - 1
    with digit_limit(0):
        assert int_text(n) == str(n)


@needs_digit_limit
def test_a_raised_limit_costs_one_str():
    # The interpreter checks its own limit, so no power of ten near the
    # limit is built: 10**(10**6) alone would take about 415 kB.
    with digit_limit(10**6):
        tracemalloc.start()
        try:
            text = int_text(12345)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert text == "12345"
    assert peak < 1 << 16
