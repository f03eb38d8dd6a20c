import sys

import pytest


@pytest.fixture
def default_digit_limit():
    """The interpreter's default limit of 4,300 digits, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no integer string limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)
