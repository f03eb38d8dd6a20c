"""Exception types raised by the q16det library, and :func:`int_text`
for the integers their messages print."""

_LOG10_2 = 0.30102999566398120


def int_text(n: int) -> str:
    """``str(n)``, or, where ``str`` raises the interpreter's ValueError
    for more digits than sys.get_int_max_str_digits() allows, its sign,
    first 20 digits and digit count, such as ``-12345678901234567890...
    (5001 digits)``: a message about a huge integer must not itself raise
    that ValueError.  The interpreter's own check enforces the limit, so
    a short integer costs one ``str``."""
    try:
        return str(n)
    except ValueError:
        m = abs(n)
        digits = int((m.bit_length() - 1) * _LOG10_2) + 1  # or one more
        digits += m >= 10**digits
        return f"{'-' * (n < 0)}{m // 10 ** (digits - 20)}...({digits} digits)"


class Q16DetError(Exception):
    """Base class for all library errors."""


class NotPrime(Q16DetError, ValueError):
    """A number required to be prime failed a primality check."""


class NonResidue(Q16DetError, ValueError):
    """2 is not a quadratic residue modulo the given prime (p = 3, 5 mod 8)."""


class InvalidResidue(Q16DetError, ValueError):
    """The prime is not in the residue class the operation requires."""


class NotMultiple(Q16DetError, ValueError):
    """An even target that is not a multiple of 2**10."""


class WrongResidue(Q16DetError, ValueError):
    """An odd target outside the residue class the builder handles."""


class BadInput(Q16DetError, ValueError):
    """Target/prime combination violating the builder's preconditions."""


class NoDecomposition(Q16DetError, RuntimeError):
    """No four-squares decomposition exists (odd sqrt(2)-coefficient)."""


class NoValidArrangement(Q16DetError, RuntimeError):
    """No permutation of a decomposition reaches the required parity layout."""


class ParityViolation(Q16DetError, RuntimeError):
    """Coefficient halving failed; pair parities were inconsistent."""


class PatternMismatch(Q16DetError, RuntimeError):
    """Coefficient parities match none of the expected low-degree patterns."""


class PreconditionUnreachable(Q16DetError, ValueError):
    """No swap/negate normalization of the input satisfies the residue
    preconditions of the parity audit."""


class BudgetExceeded(Q16DetError, RuntimeError):
    """The enumeration space exceeds the configured budget."""


class MismatchFound(Q16DetError, RuntimeError):
    """The two determinant computation paths disagreed (implementation bug).

    ``report``, when the raiser has one, describes the run up to and
    including the disagreeing element.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class InternalInconsistency(Q16DetError, RuntimeError):
    """A property that is guaranteed by the underlying mathematics failed."""
