"""The mutant table: small deliberate faults in the library, each with the
tests that must fail on it.

Each row names a file under ``src/``, text that occurs in it exactly once,
the text that replaces it, and the pytest node ids (from the repository
root) that must fail on the mutated copy.  ``test_mutants.py`` checks in
Tier-1 that every row still applies and names existing tests, and under
``-m extended`` applies each row to a copy of ``src/`` and runs its tests
there.  When a refactor moves mutated code, rewrite the row against the
new code rather than dropping it.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    id: str
    path: str
    old: str
    new: str
    killers: tuple[str, ...]


_STREAM = "tests/test_analysis.py::TestRandomCrosscheck::test_element_stream"
_BAREISS = "tests/test_kernel_lanes.py::test_bareiss_matches_fraction_det"
_KERNEL_FAULT = "tests/test_cli.py::TestLibraryErrors::test_kernel_fault_emits_no_certificate"

MUTANTS = (
    # random_crosscheck draws rng.randint(-height, height), a then b, and
    # checks X + Y*sqrt(2) through norm_of_sum.
    Mutant(
        "crosscheck-draw-accepts-width",
        "q16det/analysis.py",
        "while r >= width:",
        "while r > width:",
        (_STREAM,),
    ),
    Mutant(
        "crosscheck-draw-mirrored",
        "q16det/analysis.py",
        "return r - height",
        "return height - r",
        (_STREAM,),
    ),
    Mutant(
        "crosscheck-draws-b-first",
        "q16det/analysis.py",
        "a = [draw() for _ in half]\n        b = [draw() for _ in half]",
        "b = [draw() for _ in half]\n        a = [draw() for _ in half]",
        (_STREAM,),
    ),
    Mutant(
        "crosscheck-d-unchecked",
        "q16det/analysis.py",
        "factored_product(A, B, C, norm_of_sum(X, Y))",
        "factored_product(A, B, C, X * X - 2 * Y * Y)",
        ("tests/test_analysis.py::TestRandomCrosscheck::test_not_totally_nonneg_raises",),
    ),
    # The literal determinant's eliminations and their one pivot policy.
    Mutant(
        "bareiss-divides-by-prev",
        "q16det/core.py",
        "square = prev * prev\n        columns = range(k + 2, n)",
        "square = prev\n        columns = range(k + 2, n)",
        (_BAREISS,),
    ),
    Mutant(
        "pivot-row-swap-keeps-sign",
        "q16det/core.py",
        "m[k + 1], m[r] = m[r], m[k + 1]\n                        sign = -sign",
        "m[k + 1], m[r] = m[r], m[k + 1]",
        (_BAREISS,),
    ),
    Mutant(
        "pivot-column-swap-keeps-sign",
        "q16det/core.py",
        "m[k], m[r] = m[r], m[k]\n        sign = -sign",
        "m[k], m[r] = m[r], m[k]",
        (_BAREISS,),
    ),
    Mutant(
        "pivot-column-swap-returns-zero",
        "q16det/core.py",
        "m[k], m[r] = m[r], m[k]\n        sign = -sign",
        "return 0, sign",
        (_BAREISS,),
    ),
    # Messages print integers unchanged up to the digit limit, bounded past it.
    Mutant(
        "int-text-threshold-inverted",
        "q16det/errors.py",
        "if not limit or m < 10**limit:",
        "if not limit or m >= 10**limit:",
        (
            "tests/test_analysis.py::TestRandomCrosscheck::test_direct_side_mismatch_raises",
            "tests/test_witness.py::TestCertifyMessages",
        ),
    ),
    # The certificate rule checks both determinant paths, and a loaded
    # document must carry the recomputed factored data.
    Mutant(
        "certify-skips-16x16",
        "q16det/witness.py",
        "if det != n:",
        "if False:",
        (f"{_KERNEL_FAULT}[direct]",),
    ),
    Mutant(
        "certify-skips-product",
        "q16det/witness.py",
        "if value != n:",
        "if False:",
        (f"{_KERNEL_FAULT}[factored]",),
    ),
    Mutant(
        "verify-skips-fields",
        "q16det/cli.py",
        'return all(getattr(doc, key) == getattr(made, key) for key in "ABCDXY")',
        "return True",
        ("tests/test_cli.py::TestCertificateDocuments::test_tampered_document_fails",),
    ),
    Mutant(
        "verify-lets-valueerror-out",
        "q16det/cli.py",
        "except (InternalInconsistency, ValueError):",
        "except InternalInconsistency:",
        (
            "tests/test_cli.py::TestCertificateDocuments"
            "::test_wrong_document_with_a_long_trace_integer",
        ),
    ),
)
