"""Exact integer group determinants for the dicyclic group of order 16.

Public surface: the group ring and its exact determinant
(:mod:`~q16det.group_algebra`), the factored evaluation
(:mod:`~q16det.exact_eval`), the Z[sqrt(2)] toolkit
(:mod:`~q16det.quad_ring`), witness construction (:mod:`~q16det.witness`),
the value-set classifier (:mod:`~q16det.classifier`), and scans/audits
(:mod:`~q16det.analysis`).  The hot loops live in :mod:`q16det.kernel`:
the literal 16x16 determinant, the factored terms and the support scans.
"""

__version__ = "0.1.0"

from .classifier import Classification, classify, classify_and_witness, factorize
from .exact_eval import (
    FactoredForm,
    determinant_from_factored,
    factored_form,
)
from .group_algebra import (
    GroupRingElement,
    direct_determinant,
    substitute_neg_x,
    swap_components,
)
from .quad_ring import (
    CaseLabel,
    FourSquares,
    SplitSolution,
    cohn_four_squares,
    normalize_decomposition,
    split_prime,
    sqrt2_mod_p,
    unit_adjust,
)
from .witness import (
    WitnessCertificate,
    witness_even,
    witness_odd_1mod8,
    witness_odd_5mod8,
)

__all__ = [
    "__version__",
    "Classification",
    "classify",
    "classify_and_witness",
    "factorize",
    "FactoredForm",
    "determinant_from_factored",
    "factored_form",
    "GroupRingElement",
    "direct_determinant",
    "substitute_neg_x",
    "swap_components",
    "CaseLabel",
    "FourSquares",
    "SplitSolution",
    "cohn_four_squares",
    "normalize_decomposition",
    "split_prime",
    "sqrt2_mod_p",
    "unit_adjust",
    "WitnessCertificate",
    "witness_even",
    "witness_odd_1mod8",
    "witness_odd_5mod8",
]
