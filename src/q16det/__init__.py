"""Exact integer group determinants for the dicyclic group of order 16.

Public surface: the group ring and its exact determinant
(:mod:`~q16det.group_algebra`), the factored evaluation
(:mod:`~q16det.exact_eval`), the Z[sqrt(2)] toolkit
(:mod:`~q16det.quad_ring`), witness construction (:mod:`~q16det.witness`),
the value-set classifier (:mod:`~q16det.classifier`), and scans/audits
(:mod:`~q16det.analysis`).  The trusted module :mod:`q16det.core` holds
the literal 16x16 determinant, the factored terms and the rule for a
valid certificate; the hot loops live in :mod:`q16det.kernel`.

Each public name is imported from its module on first use (PEP 562), so
``import q16det.core`` loads no other library module but
:mod:`q16det.errors`.
"""

__version__ = "0.1.0"

# Public name -> the module that defines it.
_HOMES = {
    "Classification": "classifier",
    "classify": "classifier",
    "classify_and_witness": "classifier",
    "factorize": "classifier",
    "FactoredForm": "exact_eval",
    "determinant_from_factored": "exact_eval",
    "factored_form": "exact_eval",
    "GroupRingElement": "group_algebra",
    "direct_determinant": "group_algebra",
    "substitute_neg_x": "group_algebra",
    "swap_components": "group_algebra",
    "CaseLabel": "quad_ring",
    "FourSquares": "quad_ring",
    "SplitSolution": "quad_ring",
    "cohn_four_squares": "quad_ring",
    "normalize_decomposition": "quad_ring",
    "split_prime": "quad_ring",
    "sqrt2_mod_p": "quad_ring",
    "unit_adjust": "quad_ring",
    "WitnessCertificate": "witness",
    "witness_even": "witness",
    "witness_odd_1mod8": "witness",
    "witness_odd_5mod8": "witness",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
