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
_BAREISS8 = "tests/test_kernel_lanes.py::TestBareiss8::test_matches_bareiss_on_every_branch"
_FORCED_PIVOTS = "tests/test_kernel_lanes.py::TestBareiss8::test_forced_pivot_branches"
_DIRECT_AGREES = "tests/test_analysis.py::TestExhaustiveScan::test_direct_mode_agrees"
_DIRECT_PLAIN = (
    "tests/test_analysis.py::TestExhaustiveScan"
    "::test_direct_reports_match_plain_on_two_value_supports"
)
_KERNEL_FAULT = "tests/test_cli.py::TestLibraryErrors::test_kernel_fault_emits_no_certificate"
_HUGE_FAULT = "tests/test_witness.py::TestCertifyMessages::test_kernel_fault_on_a_huge_target"
_FAMILY_PROOF = "tests/test_recipe_proofs.py::test_family_determinant_is_its_value_for_every_m"
_FAMILY_CLASSES = "tests/test_recipe_proofs.py::test_family_classes_cover_each_residue_once"
_FAMILY_LOOKUP = "tests/test_recipe_proofs.py::test_lookup_takes_the_family_of_the_class"
_LAYOUT_PROOF = "tests/test_recipe_proofs.py::test_every_decomposition_has_a_layout_and_patterns"
_AUDIT_STREAM = "tests/test_analysis.py::TestParityAudit::test_audit_elements_replay_randint"
_SPLIT_ORACLE = "tests/test_quad_ring.py::TestSplitPrime::test_against_enumeration_oracle"
_SMALLEST_P = "tests/test_classifier.py::TestClassify::test_matches_complete_factorization"

MUTANTS = (
    # random_crosscheck draws rng.randint(-height, height) through the
    # shared _randint_draws, a then b, and checks X + Y*sqrt(2) through
    # norm_of_sum; run_parity_audits draws through the same factory.
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
    Mutant(
        "audit-draw-mirrored",
        "q16det/analysis.py",
        "[draw() for _ in range(16)]",
        "[-draw() for _ in range(16)]",
        (_AUDIT_STREAM,),
    ),
    # The direct scan: one class table gives the histogram, weighted n_a*n_b
    # per pair of classes, and one literal 16x16 per pair checks it.
    Mutant(
        "direct-histogram-weight-drops-na",
        "q16det/kernel.py",
        "hist[det] += na * nb",
        "hist[det] += nb",
        (_DIRECT_PLAIN,),
    ),
    Mutant(
        "direct-wrong-representative",
        "q16det/kernel.py",
        "literal_det(ha, hb)",
        "literal_det(hb, hb)",
        (_DIRECT_AGREES,),
    ),
    Mutant(
        "direct-check-dropped",
        "q16det/kernel.py",
        "if literal_det(ha, hb) != det:",
        "if False:",
        (
            "tests/test_analysis.py::TestExhaustiveScan::test_direct_mode_reports_disagreement",
            "tests/test_cli.py::TestScanCommand::test_direct_disagreement_exit_1",
        ),
    ),
    # The literal determinant's one pivot rule: the anchor, the first row
    # nonzero in the two pivot columns, moves to row 0 and its partner to
    # row 1, and each swap of distinct rows flips the sign.  The "column
    # swap" rows fault the anchor's move, the "row swap" row the partner's.
    Mutant(
        "pivot-row-swap-keeps-sign",
        "q16det/core.py",
        "-1 if (a > 0) != (r > 1) else 1",
        "-1 if a > 0 else 1",
        (_BAREISS8, _FORCED_PIVOTS),
    ),
    Mutant(
        "pivot-column-swap-keeps-sign",
        "q16det/core.py",
        "-1 if (a > 0) != (r > 1) else 1",
        "-1 if r > 1 else 1",
        (_BAREISS8, _FORCED_PIVOTS),
    ),
    Mutant(
        "pivot-column-swap-returns-zero",
        "q16det/core.py",
        "        if p or q:\n            break",
        "        if p or q or not a:\n            break",
        (_BAREISS8, _FORCED_PIVOTS),
    ),
    # Messages print integers unchanged up to the digit limit, bounded past
    # it; the mutant bounds what str can print and prints what it cannot.
    Mutant(
        "int-text-threshold-inverted",
        "q16det/errors.py",
        "        return str(n)\n    except ValueError:\n",
        "        str(n)\n    except ValueError:\n        return str(n)\n    if True:\n",
        (
            "tests/test_errors.py::test_text_at_the_default_limit",
            "tests/test_analysis.py::TestRandomCrosscheck::test_direct_side_mismatch_raises",
            "tests/test_witness.py::TestCertifyMessages",
        ),
    ),
    # The literal determinant's 8x8 elimination, and its early exits on a
    # singular pivot block and a singular A + B block, which only the
    # counts of pivot calls and of eliminations show.
    Mutant(
        "bareiss8-pass2-divides-by-prev",
        "q16det/core.py",
        "square = prev * prev\n    rows = []",
        "square = prev\n    rows = []",
        (_BAREISS8,),
    ),
    Mutant(
        "bareiss8-pass3-divides-by-prev",
        "q16det/core.py",
        "square = prev * prev\n    (x4, x5, x6, x7)",
        "square = prev\n    (x4, x5, x6, x7)",
        (_BAREISS8,),
    ),
    Mutant(
        "bareiss8-pass1-no-zero-exit",
        "q16det/core.py",
        "d2, flip = _pivot(m)\n        if not d2:\n            return 0\n"
        "        sign *= flip\n        r0, r1 = m[0], m[1]\n    p, q, a2,",
        "d2, flip = _pivot(m)\n"
        "        sign *= flip\n        r0, r1 = m[0], m[1]\n    p, q, a2,",
        ("tests/test_kernel_lanes.py::TestBareiss8::test_forced_pivot_branches",),
    ),
    Mutant(
        "group-det-no-early-zero",
        "q16det/core.py",
        "    if not plus:\n        return 0\n",
        "",
        ("tests/test_kernel_lanes.py::TestCirculantBridge::test_sparse_singular_heavy_elements",),
    ),
    # The row getters of A - B, and the table they were checked on at import.
    Mutant(
        "minus-rows-one-entry-sign",
        "q16det/core.py",
        "differences.append(position[low] + (8 if i0 > i1 else 0))",
        "differences.append(position[low] + (8 if (i0 > i1) != (g == h == 0) else 0))",
        (
            "tests/test_kernel_lanes.py::TestCirculantBridge::test_matches_group_det_and_oracle",
            "tests/test_acceptance.py::test_criterion_1_factorization_identity",
        ),
    ),
    Mutant(
        "det-index-swapped-after-check",
        "q16det/core.py",
        "_PLUS_ROWS, _MINUS_ROWS = _central_rows(DET_INDEX)\n",
        "_PLUS_ROWS, _MINUS_ROWS = _central_rows(DET_INDEX)\n"
        "DET_INDEX = ((DET_INDEX[0][0], DET_INDEX[0][2], DET_INDEX[0][1], *DET_INDEX[0][3:]),"
        " *DET_INDEX[1:])\n",
        (
            "tests/test_factorization_identity.py::test_a_blocks_of_det_index_are_circulants",
            "tests/test_factorization_identity.py"
            "::test_b_schur_complement_is_circulant_of_kernel_q",
            "tests/test_kernel_lanes.py::test_cayley_tables_consistent",
        ),
    ),
    # The one evaluation at 1, -1, i and w.
    Mutant(
        "half-terms-y-sign",
        "q16det/core.py",
        "u0 * u1 - u0 * u3 + u1 * u2 + u2 * u3",
        "u0 * u1 + u0 * u3 + u1 * u2 + u2 * u3",
        (
            "tests/test_factorization_identity.py::test_c_factored_terms_are_evaluations_of_q",
            "tests/test_exact_eval.py::TestFactoredForm::test_kernel_matches_cyclotomic_oracle",
        ),
    ),
    # The certificate rule, core.certificate_terms, checks both determinant
    # paths; its fault tests patch each path on core and see it called.
    Mutant(
        "certify-skips-16x16",
        "q16det/core.py",
        "if det != n:",
        "if False:",
        (f"{_KERNEL_FAULT}[direct]", f"{_HUGE_FAULT}[direct]"),
    ),
    Mutant(
        "certify-skips-product",
        "q16det/core.py",
        "if value != n:",
        "if False:",
        (f"{_KERNEL_FAULT}[factored]", f"{_HUGE_FAULT}[factored]"),
    ),
    # Each witness family is one row, (base f, base g, signs, step, offset).
    Mutant(
        "family-offset-changed",
        "q16det/witness.py",
        "-1, -1, 4096, -3072",
        "-1, -1, 4096, 1024",
        (f"{_FAMILY_PROOF}[even_1024_4m_minus_3]",),
    ),
    Mutant(
        "family-base-coefficient-changed",
        "q16det/witness.py",
        "(1, 1, 0, 0, 1, 1, -1, -1)",
        "(1, 1, 0, 0, 1, 1, -1, 0)",
        (f"{_FAMILY_PROOF}[even_4096_m]",),
    ),
    # The witness functions look the family up by n mod step; keyed by n
    # mod step/2 (2048 for even targets), half the classes take another
    # family's row, and the certificate rule refuses its element.
    Mutant(
        "family-lookup-half-step",
        "q16det/witness.py",
        "_FAMILY_OF_CLASS.get((step, n % step))",
        "_FAMILY_OF_CLASS.get((step, n % (step // 2)))",
        (_FAMILY_CLASSES, _FAMILY_LOOKUP),
    ),
    # A member adds s*m*h to each base vector with the sign of its half.
    Mutant(
        "family-member-one-sign",
        "q16det/witness.py",
        "mf, mg = sf * m, sg * m",
        "mf, mg = sf * m, sf * m",
        (f"{_FAMILY_PROOF}[even_4096_m]",),
    ),
    # The scan asks the classifier about every value, not only 5 mod 8.
    Mutant(
        "scan-drops-refusals-off-5-mod-8",
        "q16det/analysis.py",
        "reason = classify(v).reason",
        "reason = classify(v).reason if v % 8 == 5 else None",
        ("tests/test_analysis.py::TestExhaustiveScan::test_violations_come_from_the_classifier",),
    ),
    # A loaded document must carry the factored data the rule returns.
    Mutant(
        "verify-skips-fields",
        "q16det/certificate.py",
        "return terms == (doc.A, doc.B, doc.C, doc.D, doc.X, doc.Y)",
        "return True",
        ("tests/test_cli.py::TestCertificateDocuments::test_tampered_document_fails",),
    ),
    Mutant(
        "verify-lets-valueerror-out",
        "q16det/certificate.py",
        "except (InternalInconsistency, ValueError):",
        "except InternalInconsistency:",
        (
            "tests/test_cli.py::TestCertificateDocuments"
            "::test_wrong_document_with_a_long_trace_integer",
        ),
    ),
    # The loader takes exactly eight coefficients per half.
    Mutant(
        "loader-takes-long-halves",
        "q16det/certificate.py",
        "len(doc[key]) == 8",
        "len(doc[key]) >= 8",
        ("tests/test_cli.py::TestCertificateDocuments::test_fields_must_be_written_form",),
    ),
    # The "if" half of the recipes: the tables and the shift are proved,
    # so a fault in any of them fails a proof.
    Mutant(
        "u-pattern-dropped",
        "q16det/witness.py",
        '    (1, 1, 0, 1): "1+x+x^3",\n',
        "",
        (_LAYOUT_PROOF,),
    ),
    Mutant(
        "case2-labels-swapped",
        "q16det/quad_ring.py",
        "(CaseLabel.CASE2_CONGRUENT_MOD4, 3),\n        (CaseLabel.CASE2_INCONGRUENT_MOD4, 1),",
        "(CaseLabel.CASE2_INCONGRUENT_MOD4, 1),\n        (CaseLabel.CASE2_CONGRUENT_MOD4, 3),",
        (_LAYOUT_PROOF,),
    ),
    Mutant(
        "layout-residue-wrong",
        "q16det/quad_ring.py",
        "((CaseLabel.CASE1_THREE_ODD_BETA, 1),) * 2",
        "((CaseLabel.CASE1_THREE_ODD_BETA, 3),) * 2",
        (_LAYOUT_PROOF,),
    ),
    Mutant(
        "shift-sign-flipped",
        "q16det/witness.py",
        "(5 - m) // 16",
        "(m - 5) // 16",
        ("tests/test_recipe_proofs.py::test_pipeline_shift_solves_the_lift",),
    ),
    # The conjugate orbit's minimum is one step up by 3 + 2*sqrt(2); the
    # mutant steps by its square, overshoots, and keeps the other orbit's.
    Mutant(
        "walk-step-wrong-unit",
        "q16det/quad_ring.py",
        "x2, y2 = _times(x, -y, 3, 2)",
        "x2, y2 = _times(x, -y, 17, 12)",
        (_SPLIT_ORACLE,),
    ),
    # The one product in Z[sqrt(2)], which the sign fix, the conjugate step
    # and the unit steer call.  The reduction does not call it, so a fault
    # here fails the split instead of hanging it.
    Mutant(
        "times-sign-flipped",
        "q16det/quad_ring.py",
        "return x * u + 2 * y * v, x * v + y * u",
        "return x * u - 2 * y * v, x * v + y * u",
        ("tests/test_quad_ring.py::TestTimes::test_is_the_product_in_z_sqrt2", _SPLIT_ORACLE),
    ),
    # The reduction measures by Q(a, b) = a**2 + 2*b**2; an inner product
    # of another form still ends the loop but misses the shortest vector.
    Mutant(
        "shortest-inner-product-unweighted",
        "q16det/quad_ring.py",
        "ux * vx + 2 * uy * vy",
        "ux * vx + uy * vy",
        ("tests/test_quad_ring.py::TestShortest::test_matches_brute_force_minimum",),
    ),
    # The check that the reduced vector is an orbit minimum stands in for
    # the walk; without it a vector off the minimum yields a wrong split.
    Mutant(
        "orbit-minimum-unchecked",
        "q16det/quad_ring.py",
        "if 3 * y >= 2 * x:",
        "if False:",
        ("tests/test_quad_ring.py::TestSplitPrime::test_refuses_a_vector_off_the_orbit_minimum",),
    ),
    # Euler's test with the wrong exponent finds no non-residue mod a
    # prime; the bound on the search turns that hang into NotPrime.
    Mutant(
        "tonelli-euler-exponent-wrong",
        "q16det/quad_ring.py",
        "pow(z, (p - 1) // 2, p)",
        "pow(z, p - 1, p)",
        ("tests/test_quad_ring.py::TestSqrt2ModP::test_small_primes",),
    ),
    # classify takes the first p = 7 mod 8 with e >= 2 that prime_powers
    # yields, the smallest only while the cofactor's primes come ascending.
    Mutant(
        "classify-admissible-residue-3",
        "q16det/classifier.py",
        "p % 8 == 7",
        "p % 8 == 3",
        ("tests/test_classifier.py::TestClassify::test_achievable", _SMALLEST_P),
    ),
    Mutant(
        "classify-exponent-one",
        "q16det/classifier.py",
        "e >= 2",
        "e >= 1",
        ("tests/test_classifier.py::TestClassify::test_not_achievable", _SMALLEST_P),
    ),
    Mutant(
        "cofactor-primes-descending",
        "q16det/primes.py",
        "yield from sorted(out.items())",
        "yield from sorted(out.items(), reverse=True)",
        (_SMALLEST_P, "tests/test_primes.py::TestFactorMap::test_matches_sympy_factorint"),
    ),
    # Newton's step for the k-th root with the wrong weight on r never falls
    # below its start, so a perfect-power cofactor goes to rho.
    Mutant(
        "iroot-step-overweights-r",
        "q16det/primes.py",
        "((k - 1) * r + m // r ** (k - 1)) // k",
        "(k * r + m // r ** (k - 1)) // k",
        (
            "tests/test_primes.py::TestIntegerRoot::test_is_the_floor_root",
            "tests/test_classifier.py::TestClassify::test_cube_cofactor_needs_no_rho",
        ),
    ),
    # Without the gcd past the plain prefix, trial division stops at 53 and
    # leaves the other trial primes in the cofactor for rho.
    Mutant(
        "trial-gcd-skips-rest",
        "q16det/primes.py",
        "g = gcd(n, rest_product)",
        "g = 1",
        ("tests/test_classifier.py::TestClassify::test_small_admissible_prime_needs_no_rho",),
    ),
    # Without the minus one the p-1 gcd is gcd(2**E mod m, m) = 1 for odd m,
    # so every cofactor goes to rho.
    Mutant(
        "pm1-drops-minus-one",
        "q16det/primes.py",
        "pow(2, _pm1_exponent(), m) - 1",
        "pow(2, _pm1_exponent(), m)",
        ("tests/test_primes.py::TestPMinus1::test_smooth_prime_splits_without_rho",),
    ),
    # The backtrack compares x with the block's start, not with each step:
    # it finds no factor, and the bound on it raises instead of spinning.
    Mutant(
        "rho-backtrack-compares-block-start",
        "q16det/primes.py",
        "gcd(abs(x - y), n)",
        "gcd(abs(x - ys), n)",
        ("tests/test_primes.py::TestPollardBrent::test_splits_every_small_odd_composite",),
    ),
    # The trial bounds' squarefree proof: a square cofactor must be split,
    # three primes above 10**5 can make 10**15, and the gcd must cover the
    # primes from 10**4.  Each fault refuses an achievable p**2 or p**2*q.
    Mutant(
        "bound-skips-square-test",
        "q16det/primes.py",
        "isqrt(m) ** 2 == m",
        "False",
        (_SMALLEST_P,),
    ),
    Mutant(
        "bound-cube-of-1e5-raised-to-1e16",
        "q16det/primes.py",
        "m >= _SQUAREFREE_BOUND**3",
        "m >= 10 * _SQUAREFREE_BOUND**3",
        (_SMALLEST_P,),
    ),
    Mutant(
        "bound-product-starts-at-1e5",
        "q16det/primes.py",
        "if p >= _TRIAL_BOUND)",
        "if p >= _SQUAREFREE_BOUND)",
        (_SMALLEST_P,),
    ),
    # For a composite p the main loop can find no i < m with t**(2**i) = 1;
    # without the guard m reaches 0 and a negative shift raises ValueError.
    Mutant(
        "tonelli-main-loop-unguarded",
        "q16det/quad_ring.py",
        "                break\n        else:\n            raise NotPrime(",
        "                break\n        if False:\n            raise NotPrime(",
        ("tests/test_quad_ring.py::TestSqrt2ModP::test_main_loop_is_guarded",),
    ),
)
