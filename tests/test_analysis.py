import concurrent.futures
import os
import random
import time
from collections import Counter

import pytest

from q16det import analysis, kernel
from q16det.analysis import (
    AuditReport,
    chebyshev_coeffs,
    chebyshev_eval_omega,
    exhaustive_scan,
    parity_audit,
    random_crosscheck,
    run_parity_audits,
)
from q16det.errors import (
    BudgetExceeded,
    InternalInconsistency,
    MismatchFound,
    PreconditionUnreachable,
)
from q16det.exact_eval import QuadraticSqrt2, factored_form
from q16det.group_algebra import GroupRingElement

from oracles import (
    chebyshev_expand,
    laurent_self_product,
    normalize_for_audit_reference,
    scan_report_reference,
)


class TestChebyshev:
    def test_examples(self):
        assert chebyshev_coeffs((0, 1, 0, 0, 0, 0, 0, 0)) == (1, 0, 0, 0, 0, 0, 0, 0)
        assert chebyshev_coeffs((1, 1, 0, 0, 0, 0, 0, 0)) == (2, 1, 0, 0, 0, 0, 0, 0)
        assert chebyshev_coeffs((1, 2, 3, 0, 0, 0, 0, 0)) == (8, 8, 3, 0, 0, 0, 0, 0)

    def test_reconstruction_identity(self):
        rng = random.Random(21)
        for _ in range(200):
            poly = [rng.randint(-9, 9) for _ in range(8)]
            cc = chebyshev_coeffs(poly)
            assert chebyshev_expand(cc) == laurent_self_product(poly)

    def test_eval_omega_examples(self):
        assert chebyshev_eval_omega((1, 0, 0, 0, 0, 0, 0, 0)) == QuadraticSqrt2(1, 0)
        cc = chebyshev_coeffs((1, 1, 0, 0, 0, 0, 0, 0))
        assert chebyshev_eval_omega(cc) == QuadraticSqrt2(2, 1)
        cc = chebyshev_coeffs((0, 1, 1, 1, 0, 0, 0, 0))
        assert chebyshev_eval_omega(cc) == QuadraticSqrt2(3, 2)

    def test_two_path_agreement(self):
        rng = random.Random(22)
        for _ in range(300):
            poly = [rng.randint(-9, 9) for _ in range(8)]
            via_cheb = chebyshev_eval_omega(chebyshev_coeffs(poly))
            via_terms = kernel.factored_terms(poly, (0,) * 8)[3:]
            assert (via_cheb.x, via_cheb.y) == via_terms


class TestParityAudit:
    def test_example_f1_g1px(self):
        rec = parity_audit(
            GroupRingElement((1, 0, 0, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0, 0))
        )
        assert rec.c[0] == 1 and rec.d[:2] == (2, 1)
        assert (rec.X, rec.Y, rec.D) == (3, 1, 7)

    def test_pipeline_witness_has_d7(self):
        rec = parity_audit(
            GroupRingElement((0, 1, 1, 1, 0, 0, 0, 0), (0, 1, 1, 1, 1, 0, -1, -1))
        )
        assert rec.D == 7 and rec.D % 8 == 7

    def test_unreachable(self):
        with pytest.raises(PreconditionUnreachable):
            parity_audit(
                GroupRingElement((1, 0, 0, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0, 0, 0))
            )

    def test_normalization_uses_swap_and_negation(self):
        # f even, g odd: needs the swap; then g(1) = 0 mod 4 needs x -> -x.
        rec = parity_audit(
            GroupRingElement((1, 1, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0))
        )
        assert rec.swapped
        assert (rec.X, rec.Y, rec.D) == (3, 1, 7)

    @pytest.mark.parametrize(
        "a,b,swapped,negated",
        [
            ((1, 0, 0, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0, 0), False, False),
            ((1, 0, 0, 0, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0, 0, 0), False, True),
            ((1, 1, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0), True, False),
            ((1, -1, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0), True, True),
            ((3, 0, 0, 0, 0, 0, 0, 0), (5, 1, 0, 0, 0, 0, 0, 0), False, False),
        ],
    )
    def test_normalization_branches_match_reference(self, a, b, swapped, negated):
        e = GroupRingElement(a, b)
        got = analysis._normalize_for_audit(e)
        assert got == normalize_for_audit_reference(e)
        assert got[1:] == (swapped, negated)

    @pytest.mark.parametrize(
        "a,b",
        [
            ((0,) * 8, (0,) * 8),
            ((1, 0, 0, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0, 0, 0)),
            ((1, 0, 0, 0, 0, 0, 0, 0), (2, 2, 0, 0, 0, 0, 0, 0)),
            ((1, 1, 1, 0, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0, 0, 0)),
        ],
    )
    def test_normalization_unreachable_matches_reference(self, a, b):
        e = GroupRingElement(a, b)
        with pytest.raises(PreconditionUnreachable):
            normalize_for_audit_reference(e)
        with pytest.raises(PreconditionUnreachable):
            analysis._normalize_for_audit(e)

    @pytest.mark.parametrize("height", [1, 2, 3, 9, 10**6])
    def test_normalization_matches_reference_on_random_elements(self, height):
        rng = random.Random(17 * height)
        branches = Counter()
        for _ in range(3000):
            e = GroupRingElement.from_coeffs([rng.randint(-height, height) for _ in range(16)])
            try:
                want = normalize_for_audit_reference(e)
            except PreconditionUnreachable:
                with pytest.raises(PreconditionUnreachable):
                    analysis._normalize_for_audit(e)
                branches["unreachable"] += 1
                continue
            assert analysis._normalize_for_audit(e) == want
            branches[want[1:]] += 1
        assert len(branches) == 5

    def test_random_audits_all_pass(self):
        report = run_parity_audits(1000, seed=1)
        assert isinstance(report, AuditReport)
        assert report.ok and report.audited == 1000 and not report.failures
        assert report.skipped > 0

    def test_audit_determinism(self):
        r1 = run_parity_audits(200, seed=5)
        r2 = run_parity_audits(200, seed=5)
        assert (r1.audited, r1.skipped) == (r2.audited, r2.skipped)

    def test_bad_height_and_count_rejected(self):
        # height 0 draws only the zero element, which never normalizes
        with pytest.raises(ValueError):
            run_parity_audits(5, seed=1, height=0)
        with pytest.raises(ValueError):
            run_parity_audits(-5, seed=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"count": 5.0, "seed": 1},
            {"count": 5, "seed": 1.5},
            {"count": 5, "seed": "x"},
            {"count": 5, "seed": 1, "height": 9.0},
        ],
    )
    def test_non_integer_arguments_rejected(self, kwargs):
        # A float height ran with a DeprecationWarning from randint, and a
        # float or string seed was echoed into the report.
        with pytest.raises(TypeError):
            run_parity_audits(**kwargs)


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace ``ProcessPoolExecutor`` by a stand-in that maps in this
    process (a real fork-context pool would start every requested process
    at once); returns the ``max_workers`` of each pool made."""
    sizes = []

    class InProcessPool:
        map = staticmethod(map)

        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes


class TestExhaustiveScan:
    def test_binary_support_tallies(self):
        rep = exhaustive_scan((0, 1))
        assert rep.total == 65536
        assert rep.ok and not rep.violations
        assert rep.zero == 30336
        assert rep.even == 32768 and rep.even_mult_1024 == 32768
        assert rep.odd == 32768
        assert rep.odd_mod8 == {1: 16384, 3: 0, 5: 16384, 7: 0}
        assert rep.five_mod8_values == 15

    def test_binary_support_sample_contents(self):
        rep = exhaustive_scan((0, 1))
        sample = set(rep.sample)
        for achieved in (0, 1, 245, -147, 1024):
            assert achieved in sample
        assert 17 not in sample  # 17 needs a coefficient outside {0, 1}

    def test_workers_bit_identical(self, monkeypatch):
        # A real process pool, though {0, 1} is below the in-process size.
        monkeypatch.setattr(analysis, "_POOL_MIN_ELEMS", 1)
        r1 = exhaustive_scan((0, 1), workers=1)
        r2 = exhaustive_scan((0, 1), workers=3)
        d1, d2 = r1.to_dict(), r2.to_dict()
        for d in (d1, d2):
            d.pop("elapsed_s")
            d.pop("workers")
        assert d1 == d2

    def test_pool_capped_at_usable_cpus(self, monkeypatch, in_process_pool):
        pools = in_process_pool
        monkeypatch.setattr(analysis, "_POOL_MIN_ELEMS", 1)
        r1 = exhaustive_scan((0, 1), workers=1)
        big = exhaustive_scan((0, 1), workers=10**6)
        assert len(pools) <= 1 and all(n <= os.cpu_count() for n in pools)
        d1, d2 = r1.to_dict(), big.to_dict()
        assert d2["workers"] == 10**6
        for d in (d1, d2):
            d.pop("elapsed_s")
            d.pop("workers")
        assert d1 == d2

    def test_direct_blocks_eliminate_once_per_class_pair(
        self, monkeypatch, in_process_pool
    ):
        # The direct check eliminates each of the 29 x 29 = 841 pairs of
        # half-classes of {0, 1} once, in the calling process, whatever
        # the worker count.
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(analysis, "_POOL_MIN_ELEMS", 1)
        real = kernel._reflection_det
        calls = []

        def counted(ra, rb):
            calls.append(1)
            return real(ra, rb)

        monkeypatch.setattr(kernel, "_reflection_det", counted)
        r2 = exhaustive_scan((0, 1), workers=2, direct=True)
        assert in_process_pool == [2]
        assert len(calls) == 841
        calls.clear()
        r1 = exhaustive_scan((0, 1), workers=1, direct=True)
        assert len(calls) == 841
        d1, d2 = r1.to_dict(), r2.to_dict()
        assert d2["workers"] == 2 and d2["ok"]
        for d in (d1, d2):
            d.pop("elapsed_s")
            d.pop("workers")
        assert d1 == d2

    def test_small_scan_skips_pool(self, monkeypatch, in_process_pool):
        # {0, 1} has 2**16 elements, below _POOL_MIN_ELEMS: two workers scan
        # it in this process as one block, and the report still echoes 2.
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 2)
        real = analysis._scan_block
        blocks = []

        def recorded(task):
            blocks.append(task)
            return real(task)

        monkeypatch.setattr(analysis, "_scan_block", recorded)
        rep = exhaustive_scan((0, 1), workers=2, direct=True)
        assert in_process_pool == [] and blocks == [((0, 1), 0, 1 << 16)]
        assert rep.workers == 2 and rep.ok

    def test_direct_check_builds_one_class_table(self, monkeypatch):
        # One pass over the 2**8 halves of {0, 1} builds the table that
        # both sides of each class pair read: one half-terms call per half.
        real = kernel._half_terms
        calls = []

        def counted(h):
            calls.append(1)
            return real(h)

        monkeypatch.setattr(kernel, "_half_terms", counted)
        assert kernel.direct_mismatches((0, 1)) == set()
        assert len(calls) == 256

    @pytest.mark.parametrize("direct", [False, True])
    @pytest.mark.parametrize(
        "support,sample_abs_limit,sample_limit",
        [
            ((0, 1), 1 << 20, 64),
            ((0, 1), 100, 64),
            ((0, 1), 1 << 62, 5),
            ((0, 2), 1 << 20, 64),
            ((-2, 3), 1 << 20, 64),
            ((7,), 1 << 20, 64),
        ],
    )
    def test_matches_report_reference(
        self, monkeypatch, in_process_pool, support, sample_abs_limit, sample_limit, direct
    ):
        if direct:
            # Stand-ins that break the laws, so that violations show up.
            # The shifted f(1)**2 makes A = f(1)**2 - g(1)**2 + a0 - b0,
            # still an f-only part plus a g-only part (the reference sees
            # it through factored_terms), and the circulant stand-in q[0]
            # depends on the element only through its halves'
            # autocorrelations, as the class-pair check requires.
            real_terms = kernel._half_terms

            def shifted_terms(h):
                P, Q, R, X, Y = real_terms(h)
                return P + h[0], Q, R, X, Y

            monkeypatch.setattr(kernel, "_half_terms", shifted_terms)
            monkeypatch.setattr(kernel, "_reflection_det", lambda ra, rb: kernel._q_parts(ra, rb)[0])
        want = scan_report_reference(support, direct, sample_abs_limit, sample_limit)
        # (-2, 3) then meets all four kinds; (7,) has determinant 0 only.
        assert want["ok"] == (not direct or support == (7,))
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(analysis, "_SAMPLE_ABS_LIMIT", sample_abs_limit)
        monkeypatch.setattr(analysis, "_SAMPLE_LIMIT", sample_limit)
        for workers in (1, 2):
            got = exhaustive_scan(support, workers=workers, direct=direct).to_dict()
            del got["elapsed_s"]
            assert got.keys() == want.keys()
            for key, value in want.items():
                assert got[key] == (workers if key == "workers" else value), key

    def test_direct_flags_one_wrong_class_pair(self, monkeypatch, in_process_pool):
        # A stand-in wrong for one (a-class, b-class) pair alone: only that
        # pair's value is flagged.  The pair's a-class is not that of the
        # zero a-half, which begins every b-row.  The stand-in names the
        # pair by its a-half's and b-half's autocorrelations.
        real = kernel._reflection_det
        ra_wrong = kernel._autocorrelation((1, 1, 0, 1, 0, 0, 0, 0))
        rb_wrong = kernel._autocorrelation((1, 0, 1, 0, 0, 0, 0, 0))

        def one_pair_wrong(ra, rb):
            return real(ra, rb) + (ra == ra_wrong and rb == rb_wrong)

        monkeypatch.setattr(kernel, "_reflection_det", one_pair_wrong)
        want = scan_report_reference((0, 1), direct=True)
        disagree = "direct and factored determinants disagree"
        assert [v["reason"] for v in want["violations"]] == [disagree]
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 2)
        for workers in (1, 2):
            got = exhaustive_scan((0, 1), workers=workers, direct=True).to_dict()
            del got["elapsed_s"]
            assert got == dict(want, workers=workers)

    def test_direct_rows_coarser_than_q_parts(self, monkeypatch, in_process_pool):
        # A zero row of half terms makes every factored value 0, while
        # the circulant determinant still tells the autocorrelations apart:
        # half-classes keyed by the row alone would compare one pair and
        # miss the disagreement.
        monkeypatch.setattr(kernel, "_half_terms", lambda h: (0, 0, 0, 0, 0))
        want = scan_report_reference((0, 1), direct=True)
        disagree = "direct and factored determinants disagree"
        assert want["violations"] == [{"value": "0", "reason": disagree}]
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 2)
        for workers in (1, 2):
            got = exhaustive_scan((0, 1), workers=workers, direct=True).to_dict()
            del got["elapsed_s"]
            assert got == dict(want, workers=workers)

    @pytest.mark.extended
    def test_ternary_direct_scan_matches_plain(self):
        t0 = time.perf_counter()
        direct = exhaustive_scan((-1, 0, 1), workers=2, direct=True).to_dict()
        elapsed = time.perf_counter() - t0
        plain = exhaustive_scan((-1, 0, 1), workers=2).to_dict()
        assert direct["ok"] and direct["direct"] and not plain["direct"]
        for d in (direct, plain):
            del d["elapsed_s"], d["direct"]
        assert direct == plain
        print(f"\nternary direct scan, 2 workers: {elapsed:.1f} s")

    def test_direct_mode_agrees(self):
        rep = exhaustive_scan((0, 1), direct=True)
        assert rep.ok
        assert rep.even == 32768 and rep.odd == 32768

    def test_direct_mode_reports_disagreement(self, monkeypatch):
        real = kernel._reflection_det
        monkeypatch.setattr(kernel, "_reflection_det", lambda ra, rb: real(ra, rb) + 1)
        rep = exhaustive_scan((1,), direct=True)
        assert rep.violations == [("0", "direct and factored determinants disagree")]
        assert exhaustive_scan((1,)).ok  # the factored-only scan never calls it

    def test_direct_checks_the_histogram_product(self, monkeypatch, in_process_pool):
        # The direct check reads the factored values from the same _dets
        # that tallies the histogram: a _dets wrong for one pair of half-term
        # rows is caught there.
        real = kernel._dets
        ra_wrong = kernel._half_terms((1, 1, 0, 1, 0, 0, 0, 0))
        rb_wrong = kernel._half_terms((1, 0, 1, 0, 0, 0, 0, 0))
        A, B, C, X, Y = kernel.factored_terms((1, 1, 0, 1, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0, 0, 0))
        wrong = A * B * C * C * (X * X - 2 * Y * Y) ** 2 + 1

        def one_pair_wrong(a_rows, b_terms):
            dets = real(a_rows, b_terms)
            if b_terms != rb_wrong:
                return dets
            return [d + (row == ra_wrong) for row, d in zip(a_rows, dets)]

        monkeypatch.setattr(kernel, "_dets", one_pair_wrong)
        disagree = "direct and factored determinants disagree"
        for workers in (1, 2):
            rep = exhaustive_scan((0, 1), workers=workers, direct=True)
            assert [v for v, r in rep.violations if r == disagree] == [str(wrong)]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"support": (0.5, 1)},
            {"support": (0, 1.0)},
            {"support": ("0", "1")},
            {"support": (0, None)},
            {"support": (0, 1), "workers": 1.0},
            {"support": (0, 1), "workers": "2"},
            {"support": (0, 1), "budget": 1e9},
        ],
    )
    def test_non_integer_arguments_rejected(self, kwargs):
        with pytest.raises(TypeError):
            exhaustive_scan(**kwargs)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_bad_worker_count_rejected(self, workers):
        with pytest.raises(ValueError):
            exhaustive_scan((0, 1), workers=workers)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_bad_budget_rejected(self, budget):
        with pytest.raises(ValueError):
            exhaustive_scan((0,), budget=budget)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            exhaustive_scan((-2, -1, 0, 1, 2))
        with pytest.raises(BudgetExceeded):
            exhaustive_scan((0, 1), budget=1000)

    def test_support_canonicalized(self):
        rep = exhaustive_scan((1, 0, 1))
        assert rep.support == (0, 1) and rep.total == 65536


class TestRandomCrosscheck:
    def test_seeded_run(self):
        rep = random_crosscheck(1000, 1, seed=7)
        assert rep.count == 1000

    def test_zero_height(self):
        rep = random_crosscheck(1, 0, seed=123)
        assert rep.count == 1

    def test_determinism_across_lanes(self):
        rep = random_crosscheck(200, 9, seed=42)
        assert rep.count == 200

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            random_crosscheck(-5, 9, seed=1)

    @pytest.mark.parametrize("count", [0, 3])
    def test_negative_height_rejected(self, count):
        # Without the check, count 0 returned a report with height -1 and a
        # positive count failed inside randint with an empty range.
        with pytest.raises(ValueError, match="height must be >= 0, got -1"):
            random_crosscheck(count, -1, seed=1)

    @pytest.mark.parametrize(
        "args", [(3.0, 9, 1), (3, 9.0, 1), (3, 9, 1.5), (3, 9, "x"), (0, 9, 1.5)]
    )
    def test_non_integer_arguments_rejected(self, args):
        # height 9.0 ran with a DeprecationWarning from randint and echoed
        # 9.0; a seed of 1.5 or "x" was accepted and echoed.
        with pytest.raises(TypeError):
            random_crosscheck(*args)

    @pytest.mark.parametrize("seed", [42, -1])
    @pytest.mark.parametrize("height", [0, 1, 9, 10**6])
    def test_element_stream(self, monkeypatch, height, seed):
        # The seeded element stream is part of acceptance 1 and of the CLI
        # outputs: each element is 16 randint(-height, height) draws, the
        # a-half and then the b-half, and each path sees it exactly once.
        seen = {"group_det": [], "factored_terms": []}
        for name, calls in seen.items():
            def record(a, b, fn=getattr(kernel, name), calls=calls):
                calls.append((list(a), list(b)))
                return fn(a, b)

            monkeypatch.setattr(kernel, name, record)
        count = 25
        assert random_crosscheck(count, height, seed).ok
        replay = random.Random(seed)
        want = []
        for _ in range(count):
            coeffs = [replay.randint(-height, height) for _ in range(16)]
            want.append((coeffs[:8], coeffs[8:]))
        assert seen == {"group_det": want, "factored_terms": want}

    def test_mismatch_raises(self, monkeypatch):
        factored_terms = kernel.factored_terms
        monkeypatch.setattr(
            kernel, "factored_terms", lambda a, b: (0, *factored_terms(a, b)[1:])
        )
        with pytest.raises(MismatchFound) as exc:
            random_crosscheck(20, 9, seed=42)
        rep = exc.value.report
        assert rep.mismatches == 1 and not rep.ok
        assert rep.detail == str(exc.value)
        assert rep.detail.startswith(f"element #{rep.count - 1} ")

    def test_direct_side_mismatch_raises(self, monkeypatch):
        group_det = kernel.group_det
        monkeypatch.setattr(kernel, "group_det", lambda a, b: group_det(a, b) + 1)
        with pytest.raises(MismatchFound) as exc:
            random_crosscheck(20, 9, seed=42)
        rep = exc.value.report
        assert rep.mismatches == 1 and not rep.ok and rep.count == 1
        replay = random.Random(42)
        coeffs = [replay.randint(-9, 9) for _ in range(16)]
        det = group_det(coeffs[:8], coeffs[8:])
        assert rep.detail == str(exc.value)
        assert rep.detail == f"element #0 {coeffs}: direct {det + 1} != factored {det}"

    def test_not_totally_nonneg_raises(self, monkeypatch):
        # The kernel never yields such an X + Y*sqrt(2); the crosscheck's
        # guard is exercised by replacing it, and reads as factored_form's.
        monkeypatch.setattr(kernel, "factored_terms", lambda a, b: (1, 1, 1, -1, 0))
        with pytest.raises(InternalInconsistency) as want:
            factored_form(GroupRingElement((1,) + (0,) * 7, (0,) * 8))
        with pytest.raises(InternalInconsistency) as got:
            random_crosscheck(3, 9, seed=42)
        assert str(got.value) == str(want.value)
        assert "not totally nonnegative" in str(got.value)
