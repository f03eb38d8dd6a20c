"""Executable consistency checks: Chebyshev-basis coefficients, parity
audits of the residue argument, exhaustive support scans, and the random
two-path crosscheck.

Scans and crosschecks are evidence, not proofs: they confirm at desk scale
that every value produced is accepted by the classifier and that the two
determinant computation paths agree.  The scan states no residue law of
its own: it asks :func:`q16det.classifier.classify` about each distinct
value, and the independent copy of the laws lives in the tests.
"""

import operator
import os
import random
import time
from collections import Counter
from typing import NamedTuple, Sequence

from . import kernel
from .classifier import Reason, classify
from .core import factored_product, norm_of_sum
from .errors import (
    BudgetExceeded,
    InternalInconsistency,
    MismatchFound,
    PreconditionUnreachable,
    int_text,
)
from .exact_eval import QuadraticSqrt2
from .group_algebra import GroupRingElement, substitute_neg_x, swap_components

# Not called here; perfbench's tracer wraps these three names on this module.
from .exact_eval import determinant_from_factored, factored_form  # noqa: F401
from .group_algebra import direct_determinant  # noqa: F401

DEFAULT_SCAN_BUDGET = 1 << 28
# Scans of fewer elements run in this process at any worker count: a
# two-value support (2**16 elements) takes tens of milliseconds, about what
# starting a pool costs, and every larger support has at least 3**16.
_POOL_MIN_ELEMS = 1 << 20
# A scan report's sample: the _SAMPLE_LIMIT values of least magnitude among
# those within _SAMPLE_ABS_LIMIT of 0.
_SAMPLE_ABS_LIMIT = 1 << 20
_SAMPLE_LIMIT = 64
# A scan report's text for each reason the classifier refuses a value, in
# the order the report lists the violations.
_VIOLATION = {
    Reason.EVEN_NOT_MULTIPLE_OF_1024: "even value not divisible by 2**10",
    Reason.ODD_CONGRUENT_3_MOD_4: "odd value congruent 3 mod 4",
    Reason.FIVE_MOD_8_NO_ADMISSIBLE_PRIME_SQUARE: "value 5 mod 8 rejected by classifier",
}


def chebyshev_coeffs(poly: Sequence[int]) -> tuple[int, ...]:
    """Coefficients c with f(x)*f(1/x) = sum_j c[j] * (x + 1/x)**j: the
    palindromic Laurent product rewritten in the basis (x + 1/x)**j.

    The product is sum_j e[j]*(x**j + x**-j) + e[0] with e[j] the
    autocorrelation of the coefficients; x**j + x**-j is expanded via the
    recurrence p[j+1] = t*p[j] - p[j-1] with p[0] = 2, p[1] = t.
    """
    a = list(poly)
    e = [sum(a[k] * a[k + j] for k in range(8 - j)) for j in range(8)]
    c = [0] * 8
    c[0] = e[0]
    p_prev = [2]            # p_0(t)
    p_cur = [0, 1]          # p_1(t)
    for j in range(1, 8):
        for i, coeff in enumerate(p_cur):
            c[i] += e[j] * coeff
        # p_{j+1} = t * p_j - p_{j-1}
        p_next = [0] + p_cur
        for i, coeff in enumerate(p_prev):
            p_next[i] -= coeff
        p_prev, p_cur = p_cur, p_next
    return tuple(c)


def chebyshev_eval_omega(c: Sequence[int]) -> QuadraticSqrt2:
    """Value at the 8th root of unity, where x + 1/x = sqrt(2):
    sum c[j] * sqrt(2)**j = (c0 + 2c2 + 4c4 + 8c6) + sqrt(2)(c1 + 2c3 + 4c5 + 8c7).
    """
    return QuadraticSqrt2(
        c[0] + 2 * c[2] + 4 * c[4] + 8 * c[6],
        c[1] + 2 * c[3] + 4 * c[5] + 8 * c[7],
    )


class ParityAuditRecord(NamedTuple):
    element: GroupRingElement
    swapped: bool
    negated: bool
    c: tuple[int, ...]
    d: tuple[int, ...]
    X: int
    Y: int
    D: int


def _normalize_for_audit(e: GroupRingElement) -> tuple[GroupRingElement, bool, bool]:
    """Reach f(1), f(-1) odd, g(1) = 2 mod 4, g(-1) = 0 mod 4 by swapping
    f with g and/or substituting x -> -x.

    The residues are read from the squares P = h(1)**2 and Q = h(-1)**2 of
    each half's :func:`q16det.kernel._half_terms`: h(1) is odd iff P is,
    h(1) = 2 mod 4 iff P = 4 mod 16, 4 | h(-1) iff Q = 0 mod 16, and
    x -> -x swaps P and Q."""
    halves = (kernel._half_terms(e.a), kernel._half_terms(e.b))
    for swapped in (False, True):
        (Pf, Qf, *_), (Pg, Qg, *_) = halves[::-1] if swapped else halves
        if Pf % 2 == 0 or Qf % 2 == 0:
            continue
        for negated in (False, True):
            g1, gm1 = (Qg, Pg) if negated else (Pg, Qg)
            if g1 % 16 == 4 and gm1 % 16 == 0:
                cand = swap_components(e) if swapped else e
                return (substitute_neg_x(cand) if negated else cand), swapped, negated
    squares = tuple(t % 16 for half in halves for t in half[:2])
    raise PreconditionUnreachable(
        "no swap/negate normalization meets the residue preconditions: "
        f"f(1)**2, f(-1)**2, g(1)**2, g(-1)**2 = {squares} mod 16"
    )


def parity_audit(e: GroupRingElement) -> ParityAuditRecord:
    """Check the residue consequences of the normalization on one element:
    c0 odd, c1 even, d0 even, d1 odd, X and Y odd, D > 0 and D = 7 mod 8.

    The element is normalized internally (swap / x -> -x);
    PreconditionUnreachable is raised when no normalization satisfies the
    residue preconditions (exactly the non-5-mod-8 determinants).  Its
    message prints residues mod 16 and the InternalInconsistency ones print
    integers through :func:`q16det.errors.int_text`, so an element past the
    interpreter's integer string limit still raises the library's error.
    """
    norm, swapped, negated = _normalize_for_audit(e)
    c = chebyshev_coeffs(norm.a)
    d = chebyshev_coeffs(norm.b)
    zf = chebyshev_eval_omega(c)
    zg = chebyshev_eval_omega(d)
    z = zf + zg
    # Two-path agreement with the evaluation kernel.
    kz = QuadraticSqrt2(*kernel.factored_terms(norm.a, norm.b)[3:])
    if z != kz:
        raise InternalInconsistency(f"Chebyshev path {z} != kernel path {kz}")
    D = z.norm()
    checks = {
        "c0 odd": c[0] % 2 == 1,
        "c1 even": c[1] % 2 == 0,
        "d0 even": d[0] % 2 == 0,
        "d1 odd": d[1] % 2 == 1,
        "X odd": z.x % 2 == 1,
        "Y odd": z.y % 2 == 1,
        "D > 0": D > 0,
        "D = 7 mod 8": D % 8 == 7,
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        coeffs = ", ".join(map(int_text, norm.a + norm.b))
        raise InternalInconsistency(f"parity audit failed {failed} on [{coeffs}]")
    return ParityAuditRecord(
        element=norm, swapped=swapped, negated=negated,
        c=c, d=d, X=z.x, Y=z.y, D=D,
    )


class AuditReport(NamedTuple):
    count: int
    seed: int
    height: int
    audited: int
    skipped: int
    failures: list[str]
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return self.audited == self.count and not self.failures

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "seed": self.seed,
            "height": self.height,
            "audited": self.audited,
            "skipped": self.skipped,
            "failures": list(self.failures),
            "ok": self.ok,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def _randint_draws(rng: random.Random, height: int):
    """A function of no arguments whose calls are ``rng.randint(-height,
    height)``, draw for draw, made as CPython's randint makes them without
    its argument checks: ``getrandbits(k)`` with k the bit length of
    2*height + 1, redrawn while it is >= 2*height + 1, minus ``height``.
    Both seeded streams, the audits' and the crosscheck's, draw here."""
    getrandbits, width = rng.getrandbits, 2 * height + 1
    bits = width.bit_length()

    def draw() -> int:
        # rng.randint(-height, height), draw for draw.
        r = getrandbits(bits)
        # variant: none; each draw ends the loop with probability width / 2**bits > 1/2
        while r >= width:
            r = getrandbits(bits)
        return r - height

    return draw


def run_parity_audits(count: int, seed: int, height: int = 9) -> AuditReport:
    """Audit ``count`` seeded random elements that admit the normalization;
    draws that do not (wrong residue class) are skipped and counted.  Each
    element is 16 ``random.Random(seed).randint(-height, height)`` draws in
    stream order, made by :func:`_randint_draws`.

    ``height`` must be at least 1: the only element of height 0 is zero,
    which never meets the preconditions, so the draws would never end.
    ``count``, ``seed`` and ``height`` must be integers: any other type
    raises TypeError.
    """
    count, seed, height = map(operator.index, (count, seed, height))
    if count < 0:
        raise ValueError(f"count must be >= 0, got {int_text(count)}")
    if height < 1:
        raise ValueError(f"height must be >= 1, got {int_text(height)}")
    draw = _randint_draws(random.Random(seed), height)
    audited = skipped = 0
    failures: list[str] = []
    t0 = time.perf_counter()
    # variant: none structural; count - audited falls on every draw that is not skipped
    while audited < count:
        e = GroupRingElement.from_coeffs([draw() for _ in range(16)])
        try:
            parity_audit(e)
        except PreconditionUnreachable:
            skipped += 1
            continue
        except InternalInconsistency as exc:
            failures.append(str(exc))
        audited += 1
    return AuditReport(
        count=count,
        seed=seed,
        height=height,
        audited=audited,
        skipped=skipped,
        failures=failures,
        elapsed_s=time.perf_counter() - t0,
    )


class ScanReport(NamedTuple):
    support: tuple[int, ...]
    total: int
    workers: int
    lane: str
    direct: bool
    zero: int
    even: int
    even_mult_1024: int
    odd: int
    odd_mod8: dict[int, int]
    sample: list[int]
    five_mod8_values: int
    violations: list[tuple[str, str]]
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "support": list(self.support),
            "total": self.total,
            "workers": self.workers,
            "lane": self.lane,
            "direct": self.direct,
            "zero": self.zero,
            "even": self.even,
            "even_mult_1024": self.even_mult_1024,
            "odd": self.odd,
            "odd_mod8": {str(k): v for k, v in sorted(self.odd_mod8.items())},
            "sample": [str(v) for v in self.sample],
            "five_mod8_values": self.five_mod8_values,
            "violations": [{"value": v, "reason": r} for v, r in self.violations],
            "ok": self.ok,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platform without sched_getaffinity
        return os.cpu_count() or 1


def _scan_block(args: tuple) -> dict:
    return kernel.scan_range(*args)


def _merged_scan(values: tuple[int, ...], workers: int, total: int) -> Counter[int]:
    """The merged value histogram of the plain scan of values^16, ``total``
    elements, from one :func:`q16det.kernel.scan_range` block per pool
    process (see :func:`exhaustive_scan`)."""
    # Each pool process scans one contiguous block of whole b-rows, so it
    # builds the a-table once.  A fork-context pool starts all of its
    # processes at the first submit, so it never outnumbers the usable CPUs.
    pool = min(workers, _usable_cpus()) if total >= _POOL_MIN_ELEMS else 1
    half = len(values) ** 8
    bounds = [half * k // pool * half for k in range(pool + 1)]
    tasks = [(values, lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    if pool > 1 and len(tasks) > 1:
        # Imported here to keep the pool machinery out of the CLI's cold start.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        try:
            ctx = get_context("fork")
        except ValueError:  # platform without fork
            ctx = get_context()
        with ProcessPoolExecutor(max_workers=pool, mp_context=ctx) as ex:
            parts = list(ex.map(_scan_block, tasks))
    else:
        parts = [_scan_block(t) for t in tasks]

    hist: Counter[int] = Counter()
    for part in parts:
        hist.update(part["values"])
    return hist


def exhaustive_scan(
    support: Sequence[int],
    workers: int = 1,
    budget: int = DEFAULT_SCAN_BUDGET,
    direct: bool = False,
) -> ScanReport:
    """Enumerate every element with coefficients in ``support`` and ask
    :func:`q16det.classifier.classify` about every value produced: each
    value it refuses is a violation, named by its ``Reason``.

    One worker scans the whole index space in a single
    :func:`q16det.kernel.scan_range` call; several split it into one block
    of whole b-rows per pool process.  The blocks' value histograms merge
    commutatively, so the report is bit-identical for any worker count.
    A block evaluates each pair of halves that reaches into another block
    once itself, so the unordered-pair halving of one pass is lost across
    blocks.  One block evaluates about half of the elements, while each of
    k equal blocks evaluates about (2k - 1)/(2k**2) of them, so k workers
    are at best about k**2/(2k - 1) times as fast as one: 1.33x at 2,
    2.29x at 4.  The report echoes ``workers``; the process pool is capped
    at the CPUs this process may use, and a scan of fewer than
    ``_POOL_MIN_ELEMS`` elements runs in this process as one block.  A
    ``direct`` scan instead takes the histogram and the values the literal
    16x16 contradicts from one :func:`q16det.kernel.direct_scan` call, in
    this process, whatever the worker count.

    This function decides no value itself: it sorts each distinct value
    of the merged histogram once into the report's tallies (even values,
    multiples of 2**10, odd residues mod 8, distinct values 5 mod 8) and
    sample, and takes the violations from one classifier call per
    distinct value, listed by reason (even, 3 mod 4, 5 mod 8), each
    ascending.

    The support values, ``workers`` and ``budget`` must be integers: any
    other type raises TypeError.
    """
    values = tuple(sorted(set(map(operator.index, support))))
    workers = operator.index(workers)
    budget = operator.index(budget)
    if not values:
        raise ValueError("support must be non-empty")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {int_text(workers)}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {int_text(budget)}")
    total = len(values) ** 16
    if total > budget:
        raise BudgetExceeded(
            f"support size {len(values)} means {total} elements > budget {budget}"
        )
    t0 = time.perf_counter()

    if direct:
        hist, mismatches = kernel.direct_scan(values)
    else:
        hist, mismatches = _merged_scan(values, workers, total), set()

    # One pass over the distinct values, in increasing order, keeps the
    # tallies and asks the classifier about each value; each reason's list
    # of violations comes out sorted.
    even = even1024 = five_mod8 = 0
    odd_mod8 = {1: 0, 3: 0, 5: 0, 7: 0}
    refused: dict[Reason, list[tuple[str, str]]] = {reason: [] for reason in _VIOLATION}
    for v, n in sorted(hist.items()):
        if v % 2 == 0:
            even += n
            if v % 1024 == 0:
                even1024 += n
        else:
            r = v % 8
            odd_mod8[r] += n
            five_mod8 += r == 5
        reason = classify(v).reason
        if reason is not None:
            refused[reason].append((str(v), _VIOLATION[reason]))
    violations = [row for rows in refused.values() for row in rows]
    for v in sorted(mismatches):
        violations.append((str(v), "direct and factored determinants disagree"))
    sample = [v for v in hist if -_SAMPLE_ABS_LIMIT <= v <= _SAMPLE_ABS_LIMIT]

    return ScanReport(
        support=values,
        total=total,
        workers=workers,
        lane=kernel.ACTIVE_LANE,
        direct=direct,
        zero=hist[0],
        even=even,
        even_mult_1024=even1024,
        odd=sum(odd_mod8.values()),
        odd_mod8=odd_mod8,
        sample=sorted(sample, key=lambda v: (abs(v), v))[:_SAMPLE_LIMIT],
        five_mod8_values=five_mod8,
        violations=violations,
        elapsed_s=time.perf_counter() - t0,
    )


class CrosscheckReport(NamedTuple):
    count: int
    height: int
    seed: int
    lane: str
    elapsed_s: float
    mismatches: int = 0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.mismatches == 0

    def to_dict(self) -> dict:
        doc = {
            "count": self.count,
            "height": self.height,
            "seed": self.seed,
            "lane": self.lane,
            "mismatches": self.mismatches,
            "ok": self.ok,
            "elapsed_s": round(self.elapsed_s, 3),
        }
        if self.detail:
            doc["detail"] = self.detail
        return doc


def random_crosscheck(count: int, height: int, seed: int) -> CrosscheckReport:
    """Assert direct = factored determinant on ``count`` seeded random
    elements with coefficients in [-height, height].  Raises MismatchFound
    on the first disagreement (an implementation bug signal); its ``report``
    counts the elements checked up to and including that one.  ``count``,
    ``height`` and ``seed`` must be integers: any other type raises
    TypeError.

    Each element is exactly 16 ``random.Random(seed).randint(-height,
    height)`` draws in stream order, made by :func:`_randint_draws`: first
    its X-block ``a`` (8 draws), then its Y-block ``b`` (8 draws).
    ``test_element_stream`` replays the stream with ``Random.randint``
    itself, at heights whose draws span several words of the generator.
    The two paths are the two kernel seams, each called once per element
    and looked up when this function starts:
    ``kernel.group_det(a, b)``, the literal 16x16 determinant, and
    ``kernel.factored_terms(a, b)``, whose X + Y*sqrt(2) must be totally
    nonnegative (InternalInconsistency otherwise) and whose A*B*C**2*D**2
    is compared with it."""
    count, height, seed = map(operator.index, (count, height, seed))
    if count < 0:
        raise ValueError(f"count must be >= 0, got {int_text(count)}")
    if height < 0:
        raise ValueError(f"height must be >= 0, got {int_text(height)}")
    draw = _randint_draws(random.Random(seed), height)
    t0 = time.perf_counter()

    def report(checked: int, detail: str = "") -> CrosscheckReport:
        return CrosscheckReport(
            count=checked,
            height=height,
            seed=seed,
            lane=kernel.ACTIVE_LANE,
            elapsed_s=time.perf_counter() - t0,
            mismatches=1 if detail else 0,
            detail=detail,
        )

    group_det, factored_terms = kernel.group_det, kernel.factored_terms
    half = range(8)
    for i in range(count):
        a = [draw() for _ in half]
        b = [draw() for _ in half]
        direct = group_det(a, b)
        A, B, C, X, Y = factored_terms(a, b)
        fact = factored_product(A, B, C, norm_of_sum(X, Y))
        if direct != fact:
            coeffs = ", ".join(map(int_text, a + b))
            msg = (
                f"element #{i} [{coeffs}]: "
                f"direct {int_text(direct)} != factored {int_text(fact)}"
            )
            raise MismatchFound(msg, report(i + 1, msg))
    return report(count)
