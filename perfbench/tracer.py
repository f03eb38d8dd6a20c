"""In-memory spans around the calls into each q16det layer.

The wrappers are installed from outside, only in the traced run.  Each one
sits at the name its caller binds: ``from .x import f`` copies ``f`` into
the importing module, so ``q16det.witness.cohn_four_squares`` is wrapped,
not ``q16det.quad_ring.cohn_four_squares``.  Kernel calls are wrapped on the
lane modules themselves (``_pykernel``, ``_kernel``), which both the
``kernel`` dispatcher and the direct scan loop look up at call time.
``factored_terms`` is left unwrapped: the scan loop calls it once per
element at a few microseconds, where a span would double the cost.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, span name)
WRAP_SITES = (
    ("q16det.analysis", "random_crosscheck", "analysis.random_crosscheck"),
    ("q16det.analysis", "exhaustive_scan", "analysis.exhaustive_scan"),
    ("q16det.analysis", "direct_determinant", "group_algebra.direct_determinant"),
    ("q16det.analysis", "factored_form", "exact_eval.factored_form"),
    ("q16det.analysis", "determinant_from_factored", "exact_eval.determinant_from_factored"),
    ("q16det.analysis", "classify", "classifier.classify"),
    ("q16det.classifier", "classify_and_witness", "classifier.classify_and_witness"),
    ("q16det.classifier", "classify", "classifier.classify"),
    ("q16det.classifier", "witness_even", "witness.witness_even"),
    ("q16det.classifier", "witness_odd_1mod8", "witness.witness_odd_1mod8"),
    ("q16det.classifier", "witness_odd_5mod8", "witness.witness_odd_5mod8"),
    ("q16det.primes", "factor_map", "primes.factor_map"),
    ("q16det.primes", "is_probable_prime", "primes.is_probable_prime"),
    ("q16det.primes", "_pollard_brent", "primes.pollard_brent"),
    ("q16det.witness", "_certify", "witness.certify"),
    ("q16det.witness", "direct_determinant", "group_algebra.direct_determinant"),
    ("q16det.witness", "factored_form", "exact_eval.factored_form"),
    ("q16det.witness", "is_probable_prime", "primes.is_probable_prime"),
    ("q16det.witness", "split_prime", "quad_ring.split_prime"),
    ("q16det.witness", "unit_adjust", "quad_ring.unit_adjust"),
    ("q16det.witness", "cohn_four_squares", "quad_ring.cohn_four_squares"),
    ("q16det.witness", "normalize_decomposition", "quad_ring.normalize_decomposition"),
    ("q16det.quad_ring", "is_probable_prime", "primes.is_probable_prime"),
)
KERNEL_ENTRIES = ("group_det", "scan_range")


class Tracer:
    """Spans as tuples (name, start_ns, end_ns, parent index, request id)."""

    def __init__(self):
        self.spans: list = []
        self.current = -1
        self.request = -1
        self.compiled_declines = 0
        self.scan_elems = 0
        self.missing_sites: list[str] = []
        self._undo: list = []

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self.current
            idx = len(self.spans)
            self.spans.append(None)
            self.current = idx
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self.current = parent
                self.spans[idx] = (name, start, end, parent, self.request)

        return traced

    def _patch(self, module, attr: str, wrapper) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        for mod_name, attr, name in WRAP_SITES:
            module = importlib.import_module(mod_name)
            if not hasattr(module, attr):
                self.missing_sites.append(f"{mod_name}.{attr}")
                continue
            self._patch(module, attr, self.span(name, getattr(module, attr)))
        from q16det import kernel

        for lane, module in kernel.lanes().items():
            for entry in KERNEL_ENTRIES:
                self._patch(module, entry, self._kernel_span(lane, entry, getattr(module, entry)))

    def _kernel_span(self, lane: str, entry: str, fn):
        inner = self.span(f"kernel.{entry}", fn)

        def kernel_call(*args, **kwargs):
            if entry == "scan_range":
                self.scan_elems += args[2] - args[1]
            result = inner(*args, **kwargs)
            if result is None and lane != "pure":
                self.compiled_declines += 1
            return result

        return kernel_call

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps(s) + "\n")


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, tail_requests: set[int]) -> dict[str, float]:
    """Per-layer metrics of the traced timed phase.

    Self time is a span's duration minus its child spans' durations; a
    share is time divided by the wall time of the timed phase (``.share``
    counts the whole span, ``.self_share`` only its self time).  The
    ``tail.`` shares divide a layer's self time within the tail requests
    by those requests' total time.  Times are raw, and include the host
    speed samples (speed.py) taken inside a span, about 2% of the time.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    dur: dict[str, list[int]] = defaultdict(list)
    self_: dict[str, list[int]] = defaultdict(list)
    scan_classify = 0
    tail_layer_ns: dict[str, int] = defaultdict(int)
    tail_ns = 0
    for i, (name, start, end, parent, request) in enumerate(spans):
        dur[name].append(end - start)
        self_[name].append(end - start - child_ns[i])
        if name == "classifier.classify" and parent >= 0 and spans[parent][0] == "analysis.exhaustive_scan":
            scan_classify += 1
        if request in tail_requests:
            tail_layer_ns[name.split(".")[0]] += end - start - child_ns[i]
            if parent < 0:
                tail_ns += end - start
    wall_ns = wall_s * 1e9

    def calls(n):
        return len(dur[n])

    def p50(table, n, scale):
        return _median(table[n]) / scale

    def share(table, n):
        return sum(table[n]) / wall_ns

    us, ms = 1e3, 1e6
    return {
        "kernel.group_det.calls": calls("kernel.group_det"),
        "kernel.group_det.self_us_p50": p50(self_, "kernel.group_det", us),
        "kernel.group_det.share": share(self_, "kernel.group_det"),
        "kernel.scan_range.elems": tracer.scan_elems,
        "kernel.scan_range.share": share(dur, "kernel.scan_range"),
        "kernel.scan_range.us_per_elem": (
            sum(dur["kernel.scan_range"]) / us / tracer.scan_elems if tracer.scan_elems else 0.0
        ),
        "kernel.compiled_declines": tracer.compiled_declines,
        "exact_eval.factored_form.calls": calls("exact_eval.factored_form"),
        "exact_eval.factored_form.self_us_p50": p50(self_, "exact_eval.factored_form", us),
        "exact_eval.factored_form.share": share(self_, "exact_eval.factored_form"),
        "analysis.random_crosscheck.self_share": share(self_, "analysis.random_crosscheck"),
        "analysis.exhaustive_scan.self_ms": p50(self_, "analysis.exhaustive_scan", ms),
        "analysis.exhaustive_scan.classify_calls": scan_classify,
        "classifier.classify.calls": calls("classifier.classify"),
        "classifier.classify.self_us_p50": p50(self_, "classifier.classify", us),
        "primes.factor_map.calls": calls("primes.factor_map"),
        "primes.factor_map.ms_p50": p50(dur, "primes.factor_map", ms),
        "primes.factor_map.ms_max": max(dur["primes.factor_map"], default=0) / ms,
        "primes.factor_map.share": share(dur, "primes.factor_map"),
        "primes.is_probable_prime.calls": calls("primes.is_probable_prime"),
        "quad_ring.split_prime.us_p50": p50(dur, "quad_ring.split_prime", us),
        "quad_ring.unit_adjust.us_p50": p50(dur, "quad_ring.unit_adjust", us),
        "quad_ring.normalize_decomposition.us_p50": p50(dur, "quad_ring.normalize_decomposition", us),
        "quad_ring.cohn_four_squares.ms_p50": p50(dur, "quad_ring.cohn_four_squares", ms),
        "quad_ring.cohn_four_squares.ms_max": max(dur["quad_ring.cohn_four_squares"], default=0) / ms,
        "quad_ring.cohn_four_squares.share": share(dur, "quad_ring.cohn_four_squares"),
        "witness.certify.share": share(dur, "witness.certify"),
        "witness.witness_even.us_p50": p50(dur, "witness.witness_even", us),
        "witness.witness_odd_1mod8.us_p50": p50(dur, "witness.witness_odd_1mod8", us),
        "witness.witness_odd_5mod8.self_us_p50": p50(self_, "witness.witness_odd_5mod8", us),
        "cli.certificate_document.us_p50": p50(dur, "cli.certificate_document", us),
        "tail.quad_ring.self_share": tail_layer_ns["quad_ring"] / tail_ns if tail_ns else 0.0,
        "tail.primes.self_share": tail_layer_ns["primes"] / tail_ns if tail_ns else 0.0,
        "trace.spans": len(spans),
    }
