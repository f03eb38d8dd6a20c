"""One workload in its own process: the timed phase, then the output checks.

Started by run.py, which enforces the wall-clock budget from outside and
reads the JSON summary this process prints as its last line.  A request is
one call a user waits for: a crosscheck batch, a scan pass, or one
certify target (classify, witness, certificate document, JSON text).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
from time import perf_counter

import inputs
import oracle
import speed
import q16det
from q16det import analysis, classifier, cli, kernel
from q16det.errors import MismatchFound
from q16det.exact_eval import determinant_from_factored, factored_form
from q16det.group_algebra import GroupRingElement, direct_determinant

# Elements re-checked against the oracle after the timed phase.
ORACLE_SAMPLE = 24

REFUSAL_REASONS = {
    "even_refused": "EvenNotMultipleOf1024",
    "odd_3mod4_refused": "OddCongruent3Mod4",
    "semiprime_refused": "FiveMod8NoAdmissiblePrimeSquare",
    "mr2_refused": "FiveMod8NoAdmissiblePrimeSquare",
}
FAMILY_PREFIX = {"family_even": "even_", "family_1mod8": "odd_16m", "mp2": "odd_5mod8"}


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


class Crosscheck:
    requests = smoke_requests = staticmethod(inputs.crosscheck_requests)

    @staticmethod
    def group(req):
        return f"h={req[1]}"

    def run(self, req):
        count, height, bseed = req
        try:
            report = analysis.random_crosscheck(count, height, bseed)
        except MismatchFound as exc:
            return count, ("mismatch", str(exc))
        return count, ("ok", report.count)

    def check(self, reqs, outs, rng):
        bad = {i for i, (status, count) in enumerate(outs) if status != "ok" or count != reqs[i][0]}
        for i in sorted(rng.sample(range(len(reqs)), min(ORACLE_SAMPLE, len(reqs)))):
            count, height, bseed = reqs[i]
            # Replays random_crosscheck's documented draw: 16 randint per element.
            draw = random.Random(bseed)
            j = rng.randrange(count)
            for _ in range(j + 1):
                coeffs = [draw.randint(-height, height) for _ in range(16)]
            e = GroupRingElement.from_coeffs(coeffs)
            want = oracle.group_determinant(coeffs)
            if direct_determinant(e) != want or determinant_from_factored(factored_form(e)) != want:
                bad.add(i)
        return bad, [o[1] for o in outs]


class Scan:
    requests = smoke_requests = staticmethod(inputs.scan_requests)
    direct = False

    @staticmethod
    def group(req):
        return "pass"

    def run(self, support):
        report = analysis.exhaustive_scan(support, workers=1, direct=self.direct)
        doc = report.to_dict()
        del doc["elapsed_s"]
        return report.total, doc

    def check(self, reqs, outs, rng):
        bad = set()
        for i, doc in enumerate(outs):
            total = len(set(reqs[i])) ** 16
            odd = doc["odd_mod8"]
            if not (
                doc["total"] == total
                and doc["ok"] and not doc["violations"]
                and odd["3"] == 0 and odd["7"] == 0
                and doc["even"] == doc["even_mult_1024"]
                and doc["even"] + doc["odd"] == total
                and doc["zero"] <= doc["even"]
            ):
                bad.add(i)
        if self.direct and reqs:
            bad |= self._oracle_sample(reqs, rng)
        return bad, outs

    def _oracle_sample(self, reqs, rng):
        bad = set()
        for _ in range(ORACLE_SAMPLE):
            i = rng.randrange(len(reqs))
            values = sorted(set(reqs[i]))
            # Element number idx has coefficient k = values[k-th base-len digit].
            idx = rng.randrange(len(values) ** 16)
            coeffs = [values[(idx // len(values) ** k) % len(values)] for k in range(16)]
            a, b = coeffs[:8], coeffs[8:]
            A, B, C, X, Y = kernel.factored_terms(a, b)
            want = oracle.group_determinant(coeffs)
            if kernel.group_det(a, b) != want or A * B * C * C * (X * X - 2 * Y * Y) ** 2 != want:
                bad.add(i)
        return bad


class ScanDirect(Scan):
    requests = staticmethod(inputs.scan_direct_requests)
    # A full direct pass takes seconds; smoke runs scan one-value supports.
    smoke_requests = staticmethod(inputs.one_value_supports)
    direct = True


class Certify:
    requests = smoke_requests = staticmethod(inputs.certify_requests)
    tracer = None

    @staticmethod
    def group(req):
        return req[0]

    def run(self, req):
        kind, n, p = req
        result = classifier.classify_and_witness(n)
        if isinstance(result, classifier.Classification):
            return 0, ("refused", result.reason.value)

        def document():
            return json.dumps(cli.certificate_document(result).to_json_dict())

        if self.tracer is not None:
            document = self.tracer.span("cli.certificate_document", document)
        return 1, ("certificate", document())

    def check(self, reqs, outs, rng):
        bad = set()
        for i, ((kind, n, p), (status, payload)) in enumerate(zip(reqs, outs)):
            if kind in REFUSAL_REASONS:
                ok = status == "refused" and payload == REFUSAL_REASONS[kind]
            elif status != "certificate":
                ok = False
            else:
                raw = json.loads(payload)
                doc = cli.CertificateDocument.from_json_dict(raw)
                ok = (
                    doc.n == n
                    and doc.verified
                    and cli.verify_document(doc)
                    and str(raw["trace"].get("family", "")).startswith(FAMILY_PREFIX[kind])
                    and (kind != "mp2" or raw["trace"]["p"] == str(p))
                )
            if not ok:
                bad.add(i)
        return bad, outs


WORKLOADS = {
    "crosscheck": Crosscheck,
    "scan": Scan,
    "scan_direct": ScanDirect,
    "certify": Certify,
}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, or the maximum when there are too few."""
    xs = sorted(latencies)
    if len(xs) > 10:
        return xs[-11], 100.0 * (len(xs) - 10) / len(xs), 10
    return xs[-1], 100.0, 0


def timings(latencies: list[float], elems: int) -> dict[str, float]:
    total = sum(latencies)
    return {
        "elems_per_s": elems / total,
        "targets_per_s": len(latencies) / total,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail(latencies)[0] * 1e3,
    }


def run(
    workload: str, seed: int, seconds: float, max_requests: int, smoke: bool, spans_path: str | None
) -> dict:
    wl = WORKLOADS[workload]()
    tracer = None
    if spans_path:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        wl.tracer = tracer
    body = wl.run if tracer is None else tracer.span("request", wl.run)

    reqs, outs, lat, elems = [], [], [], 0
    errors: dict[int, str] = {}
    wall = 0.0
    clocks: list[tuple[float, float]] = []
    gen = (wl.smoke_requests if smoke else wl.requests)(seed)
    # Without a request limit, run whole requests while the next one's
    # expected midpoint falls before the deadline: the timed phase lands as
    # close to ``seconds`` as whole requests allow.
    with speed.Tracker() as host:
        while (len(reqs) < max_requests) if max_requests else (wall + (lat[-1] / 2 if lat else 0) < seconds):
            req = next(gen)
            if tracer is not None:
                tracer.request = len(reqs)
            t0 = perf_counter()
            try:
                n_elems, out = body(req)
            except Exception as exc:  # a crashing request is a failed operation
                n_elems, out = 0, None
                errors[len(reqs)] = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            dt = host.measured(t0, t1)
            wall += dt
            elems += n_elems
            reqs.append(req)
            outs.append(out)
            lat.append(dt)
            clocks.append((t0, t1))
    scaled = [host.scaled(t0, t1) for t0, t1 in clocks]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    t_val, t_pct, t_beyond = tail(lat)
    layers = {}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(spans_path)
        # Spans include the speed samples taken inside them, so shares are
        # taken of the clock time of the requests, samples included.
        clock_s = sum(t1 - t0 for t0, t1 in clocks)
        layers = layer_metrics(tracer, clock_s, {i for i, dt in enumerate(lat) if dt >= t_val})

    ok_idx = [i for i in range(len(reqs)) if i not in errors]
    rng = random.Random(f"check:{seed}")
    bad, digest_items = wl.check([reqs[i] for i in ok_idx], [outs[i] for i in ok_idx], rng)
    failed_idx = set(errors) | {ok_idx[i] for i in bad}
    failures = [f"request {i} {reqs[i]!r}: {errors.get(i, 'wrong output')}" for i in sorted(failed_idx)]

    by_group: dict[str, list[float]] = {}
    for req, dt in zip(reqs, scaled):
        by_group.setdefault(wl.group(req), []).append(dt)
    return {
        "workload": workload,
        "module": q16det.__file__,
        "lane": kernel.ACTIVE_LANE,
        "lanes": list(kernel.lanes()),
        "requests": len(reqs),
        "elements": elems,
        "wall_s": wall,
        "host_speed": sum(scaled) / wall,
        **timings(scaled, elems),
        "raw": timings(lat, elems),
        "latency_tail_percentile": t_pct,
        "latency_tail_beyond": t_beyond,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(reqs),
        "failed": len(failed_idx),
        "failures": failures[:10],
        "by_group": {
            k: {"requests": len(v), "latency_p50_ms": statistics.median(v) * 1e3}
            for k, v in sorted(by_group.items())
        },
        "digests": {
            "inputs": _digest(reqs),
            "outputs": _digest(digest_items),
            "requests": len(reqs),
            "elements": elems,
            "spans": layers.get("trace.spans", 0),
        },
        "layers": layers,
        "unwrapped_sites": tracer.missing_sites if tracer else [],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--max-requests", type=int, default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs for the harness's own tests")
    parser.add_argument("--spans", default=None, help="trace and write spans here")
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, args.max_requests, args.smoke, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
