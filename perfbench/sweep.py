"""Growth sweep and kernel micro-rows of the traced run.

Run as a process by run.py, which bounds the whole sweep from outside.
Each row has its own wall-clock cap, kept by an interval timer: a row that
overruns is stopped and reported over budget, with the time its unfinished
stage had run (a lower bound), and the sweep goes on with the next row.
The sweep keeps the known growth of the 5 mod 8 path in view: the Cohn
four-squares search grows like sqrt(p), Pollard rho like n**(1/4).

Prints one JSON line: {"rows", "metrics", "over_budget", "failures"}.
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import sys
from time import perf_counter

import oracle
from inputs import semiprime

ROW_CAP_S = 1.5
MICRO_CAP_S = 20.0
PIPELINE_DECADES = range(3, 14)
FACTOR_DIGITS = range(16, 30)
MICRO_HEIGHTS = {"h1": 1, "h9": 9, "h1e6": 10**6}
MICRO_DETS = 100
MICRO_TERMS = 2000
MICRO_SCAN = 30_000


def rows(lanes: list[str]) -> list[tuple[str, float, list[str]]]:
    """(row id, cap in seconds, metric names) of every sweep row."""
    out = [
        (
            f"micro.{lane}",
            MICRO_CAP_S,
            [f"kernel.{lane}.group_det.us.{h}" for h in MICRO_HEIGHTS]
            + [f"kernel.{lane}.factored_terms.us", f"kernel.{lane}.scan_range.us_per_elem"],
        )
        for lane in lanes
    ]
    out += [
        (f"p1e{k}", ROW_CAP_S, [f"quad_ring.split_prime.ms.p1e{k}", f"quad_ring.cohn_four_squares.ms.p1e{k}"])
        for k in PIPELINE_DECADES
    ]
    out += [(f"d{d}", ROW_CAP_S, [f"primes.factor_map.ms.d{d}"]) for d in FACTOR_DIGITS]
    return out


class OverBudget(BaseException):
    """Raised by the row timer; a BaseException so no library handler
    for ordinary errors can swallow it."""


def _alarm(signum, frame):
    raise OverBudget


class Results:
    """Metrics and failures of the sweep, filled stage by stage."""

    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.failures: list[str] = []

    def timed(self, name: str, scale: float, fn, *args):
        """fn(*args), its time (times ``scale``) recorded under ``name``,
        also when the row timer stops it."""
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.metrics[name] = (perf_counter() - t0) * scale

    def fail(self, message: str) -> None:
        self.failures.append(message)


def micro(out: Results, lane: str, seed: int) -> None:
    from q16det import kernel

    mod = kernel.lanes()[lane]
    rng = random.Random(f"micro:{seed}")
    for label, h in MICRO_HEIGHTS.items():
        batch = [[rng.randint(-h, h) for _ in range(16)] for _ in range(MICRO_DETS)]
        dets = out.timed(f"kernel.{lane}.group_det.us.{label}", 1e6 / MICRO_DETS,
                         lambda: [mod.group_det(c[:8], c[8:]) for c in batch])
        for c, det in list(zip(batch, dets))[:3]:
            if det not in (None, oracle.group_determinant(c)):
                out.fail(f"{lane} group_det{tuple(c)} = {det}")
    pairs = [([rng.randint(-9, 9) for _ in range(8)], [rng.randint(-9, 9) for _ in range(8)])
             for _ in range(MICRO_TERMS)]
    out.timed(f"kernel.{lane}.factored_terms.us", 1e6 / MICRO_TERMS,
              lambda: [mod.factored_terms(a, b) for a, b in pairs])
    tally = out.timed(f"kernel.{lane}.scan_range.us_per_elem", 1e6 / MICRO_SCAN,
                      mod.scan_range, (-1, 0, 1), 0, MICRO_SCAN)
    if tally is not None and tally["count"] != MICRO_SCAN:
        out.fail(f"{lane} scan_range counted {tally['count']} of {MICRO_SCAN}")


def pipeline(out: Results, k: int, seed: int) -> None:
    from q16det import quad_ring

    rng = random.Random(f"p1e{k}:{seed}")
    p = oracle.next_prime(10**k + rng.randrange(10**k), 7)
    s0 = out.timed(f"quad_ring.split_prime.ms.p1e{k}", 1e3, quad_ring.split_prime, p)
    if s0.X * s0.X - 2 * s0.Y * s0.Y != p:
        out.fail(f"split {s0} does not solve X^2 - 2Y^2 = {p}")
    s = quad_ring.unit_adjust(s0, 1)
    fs = out.timed(f"quad_ring.cohn_four_squares.ms.p1e{k}", 1e3, quad_ring.cohn_four_squares, s)
    # The four squares (a + b*sqrt 2)**2 must sum to 2 * (X + Y*sqrt 2).
    if (sum(a * a + 2 * b * b for a, b in fs.pairs), sum(2 * a * b for a, b in fs.pairs)) != (2 * s.X, 2 * s.Y):
        out.fail(f"four squares {fs.pairs} do not sum to 2*({s.X} + {s.Y}*sqrt2)")


def factor(out: Results, digits: int, seed: int) -> None:
    from q16det import primes

    n = semiprime(random.Random(f"d{digits}:{seed}"), digits)
    fm = out.timed(f"primes.factor_map.ms.d{digits}", 1e3, primes.factor_map, n)
    product = 1
    for q, e in fm.items():
        product *= q**e
    if product != n or not all(oracle.is_prime(q) for q in fm):
        out.fail(f"factor_map({n}) = {fm}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rows", type=int, default=None, help="run only the first ROWS rows")
    args = parser.parse_args()
    from q16det import kernel

    out, over = Results(), []
    todo = rows(list(kernel.lanes()))[: args.rows]
    signal.signal(signal.SIGALRM, _alarm)
    for row, cap, _ in todo:
        try:
            signal.setitimer(signal.ITIMER_REAL, cap)
            if row.startswith("micro."):
                micro(out, row[len("micro."):], args.seed)
            elif row.startswith("p1e"):
                pipeline(out, int(row[3:]), args.seed)
            else:
                factor(out, int(row[1:]), args.seed)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except OverBudget:
            signal.setitimer(signal.ITIMER_REAL, 0)
            over.append(row)
    print(json.dumps({"rows": len(todo), "metrics": out.metrics, "over_budget": over, "failures": out.failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
