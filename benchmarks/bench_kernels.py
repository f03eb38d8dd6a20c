#!/usr/bin/env python3
"""Benchmark the compiled kernel lane against the pure-Python fallback.

Times the three hot operations on identical inputs, and the direct scan
(each value also checked by elimination: the 8x8 circulant of q in the pure
lane, the 16x16 in the compiled lane), and prints a table:

    python benchmarks/bench_kernels.py [--dets N] [--scan N]
"""

import argparse
import random
import time

from q16det import kernel

# elements of {0,1}^16 in the direct scan row
SCAN_DIRECT_ELEMS = 5000


def time_dets(lane, batches, reps=1):
    t0 = time.perf_counter()
    for _ in range(reps):
        for a, b in batches:
            lane.group_det(a, b)
    return (time.perf_counter() - t0) / (reps * len(batches))


def time_terms(lane, batches, reps=1):
    t0 = time.perf_counter()
    for _ in range(reps):
        for a, b in batches:
            lane.factored_terms(a, b)
    return (time.perf_counter() - t0) / (reps * len(batches))


def time_scan(lane, values, count, direct=False):
    t0 = time.perf_counter()
    lane.scan_range(values, 0, count, direct)
    return (time.perf_counter() - t0) / count


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dets", type=int, default=2000,
                        help="random elements for the determinant timings")
    parser.add_argument("--scan", type=int, default=200_000,
                        help="elements for the scan timing")
    parser.add_argument("--height", type=int, default=9)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    batches = [
        (
            [rng.randint(-args.height, args.height) for _ in range(8)],
            [rng.randint(-args.height, args.height) for _ in range(8)],
        )
        for _ in range(args.dets)
    ]

    lanes = kernel.lanes()
    print(f"active lane: {kernel.ACTIVE_LANE}; lanes present: {list(lanes)}")
    print(f"{'operation':<28}" + "".join(f"{name:>14}" for name in lanes)
          + f"{'speedup':>10}")

    rows = [
        (f"group_det (h={args.height})", lambda ln: time_dets(ln, batches)),
        ("factored_terms", lambda ln: time_terms(ln, batches, reps=5)),
        (f"scan_range ({args.scan} elts)",
         lambda ln: time_scan(ln, (-1, 0, 1), args.scan)),
        (f"scan_range direct ({SCAN_DIRECT_ELEMS})",
         lambda ln: time_scan(ln, (0, 1), SCAN_DIRECT_ELEMS, direct=True)),
    ]
    for label, fn in rows:
        times = {name: fn(ln) for name, ln in lanes.items()}
        cells = "".join(f"{times[name] * 1e6:>12.2f}us" for name in lanes)
        if "compiled" in times and times["compiled"] > 0:
            ratio = times["pure"] / times["compiled"]
            cells += f"{ratio:>9.1f}x"
        print(f"{label:<28}{cells}")

    # agreement spot check on the benchmark inputs
    for a, b in batches[:200]:
        results = {name: ln.group_det(a, b) for name, ln in lanes.items()}
        assert len(set(results.values())) == 1, results
    print("lane agreement on benchmark inputs: OK")


if __name__ == "__main__":
    main()
