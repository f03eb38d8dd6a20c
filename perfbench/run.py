#!/usr/bin/env python3
"""Seeded benchmark of q16det.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --seed N --smoke     (small, quick)
    python3 perfbench/run.py --selfcheck --seed N              (determinism)

Workloads (see BENCHMARK.json for why each was chosen): crosscheck, scan,
scan_direct and certify.  q16det is imported from src/ of the checkout this
file sits in, in whichever kernel lane that checkout provides.  Every
workload runs in a child process under a wall-clock budget; an overrun
counts as a failed operation and never hangs the command.

With --trace 0 the command measures the end-to-end metrics.  With --trace 1
it runs the workload untraced and again with spans around every layer
call, then the growth sweep and the kernel micro-rows, and reports the
per-layer metrics and the tracing overhead.  End-to-end times are scaled
to the reference host speed of speed.py, because shared hosts drift; the
raw figures are printed and recorded too.  Every output is checked after
the timed phase; the last stdout line is the JSON summary, and the full
record goes to .perfbench/ in the checkout.  Exit status 1 means some
output was wrong or over budget.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import sweep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("crosscheck", "scan", "scan_direct", "certify")

# (name, unit, better) of the end-to-end metrics, measured with tracing off.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("elems_per_s", "1/s", "higher"),
    ("targets_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

SETUP_PROBES = 7
IMPORT_PROBES = 3
RUN_BUDGET_S = 170.0
SWEEP_BUDGET_S = 60.0
SMOKE_REQUESTS = {"crosscheck": 6, "scan": 2, "scan_direct": 3, "certify": 20}
SMOKE_SWEEP_ROWS = 2  # the pure-lane micro-rows and p1e3
IMPORT_MODULES = (
    "q16det", "q16det.errors", "q16det._cayley", "q16det._pykernel", "q16det.kernel",
    "q16det.group_algebra", "q16det.exact_eval", "q16det.primes", "q16det.quad_ring",
    "q16det.witness", "q16det.classifier", "q16det.analysis", "q16det.cli",
)
TRACE_LAYER_METRICS = (
    "kernel.group_det.calls", "kernel.group_det.self_us_p50", "kernel.group_det.share",
    "kernel.scan_range.elems", "kernel.scan_range.share", "kernel.scan_range.us_per_elem",
    "kernel.compiled_declines",
    "exact_eval.factored_form.calls", "exact_eval.factored_form.self_us_p50",
    "exact_eval.factored_form.share", "analysis.random_crosscheck.self_share",
    "analysis.exhaustive_scan.self_ms", "analysis.exhaustive_scan.classify_calls",
    "classifier.classify.calls", "classifier.classify.self_us_p50",
    "primes.factor_map.calls", "primes.factor_map.ms_p50", "primes.factor_map.ms_max",
    "primes.factor_map.share", "primes.is_probable_prime.calls",
    "quad_ring.split_prime.us_p50", "quad_ring.unit_adjust.us_p50",
    "quad_ring.normalize_decomposition.us_p50", "quad_ring.cohn_four_squares.ms_p50",
    "quad_ring.cohn_four_squares.ms_max", "quad_ring.cohn_four_squares.share",
    "witness.certify.share", "witness.witness_even.us_p50",
    "witness.witness_odd_1mod8.us_p50", "witness.witness_odd_5mod8.self_us_p50",
    "cli.certificate_document.us_p50", "tail.quad_ring.self_share", "tail.primes.self_share",
    "trace.spans",
)


def per_layer_names() -> list[str]:
    """Every per-layer metric of a traced run, in report order.  The micro
    rows are those of the pure lane, which every checkout has."""
    names = list(TRACE_LAYER_METRICS)
    names += ["trace.throughput_ratio", "cli.build_parser.ms"]
    names += [f"import.{m}.self_ms" for m in IMPORT_MODULES]
    names += [m for _, _, metrics in sweep.rows(["pure"]) for m in metrics]
    return names


def unit_of(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, read from its name."""
    words = set(re.split(r"[._]", name))
    if name == "trace.throughput_ratio":
        return "ratio", "higher"
    if words & {"elems", "spans"} and "per" not in words:
        return "count", "higher"
    if words & {"calls", "declines"}:
        return "count", "lower"
    if "share" in words:
        return "share", "lower"
    return ("us" if "us" in words else "ms"), "lower"


class Budget:
    """Wall-clock deadline of the whole run."""

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self, cap: float) -> float:
        return max(0.0, min(cap, self.end - time.monotonic()))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def run_child(argv: list[str], timeout: float) -> tuple[dict | None, str]:
    """Run a Python child; (last stdout line as JSON, error text)."""
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"over budget ({timeout:.0f} s)"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {err.strip()[-2000:]}"
    try:
        return json.loads(lines[-1]), ""
    except json.JSONDecodeError:
        return None, f"unreadable output: {lines[-1][:200]}"


def setup_probes(budget: Budget, count: int) -> dict:
    """Median set-up over ``count`` fresh interpreters, after one untimed
    interpreter that writes the bytecode caches."""
    samples, errors = [], []
    for i in range(count + 1):
        res, err = run_child([str(HERE / "probe.py")], budget.left(30))
        if res is None or not res["ok"]:
            errors.append(err or f"probe output wrong: {res}")
        elif i > 0:
            samples.append(res)
    out = {"attempted": count + 1, "failed": len(errors), "errors": errors, "samples": samples}
    if samples:
        for key in ("setup_s", "raw_setup_s", "build_parser_ms"):
            out[key] = statistics.median(s[key] for s in samples)
    return out


def import_times(budget: Budget) -> dict[str, float]:
    """Median self import time per q16det module, from -X importtime."""
    table: dict[str, list[float]] = {}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import q16det.cli"], cwd=ROOT,
            env=child_env(), capture_output=True, text=True, timeout=budget.left(30),
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[0][12:].strip().isdigit():
                name = parts[2].strip()
                if name.startswith("q16det"):
                    table.setdefault(name, []).append(int(parts[0][12:]) / 1e3)
    return {name: statistics.median(v) for name, v in table.items()}


def run_sweep(budget: Budget, seed: int, rows: int | None) -> dict:
    """The sweep rows; each row keeps its own cap, this call the total."""
    argv = [str(HERE / "sweep.py"), "--seed", str(seed)]
    if rows is not None:
        argv += ["--rows", str(rows)]
    res, err = run_child(argv, budget.left(SWEEP_BUDGET_S))
    if res is None:
        return {"rows": 1, "metrics": {}, "over_budget": [], "failures": [f"sweep: {err}"]}
    return res


def machine_info(seed: int, lane: str, lanes: list[str]) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "lane": lane,
        "lanes": lanes,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_argv(args, seed: int, traced: bool) -> list[str]:
    argv = [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds)]
    if args.smoke:
        argv += ["--smoke", "--max-requests", str(SMOKE_REQUESTS[args.workload])]
    if traced:
        OUT_DIR.mkdir(exist_ok=True)
        argv += ["--spans", str(OUT_DIR / f"spans-{args.workload}-seed{seed}.jsonl")]
    return argv


def measure(args) -> int:
    budget = Budget(RUN_BUDGET_S)
    worker_budget = 60.0 if args.smoke else 2 * args.seconds + 60
    setup = setup_probes(budget, 2 if args.smoke else SETUP_PROBES)
    attempted, failed = setup["attempted"], setup["failed"]
    failures = list(setup["errors"])

    def worker(traced: bool) -> dict | None:
        nonlocal attempted, failed
        res, err = run_child(worker_argv(args, args.seed, traced), budget.left(worker_budget))
        if res is None:
            attempted += 1
            failed += 1
            failures.append(f"{args.workload} worker: {err}")
            return None
        if not Path(res["module"]).resolve().is_relative_to(ROOT / "src"):
            failed += 1
            failures.append(f"q16det imported from {res['module']}, not from this checkout")
        attempted += res["attempted"]
        failed += res["failed"]
        failures.extend(res["failures"])
        return res

    plain = worker(False)
    record: dict = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                    "smoke": args.smoke, "setup": setup, "untraced": plain}
    lane, lanes = (plain["lane"], plain["lanes"]) if plain else ("unknown", [])
    record["info"] = machine_info(args.seed, lane, lanes)

    if not args.trace:
        metrics = {name: (plain or {}).get(name, 0.0) for name, _, _ in END_TO_END}
        metrics["setup_s"] = setup.get("setup_s", 0.0)
        units = {name: unit for name, unit, _ in END_TO_END}
    else:
        traced = worker(True)
        swept = run_sweep(budget, args.seed, SMOKE_SWEEP_ROWS if args.smoke else None)
        attempted += swept["rows"]
        failed += len(swept["failures"])
        failures.extend(swept["failures"])
        imports = import_times(budget)
        layers = dict((traced or {}).get("layers", {}))
        rate = "targets_per_s" if args.workload == "certify" else "elems_per_s"
        layers["trace.throughput_ratio"] = (traced[rate] / plain[rate]) if traced and plain else 0.0
        layers["cli.build_parser.ms"] = setup.get("build_parser_ms", 0.0)
        layers.update({f"import.{m}.self_ms": imports.get(m, 0.0) for m in IMPORT_MODULES})
        layers.update(swept["metrics"])
        record.update(traced=traced, sweep=swept, imports=imports, all_layers=layers)
        metrics = {name: layers.get(name, 0) for name in per_layer_names()}
        units = {name: unit_of(name)[0] for name in metrics}

    correct = failed == 0
    record.update(metrics=metrics, attempted=attempted, failed=failed, failures=failures,
                  fail_ratio=failed / attempted, correct=correct)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print_report(record, units)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def print_report(record: dict, units: dict) -> None:
    info = record["info"]
    print(f"q16det benchmark: workload={record['workload']} seed={info['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print(f"  lane={info['lane']} lanes={','.join(info['lanes'])} python={info['python']} "
          f"nproc={info['nproc']} cpu={info['cpu']} commit={info['commit']}")
    plain = record["untraced"]
    if plain:
        print(f"  requests={plain['requests']} elements={plain['elements']} "
              f"timed={plain['wall_s']:.3f}s tail=p{plain['latency_tail_percentile']:.2f} "
              f"({plain['latency_tail_beyond']} beyond)")
        raw = " ".join(f"{k}={v:.4f}" for k, v in plain["raw"].items())
        print(f"  host speed {plain['host_speed']:.3f} x the reference; raw {raw} "
              f"setup_s={record['setup'].get('raw_setup_s', 0):.4f}")
        for group, g in plain["by_group"].items():
            print(f"    {group:<20} requests={g['requests']:<6} p50={g['latency_p50_ms']:.3f}ms")
    for name, value in record["metrics"].items():
        print(f"  {name:<48} {value:>16.6f} {units[name]}")
    if record["trace"] and record.get("sweep"):
        print(f"  sweep over budget: {', '.join(record['sweep']['over_budget']) or 'none'}")
    if record["trace"] and record.get("traced") and record["traced"]["unwrapped_sites"]:
        print(f"  not traced (name gone): {', '.join(record['traced']['unwrapped_sites'])}")
    print(f"  fail_ratio {record['fail_ratio']:.6f} ({record['failed']}/{record['attempted']})")
    for f in record["failures"][:10]:
        print(f"  FAILED: {f}")


def selfcheck(seed: int) -> int:
    """Two traced smoke runs per workload at one seed must agree on every
    non-timing output."""
    ok = True
    for workload in WORKLOADS:
        args = argparse.Namespace(workload=workload, seconds=1, smoke=True)
        digests = []
        for _ in range(2):
            res, err = run_child(worker_argv(args, seed, True), 120)
            digests.append(res["digests"] if res and not res["failed"] else err or res["failures"])
        same = digests[0] == digests[1] and isinstance(digests[0], dict)
        ok &= same
        print(f"{workload:<12} {'same' if same else 'DIFFERENT'} {digests[0]}")
        if not same:
            print(f"{'':<12} second run: {digests[1]}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few requests per workload, for the harness's tests")
    parser.add_argument("--selfcheck", action="store_true", help="check that two runs at one seed agree")
    args = parser.parse_args()
    if not (ROOT / "src" / "q16det" / "__init__.py").is_file():
        print(f"perfbench: no q16det sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
