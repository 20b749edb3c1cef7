"""Benchmark of qcongruence: end-to-end verdict timings and per-layer traces.

    python3 perfbench/run.py --workload {sweep,audit,large_n} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from ``src/``.
With ``--trace 0`` it times whole passes of the workload (see workloads.py)
until ``--seconds`` of passes have run and prints the end-to-end metrics.
With ``--trace 1`` it runs a fixed number of passes, untraced and then
traced, and prints the per-layer metrics (tracer.py) and the tracing
overhead; the fixed amount of work makes every count repeat exactly.
Every pass starts from a freshly imported package, so the cyclotomic cache
is cold as in a CLI run.  Every verdict is checked against a closed-form
rule; the last stdout line is one JSON result, and the exit code is 1 when
any verdict raised or disagreed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
PACKAGE = "qcongruence"

# verdict_s_tail: the highest percentile with at least ten verdicts beyond it
# at the sample count of a 30 s run (sweep 6,000-12,000, audit 300-450).
# large_n has 20-35 verdicts, too few for a tail with ten beyond it; its p90
# lies inside the slowest of its five slots.
TAIL_PERCENTILE = {"sweep": 99, "audit": 90, "large_n": 90}
TRACE_PASSES = {"sweep": 4, "audit": 1, "large_n": 1}
SETUP_SAMPLES = 9

# On a shared cloud host wall times drift by up to 2x for tens of seconds at
# a time (other tenants on the same cores), and process CPU time drifts with
# them.  A fixed kernel slows by the same factor, so verdict times are
# divided by the kernel time measured around them and reported in reference
# seconds (unit ref_s).  REFERENCE_S is the kernel's time on a quiet 2-vCPU
# Intel Xeon KVM guest with Python 3.11.7.  Raw wall times are printed too.
REFERENCE_S = 0.008
SEGMENT_S = 0.5

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import {package}, workloads
workloads.first_pass({workload!r}, {seed!r})
print(time.perf_counter() - t0)
"""


def fresh_package():
    """Import the package anew, dropping every module state (caches)."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    qc = importlib.import_module(PACKAGE)
    if Path(qc.__file__).resolve().parent != SRC / PACKAGE:
        raise RuntimeError(f"{PACKAGE} imported from {qc.__file__}, not {SRC}")
    return qc


def _kernel_s() -> float:
    start = time.perf_counter()
    v = list(range(1, 3001))
    for _ in range(30):
        v = [x * 3 + y for x, y in zip(v, v[1:] + v[:1])]
    acc = Fraction(0)
    for k in range(1, 600):
        acc += Fraction(k, k + 1)
    return time.perf_counter() - start


def calibration_s() -> float:
    """Host speed now: the fastest of three runs of a fixed pure-Python
    kernel (list and Fraction arithmetic, like the package's hot loops) that
    no change to the package can move.  The minimum drops short spikes."""
    return min(_kernel_s() for _ in range(3))


def run_pass(qc, batch) -> dict:
    """Run one pass: every verdict, then the JSON report, as one CLI call.

    The kernel runs before the pass and after every SEGMENT_S of verdicts;
    each verdict's wall time is scaled by REFERENCE_S over the mean kernel
    time of the two calibrations around it.
    """
    clock = time.perf_counter
    items, raw, ref, bad = [], [], [], []
    cal = calibration_s()
    mark = clock()

    def close_segment():
        nonlocal cal, mark
        new = calibration_s()
        scale = REFERENCE_S / ((cal + new) / 2)
        ref.extend(t * scale for t in raw[len(ref):])
        cal, mark = new, clock()
        return scale

    for instance in batch:
        t0 = clock()
        try:
            fields, checks = workloads.run_instance(qc, instance)
        except Exception as exc:  # a verdict that raises counts as failed
            raw.append(clock() - t0)
            bad.append(f"{instance} raised {type(exc).__name__}: {exc}")
            continue
        dt = clock() - t0
        raw.append(dt)
        items.append((instance, qc.ReportItem(fields, checks, ms=int(dt * 1000))))
        if clock() - mark >= SEGMENT_S:
            close_segment()
    t0 = clock()
    rendered = qc.Report(workloads.COLUMNS, [it for _, it in items]).render("json")
    render_s = clock() - t0
    scale = close_segment()

    for instance, item in items:
        if not workloads.verdict_correct(instance, item.fields, item.checks):
            bad.append(f"{instance} gave {item.checks}")
    expect_passed = sum(all(workloads.expected_checks(*inst).values())
                        for inst, _ in items)
    summary = json.loads(rendered)["summary"]
    report_ok = (summary["total"] == len(items)
                 and summary["passed"] == expect_passed)
    return {"seconds": sum(ref) + render_s * scale, "times": ref,
            "raw_seconds": sum(raw) + render_s, "raw_times": raw,
            "attempted": len(batch), "bad": bad, "report_ok": report_ok}


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of package import + input generation."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR),
                              package=PACKAGE, workload=workload, seed=seed)
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def timed_run(workload: str, seed: int, seconds: float) -> tuple:
    setup_s = measure_setup(workload, seed)
    stream = workloads.passes(workload, seed)
    results, measured = [], 0.0
    while measured < seconds or not results:
        batch = next(stream)
        qc = fresh_package()
        gc.collect()
        results.append(run_pass(qc, batch))
        measured += results[-1]["raw_seconds"]
    pct = TAIL_PERCENTILE[workload]

    def summary(pass_key, verdict_key):
        times = [t for res in results for t in res[verdict_key]]
        return (statistics.median(res["attempted"] / res[pass_key]
                                  for res in results),
                statistics.median(times), percentile(times, pct))

    rate, p50, tail = summary("seconds", "times")
    raw_rate, raw_p50, raw_tail = summary("raw_seconds", "raw_times")
    count = sum(len(res["times"]) for res in results)
    print(f"passes={len(results)} verdicts={count} timed_s={measured:.3f} "
          f"tail=p{pct} of {count} verdicts")
    print(f"raw wall time: verdicts_per_s={raw_rate!r} verdict_s_p50={raw_p50!r} "
          f"verdict_s_tail={raw_tail!r}")
    metrics = {
        "verdicts_per_s": (rate, "1/ref_s"),
        "verdict_s_p50": (p50, "ref_s"),
        "verdict_s_tail": (tail, "ref_s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    return results, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced_run(workload: str, seed: int) -> tuple:
    stream = workloads.passes(workload, seed)
    batches = [next(stream) for _ in range(TRACE_PASSES[workload])]
    results, untraced_s, traced_s = [], 0.0, 0.0
    for batch in batches:
        results.append(run_pass(fresh_package(), batch))
        untraced_s += results[-1]["seconds"]
    trace = tracer.Tracer()
    for batch in batches:
        qc = fresh_package()
        trace.install(PACKAGE)
        results.append(run_pass(qc, batch))
        traced_s += results[-1]["seconds"]
    for target in trace.missing:
        print(f"trace: {target} not found in the package; its metrics read 0")
    metrics = trace.metrics()
    metrics["trace.overhead_ratio"] = {"value": traced_s / untraced_s,
                                       "unit": "ratio"}
    print(f"passes={len(batches)} untraced_s={untraced_s:.3f} "
          f"traced_s={traced_s:.3f}")
    return results, metrics


def environment() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"python={platform.python_version()} "
            f"nproc={len(os.sched_getaffinity(0))} loadavg={load}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: {SRC / PACKAGE} not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    print(f"env start {environment()}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    if args.trace:
        results, metrics = traced_run(args.workload, args.seed)
    else:
        results, metrics = timed_run(args.workload, args.seed, args.seconds)

    attempted = sum(res["attempted"] for res in results)
    bad = [msg for res in results for msg in res["bad"]]
    report_ok = all(res["report_ok"] for res in results)
    for msg in bad[:20]:
        print(f"FAILED {msg}")
    if not report_ok:
        print("FAILED rendered report summary disagrees with the verdicts")
    for name, m in metrics.items():
        print(f"{name}: {m['value']!r} {m['unit']}")
    print(f"failed_share: {len(bad) / attempted!r} share "
          f"({len(bad)} of {attempted} verdicts)")
    print(f"env end {environment()}")
    correct = not bad and report_ok
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(bad), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
