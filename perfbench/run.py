"""Benchmark of twistedgl: corpus throughput, single-verb latency, and per-layer timings.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload corpus-small --seed 0 --seconds 20 --trace 0

Each workload runs in this one process and thread, through cli.main and the
public functions of the library.  --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer metrics of a separate traced run.  The last line of
standard output is the result; the line before it is the environment stamp.
Results and spans are also written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
HERE = Path(__file__).resolve().parent
WORKLOADS = ("corpus-small", "corpus-large", "verbs")
SETUP_REPEATS = 11

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import twistedgl.cli; "
                "print(repr(time.perf_counter() - t))")


def measure_setup(wl, workload: str, seed: int, smoke: bool, cal) -> tuple[float, list]:
    """Median over repeats of the time to import twistedgl.cli in a fresh
    interpreter plus the program's generation of the first plan or documents.
    Only the program is timed: its inputs are made before each repeat, and
    the benchmark's work between its calls is left out.

    Returns the calibrated median and the raw repeats as (import, generation).
    """
    raw, scaled = [], []
    for _ in range(1 if smoke else SETUP_REPEATS):
        inputs = wl.setup_inputs(workload, seed, smoke)
        import_scale = calibration.import_scale()
        imported = calibration.probe(IMPORT_PROBE, str(SRC))
        intervals = wl.generate(workload, inputs)
        cal.sample()
        raw.append((imported, sum(t1 - t0 for t0, t1 in intervals) / 1e9))
        scaled.append(imported * import_scale
                      + sum(cal.scaled(t0, t1) for t0, t1 in intervals) / 1e9)
    return statistics.median(scaled), raw


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_describe() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable: not a git checkout"
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                              cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable: {exc}"
    return done.stdout.strip() or "unavailable: " + done.stderr.strip()


def plan(wl, workload: str, seed: int, smoke: bool) -> dict:
    if workload in wl.CORPUS:
        return {"first_call": next(wl.corpus_calls(workload, seed, smoke)),
                "records_per_call": wl.corpus_records_per_call(workload, smoke),
                "calls": "one prime per call in turn; round k uses corpus seed "
                         f"{seed} * 1000003 + k + 1",
                "reference_call": wl.reference_argv(workload, smoke)}
    shape = wl.VERBS_SHAPE
    return {"mix": "each kind once per block of nine, in seeded order",
            "kinds": list(wl.VERB_KINDS), "setup_documents": wl.SETUP_DOCS,
            "primes": list(shape.primes), "config_primes": list(shape.config_primes),
            "config_ns": list(shape.config_ns), "gram_dims": list(shape.gram_dims)}


def stamp(wl, args) -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(), "platform": platform.platform(),
            "git_describe": git_describe(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "plan": plan(wl, args.workload, args.seed, args.smoke)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny corpus calls and one set-up repeat, for the benchmark's tests")
    args = ap.parse_args(argv)
    if not (SRC / "twistedgl" / "cli.py").is_file():
        print(f"perfbench: no twistedgl sources under {SRC}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl
    import tracing

    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    cal = calibration.Calibration()
    setup_s, setup_raw = measure_setup(wl, args.workload, args.seed, args.smoke, cal)
    ref_checked, ref_failed = (wl.check_reference(args.workload, args.smoke, reference)
                               if args.workload in wl.CORPUS else (0, 0))

    coverage = None
    if args.trace:
        tally, values, tracer, coverage = tracing.traced_run(args.workload, args.seed,
                                                             args.seconds, args.smoke, cal)
    elif args.workload in wl.CORPUS:
        tally = wl.run_corpus(args.workload, args.seed, args.seconds, args.smoke, cal)
    else:
        tally = wl.run_verbs(args.seed, args.seconds, cal)
    attempted, failed = tally.attempted + ref_checked, tally.failed + ref_failed
    latency = {}
    if not args.trace:
        lat = [cal.scaled(t0, t1) / 1e6 for t0, t1 in tally.calls]
        raw = [(t1 - t0) / 1e6 for t0, t1 in tally.calls]
        for q in (50, 75, 85, 90, 99):
            latency[f"p{q}"] = wl.percentile(lat, q)
            latency[f"raw_p{q}"] = wl.percentile(raw, q)
        latency["raw_ops_per_s"] = tally.attempted / (tally.busy_ns / 1e9)
        values = {
            "ops_per_s": (tally.attempted / (sum(lat) / 1e3), "1/s"),
            "call_ms_p50": (latency["p50"], "ms"),
            "call_ms_tail": (latency[f"p{wl.TAIL_PERCENTILE[args.workload]}"], "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_share": (1 - failed / attempted, "ratio"),
        }
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    info = {"stamp": stamp(wl, args), "calls": len(tally.calls), "latency_ms": latency,
            "setup_raw_s": setup_raw, "reference_records_failed": ref_failed,
            "calibration_factor": cal.factor, "stage_coverage": coverage,
            "coverage_below_floor": tracing.below_floor(args.workload, coverage)}

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{name}.json", "w", encoding="utf-8") as fh:
        json.dump({**info, "result": result, "calls_ns": tally.calls,
                   "calibration_ns": list(zip(cal.starts, cal.samples))}, fh)
    if args.trace:
        tracer.dump(OUT / f"spans-{name}.json")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
