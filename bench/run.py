"""Wall-clock producer-to-consumer benchmark.  See ``bench/README.md``.

    python3 bench/run.py                          every workload, one fresh process each
    python3 bench/run.py --trace                  ... with the traced run and per-layer ledger
    python3 bench/run.py --runs 10 --out A.json   ten seeds per workload, for --compare
    python3 bench/run.py --compare A.json B.json  verdict per workload x end-to-end metric
    python3 bench/run.py --quick                  self-check of names, units, correctness
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
                                                  one run; last stdout line is the result
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: Cold set-ups per run (this process plus fresh children); setup_s is their median.
SETUP_SAMPLES = 3
QUICK_SCALE = 0.05


def host_meta(seed: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, timeout=10,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    load1 = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    return {
        "commit": commit,
        "seed": seed,
        "nproc": nproc,
        "load1": load1,
        "loaded_at_start": load1 > nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- one workload, in this process ----------------------------------------------------


def set_up(name: str, seed: int, scale: float):
    """Imports, input generation, path start and warm-up: everything
    before the first timed op."""
    from ledger import WORKLOADS

    workload = WORKLOADS[name](seed, scale)
    workload.warm_up()
    return workload


def cold_setup_seconds(name: str, seed: int) -> float:
    """One more cold set-up, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def end_to_end(name: str, seed: int, seconds: float, scale: float,
               started: float, setup_samples: int):
    """The ``--trace 0`` run: ``(values, attempted, failed, detail)``."""
    from harness import MB, cycle_estimates, measure, ops_and_failures

    workload = set_up(name, seed, scale)
    setups = [time.perf_counter() - started]
    segments = measure(workload, seconds)
    late_failures = workload.verify_after()
    workload.close()
    setups += [cold_setup_seconds(name, seed) for _ in range(setup_samples - 1)]

    attempted, failed = ops_and_failures(segments)
    latencies = [l for s in segments for l in s.latencies_s]
    app_bytes = sum(s.app_bytes for s in segments)
    if not latencies:
        raise SystemExit(f"{name}: no op was delivered")
    values = cycle_estimates(segments)
    values.update({
        "wire_ratio": sum(s.wire_bytes for s in segments) / app_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
        "setup_s": statistics.median(setups),
    })
    detail = {
        "segments": len(segments),
        "latency_samples": len(latencies),
        "setup_samples_s": setups,
        # What the three time metrics read before the host-speed
        # correction, and the plain whole-run figures.
        "host_slowdown": statistics.median(s.slowdown for s in segments),
        "uncorrected": cycle_estimates(segments, corrected=False),
        "overall_goodput_mb_s": app_bytes / MB / sum(s.wall_s for s in segments),
        "overall_latency_p50_ms": statistics.median(latencies) * 1e3,
    }
    return values, attempted, failed + late_failures, detail


def run_workload(name: str, seed: int, seconds: float, trace: int, scale: float = 1.0,
                 started: float = _PROCESS_STARTED,
                 setup_samples: int = SETUP_SAMPLES) -> dict:
    """One run of one workload; the dict the contract's last line is cut from."""
    if trace:
        from ledger import WORKLOADS, traced_run

        trace_path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.jsonl")
        values, attempted, failed = traced_run(
            WORKLOADS[name], seed, seconds, scale, trace_path
        )
        detail = {"trace_file": os.path.relpath(trace_path, ROOT)}
    else:
        values, attempted, failed, detail = end_to_end(
            name, seed, seconds, scale, started, setup_samples
        )
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
        "detail": detail,
    }


def result_path(name: str, seed: int, trace: int) -> str:
    return os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}.json")


def print_result(result: dict) -> None:
    print(f"== {result['workload']}  seed={result['seed']}  trace={result['trace']}")
    print(f"   ops={result['attempted']}  failed={result['failed']}  "
          f"failed_share={result['failed_share']:.6f}  {result['detail']}")
    for name, metric in result["metrics"].items():
        print(f"   {name:<40s} {metric['value']:>14.6g} {metric['unit']}")


def contract_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


# -- every workload, one fresh process each ---------------------------------------------


def run_all(seed: int, seconds: float, trace: int, runs: int, out_path: str) -> int:
    meta = host_meta(seed)
    print(f"meta: {json.dumps(meta)}")
    if meta["loaded_at_start"]:
        print("WARNING: 1-min load average is above nproc; timings will be noisy")
    results = []
    for run in range(runs):
        for name in WORKLOAD_NAMES:
            load1 = os.getloadavg()[0]
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed + run), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            print("\n".join(done.stdout.strip().splitlines()[:-1]))
            with open(result_path(name, seed + run, trace)) as handle:
                results.append(dict(json.load(handle), load1=load1))
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump({"meta": meta, "runs": results}, handle, indent=1)
    print(f"wrote {os.path.relpath(out_path)}")
    return 0 if all(r["correct"] for r in results) else 1


# -- self-check ---------------------------------------------------------------------------


def quick(seed: int) -> int:
    """Every workload, both modes, at 1/20 of the ops; checks the contract."""
    problems = []
    for name in WORKLOAD_NAMES:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(name, seed, 0.0, trace, scale=QUICK_SCALE,
                                  started=time.perf_counter(), setup_samples=1)
            print_result(result)
            expected = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{name} trace={trace}: metric set differs: "
                                f"{sorted(set(got) ^ set(expected))}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{name} trace={trace}: {result['failed']} failed ops")
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        if metric["better"] not in ("lower", "higher"):
            problems.append(f"{metric['name']}: direction {metric['better']!r}")
    for problem in problems:
        print(f"FAIL: {problem}")
    print("quick self-check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload (seed, seed+1, ...)")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "runs.json"))
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare

        return compare(args.compare[0], args.compare[1], SPEC)
    if args.quick:
        return quick(args.seed)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace, args.runs, args.out)
    if args.setup_only:
        set_up(args.workload, args.seed, 1.0).close()
        print(time.perf_counter() - _PROCESS_STARTED)
        return 0

    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    result["meta"] = host_meta(args.seed)
    print(f"meta: {json.dumps(result['meta'])}")
    print_result(result)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(result_path(args.workload, args.seed, args.trace), "w") as handle:
        json.dump(result, handle, indent=1)
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
