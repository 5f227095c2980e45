"""racd benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload qubo-scaling --seed 0 --seconds 20 --trace 0

Run from the repository root; racd is imported from ``src/``.  Each workload
runs in fresh Python processes started one at a time by this single-threaded
process:

* ``--trace 0`` starts set-up-only processes (set-up time is the median over
  them and the measuring process), then one process that repeats the
  workload's unit until ``--seconds`` have passed (at least once) and checks
  every unit's outputs against ``refs/<scale>/``;
* ``--trace 1`` starts one process that runs the unit once untraced and once
  with spans around every layer, and prints the per-layer metrics and the
  tracing overhead.

The metric names, units and bounds are in ``BENCHMARK.json``; what each
workload loads and what each layer metric should move is in ``README.md``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
OUT_DIR = BENCH_DIR / "_out"
WORKLOADS = ("qubo-scaling", "chain-run", "qubo-synth")
#: one BLAS thread: the workloads' matrices are small, and a single thread
#: keeps timings steady on a shared machine (never more than nproc)
BLAS_THREADS = 1
#: processes whose set-up time is measured per run (the last one also runs)
SETUP_SAMPLES = {"full": 5, "toy": 1}
#: every run ends within this many seconds
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = {k: str(BLAS_THREADS) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def cpu_quota() -> str:
    """The cgroup CPU quota, read-only from /sys (v2, then v1)."""
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
    except OSError:
        try:
            quota = Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text().strip()
            period = Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text().strip()
        except OSError:
            return "unknown"
    if quota in ("max", "-1"):
        return "unlimited"
    return f"{int(quota) / int(period):.2f} CPUs"


def spawn(args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"), "--workload", args.workload, "--scale", args.scale,
        "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
        "--refs", str(args.refs), "--out", str(args.out),
    ]
    t_spawn = time.monotonic()
    # the child's own output goes to stderr: stdout ends with the result line
    proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], env={**os.environ, **child_env()},
                          cwd=REPO, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark process ({mode}) exited with {proc.returncode}")
    with open(args.out / f"{mode}.json") as fh:
        return json.load(fh)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--scale", choices=sorted(SETUP_SAMPLES), default="full",
                    help="toy sizes are for the harness smoke test")
    ap.add_argument("--refs", type=Path, help="reference directory (default refs/<scale>)")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    args.refs = args.refs or BENCH_DIR / "refs" / args.scale
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "racd" / "__init__.py").is_file():
        print(f"error: racd sources not found under {SRC}", file=sys.stderr)
        return 2
    if not (args.refs / f"{args.workload}.json").is_file():
        print(f"error: no reference outputs in {args.refs}", file=sys.stderr)
        return 2
    args.out = OUT_DIR / f"{args.workload}-{args.scale}-seed{args.seed}"
    shutil.rmtree(args.out, ignore_errors=True)

    try:
        if args.trace:
            report = spawn(args, "trace", deadline)
        else:
            setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES[args.scale] - 1)]
            report = spawn(args, "run", deadline)
            setups.append(report["setup_s"])
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = report["units"]
    failed = sum(u["failed"] for u in units)
    for u in units:
        for problem in u["problems"]:
            print(f"FAIL {args.workload} seed={args.seed}: {problem}", file=sys.stderr)
    passed = [u for u in units if not u["failed"]]
    env = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
           "cpu_quota": cpu_quota(), "machine": platform.machine(), **report["env"]}
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed={args.seed} instance_set={report['key']} scale={args.scale} "
          f"units={len(units)} failed={failed}")

    if args.trace:
        metrics = report["layers"]
        for name, m in metrics.items():
            print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
        for row in report["optimizer_breakdown"]:
            print("  optimizer " + json.dumps(row, sort_keys=True))
    else:
        run_times = [u["run_s"] for u in units]
        ratios = [u["action_ratio"] for u in units if "action_ratio" in u]
        pass_frac = len(passed) / len(units)
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "run_s": metric(statistics.median(run_times), "s"),
            "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
            "pass_frac": metric(pass_frac, "frac"),
            # 0 only when no unit got as far as its outputs (then correct is false)
            "action_ratio": metric(statistics.median(ratios) if ratios else 0.0, "frac"),
        }
        samples = {"setup_s": len(setups), "run_s": len(run_times), "peak_rss_mb": 1,
                   "pass_frac": len(units), "action_ratio": len(ratios)}
        for name, m in metrics.items():
            print(f"  {name:12s} {m['value']:.6g} {m['unit']}  (n={samples[name]})")
        print(f"  {'fail_frac':12s} {1.0 - pass_frac:.6g} frac  (n={len(units)})")
        sums = [u["action_sum"] for u in units if "action_sum" in u]
        if sums:
            print(f"  {'action_sum':12s} {statistics.median(sums):.6g} a.u.  (n={len(sums)})")
        fidelities = [u["ra_fidelity"] for u in passed if u.get("ra_fidelity") is not None]
        print(f"  {'ra_fidelity':12s} " + (f"{statistics.median(fidelities):.6g}  (n={len(fidelities)})"
                                           if fidelities else "n/a (no evolution in this workload)"))
    print(json.dumps({"correct": failed == 0, "attempted": len(units), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
