"""One benchmark process: set up one workload's inputs, then (unless
``--mode setup``) run its unit, check the outputs and write a result file.

Started by ``run.py``, one process at a time; not meant to be run by hand.
Set-up time runs from the parent's spawn timestamp (``--t-spawn``, on the
system-wide monotonic clock) to inputs ready, so it covers interpreter start
and the imports of numpy, scipy and racd.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import racd  # noqa: F401  (its import is part of set-up)
import check
from tracing import LAYER_UNITS, Tracer
from workloads import WORKLOADS, action_ratio, action_sum


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _unit(workload, inputs, ref, out_dir: Path, tracer: Tracer | None = None) -> dict:
    """Run one unit; an exception or a mismatch marks it failed."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    rec = {"failed": True, "problems": []}
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        result = workload.run(inputs, out_dir)
    except Exception:
        rec["problems"].append(traceback.format_exc())
        result = None
    finally:
        rec["run_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if rec["problems"]:
        return rec
    try:
        outputs = workload.outputs(inputs, out_dir, result)
        rec["problems"] = check.compare(outputs, ref)
        rec["action_sum"] = action_sum(outputs)
        rec["action_ratio"] = action_ratio(outputs)
        rec["ra_fidelity"] = workload.ra_fidelity(outputs)
    except Exception:
        rec["problems"].append(traceback.format_exc())
    rec["bytes_written"] = _bytes_under(out_dir)
    rec["failed"] = bool(rec["problems"])
    return rec


def _env() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--scale", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "run", "trace"])
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--refs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.scale)
    key = workload.key(args.seed)
    tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}") if args.mode == "trace" else None
    if tracer is not None:
        tracer.install()
    inputs = workload.setup(key)
    setup_s = time.monotonic() - args.t_spawn
    if tracer is not None:
        tracer.uninstall()
    report = {"setup_s": setup_s, "key": key}
    args.out.mkdir(parents=True, exist_ok=True)
    if args.mode != "setup":
        ref = check.load_refs(args.refs, args.workload).get(str(key))
        unit_dir = args.out / "unit"
        units = []
        start = time.perf_counter()
        if tracer is None:
            # repeat the unit until the run length is used up (at least once)
            while True:
                units.append(_unit(workload, inputs, ref, unit_dir))
                if time.perf_counter() - start >= args.seconds:
                    break
        else:
            # one untraced unit, then the same unit traced: the difference is
            # the tracing overhead
            units.append(_unit(workload, inputs, ref, unit_dir))
            traced = _unit(workload, inputs, ref, unit_dir, tracer)
            units.append(traced)
            layers = tracer.layer_metrics()
            layers["cli.bytes_written"] = traced.get("bytes_written", 0)
            layers["trace.overhead_frac"] = traced["run_s"] / units[0]["run_s"] - 1.0
            report["layers"] = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
            report["optimizer_breakdown"] = tracer.optimizer_breakdown()
            tracer.dump(args.out / "spans.json")
        report["units"] = units
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["env"] = _env()
    with open(args.out / f"{args.mode}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
