"""Record the reference outputs the correctness gate checks runs against.

    python3 perfbench/record_refs.py [--scale full|toy] [--workload NAME]

Run it at the commit whose outputs are the reference; it writes
``refs/<scale>/<workload>.json`` with one entry per recorded instance set.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import BENCH_DIR, OUT_DIR, SRC, child_env

os.environ.update(child_env())
sys.path.insert(0, str(SRC))

from workloads import WORKLOADS  # noqa: E402  (needs the BLAS settings and src/ first)


def record(name: str, scale: str) -> None:
    workload = WORKLOADS[name](scale)
    out_dir = OUT_DIR / "record" / f"{name}-{scale}"
    instances = {}
    for key in range(workload.pool):
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        inputs = workload.setup(key)
        result = workload.run(inputs, out_dir)
        instances[str(key)] = workload.outputs(inputs, out_dir, result)
        print(f"{name} {scale} key={key} recorded", flush=True)
    path = BENCH_DIR / "refs" / scale / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": name, "scale": scale, "instances": instances}, fh, separators=(",", ":"))
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--scale", choices=["full", "toy"], action="append")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = ap.parse_args()
    for scale in args.scale or ["toy", "full"]:
        for name in args.workload or sorted(WORKLOADS):
            record(name, scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
