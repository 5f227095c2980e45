"""Record a ``BENCH_<slug>.json``: the benchmark's result lines for a parent
commit and for this checkout, side by side.

    python3 scripts/bench_record.py --parent <rev> --out BENCH_<slug>.json

For every workload in ``BENCHMARK.json`` it runs

    python3 perfbench/run.py --workload <w> --seed <seed> --seconds <s> --trace <t>

in a copy of ``<rev>`` (made with ``git archive``) and in this checkout, as
it is on disk, one process at a time: ``PAIRS`` untraced (``--trace 0``)
pairs, then one traced (``--trace 1``) pair, alternating which side runs
first from one pair to the next.  It keeps the last line of each run's
output (its JSON result), and for each workload and end-to-end metric the
median and quartiles of each side's untraced runs, and the number of pairs
in which the change's value is the better one.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
#: untraced parent/change pairs per workload: enough to back a gain or a
#: no-regression claim (at least nine of ten pairs won)
PAIRS = 10


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True).stdout


def _result(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def _summary(runs: list, workloads: list, metrics: list) -> dict:
    """Per workload and end-to-end metric: each side's median and quartiles
    over its untraced runs, and the pairs in which the change is better."""
    out = {}
    for workload in workloads:
        untraced = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        out[workload] = {}
        for metric in metrics:
            name = metric["name"]
            side = {s: [r["result"]["metrics"][name]["value"] for r in untraced if r["side"] == s]
                    for s in ("parent", "change")}
            sign = 1.0 if metric["better"] == "lower" else -1.0
            better = sum(sign * (c - p) < 0 for p, c in zip(side["parent"], side["change"]))
            out[workload][name] = {**{s: _quartiles(v) for s, v in side.items()},
                                   "change_better_pairs": better, "pairs": len(side["change"])}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()
    parent = _git("rev-parse", args.parent).decode().strip()
    change = _git("describe", "--always", "--dirty", "--abbrev=40").decode().strip()
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(_git("archive", parent))) as tar:
            tar.extractall(tmp, filter="data")
        trees = {"parent": Path(tmp), "change": REPO}
        i = 0
        for workload in workloads:
            for trace in [0] * PAIRS + [1]:
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    result = _result(trees[side], workload, args.seed, args.seconds, trace)
                    runs.append({"workload": workload, "trace": trace, "side": side, "result": result})
                    print(f"{workload} trace={trace} {side}: correct={result['correct']}", file=sys.stderr)
                i += 1
    doc = {
        "command": f"python3 perfbench/run.py --workload <w> --seed {args.seed} --seconds {args.seconds} "
                   "--trace <0|1>",
        "parent": parent,
        "change": change,
        "pairs": PAIRS,
        "summary": _summary(runs, workloads, bench["end_to_end"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
