"""Record a ``BENCH_<slug>.json``: the benchmark's result lines for a parent
commit and for this checkout, side by side.

    python3 scripts/bench_record.py --parent <rev> --out BENCH_<slug>.json

For every workload in ``BENCHMARK.json`` and for ``--trace 0`` and
``--trace 1``, it runs

    python3 perfbench/run.py --workload <w> --seed <seed> --seconds <s> --trace <t>

once in a copy of ``<rev>`` (made with ``git archive``) and once in this
checkout, as it is on disk, one process at a time and alternating which side
runs first, and keeps the last line of each run's output (its JSON result).
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True).stdout


def _result(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()
    parent = _git("rev-parse", args.parent).decode().strip()
    change = _git("describe", "--always", "--dirty", "--abbrev=40").decode().strip()
    workloads = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(_git("archive", parent))) as tar:
            tar.extractall(tmp, filter="data")
        trees = {"parent": Path(tmp), "change": REPO}
        for i, (workload, trace) in enumerate((w, t) for w in workloads for t in (0, 1)):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                result = _result(trees[side], workload, args.seed, args.seconds, trace)
                runs.append({"workload": workload, "trace": trace, "side": side, "result": result})
                print(f"{workload} trace={trace} {side}: correct={result['correct']}", file=sys.stderr)
    doc = {
        "command": f"python3 perfbench/run.py --workload <w> --seed {args.seed} --seconds {args.seconds} "
                   "--trace <0|1>",
        "parent": parent,
        "change": change,
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
