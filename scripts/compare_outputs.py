"""Compare the CLI outputs of a parent commit with those of this checkout.

    python3 scripts/compare_outputs.py --parent <rev>

Each command of ``COMMANDS`` runs once in a copy of ``<rev>`` (made with
``git archive``) and once in this checkout, as it is on disk, one process at
a time, with ``OPENBLAS_NUM_THREADS=1`` and racd imported from that tree's
``src/``.  Every run works in a fresh directory and writes to the relative
``--out out``, so the output path recorded in ``run.json`` is the same on
both sides; ``racd validate`` is compared by its stdout.  For each output
file it prints ``identical``, or the number of differing lines and the
largest absolute difference between the numbers on them.  The exit status
is 1 if any file differs or exists on one side only.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import List, Sequence, Tuple

REPO = Path(__file__).resolve().parents[1]

COMMANDS = (
    ("run", "--model", "chain", "--n", "8", "--protocols", "ua,local-cd,ra"),
    ("run", "--model", "lhz", "--n-logical", "4", "--protocols", "ua,local-cd,ra"),
    ("run", "--model", "two-spin", "--protocols", "ua,exact-cd"),
    ("run", "--model", "two-spin", "--protocols", "ua,local-cd,ra"),
    ("run", "--model", "chain", "--n", "4", "--protocols", "ua,local-cd,ra,exact-cd"),
    ("scaling", "--model", "qubo", "--instances", "2", "--steps", "4000"),
    ("scaling", "--model", "lhz", "--instances", "2"),
    ("validate",),
)

NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _run(tree: Path, work: Path, args: Sequence[str]) -> None:
    """``racd <args>`` from ``tree``'s source, in the new directory ``work``."""
    work.mkdir(parents=True)
    cmd = [sys.executable, "-m", "racd.cli", *args]
    if args[0] != "validate":
        cmd += ["--out", "out"]
    path = os.pathsep.join(p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} from {tree} exited with {proc.returncode}:\n{proc.stderr}")
    if args[0] == "validate":
        (work / "stdout.txt").write_text(proc.stdout)


def _lines_differ(old: List[str], new: List[str]) -> str:
    """Count of differing lines, and the largest absolute difference of the
    numbers on them where both lines hold the same count of numbers."""
    count = abs(len(old) - len(new))
    largest = 0.0
    for a, b in zip(old, new):
        if a == b:
            continue
        count += 1
        na, nb = NUMBER.findall(a), NUMBER.findall(b)
        if len(na) != len(nb):
            largest = float("nan")
        else:
            largest = max([largest] + [abs(float(x) - float(y)) for x, y in zip(na, nb)])
    return f"{count} lines differ, largest numeric difference {largest:.3g}"


def compare_dirs(parent: Path, change: Path) -> List[Tuple[str, str]]:
    """``(relative path, verdict)`` for every file under either directory,
    sorted by path."""
    names = sorted({p.relative_to(root).as_posix() for root in (parent, change)
                    for p in root.rglob("*") if p.is_file()})
    verdicts = []
    for name in names:
        a, b = parent / name, change / name
        if not a.is_file() or not b.is_file():
            verdicts.append((name, "only in " + ("parent" if a.is_file() else "change")))
        elif a.read_bytes() == b.read_bytes():
            verdicts.append((name, "identical"))
        else:
            verdicts.append((name, _lines_differ(a.read_text().splitlines(), b.read_text().splitlines())))
    return verdicts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    args = ap.parse_args()
    archive = subprocess.run(["git", "archive", args.parent], cwd=REPO, check=True, capture_output=True).stdout
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        parent_tree = Path(tmp) / "tree"
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent_tree, filter="data")
        for i, command in enumerate(COMMANDS):
            work = {side: Path(tmp) / side / str(i) for side in ("parent", "change")}
            _run(parent_tree, work["parent"], command)
            _run(REPO, work["change"], command)
            print("racd " + " ".join(command), flush=True)
            for name, verdict in compare_dirs(work["parent"], work["change"]):
                print(f"  {name}: {verdict}", flush=True)
                same = same and verdict == "identical"
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
