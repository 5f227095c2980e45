"""Compare the CLI outputs of a parent commit with those of this checkout.

    python3 scripts/compare_outputs.py --parent <rev>

Each command of ``COMMANDS`` runs once in a copy of ``<rev>`` (made with
``git archive``) and once in this checkout, as it is on disk, one process at
a time, with ``OPENBLAS_NUM_THREADS=1`` and racd imported from that tree's
``src/``.  Every run works in a fresh directory and writes to the relative
``--out out``, so the output path recorded in ``run.json`` is the same on
both sides; ``racd validate`` is compared by its stdout, and every command
by its exit status and stderr (``status.txt``), so that a command that
fails is compared by its error line.  For each command it prints the peak
RSS of its process in both trees (the child's own ``ru_maxrss``, from
``os.wait4``; written to no compared file) and its wall time, then, for
each output file, ``identical``, or the number of differing lines and the
largest absolute difference between the numbers on them.  It then prints the line counts of
the Python files under ``src/racd`` and ``tests`` in both trees.  The exit
status is 1 if any file differs or exists on one side only.
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
import time
from pathlib import Path
from typing import List, Sequence, Tuple

REPO = Path(__file__).resolve().parents[1]

COMMANDS = (
    ("run", "--model", "chain", "--n", "8", "--protocols", "ua,local-cd,ra"),
    # tau != 1: the ramp's scaling, the knot grid m tau / M and the RA span check's slack
    ("run", "--model", "chain", "--n", "6", "--tau", "0.5", "--protocols", "ua,local-cd,ra"),
    ("run", "--model", "lhz", "--n-logical", "4", "--protocols", "ua,local-cd,ra"),
    # 10 qubits: its params_ra.csv moves under a one-ulp change of the LHZ closed form (~15 s)
    ("run", "--model", "lhz", "--n-logical", "5", "--protocols", "ua,local-cd,ra"),
    ("run", "--model", "two-spin", "--protocols", "ua,exact-cd"),
    ("run", "--model", "two-spin", "--protocols", "ua,local-cd,ra"),
    ("run", "--model", "chain", "--n", "4", "--protocols", "ua,local-cd,ra,exact-cd"),
    # exact-CD in the full space, on a diagonal made of several terms
    ("run", "--model", "lhz", "--n-logical", "3", "--protocols", "ua,local-cd,ra,exact-cd"),
    ("run", "--model", "qubo", "--n", "6", "--protocols", "ua,local-cd,ra"),
    # RA synthesized on the dense trace oracle
    ("run", "--model", "two-spin", "--backend", "oracle", "--protocols", "ua,ra"),
    ("scaling", "--model", "qubo", "--instances", "2", "--steps", "4000"),
    ("scaling", "--model", "lhz", "--instances", "2"),
    # exits with code 2 on the RA drift of the N=5, seed-1 instance at the default 2000 steps
    ("scaling", "--model", "qubo", "--instances", "2"),
    ("validate",),
    # the one command above the 12-qubit dense cap: eigsh ground solves and a 2^13-state output stage (~30 s)
    ("run", "--model", "qubo", "--n", "13", "--protocols", "ua,local-cd,ra", "--steps", "2600"),
    # refused before any work: compared by the error line in status.txt
    ("run", "--model", "qubo", "--n", "16"),
    ("run", "--model", "qubo", "--n", "13", "--protocols", "ua,exact-cd"),
    ("scaling", "--model", "qubo", "--instances", "0"),
    # the state overflows: one error line on stderr, and no numpy warning
    ("run", "--model", "two-spin", "--tau", "1e6", "--protocols", "ua"),
)

#: the directories whose Python line counts are printed for both trees
COUNTED = ("src/racd", "tests")

NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def child_run(cmd: Sequence[str], **popen) -> Tuple[int, str, str, float]:
    """Run ``cmd`` (with ``subprocess.Popen`` keywords ``popen``) to its end:
    its exit status, stdout, stderr and peak RSS in MiB, the child's own
    ``ru_maxrss`` as ``os.wait4`` reports it when it reaps the child.  Linux
    starts that peak at the spawning process's RSS, which here is small."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, **popen)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss / 1024


def _run(tree: Path, work: Path, args: Sequence[str]) -> Tuple[float, float]:
    """``racd <args>`` from ``tree``'s source, in the new directory ``work``,
    which gets the command's exit status and stderr in ``status.txt``; the
    command's peak RSS in MiB and its wall time in seconds."""
    work.mkdir(parents=True)
    cmd = [sys.executable, "-m", "racd.cli", *args]
    if args[0] != "validate":
        cmd += ["--out", "out"]
    path = os.pathsep.join(p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    start = time.perf_counter()
    status, stdout, stderr, peak = child_run(cmd, cwd=work, env=env)
    wall = time.perf_counter() - start
    (work / "status.txt").write_text(f"exit status {status}\n{stderr}")
    if args[0] == "validate":
        (work / "stdout.txt").write_text(stdout)
    return peak, wall


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


def line_counts(tree: Path) -> List[int]:
    """Lines (as ``wc -l`` counts them) of the Python files under each
    directory of ``COUNTED`` in ``tree``."""
    return [sum(p.read_bytes().count(b"\n") for p in (tree / d).rglob("*.py")) for d in COUNTED]


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
            runs = [_run(tree, work[side], command) for tree, side in ((parent_tree, "parent"), (REPO, "change"))]
            print("racd " + " ".join(command), flush=True)
            print("  peak RSS: parent {:.1f} MiB, change {:.1f} MiB".format(*(peak for peak, _ in runs)), flush=True)
            print("  wall time: parent {:.1f} s, change {:.1f} s".format(*(wall for _, wall in runs)), flush=True)
            for name, verdict in compare_dirs(work["parent"], work["change"]):
                print(f"  {name}: {verdict}", flush=True)
                same = same and verdict == "identical"
        for d, old, new in zip(COUNTED, line_counts(parent_tree), line_counts(REPO)):
            print(f"lines of {d}: parent {old}, change {new}", flush=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
