"""Smoke test of the benchmark harness at toy sizes.

Runs every workload untraced and traced, checks that every metric named in
BENCHMARK.json comes out with its unit, that a corrupted reference is
reported as a failure, that traced counts repeat exactly, and that the
benchmark refuses to run without the racd sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("closed_form.action_calls", "dynamics.ground_calls", "optimizer.grid_points", "dynamics.evolve_steps")


def bench(*args, cwd=REPO, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--seed", "0", "--seconds", "1", "--scale", "toy", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = result_of(bench("--workload", workload, "--trace", str(trace)))
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert result["metrics"]["pass_frac"]["value"] == 1.0


def test_corrupted_reference_raises_fail_frac(tmp_path):
    refs = tmp_path / "refs"
    shutil.copytree(BENCH / "refs" / "toy", refs)
    path = refs / "chain-run.json"
    doc = json.loads(path.read_text())
    doc["instances"]["0"]["fidelity"]["ra"] += 1e-3
    path.write_text(json.dumps(doc))
    proc = bench("--workload", "chain-run", "--trace", "0", "--refs", str(refs))
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["pass_frac"]["value"] == 0.0
    assert "fidelity ra" in proc.stderr


def test_traced_counts_repeat_exactly():
    first, second = (result_of(bench("--workload", "chain-run", "--trace", "1"))["metrics"] for _ in range(2))
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = bench("--workload", "chain-run", "--trace", "0", cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
