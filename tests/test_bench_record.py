import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _run(workload, trace, side, run_s, pass_frac):
    metrics = {"run_s": {"value": run_s, "unit": "s"}, "pass_frac": {"value": pass_frac, "unit": "frac"}}
    return {"workload": workload, "trace": trace, "side": side, "result": {"metrics": metrics}}


def test_summary_quartiles_and_better_pairs():
    runs = []
    for parent, change in ((10.0, 7.0), (12.0, 8.0), (9.0, 9.5), (11.0, 6.0)):
        runs += [_run("w", 0, "parent", parent, 1.0), _run("w", 0, "change", change, 1.0)]
    # a traced pair is neither summarized nor counted
    runs += [_run("w", 1, "parent", 99.0, 1.0), _run("w", 1, "change", 1.0, 1.0)]
    metrics = [{"name": "run_s", "better": "lower"}, {"name": "pass_frac", "better": "higher"}]
    summary = bench_record._summary(runs, ["w"], metrics)["w"]
    assert summary["run_s"]["parent"] == {"q1": 9.75, "median": 10.5, "q3": 11.25}
    assert summary["run_s"]["change"]["median"] == 7.5
    assert (summary["run_s"]["change_better_pairs"], summary["run_s"]["pairs"]) == (3, 4)
    # equal values are no gain
    assert summary["pass_frac"]["change_better_pairs"] == 0


def test_quartiles_of_one_run():
    assert bench_record._quartiles([3.0]) == {"q1": 3.0, "median": 3.0, "q3": 3.0}
