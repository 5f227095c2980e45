import ast
import importlib.util
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _write(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_compare_dirs_verdicts(tmp_path):
    parent = _write(tmp_path / "parent", {
        "out/same.csv": "t,F\n0.0,1.0\n",
        "out/run.json": '{\n  "F": 0.25,\n  "G": 1.5e-3,\n  "n": 8\n}\n',
        "out/fields.csv": "a,b\n1,2\n",
        "out/gone.csv": "x\n",
        "stdout.txt": "ok 1\n",
    })
    change = _write(tmp_path / "change", {
        "out/same.csv": "t,F\n0.0,1.0\n",
        "out/run.json": '{\n  "F": 0.2500000000000004,\n  "G": 1.4e-3,\n  "n": 8\n}\n',
        "out/fields.csv": "a,b\n1,2\n3,4\n",
        "out/new.csv": "y\n",
        "stdout.txt": "ok 1 2\n",
    })
    verdicts = dict(compare_outputs.compare_dirs(parent, change))
    assert list(verdicts) == sorted(verdicts)
    assert verdicts["out/same.csv"] == "identical"
    assert verdicts["out/gone.csv"] == "only in parent"
    assert verdicts["out/new.csv"] == "only in change"
    # the largest of |0.25 - 0.2500000000000004| and |1.5e-3 - 1.4e-3|
    count, largest = verdicts["out/run.json"].split(" lines differ, largest numeric difference ")
    assert count == "2" and float(largest) == pytest.approx(1e-4)
    assert verdicts["out/fields.csv"].startswith("1 lines differ")
    # numbers that cannot be paired leave the difference undefined
    assert verdicts["stdout.txt"] == "1 lines differ, largest numeric difference nan"


def test_failing_command_is_recorded_not_raised(tmp_path):
    work = tmp_path / "work"
    compare_outputs._run(compare_outputs.REPO, work, ("run", "--protocols", "warp-drive"))
    status = (work / "status.txt").read_text().splitlines()
    assert status[0] == "exit status 2"
    assert status[1].startswith("error: unknown protocols")


def test_line_counts_as_wc_counts_them(tmp_path):
    _write(tmp_path, {"src/racd/a.py": "x = 1\ny = 2\n", "src/racd/sub/b.py": "z = 3\n", "src/racd/c.txt": "no\n",
                      "tests/test_a.py": "def test():\n    pass\n\n"})
    assert compare_outputs.COUNTED == ("src/racd", "tests")
    assert compare_outputs.line_counts(tmp_path) == [3, 3]


def test_child_run_reads_the_childs_own_peak_rss():
    # a child that fills 64 MiB peaks that much above an idle one.  A child's ru_maxrss starts at its
    # spawner's RSS (Linux carries it across exec), so both are spawned from a small interpreter that
    # imports only the script, as its own main() spawns each racd command
    idle, held = "print('idle')", "import sys; b = b'x' * (64 << 20); sys.exit('held')"
    spawn = ("import sys; sys.path.insert(0, sys.argv[1]); from compare_outputs import child_run; "
             "print([child_run([sys.executable, '-c', code]) for code in sys.argv[2:]])")
    status, out, err, _ = compare_outputs.child_run([sys.executable, "-c", spawn, str(_SCRIPT.parent), idle, held])
    assert (status, err) == (0, "")
    idle, held = ast.literal_eval(out)
    assert idle[:3] == (0, "idle\n", "")
    assert held[:3] == (1, "", "held\n")
    assert 0 < idle[3] < 40
    assert 60 < held[3] - idle[3] < 72
