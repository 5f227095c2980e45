import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racd import cli


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_run_two_spin_outputs(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(
        ["run", "--model", "two-spin", "--tau", "1.0", "--protocols", "ua,ra",
         "--m-points", "100", "--steps", "2000", "--seed", "3", "--out", out]
    )
    assert rc == 0
    for name in ("fields_ua.csv", "fields_ra.csv", "fidelity_ua.csv", "fidelity_ra.csv",
                 "params_ra.csv", "run.json"):
        assert (out / name).exists(), name

    fid = (out / "fidelity_ra.csv").read_text().splitlines()
    assert fid[0] == "t,lambda,F,F_tilde"
    last = [float(v) for v in fid[-1].split(",")]
    assert last[2] >= 0.999  # F_RA(tau)

    fid_ua = (out / "fidelity_ua.csv").read_text().splitlines()
    f_ua = float(fid_ua[-1].split(",")[2])
    assert f_ua == pytest.approx(0.66, abs=0.02)

    fields = (out / "fields_ua.csv").read_text().splitlines()
    assert fields[0] == "t,h,J"
    params = (out / "params_ra.csv").read_text().splitlines()
    assert params[0] == "t,beta,gamma"

    meta = json.loads((out / "run.json").read_text())
    assert meta["config"]["seed"] == 3
    assert meta["prng"] == "numpy-PCG64"
    assert meta["model"]["kind"] == "two-spin"


def test_run_rerun_byte_identical(tmp_path):
    args = ["run", "--model", "lhz", "--n-logical", "4", "--seed", "7",
            "--protocols", "ua", "--steps", "500", "--tau", "0.5"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", out1]) == 0
    assert run_cli(args + ["--out", out2]) == 0
    for name in ("fields_ua.csv", "fidelity_ua.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # run.json differs only in the out path
    a = json.loads((out1 / "run.json").read_text())
    b = json.loads((out2 / "run.json").read_text())
    a["config"].pop("out")
    b["config"].pop("out")
    assert a == b


def test_run_json_records_the_tolerances_used(tmp_path):
    from racd import dynamics, optimizer

    out = tmp_path / "out"
    assert run_cli(["run", "--model", "two-spin", "--protocols", "ua", "--steps", "200", "--out", out]) == 0
    meta = json.loads((out / "run.json").read_text())
    assert meta["tolerances"] == {"bfgs_gtol": optimizer.BFGS_GTOL, "norm_drift": dynamics.NORM_DRIFT_TOL}


def test_run_local_cd_field_columns(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(["run", "--model", "chain", "--n", "4", "--protocols", "ua,local-cd",
                  "--steps", "500", "--out", out])
    assert rc == 0
    header = (out / "fields_local-cd.csv").read_text().splitlines()[0]
    assert header == "t,J,h,b,y1,y2,y3,y4"


def test_scaling_single_instance_rows(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(["scaling", "--model", "qubo", "--seed", "5", "--instances", "1",
                  "--steps", "500", "--m-points", "20", "--out", out])
    # sizes default for qubo: one data row per (size, protocol)
    assert rc == 0
    lines = (out / "scaling.csv").read_text().splitlines()
    assert lines[0] == "size,protocol,mean_F,p25_F,p75_F,mean_rel_improvement"
    sizes = cli.DEFAULT_SCALING_SIZES["qubo"]
    assert len(lines) == 1 + len(sizes) * len(cli.SCALING_PROTOCOLS)


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"model": "two-spin", "tau": 1.0, "steps": 500, "seed": 9}))
    out = tmp_path / "out"
    rc = run_cli(["run", "--config", cfg_path, "--tau", "0.5", "--protocols", "ua", "--out", out])
    assert rc == 0
    meta = json.loads((out / "run.json").read_text())
    assert meta["config"]["tau"] == 0.5  # flag wins
    assert meta["config"]["seed"] == 9  # file value kept


def test_invalid_config_exits_nonzero(tmp_path, capsys):
    rc = run_cli(["run", "--model", "two-spin", "--protocols", "warp-drive", "--out", tmp_path / "x"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("content, named", [({"nn": 3}, "'nn'"), ({"model": "qubo", "n": "3"}, "'n'"),
                                            ({"full": 1}, "'full'"), ({"protocols": "ua,ra"}, "'protocols'"),
                                            ({"backend": "bogus"}, "--backend bogus: unknown action backend 'bogus'"),
                                            ({"protocols": []}, "--protocols '': name one or more protocols, each once"),
                                            ({"protocols": ["ua", "ua"]},
                                             "--protocols 'ua,ua': name one or more protocols, each once")])
def test_invalid_config_file_is_one_error_line(tmp_path, capsys, content, named):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(content))
    rc = run_cli(["run", "--config", cfg_path, "--out", tmp_path / "out"])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0], lines
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content, error", [({"full": 1}, "config key 'full': expected bool, got 1"),
                                            ({"instances": 2.0}, "config key 'instances': expected int, got 2.0")])
def test_config_value_is_type_checked_by_the_command_that_reads_it(tmp_path, capsys, content, error):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"model": "qubo", **content}))
    assert run_cli(["scaling", "--config", cfg_path, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {error}"]
    assert not (tmp_path / "out").exists()


def test_state_vector_cap_refused_before_any_run(tmp_path, capsys, monkeypatch):
    def synthesize(*args, **kwargs):
        raise AssertionError("synthesis ran")

    monkeypatch.setattr(cli, "sequential_optimize", synthesize)
    rc = run_cli(["run", "--model", "qubo", "--n", "16", "--protocols", "ua,ra", "--out", tmp_path / "out"])
    assert rc == 2
    assert "16 qubits exceeds state-vector cap" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, named", [
    (["run", "--model", "two-spin", "--tau", "0"], "--tau 0.0: tau must be positive"),
    (["run", "--model", "two-spin", "--protocols", "ua,ra", "--steps", "50"], "--steps 50: steps must be >= 100"),
    (["run", "--model", "two-spin", "--m-points", "5"], "--m-points 5: M must be >= 10"),
    (["scaling", "--model", "qubo", "--steps", "50"], "--steps 50: steps must be >= 100"),
    (["run", "--model", "two-spin", "--tau", "nan"], "--tau nan: tau must be finite"),
    (["run", "--model", "two-spin", "--tau", "inf"], "--tau inf: tau must be finite"),
    (["scaling", "--model", "qubo", "--seed", "-1"], "--seed -1: seed must be >= 0"),
    (["run", "--model", "qubo", "--n", "4", "--seed", "-1"], "--seed -1: seed must be >= 0"),
    (["run", "--model", "two-spin", "--seed", "-1"], "--seed -1: seed must be >= 0"),
    (["run", "--model", "two-spin", "--protocols", ","], "--protocols '': name one or more protocols, each once"),
    (["run", "--model", "two-spin", "--protocols", "ua,ua"],
     "--protocols 'ua,ua': name one or more protocols, each once"),
    (["run", "--model", "chain", "--n", "3", "--protocols", "ua,ra"],
     "--backend closed-form: chain closed form needs N >= 4; use backend='oracle'"),
    (["run", "--model", "lhz", "--n-logical", "6", "--backend", "oracle", "--protocols", "ua,ra"],
     "--backend oracle: 15 qubits exceeds the dense oracle cap"),
    # refused at its largest size (N = 15) before the sizes below the cap are synthesized
    (["scaling", "--model", "qubo", "--full", "--backend", "oracle"],
     "--backend oracle: 15 qubits exceeds the dense oracle cap"),
    (["run", "--model", "qubo", "--n", "1"], "--n 1: size must be >= 2"),
    (["run", "--model", "chain", "--n", "2"], "--n 2: periodic chain needs at least 3 sites"),
    (["run", "--model", "lhz", "--n-logical", "2"], "--n-logical 2: LHZ needs at least 3 logical spins"),
    (["run", "--model", "qubo", "--n", "16"], "--n 16: 16 qubits exceeds state-vector cap"),
    (["run", "--model", "qubo", "--n", "13", "--protocols", "ua,exact-cd"],
     "--n 13: exact-cd is limited to 8 qubits, got 13"),
    (["scaling", "--model", "qubo", "--instances", "0"], "--instances 0: instances must be >= 1"),
    (["scaling", "--model", "chain"], "--model chain: scaling study expects a random-instance model (qubo or lhz)"),
])
def test_invalid_run_input_refused_before_any_work(tmp_path, capsys, monkeypatch, args, named):
    def synthesize(*args, **kwargs):
        raise AssertionError("synthesis ran")

    monkeypatch.setattr(cli, "sequential_optimize", synthesize)
    rc = run_cli(args + ["--out", tmp_path / "out"])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == [f"error: {named}"], lines
    assert not (tmp_path / "out").exists()


def test_backend_refused_only_where_ra_synthesis_needs_it(tmp_path, capsys, monkeypatch):
    # the dense oracle takes 12 qubits at most; a run without RA evaluates
    # no action, so it runs whatever the backend
    monkeypatch.setattr(cli, "_single_run", lambda model, config, out_dir: {"ua": 0.5})
    args = ["run", "--model", "qubo", "--n", "13", "--backend", "oracle", "--out", tmp_path / "out"]
    assert run_cli(args + ["--protocols", "ua,ra"]) == 2
    assert capsys.readouterr().err.strip() == "error: --backend oracle: 13 qubits exceeds the dense oracle cap"
    assert not (tmp_path / "out").exists()
    assert run_cli(args + ["--protocols", "ua"]) == 0
    assert (tmp_path / "out" / "run.json").exists()


def test_fields_csvs_share_one_ramp_table(tmp_path, monkeypatch):
    # writing the fields CSVs of three protocols evaluates the ramp once
    from racd.models import Ramp, TwoSpinModel

    calls = []
    table = Ramp.table
    monkeypatch.setattr(Ramp, "table", lambda self, times: calls.append(1) or table(self, times))
    config = cli.RunConfig(protocols=("ua", "local-cd", "ra"), steps=200, m_points=20)
    cli._single_run(TwoSpinModel(), config, None)
    unwritten = len(calls)
    cli._single_run(TwoSpinModel(), config, tmp_path)
    assert len(calls) - unwritten == unwritten + 1
    assert sorted(p.name for p in tmp_path.glob("fields_*.csv")) == ["fields_local-cd.csv", "fields_ra.csv",
                                                                      "fields_ua.csv"]


def test_config_protocols_of_the_wrong_type_name_a_json_list(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"protocols": "ua,ra"}))
    assert run_cli(["run", "--config", cfg_path, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.strip().splitlines() == ["error: config key 'protocols': expected list, got 'ua,ra'"]


def test_diverging_run_prints_one_error_line(tmp_path):
    # the state overflows long before the first output step; in a fresh
    # process, so that any numpy warning reaches stderr as a user sees it
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "racd.cli", "run", "--model", "two-spin", "--tau", "1e6",
                           "--protocols", "ua", "--out", str(tmp_path / "o")], capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: ua evolution failed for the two-spin model with 2 qubits: "
                                        "norm drift inf exceeds 1e-06 at 2000 RK4 steps"], proc.stderr


@pytest.mark.slow
def test_scaling_default_steps_drift_is_one_error_line(tmp_path, capsys):
    # the default sizes, seed and --steps (2000): the RA evolution of the
    # N=5 instance with seed 1 drifts by 1.059e-6, over the 1e-6 tolerance
    rc = run_cli(["scaling", "--model", "qubo", "--instances", "2", "--out", tmp_path / "out"])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    for part in ("ra evolution", "5 qubits", "instance seed 1", "norm drift 1.059e-06", "--steps 2029"):
        assert part in lines[0], (part, lines[0])
    assert not (tmp_path / "out" / "scaling.csv").exists()


def test_racd_errors_share_one_base():
    from racd import RacdError
    from racd.closed_form import UndefinedAngleError
    from racd.dynamics import StepSizeError
    from racd.operators import CapacityError, DimensionMismatchError, NotDiagonalError
    from racd.optimizer import SequentialOptimizeError

    for cls in (UndefinedAngleError, CapacityError, DimensionMismatchError, NotDiagonalError):
        assert issubclass(cls, RacdError) and issubclass(cls, ValueError)
    for cls in (StepSizeError, SequentialOptimizeError):
        assert issubclass(cls, RacdError) and issubclass(cls, RuntimeError)
    # drift 16x the tolerance at 1000 steps: dt^4 scaling asks for 2x the steps
    assert StepSizeError(1.6e-5, 1000).steps_needed() == 2000


def test_exact_cd_capacity_guard(tmp_path):
    cfg = cli.RunConfig(model="qubo", n=13, protocols=("exact-cd",), out=str(tmp_path / "out"))
    with pytest.raises(ValueError):
        cli.cmd_run(cfg)
    assert not (tmp_path / "out").exists()


def test_scaling_ignores_run_protocols(tmp_path):
    # scaling runs its own protocols at its own sizes, so the run options
    # for exact-CD at 9 qubits do not apply to it
    cfg = cli.RunConfig(model="qubo", protocols=("exact-cd",), n=9, instances=1, steps=500, m_points=20,
                        out=str(tmp_path / "out"))
    assert cli.cmd_scaling(cfg, sizes=(3,)) == 0
    assert (tmp_path / "out" / "scaling.csv").exists()


def test_exact_cd_cap_refused_before_any_run(tmp_path, capsys):
    # 9 qubits fit the dense cap (12) but not the exact-CD propagator (8)
    out = tmp_path / "out"
    rc = run_cli(["run", "--model", "chain", "--n", "9", "--protocols", "ua,exact-cd",
                  "--steps", "200", "--out", out])
    assert rc == 2
    assert not (out / "fidelity_ua.csv").exists()
    assert "limited to 8 qubits" in capsys.readouterr().err


def test_run_error_names_seed_only_for_random_instances(monkeypatch):
    from racd.dynamics import StepSizeError
    from racd.models import TwoSpinModel, random_instance

    def drifting(*args, **kwargs):
        raise StepSizeError(2e-6, 100)

    monkeypatch.setattr(cli, "run_protocol", drifting)
    config = cli.RunConfig(protocols=("ua",))
    with pytest.raises(StepSizeError) as seedless:
        cli._single_run(TwoSpinModel(), config, None)
    assert "two-spin model with 2 qubits: norm drift" in str(seedless.value)
    assert "seed" not in str(seedless.value)
    with pytest.raises(StepSizeError) as seeded:
        cli._single_run(random_instance("qubo", 3, 4), config, None)
    assert "qubo model with 3 qubits, instance seed 4: norm drift" in str(seeded.value)


def test_evolution_error_stage_names_the_protocols(monkeypatch):
    # a drift names the protocol that drifted; any other error raised while
    # evolving names the whole batch
    from racd.dynamics import StepSizeError
    from racd.models import TwoSpinModel
    from racd.operators import CapacityError

    errors = [StepSizeError(2e-6, 100, kind="local-cd"), CapacityError("too big")]

    def failing(*args, **kwargs):
        raise errors.pop(0)

    monkeypatch.setattr(cli, "run_protocol", failing)
    config = cli.RunConfig(protocols=("ua", "local-cd"))
    with pytest.raises(StepSizeError) as drift:
        cli._single_run(TwoSpinModel(), config, None)
    assert str(drift.value).startswith("local-cd evolution failed for the two-spin model")
    with pytest.raises(CapacityError) as other:
        cli._single_run(TwoSpinModel(), config, None)
    assert str(other.value).startswith("ua,local-cd evolution failed for the two-spin model")


def test_scaling_run_json_records_protocols_that_ran(tmp_path):
    config = cli.RunConfig(model="qubo", instances=1, steps=500, m_points=20, out=str(tmp_path))
    assert cli.cmd_scaling(config, sizes=(3,)) == 0
    meta = json.loads((tmp_path / "run.json").read_text())
    rows = (tmp_path / "scaling.csv").read_text().splitlines()[1:]
    assert meta["config"]["protocols"] == ["ua", "local-cd", "ra"]
    assert [r.split(",")[1] for r in rows] == meta["config"]["protocols"]


def test_validate_suites_pass():
    # the fast subset: identity suites + boundary conditions must be green
    from racd.validation import (
        suite_cd_limitations,
        suite_decomposition_identities,
        suite_two_level_analytic,
    )

    for suite in (suite_decomposition_identities, suite_cd_limitations, suite_two_level_analytic):
        result = suite()
        assert result.passed, result.line()


def test_validate_detects_injected_fault(monkeypatch):
    # corrupting one chain Gram entry must trip the oracle-equivalence suite
    import racd.closed_form as cf
    from racd.validation import closed_form_deviation
    from racd.models import ChainModel

    good = cf._chain_gram(4).copy()
    bad = good.copy()
    bad[0, 0] *= 1.0 + 1e-6
    monkeypatch.setattr(cf, "_chain_gram", lambda n=4: bad)
    model = ChainModel(4)
    dev = closed_form_deviation(model, draws=20, seed=1)
    assert dev > 1e-8


@pytest.mark.parametrize("draws", [0, -3])
def test_validate_refuses_draws_that_check_nothing(capsys, monkeypatch, draws):
    # --draws 0 used to print PASS for the oracle suite with a max deviation over no draws
    from racd import validation

    with pytest.raises(ValueError, match="draws must be >= 1"):
        validation.suite_closed_form_vs_oracle(draws=draws)
    monkeypatch.setattr(cli, "run_all_suites", lambda draws: pytest.fail("a suite ran"))
    assert run_cli(["validate", "--draws", draws]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.strip().splitlines() == [f"error: --draws {draws}: draws must be >= 1"]


def test_validate_reports_max_deviation_format():
    from racd.validation import SuiteResult

    line = SuiteResult("demo", True, 1.2e-9, 1e-8).line()
    assert line.startswith("PASS") and "max deviation" in line


@pytest.mark.parametrize("model, sizes", [("qubo", (2, 3, 4)), ("lhz", (3,))])
def test_scaling_rows_match_the_per_model_path(model, sizes):
    # every (size, instance) evolved in one block gives the rows of one
    # _single_run after another
    config = cli.RunConfig(model=model, tau=1.0, m_points=10, steps=200, seed=3, instances=2)
    rows = cli.scaling_study(config, sizes)
    want = []
    for size in sizes:
        run_cfg = replace(config, n=size, n_logical=size, protocols=cli.SCALING_PROTOCOLS)
        finals = [cli._single_run(cli._build_model(run_cfg, config.seed + idx), run_cfg, None, n_out=11)
                  for idx in range(config.instances)]
        for kind in cli.SCALING_PROTOCOLS:
            f_vals = np.array([f[kind] for f in finals])
            want.append((size, kind, f_vals.mean(), np.percentile(f_vals, 25), np.percentile(f_vals, 75),
                         (f_vals / np.array([f["ua"] for f in finals])).mean()))
    assert [(r["size"], r["protocol"]) for r in rows] == [w[:2] for w in want]
    for r, w in zip(rows, want):
        got = (r["mean_F"], r["p25_F"], r["p75_F"], r["mean_rel_improvement"])
        np.testing.assert_allclose(got, w[2:], rtol=0, atol=1e-12)


def test_scaling_reports_an_earlier_evolution_failure_before_a_later_synthesis_failure(monkeypatch):
    from racd.dynamics import StepSizeError
    from racd.optimizer import SequentialOptimizeError

    synthesize = cli.sequential_optimize
    synthesized, evolved = [], []

    def failing_third(model, *args, **kwargs):
        synthesized.append(model.n_qubits)
        if len(synthesized) == 3:
            raise SequentialOptimizeError("BFGS aborted")
        return synthesize(model, *args, **kwargs)

    def read(groups):
        # the groups up to the first failure to read one, and that failure
        read, failure = [], []
        try:
            for protocols in groups:
                read.append(protocols)
        except Exception as exc:
            failure.append(exc)
        return read, failure

    def drift_first(groups, *args, **kwargs):
        groups, failure = read(groups)
        evolved.append([p[0].model.n_qubits for p in groups])
        return [StepSizeError(2e-6, 200, kind="ra")] + [[] for _ in groups[1:]] + failure

    monkeypatch.setattr(cli, "sequential_optimize", failing_third)
    config = cli.RunConfig(model="qubo", m_points=10, steps=200, seed=3, instances=1)
    monkeypatch.setattr(cli, "run_groups", drift_first)
    with pytest.raises(StepSizeError) as drift:
        cli.scaling_study(config, (2, 3, 4, 5))
    # the synthesis stopped at the failing instance; the ones before it evolved
    assert synthesized == [2, 3, 4] and evolved == [[2, 3]]
    assert str(drift.value).startswith("ra evolution failed for the qubo model with 2 qubits, instance seed 3")
    # with no evolution failure the synthesis error is the one reported
    synthesized.clear()
    def run_through(groups, *args, **kwargs):
        groups, failure = read(groups)
        return [[type("T", (), {"F": np.ones(2)})() for _ in p] for p in groups] + failure

    monkeypatch.setattr(cli, "run_groups", run_through)
    with pytest.raises(SequentialOptimizeError) as synth:
        cli.scaling_study(config, (2, 3, 4, 5))
    assert str(synth.value).startswith("ra synthesis failed for the qubo model with 4 qubits, instance seed 3")


@settings(max_examples=10, deadline=None)
@given(sizes=st.lists(st.sampled_from([2, 3]), min_size=2, max_size=5), steps=st.integers(100, 150),
       data=st.data())
def test_scaling_fails_as_one_single_run_after_another(sizes, steps, data):
    # one or two injected failures (a synthesis that aborts, a ground solve
    # that raises, an RA field stiff enough to drift) at drawn instances:
    # the study raises what running them one at a time meets first, in one
    # block or one block per instance
    from racd import RacdError, dynamics
    from racd.optimizer import ParamTrajectory, SequentialOptimizeError

    failing = data.draw(st.lists(st.integers(0, len(sizes) - 1), min_size=1, max_size=2, unique=True))
    kinds = {i: data.draw(st.sampled_from(["synthesis", "ground", "drift"])) for i in failing}
    config = cli.RunConfig(model="qubo", tau=1.0, m_points=10, steps=steps, seed=data.draw(st.integers(0, 9)))
    synthesize, solve = cli.sequential_optimize, dynamics.ground_trace
    calls = {"synthesis": 0, "ground": 0}

    def injected(model, ramp, *args, **kwargs):
        i, calls["synthesis"] = calls["synthesis"], calls["synthesis"] + 1
        if kinds.get(i) == "synthesis":
            raise SequentialOptimizeError("BFGS aborted")
        if kinds.get(i) == "drift":
            values = np.zeros((11, len(model.param_names)))
            values[:, 0] = 3.0e3
            return ParamTrajectory(np.linspace(0.0, ramp.tau, 11), values, model.param_names)
        return synthesize(model, ramp, *args, **kwargs)

    def ground_trace(model, lambdas):
        i, calls["ground"] = calls["ground"], calls["ground"] + 1
        if kinds.get(i) == "ground":
            raise RacdError("ground solve failed")
        return solve(model, lambdas)

    def first_failure(run):
        calls.update(synthesis=0, ground=0)
        with pytest.raises(Exception) as err:
            run()
        return type(err.value), str(err.value)

    def one_after_another():
        for size in sizes:
            run_cfg = replace(config, n=size, protocols=cli.SCALING_PROTOCOLS)
            cli._single_run(cli._build_model(run_cfg, config.seed), run_cfg, None, n_out=11)

    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(cli, "sequential_optimize", injected)
        mp.setattr(dynamics, "ground_trace", ground_trace)
        want = first_failure(one_after_another)
        first = calls["synthesis"] - 1
        assert first_failure(lambda: cli.scaling_study(config, sizes)) == want
        mp.setattr(dynamics, "BLOCK_BYTES", 0)
        assert first_failure(lambda: cli.scaling_study(config, sizes)) == want
        assert calls["synthesis"] <= first + 2


@pytest.mark.parametrize("args", [["run", "--model", "two-spin", "--instances", "2"],
                                  ["run", "--model", "two-spin", "--full"],
                                  ["scaling", "--model", "qubo", "--n", "12"],
                                  ["scaling", "--model", "lhz", "--n-logical", "3"],
                                  ["scaling", "--model", "qubo", "--protocols", "ua"]])
def test_command_refuses_a_flag_it_does_not_read(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exit_:
        run_cli(args + ["--out", tmp_path / "out"])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {args[3]}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, content", [("run", {"instances": 2}), ("run", {"full": True}),
                                              ("scaling", {"model": "qubo", "n": 12}),
                                              ("scaling", {"n_logical": 3}), ("scaling", {"protocols": ["ua"]})])
def test_config_key_the_command_does_not_read_is_one_error_line(tmp_path, capsys, command, content):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(content))
    assert run_cli([command, "--config", cfg_path, "--out", tmp_path / "out"]) == 2
    key = list(content)[-1]
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == [f"error: config key {key!r} is not an option of racd {command}"], lines
    assert not (tmp_path / "out").exists()


def test_exact_cd_fidelity_within_the_accepted_drift_is_written(tmp_path):
    # exact-CD at 100 steps ends 1.5e-9 past norm 1, within NORM_DRIFT_TOL
    out = tmp_path / "out"
    assert run_cli(["run", "--model", "qubo", "--n", "2", "--seed", "0", "--protocols", "ua,exact-cd",
                    "--steps", "100", "--out", out]) == 0
    assert json.loads((out / "run.json").read_text())["final_fidelity"]["exact-cd"] > 1.0 + 1e-9
