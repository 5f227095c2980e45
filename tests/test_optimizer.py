import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from racd import closed_form as cf
from racd.agp import action_oracle
from racd.models import ChainModel, LhzModel, Ramp, TwoSpinModel, random_instance
from racd.optimizer import (
    ParamTrajectory,
    Protocol,
    assemble_protocol,
    bfgs_minimize,
    make_action_objective,
    sequential_optimize,
)


# -- BFGS -----------------------------------------------------------------------

def test_bfgs_quadratic():
    a = np.array([1.0, -2.0, 0.5])
    res = bfgs_minimize(lambda x: float(np.sum((x - a) ** 2)), np.zeros(3))
    assert_allclose(res.x, a, atol=1e-6)
    assert res.fun <= 1e-10
    assert not res.aborted


def test_bfgs_rosenbrock():
    def rosen(x):
        return float((1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)

    res = bfgs_minimize(rosen, np.array([-1.2, 1.0]))
    assert_allclose(res.x, [1.0, 1.0], atol=1e-5)


def test_bfgs_matches_two_level_optimum():
    model = TwoSpinModel()
    ramp = Ramp(1.0)
    lam, lam_dot = ramp(0.55)
    fd = model.ua_fields(lam, lam_dot)
    res = bfgs_minimize(lambda x: cf.action_two_level(fd, x[0], x[1]), np.zeros(2))
    beta, gamma = cf.two_level_optimum(fd)
    assert_allclose(res.x, [beta, gamma], atol=1e-6)


def test_bfgs_monotone_and_iterations():
    f = lambda x: float(np.cosh(x[0]) + x[0] ** 4)
    res = bfgs_minimize(f, np.array([2.0]))
    assert res.fun <= f(np.array([2.0]))
    assert res.iterations >= 1


def test_bfgs_nonfinite_abort():
    # descending -x runs into the non-finite region; best-so-far is flagged
    def bad(x):
        return float(-x[0]) if x[0] < 1.5 else float("nan")

    res = bfgs_minimize(bad, np.array([0.0]))
    assert res.aborted
    assert np.isfinite(res.fun)
    assert res.x[0] < 1.5


def test_bfgs_nonfinite_start_aborts():
    # a non-finite value at the start is an abort like any other, not an error
    res = bfgs_minimize(lambda x: float("nan"), [0.0])
    assert res.aborted
    assert res.fun == np.inf
    assert_array_equal(res.x, [0.0])


def test_bfgs_evaluates_start_once():
    calls = []
    bfgs_minimize(lambda x: calls.append(x.copy()) or float(np.sum((x - 1.0) ** 2)), [0.5, -0.5])
    assert sum(np.array_equal(x, [0.5, -0.5]) for x in calls) == 1


# -- ParamTrajectory --------------------------------------------------------------

def test_trajectory_validation():
    with pytest.raises(ValueError):
        ParamTrajectory(np.array([0.0, 1.0]), np.zeros((2, 1)), ("beta",))
    with pytest.raises(ValueError):
        ParamTrajectory(np.array([0.0, 0.0, 1.0]), np.zeros((3, 1)), ("beta",))
    with pytest.raises(ValueError):
        ParamTrajectory(np.array([0.0, 0.5, 1.0]), np.full((3, 1), np.nan), ("beta",))


def test_trajectory_rates_vanish_at_both_ends():
    # sin(3t) has rate 3 at t = 0: the spline's zero end rates are imposed, not read off the knots
    times = np.linspace(0.0, 1.0, 11)
    traj = ParamTrajectory(times, np.sin(3 * times)[:, None], ("gamma",))
    assert traj.derivative("gamma", 0.0) == 0.0
    assert abs(traj.derivative("gamma", 1.0)) < 1e-12


@st.composite
def knot_grids(draw):
    knots = draw(st.integers(3, 201))
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=knots - 1, max_size=knots - 1))
    times = np.concatenate([[0.0], np.cumsum(steps)])
    n_params = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.floats(1e-3, 1e3))
    values = np.random.Generator(np.random.PCG64(seed)).uniform(-scale, scale, size=(knots, n_params))
    return times, values


@settings(max_examples=60, deadline=None)
@given(knot_grids(), st.integers(0, 2**32 - 1))
def test_trajectory_matches_per_column_zero_end_rate_splines(grid, probe_seed):
    """One spline over every column gives each column's own zero-end-rate
    scipy spline, in values and rates, on non-uniform knots."""
    from scipy.interpolate import CubicSpline

    times, values = grid
    names = ("beta", "gamma", "phi")[: values.shape[1]]
    traj = ParamTrajectory(times, values, names)
    rng = np.random.Generator(np.random.PCG64(probe_seed))
    probe = np.concatenate([times, rng.uniform(times[0], times[-1], 50)])
    tol = 1e-13 * np.abs(values).max()
    for c, name in enumerate(names):
        judge = CubicSpline(times, values[:, c], bc_type=((1, 0.0), (1, 0.0)))
        assert np.abs(traj.value(name, probe) - judge(probe)).max() <= tol
        assert np.abs(traj.derivative(name, probe) - judge(probe, 1)).max() <= tol
        assert traj.derivative(name, times[0]) == 0.0


def test_trajectory_interpolates_knots():
    times = np.linspace(0, 1, 11)
    vals = np.column_stack([np.sin(times), np.cos(times)])
    traj = ParamTrajectory(times, vals, ("beta", "gamma"))
    assert_allclose(traj.value("beta", times), vals[:, 0], atol=1e-12)
    assert_allclose(traj.value("gamma", times), vals[:, 1], atol=1e-12)


def test_differentiate_constant_and_linear():
    times = np.linspace(0, 2, 21)
    # a cubic whose rate vanishes at both ends, which the zero-end-rate spline reproduces exactly
    s = times / 2
    traj = ParamTrajectory(
        times, np.column_stack([np.full(21, 0.7), 3.5 * (3 * s**2 - 2 * s**3)]), ("beta", "gamma")
    )
    probe = np.linspace(0, 2, 50)
    assert_allclose(traj.derivative("beta", probe), np.zeros(50), atol=1e-10)
    sp = probe / 2
    assert_allclose(traj.derivative("gamma", probe), 3.5 * 3 * (sp - sp**2), atol=1e-10)


def test_differentiate_sin_sup_norm():
    tau = 1.0
    times = np.linspace(0, tau, 201)  # M = 200
    traj = ParamTrajectory(times, 1 - np.cos(2 * np.pi * times / tau)[:, None], ("gamma",))
    probe = np.linspace(0, tau, 1000)
    want = (2 * np.pi / tau) * np.sin(2 * np.pi * probe / tau)
    got = traj.derivative("gamma", probe)
    assert np.abs(got - want).max() <= 1e-4


def test_differentiate_unknown_parameter():
    times = np.linspace(0, 1, 5)
    traj = ParamTrajectory(times, np.zeros((5, 1)), ("beta",))
    with pytest.raises(KeyError):
        traj.derivative("phi", 0.5)


def test_trajectory_csv_round_trip(tmp_path):
    times = np.linspace(0, 1, 12)
    vals = np.column_stack([np.sin(times), np.cos(times), times**2])
    traj = ParamTrajectory(times, vals, ("beta", "gamma", "phi"))
    path = tmp_path / "params_ra.csv"
    traj.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,beta,gamma,phi"
    again = ParamTrajectory.from_csv(path)
    assert_allclose(again.values, vals, atol=1e-11)


def test_reloaded_sequential_trajectory_keeps_the_protocol(tmp_path):
    # params_ra.csv holds sequential_optimize output: reloading it must give
    # the same RA fields, and UA fields at both ends
    model, ramp = TwoSpinModel(), Ramp(1.0)
    traj = sequential_optimize(model, ramp, M=100)
    path = tmp_path / "params_ra.csv"
    traj.to_csv(path)
    again = ParamTrajectory.from_csv(path)
    times = np.linspace(0.0, 1.0, 201)
    original = assemble_protocol(model, traj, "ra", ramp).field_table(times)
    reloaded = assemble_protocol(model, again, "ra", ramp).field_table(times)
    ua = assemble_protocol(model, None, "ua", ramp).field_table(times)
    for name, values in original.items():
        assert_allclose(reloaded[name], values, rtol=0, atol=1e-10)
        assert_allclose(reloaded[name][[0, -1]], ua[name][[0, -1]], rtol=0, atol=1e-6)


# -- sequential optimization -------------------------------------------------------

def test_sequential_two_spin_matches_analytic():
    model = TwoSpinModel()
    ramp = Ramp(1.0)
    traj = sequential_optimize(model, ramp, M=100)
    worst = 0.0
    for m, t in enumerate(traj.times):
        lam, lam_dot = ramp(t)
        beta_a, gamma_a = cf.two_level_optimum(model.ua_fields(lam, lam_dot))
        worst = max(worst, abs(traj.values[m, 0] - beta_a), abs(traj.values[m, 1] - gamma_a))
    assert worst <= 1e-3


def test_sequential_endpoint_params_vanish():
    ramp = Ramp(1.0)
    for model in (TwoSpinModel(), ChainModel(5), random_instance("lhz", 4, 3)):
        traj = sequential_optimize(model, ramp, M=50)
        assert np.abs(traj.values[0]).max() <= 1e-6
        assert np.abs(traj.values[-1]).max() <= 1e-6


def test_sequential_never_worse_than_zero_ansatz():
    model = ChainModel(4)
    ramp = Ramp(1.0)
    traj = sequential_optimize(model, ramp, M=50)
    for m, t in enumerate(traj.times):
        lam, lam_dot = ramp(t)
        obj = make_action_objective(model, lam, lam_dot)
        assert obj(traj.values[m]) <= obj(np.zeros(3)) + 1e-12


def test_sequential_warm_start_continuity():
    ramp = Ramp(1.0)
    for model in (TwoSpinModel(), ChainModel(6)):
        traj = sequential_optimize(model, ramp, M=100)
        assert np.abs(np.diff(traj.values, axis=0)).max() <= 0.5


def test_sequential_grid_refinement_converges():
    model = ChainModel(4)
    ramp = Ramp(1.0)
    t100 = sequential_optimize(model, ramp, M=100)
    t200 = sequential_optimize(model, ramp, M=200)
    probe = np.linspace(0, 1, 400)
    for name in model.param_names:
        assert np.abs(t100.value(name, probe) - t200.value(name, probe)).max() <= 1e-3


def test_sequential_requires_m():
    with pytest.raises(ValueError):
        sequential_optimize(TwoSpinModel(), Ramp(1.0), M=5)


def test_chain_closed_form_needs_four_sites():
    with pytest.raises(ValueError):
        make_action_objective(ChainModel(3), 0.5, 1.0)
    # the oracle backend still covers N=3
    obj = make_action_objective(ChainModel(3), 0.5, 1.0, backend="oracle")
    assert obj(np.zeros(3)) >= 0.0


def test_lhz_objective_uses_each_models_own_counts():
    # Same-size LHZ models with different constraint lists, alternated with
    # garbage collection in between so that object ids get reused: each
    # objective must match the dense oracle of its own model.
    layouts = (None, [(0, 1, 3), (2, 4, 5), (0, 2, 5)])
    lam, lam_dot = 0.4, 0.9
    x = np.array([0.3, -0.2, 0.25])
    couplings = np.random.Generator(np.random.PCG64(8)).uniform(-1.0, 1.0, size=6)
    for i in range(40):
        m = LhzModel(4, couplings, constraints=layouts[i % 2])
        fd = m.ua_fields(lam, lam_dot)
        got = make_action_objective(m, lam, lam_dot)(x)
        want = action_oracle(m, fd, x)
        assert got == pytest.approx(want / 2**m.n_qubits, rel=1e-10)
        del m
        gc.collect()


@pytest.mark.parametrize(
    "model, fn",
    [
        (TwoSpinModel(), "action_two_level"),
        (ChainModel(4), "action_chain"),
        (random_instance("qubo", 4, 2), "action_qubo"),
        (random_instance("lhz", 4, 2), "action_lhz"),
    ],
)
def test_objective_checks_once_and_calls_the_module_evaluator(monkeypatch, model, fn):
    # the closed form is checked and chosen when the objective is built; each
    # evaluation then calls the module's action_* as it was at that time,
    # with the same value as closed_form.action
    calls = []
    original = getattr(cf, fn)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cf, fn, counting)
    lam, lam_dot = 0.4, 0.9
    objective = make_action_objective(model, lam, lam_dot)
    monkeypatch.setattr(cf, "normalization", lambda m: pytest.fail("normalization called per evaluation"))
    x = np.full(len(model.param_names), 0.3)
    values = [objective(x) for _ in range(3)]
    assert len(calls) == 3
    monkeypatch.undo()
    assert values == [cf.action(model, model.ua_fields(lam, lam_dot), x)] * 3


def test_lhz_repeated_constraint_checked_once_on_the_model():
    m = LhzModel(3, np.ones(3), constraints=[(0, 1, 2), (0, 1, 2)])
    assert m.counts.repeated and not LhzModel(3, np.ones(3)).counts.repeated
    with pytest.raises(ValueError, match="oracle"):
        make_action_objective(m, 0.5, 1.0)


def test_sequential_deterministic():
    model = random_instance("qubo", 4, 5)
    ramp = Ramp(1.0)
    a = sequential_optimize(model, ramp, M=20)
    b = sequential_optimize(model, ramp, M=20)
    assert np.array_equal(a.values, b.values)


def test_sequential_oracle_backend_agrees():
    model = TwoSpinModel()
    ramp = Ramp(1.0)
    a = sequential_optimize(model, ramp, M=20)
    b = sequential_optimize(model, ramp, M=20, backend="oracle")
    assert np.abs(a.values - b.values).max() <= 1e-5


# -- protocol assembly ---------------------------------------------------------------

def test_zero_trajectory_equals_ua():
    model = ChainModel(4)
    ramp = Ramp(1.0)
    times = np.linspace(0, 1, 7)
    zero = ParamTrajectory(times, np.zeros((7, 3)), model.param_names)
    ra = assemble_protocol(model, zero, "ra", ramp)
    ua = assemble_protocol(model, None, "ua", ramp)
    probe = np.linspace(0, 1, 23)
    f_ra, f_ua = ra.field_table(probe), ua.field_table(probe)
    for name in f_ua:
        assert_allclose(f_ra[name], f_ua[name], atol=1e-12)


def test_ra_boundary_pinning_chain():
    model = ChainModel(5)
    ramp = Ramp(1.0)
    traj = sequential_optimize(model, ramp, M=50)
    ra = assemble_protocol(model, traj, "ra", ramp)
    ua = assemble_protocol(model, None, "ua", ramp)
    ends = np.array([0.0, 1.0])
    f_ra, f_ua = ra.field_table(ends), ua.field_table(ends)
    assert abs(f_ra["J"][0] - f_ua["J"][0]) <= 1e-6
    assert abs(f_ra["h"][1] - f_ua["h"][1]) <= 1e-6
    for name in f_ua:
        assert np.abs(f_ra[name] - f_ua[name]).max() <= 1e-6


def test_protocol_trajectory_model_mismatch():
    model = ChainModel(4)
    times = np.linspace(0, 1, 5)
    wrong = ParamTrajectory(times, np.zeros((5, 2)), ("beta", "gamma"))
    with pytest.raises(ValueError):
        Protocol(model=model, kind="ra", ramp=Ramp(1.0), trajectory=wrong)
    with pytest.raises(ValueError):
        Protocol(model=model, kind="ra", ramp=Ramp(1.0), trajectory=None)
    with pytest.raises(ValueError):
        Protocol(model=model, kind="nonsense", ramp=Ramp(1.0))


def test_ra_refuses_a_trajectory_that_does_not_span_the_ramp():
    # a tau = 1 trajectory on a tau = 2 ramp used to extrapolate the spline: h = 238.67 at t = 2
    model = TwoSpinModel()
    traj = ParamTrajectory(np.linspace(0.0, 1.0, 11), np.zeros((11, 2)), model.param_names)
    with pytest.raises(ValueError, match=r"trajectory spans \[0\.0, 1\.0\], the ramp \[0, 2\.0\]"):
        assemble_protocol(model, traj, "ra", Ramp(2.0))
    late = ParamTrajectory(np.linspace(0.1, 1.0, 11), np.zeros((11, 2)), model.param_names)
    with pytest.raises(ValueError, match="trajectory spans"):
        assemble_protocol(model, late, "ra", Ramp(1.0))


def test_ra_accepts_its_own_grid_and_its_csv(tmp_path):
    # at tau = 1/3 the last knot M * tau / M is one ulp below tau; the CSV keeps 12 digits
    model, ramp = TwoSpinModel(), Ramp(1.0 / 3.0)
    traj = sequential_optimize(model, ramp, M=100)
    assert traj.times[-1] != ramp.tau
    traj.to_csv(tmp_path / "params_ra.csv")
    again = ParamTrajectory.from_csv(tmp_path / "params_ra.csv")
    for t in (traj, again):
        fields = assemble_protocol(model, t, "ra", ramp).field_table([0.0, ramp.tau])
        assert np.all(np.isfinite(fields["h"]))


def test_q_table_zero_except_ra():
    model = ChainModel(4)
    ramp = Ramp(1.0)
    traj = sequential_optimize(model, ramp, M=20)
    times = np.linspace(0, 1, 9)
    ua = assemble_protocol(model, traj, "ua", ramp)
    assert all(np.all(v == 0) for v in ua.q_table(times).values())
    ra = assemble_protocol(model, traj, "ra", ramp)
    qt = ra.q_table(times)
    assert set(qt) == {"gamma", "phi"}
    assert_allclose(qt["gamma"], traj.value("gamma", times), atol=1e-12)


@pytest.mark.parametrize("kind, size", [("qubo", 4), ("qubo", 7), ("lhz", 3)])
def test_sequential_shares_one_evaluator_bit_identically(monkeypatch, kind, size):
    # one closed-form evaluator (for QUBO one kernel and one gamma cache)
    # serves every grid point, and the knots are those of one fresh
    # make_action_objective per grid point
    from racd import optimizer

    model = random_instance(kind, size, 9)
    ramp = Ramp(1.0)
    built = []
    evaluator = cf.evaluator
    monkeypatch.setattr(cf, "evaluator", lambda m: built.append(m) or evaluator(m))
    shared = sequential_optimize(model, ramp, M=20)
    assert built == [model]
    # what make_action_objective does at each grid point: a fresh evaluator
    objective = optimizer._objective
    monkeypatch.setattr(optimizer, "_objective",
                        lambda m, lam, lam_dot, evaluate: objective(m, lam, lam_dot, cf.evaluator(m)))
    fresh = sequential_optimize(model, ramp, M=20)
    assert len(built) == 1 + 1 + 21  # its own evaluator goes unused
    assert_array_equal(shared.values, fresh.values)


@pytest.mark.slow
@settings(max_examples=6, deadline=None)
@given(case=st.sampled_from([("qubo", n) for n in range(3, 7)] + [("lhz", n) for n in (3, 4)]),
       seed=st.integers(0, 99))
def test_a_rounding_change_of_the_action_leaves_the_ra_fidelity(case, seed):
    # the premise of gating a run on its fidelities rather than its knots: a relative change of 1e-15 in the
    # closed-form action can move an RA knot by 1e-3 where the beta-gamma valley is flat, but it moves the
    # RA final F by less than 1e-7
    from racd.dynamics import run_protocol

    kind, size = case
    model, ramp = random_instance(kind, size, seed), Ramp(1.0)
    name = "action_qubo" if kind == "qubo" else "action_lhz"
    action = getattr(cf, name)

    def final_ra_fidelity():
        # the evaluator looks the action up when sequential_optimize builds it
        trajectory = sequential_optimize(model, ramp)
        ua, ra = (assemble_protocol(model, trajectory, k, ramp) for k in ("ua", "ra"))
        return run_protocol([ua, ra], steps=4000, n_out=2)[1].F[-1]

    exact = final_ra_fidelity()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cf, name, lambda *args: action(*args) * (1.0 + 1e-15))
        rounded = final_ra_fidelity()
    assert abs(rounded - exact) < 1e-7
