import numpy as np
import pytest
from numpy.testing import assert_allclose

from racd.dynamics import (
    StepSizeError,
    evolve,
    fidelity,
    ground_space,
    ground_space_op,
    rotated_fidelity,
    run_protocol,
)
from racd.models import ChainModel, Ramp, TwoSpinModel, random_instance
from racd.operators import sigma_z
from racd.optimizer import assemble_protocol, sequential_optimize


def test_ground_space_single_qubit():
    energy, basis = ground_space(-sigma_z(1, 0).to_dense())
    assert energy == pytest.approx(-1.0)
    assert basis.shape == (2, 1)
    assert abs(basis[0, 0]) == pytest.approx(1.0)


def test_ground_space_chain_initial_plus_state():
    model = ChainModel(4)
    _, basis = ground_space(model.h0(0.0).to_dense())
    assert basis.shape[1] == 1
    plus = np.full(16, 0.25)  # |+>^4
    assert abs(np.vdot(plus, basis[:, 0])) == pytest.approx(1.0, abs=1e-12)


def test_ground_space_projector_idempotent():
    model = random_instance("lhz", 4, 12)
    _, basis = ground_space(model.h0(0.8).to_dense())
    assert basis.shape[1] >= 1
    proj = basis @ basis.conj().T
    assert_allclose(proj @ proj, proj, atol=1e-12)


def test_ground_space_requires_hermitian():
    with pytest.raises(ValueError):
        ground_space(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_evolve_zero_hamiltonian():
    # all UA fields of the chain vanish at lambda = 0 except the transverse
    # term; use a two-spin protocol with fields scaled to zero via tau trick
    # instead: directly check H = 0 path by zero-coefficient trajectory
    from racd.models import Model, ModelTerm
    from racd.operators import SpinOperator

    class NullModel(Model):
        kind = "chain"

        def __init__(self):
            op = SpinOperator(1, {(1, 0): 1.0})
            super().__init__(1, [ModelTerm("z", op, 0.0, 0.0, None)])

    protocol = assemble_protocol(NullModel(), None, "ua", Ramp(1.0))
    psi0 = np.array([0.6, 0.8], dtype=complex)
    times, states = evolve(protocol, psi0, steps=100, n_out=3)
    assert_allclose(states[-1], psi0, atol=1e-12)


def test_evolve_constant_sigma_z_phases():
    from racd.models import Model, ModelTerm
    from racd.operators import SpinOperator

    class ZModel(Model):
        kind = "chain"

        def __init__(self):
            super().__init__(1, [ModelTerm("z", SpinOperator(1, {(0, 1): 1.0}), 1.0, 0.0, None)])

    tau = 1.0
    protocol = assemble_protocol(ZModel(), None, "ua", Ramp(tau))
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    _, states = evolve(protocol, psi0, steps=400, n_out=3)
    want = np.array([np.exp(-1j * tau), np.exp(1j * tau)]) / np.sqrt(2)
    overlap = abs(np.vdot(want, states[-1])) ** 2
    assert overlap >= 1.0 - 1e-8


def test_evolve_requires_steps():
    protocol = assemble_protocol(TwoSpinModel(), None, "ua", Ramp(1.0))
    with pytest.raises(ValueError):
        evolve(protocol, np.array([1, 0, 0, 0], dtype=complex), steps=50)


def test_evolve_step_halving_converged():
    model = TwoSpinModel()
    protocol = assemble_protocol(model, None, "ua", Ramp(1.0))
    _, basis = ground_space_op(model.h0(0.0))
    psi0 = basis[:, 0]
    _, coarse = evolve(protocol, psi0, steps=1000, n_out=2)
    _, fine = evolve(protocol, psi0, steps=2000, n_out=2)
    assert np.linalg.norm(coarse[-1] - fine[-1]) <= 1e-6


def test_time_reversal_round_trip():
    # forward then sign-flipped reversed path returns the initial state
    model = TwoSpinModel()
    ramp = Ramp(1.0)
    forward = assemble_protocol(model, None, "ua", ramp)
    _, basis = ground_space_op(model.h0(0.0))
    psi0 = basis[:, 0]
    _, states = evolve(forward, psi0, steps=2000, n_out=2)
    psi_tau = states[-1]

    class ReversedProtocol:
        model = forward.model
        kind = "ua"
        ramp = forward.ramp

        def field_table(self, times):
            tables = forward.field_table(self.ramp.tau - np.asarray(times))
            return {k: -v for k, v in tables.items()}

        def q_table(self, times):
            return {}

        def y_table(self, times):
            return np.zeros((len(np.atleast_1d(times)), 2))

    _, back = evolve(ReversedProtocol(), psi_tau, steps=2000, n_out=2)
    assert abs(np.vdot(psi0, back[-1])) ** 2 >= 1.0 - 1e-5


def test_fidelity_projection():
    basis = np.zeros((4, 2), dtype=complex)
    basis[0, 0] = 1.0
    basis[1, 1] = 1.0
    inside = np.array([0.6, 0.8j, 0, 0], dtype=complex)
    outside = np.array([0, 0, 1.0, 0], dtype=complex)
    assert fidelity(inside, basis) == pytest.approx(1.0)
    assert fidelity(outside, basis) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        fidelity(np.ones(3, dtype=complex), basis)


def test_rotated_fidelity_zero_rotation():
    rng = np.random.Generator(np.random.PCG64(0))
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    basis = np.linalg.qr(rng.normal(size=(8, 3)))[0]
    assert rotated_fidelity(psi, basis, np.zeros(8)) == pytest.approx(fidelity(psi, basis))
    with pytest.raises(ValueError):
        rotated_fidelity(psi, basis, 1j * np.ones(8))


def test_two_spin_ua_final_fidelity():
    protocol = assemble_protocol(TwoSpinModel(), None, "ua", Ramp(1.0))
    trace = run_protocol(protocol, steps=2000)
    assert trace.F[-1] == pytest.approx(0.66, abs=0.02)


def test_two_spin_ra_rotated_fidelity_near_one():
    model = TwoSpinModel()
    ramp = Ramp(1.0)
    traj = sequential_optimize(model, ramp, M=100)
    protocol = assemble_protocol(model, traj, "ra", ramp)
    trace = run_protocol(protocol, steps=2000)
    assert trace.F_tilde.min() >= 1.0 - 1e-3
    assert trace.F[-1] >= 1.0 - 1e-3
    # boundary identity F~ = F at both ends
    assert trace.F_tilde[0] == pytest.approx(trace.F[0], abs=1e-6)
    assert trace.F_tilde[-1] == pytest.approx(trace.F[-1], abs=1e-6)


def test_fidelity_trace_invariants_and_csv(tmp_path):
    protocol = assemble_protocol(TwoSpinModel(), None, "ua", Ramp(1.0))
    trace = run_protocol(protocol, steps=500, n_out=21)
    trace.validate()
    assert trace.F[0] == pytest.approx(1.0, abs=1e-9)
    assert np.all((trace.F >= -1e-9) & (trace.F <= 1 + 1e-9))
    path = tmp_path / "fidelity.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,lambda,F,F_tilde"
    assert len(lines) == 22
    # 12-significant-digit scientific notation with '.' separator
    assert "e" in lines[1].split(",")[1]


def test_run_protocol_checks_capacity_before_ground_solves(monkeypatch):
    from racd import dynamics
    from racd.operators import CapacityError

    def no_solve(*args, **kwargs):
        raise AssertionError("ground solve before the capacity check")

    monkeypatch.setattr(dynamics, "ground_space_op", no_solve)
    protocol = assemble_protocol(ChainModel(9), None, "exact-cd", Ramp(1.0))
    with pytest.raises(CapacityError):
        run_protocol(protocol, steps=200)


def test_run_protocol_rejects_bases_of_another_grid():
    model = TwoSpinModel()
    protocol = assemble_protocol(model, None, "ua", Ramp(1.0))
    bases = run_protocol(protocol, steps=200, n_out=11).ground_bases
    with pytest.raises(ValueError):
        run_protocol(protocol, steps=200, n_out=21, ground_bases=bases)


def test_exact_cd_two_spin_perfect():
    protocol = assemble_protocol(TwoSpinModel(), None, "exact-cd", Ramp(1.0))
    trace = run_protocol(protocol, steps=2000)
    assert trace.F.min() >= 1.0 - 1e-6


def test_norm_drift_raises():
    # deliberately under-resolved stiff field: drift must be detected, not
    # silently renormalized
    from racd.models import Model, ModelTerm
    from racd.operators import SpinOperator

    class StiffModel(Model):
        kind = "chain"

        def __init__(self):
            op = SpinOperator(1, {(1, 0): 1.0})  # sigma_x
            super().__init__(1, [ModelTerm("x", op, 3.0e3, 0.0, None)])

    protocol = assemble_protocol(StiffModel(), None, "ua", Ramp(1.0))
    psi0 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(StepSizeError):
        evolve(protocol, psi0, steps=100, n_out=51)


def test_evaluator_apply_matches_dense_hamiltonian():
    # the grouped word-application equals explicit dense H(t) action
    from racd.dynamics import _HamiltonianEvaluator

    rng = np.random.Generator(np.random.PCG64(13))
    model = ChainModel(5)
    ramp = Ramp(1.0)
    traj = sequential_optimize(model, ramp, M=20)
    for kind in ("ua", "ra", "local-cd"):
        protocol = assemble_protocol(model, traj, kind, ramp)
        times = np.linspace(0.0, 1.0, 7)
        ev = _HamiltonianEvaluator(protocol, times)
        fields = protocol.field_table(times)
        for idx in (0, 3, 6):
            h = sum(
                float(fields[t.name][idx]) * t.operator.to_dense() for t in model.terms
            )
            if kind == "local-cd":
                y = protocol.y_table(times)
                h = h + sum(
                    y[idx, j] * sigma_y_dense(5, j) for j in range(5)
                )
            psi = rng.normal(size=32) + 1j * rng.normal(size=32)
            assert_allclose(ev.apply(idx, psi), h @ psi, atol=1e-10)
            assert_allclose(ev.matrix(idx), h, atol=1e-10)


def sigma_y_dense(n, j):
    from racd.operators import sigma_y

    return sigma_y(n, j).to_dense()
