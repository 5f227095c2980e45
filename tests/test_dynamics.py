import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from racd.agp import exact_agp
from racd.dynamics import (
    DEGENERACY_TOL,
    StepSizeError,
    evolve,
    fidelity,
    ground_space,
    ground_space_op,
    ground_trace,
    rotated_fidelity,
    run_protocol,
)
from racd.models import ChainModel, Ramp, TwoSpinModel, random_instance
from racd.operators import sigma_x, sigma_y, sigma_z
from racd.optimizer import ParamTrajectory, assemble_protocol, sequential_optimize


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
    # off by 1e-6, which a relative tolerance would let through
    with pytest.raises(ValueError):
        ground_space(np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]]))


@pytest.mark.parametrize("bad", ["asymmetric", "off-by-1e-6", "nan"])
def test_ground_space_op_iterative_requires_hermitian(monkeypatch, bad):
    # above the dense cap the guard is the same: an entry without its mirror,
    # one off from it by 1e-6, or a NaN raises before the iterative solve
    import scipy.sparse
    from racd import dynamics

    h = ChainModel(5).h0(0.5).to_dense().real
    col = np.flatnonzero(h[0, 1:])[0] + 1
    if bad == "asymmetric":
        h[col, 0] = 0.0
    elif bad == "off-by-1e-6":
        h[0, col] += 1e-6
    else:
        h[3, 3] = np.nan
    monkeypatch.setattr(dynamics, "DENSE_MATRIX_MAX_QUBITS", 3)
    with pytest.raises(ValueError):
        ground_space_op(scipy.sparse.csr_array(h))


def _assert_matches_complex_eigh(h, energy, basis):
    # independent oracle: a full complex eigendecomposition of the same matrix
    eps, vec = np.linalg.eigh(np.asarray(h, dtype=complex))
    ref = vec[:, eps <= eps[0] + DEGENERACY_TOL]
    assert basis.shape == ref.shape
    assert energy == pytest.approx(eps[0], abs=1e-10)
    assert_allclose(basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-12)
    assert_allclose(basis @ basis.conj().T, ref @ ref.conj().T, atol=1e-10)


def test_ground_space_chain_eight_near_zero_field():
    # H_a + lambda * H_b at substep 28 of a 2000-step ramp, as exact-CD
    # builds it: LAPACK's syevd does not converge on this real matrix
    model = ChainModel(8)
    h = model.h0(0.0).to_dense() + 3.606420906372093e-08 * model.dh0_dlambda(0.0).to_dense()
    _assert_matches_complex_eigh(h, *ground_space(h))


@pytest.mark.parametrize("h", [
    -(sigma_z(5, 0) @ sigma_z(5, 1)).to_dense() + 0.3 * sigma_x(5, 2).to_dense() - 0.2 * sigma_z(5, 3).to_dense(),
    sigma_z(5, 0).to_dense(),
    np.zeros((32, 32)),
    (sigma_y(3, 0) @ sigma_z(3, 1)).to_dense() + 0.5 * sigma_x(3, 2).to_dense(),
], ids=["4-fold", "16-fold", "zero", "complex-2-fold"])
def test_ground_space_degenerate_matches_complex_eigh(h):
    _assert_matches_complex_eigh(h, *ground_space(h))


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 64), data=st.data(), seed=st.integers(0, 2**16))
def test_ground_space_planted_degeneracy_property(dim, data, seed):
    g = data.draw(st.integers(1, dim), label="g")
    h = _planted_degeneracy(dim, g, seed)
    energy, basis = ground_space(h)
    assert basis.shape[1] == g
    _assert_matches_complex_eigh(h, energy, basis)


def _planted_degeneracy(dim, g, seed):
    """Random real symmetric matrix whose g lowest levels coincide exactly."""
    rng = np.random.Generator(np.random.PCG64(seed))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    e0 = rng.uniform(-2.0, 2.0)
    levels = np.concatenate([np.full(g, e0), e0 + rng.uniform(0.1, 4.0, dim - g)])
    h = (q * levels) @ q.T
    return 0.5 * (h + h.T)


def test_ground_space_op_iterative_completes_planted_degeneracy(monkeypatch):
    # Lanczos finds the copies of a degenerate level only through rounding;
    # above the dense cap, each of 300 planted clusters (dim 8-79, g 2-8)
    # comes back whole and orthonormal, or the solve raises RacdError, as
    # ARPACK does on a few of the smallest matrices, whose Krylov space
    # nearly fills the whole space
    from racd import RacdError, dynamics

    monkeypatch.setattr(dynamics, "DENSE_MATRIX_MAX_QUBITS", 2)
    rng = np.random.Generator(np.random.PCG64(2024))
    # Lanczos alone finds 3, 5 and 3 vectors of these three clusters
    cases = [(23, 4, 20280), (73, 7, 59987), (22, 5, 4339)]
    cases += [(int(rng.integers(8, 80)), int(rng.integers(2, 9)), int(rng.integers(0, 2**16))) for _ in range(300)]
    failed = []
    for dim, g, seed in cases:
        h = _planted_degeneracy(dim, g, seed)
        try:
            _, basis = ground_space_op(h)
        except RacdError:
            failed.append((dim, g, seed))
            continue
        # the planted gap is at least 0.1, so the dense solve's cluster is the planted span
        planted = np.linalg.eigh(h)[1][:, :g]
        assert basis.shape == (dim, g), (dim, g, seed)
        assert_allclose(basis.T @ basis, np.eye(g), atol=1e-8)
        assert_allclose(basis @ basis.T, planted @ planted.T, atol=1e-8)
    assert not set(failed) & set(cases[:3])
    assert len(failed) < 30, failed


def test_ground_space_op_iterative_keeps_a_complete_cluster(monkeypatch):
    # completing a cluster leaves one that is already whole, such as a unique
    # ground state, bit for bit as Lanczos found it
    import scipy.sparse
    from scipy.sparse.linalg import eigsh
    from racd import dynamics

    h = scipy.sparse.csr_array(random_instance("qubo", 6, 0).h0(0.7).to_dense().real)
    eps, vec = eigsh(h, k=6, which="SA", v0=np.random.Generator(np.random.PCG64(0)).normal(size=64))
    monkeypatch.setattr(dynamics, "DENSE_MATRIX_MAX_QUBITS", 3)
    energy, basis = ground_space_op(h)
    assert energy == eps.min()
    assert np.array_equal(basis, np.linalg.qr(vec[:, [np.argmin(eps)]])[0])


def test_ground_space_survives_evx_nonconvergence(monkeypatch):
    from racd import dynamics

    # with the bundled LAPACK, evx's inverse iteration fails on the 32 lowest
    # levels of this 46-fold degenerate matrix ("1 eigenvectors failed to
    # converge")
    h = _planted_degeneracy(46, 46, 46)
    energy, basis = ground_space(h)
    assert basis.shape[1] == 46
    _assert_matches_complex_eigh(h, energy, basis)

    # and wherever evx raises, the full solve answers
    def evx_fails(a, **kwargs):
        if kwargs.get("driver") == "evx":
            raise np.linalg.LinAlgError("forced")
        return scipy.linalg.eigh(a, **kwargs)

    monkeypatch.setattr(dynamics, "eigh", evx_fails)
    h = _planted_degeneracy(12, 3, 5)
    energy, basis = ground_space(h)
    assert basis.shape[1] == 3
    _assert_matches_complex_eigh(h, energy, basis)


def test_ground_trace_matches_complex_eigh():
    lams = np.linspace(0.0, 1.0, 11)
    models = [ChainModel(8), random_instance("lhz", 4, 0)]
    models += [random_instance("qubo", n, seed) for n in range(3, 9) for seed in range(4)]
    for model in models:
        for lam, basis in zip(lams, ground_trace(model, lams)):
            h = model.h0(lam).to_dense()
            _assert_matches_complex_eigh(h, np.vdot(basis[:, 0], h @ basis[:, 0]).real, basis)


def test_ground_trace_iterative_matches_complex_eigh(monkeypatch):
    # the same models, every solve (sector or full space) forced above the
    # dense cap
    from racd import dynamics

    monkeypatch.setattr(dynamics, "DENSE_MATRIX_MAX_QUBITS", 2)
    test_ground_trace_matches_complex_eigh()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_ground_trace_property(data):
    # random QUBO instances (N = 3..7, any seed) and the chain (N = 4..8) at
    # any lambda in [0, 1], on the default path and forced above the dense
    # cap: the projector of the dense complex eigh of H0
    from racd import dynamics

    if data.draw(st.booleans(), label="chain"):
        model = ChainModel(data.draw(st.integers(4, 8), label="n"))
    else:
        model = random_instance("qubo", data.draw(st.integers(3, 7), label="n"),
                                data.draw(st.integers(0, 2**32 - 1), label="seed"))
    lam = data.draw(st.floats(0.0, 1.0), label="lambda")
    h = model.h0(lam).to_dense()
    (basis,) = ground_trace(model, [lam])
    _assert_matches_complex_eigh(h, np.vdot(basis[:, 0], h @ basis[:, 0]).real, basis)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "DENSE_MATRIX_MAX_QUBITS", 2)
        (basis,) = ground_trace(model, [lam])
    _assert_matches_complex_eigh(h, np.vdot(basis[:, 0], h @ basis[:, 0]).real, basis)


def _iterative_cases():
    z = [sigma_z(5, j) for j in range(5)]
    yield -(z[0] @ z[1]) + sigma_x(5, 2) * 0.3 - z[3] * 0.2  # 4-fold
    yield z[0]  # 16-fold
    yield ChainModel(6).h0(0.5)
    yield random_instance("qubo", 6, 0).h0(0.7)


@pytest.mark.parametrize("op", list(_iterative_cases()), ids=["4-fold", "16-fold", "chain-6", "qubo-6"])
def test_ground_space_op_iterative_matches_dense(monkeypatch, op):
    # above the dense cap, a degenerate ground space comes back complete and
    # orthonormal: the same projector as the dense solve
    from racd import dynamics

    energy, basis = ground_space(op.to_dense())
    monkeypatch.setattr(dynamics, "DENSE_MATRIX_MAX_QUBITS", 3)
    it_energy, it_basis = ground_space_op(op)
    assert it_energy == pytest.approx(energy, abs=1e-10)
    assert it_basis.shape == basis.shape
    assert_allclose(it_basis.conj().T @ it_basis, np.eye(basis.shape[1]), atol=1e-10)
    assert_allclose(it_basis @ it_basis.conj().T, basis @ basis.conj().T, atol=1e-10)
    _assert_matches_complex_eigh(op.to_dense(), energy, basis)
    _assert_matches_complex_eigh(op.to_dense(), it_energy, it_basis)


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
    times, states = evolve([protocol], psi0, steps=100, n_out=3)
    assert_allclose(states[-1, :, 0], psi0, atol=1e-12)


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
    _, states = evolve([protocol], psi0, steps=400, n_out=3)
    want = np.array([np.exp(-1j * tau), np.exp(1j * tau)]) / np.sqrt(2)
    overlap = abs(np.vdot(want, states[-1, :, 0])) ** 2
    assert overlap >= 1.0 - 1e-8


def test_evolve_requires_steps():
    protocol = assemble_protocol(TwoSpinModel(), None, "ua", Ramp(1.0))
    with pytest.raises(ValueError):
        evolve([protocol], np.array([1, 0, 0, 0], dtype=complex), steps=50)


def test_evolve_step_halving_converged():
    model = TwoSpinModel()
    protocol = assemble_protocol(model, None, "ua", Ramp(1.0))
    _, basis = ground_space_op(model.h0(0.0))
    psi0 = basis[:, 0]
    _, coarse = evolve([protocol], psi0, steps=1000, n_out=2)
    _, fine = evolve([protocol], psi0, steps=2000, n_out=2)
    assert np.linalg.norm(coarse[-1, :, 0] - fine[-1, :, 0]) <= 1e-6


def test_time_reversal_round_trip():
    # forward then sign-flipped reversed path returns the initial state
    model = TwoSpinModel()
    ramp = Ramp(1.0)
    forward = assemble_protocol(model, None, "ua", ramp)
    _, basis = ground_space_op(model.h0(0.0))
    psi0 = basis[:, 0]
    _, states = evolve([forward], psi0, steps=2000, n_out=2)
    psi_tau = states[-1, :, 0]

    class ReversedProtocol:
        model = forward.model
        kind = "ua"
        ramp = forward.ramp

        # evolve reads a batch's drive through Protocol.tables
        def tables(self, times, lams, lam_dots):
            back = self.ramp.tau - np.asarray(times)
            return -forward.tables(back, *self.ramp.table(back))

        def q_table(self, times):
            return {}

    _, back = evolve([ReversedProtocol()], psi_tau, steps=2000, n_out=2)
    assert abs(np.vdot(psi0, back[-1, :, 0])) ** 2 >= 1.0 - 1e-5


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
    (trace,) = run_protocol([protocol], steps=2000)
    assert trace.F[-1] == pytest.approx(0.66, abs=0.02)


def test_two_spin_ra_rotated_fidelity_near_one():
    model = TwoSpinModel()
    ramp = Ramp(1.0)
    traj = sequential_optimize(model, ramp, M=100)
    protocol = assemble_protocol(model, traj, "ra", ramp)
    (trace,) = run_protocol([protocol], steps=2000)
    assert trace.F_tilde.min() >= 1.0 - 1e-3
    assert trace.F[-1] >= 1.0 - 1e-3
    # boundary identity F~ = F at both ends
    assert trace.F_tilde[0] == pytest.approx(trace.F[0], abs=1e-6)
    assert trace.F_tilde[-1] == pytest.approx(trace.F[-1], abs=1e-6)


def test_fidelity_trace_invariants_and_csv(tmp_path):
    protocol = assemble_protocol(TwoSpinModel(), None, "ua", Ramp(1.0))
    (trace,) = run_protocol([protocol], steps=500, n_out=21)
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
        run_protocol([protocol], steps=200)


def test_exact_cd_two_spin_perfect():
    protocol = assemble_protocol(TwoSpinModel(), None, "exact-cd", Ramp(1.0))
    (trace,) = run_protocol([protocol], steps=2000)
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
        evolve([protocol], psi0, steps=100, n_out=51)


def test_hamiltonians_apply_matches_dense_hamiltonian(block_applies):
    # the grouped word-application equals explicit dense H(t) action, for
    # every protocol of one batch, with one substep made per time
    rng = np.random.Generator(np.random.PCG64(13))
    model = ChainModel(5)
    ramp = Ramp(1.0)
    traj = sequential_optimize(model, ramp, M=20)
    kinds = ("ua", "ra", "local-cd")
    protocols = [assemble_protocol(model, traj, kind, ramp) for kind in kinds]
    times = np.linspace(0.0, 1.0, 7)
    # a start outside the chain's sector: the full space
    substeps = block_applies(protocols, times, np.eye(32, dtype=complex)[1])
    assert len(substeps) == len(times)
    for idx in (0, 3, 6):
        psi = rng.normal(size=(len(kinds), 32)) + 1j * rng.normal(size=(len(kinds), 32))
        applied = substeps[idx](psi)
        # column s of each protocol's matrix is H applied to basis state s
        matrices = np.stack([substeps[idx](np.tile(e, (len(kinds), 1)))
                             for e in np.eye(32, dtype=complex)], axis=-1)
        for b, (kind, protocol) in enumerate(zip(kinds, protocols)):
            fields = protocol.field_table(times)
            h = sum(
                float(fields[t.name][idx]) * t.operator.to_dense() for t in model.terms
            )
            if kind == "local-cd":
                y = protocol.y_table(times)
                h = h + sum(
                    y[idx, j] * sigma_y_dense(5, j) for j in range(5)
                )
            assert_allclose(applied[b], h @ psi[b], atol=1e-10)
            assert_allclose(matrices[b], h, atol=1e-10)


def sigma_y_dense(n, j):
    from racd.operators import sigma_y

    return sigma_y(n, j).to_dense()


def random_trajectory(model, seed, scale=0.1, knots=6):
    rng = np.random.Generator(np.random.PCG64(seed))
    values = rng.uniform(-scale, scale, size=(knots, len(model.param_names)))
    return ParamTrajectory(np.linspace(0.0, 1.0, knots), values, model.param_names)


def dense_rk4(protocol, psi0, steps, n_out):
    """Test-local reference: RK4 on dense H(t) built term by term from the
    protocol's tables on the same substep grid; exact-CD adds
    lambda_dot * A(lambda), the spectral gauge potential of that dense H0
    with dH0/dlambda = sum_t field1_t T_t."""
    model = protocol.model
    n = model.n_qubits
    h = protocol.ramp.tau / steps
    sub = np.empty(2 * steps + 1)
    sub[0::2] = np.linspace(0.0, protocol.ramp.tau, steps + 1)
    sub[1::2] = sub[0:-1:2] + 0.5 * h
    fields = protocol.field_table(sub)
    y = protocol.y_table(sub)
    _, lam_dots = protocol.ramp.table(sub)
    terms = [t.operator.to_dense() for t in model.terms]
    ys = [sigma_y(n, j).to_dense() for j in range(n)]
    dh0_dlam = sum(t.field1 * m for t, m in zip(model.terms, terms))

    def ham(i):
        out = sum(fields[t.name][i] * m for t, m in zip(model.terms, terms))
        if protocol.kind == "exact-cd":
            out = out + lam_dots[i] * exact_agp(out, dh0_dlam)
        return out + sum(y[i, j] * ys[j] for j in range(n))

    out_idx = np.unique(np.linspace(0, steps, n_out).round().astype(int))
    psi = np.asarray(psi0, dtype=complex)
    states = []
    for k in range(steps + 1):
        if k in out_idx:
            states.append(psi)
        if k == steps:
            break
        h0, h1, h2 = ham(2 * k), ham(2 * k + 1), ham(2 * k + 2)
        k1 = -1j * h0 @ psi
        k2 = -1j * h1 @ (psi + 0.5 * h * k1)
        k3 = -1j * h1 @ (psi + 0.5 * h * k2)
        k4 = -1j * h2 @ (psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.array(states)


@settings(max_examples=30, deadline=None)
@given(
    model=st.one_of(
        st.just(TwoSpinModel()),
        st.builds(random_instance, st.just("qubo"), st.integers(2, 6), st.integers(0, 2**16)),
        st.builds(ChainModel, st.integers(4, 6)),
        st.builds(random_instance, st.just("lhz"), st.just(3), st.integers(0, 2**16)),
    ),
    order=st.permutations(["ua", "local-cd", "ra", "exact-cd"]),
    size=st.integers(1, 4),
    traj_seed=st.integers(0, 2**16),
    steps=st.integers(100, 300),
    n_out=st.integers(2, 12),
)
def test_batch_columns_match_single_and_dense_evolution(model, order, size, traj_seed, steps, n_out):
    ramp = Ramp(1.0)
    traj = random_trajectory(model, traj_seed)
    protocols = [assemble_protocol(model, traj, kind, ramp) for kind in order[:size]]
    _, basis = ground_space_op(model.h0(0.0))
    psi0 = basis[:, 0]
    try:
        times, states = evolve(protocols, psi0, steps=steps, n_out=n_out)
    except StepSizeError as exc:
        # the protocol the error names drifts on its own as well
        named = [p for p in protocols if p.kind == exc.kind]
        with pytest.raises(StepSizeError):
            evolve(named, psi0, steps=steps, n_out=n_out)
        return
    assert states.shape == (len(times), len(psi0), len(protocols))
    for b, protocol in enumerate(protocols):
        _, alone = evolve([protocol], psi0, steps=steps, n_out=n_out)
        assert_allclose(states[:, :, b], alone[:, :, 0], rtol=0, atol=1e-12)
        assert_allclose(states[:, :, b], dense_rk4(protocol, psi0, steps, n_out), rtol=0, atol=1e-12)


def test_drift_error_names_the_drifting_protocol():
    # same model and ramp; only the RA protocol's beta makes its field stiff
    model = TwoSpinModel()
    ramp = Ramp(1.0)
    stiff = ParamTrajectory(np.linspace(0.0, 1.0, 11), np.tile([3.0e3, 0.0], (11, 1)), model.param_names)
    protocols = [assemble_protocol(model, None, "ua", ramp), assemble_protocol(model, stiff, "ra", ramp)]
    _, basis = ground_space_op(model.h0(0.0))
    evolve(protocols[:1], basis[:, 0], steps=100, n_out=51)  # UA alone is fine
    with pytest.raises(StepSizeError) as err:
        evolve(protocols, basis[:, 0], steps=100, n_out=51)
    assert err.value.kind == "ra"
    with pytest.raises(StepSizeError) as err:
        run_protocol(protocols, steps=100, n_out=51)
    assert err.value.kind == "ra"


def test_batch_needs_one_model_and_ramp():
    model = TwoSpinModel()
    psi0 = np.array([1, 0, 0, 0], dtype=complex)
    with pytest.raises(ValueError):
        evolve([], psi0, steps=100)
    other_ramp = [assemble_protocol(model, None, "ua", Ramp(tau)) for tau in (1.0, 2.0)]
    other_model = [assemble_protocol(m, None, "ua", Ramp(1.0)) for m in (model, TwoSpinModel())]
    for protocols in (other_ramp, other_model):
        with pytest.raises(ValueError):
            evolve(protocols, psi0, steps=100)
        with pytest.raises(ValueError):
            run_protocol(protocols, steps=100)


def test_run_protocol_evolves_exact_cd_in_the_one_batch(monkeypatch):
    from racd import dynamics

    batches = []
    inner = dynamics.evolve

    def recording(protocols, *args, **kwargs):
        batches.append([p.kind for p in protocols])
        return inner(protocols, *args, **kwargs)

    monkeypatch.setattr(dynamics, "evolve", recording)
    model = TwoSpinModel()
    ramp = Ramp(1.0)
    protocols = [assemble_protocol(model, None, kind, ramp) for kind in ("ua", "exact-cd")]
    traces = run_protocol(protocols, steps=500, n_out=11)
    assert batches == [["ua", "exact-cd"]]
    (alone,) = run_protocol(protocols[1:], steps=500, n_out=11)
    assert_allclose(traces[1].F, alone.F, rtol=0, atol=1e-12)


def test_evolve_without_diagonal_or_off_diagonal_group():
    from racd.models import Model, ModelTerm
    from racd.operators import SpinOperator

    class OneTermModel(Model):
        kind = "chain"

        def __init__(self, word, field):
            super().__init__(1, [ModelTerm("t", SpinOperator(1, {word: 1.0}), field, 0.0, None)])

    tau = 1.0
    psi0 = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)
    # sigma_x only (no diagonal group), with local CD adding sigma_y words
    x_model = OneTermModel((1, 0), 0.7)
    protocols = [assemble_protocol(x_model, None, kind, Ramp(tau)) for kind in ("ua", "local-cd")]
    _, states = evolve(protocols, psi0, steps=400, n_out=3)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    want = np.cos(0.7 * tau) * psi0 - 1j * np.sin(0.7 * tau) * (x @ psi0)
    for b, protocol in enumerate(protocols):
        y = protocol.y_table(np.linspace(0.0, tau, 5))
        assert_allclose(y, 0.0, atol=1e-12)  # [X, Y] has no overlap with dH/dlambda = 0
        assert_allclose(states[-1, :, b], want, atol=1e-8)
    # sigma_z only (no off-diagonal group)
    z_model = OneTermModel((0, 1), 1.0)
    protocols = [assemble_protocol(z_model, None, "ua", Ramp(tau)) for _ in range(2)]
    _, states = evolve(protocols, psi0, steps=400, n_out=3)
    want = np.array([np.exp(-1j * tau), np.exp(1j * tau)]) * psi0
    assert_allclose(states[-1], np.column_stack([want, want]), atol=1e-8)


def _sector_spy(monkeypatch):
    """Record the sector of every _Group made."""
    from racd import dynamics

    seen = []
    inner = dynamics._Group

    def spy(protocols, psi0, times):
        group = inner(protocols, psi0, times)
        seen.append(group.sector)
        return group

    monkeypatch.setattr(dynamics, "_Group", spy)
    return seen


def test_chain_state_outside_the_sector_evolves_in_the_full_space(monkeypatch):
    # not exact-CD: outside k = 0, levels of other momenta cross, so the
    # spectral gauge potential there changes with the rounding of H0
    # (8e-7 between evolve and dense_rk4 on this state)
    model = ChainModel(5)
    ramp = Ramp(1.0)
    protocols = [assemble_protocol(model, random_trajectory(model, 3), kind, ramp) for kind in ("ua", "local-cd", "ra")]
    rng = np.random.Generator(np.random.PCG64(5))
    psi0 = rng.normal(size=32) + 1j * rng.normal(size=32)
    psi0 /= np.linalg.norm(psi0)
    seen = _sector_spy(monkeypatch)
    _, states = evolve(protocols, psi0, steps=150, n_out=4)
    assert seen == [None]
    for b, protocol in enumerate(protocols):
        assert_allclose(states[:, :, b], dense_rk4(protocol, psi0, 150, 4), rtol=0, atol=1e-12)
    # the ground state lies in the sector, and evolves there to the same states
    protocols.append(assemble_protocol(model, None, "exact-cd", ramp))
    _, basis = ground_space_op(model.h0(0.0))
    _, states = evolve(protocols, basis[:, 0], steps=150, n_out=4)
    assert seen[-1] is model.sector
    for b, protocol in enumerate(protocols):
        assert_allclose(states[:, :, b], dense_rk4(protocol, basis[:, 0], 150, 4), rtol=0, atol=1e-12)


def _solve_spy(monkeypatch, model):
    """Record, per ground_space_op call, whether it solved a sector matrix
    (one smaller than the model's full space)."""
    from racd import dynamics

    calls = []
    inner = dynamics.ground_space_op

    def spy(op):
        calls.append("full" if op.shape[0] == 1 << model.n_qubits else "sector")
        return inner(op)

    monkeypatch.setattr(dynamics, "ground_space_op", spy)
    return calls


def test_ground_trace_without_certificate_solves_the_full_space(monkeypatch):
    from racd import dynamics

    model = ChainModel(6)
    lams = np.linspace(0.0, 1.0, 5)
    calls = _solve_spy(monkeypatch, model)
    certified = ground_trace(model, lams)
    assert calls == ["sector"] * len(lams)
    monkeypatch.setattr(dynamics, "_one_signed", lambda basis: False)
    calls.clear()
    refused = ground_trace(model, lams)
    assert calls == ["sector", "full"] * len(lams)
    for lam, a, b in zip(lams, certified, refused):
        assert a.shape == b.shape == (64, 1)
        assert_allclose(a @ a.T, b @ b.conj().T, rtol=0, atol=1e-12)
        _assert_matches_complex_eigh(model.h0(lam).to_dense(), np.vdot(b[:, 0], model.h0(lam).to_dense() @ b[:, 0]).real, b)


def test_ground_trace_where_the_x_field_vanishes_solves_the_full_space(monkeypatch):
    # at lambda = 2 the chain's X field 1 - lambda/2 is 0: H0 is diagonal and
    # its sector ground vector has zeros, so no certificate
    model = ChainModel(5)
    calls = _solve_spy(monkeypatch, model)
    (basis,) = ground_trace(model, [2.0])
    assert calls == ["sector", "full"]
    _assert_matches_complex_eigh(model.h0(2.0).to_dense(), -2.0 * 5 - 0.4 * 5, basis)


@pytest.mark.parametrize("n", range(4, 9))
def test_chain_sector_run_matches_the_full_space_run(n):
    # a Model with the chain's terms declares no sector, so it runs the
    # full-space path on the same physics
    from racd.models import Model

    model = ChainModel(n)
    full = Model(n, model.terms)
    ramp = Ramp(1.0)
    traj = random_trajectory(model, n)
    traces = {}
    for m in (model, full):
        protocols = [assemble_protocol(m, traj, kind, ramp) for kind in ("ua", "local-cd", "ra", "exact-cd")]
        traces[m] = run_protocol(protocols, steps=120, n_out=13)
    for a, b in zip(traces[model], traces[full]):
        assert_allclose(a.F, b.F, rtol=0, atol=1e-10)
        assert_allclose(a.F_tilde, b.F_tilde, rtol=0, atol=1e-10)


def _group_start(model):
    return ground_space_op(model.h0(0.0))[1][:, 0]


@st.composite
def _groups(draw):
    """One model's protocols, exact-CD among the kinds drawn: QUBO N=2..6,
    the chain at N=4..8 (in its sector), two-spin or LHZ n=3, each with its
    own slot count, so that blocks mix dense slots with padded ones."""
    family = draw(st.sampled_from(["qubo", "chain", "two-spin", "lhz"]))
    if family == "qubo":
        model = random_instance("qubo", draw(st.integers(2, 6)), draw(st.integers(0, 2**16)))
    elif family == "chain":
        model = ChainModel(draw(st.integers(4, 8)))
    elif family == "lhz":
        model = random_instance("lhz", 3, draw(st.integers(0, 2**16)))
    else:
        model = TwoSpinModel()
    order = draw(st.permutations(["ua", "local-cd", "ra", "exact-cd"]))
    traj = random_trajectory(model, draw(st.integers(0, 2**16)))
    ramp = Ramp(1.0)
    return [assemble_protocol(model, traj, kind, ramp) for kind in order[: draw(st.integers(1, len(order)))]]


@settings(max_examples=30, deadline=None)
@given(groups=st.lists(_groups(), min_size=2, max_size=4), steps=st.integers(100, 160), n_out=st.integers(2, 12))
def test_group_block_matches_each_group_alone(groups, steps, n_out):
    from racd.dynamics import _evolve_groups

    starts = [_group_start(protocols[0].model) for protocols in groups]
    results = list(_evolve_groups(zip(groups, starts), steps, n_out))
    assert len(results) == len(groups)
    for protocols, psi0, result in zip(groups, starts, results):
        if isinstance(result, StepSizeError):
            with pytest.raises(StepSizeError) as alone:
                evolve(protocols, psi0, steps=steps, n_out=n_out)
            assert (alone.value.kind, alone.value.drift) == (result.kind, result.drift)
            continue
        _, alone = evolve(protocols, psi0, steps=steps, n_out=n_out)
        assert result.shape == alone.shape
        assert_allclose(result, alone, rtol=0, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(protocols=_groups(), n_out=st.integers(2, 6))
def test_one_drive_table_and_one_rotated_fidelity_per_protocol(protocols, n_out):
    # the drive table's columns are field_table's terms, then y_table's
    # sites for local CD; F-tilde is F except for RA, whose F-tilde is the
    # fidelity of evolve's state with the ground state rotated by q_table's Q
    model = protocols[0].model
    times = np.linspace(0.0, 1.0, 7)
    for protocol in protocols:
        table = protocol.tables(times, *protocol.ramp.table(times))
        fields, y = protocol.field_table(times), protocol.y_table(times)
        assert y.shape == (len(times), model.n_qubits)
        want = [fields[t.name] for t in model.terms] + ([y] if protocol.kind == "local-cd" else [])
        assert np.array_equal(table, np.column_stack(want))
    try:
        traces = run_protocol(protocols, steps=100, n_out=n_out)
    except StepSizeError:
        return
    bases = ground_trace(model, protocols[0].ramp.table(traces[0].times)[0])
    times, states = evolve(protocols, bases[0][:, 0], steps=100, n_out=n_out)
    for b, (protocol, trace) in enumerate(zip(protocols, traces)):
        if protocol.kind != "ra":
            assert np.array_equal(trace.F_tilde, trace.F)
            continue
        q_tables = protocol.q_table(times)
        for i, basis in enumerate(bases):
            q = np.zeros(states.shape[1])
            for term in model.terms:
                if term.param in ("gamma", "phi"):
                    q = q + q_tables[term.param][i] * term.operator.diag_vector().real
            assert trace.F_tilde[i] == rotated_fidelity(np.ascontiguousarray(states[i, :, b]), basis, q)


def test_fidelity_traces_read_each_output_point_in_place():
    # QUBO N=12, ua,local-cd,ra at 101 output points, the states as evolve hands them out (a transposed
    # view of its store) and C-contiguous: F and F-tilde equal, bit for bit, the formulas of a contiguous
    # copy of each column and an outer-product table of Q's diagonals, in under 2 MiB above the inputs
    import tracemalloc

    from racd.dynamics import _fidelity_traces

    model, ramp, n_out = random_instance("qubo", 12, 5), Ramp(1.0), 101
    protocols = [assemble_protocol(model, random_trajectory(model, 2), kind, ramp) for kind in ("ua", "local-cd", "ra")]
    rng = np.random.Generator(np.random.PCG64(9))

    def unit(*shape):
        v = rng.normal(size=(*shape, 1 << 12)) + 1j * rng.normal(size=(*shape, 1 << 12))
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    store, bases = unit(n_out, len(protocols)), list(unit(n_out)[:, :, None])
    # every protocol starts in the ground state at t = 0
    store[0] = bases[0][:, 0]
    times = np.linspace(0.0, 1.0, n_out)
    lams, _ = ramp.table(times)
    for states in (store.transpose(0, 2, 1), np.ascontiguousarray(store.transpose(0, 2, 1))):
        tracemalloc.start()
        try:
            traces = _fidelity_traces(protocols, states, times, lams, bases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        for col, (protocol, trace) in enumerate(zip(protocols, traces)):
            psi = np.ascontiguousarray(states[:, :, col])
            q_tables, q_diag = protocol.q_table(times), np.zeros(psi.shape)
            for term in model.terms:
                if term.param in ("gamma", "phi"):
                    q_diag = q_diag + np.outer(q_tables[term.param], term.operator.diag_vector().real)
            assert protocol.kind != "ra" or q_diag.any()
            assert np.array_equal(trace.F, [fidelity(p, g) for p, g in zip(psi, bases)])
            assert np.array_equal(trace.F_tilde, [rotated_fidelity(p, g, q) for p, g, q in zip(psi, bases, q_diag)])


def _stiff_protocol(field):
    from racd.models import Model, ModelTerm
    from racd.operators import SpinOperator

    class StiffModel(Model):
        kind = "chain"

        def __init__(self):
            super().__init__(1, [ModelTerm("x", SpinOperator(1, {(1, 0): 1.0}), field, 0.0, None)])

    return assemble_protocol(StiffModel(), None, "ua", Ramp(1.0))


@pytest.mark.filterwarnings("error")
def test_overflowed_state_raises_instead_of_nan_fidelities():
    # an X field of 1e200 overflows the state within 100 steps; its NaN norm
    # drift is a StepSizeError with no step-count estimate, not F = nan, and
    # no overflow warning on the way there
    from racd.cli import _annotate

    protocol = _stiff_protocol(1e200)
    with pytest.raises(StepSizeError) as err:
        run_protocol([protocol], steps=100, n_out=3)
    exc = err.value
    assert exc.kind == "ua"
    assert np.isnan(exc.drift) and exc.steps_needed() is None
    _annotate(exc, protocol.model, "evolution")
    assert str(exc) == "ua evolution failed for the chain model with 1 qubits: norm drift nan exceeds 1e-06 at 100 RK4 steps"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fidelity_trace_rejects_non_finite_values(bad):
    from racd.dynamics import FidelityTrace

    times = np.array([0.0, 0.5, 1.0])
    ok = np.array([1.0, 0.9, 0.8])
    FidelityTrace(times, times, ok, ok).validate()
    for f, f_tilde in ((np.array([1.0, bad, 0.8]), ok), (ok, np.array([1.0, 0.9, bad]))):
        with pytest.raises(ValueError, match="fidelity outside"):
            FidelityTrace(times, times, f, f_tilde).validate()


def test_drifted_groups_keep_their_own_errors_and_spare_the_others():
    import warnings

    from racd.dynamics import _evolve_groups

    psi0 = np.array([1.0, 0.0], dtype=complex)
    # the first group drifts at a later output point than the third
    late, early = [_stiff_protocol(20.0)], [_stiff_protocol(30.0)]
    model = TwoSpinModel()
    fine = [assemble_protocol(model, None, kind, Ramp(1.0)) for kind in ("ua", "exact-cd")]
    alone = {}
    for name, protocols, start in (("late", late, psi0), ("early", early, psi0)):
        with pytest.raises(StepSizeError) as err:
            evolve(protocols, start, steps=100, n_out=51)
        alone[name] = err.value
    assert alone["early"].drift != alone["late"].drift
    _, fine_alone = evolve(fine, _group_start(model), steps=100, n_out=51)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = list(_evolve_groups([(late, psi0), (fine, _group_start(model)), (early, psi0)], 100, 51))
    for result, want in ((results[0], alone["late"]), (results[2], alone["early"])):
        assert isinstance(result, StepSizeError)
        assert (result.kind, result.drift, result.steps) == (want.kind, want.drift, want.steps)
    assert np.array_equal(results[1], fine_alone)
    # run_groups: the same per-group outcomes, traces where a group ran through
    from racd.dynamics import run_groups

    outcomes = list(run_groups([late, fine, early], steps=100, n_out=51))
    assert isinstance(outcomes[0], StepSizeError) and isinstance(outcomes[2], StepSizeError)
    for got, want in zip(outcomes[1], run_protocol(fine, steps=100, n_out=51)):
        assert np.array_equal(got.F, want.F) and np.array_equal(got.F_tilde, want.F_tilde)


@pytest.mark.parametrize("steps, n_out", [(200, 1), (200, 0), (200, -3), (100, 500)])
def test_output_point_count_refused_before_any_work(monkeypatch, steps, n_out):
    # fewer than 2 output points would report F(0) as the final fidelity;
    # more than steps + 1 would be silently cut to steps + 1
    from racd import dynamics

    monkeypatch.setattr(dynamics, "ground_trace", lambda *args: pytest.fail("ground solve ran"))
    monkeypatch.setattr(dynamics, "_evolve_block", lambda *args: pytest.fail("RK4 loop ran"))
    protocols = [assemble_protocol(TwoSpinModel(), None, "ua", Ramp(1.0))]

    def groups():
        pytest.fail("a group was read")
        yield protocols

    for run in (lambda: evolve(protocols, np.eye(4)[0], steps=steps, n_out=n_out),
                lambda: run_protocol(protocols, steps=steps, n_out=n_out),
                lambda: next(dynamics.run_groups(groups(), steps=steps, n_out=n_out))):
        with pytest.raises(ValueError, match=f"n_out must be from 2 to steps \\+ 1 = {steps + 1}, got {n_out}"):
            run()


@pytest.mark.parametrize("psi0, error", [
    (np.eye(4)[0] * 2.0, "psi0 has norm 2, not 1 within 1e-06"),
    (np.full(4, np.nan), "psi0 has norm nan, not 1 within 1e-06"),
    (np.eye(3)[0], r"psi0 has shape \(3,\), not \(4,\)"),
], ids=["norm-2", "nan", "length-3"])
def test_evolve_refuses_a_start_that_is_not_a_unit_state(monkeypatch, psi0, error):
    # a start of norm 2 used to fail as a norm drift, whose step-count
    # advice cannot help, and a short one in numpy's broadcasting
    from racd import dynamics

    monkeypatch.setattr(dynamics, "_evolve_block", lambda *args: pytest.fail("RK4 loop ran"))
    model = TwoSpinModel()
    protocols = [assemble_protocol(model, None, kind, Ramp(1.0)) for kind in ("ua", "local-cd")]
    with pytest.raises(ValueError, match=error):
        evolve(protocols, psi0, steps=200)


def test_run_groups_ends_at_a_group_that_cannot_be_read(monkeypatch):
    # every group is checked against the first one's ramp, also after the
    # first block has run; a group that fails to be read is the last outcome
    from racd import dynamics

    monkeypatch.setattr(dynamics, "BLOCK_BYTES", 0)
    model = TwoSpinModel()
    ua = [assemble_protocol(model, None, "ua", Ramp(1.0))]
    other = [assemble_protocol(model, None, "ua", Ramp(2.0))]

    def broken():
        yield ua
        raise RuntimeError("synthesis failed")

    for groups, ran, error in (([ua, ua, other, ua], 2, "groups must share one ramp"),
                               (broken(), 1, "synthesis failed")):
        outcomes = list(dynamics.run_groups(groups, steps=100, n_out=3))
        assert len(outcomes) == ran + 1 and all(isinstance(o, list) for o in outcomes[:-1])
        assert str(outcomes[-1]) == error


def test_blocks_evolve_as_their_groups_are_read(monkeypatch):
    # each block's states are handed out before the groups after the next
    # one are read, so a study holds one block's states at a time
    from racd import dynamics

    monkeypatch.setattr(dynamics, "BLOCK_BYTES", 0)
    model = TwoSpinModel()
    protocols = [assemble_protocol(model, None, kind, Ramp(1.0)) for kind in ("ua", "local-cd")]
    psi0 = _group_start(model)
    read = []

    def groups():
        for g in range(4):
            read.append(g)
            yield protocols, psi0

    seen = [len(read) for _ in dynamics._evolve_groups(groups(), 100, 3)]
    assert seen == [2, 3, 4, 4]


def _substeps(tau, steps):
    """The RK4 substep grid of ``steps`` steps on [0, tau]: t_k, t_k + h/2
    interleaved, plus the final endpoint."""
    sub = np.repeat(np.linspace(0.0, tau, steps + 1), 2)[:-1]
    sub[1::2] += 0.5 * (tau / steps)
    return sub


@settings(max_examples=25, deadline=None)
@given(protocols=_groups(), tau=st.sampled_from([0.7, 1.0, 3.0]), steps=st.integers(100, 700), data=st.data())
def test_ramp_and_drive_tables_do_not_depend_on_how_the_grid_is_cut(protocols, tau, steps, data):
    # the stream evaluates the ramp once on its whole substep grid and each
    # group its drive tables TABLE_CHUNK substeps at a time; both equal any
    # other cut of the grid bit for bit
    sub = _substeps(tau, steps)
    cuts = sorted(data.draw(st.lists(st.integers(1, len(sub) - 1), max_size=6, unique=True), label="cuts"))
    pieces = [slice(a, b) for a, b in zip([0] + cuts, cuts + [len(sub)])]
    lams, lam_dots = Ramp(tau).table(sub)
    cut = [Ramp(tau).table(sub[p]) for p in pieces]
    assert np.concatenate([c[0] for c in cut]).tobytes() == lams.tobytes()
    assert np.concatenate([c[1] for c in cut]).tobytes() == lam_dots.tobytes()
    # the drives on the protocols' own ramp (tau = 1, the trajectories' span)
    sub = _substeps(1.0, steps)
    lams, lam_dots = protocols[0].ramp.table(sub)
    for protocol in protocols:
        whole = protocol.tables(sub, lams, lam_dots)
        parts = np.concatenate([protocol.tables(sub[p], lams[p], lam_dots[p]) for p in pieces])
        assert parts.tobytes() == whole.tobytes(), protocol.kind


def test_one_ramp_table_per_stream(monkeypatch):
    # every group of the stream, over several table chunks, reads the one
    # ramp table that _evolve_groups makes
    from racd import dynamics, models

    calls = []
    inner = models.Ramp.table

    def table(self, times):
        calls.append(len(times))
        return inner(self, times)

    monkeypatch.setattr(models.Ramp, "table", table)
    ramp = Ramp(1.0)
    groups = [[assemble_protocol(model, random_trajectory(model, 1), kind, ramp) for kind in ("ua", "local-cd", "ra")]
              for model in (random_instance("qubo", 3, 0), ChainModel(4), TwoSpinModel())]
    starts = [_group_start(protocols[0].model) for protocols in groups]
    calls.clear()
    results = list(dynamics._evolve_groups(zip(groups, starts), 300, 4))
    assert calls == [601]
    assert not any(isinstance(r, Exception) for r in results)


@pytest.mark.parametrize("model", [ChainModel(6), random_instance("qubo", 5, 3), random_instance("lhz", 3, 1)],
                         ids=["chain-6-sector", "qubo-5", "lhz-3"])
def test_h0_pair_is_dense_up_to_the_cap_and_sparse_above(monkeypatch, model):
    # the one H0 pair of the ground solves and exact-CD: dense at or below
    # the cap unless asked sparse, sparse above, and H_a + lambda * H_b the
    # same bits either way
    import scipy.sparse

    from racd import dynamics

    dim = model.sector.dim if model.sector is not None else 1 << model.n_qubits
    cap = int(np.ceil(np.log2(dim)))
    monkeypatch.setattr(dynamics, "DENSE_MATRIX_MAX_QUBITS", cap)
    dense = dynamics._h0_pair(model, model.sector)
    assert all(isinstance(m, np.ndarray) and m.shape == (dim, dim) for m in dense)
    assert all(scipy.sparse.issparse(m) for m in dynamics._h0_pair(model, model.sector, dense=False))
    monkeypatch.setattr(dynamics, "DENSE_MATRIX_MAX_QUBITS", cap - 1)
    above = dynamics._h0_pair(model, model.sector)
    assert all(scipy.sparse.issparse(m) for m in above)
    for lam in Ramp(1.0).table(np.linspace(0.0, 1.0, 21))[0]:
        assert (dense[0] + lam * dense[1]).tobytes() == (above[0] + lam * above[1]).toarray().tobytes()


@pytest.mark.parametrize("model", [random_instance("qubo", 4, 2), ChainModel(4)], ids=["qubo-4", "chain-4-sector"])
def test_ground_trace_makes_only_each_lambdas_full_space_h0_dense(monkeypatch, model):
    # a dense full-space pair, held for the whole trace, took the peak RSS of
    # a QUBO trace at N = 12 from 360 to 612 MB: the full space's pair stays
    # sparse and ground_space_op densifies each lambda's H0; a sector's is dense
    import scipy.sparse

    from racd import dynamics

    forms, solve = [], dynamics.ground_space_op
    monkeypatch.setattr(dynamics, "ground_space_op", lambda op: forms.append(op) or solve(op))
    # the chain's X field vanishes at lambda = 2, where its sector answer has no certificate
    dynamics.ground_trace(model, [0.0, 0.5, 1.0, 2.0])
    assert {op.shape[0] for op in forms} >= {1 << model.n_qubits}
    assert all(scipy.sparse.issparse(op) == (op.shape[0] == 1 << model.n_qubits) for op in forms)


@pytest.mark.parametrize("n, seed", [(2, 0), (3, 9), (4, 39), (6, 36)])
def test_fidelity_past_one_within_the_accepted_drift_is_a_trace(n, seed):
    # F <= |psi|^2: exact-CD at 100 steps ends with norms 1 + 1.5e-9 to
    # 1 + 5.9e-7, within NORM_DRIFT_TOL, so its F past 1 + 1e-9 is no error
    from racd.dynamics import FIDELITY_MAX

    protocol = assemble_protocol(random_instance("qubo", n, seed), None, "exact-cd", Ramp(1.0))
    (trace,) = run_protocol([protocol], steps=100, n_out=2)
    assert 1.0 + 1e-9 < trace.F[-1] <= FIDELITY_MAX


def test_fidelity_bound_is_the_accepted_norm_drift():
    from racd.dynamics import FIDELITY_MAX, NORM_DRIFT_TOL, FidelityTrace

    assert FIDELITY_MAX == (1.0 + NORM_DRIFT_TOL) ** 2
    times = np.array([0.0, 1.0])
    FidelityTrace(times, times, np.array([1.0, FIDELITY_MAX]), np.array([1.0, FIDELITY_MAX])).validate()
    above = np.array([1.0, np.nextafter(FIDELITY_MAX, 2.0)])
    for F, F_tilde in ((above, np.ones(2)), (np.ones(2), above)):
        with pytest.raises(ValueError, match="fidelity outside"):
            FidelityTrace(times, times, F, F_tilde).validate()
