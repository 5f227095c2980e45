import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from racd import RacdError
from racd.agp import (
    LocalCdError,
    LocalCdSolver,
    action_oracle,
    exact_agp,
    g_operator,
    local_cd_coeffs,
    ra_agp,
)
from racd.closed_form import two_level_phi0, two_level_optimum, chain_alpha_coefficients, chain_basis_sums
from racd.models import ChainModel, QuboModel, TwoSpinModel, random_instance
from racd.operators import SpinOperator, commutator, sigma_x, sigma_y, sigma_z


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


# -- exact AGP ---------------------------------------------------------------

def test_exact_agp_zero_for_commuting_derivative():
    h = np.diag([0.0, 1.0, 3.0]).astype(complex)
    assert_allclose(exact_agp(h, 2.0 * h), np.zeros((3, 3)), atol=1e-14)


def test_exact_agp_single_qubit_rotation():
    # H(theta) = cos(theta) Z + sin(theta) X  =>  AGP = Y/2
    sy = sigma_y(1, 0).to_dense()
    for theta in (0.3, 1.2, 2.5):
        h = np.cos(theta) * sigma_z(1, 0).to_dense() + np.sin(theta) * sigma_x(1, 0).to_dense()
        dh = -np.sin(theta) * sigma_z(1, 0).to_dense() + np.cos(theta) * sigma_x(1, 0).to_dense()
        assert_allclose(exact_agp(h, dh), 0.5 * sy, atol=1e-12)


def test_exact_agp_minimizes_action_densely():
    # G built from the exact AGP beats 100 random perturbations
    rng = np.random.Generator(np.random.PCG64(0))
    h = random_hermitian(8, rng)
    dh = random_hermitian(8, rng)
    a_star = exact_agp(h, dh)

    def action(a):
        g = dh - 1j * (h @ a - a @ h)
        return float(np.vdot(g, g).real)

    s_star = action(a_star)
    for _ in range(100):
        assert action(a_star + 0.1 * random_hermitian(8, rng)) >= s_star - 1e-9


def test_exact_agp_two_spin_analytic():
    # -(phi0/2)(XY + YX) in lambda-derivative form
    model = TwoSpinModel()
    lam = 0.4
    h0 = model.h0(lam).to_dense()
    dh0 = model.dh0_dlambda(lam).to_dense()
    agp = exact_agp(h0, dh0)
    fd = model.ua_fields(lam, 1.0)  # lambda_dot = 1 gives lambda-derivatives
    phi0 = two_level_phi0(fd)
    xy = (sigma_x(2, 0) @ sigma_y(2, 1) + sigma_y(2, 0) @ sigma_x(2, 1)).to_dense()
    assert_allclose(agp, -0.5 * phi0 * xy, atol=1e-12)


def test_exact_agp_hermitian_and_input_check():
    rng = np.random.Generator(np.random.PCG64(1))
    h = random_hermitian(6, rng)
    dh = random_hermitian(6, rng)
    a = exact_agp(h, dh)
    assert_allclose(a, a.conj().T, atol=1e-12)
    with pytest.raises(ValueError):
        exact_agp(h + 1j * np.eye(6), dh)
    # off by 1e-6, which a relative tolerance would let through
    with pytest.raises(ValueError):
        exact_agp(np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]]), np.eye(2))


# -- rotated-ansatz AGP -------------------------------------------------------

def test_ra_agp_zero_params():
    model = TwoSpinModel()
    fd = model.ua_fields(0.3, 0.8)
    assert_allclose(ra_agp(model, fd, (0.0, 0.0)), np.zeros((4, 4)), atol=1e-14)


def test_ra_agp_two_spin_structure_at_optimum():
    model = TwoSpinModel()
    lam, lam_dot = 0.37, 1.21
    fd = model.ua_fields(lam, lam_dot)
    beta, gamma = two_level_optimum(fd)
    a = ra_agp(model, fd, (beta, gamma))
    # expansion: beta*o + a_xx (XX - YY) + a_xy (XY + YX) with a_xx = 0,
    # a_xy = -phi0/2
    phi0 = two_level_phi0(fd)
    o_op = 0.5 * (
        (sigma_x(2, 0) @ sigma_x(2, 1)) + (sigma_y(2, 0) @ sigma_y(2, 1))
    ) + (sigma_z(2, 0) @ sigma_z(2, 1))
    xy = (sigma_x(2, 0) @ sigma_y(2, 1)) + (sigma_y(2, 0) @ sigma_x(2, 1))
    want = beta * o_op.to_dense() + (-0.5 * phi0) * xy.to_dense()
    assert_allclose(a, want, atol=1e-10)


def test_ra_agp_chain_six_coefficient_expansion():
    # dense RA gauge potential equals the closed-form expansion on the basis sums
    rng = np.random.Generator(np.random.PCG64(2))
    model = ChainModel(4)
    basis = chain_basis_sums(4)
    names = ("x", "y", "xz", "yz", "zxz", "zyz")
    for _ in range(10):
        lam = rng.uniform(0, 1)
        lam_dot = rng.uniform(-2, 2)
        beta, gamma, phi = rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(-1, 1)
        fd = model.ua_fields(lam, lam_dot)
        alphas = chain_alpha_coefficients(fd, beta, gamma, phi)
        want = sum(alphas[n] * b.to_dense() for n, b in zip(names, basis))
        assert_allclose(ra_agp(model, fd, (beta, gamma, phi)), want, atol=1e-10)


def test_ra_agp_continuous_to_zero():
    model = ChainModel(4)
    fd = model.ua_fields(0.5, 1.0)
    norms = []
    for eps in (1e-2, 1e-4, 1e-6):
        a = ra_agp(model, fd, (eps, eps, eps))
        norms.append(np.abs(a).max())
    assert norms[0] > norms[1] > norms[2]
    assert norms[2] < 1e-4


# -- G operator and oracle ----------------------------------------------------

def test_g_operator_zero_agp():
    model = TwoSpinModel()
    fd = model.ua_fields(0.6, 0.9)
    assert_allclose(g_operator(model, fd, np.zeros((4, 4))), model.dh0_dt(0.6, 0.9).to_dense(), atol=1e-14)


def test_g_operator_exact_agp_orthogonal_to_commutators():
    # with the exact AGP, Tr(G [H0, X]) = 0 for any Hermitian X
    rng = np.random.Generator(np.random.PCG64(3))
    model = ChainModel(4)
    lam, lam_dot = 0.45, 1.4
    h0 = model.h0(lam).to_dense()
    agp = exact_agp(h0, model.dh0_dlambda(lam).to_dense())
    g = g_operator(model, model.ua_fields(lam, lam_dot), lam_dot * agp)
    for _ in range(20):
        x = random_hermitian(16, rng)
        comm = h0 @ x - x @ h0
        assert abs(np.trace(g @ comm)) < 1e-9


def test_g_operator_two_spin_optimum_commutes():
    # the optimal RA implements the exact two-level AGP: G has no component
    # off-diagonal in the instantaneous eigenbasis, i.e. [G, H0] = 0
    model = TwoSpinModel()
    lam, lam_dot = 0.52, 1.1
    fd = model.ua_fields(lam, lam_dot)
    beta, gamma = two_level_optimum(fd)
    g = g_operator(model, fd, ra_agp(model, fd, (beta, gamma)))
    h0 = model.h0(lam).to_dense()
    assert np.abs(h0 @ g - g @ h0).max() < 1e-10


def test_action_oracle_zero_ansatz_and_nonnegativity():
    rng = np.random.Generator(np.random.PCG64(4))
    model = ChainModel(4)
    for _ in range(10):
        lam, lam_dot = rng.uniform(0, 1), rng.uniform(-2, 2)
        fd = model.ua_fields(lam, lam_dot)
        zero = action_oracle(model, fd, (0.0, 0.0, 0.0))
        dh = model.dh0_dt(lam, lam_dot).to_dense()
        assert zero == pytest.approx(float(np.vdot(dh, dh).real), rel=1e-12)
        s = action_oracle(model, fd, (rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(-1, 1)))
        assert s >= 0.0


def test_action_oracle_exact_agp_is_global_minimum():
    rng = np.random.Generator(np.random.PCG64(5))
    model = TwoSpinModel()
    lam, lam_dot = 0.31, 0.7
    h0 = model.h0(lam).to_dense()
    dh = model.dh0_dt(lam, lam_dot).to_dense()
    agp = exact_agp(h0, model.dh0_dlambda(lam).to_dense())

    def action_of(a):
        g = dh - 1j * (h0 @ a - a @ h0)
        return float(np.vdot(g, g).real)

    s_star = action_of(lam_dot * agp)
    for _ in range(100):
        perturbed = lam_dot * agp + 0.05 * random_hermitian(4, rng)
        assert action_of(perturbed) >= s_star - 1e-10


# -- local CD ------------------------------------------------------------------

def test_local_cd_two_spin_symmetric():
    model = TwoSpinModel()
    alpha = local_cd_coeffs(model.h0(0.4), model.dh0_dlambda(0.4))
    assert alpha[0] == pytest.approx(alpha[1], abs=1e-12)


def test_local_cd_chain_translation_invariant():
    model = ChainModel(5)
    alpha = local_cd_coeffs(model.h0(0.7), model.dh0_dlambda(0.7))
    assert np.ptp(alpha) < 1e-10


def test_local_cd_matches_direct_minimization():
    from racd.optimizer import bfgs_minimize

    model = random_instance("qubo", 4, 17)
    lam = 0.56
    h0 = model.h0(lam)
    dh0 = model.dh0_dlambda(lam)
    alpha = local_cd_coeffs(h0, dh0)

    h0_m = h0.to_dense()
    dh_m = dh0.to_dense()
    ys = [sigma_y(4, j).to_dense() for j in range(4)]

    def action(a):
        op = sum(ai * y for ai, y in zip(a, ys))
        g = dh_m - 1j * (h0_m @ op - op @ h0_m)
        return float(np.vdot(g, g).real)

    res = bfgs_minimize(action, np.zeros(4))
    assert_allclose(alpha, res.x, atol=1e-6)


def test_local_cd_solver_matches_function():
    model = ChainModel(6)
    solver = LocalCdSolver(model)
    for lam in (0.2, 0.5, 0.9):
        assert_allclose(
            solver.solve_batch([lam])[0], local_cd_coeffs(model.h0(lam), model.dh0_dlambda(lam)), atol=1e-10
        )


@settings(max_examples=40, deadline=None)
@given(
    model=st.one_of(
        st.builds(random_instance, st.just("qubo"), st.integers(2, 6), st.integers(0, 2**16)),
        st.builds(random_instance, st.just("lhz"), st.integers(3, 4), st.integers(0, 2**16)),
        st.builds(ChainModel, st.integers(3, 6)),
    ),
    inner=st.lists(st.floats(0.0, 1.0), max_size=4),
)
def test_local_cd_solver_matches_function_property(model, inner):
    lams = [0.0, *inner, 1.0]
    batch = LocalCdSolver(model).solve_batch(lams)
    for lam, alpha in zip(lams, batch):
        assert_allclose(alpha, local_cd_coeffs(model.h0(lam), model.dh0_dlambda(lam)), atol=1e-10)


def test_local_cd_uncoupled_qubit_is_least_norm():
    # qubit 2 has no field and no coupling, so at lambda = 1 (no transverse
    # field) D_2 = 0 and the normal system is singular but consistent
    J = random_instance("qubo", 4, 3).couplings.copy()
    J[2, :] = J[:, 2] = 0.0
    model = QuboModel(J)
    lams = [0.0, 0.5, 1.0]
    batch = LocalCdSolver(model).solve_batch(lams)
    assert batch[2, 1] == 0.0
    for lam, alpha in zip(lams, batch):
        assert_allclose(alpha, local_cd_coeffs(model.h0(lam), model.dh0_dlambda(lam)), atol=1e-10)


def test_local_cd_coefficients_do_not_depend_on_the_batch():
    # lambda = 1 makes the batch singular (see the test above); every other
    # point must still get the coefficients of its own solve
    J = random_instance("qubo", 4, 3).couplings.copy()
    J[2, :] = J[:, 2] = 0.0
    solver = LocalCdSolver(QuboModel(J))
    lams = np.linspace(0.0, 1.0, 11)
    batch = solver.solve_batch(lams)
    for lam, alpha in zip(lams, batch):
        assert np.array_equal(alpha, solver.solve_batch([lam])[0]), lam


def test_local_cd_inconsistent_system_raises():
    from racd.agp import _solve_normal

    assert issubclass(LocalCdError, RacdError) and issubclass(LocalCdError, ArithmeticError)
    # a zero normal matrix with a nonzero right-hand side has no solution
    with pytest.raises(LocalCdError):
        _solve_normal(np.zeros((1, 1, 1, 1)), np.ones((1, 1, 1)), np.ones((1, 1)), np.ones(1))


def test_local_cd_requires_real_symmetric():
    h = SpinOperator(2, {(0b01, 0b01): 1j})  # a sigma-y term
    with pytest.raises(ValueError):
        local_cd_coeffs(h, h)


# -- two-operator CD triviality -------------------------------------------------

def test_two_operator_cd_never_beats_trivial():
    from racd.closed_form import action_cd_two_param

    model = TwoSpinModel()
    h_q = model.term_by_param("gamma").operator
    h_k = model.term_by_param("beta").operator
    comm = commutator(h_q, h_k)
    from racd.operators import trace_product

    c = -trace_product(comm, comm).real
    assert c >= 0.0  # dense quadratic coefficient is nonnegative
    rng = np.random.Generator(np.random.PCG64(6))
    A0, B0, dA0, dB0 = 2.3, -1.0, -5.0, 0.0
    s0 = action_cd_two_param(h_q, h_k, A0, B0, dA0, dB0, 0.0, 0.0)
    for _ in range(200):
        aa, ab = rng.uniform(-3, 3, 2)
        assert action_cd_two_param(h_q, h_k, A0, B0, dA0, dB0, aa, ab) >= s0 - 1e-10
