import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from racd import closed_form as cf
from racd.agp import action_oracle
from racd.models import ChainModel, LhzModel, QuboModel, Ramp, TwoSpinModel, random_instance
from racd.optimizer import make_action_objective

RNG = np.random.Generator(np.random.PCG64(2024))


def random_fd(model, rng):
    return {t.name: (rng.uniform(-2.0, 2.0), rng.uniform(-3.0, 3.0)) for t in model.terms}


# -- two-level -----------------------------------------------------------------

def test_two_level_zero_params_value():
    fd = {"h": (1.7, -0.4), "J": (-1.0, 0.9)}
    # alphas vanish, so S = 6 dJ^2 + 2 dJ^2 + 8 dh^2 = 8 dJ^2 + 8 dh^2
    want = 8.0 * 0.9**2 + 8.0 * 0.4**2
    assert cf.action_two_level(fd, 0.0, 0.0) == pytest.approx(want, rel=1e-14)


def test_two_level_matches_oracle():
    model = TwoSpinModel()
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(100):
        fd = random_fd(model, rng)
        beta, gamma = rng.uniform(-2, 2), rng.uniform(-1, 1)
        oracle = action_oracle(model, fd, (beta, gamma))
        closed = cf.action_two_level(fd, beta, gamma)
        assert closed == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_two_level_optimum_trivial_when_no_rotation_needed():
    fd = {"h": (2.0, 0.0), "J": (1.0, 0.0)}  # phi0 = 0, J0 > 0
    beta, gamma = cf.two_level_optimum(fd)
    assert beta == pytest.approx(0.0, abs=1e-15)
    assert gamma == pytest.approx(0.0, abs=1e-15)


def test_two_level_optimum_negative_coupling_branch():
    # phi0 = 0, J0 = -1: the branch continuously connected to (0, 0).  The
    # equal-action alternative (beta, gamma) = (2, pi/4) jumps at the protocol
    # endpoints, which the boundary conditions exclude.
    fd = {"h": (2.0, 0.0), "J": (-1.0, 0.0)}
    beta, gamma = cf.two_level_optimum(fd)
    assert beta == pytest.approx(0.0, abs=1e-15)
    assert gamma == pytest.approx(0.0, abs=1e-15)
    # and the returned point is a minimum against a local grid scan
    s0 = cf.action_two_level(fd, beta, gamma)
    for db in np.linspace(-0.2, 0.2, 9):
        for dg in np.linspace(-0.2, 0.2, 9):
            assert cf.action_two_level(fd, beta + db, gamma + dg) >= s0 - 1e-12


def test_two_level_optimum_grid_scan_along_protocol():
    model = TwoSpinModel()
    ramp = Ramp(1.0)
    for t in (0.15, 0.4, 0.62, 0.88):
        lam, lam_dot = ramp(t)
        fd = model.ua_fields(lam, lam_dot)
        beta, gamma = cf.two_level_optimum(fd)
        s0 = cf.action_two_level(fd, beta, gamma)
        grid = np.linspace(-0.3, 0.3, 41)
        values = [
            cf.action_two_level(fd, beta + db, gamma + dg) for db in grid for dg in grid
        ]
        assert s0 <= min(values) + 1e-10


def test_two_level_optimum_zeroes_gradient():
    model = TwoSpinModel()
    ramp = Ramp(1.0)
    h = 1e-6
    for t in (0.2, 0.5, 0.8):
        lam, lam_dot = ramp(t)
        fd = model.ua_fields(lam, lam_dot)
        beta, gamma = cf.two_level_optimum(fd)
        gb = (cf.action_two_level(fd, beta + h, gamma) - cf.action_two_level(fd, beta - h, gamma)) / (2 * h)
        gg = (cf.action_two_level(fd, beta, gamma + h) - cf.action_two_level(fd, beta, gamma - h)) / (2 * h)
        assert np.hypot(gb, gg) <= 1e-8 * max(1.0, cf.action_two_level(fd, beta, gamma))


def test_two_level_optimum_undefined_angle():
    with pytest.raises(cf.UndefinedAngleError):
        cf.two_level_optimum({"h": (1.0, 0.0), "J": (0.0, 0.0)})


# -- chain ----------------------------------------------------------------------

def test_chain_zero_params_value():
    fd = {"J": (0.3, 1.1), "h": (0.9, -0.55), "b": (0.06, 0.22)}
    want = 1.1**2 + 0.55**2 + 0.22**2  # dJ^2 + dh^2 + db^2 per site
    assert cf.action_chain(fd, 0.0, 0.0, 0.0) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [4, 5])
def test_chain_matches_oracle(n):
    model = ChainModel(n)
    rng = np.random.Generator(np.random.PCG64(40 + n))
    norm = n * 2.0**n
    for _ in range(100):
        fd = random_fd(model, rng)
        x = rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(-1, 1)
        oracle = action_oracle(model, fd, x) / norm
        closed = cf.action_chain(fd, *x)
        assert closed == pytest.approx(oracle, rel=1e-8, abs=1e-12)


def test_chain_gram_is_size_independent():
    assert_allclose(cf._chain_gram(4), cf._chain_gram(5), atol=1e-12)
    assert_allclose(cf._chain_gram(4), cf._chain_gram(6), atol=1e-12)


def test_chain_per_site_oracle_n_independent():
    rng = np.random.Generator(np.random.PCG64(7))
    m4, m5 = ChainModel(4), ChainModel(5)
    for _ in range(20):
        fd = random_fd(m4, rng)
        x = rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(-1, 1)
        s4 = action_oracle(m4, fd, x) / (4 * 2.0**4)
        s5 = action_oracle(m5, fd, x) / (5 * 2.0**5)
        assert abs(s4 - s5) <= 1e-10 * max(1.0, abs(s4))


# -- QUBO -----------------------------------------------------------------------

def test_qubo_zero_params_value():
    model = random_instance("qubo", 5, 31)
    J = model.couplings
    dA0, dB0 = 1.3, -0.8
    fd = {"A": (0.6, dA0), "B": (0.4, dB0)}
    want = dA0**2 * (0.5 * (J[1:, 1:] ** 2).sum() + (J[1:, 0] ** 2).sum()) + 5 * dB0**2
    assert cf.action_qubo(J, fd, 0.0, 0.0) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [4, 5])
def test_qubo_matches_oracle(n):
    model = random_instance("qubo", n, 100 + n)
    rng = np.random.Generator(np.random.PCG64(50 + n))
    for _ in range(100):
        fd = random_fd(model, rng)
        beta, gamma = rng.uniform(-2, 2), rng.uniform(-1, 1)
        oracle = action_oracle(model, fd, (beta, gamma)) / 2.0**n
        closed = cf.action_qubo(model.couplings, fd, beta, gamma)
        assert closed == pytest.approx(oracle, rel=1e-8, abs=1e-12)


def test_qubo_integer_coupling_periodicity():
    # with integer couplings the action is invariant under gamma -> gamma + pi
    rng = np.random.Generator(np.random.PCG64(9))
    n = 4
    J = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        for k in range(j + 1, n + 1):
            J[j, k] = J[k, j] = float(rng.integers(-2, 3))
    fd = {"A": (0.7, 1.2), "B": (0.5, -0.9)}
    for _ in range(10):
        beta, gamma = rng.uniform(-1, 1), rng.uniform(-1, 1)
        assert cf.action_qubo(J, fd, beta, gamma) == pytest.approx(
            cf.action_qubo(J, fd, beta, gamma + np.pi), rel=1e-10
        )


def test_qubo_asymmetric_raises():
    J = np.zeros((4, 4))
    J[1, 2] = 1.0
    with pytest.raises(ValueError):
        cf.action_qubo(J, {"A": (1, 0), "B": (1, 0)}, 0.0, 0.0)
    with pytest.raises(ValueError):
        cf.action_qubo(J, {"A": (1, 0), "B": (1, 0)}, 0.0, 0.3, {})
    # the objective's kernel, and with it the check of J, is built with the
    # objective, before anything is evaluated
    model = random_instance("qubo", 3, 0)
    model.couplings = J
    with pytest.raises(ValueError, match="symmetric"):
        make_action_objective(model, 0.5, 1.0)


def _qubo_sums_tensor(J, gamma):
    """cf.QuboKernel's sums with the pair products taken over full (N+1)^3
    tensors, in the same evaluation order; each hole product is its row's
    product divided by the cosine left out."""
    n = J.shape[0] - 1
    theta = 2.0 * gamma * J
    w = J[1:, :] * np.sin(theta)[1:, :]
    cos_rows = np.cos(theta)[1:, :]
    f1 = cos_rows.prod(axis=1)
    q = w / cos_rows
    sq = q.sum(axis=1)
    e1 = f1 * sq
    cross = f1 * (sq**2 - (q**2).sum(axis=1))
    f2 = np.cos(2.0 * theta)[1:, :].prod(axis=1)
    t_row = (J[1:, :] ** 2).sum(axis=1)
    e2 = t_row * f1 - cross
    mp = np.cos(2.0 * gamma * (J[:, None, :] + J[None, :, :]))
    mm = np.cos(2.0 * gamma * (J[:, None, :] - J[None, :, :]))
    idx = np.arange(n + 1)
    for m in (mp, mm):
        m[idx, :, idx] = 1.0  # m == j
        m[:, idx, idx] = 1.0  # m == k
    sin_sq = np.sin(theta) ** 2
    pair_sum = float((sin_sq * (mp.prod(axis=2) + mm.prod(axis=2)))[1:, 1:].sum())
    sin2_sum = float(sin_sq[1:, 1:].sum())
    tau_hp2 = 0.5 * float((J[1:, 1:] ** 2).sum()) + float((J[1:, 0] ** 2).sum())
    sums = (t_row.sum(), e2.sum(), e1.sum(), (1.0 - f2).sum(), sin2_sum, pair_sum)
    return (tau_hp2, n) + tuple(float(v) for v in sums)


def _action_qubo_tensor(J, fd, beta, gamma):
    tau_hp2, n, t_sum, e2_sum, e1_sum, f2_sum, sin2_sum, pair_sum = _qubo_sums_tensor(J, gamma)
    A0, dA0 = fd["A"]
    B0, dB0 = fd["B"]
    bt = B0 + beta
    s = dA0**2 * tau_hp2 + n * dB0**2
    s += 4.0 * A0**2 * (B0**2 + bt**2) * t_sum
    s -= 8.0 * A0**2 * B0 * bt * e2_sum
    s -= 4.0 * bt * (B0 * dA0 - dB0 * A0) * e1_sum
    s += 2.0 * B0**2 * bt**2 * f2_sum
    s += 4.0 * B0**2 * bt**2 * sin2_sum
    s += 4.0 * B0**2 * bt**2 * pair_sum
    return float(s)


def _bits(values):
    return np.array(values, dtype=float).tobytes()


_field = st.floats(-3.0, 3.0)
_gamma = st.one_of(st.sampled_from([0.0, -0.0, np.pi / 4, -np.pi / 8]), st.floats(-4.0, 4.0))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**16),
    integer=st.booleans(),
    fd=st.fixed_dictionaries({"A": st.tuples(_field, _field), "B": st.tuples(_field, _field)}),
    betas=st.lists(_field, min_size=1, max_size=3),
    gamma=_gamma,
)
def test_qubo_action_bit_identical_to_tensor_form(n, seed, integer, fd, betas, gamma):
    # the cache and the one-triangle pair products change no bit: the angle
    # sums, and every action call, first or repeated, with and without a
    # cache, equal the full-tensor evaluation exactly
    J = random_instance("qubo", n, seed).couplings
    if integer:  # repeated coupling values
        J = np.round(2.0 * J)
    cache = {}
    for g in (gamma, -gamma):  # 0.0 and -0.0 share one entry
        assert _bits(cf.QuboKernel(J)(g)) == _bits(_qubo_sums_tensor(J, g))
        for beta in betas + betas:
            want = _bits(_action_qubo_tensor(J, fd, beta, g))
            assert _bits(cf.action_qubo(J, fd, beta, g)) == want
            assert _bits(cf.action_qubo(J, fd, beta, g, cache)) == want
    assert len(cache) == (1 if gamma == 0.0 else 2)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**16),
    lam=st.floats(0.0, 1.0),
    lam_dot=_field,
    betas=st.lists(_field, min_size=1, max_size=3),
    gamma=_gamma,
)
def test_qubo_objective_bit_identical_to_tensor_form(n, seed, lam, lam_dot, betas, gamma):
    model = random_instance("qubo", n, seed)
    fd = model.ua_fields(lam, lam_dot)
    objective = make_action_objective(model, lam, lam_dot)
    for beta in betas + betas:
        want = _bits(_action_qubo_tensor(model.couplings, fd, beta, gamma))
        assert _bits(objective(np.array([beta, gamma]))) == want


def test_qubo_kernel_multi_block_bit_identical_to_tensor_form():
    # at N=70 the pairs span two _pair_blocks blocks, the second one built
    # per call in the first one's buffer
    J = random_instance("qubo", 70, 5).couplings
    kernel = cf.QuboKernel(J)
    assert len(cf._pair_blocks(70)) == 2
    for gamma in (0.0, -0.0, 0.013, -0.41, 1.7):
        assert _bits(kernel(gamma)) == _bits(_qubo_sums_tensor(J, gamma))


def test_qubo_kernel_reuse_bit_identical_to_fresh():
    # one kernel at interleaved gammas, and two models' kernels in turn:
    # buffers reused across calls and across kernels change no bit
    models = [random_instance("qubo", 7, 11), random_instance("qubo", 4, 12)]
    gammas = (0.3, -0.2, 0.3, 1.1, -0.0, 0.0, -0.2, 0.7)
    fresh = {(i, g): _bits(cf.QuboKernel(m.couplings)(g)) for i, m in enumerate(models) for g in gammas}
    kernels = [cf.QuboKernel(m.couplings) for m in models]
    for g in gammas:
        for i, kernel in enumerate(kernels):
            assert _bits(kernel(g)) == fresh[i, g]
    for g in gammas + gammas[::-1]:
        assert _bits(kernels[0](g)) == fresh[0, g]
    # and each objective, evaluated through its own kernel at many gammas
    ramp = Ramp(1.0)
    for t in (0.2, 0.5):
        objective = make_action_objective(models[0], *ramp(t))
        for g in gammas:
            want = _action_qubo_tensor(models[0].couplings, models[0].ua_fields(*ramp(t)), 0.4, g)
            assert _bits(objective(np.array([0.4, g]))) == _bits(want)


@pytest.mark.parametrize("J, message", [
    (random_instance("qubo", 5, 3).couplings + np.diag(np.r_[0.0, 0.0, 0.3, 0.0, 0.0, 0.0]),
     "couplings must have zero diagonal"),
    (np.array([[0.0, 0.5], [0.5, 0.0]]), r"couplings must be a square \(N\+1\)x\(N\+1\) matrix, N >= 2"),
])
def test_qubo_couplings_refused_as_by_the_model(J, message):
    # a diagonal only shifts H_p by a multiple of the identity, so no
    # QuboModel holds one, and N = 1 is no QuboModel either: the closed form
    # refuses both with the model's own message
    fd = {"A": (0.6, 1.3), "B": (0.4, -1.3)}
    with pytest.raises(ValueError, match=message):
        QuboModel(J)
    with pytest.raises(ValueError, match=message):
        cf.QuboKernel(J)
    with pytest.raises(ValueError, match=message):
        cf.action_qubo(J, fd, 0.2, 0.3)
    model = random_instance("qubo", 3, 0)
    model.couplings = J
    with pytest.raises(ValueError, match=message):
        make_action_objective(model, 0.5, 1.0)


def test_qubo_diagonal_within_tolerance_gives_zero_diagonal_action():
    # a diagonal of at most 1e-12 is accepted, and ignored as H_p ignores it;
    # with couplings of 1e-5 it would otherwise show in the last digits
    diag = np.diag(np.r_[1e-12, -1e-12, 5e-13, 0.0, -3e-13, 1e-12, 7e-13])
    fd = {"A": (0.6, 1.3), "B": (0.4, -1.3)}
    for scale in (1.0, 1e-5):
        J = scale * random_instance("qubo", 6, 3).couplings
        for gamma in (0.3, -1.1, 3e4):
            assert _bits(cf.action_qubo(J + diag, fd, 0.2, gamma)) == _bits(cf.action_qubo(J, fd, 0.2, gamma))
            assert _bits(cf.QuboKernel(J + diag)(gamma)) == _bits(cf.QuboKernel(J)(gamma))


def test_cos_has_no_exact_zero_at_a_double():
    # QuboKernel divides by the cosines of its angles; that is defined
    # because np.cos is never exactly 0 at a finite double: not at the
    # doubles at and next to odd multiples of pi/2, nor at the hardest
    # argument to reduce, 6381956970095103 * 2^797 (Kahan and McDonald)
    k = np.arange(1, 20001, 2, dtype=float)
    x = k * (np.pi / 2)
    near = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf), -x])
    assert np.all(np.cos(near) != 0.0)
    assert np.cos(np.ldexp(6381956970095103.0, 797)) != 0.0
    # and at those points the kernel's sums stay finite
    J = random_instance("qubo", 4, 0).couplings
    assert np.isfinite(cf.QuboKernel(J)(np.pi / (4.0 * J[1, 2]))).all()


def test_qubo_objective_caches_stay_apart():
    # objectives for two models and two grid points, evaluated at one gamma
    # in turn, each return their own model's and grid point's action
    ramp = Ramp(1.0)
    models = [random_instance("qubo", 6, 1), QuboModel(random_instance("qubo", 6, 2).couplings)]
    built = [(m, t, make_action_objective(m, *ramp(t))) for m in models for t in (0.3, 0.6)]
    x = np.array([0.2, 0.37])
    values = set()
    for _ in range(2):
        for model, t, objective in built:
            want = cf.action_qubo(model.couplings, model.ua_fields(*ramp(t)), *x)
            assert objective(x) == want
            values.add(want)
    assert len(values) == 4


def test_qubo_pair_products_bounded_memory():
    # the pair products come in blocks of at most _PAIR_BLOCK_BYTES
    for n in (12, 200):
        blocks = cf._pair_blocks(n)
        assert all(8 * len(j) * (n + 1) <= max(cf._PAIR_BLOCK_BYTES, 8 * (n + 1)) for j, _, _ in blocks)
        assert sum(len(j) for j, _, _ in blocks) == n * (n - 1) // 2


_TIMING_SCRIPT = """
import json, time
import numpy as np
from racd import closed_form as cf

fd = {"A": (0.6, 1.0), "B": (0.4, -1.0)}
rng = np.random.Generator(np.random.PCG64(42))

def kernel(n):
    J = rng.uniform(-1, 1, size=(n + 1, n + 1))
    J = 0.5 * (J + J.T)
    np.fill_diagonal(J, 0.0)
    return cf.QuboKernel(J)

# one prebuilt kernel per size, so only its calls (the O(N^3) work) are
# timed; the sizes take turns, so both see the same load on the host
kernels = {n: kernel(n) for n in (50, 200)}
best = {n: float("inf") for n in kernels}
for _ in range(12):
    for n, k in kernels.items():
        t0 = time.perf_counter()
        for _ in range(5):
            cf.action_qubo(k, fd, 0.3, 0.2)
        best[n] = min(best[n], (time.perf_counter() - t0) / 5)

print(json.dumps({"t50": best[50], "t200": best[200]}))
"""


@pytest.mark.slow
def test_qubo_cost_scales_cubically():
    # wall time between N=50 and N=200 grows like N^3 within a factor of 2;
    # timed in a fresh interpreter so the measurement is independent of the
    # allocator state accumulated by the rest of the suite
    import json
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-c", _TIMING_SCRIPT], capture_output=True, text=True, check=True
    )
    times = json.loads(out.stdout.strip().splitlines()[-1])
    ratio = times["t200"] / times["t50"]
    assert 64 / 2 <= ratio <= 64 * 2, times


# -- LHZ ------------------------------------------------------------------------

def test_lhz_counts_single_constraint():
    counts = cf.lhz_counts([(0, 1, 2, 3)], 4)
    assert counts.L == 1
    assert np.array_equal(counts.L_mu, np.ones(4, dtype=int))
    off = counts.L_mu_nu[~np.eye(4, dtype=bool)]
    assert np.all(off == 1)
    assert len(counts.pairs) == 6


def test_lhz_counts_disjoint_constraints():
    counts = cf.lhz_counts([(0, 1, 2), (3, 4, 5)], 6)
    assert counts.L == 2
    assert np.all(counts.L_mu_nu[:3, 3:] == 0)
    assert all((mu < 3) == (nu < 3) for mu, nu in counts.pairs)


def test_lhz_counts_double_counting_identity():
    from racd.models import lhz_default_constraints

    cons = lhz_default_constraints(5)
    counts = cf.lhz_counts(cons, 10)
    assert counts.L_mu.sum() == sum(len(c) for c in cons)


def test_lhz_counts_n4_interior_qubit():
    from racd.models import lhz_default_constraints

    cons = lhz_default_constraints(4)
    counts = cf.lhz_counts(cons, 6)
    assert counts.L == 3
    # the shared interior qubit (logical pair (2,3)) sits in all three plaquettes
    assert counts.L_mu.max() == 3
    assert counts.L_mu.argmax() == 3


def test_lhz_counts_out_of_range():
    with pytest.raises(ValueError):
        cf.lhz_counts([(0, 1, 9)], 4)


def test_lhz_zero_params_value():
    model = random_instance("lhz", 4, 3)
    counts = cf.lhz_counts(model.constraints, model.n_qubits)
    dA0, dB0, dC0 = 1.2, -0.7, 0.5
    fd = {"A": (0.3, dA0), "B": (0.7, dB0), "C": (0.9, dC0)}
    want = dA0**2 * (model.couplings**2).sum() + model.n_qubits * dB0**2 + counts.L * dC0**2
    assert cf.action_lhz(counts, model.couplings, fd, 0.0, 0.0, 0.0) == pytest.approx(want, rel=1e-12)


def test_lhz_matches_oracle():
    model = random_instance("lhz", 4, 205)
    counts = cf.lhz_counts(model.constraints, model.n_qubits)
    rng = np.random.Generator(np.random.PCG64(60))
    for _ in range(100):
        fd = random_fd(model, rng)
        x = rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(-1, 1)
        oracle = action_oracle(model, fd, x) / 2.0**model.n_qubits
        closed = cf.action_lhz(counts, model.couplings, fd, *x)
        assert closed == pytest.approx(oracle, rel=1e-8, abs=1e-12)


def test_lhz_inconsistent_counts_rejected():
    counts = cf.lhz_counts([(0, 1, 2)], 4)
    with pytest.raises(ValueError):
        cf.LhzCounts(
            L=counts.L,
            L_mu=counts.L_mu,
            L_mu_nu=counts.L_mu_nu,
            L_mu_not_nu=counts.L_mu_not_nu + 1,
            pairs=counts.pairs,
        )
    model = random_instance("lhz", 4, 1)
    with pytest.raises(ValueError):
        cf.action_lhz(counts, model.couplings, {"A": (1, 0), "B": (1, 0), "C": (1, 0)}, 0, 0, 0)


def test_lhz_repeated_constraint_rejected():
    # the closed form reads 41% low for this layout; the oracle still applies
    J = np.random.default_rng(0).uniform(-1.0, 1.0, size=6)
    model = LhzModel(4, J, constraints=[(0, 1, 3), (0, 1, 3), (2, 4, 5)])
    fd = {"A": (0.6, 1.0), "B": (0.4, -1.0), "C": (1.2, 3.0)}
    x = (0.3, 0.2, 0.4)
    for call in (lambda: cf.normalization(model), lambda: cf.action(model, fd, x)):
        with pytest.raises(ValueError, match="backend='oracle'"):
            call()
    assert action_oracle(model, fd, x) > 0.0
    for n in range(3, 7):
        assert cf.normalization(random_instance("lhz", n, 1)) == 2.0 ** (n * (n - 1) // 2)


_oracle_model = st.one_of(
    st.just(TwoSpinModel()),
    st.builds(ChainModel, st.integers(4, 6)),
    st.builds(random_instance, st.just("qubo"), st.integers(2, 6), st.integers(0, 2**16)),
    st.builds(random_instance, st.just("lhz"), st.integers(3, 4), st.integers(0, 2**16)),
)


@settings(max_examples=100, deadline=None)
@given(model=_oracle_model, data=st.data())
def test_closed_form_matches_oracle_on_shared_arguments(model, data):
    # both backends take (model, fd, x); they differ by the normalization.
    # abs applies on the closed form's normalized scale, as in the fixed-seed
    # oracle tests: near gamma = 0 with zero field rates the closed form
    # subtracts nearly equal terms and loses digits against the oracle
    fd = {t.name: data.draw(st.tuples(st.floats(-2.0, 2.0), _field)) for t in model.terms}
    x = [data.draw(st.floats(-2.0, 2.0) if n == "beta" else st.floats(-1.0, 1.0)) for n in model.param_names]
    want = action_oracle(model, fd, x) / cf.normalization(model)
    assert cf.action(model, fd, x) == pytest.approx(want, rel=1e-8, abs=1e-12)


# -- two-operator CD -------------------------------------------------------------

def test_cd_two_param_examples_and_oracle():
    model = TwoSpinModel()
    h_q = model.term_by_param("gamma").operator
    h_k = model.term_by_param("beta").operator
    A0, B0, dA0, dB0 = 1.4, -1.0, -5.0, 0.3
    base = cf.action_cd_two_param(h_q, h_k, A0, B0, dA0, dB0, 0.0, 0.0)
    dh = dA0 * h_q + dB0 * h_k
    from racd.operators import trace_product

    assert base == pytest.approx(trace_product(dh, dh).real, rel=1e-12)
    # null direction A0 a_b = B0 a_a
    s_null = cf.action_cd_two_param(h_q, h_k, A0, B0, dA0, dB0, A0 * 0.37, B0 * 0.37)
    assert s_null == pytest.approx(base, rel=1e-12)
    # dense oracle
    rng = np.random.Generator(np.random.PCG64(61))
    h0 = (A0 * h_q + B0 * h_k).to_dense()
    dh_m = dh.to_dense()
    for _ in range(50):
        aa, ab = rng.uniform(-2, 2, 2)
        op = (aa * h_q + ab * h_k).to_dense()
        g = dh_m - 1j * (h0 @ op - op @ h0)
        want = float(np.vdot(g, g).real)
        assert cf.action_cd_two_param(h_q, h_k, A0, B0, dA0, dB0, aa, ab) == pytest.approx(
            want, rel=1e-10
        )


def test_all_actions_nonnegative():
    rng = np.random.Generator(np.random.PCG64(62))
    two = TwoSpinModel()
    chain = ChainModel(4)
    qubo = random_instance("qubo", 4, 1)
    lhz = random_instance("lhz", 4, 1)
    counts = cf.lhz_counts(lhz.constraints, lhz.n_qubits)
    for _ in range(100):
        fd2 = random_fd(two, rng)
        fdc = random_fd(chain, rng)
        fdq = random_fd(qubo, rng)
        fdl = random_fd(lhz, rng)
        b, g, p = rng.uniform(-3, 3), rng.uniform(-2, 2), rng.uniform(-2, 2)
        assert cf.action_two_level(fd2, b, g) >= -1e-12
        assert cf.action_chain(fdc, b, g, p) >= -1e-12
        assert cf.action_qubo(qubo.couplings, fdq, b, g) >= -1e-12
        assert cf.action_lhz(counts, lhz.couplings, fdl, b, g, p) >= -1e-12
