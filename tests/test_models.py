import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from racd.models import (
    ChainModel,
    Model,
    ModelTerm,
    QuboModel,
    Ramp,
    TwoSpinModel,
    build_hamiltonian,
    lhz_default_constraints,
    ramp_eval,
    random_instance,
)
from racd.operators import sigma_x
from racd.optimizer import assemble_protocol


def test_ramp_endpoints_and_midpoint():
    lam0, dot0 = ramp_eval(0.0, 1.0)
    lam1, dot1 = ramp_eval(1.0, 1.0)
    assert lam0 == 0.0 and dot0 == 0.0
    assert lam1 == pytest.approx(1.0, abs=1e-15)
    assert abs(dot1) < 1e-14  # machine-precision zero at t = tau
    lam_mid, _ = ramp_eval(0.5, 1.0)
    assert lam_mid == pytest.approx(0.5, abs=1e-15)  # sin^2(pi/4 * 2) midpoint symmetry


def test_ramp_derivative_matches_finite_difference():
    rng = np.random.Generator(np.random.PCG64(5))
    tau = 1.7
    h = 1e-6
    for t in rng.uniform(2 * h, tau - 2 * h, size=100):
        _, dot = ramp_eval(t, tau)
        lam_p, _ = ramp_eval(t + h, tau)
        lam_m, _ = ramp_eval(t - h, tau)
        assert dot == pytest.approx((lam_p - lam_m) / (2 * h), abs=1e-8)


def test_ramp_monotone():
    taus = np.linspace(0.0, 2.0, 400)
    lams = [ramp_eval(t, 2.0)[0] for t in taus]
    assert np.all(np.diff(lams) >= -1e-15)


def test_ramp_range_error():
    with pytest.raises(ValueError):
        ramp_eval(-0.1, 1.0)
    with pytest.raises(ValueError):
        ramp_eval(1.1, 1.0)
    with pytest.raises(ValueError):
        ramp_eval(0.5, 0.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_ramp_refuses_non_finite_times(t):
    # a NaN used to fail both range comparisons and come back as NaN fields
    with pytest.raises(ValueError, match=f"t={t} outside"):
        Ramp(1.0).table(np.array([0.5, t]))
    with pytest.raises(ValueError, match=f"t={t} outside"):
        assemble_protocol(TwoSpinModel(), None, "ua", Ramp(1.0)).field_table([t])


def scalar_ramp(t, tau):
    """Reference: the ramp formula evaluated one float at a time."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    t = float(t)
    if t < -1e-9 * tau or t > tau * (1 + 1e-9):
        raise ValueError(f"t={t} outside [0, {tau}]")
    t = min(max(t, 0.0), tau)
    v = np.pi * t / (2.0 * tau)
    u = 0.5 * np.pi * np.sin(v) ** 2
    lam = np.sin(u) ** 2
    lam_dot = (np.pi**2 / (4.0 * tau)) * np.sin(2.0 * u) * np.sin(2.0 * v)
    return float(lam), float(lam_dot)


@settings(max_examples=60, deadline=None)
@given(
    tau=st.floats(0.01, 50.0),
    fractions=st.lists(st.floats(0.0, 1.0), max_size=50),
    steps=st.integers(100, 4000),
)
def test_ramp_table_bitwise_matches_scalar_formula(tau, fractions, steps):
    # random times, both ends and the RK4 substep grid of ``steps`` steps
    sub = np.empty(2 * steps + 1)
    sub[0::2] = np.linspace(0.0, tau, steps + 1)
    sub[1::2] = sub[0:-1:2] + 0.5 * tau / steps
    times = np.concatenate([[0.0, tau], np.asarray(fractions) * tau, sub])
    lams, dots = Ramp(tau).table(times)
    want = np.array([scalar_ramp(t, tau) for t in times]).reshape(-1, 2)
    assert lams.tobytes() == want[:, 0].tobytes()
    assert dots.tobytes() == want[:, 1].tobytes()
    for t, (lam, dot) in zip(times[:52], want):
        assert np.array([ramp_eval(t, tau)]).tobytes() == np.array([(lam, dot)]).tobytes()


@settings(max_examples=60, deadline=None)
@given(tau=st.floats(0.01, 50.0), t=st.floats(-100.0, 100.0))
def test_ramp_range_error_matches_scalar_formula(tau, t):
    try:
        want = scalar_ramp(t, tau)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            ramp_eval(t, tau)
        with pytest.raises(ValueError):
            Ramp(tau).table(np.array([0.0, t]))
    else:
        assert np.array(ramp_eval(t, tau)).tobytes() == np.array(want).tobytes()


def test_build_hamiltonian_two_spin_manual():
    model = TwoSpinModel()
    h = build_hamiltonian(model, [5.0, -1.0])
    manual = np.array(
        [
            [-11.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, -1.0, 0.0],
            [0.0, -1.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0, 9.0],
        ],
        dtype=complex,
    )
    assert_allclose(h.to_dense(), manual, atol=1e-15)


def test_build_hamiltonian_zero_fields_and_arity():
    model = ChainModel(4)
    assert build_hamiltonian(model, [0.0, 0.0, 0.0]).is_zero()
    with pytest.raises(ValueError):
        build_hamiltonian(model, [1.0, 2.0])


def test_all_models_hermitian():
    models = [
        TwoSpinModel(),
        ChainModel(5),
        random_instance("qubo", 4, 3),
        random_instance("lhz", 4, 3),
    ]
    for model in models:
        fields = [t.ua_value(0.37) for t in model.terms]
        assert build_hamiltonian(model, fields).is_hermitian()


def test_model_rejects_non_diagonal_rotation_term():
    # the rotated ansatz conjugates by e^{iQ} elementwise, so Q must be diagonal
    beta_term = TwoSpinModel().term_by_param("beta")
    for param in ("gamma", "phi"):
        with pytest.raises(ValueError, match="must be diagonal"):
            Model(2, [ModelTerm("h", sigma_x(2, 0), 5.0, -5.0, param), beta_term])


def test_ua_fields_examples():
    two = TwoSpinModel()
    fd = two.ua_fields(0.0, 0.0)
    assert fd["J"][0] == pytest.approx(-1.0) and fd["h"][0] == pytest.approx(5.0)

    chain = ChainModel(4)
    fd = chain.ua_fields(1.0, 0.0)
    assert fd["J"][0] == pytest.approx(1.0)
    assert fd["b"][0] == pytest.approx(0.2)
    assert fd["h"][0] == pytest.approx(0.5)

    lhz = random_instance("lhz", 4, 0)
    fd = lhz.ua_fields(0.5, 0.0)
    assert fd["A"][0] == pytest.approx(0.5)
    assert fd["B"][0] == pytest.approx(0.5)
    assert fd["C"][0] == pytest.approx(1.5)


def test_ua_field_dots_are_chain_rule_exact():
    model = ChainModel(4)
    lam, lam_dot = 0.42, -1.3
    fd = model.ua_fields(lam, lam_dot)
    for term in model.terms:
        assert fd[term.name][1] == pytest.approx(term.field1 * lam_dot, abs=0.0)


def test_chain_translation_invariance():
    for n in (4, 6, 8):
        model = ChainModel(n)
        h = model.h0(0.63).to_dense()
        dim = 1 << n
        perm = np.zeros((dim, dim))
        for s in range(dim):
            shifted = ((s << 1) | (s >> (n - 1))) & (dim - 1)  # one-site cyclic shift
            perm[shifted, s] = 1.0
        assert_allclose(perm @ h @ perm.T, h, atol=1e-12)


def test_random_instance_deterministic():
    a = random_instance("qubo", 5, 123)
    b = random_instance("qubo", 5, 123)
    assert np.array_equal(a.couplings, b.couplings)
    c = random_instance("lhz", 4, 99)
    d = random_instance("lhz", 4, 99)
    assert np.array_equal(c.couplings, d.couplings)
    assert random_instance("qubo", 5, 124).couplings[0, 1] != a.couplings[0, 1]


def test_random_instance_uniform_mean():
    # law of large numbers: 1e4 couplings have mean within +-0.05
    vals = []
    seed = 0
    while len(vals) < 10_000:
        m = random_instance("lhz", 6, seed)
        vals.extend(m.couplings.tolist())
        seed += 1
    assert abs(np.mean(vals)) < 0.05


def test_lhz_instance_coupling_count():
    m = random_instance("lhz", 4, 7)
    assert len(m.couplings) == 6  # N = n(n-1)/2
    assert m.n_qubits == 6
    assert len(m.constraints) == 3


@pytest.mark.parametrize("n,count", [(3, 1), (4, 3), (5, 6)])
def test_lhz_default_constraint_count(n, count):
    cons = lhz_default_constraints(n)
    assert len(cons) == count
    n_phys = n * (n - 1) // 2
    for c in cons:
        assert len(c) in (3, 4)
        assert all(0 <= q < n_phys for q in c)


def test_lhz_layout_n5_membership_bound():
    cons = lhz_default_constraints(5)
    counts = np.zeros(10, dtype=int)
    for c in cons:
        for q in c:
            counts[q] += 1
    assert counts.max() <= 4


def test_lhz_constraints_f2_independent():
    # no nonempty subset of plaquettes multiplies to identity
    for n in (3, 4, 5, 6):
        cons = lhz_default_constraints(n)
        n_phys = n * (n - 1) // 2
        masks = []
        for c in cons:
            m = 0
            for q in c:
                m ^= 1 << q
            masks.append(m)
        rank = 0
        pivots = []
        for m in masks:
            for p in pivots:
                m = min(m, m ^ p)
            if m:
                pivots.append(m)
                rank += 1
        assert rank == len(cons)


def test_lhz_needs_three_logical_spins():
    with pytest.raises(ValueError):
        lhz_default_constraints(2)


def test_json_round_trip_bit_exact():
    models = [
        TwoSpinModel(),
        ChainModel(6),
        random_instance("qubo", 4, 11),
        random_instance("lhz", 4, 11),
    ]
    for model in models:
        doc = json.loads(model.to_json_str())
        again = Model.from_json(doc)
        assert again.kind == model.kind
        assert again.n_qubits == model.n_qubits
        if hasattr(model, "couplings"):
            assert np.array_equal(np.asarray(again.couplings), np.asarray(model.couplings))
        if hasattr(model, "constraints"):
            assert again.constraints == model.constraints


def test_json_field_names():
    doc = random_instance("lhz", 4, 2).to_json()
    assert set(doc) == {"kind", "n", "couplings", "constraints", "seed"}
    doc = random_instance("qubo", 4, 2).to_json()
    assert set(doc) == {"kind", "N", "couplings", "seed"}


def test_qubo_coupling_validation():
    bad = np.zeros((4, 4))
    bad[1, 2] = 1.0  # asymmetric
    with pytest.raises(ValueError):
        QuboModel(bad)
    bad2 = np.eye(4)
    with pytest.raises(ValueError):
        QuboModel(bad2)


def test_param_period_invariance_of_action():
    # declared parameter periods leave the scaled action exactly invariant
    from racd.optimizer import make_action_objective

    rng = np.random.Generator(np.random.PCG64(8))
    models = [TwoSpinModel(), ChainModel(4), random_instance("lhz", 4, 5)]
    for model in models:
        names = model.param_names
        obj = make_action_objective(model, 0.41, 0.9)
        for _ in range(5):
            x = rng.uniform(-1, 1, len(names))
            for pname, period in model.param_periods.items():
                shifted = x.copy()
                shifted[names.index(pname)] += period
                assert obj(shifted) == pytest.approx(obj(x), rel=1e-10)
