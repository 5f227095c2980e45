"""Self-check suites behind ``racd validate``: closed-form vs dense-oracle
agreement, diagonal-decomposition identities, the two-level analytic
benchmark, CD-limitations triviality, and boundary conditions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import closed_form
from .agp import action_oracle
from .models import ChainModel, Ramp, TwoSpinModel, random_instance, ramp_eval
from .operators import (
    SpinOperator,
    commutator,
    dense_diag_component,
    diag_component,
    sigma_x,
    sigma_y,
    sigma_z,
)
from .optimizer import bfgs_minimize, sequential_optimize, assemble_protocol

#: fixed seeds and sizes of the suites (``racd validate`` sets only ``draws``)
ORACLE_SEED = 20240
IDENTITY_SEED = 77
IDENTITY_OPS = 5
SUITE_M = 100
SUITE_TAU = 1.0
CD_SCAN_GRID = 101


@dataclass
class SuiteResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: max deviation {self.max_deviation:.3e} (tol {self.tolerance:.1e}) {self.detail}"


def _random_field_derivs(model, rng) -> dict:
    return {t.name: (rng.uniform(-2.0, 2.0), rng.uniform(-3.0, 3.0)) for t in model.terms}


def closed_form_deviation(model, draws: int, seed: int) -> float:
    """Max relative deviation of the model's closed form from the dense
    oracle over random field and parameter draws."""
    rng = np.random.Generator(np.random.PCG64(seed))
    names = model.param_names
    normalization = closed_form.normalization(model)
    worst = 0.0
    for _ in range(draws):
        fd = _random_field_derivs(model, rng)
        x = np.array([rng.uniform(-2.0, 2.0) if n == "beta" else rng.uniform(-1.0, 1.0) for n in names])
        oracle = action_oracle(model, fd, x) / normalization
        closed = closed_form.action(model, fd, x)
        rel = abs(closed - oracle) / max(abs(oracle), 1e-12)
        worst = max(worst, rel)
    return worst


def check_draws(draws: int) -> None:
    """Raise ValueError unless ``draws`` oracle draws check anything."""
    if draws < 1:
        raise ValueError("draws must be >= 1")


def suite_closed_form_vs_oracle(draws: int = 100) -> SuiteResult:
    check_draws(draws)
    cases = [
        (TwoSpinModel(), ORACLE_SEED),
        (ChainModel(4), ORACLE_SEED + 4),
        (ChainModel(5), ORACLE_SEED + 5),
        (random_instance("qubo", 4, ORACLE_SEED + 40), ORACLE_SEED + 6),
        (random_instance("qubo", 5, ORACLE_SEED + 50), ORACLE_SEED + 7),
        (random_instance("lhz", 4, ORACLE_SEED + 5), ORACLE_SEED + 6),
    ]
    worst = max(closed_form_deviation(model, draws, s) for model, s in cases)
    return SuiteResult("closed-form vs dense oracle", worst <= 1e-8, worst, 1e-8)


def suite_decomposition_identities() -> SuiteResult:
    rng = np.random.Generator(np.random.PCG64(IDENTITY_SEED))
    worst = 0.0
    for n in range(2, 6):
        for _ in range(IDENTITY_OPS):
            terms = {}
            for _ in range(6):
                z = int(rng.integers(0, 1 << n))
                terms[(0, z)] = terms.get((0, z), 0.0) + rng.normal()
            d = SpinOperator(n, terms)
            dense = d.to_dense()
            for j in range(n):
                keep = diag_component(d, j, "keep_j")
                drop = diag_component(d, j, "drop_j")
                sz = sigma_z(n, j)
                # (i) reconstruction
                worst = max(worst, np.abs((keep @ sz + drop - d).to_dense()).max())
                # (ii) diagonality, (iii) independence of site j
                for comp in (keep, drop):
                    worst = max(worst, 0.0 if comp.is_diagonal() else 1.0)
                    worst = max(worst, np.abs(commutator(comp, sigma_x(n, j)).to_dense()).max())
                # (iv) commutator identity [D, x_j] = 2i D^[j] y_j
                lhs = commutator(d, sigma_x(n, j))
                rhs = 2j * (keep @ sigma_y(n, j))
                worst = max(worst, np.abs((lhs - rhs).to_dense()).max())
                # (v) trig splitting, dense helper
                eigs = np.diag(dense).real
                cos_d = np.diag(np.cos(eigs)).astype(complex)
                sin_d = np.diag(np.sin(eigs)).astype(complex)
                keep_m = keep.to_dense()
                drop_m = drop.to_dense()
                sin_keep = _matfun_diag(np.sin, keep_m)
                worst = max(
                    worst,
                    np.abs(
                        dense_diag_component(cos_d, n, j, "keep_j")
                        + sin_keep @ _matfun_diag(np.sin, drop_m)
                    ).max(),
                )
                worst = max(
                    worst,
                    np.abs(
                        dense_diag_component(sin_d, n, j, "keep_j")
                        - sin_keep @ _matfun_diag(np.cos, drop_m)
                    ).max(),
                )
                # (vi) symmetry and nilpotence
                worst = max(
                    worst,
                    0.0
                    if diag_component(keep, j, "keep_j").is_zero()
                    else diag_component(keep, j, "keep_j").norm(),
                )
                for k in range(n):
                    jk = diag_component(diag_component(d, j, "keep_j"), k, "keep_j")
                    kj = diag_component(diag_component(d, k, "keep_j"), j, "keep_j")
                    worst = max(worst, 0.0 if jk.equals(kj) else (jk - kj).norm())
    return SuiteResult("diagonal decomposition identities (i)-(vi)", worst <= 1e-12, worst, 1e-12)


def _matfun_diag(fn, mat: np.ndarray) -> np.ndarray:
    return np.diag(fn(np.diag(mat).real)).astype(complex)


def suite_two_level_analytic() -> SuiteResult:
    model = TwoSpinModel()
    ramp = Ramp(SUITE_TAU)
    traj = sequential_optimize(model, ramp, M=SUITE_M)
    worst = 0.0
    for m, t in enumerate(traj.times):
        lam, lam_dot = ramp(t)
        fd = model.ua_fields(lam, lam_dot)
        beta_a, gamma_a = closed_form.two_level_optimum(fd)
        worst = max(worst, abs(traj.values[m, 0] - beta_a), abs(traj.values[m, 1] - gamma_a))
    return SuiteResult("two-level sequential vs analytic optimum", worst <= 1e-3, worst, 1e-3)


def suite_cd_limitations() -> SuiteResult:
    model = TwoSpinModel()
    h_term = model.term_by_param("gamma").operator
    j_term = model.term_by_param("beta").operator
    lam = 0.3
    fd = model.ua_fields(lam, 1.0)
    A0, dA0 = fd["h"]
    B0, dB0 = fd["J"]

    def s_of(a):
        return closed_form.action_cd_two_param(h_term, j_term, A0, B0, dA0, dB0, a[0], a[1])

    s0 = s_of((0.0, 0.0))
    alphas = np.linspace(-1.0, 1.0, CD_SCAN_GRID)
    worst = 0.0
    for aa in alphas:
        for ab in alphas:
            worst = max(worst, s0 - s_of((aa, ab)))  # positive => below the trivial point
    res = bfgs_minimize(s_of, np.zeros(2))
    alpha_norm = float(np.linalg.norm(res.x))
    passed = worst <= 1e-9 and alpha_norm <= 1e-6
    return SuiteResult(
        "CD-limitations triviality",
        passed,
        max(worst, alpha_norm),
        1e-6,
        detail=f"(grid excess {worst:.2e}, |alpha*| {alpha_norm:.2e})",
    )


def suite_boundary_conditions() -> SuiteResult:
    worst = 0.0
    for t in (0.0, SUITE_TAU):
        _, lam_dot = ramp_eval(t, SUITE_TAU)
        worst = max(worst, abs(lam_dot))
    for model in (TwoSpinModel(), ChainModel(6)):
        ramp = Ramp(SUITE_TAU)
        traj = sequential_optimize(model, ramp, M=SUITE_M)
        ra = assemble_protocol(model, traj, "ra", ramp)
        ua = assemble_protocol(model, None, "ua", ramp)
        ends = np.array([0.0, SUITE_TAU])
        worst = max(worst, float(np.abs(traj.values[0]).max()), float(np.abs(traj.values[-1]).max()))
        f_ra = ra.field_table(ends)
        f_ua = ua.field_table(ends)
        for name in f_ra:
            worst = max(worst, float(np.abs(f_ra[name] - f_ua[name]).max()))
    return SuiteResult("boundary conditions (ramp, params, RA fields)", worst <= 1e-6, worst, 1e-6)


def run_all_suites(draws: int = 100) -> List[SuiteResult]:
    return [
        suite_closed_form_vs_oracle(draws=draws),
        suite_decomposition_identities(),
        suite_two_level_analytic(),
        suite_cd_limitations(),
        suite_boundary_conditions(),
    ]
