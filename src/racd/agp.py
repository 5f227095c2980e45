"""Adiabatic gauge potentials: exact (spectral), rotated-ansatz (dense), the
G operator, the dense trace action oracle, and the local-CD coefficient
solver.

Everything here works with the time-scaled quantities: the rotated ansatz
produces ``lambda_dot * A`` directly, and the scaled G operator is

    G_t = dH0/dt - i [H0, lambda_dot * A]        (hbar = 1)

whose squared trace is the scaled action ``S_bar = lambda_dot^2 * S``.  The
scaled form stays finite at lambda_dot = 0, where the trivial ansatz becomes
optimal and enforces the protocol's time boundary conditions.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .errors import RacdError
from .models import FieldSet, Model
from .operators import (
    DENSE_MATRIX_MAX_QUBITS,
    SpinOperator,
    commutator,
    sigma_y,
    trace_product,
)

GAP_TOL = 1e-10


def _require_hermitian(h) -> None:
    """np.allclose(h, h^dagger, rtol=0, atol=1e-12), NaN failing, for a dense
    ``h`` at a fifth of its cost (on 8 qubits as much as the solve's), or a
    sparse one."""
    if not abs(h - h.conj().T).max() <= 1e-12:
        raise ValueError("Hamiltonian must be Hermitian")


def exact_agp(h0: np.ndarray, dh0_dlambda: np.ndarray) -> np.ndarray:
    """Spectral adiabatic gauge potential.

    A = i * sum_{m != l} <m| dH0/dlambda |l> / (eps_l - eps_m) |m><l|,
    skipping pairs closer than ``GAP_TOL``.  Hermitian for Hermitian inputs.
    """
    _require_hermitian(h0)
    eps, vec = np.linalg.eigh(h0)
    num = vec.conj().T @ dh0_dlambda @ vec
    gaps = eps[None, :] - eps[:, None]  # eps_l - eps_m at [m, l]
    safe = np.abs(gaps) >= GAP_TOL
    denom = np.where(safe, gaps, 1.0)
    a_eig = np.where(safe, 1j * num / denom, 0.0)
    np.fill_diagonal(a_eig, 0.0)
    return vec @ a_eig @ vec.conj().T


def ra_agp(model: Model, fd: FieldSet, x: Sequence[float]) -> np.ndarray:
    """Time-scaled rotated-ansatz gauge potential, densely:

    lambda_dot * A = e^{iQ} (H0 + K) e^{-iQ} - H0

    with Q = gamma * Q_gamma [+ phi * Q_phi] and K = beta * K_beta, at the
    field values of ``fd`` (term name -> (value, time derivative)) and the
    parameters ``x`` ordered as ``model.param_names``.  Q is diagonal (the
    model refuses any other rotation term), so the conjugation is
    elementwise phases.
    """
    if len(x) != len(model.param_names):
        raise ValueError(f"expected parameters {model.param_names}, got {len(x)} values")
    values = dict(zip(model.param_names, x))
    q = SpinOperator.zero(model.n_qubits)
    k = SpinOperator.zero(model.n_qubits)
    for t in model.terms:
        if t.param == "beta":
            k = k + float(values["beta"]) * t.operator
        elif t.param in ("gamma", "phi"):
            q = q + float(values[t.param]) * t.operator

    h0 = model.hamiltonian([fd[t.name][0] for t in model.terms]).to_dense()
    hk = h0 + k.to_dense()
    phases = np.exp(1j * q.diag_vector().real)
    return phases[:, None] * hk * np.conj(phases)[None, :] - h0


def g_operator(model: Model, fd: FieldSet, scaled_agp: np.ndarray) -> np.ndarray:
    """G_t = dH0/dt - i [H0, lambda_dot * A] at the fields of ``fd``; Hermitian."""
    h0 = model.hamiltonian([fd[t.name][0] for t in model.terms]).to_dense()
    if scaled_agp.shape != h0.shape:
        raise ValueError(f"shape mismatch: {scaled_agp.shape} vs {h0.shape}")
    dh0 = model.hamiltonian([fd[t.name][1] for t in model.terms]).to_dense()
    return dh0 - 1j * (h0 @ scaled_agp - scaled_agp @ h0)


def check_oracle_size(model: Model) -> None:
    """Raise ValueError if ``model`` has more qubits than the dense oracle takes."""
    if model.n_qubits > DENSE_MATRIX_MAX_QUBITS:
        raise ValueError(f"{model.n_qubits} qubits exceeds the dense oracle cap")


def action_oracle(model: Model, fd: FieldSet, x: Sequence[float]) -> float:
    """Scaled action Tr(G_t^2) >= 0, computed densely (exact reference); the
    arguments are those of :func:`racd.closed_form.action`."""
    check_oracle_size(model)
    g = g_operator(model, fd, ra_agp(model, fd, x))
    return float(np.vdot(g, g).real)  # Tr(G^2) = ||G||_F^2 for Hermitian G


def _assert_real_symmetric(op: SpinOperator) -> None:
    """Time-reversal symmetry check: every word real-weighted with even Y
    count (then the dense matrix is real symmetric)."""
    from .operators import _parity  # even/odd Y-count via x&z mask

    for (x, z), w in op:
        y_odd = _parity(x & z)
        if y_odd or abs(w.imag) > 1e-12:
            raise ValueError("operator is not real-symmetric in the computational basis")


class LocalCdError(RacdError, ArithmeticError):
    """The local-CD normal system has no solution (inconsistent right-hand side)."""


def _normal_tensors(ops: Sequence[SpinOperator]) -> Tuple[np.ndarray, np.ndarray]:
    """Gram and right-hand-side tensors of the local-CD normal system of
    H = sum_p f_p op_p.

    With D_{j,p} = -i [op_p, sy_j]:  gram[p, q, j, k] = Tr(D_{j,p} D_{k,q})
    and rhs[p, q, j] = Tr(op_p D_{j,q}), so the system at fields f and
    field derivatives f' is bilinear in them (see :func:`_solve_normal`).
    """
    for op in ops:
        _assert_real_symmetric(op)
    n = ops[0].n_qubits
    n_ops = len(ops)
    d = [[(-1j) * commutator(op, sigma_y(n, j)) for op in ops] for j in range(n)]
    gram = np.zeros((n_ops, n_ops, n, n))
    rhs = np.zeros((n_ops, n_ops, n))
    for j in range(n):
        for t in range(n_ops):
            for tp in range(n_ops):
                rhs[tp, t, j] = trace_product(ops[tp], d[j][t]).real
        for k in range(j, n):
            for t in range(n_ops):
                for tp in range(n_ops):
                    val = trace_product(d[j][t], d[k][tp]).real
                    gram[t, tp, j, k] = val
                    gram[tp, t, k, j] = val
    return gram, rhs


def _solve_normal(gram: np.ndarray, rhs: np.ndarray, f: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """alpha minimizing the action at each row of field values ``f`` with
    field derivatives ``fp``:  sum_k Tr(D_j D_k) alpha_k = -Tr(D_j dH0).

    A singular batch is solved point by point, so no point depends on the
    batch; a singular point takes the least-norm solution, which must still
    satisfy the system; otherwise :class:`LocalCdError`.
    """
    m = np.einsum("tp,tq,pqjk->tjk", f, f, gram)
    r = -np.einsum("p,tq,pqj->tj", fp, f, rhs)
    try:
        return np.linalg.solve(m, r[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    alpha = np.empty_like(r)
    for i, (mi, ri) in enumerate(zip(m, r)):
        try:
            alpha[i] = np.linalg.solve(mi, ri)
        except np.linalg.LinAlgError:
            alpha[i], _, _, sv = np.linalg.lstsq(mi, ri, rcond=None)
            if not np.allclose(mi @ alpha[i], ri, atol=1e-8 * max(1.0, float(np.linalg.norm(ri)))):
                cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
                raise LocalCdError(f"local-CD normal system inconsistent at point {i} (cond={cond:.3e})")
    return alpha


def local_cd_coeffs(h0: SpinOperator, dh0: SpinOperator) -> np.ndarray:
    """Per-site coefficients of the local CD ansatz A = sum_j alpha_j sy_j,
    the minimizer of the action, with D_j = -i [H0, sy_j].  Passing the
    lambda-derivative of H0 yields alpha(lambda); passing dH0/dt yields the
    time-scaled coefficients lambda_dot * alpha.
    """
    gram, rhs = _normal_tensors([h0, dh0])
    return _solve_normal(gram, rhs, np.array([[1.0, 0.0]]), np.array([0.0, 1.0]))[0]


class LocalCdSolver:
    """:func:`local_cd_coeffs` along one model's UA schedule.

    D_j(fields) = sum_t field_t * D_{j,t}, so the normal matrix and
    right-hand side are bilinear in the UA fields.  The Gram tensors over
    the model's term operators are assembled once; each time point is then
    an einsum plus an N x N solve.
    """

    def __init__(self, model: Model):
        self.model = model
        self._gram, self._rhs = _normal_tensors([t.operator for t in model.terms])

    def solve_batch(self, lams: np.ndarray) -> np.ndarray:
        """alpha(lambda) for a whole grid at once (rows = grid points)."""
        lams = np.asarray(lams, dtype=float)
        field0 = np.array([t.field0 for t in self.model.terms])
        fp = np.array([t.field1 for t in self.model.terms])
        return _solve_normal(self._gram, self._rhs, field0 + lams[:, None] * fp, fp)
