"""Exact Schroedinger propagation of assembled protocols and the fidelity
observables F(t) and F-tilde(t).

Evolution is fixed-step fourth-order Runge-Kutta on dpsi/dt = -i H(t) psi
with the Hamiltonian rebuilt from the protocol's control fields at every
substep.  The state norm is asserted, never repaired: drift is the
integrator-quality signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .agp import exact_agp
from .errors import RacdError
from .models import Model
from .operators import (
    DENSE_MATRIX_MAX_QUBITS,
    STATE_VECTOR_MAX_QUBITS,
    CapacityError,
    sigma_y,
)
from .optimizer import Protocol

NORM_DRIFT_TOL = 1e-6
EXACT_CD_MAX_QUBITS = 8


class StepSizeError(RacdError, RuntimeError):
    """Norm drift exceeded tolerance during evolution."""

    def __init__(self, drift: float, steps: int, tol: float = NORM_DRIFT_TOL):
        super().__init__(f"norm drift {drift:.3e} exceeds {tol} at {steps} RK4 steps")
        self.drift, self.steps, self.tol = drift, steps, tol

    def steps_needed(self) -> int:
        """Step count that would bring this drift down to the tolerance if it
        scales as dt^4, RK4's global order.  RK4's norm drift falls faster
        (about dt^5), so the estimate errs high; it is still an estimate, as
        only the first output point over the tolerance was seen."""
        return math.ceil(self.steps * (self.drift / self.tol) ** 0.25)


def ground_space(h: np.ndarray, degeneracy_tol: float = 1e-10) -> Tuple[float, np.ndarray]:
    """Ground energy and an orthonormal basis of the ground subspace
    (eigenvectors within ``degeneracy_tol`` of the minimum)."""
    if not np.allclose(h, h.conj().T, atol=1e-12):
        raise ValueError("Hamiltonian must be Hermitian")
    eps, vec = np.linalg.eigh(h)
    mask = eps <= eps[0] + degeneracy_tol
    return float(eps[0]), vec[:, mask]


def ground_space_op(op, degeneracy_tol: float = 1e-10) -> Tuple[float, np.ndarray]:
    """Ground space of a SpinOperator; iterative matrix-free solve above the
    dense cap (best-effort degeneracy resolution from the lowest few levels)."""
    n = op.n_qubits
    if n <= DENSE_MATRIX_MAX_QUBITS:
        return ground_space(op.to_dense(), degeneracy_tol)
    from scipy.sparse.linalg import LinearOperator, eigsh

    dim = 1 << n
    lin = LinearOperator((dim, dim), matvec=op.apply, dtype=complex)
    k = min(6, dim - 2)
    eps, vec = eigsh(lin, k=k, which="SA")
    order = np.argsort(eps)
    eps, vec = eps[order], vec[:, order]
    mask = eps <= eps[0] + degeneracy_tol
    return float(eps[0]), vec[:, mask]


def fidelity(psi: np.ndarray, ground: np.ndarray) -> float:
    """Squared norm of the projection onto the ground subspace."""
    if psi.shape[0] != ground.shape[0]:
        raise ValueError("dimension mismatch between state and subspace")
    amps = ground.conj().T @ psi
    return float(np.vdot(amps, amps).real)


def rotated_fidelity(psi: np.ndarray, ground: np.ndarray, q_diag: np.ndarray) -> float:
    """Fidelity with the rotated ground state R|e0>, R = e^{-iQ}: apply
    e^{+iQ} to psi by elementwise phases, then project."""
    if np.any(np.abs(q_diag.imag) > 1e-12):
        raise ValueError("rotation generator must be real diagonal")
    return fidelity(np.exp(1j * q_diag.real) * psi, ground)


@dataclass
class FidelityTrace:
    """Instantaneous fidelities along a run; F_tilde equals F except for the
    rotated-frame protocol.  ``ground_bases`` are the instantaneous
    ground-subspace bases the fidelities were measured against (not written
    by :meth:`to_csv`), for reuse by other protocols on the same grid."""

    times: np.ndarray
    lambdas: np.ndarray
    F: np.ndarray
    F_tilde: np.ndarray
    ground_bases: List[np.ndarray] | None = field(default=None, repr=False)

    def validate(self) -> None:
        for arr in (self.F, self.F_tilde):
            if np.any(arr < -1e-9) or np.any(arr > 1.0 + 1e-9):
                raise ValueError("fidelity outside [0, 1]")
        if abs(self.F[0] - 1.0) > 1e-9:
            raise ValueError("run did not start in the ground state")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("t,lambda,F,F_tilde\n")
            for row in zip(self.times, self.lambdas, self.F, self.F_tilde):
                fh.write(",".join(f"{v:.12e}" for v in row) + "\n")


class _HamiltonianEvaluator:
    """H(t) on the RK substep grid, precomputed from protocol field tables.

    The components (model terms, plus one sigma-y per site for local CD) are
    grouped by the x-mask of their Pauli words; each group carries a
    per-component diagonal sign vector.  Applying H(t) is then one small
    coefficient contraction plus a gather per x-mask, independent of the
    Hilbert-space dimension beyond the vector length.  The contracted
    diagonals of the two most recent substeps are kept, since RK4 applies
    each midpoint twice and each step's end again as the next step's start.
    Exact-CD instead keeps a dense matrix per substep, with the spectral
    gauge potential added.
    """

    def __init__(self, protocol: Protocol, times: np.ndarray):
        model = protocol.model
        n = model.n_qubits
        self.kind = protocol.kind
        self._dim = 1 << n
        fields = protocol.field_table(times)
        coeff_rows = [np.asarray(fields[t.name], dtype=float) for t in model.terms]
        ops = [t.operator for t in model.terms]
        if self.kind == "local-cd":
            y_rows = protocol.y_table(times)
            coeff_rows += [y_rows[:, j] for j in range(n)]
            ops += [sigma_y(n, j) for j in range(n)]
        self._coeffs = np.column_stack(coeff_rows)

        # word groups: x_mask -> per-component z-sign vectors (only components
        # that actually contribute to the mask are stored)
        states = np.arange(self._dim)
        groups: Dict[int, Dict[int, np.ndarray]] = {}
        for comp_idx, op in enumerate(ops):
            for (x, z), w in op:
                rows = groups.setdefault(x, {})
                signs = 1.0 - 2.0 * (np.bitwise_count(states & z) & 1)
                if comp_idx in rows:
                    rows[comp_idx] = rows[comp_idx] + w * signs
                else:
                    rows[comp_idx] = w * signs
        self._groups = []
        for x in sorted(groups):
            comp_idx = np.array(sorted(groups[x]), dtype=int)
            vecs = np.stack([groups[x][i] for i in comp_idx])
            self._groups.append((comp_idx, vecs, states ^ x))
        self._substeps: Dict[int, object] = {}  # the two most recent substeps

        if self.kind == "exact-cd":
            _, self._lam_dots = protocol.ramp.table(times)
            self._dh_dlam = model.dh0_dlambda(0.0).to_dense()  # schedules are affine

    def matrix(self, idx: int) -> np.ndarray:
        if self._dim > (1 << DENSE_MATRIX_MAX_QUBITS):
            raise CapacityError("dense Hamiltonian requested above the dense cap")
        c = self._coeffs[idx]
        h = np.zeros((self._dim, self._dim), dtype=complex)
        cols = np.arange(self._dim)
        for comp_idx, vecs, perm in self._groups:
            h[perm, cols] += c[comp_idx] @ vecs
        if self.kind == "exact-cd":
            agp = exact_agp(h, self._dh_dlam)
            h = h + self._lam_dots[idx] * agp
        return h

    def apply(self, idx: int, psi: np.ndarray) -> np.ndarray:
        # H|psi>: out[s ^ x] += g_x[s] psi[s] for each word group
        substep = self._substeps.get(idx)
        if substep is None:
            if self.kind == "exact-cd":
                substep = self.matrix(idx)
            else:
                c = self._coeffs[idx]
                substep = [(c[comp_idx] @ vecs, perm) for comp_idx, vecs, perm in self._groups]
            if len(self._substeps) == 2:
                del self._substeps[next(iter(self._substeps))]
            self._substeps[idx] = substep
        if self.kind == "exact-cd":
            return substep @ psi
        out = np.zeros_like(psi)
        for g, perm in substep:
            out += (g * psi)[perm]
        return out


def _output_steps(protocol: Protocol, steps: int, n_out: int) -> np.ndarray:
    """Indices of the ``n_out`` RK4 steps sampled for output, both ends
    included, once the protocol is known to fit the propagator."""
    n = protocol.model.n_qubits
    if n > STATE_VECTOR_MAX_QUBITS:
        raise CapacityError(f"{n} qubits exceeds state-vector cap")
    if protocol.kind == "exact-cd" and n > EXACT_CD_MAX_QUBITS:
        raise CapacityError(f"exact-CD baseline restricted to {EXACT_CD_MAX_QUBITS} qubits")
    if steps < 100:
        raise ValueError("steps must be >= 100")
    return np.unique(np.linspace(0, steps, n_out).round().astype(int))


def evolve(
    protocol: Protocol,
    psi0: np.ndarray,
    steps: int = 2000,
    n_out: int = 101,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 propagation over [0, tau].

    Returns (times, states) sampled at ``n_out`` integrator grid points
    (including both endpoints).  Raises :class:`StepSizeError` if the norm
    drifts by more than 1e-6 anywhere on the output grid.
    """
    out_idx = _output_steps(protocol, steps, n_out)
    tau = protocol.ramp.tau
    h = tau / steps
    # substep times: t_k, t_k + h/2 interleaved, plus the final endpoint
    sub = np.empty(2 * steps + 1)
    sub[0::2] = np.linspace(0.0, tau, steps + 1)
    sub[1::2] = sub[0:-1:2] + 0.5 * h
    evaluator = _HamiltonianEvaluator(protocol, sub)

    out_times = sub[2 * out_idx]
    states = np.empty((len(out_idx), len(psi0)), dtype=complex)
    pointer = 0

    psi = np.asarray(psi0, dtype=complex).copy()
    for k in range(steps + 1):
        if pointer < len(out_idx) and k == out_idx[pointer]:
            drift = abs(np.linalg.norm(psi) - 1.0)
            if drift > NORM_DRIFT_TOL:
                raise StepSizeError(drift, steps)
            states[pointer] = psi
            pointer += 1
        if k == steps:
            break
        i0, i1, i2 = 2 * k, 2 * k + 1, 2 * k + 2
        k1 = -1j * evaluator.apply(i0, psi)
        k2 = -1j * evaluator.apply(i1, psi + 0.5 * h * k1)
        k3 = -1j * evaluator.apply(i1, psi + 0.5 * h * k2)
        k4 = -1j * evaluator.apply(i2, psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out_times, states


def ground_trace(model: Model, lambdas: Sequence[float], degeneracy_tol: float = 1e-10) -> List[np.ndarray]:
    """Instantaneous ground-subspace bases of H0(lambda) along a grid."""
    bases = []
    for lam in lambdas:
        _, basis = ground_space_op(model.h0(lam), degeneracy_tol)
        bases.append(basis)
    return bases


def run_protocol(
    protocol: Protocol,
    steps: int = 2000,
    n_out: int = 101,
    ground_bases: List[np.ndarray] | None = None,
) -> FidelityTrace:
    """Evolve from the instantaneous ground state at t = 0 and record F(t)
    and F-tilde(t) on the output grid.  A degenerate start raises.

    ``ground_bases`` lets callers share the instantaneous eigenbases across
    protocols of the same model, ramp and output grid.
    """
    model = protocol.model
    times = np.linspace(0.0, protocol.ramp.tau, steps + 1)[_output_steps(protocol, steps, n_out)]
    lams, _ = protocol.ramp.table(times)
    if ground_bases is None:
        ground_bases = ground_trace(model, lams)
    if len(ground_bases) != len(times):
        raise ValueError(f"{len(ground_bases)} ground bases for {len(times)} output points")
    if ground_bases[0].shape[1] != 1:
        raise ValueError("degenerate initial ground state")
    _, states = evolve(protocol, ground_bases[0][:, 0], steps=steps, n_out=n_out)
    q_tables = protocol.q_table(times)
    q_terms = [(t.param, t.operator.diag_vector().real) for t in model.terms if t.param in ("gamma", "phi")]

    f_vals = np.empty(len(times))
    ft_vals = np.empty(len(times))
    for i in range(len(times)):
        f_vals[i] = fidelity(states[i], ground_bases[i])
        if protocol.kind == "ra":
            q_diag = np.zeros(states.shape[1])
            for pname, diag in q_terms:
                q_diag = q_diag + q_tables[pname][i] * diag
            ft_vals[i] = rotated_fidelity(states[i], ground_bases[i], q_diag)
        else:
            ft_vals[i] = f_vals[i]
    trace = FidelityTrace(times=times, lambdas=lams, F=f_vals, F_tilde=ft_vals, ground_bases=ground_bases)
    trace.validate()
    return trace
