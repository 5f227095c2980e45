"""Exact Schroedinger propagation of assembled protocols and the fidelity
observables F(t) and F-tilde(t).

Evolution is fixed-step fourth-order Runge-Kutta on dpsi/dt = -i H(t) psi
with the Hamiltonian rebuilt from the protocols' control fields at every
substep.  All protocols of one model and ramp evolve together, as one block
with a state per protocol; exact-CD adds its dense gauge-potential term to
its own states only.  The state norm is asserted, never repaired: drift is
the integrator-quality signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np
from scipy.linalg import LinAlgError, eigh

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
DEGENERACY_TOL = 1e-10


class StepSizeError(RacdError, RuntimeError):
    """Norm drift exceeded tolerance during evolution."""

    def __init__(self, drift: float, steps: int, kind: str | None = None):
        super().__init__(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_TOL} at {steps} RK4 steps")
        self.drift, self.steps, self.tol = drift, steps, NORM_DRIFT_TOL
        #: the protocol kind whose state drifted, where known
        self.kind = kind

    def steps_needed(self) -> int:
        """Step count that would bring this drift down to the tolerance if it
        scales as dt^4, RK4's global order.  RK4's norm drift falls faster
        (about dt^5), so the estimate errs high; it is still an estimate, as
        only the first output point over the tolerance was seen."""
        return math.ceil(self.steps * (self.drift / self.tol) ** 0.25)


def ground_space(h: np.ndarray) -> Tuple[float, np.ndarray]:
    """Ground energy and an orthonormal basis of the ground subspace
    (eigenvectors within ``DEGENERACY_TOL`` of the minimum).

    Only the lowest levels are solved for (LAPACK's bisection and inverse
    iteration driver, ``evx``; see :func:`_lowest_levels`), in real
    arithmetic where the imaginary part is exactly zero.  Not ``syevd``
    (``np.linalg.eigh``), which fails to converge on some real H0: the
    8-site chain's H_a + lambda * H_b at lambda = 3.6e-8 is one."""
    if not h.imag.any():
        h = h.real
    # np.allclose(h, h^dagger, rtol=0, atol=1e-12) at a fifth of its cost,
    # which on 8 qubits is as much as the solve's; NaN fails it too
    if not np.abs(h - h.conj().T).max() <= 1e-12:
        raise ValueError("Hamiltonian must be Hermitian")
    dim = h.shape[0]
    return _ground_cluster(lambda k: _lowest_levels(h, k), min(2, dim), dim)


def _lowest_levels(h: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` lowest levels of the Hermitian ``h`` by ``evx``; where its
    inverse iteration fails to converge, as it can inside a tight cluster
    (the 16th-32nd vectors of a 46-fold degenerate level), from a full
    QR-iteration solve (``ev``)."""
    try:
        return eigh(h, subset_by_index=[0, k - 1], driver="evx")
    except LinAlgError:
        eps, vec = eigh(h, driver="ev")
        return eps[:k], vec[:, :k]


def ground_space_op(op) -> Tuple[float, np.ndarray]:
    """Ground space of a SpinOperator, as :func:`ground_space`; iterative
    matrix-free solve above the dense cap, where the cluster's vectors are
    orthonormalized, since ARPACK's complex driver does not orthogonalize
    within a degenerate cluster."""
    n = op.n_qubits
    if n <= DENSE_MATRIX_MAX_QUBITS:
        return ground_space(op.to_dense())
    from scipy.sparse.linalg import LinearOperator, eigsh

    dim = 1 << n
    lin = LinearOperator((dim, dim), matvec=op.apply, dtype=complex)
    energy, vec = _ground_cluster(lambda k: eigsh(lin, k=k, which="SA"), min(6, dim - 2), dim - 2)
    return energy, np.linalg.qr(vec)[0]


def _ground_cluster(solve, k: int, k_max: int) -> Tuple[float, np.ndarray]:
    """Ground energy and the ground cluster's vectors from ``solve(k)``, the
    k lowest levels as (energies, vectors).  k doubles, up to ``k_max``,
    while every returned level lies within ``DEGENERACY_TOL`` of the lowest,
    so a degenerate ground space is never truncated."""
    eps, vec = solve(k)
    while eps.max() <= eps.min() + DEGENERACY_TOL and k < k_max:
        k = min(2 * k, k_max)
        eps, vec = solve(k)
    return float(eps.min()), vec[:, eps <= eps.min() + DEGENERACY_TOL]


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
    rotated-frame protocol."""

    times: np.ndarray
    lambdas: np.ndarray
    F: np.ndarray
    F_tilde: np.ndarray

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


#: substeps whose protocol tables are evaluated in one call
TABLE_CHUNK = 256
#: bytes of contracted per-substep vectors held at once
CHUNK_BYTES = 1 << 20


def _hamiltonians(protocols: Sequence[Protocol], times: np.ndarray) -> Iterator:
    """H(t) at each of ``times``, in order, for a batch of protocols of one
    model and ramp; :func:`_apply` applies each to a ``(B, 2^N)`` block
    holding one state per protocol.

    The components (model terms, plus one sigma-y per site when the batch
    holds local CD) are grouped by the x-mask of their Pauli words; each
    group carries a per-component diagonal sign vector.  The diagonal group
    (x-mask 0) is kept apart.  The off-diagonal groups are stacked, their
    weights stored at the destination state s (which receives from s ^ x)
    and padded with zero weights to one component count, so that one
    batched product contracts them all.  The protocols' field tables are
    evaluated in chunks of substeps, and contracted into per-substep vectors
    in smaller chunks, so memory does not grow with the step count; the ramp
    is evaluated once per table chunk for the whole batch and handed to
    each protocol's :meth:`~racd.optimizer.Protocol.tables`.  Each
    substep is a ``(diagonal, off-diagonal, gather index, exact columns,
    agp)`` tuple.  Exact-CD columns are contracted at their UA fields like
    any other; when the batch holds them, ``agp`` is the dense
    lambda_dot * A(lambda) that they add, with A the spectral gauge
    potential of H0(lambda) = H_a + lambda * H_b (every schedule is affine
    in lambda), and None otherwise.
    """
    model = protocols[0].model
    n = model.n_qubits
    n_batch = len(protocols)
    exact = [b for b, p in enumerate(protocols) if p.kind == "exact-cd"]
    dim = 1 << n
    ops = [t.operator for t in model.terms]
    if any(p.kind == "local-cd" for p in protocols):
        ops += [sigma_y(n, j) for j in range(n)]

    # word groups: x_mask -> per-component z-sign vectors (only components
    # that actually contribute to the mask are stored)
    states = np.arange(dim)
    groups: Dict[int, Dict[int, np.ndarray]] = {}
    for comp_idx, op in enumerate(ops):
        for (x, z), w in op:
            rows = groups.setdefault(x, {})
            signs = 1.0 - 2.0 * (np.bitwise_count(states & z) & 1)
            if comp_idx in rows:
                rows[comp_idx] = rows[comp_idx] + w * signs
            else:
                rows[comp_idx] = w * signs
    diag = groups.pop(0, None)
    diag = None if diag is None else _stack_groups([diag], [states])
    masks = sorted(groups)
    perms = np.stack([states ^ x for x in masks]) if masks else None
    off = _stack_groups([groups[x] for x in masks], perms) if masks else None
    # flat gather index into the block: [k, b, s] -> row b, state s ^ x_k
    gather = None if perms is None else np.arange(n_batch)[:, None] * dim + perms[:, None, :]
    if exact:
        h_a = model.h0(0.0).to_dense()
        h_b = model.dh0_dlambda(0.0).to_dense()
    chunk = max(1, min(TABLE_CHUNK, CHUNK_BYTES // (n_batch * (len(masks) + 1) * dim * 16)))
    table_chunk = chunk * (TABLE_CHUNK // chunk)

    for t0 in range(0, len(times), table_chunk):
        table_times = times[t0 : t0 + table_chunk]
        lams, lam_dots = protocols[0].ramp.table(table_times)
        coeffs = np.zeros((len(table_times), n_batch, len(ops)))
        for b, protocol in enumerate(protocols):
            fields, y = protocol.tables(table_times, lams, lam_dots)
            for c, term in enumerate(model.terms):
                coeffs[:, b, c] = fields[term.name]
            if y is not None:
                coeffs[:, b, len(model.terms):] = y
        for c0 in range(0, len(table_times), chunk):
            part = coeffs[c0 : c0 + chunk]
            # diagonal (C, B, 2^N) and off-diagonal (C, groups, B, 2^N) vectors
            d = None if diag is None else _contract_groups(part, *diag)[:, 0]
            o = None if off is None else _contract_groups(part, *off)
            for j in range(len(part)):
                i = c0 + j
                agp = lam_dots[i] * exact_agp(h_a + lams[i] * h_b, h_b) if exact else None
                yield None if d is None else d[j], None if o is None else o[j], gather, exact, agp


def _apply(h, psi: np.ndarray) -> np.ndarray:
    """One substep ``h`` of :func:`_hamiltonians` applied to each row of the
    ``(B, 2^N)`` block ``psi``."""
    d, off, gather, exact, agp = h
    # out[b, s] = d[b, s] psi[b, s] + sum_x off_x[b, s] psi[b, s ^ x],
    # plus (agp psi[b])[s] for the exact-CD rows b
    out = d * psi if d is not None else np.zeros_like(psi)
    if off is not None:
        out += (off * np.take(psi, gather)).sum(axis=0)
    if agp is not None:
        out[exact] += psi[exact] @ agp.T
    return out


def _stack_groups(groups: List[Dict[int, np.ndarray]], sources) -> Tuple[np.ndarray, np.ndarray]:
    """Components ``(groups, m)`` and weights ``(groups, m, 2^N)`` read at
    each group's ``sources``, padded with zero weights on component 0 to the
    largest component count m.  The weights are real where every imaginary
    part is exactly zero, which changes no value."""
    width = max(len(rows) for rows in groups)
    comp_idx = np.zeros((len(groups), width), dtype=int)
    vecs = np.zeros((len(groups), width, len(sources[0])), dtype=complex)
    for k, (rows, source) in enumerate(zip(groups, sources)):
        for i, c in enumerate(sorted(rows)):
            comp_idx[k, i] = c
            vecs[k, i] = rows[c][source]
    return comp_idx, (vecs if vecs.imag.any() else vecs.real.copy())


def _contract_groups(coeffs: np.ndarray, comp_idx: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``(C, groups, B, 2^N)`` vectors of stacked word groups (see
    :func:`_stack_groups`) at the coefficients ``(C, B, components)``, each
    substep's block contiguous."""
    n_groups, width = comp_idx.shape
    n_sub, n_batch, _ = coeffs.shape
    g = coeffs[..., comp_idx].transpose(2, 0, 1, 3).reshape(n_groups, -1, width)
    out = np.matmul(g, vecs).reshape(n_groups, n_sub, n_batch, -1)
    return np.ascontiguousarray(out.swapaxes(0, 1))


def _output_steps(protocols: Sequence[Protocol], steps: int, n_out: int) -> np.ndarray:
    """Indices of the ``n_out`` RK4 steps sampled for output, both ends
    included, once the protocols are known to fit the propagator."""
    for protocol in protocols:
        n = protocol.model.n_qubits
        if n > STATE_VECTOR_MAX_QUBITS:
            raise CapacityError(f"{n} qubits exceeds state-vector cap")
        if protocol.kind == "exact-cd" and n > EXACT_CD_MAX_QUBITS:
            raise CapacityError(f"exact-CD baseline restricted to {EXACT_CD_MAX_QUBITS} qubits")
    if steps < 100:
        raise ValueError("steps must be >= 100")
    return np.unique(np.linspace(0, steps, n_out).round().astype(int))


def _check_batch(protocols: Sequence[Protocol]) -> None:
    if not protocols:
        raise ValueError("no protocols to evolve")
    first = protocols[0]
    if any(p.model is not first.model or p.ramp != first.ramp for p in protocols):
        raise ValueError("a batch must share one model and one ramp")


def evolve(
    protocols: Sequence[Protocol],
    psi0: np.ndarray,
    steps: int = 2000,
    n_out: int = 101,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 propagation over [0, tau] of every protocol from the
    same initial state, as one block.

    The protocols share one model and one ramp.  Returns (times, states)
    sampled at ``n_out`` integrator grid points (including both endpoints),
    ``states`` shaped ``(n_out, 2^N, B)`` with one column per protocol.
    Raises :class:`StepSizeError`, naming the protocol, if a state's norm
    drifts by more than 1e-6 anywhere on the output grid: the first protocol
    over the tolerance at the earliest such point.
    """
    protocols = list(protocols)
    _check_batch(protocols)
    out_idx = _output_steps(protocols, steps, n_out)
    tau = protocols[0].ramp.tau
    h = tau / steps
    # substep times: t_k, t_k + h/2 interleaved, plus the final endpoint
    sub = np.empty(2 * steps + 1)
    sub[0::2] = np.linspace(0.0, tau, steps + 1)
    sub[1::2] = sub[0:-1:2] + 0.5 * h
    hamiltonians = _hamiltonians(protocols, sub)
    end = next(hamiltonians)

    out_times = sub[2 * out_idx]
    psi = np.tile(np.asarray(psi0, dtype=complex), (len(protocols), 1))
    states = np.empty((len(out_idx), psi.shape[1], len(protocols)), dtype=complex)
    pointer = 0

    for k in range(steps + 1):
        if pointer < len(out_idx) and k == out_idx[pointer]:
            drift = np.abs(np.linalg.norm(psi, axis=1) - 1.0)
            over = np.flatnonzero(drift > NORM_DRIFT_TOL)
            if over.size:
                raise StepSizeError(float(drift[over[0]]), steps, kind=protocols[over[0]].kind)
            states[pointer] = psi.T
            pointer += 1
        if k == steps:
            break
        # substeps 2k, 2k+1 and 2k+2; the end one starts the next step
        start, mid, end = end, next(hamiltonians), next(hamiltonians)
        k1 = -1j * _apply(start, psi)
        k2 = -1j * _apply(mid, psi + 0.5 * h * k1)
        k3 = -1j * _apply(mid, psi + 0.5 * h * k2)
        k4 = -1j * _apply(end, psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out_times, states


def ground_trace(model: Model, lambdas: Sequence[float]) -> List[np.ndarray]:
    """Instantaneous ground-subspace bases of H0(lambda) along a grid."""
    bases = []
    for lam in lambdas:
        _, basis = ground_space_op(model.h0(lam))
        bases.append(basis)
    return bases


def run_protocol(
    protocols: Sequence[Protocol],
    steps: int = 2000,
    n_out: int = 101,
) -> List[FidelityTrace]:
    """Evolve every protocol from the instantaneous ground state at t = 0
    and record F(t) and F-tilde(t) on the output grid; one trace per
    protocol, in order.  A degenerate start raises.

    The protocols share one model and one ramp, and evolve as one batch
    (see :func:`evolve`); the ground bases are solved once and shared.
    """
    protocols = list(protocols)
    _check_batch(protocols)
    model, ramp = protocols[0].model, protocols[0].ramp
    times = np.linspace(0.0, ramp.tau, steps + 1)[_output_steps(protocols, steps, n_out)]
    lams, _ = ramp.table(times)
    ground_bases = ground_trace(model, lams)
    if ground_bases[0].shape[1] != 1:
        raise ValueError("degenerate initial ground state")
    _, states = evolve(protocols, ground_bases[0][:, 0], steps=steps, n_out=n_out)
    return [_fidelity_trace(protocol, np.ascontiguousarray(states[:, :, col]), times, lams, ground_bases)
            for col, protocol in enumerate(protocols)]


def _fidelity_trace(protocol: Protocol, states: np.ndarray, times: np.ndarray, lams: np.ndarray,
                    ground_bases: List[np.ndarray]) -> FidelityTrace:
    """F and F-tilde of one protocol's states ``(n_out, 2^N)`` on the output grid."""
    f_vals = np.empty(len(times))
    ft_vals = np.empty(len(times))
    if protocol.kind == "ra":
        q_tables = protocol.q_table(times)
        q_terms = [(t.param, t.operator.diag_vector().real) for t in protocol.model.terms if t.param in ("gamma", "phi")]
    for i in range(len(times)):
        f_vals[i] = fidelity(states[i], ground_bases[i])
        if protocol.kind == "ra":
            q_diag = np.zeros(states.shape[1])
            for pname, diag in q_terms:
                q_diag = q_diag + q_tables[pname][i] * diag
            ft_vals[i] = rotated_fidelity(states[i], ground_bases[i], q_diag)
        else:
            ft_vals[i] = f_vals[i]
    trace = FidelityTrace(times=times, lambdas=lams, F=f_vals, F_tilde=ft_vals)
    trace.validate()
    return trace
