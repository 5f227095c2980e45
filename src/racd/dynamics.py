"""Exact Schroedinger propagation of assembled protocols and the fidelity
observables F(t) and F-tilde(t).

Evolution is fixed-step fourth-order Runge-Kutta on dpsi/dt = -i H(t) psi
with the Hamiltonian rebuilt from the protocols' control fields at every
substep.  All protocols of one model and ramp evolve together, as one block
with a state per protocol; exact-CD adds its dense gauge-potential term to
its own states only.  A model that declares a symmetry sector (the periodic
chain's translation-invariant one) is evolved and ground-solved in it, and
its states and ground bases are embedded back in the full space.  The state
norm is asserted, never repaired: drift is the integrator-quality signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, eigh
from scipy.sparse.linalg import eigsh

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
    if np.iscomplexobj(h) and not h.imag.any():
        h = h.real
    _require_hermitian(h)
    dim = h.shape[0]
    return _ground_cluster(lambda k: _lowest_levels(h, k), min(2, dim), dim)


def _require_hermitian(h) -> None:
    """np.allclose(h, h^dagger, rtol=0, atol=1e-12), NaN failing, for a dense
    ``h`` at a fifth of its cost (on 8 qubits as much as the solve's), or a
    sparse one."""
    if not abs(h - h.conj().T).max() <= 1e-12:
        raise ValueError("Hamiltonian must be Hermitian")


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
    """Ground space, as :func:`ground_space`, of a sparse matrix or of a
    SpinOperator, taken in that form from its slot tables.  Up to the
    dimension of ``DENSE_MATRIX_MAX_QUBITS`` qubits it is solved densely;
    above, by ``eigsh`` (real for a real matrix) from a fixed start vector,
    so that no solve depends on earlier ones, and the cluster's vectors are
    orthonormalized, which Lanczos does not do within a degenerate level."""
    h = op if sparse.issparse(op) else _word_tables([op]).matrix([1.0])
    dim = h.shape[0]
    if dim <= 1 << DENSE_MATRIX_MAX_QUBITS:
        return ground_space(h.toarray())
    _require_hermitian(h)
    v0 = np.random.Generator(np.random.PCG64(0)).normal(size=dim)
    energy, vec = _ground_cluster(lambda k: eigsh(h, k=k, which="SA", v0=v0), min(6, dim - 2), dim - 2)
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
#: largest distance of an initial state from the model's sector for the
#: evolution to run in it
SECTOR_TOL = 1e-12


@dataclass(frozen=True)
class _WordTables:
    """The components O_c of a batch's Hamiltonians (model terms, then one
    sigma-y per site) in slot form on a basis of ``dim`` states: the full
    2^N computational basis, or a sector's.

    Row r of sum_c coeff_c O_c holds the diagonal entry sum_c coeff_c
    diag_c[r] and, in each slot k, the entry sum_c coeff_c off_{k,c}[r] at
    column ``cols[k, r]``.  ``diag`` and ``off`` are stacked as
    :func:`_stack_slots` makes them (None where no component has such an
    entry).  In the full space slot k is the k-th nonzero x-mask of the
    Pauli words, gathering from s ^ x; in a sector a row holds as many
    slots as it has distinct neighbouring orbits, and a row with fewer
    pads with zero weights on its own column.
    """

    dim: int
    diag: Tuple[np.ndarray, np.ndarray] | None
    off: Tuple[np.ndarray, np.ndarray] | None
    cols: np.ndarray | None

    def matrix(self, coeffs: Sequence[float]) -> sparse.csr_array:
        """Sparse matrix sum_c coeffs[c] O_c, real where every weight is."""
        c = np.asarray(coeffs, dtype=float)[None, None, :]
        h = sparse.csr_array((self.dim, self.dim))
        if self.diag is not None:
            h = h + sparse.diags_array(_contract_groups(c, *self.diag)[0, 0, 0])
        if self.off is not None:
            # a row's padding slots add zeros to its diagonal
            off = _contract_groups(c, *self.off)[0, :, 0]
            h = h + sparse.csr_array((off.ravel(), (np.tile(np.arange(self.dim), len(off)), self.cols.ravel())),
                                     shape=h.shape)
        return h


def _word_tables(ops, sector=None) -> _WordTables:
    """Slot tables of the component operators ``ops`` on the full space or,
    given a :class:`~racd.models.TranslationSector`, on its basis, where
    each component is P^T O_c P:

        M_c[orbit(s), orbit(s ^ x)] += amp(s) * w_{x,c}(s ^ x) * amp(s ^ x)

    over every destination state s and x-mask x of the component's words,
    with w_{x,c} the summed weights of its words of that mask at their
    source state.  The full space is the case orbit(s) = s, amp = 1, where
    every entry is a single weight, copied exactly.  A row's off-diagonal
    columns take slots in the order of the smallest x-mask reaching them
    (then by column).
    """
    n = ops[0].n_qubits
    states = np.arange(1 << n)
    # x_mask -> per-component weights at the source state (only components
    # that actually contribute to the mask are stored)
    groups: Dict[int, Dict[int, np.ndarray]] = {}
    for comp_idx, op in enumerate(ops):
        for (x, z), w in op:
            rows = groups.setdefault(x, {})
            signs = 1.0 - 2.0 * (np.bitwise_count(states & z) & 1)
            if comp_idx in rows:
                rows[comp_idx] = rows[comp_idx] + w * signs
            else:
                rows[comp_idx] = w * signs
    orbit, dim = (states, len(states)) if sector is None else (sector.orbit, sector.dim)
    row, col, key, comp, val = [], [], [], [], []
    for k, x in enumerate(sorted(groups)):
        source = states ^ x
        for c in sorted(groups[x]):
            weight = groups[x][c][source]
            row.append(orbit)
            col.append(orbit[source])
            key.append(np.full(len(states), k))
            comp.append(np.full(len(states), c))
            val.append(weight if sector is None else sector.amp * weight * sector.amp[source])
    if not val:
        return _WordTables(dim, None, None, None)
    row, col, key, comp, val = map(np.concatenate, (row, col, key, comp, val))

    on_diag = row == col
    diag = None
    if on_diag.any():
        diag = _stack_slots(np.zeros(on_diag.sum(), dtype=int), comp[on_diag], row[on_diag], val[on_diag], 1, dim)
    off, cols = None, None
    if not on_diag.all():
        row, col, key, comp, val = (a[~on_diag] for a in (row, col, key, comp, val))
        pairs, pair_of = np.unique(row * dim + col, return_inverse=True)
        first_key = np.full(len(pairs), len(groups))
        np.minimum.at(first_key, pair_of, key)
        pair_row, pair_col = pairs // dim, pairs % dim
        order = np.lexsort((pair_col, first_key, pair_row))
        # rank of each pair within its row, in slot order
        rank = np.arange(len(pairs)) - np.searchsorted(pair_row[order], pair_row[order])
        slot = np.empty(len(pairs), dtype=int)
        slot[order] = rank
        n_slots = int(rank.max()) + 1
        cols = np.tile(np.arange(dim), (n_slots, 1))
        cols[slot, pair_row] = pair_col
        off = _stack_slots(slot[pair_of], comp, row, val, n_slots, dim)
    return _WordTables(dim, diag, off, cols)


def _h0_pair(model: Model, sector=None) -> Tuple[sparse.csr_array, sparse.csr_array]:
    """H_a = H0(0) and H_b = dH0/dlambda, so that H0(lambda) = H_a +
    lambda * H_b, as sparse matrices from the slot tables of the model's
    terms, in the full space or in ``sector``."""
    tables = _word_tables([t.operator for t in model.terms], sector)
    return tables.matrix([t.field0 for t in model.terms]), tables.matrix([t.field1 for t in model.terms])


def _stack_slots(slot, comp, row, val, n_slots: int, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Components ``(slots, m)`` and weights ``(slots, m, dim)`` of the
    entries ``val`` at (``slot``, ``comp``, ``row``), summed where several
    land on one place (a lone entry is copied exactly).  Each slot lists the
    components it holds in increasing order, padded with zero weights on
    component 0 to the largest count m.  The weights are real where every
    imaginary part is exactly zero, which changes no value."""
    n_comps = int(comp.max()) + 1
    held, place = np.unique(slot * n_comps + comp, return_inverse=True)
    held_slot = held // n_comps
    position = np.arange(len(held)) - np.searchsorted(held_slot, held_slot)
    width = int(position.max()) + 1
    comp_idx = np.zeros((n_slots, width), dtype=int)
    comp_idx[held_slot, position] = held % n_comps
    target = (slot * width + position[place]) * dim + row
    order = np.argsort(target, kind="stable")
    target = target[order]
    starts = np.flatnonzero(np.r_[True, target[1:] != target[:-1]])
    vecs = np.zeros(n_slots * width * dim, dtype=complex)
    vecs[target[starts]] = np.add.reduceat(val[order], starts)
    vecs = vecs.reshape(n_slots, width, dim)
    return comp_idx, (vecs if vecs.imag.any() else vecs.real.copy())


def _hamiltonians(protocols: Sequence[Protocol], times: np.ndarray, sector=None) -> Iterator:
    """H(t) at each of ``times``, in order, for a batch of protocols of one
    model and ramp; :func:`_apply` applies each to a ``(B, dim)`` block
    holding one state per protocol, in the full space (dim = 2^N) or, given
    the model's ``sector``, in that sector (dim = its size).

    The components (model terms, plus one sigma-y per site when the batch
    holds local CD) are held as slot tables (:func:`_word_tables`): a
    diagonal, and off-diagonal slots with a gather index and per-component
    weights, so that one batched product contracts them all.  The
    protocols' field tables are evaluated in chunks of substeps, and
    contracted into per-substep vectors in smaller chunks, so memory does
    not grow with the step count; the ramp is evaluated once per table
    chunk for the whole batch and handed to each protocol's
    :meth:`~racd.optimizer.Protocol.tables`.  Each substep is a
    ``(diagonal, off-diagonal, gather index, exact columns, agp)`` tuple.
    Exact-CD columns are contracted at their UA fields like any other; when
    the batch holds them, ``agp`` is the dense lambda_dot * A(lambda) that
    they add, with A the spectral gauge potential of H0(lambda) = H_a +
    lambda * H_b (every schedule is affine in lambda) on the same basis,
    and None otherwise.
    """
    model = protocols[0].model
    n = model.n_qubits
    n_batch = len(protocols)
    exact = [b for b, p in enumerate(protocols) if p.kind == "exact-cd"]
    ops = [t.operator for t in model.terms]
    if any(p.kind == "local-cd" for p in protocols):
        ops += [sigma_y(n, j) for j in range(n)]
    tables = _word_tables(ops, sector)
    dim, diag, off = tables.dim, tables.diag, tables.off
    # flat gather index into the block: [k, b, r] -> row b, state cols[k, r]
    gather = None if off is None else np.arange(n_batch)[:, None] * dim + tables.cols[:, None, :]
    # the full space keeps the operators' own dense form: the gauge potential
    # is ill-conditioned near level crossings, and the tables' rounding of H0
    # would move it (by 2.5e-8 on LHZ n=4)
    if exact and sector is None:
        h_a, h_b = model.h0(0.0).to_dense(), model.dh0_dlambda(0.0).to_dense()
    elif exact:
        # complex, as before: exact_agp's syevd fails on some real H0 (see ground_space)
        h_a, h_b = (m.toarray().astype(complex) for m in _h0_pair(model, sector))
    n_slots = 0 if off is None else len(off[0])
    chunk = max(1, min(TABLE_CHUNK, CHUNK_BYTES // (n_batch * (n_slots + 1) * dim * 16)))
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
            # diagonal (C, B, dim) and off-diagonal (C, slots, B, dim) vectors
            d = None if diag is None else _contract_groups(part, *diag)[:, 0]
            o = None if off is None else _contract_groups(part, *off)
            for j in range(len(part)):
                i = c0 + j
                agp = lam_dots[i] * exact_agp(h_a + lams[i] * h_b, h_b) if exact else None
                yield None if d is None else d[j], None if o is None else o[j], gather, exact, agp


def _apply(h, psi: np.ndarray) -> np.ndarray:
    """One substep ``h`` of :func:`_hamiltonians` applied to each row of the
    ``(B, dim)`` block ``psi``."""
    d, off, gather, exact, agp = h
    # out[b, r] = d[b, r] psi[b, r] + sum_k off_k[b, r] psi[b, cols[k, r]],
    # plus (agp psi[b])[r] for the exact-CD rows b
    out = d * psi if d is not None else np.zeros_like(psi)
    if off is not None:
        out += (off * np.take(psi, gather)).sum(axis=0)
    if agp is not None:
        out[exact] += psi[exact] @ agp.T
    return out


def _contract_groups(coeffs: np.ndarray, comp_idx: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``(C, slots, B, dim)`` vectors of stacked slots (see
    :func:`_stack_slots`) at the coefficients ``(C, B, components)``, each
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

    Where the model declares a sector (:attr:`racd.models.Model.sector`)
    and ``psi0`` lies in it (within ``SECTOR_TOL`` of its projection), the
    block evolves in the sector and is embedded in the full space at the
    output points only; otherwise it evolves in the full space.
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
    psi0 = np.asarray(psi0, dtype=complex)
    sector = protocols[0].model.sector
    if sector is not None:
        inside = sector.project(psi0)
        if np.linalg.norm(psi0 - sector.embed(inside)) > SECTOR_TOL:
            sector = None
    hamiltonians = _hamiltonians(protocols, sub, sector)
    end = next(hamiltonians)

    out_times = sub[2 * out_idx]
    psi = np.tile(psi0 if sector is None else inside, (len(protocols), 1))
    states = np.empty((len(out_idx), len(psi0), len(protocols)), dtype=complex)
    pointer = 0

    for k in range(steps + 1):
        if pointer < len(out_idx) and k == out_idx[pointer]:
            # the sector's basis is orthonormal, so its norms are the full space's
            drift = np.abs(np.linalg.norm(psi, axis=1) - 1.0)
            over = np.flatnonzero(drift > NORM_DRIFT_TOL)
            if over.size:
                raise StepSizeError(float(drift[over[0]]), steps, kind=protocols[over[0]].kind)
            states[pointer] = (psi if sector is None else sector.embed(psi)).T
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
    """Instantaneous ground-subspace bases of H0(lambda) along a grid, in
    the full 2^N space.

    Each solve is of H0 = H_a + lambda * H_b, by :func:`ground_space_op`,
    with H_a and H_b built once from slot tables (:func:`_h0_pair`).  Where
    the model declares a sector, each lambda is first solved there.  That
    answer is taken only with a certificate: the sector's ground cluster is
    one vector, and every one of its amplitudes is nonzero and of one sign.
    Its embedding (P has positive entries) is then an eigenvector of H0
    with one sign, which for a stoquastic H0 with an irreducible
    off-diagonal part (the chain's, while its X field 1 - lambda/2 is
    nonzero) only the unique ground state is (Perron-Frobenius).  Any other
    lambda is solved in the full space, built at the first such lambda.
    """
    sector = model.sector
    if sector is not None:
        sec_a, sec_b = _h0_pair(model, sector)
    full = None
    bases = []
    for lam in lambdas:
        if sector is not None:
            _, vec = ground_space_op(sec_a + lam * sec_b)
            if _one_signed(vec):
                bases.append(sector.embed(vec.T).T)
                continue
        full = full or _h0_pair(model)
        _, basis = ground_space_op(full[0] + lam * full[1])
        bases.append(basis)
    return bases


def _one_signed(basis: np.ndarray) -> bool:
    """Whether ``basis`` is a single real vector whose amplitudes are all
    nonzero and of one sign."""
    if basis.shape[1] != 1 or np.iscomplexobj(basis):
        return False
    return bool((basis > 0).all() or (basis < 0).all())


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
