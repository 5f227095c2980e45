"""Exact Schroedinger propagation of assembled protocols and the fidelity
observables F(t) and F-tilde(t).

Evolution is fixed-step fourth-order Runge-Kutta on dpsi/dt = -i H(t) psi
with the Hamiltonian rebuilt from the protocols' control fields at every
substep.  All protocols of one model and ramp evolve together, as one group
with a state per protocol, and the groups of several models on one ramp
evolve together in one loop, each in its own segment of one state vector.
A model's Pauli terms are read through one stacked slot table (the diagonal
last), from which both the RK4 weights and the one H_a and H_b of the
ground solves and exact-CD are made; exact-CD's dense gauge-potential term
is ``dim`` more slots of that table, weighted on its own states only.  A model that declares a
symmetry sector (the periodic chain's translation-invariant one) is evolved
and ground-solved in it, and its states and ground bases are embedded back
in the full space.  The state norm is asserted, never repaired: drift is
the integrator-quality signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, eigh
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .agp import _require_hermitian, exact_agp
from .errors import RacdError
from .models import Model
from .operators import (
    DENSE_MATRIX_MAX_QUBITS,
    STATE_VECTOR_MAX_QUBITS,
    CapacityError,
    sigma_y,
)
from .optimizer import Protocol, write_csv

NORM_DRIFT_TOL = 1e-6
#: the largest F of a state whose norm passes the drift check: F <= |psi|^2
FIDELITY_MAX = (1.0 + NORM_DRIFT_TOL) ** 2
EXACT_CD_MAX_QUBITS = 8
assert EXACT_CD_MAX_QUBITS <= DENSE_MATRIX_MAX_QUBITS  # exact-CD's H0 pair is dense (_h0_pair)
DEGENERACY_TOL = 1e-10


class StepSizeError(RacdError, RuntimeError):
    """Norm drift exceeded tolerance during evolution."""

    def __init__(self, drift: float, steps: int, kind: str | None = None):
        super().__init__(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_TOL} at {steps} RK4 steps")
        self.drift, self.steps, self.tol = drift, steps, NORM_DRIFT_TOL
        #: the protocol kind whose state drifted, where known
        self.kind = kind

    def steps_needed(self) -> int | None:
        """Step count that would bring this drift down to the tolerance if it
        scales as dt^4, RK4's global order.  RK4's norm drift falls faster
        (about dt^5), so the estimate errs high; it is still an estimate, as
        only the first output point over the tolerance was seen.  None for a
        drift that is not finite (an overflowed state), which no step count
        can be read from."""
        if not math.isfinite(self.drift):
            return None
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
    """Ground space, as :func:`ground_space`, of a dense or sparse matrix or
    of a SpinOperator, taken in that form from its slot tables.  Up to the
    dimension of ``DENSE_MATRIX_MAX_QUBITS`` qubits it is solved densely;
    above, by ``eigsh`` (real for a real matrix) from fixed start vectors,
    so that no solve depends on earlier ones, and the cluster's vectors are
    orthonormalized, which Lanczos does not do within a degenerate level.

    Lanczos finds the copies of a degenerate level only through rounding,
    so it can miss some.  The cluster is therefore completed: while the
    lowest level of ``h`` with the cluster's span shifted up by 1 + |E0|,
    solved from a new start vector, is still within ``DEGENERACY_TOL`` of
    E0, its vectors there join the cluster.  A complete cluster comes back
    unchanged.  An ARPACK failure, or a round that adds no new direction,
    raises :class:`RacdError`."""
    h = op if sparse.issparse(op) or isinstance(op, np.ndarray) else _word_tables([op]).matrix([1.0])
    dim = h.shape[0]
    if dim <= 1 << DENSE_MATRIX_MAX_QUBITS:
        return ground_space(h if isinstance(h, np.ndarray) else h.toarray())
    _require_hermitian(h)
    rng = np.random.Generator(np.random.PCG64(0))

    def lowest(a, k: int, v0: np.ndarray, tol: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
        try:
            return eigsh(a, k=k, which="SA", v0=v0, tol=tol)
        except ArpackError as exc:
            raise RacdError(f"iterative ground solve failed: {exc}") from None

    v0 = rng.normal(size=dim)
    energy, vec = _ground_cluster(lambda k: lowest(h, k, v0), min(6, dim - 2), dim - 2)
    basis, shift, rough = np.linalg.qr(vec)[0], 1.0 + abs(energy), DEGENERACY_TOL ** 0.5
    while basis.shape[1] < dim:
        deflated = LinearOperator(h.shape, lambda x: h @ x + shift * (basis @ (basis.conj().T @ x)),
                                  dtype=np.result_type(h.dtype, basis.dtype))
        # a new start: the last one has (to rounding) no component on a copy that its solve missed
        v0 = rng.normal(size=dim)
        # first to the relative residual ``rough``, which puts a level within rough * |level| of the one
        # found; only a level that close to E0 is solved to full precision
        (level,), _ = lowest(deflated, 1, v0, rough)
        if level > energy + DEGENERACY_TOL + rough * abs(level):
            break
        level, more = _ground_cluster(lambda k: lowest(deflated, k, v0), min(6, dim - 2), dim - 2)
        if level > energy + DEGENERACY_TOL:
            break
        q, r = np.linalg.qr(np.hstack([basis, more]))
        new = np.abs(np.diag(r)[basis.shape[1]:]) > 0.5
        if not new.any():
            raise RacdError(f"iterative ground solve found no new vector of its {basis.shape[1]}-fold level")
        basis = np.hstack([basis, q[:, basis.shape[1]:][:, new]])
    return energy, basis


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
    """Instantaneous fidelities along a run: F with the instantaneous ground
    space, and F_tilde with it rotated by the protocol's Q, which is zero,
    so that F_tilde equals F, except for the rotated-frame protocol."""

    times: np.ndarray
    lambdas: np.ndarray
    F: np.ndarray
    F_tilde: np.ndarray

    def validate(self) -> None:
        """Refuse a fidelity that is NaN, below -1e-9 or above ``FIDELITY_MAX`` (as
        far past 1 as the accepted norm drift allows), and an F[0] not 1 within 1e-9."""
        for arr in (self.F, self.F_tilde):
            if not np.all((arr >= -1e-9) & (arr <= FIDELITY_MAX)):
                raise ValueError(f"fidelity outside [0, {FIDELITY_MAX!r}]")
        if abs(self.F[0] - 1.0) > 1e-9:
            raise ValueError("run did not start in the ground state")

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "lambda", "F", "F_tilde"], zip(self.times, self.lambdas, self.F, self.F_tilde))


#: substeps whose protocol tables are evaluated in one call
TABLE_CHUNK = 256
#: bytes of one substep's weights of a block of groups evolved together (a
#: larger group is a block of its own)
BLOCK_BYTES = 1 << 18
#: bytes of a block's weights made at once: a chunk of substeps, at least
#: those of one step
CHUNK_BYTES = 1 << 21
#: largest distance of an initial state from the model's sector for the
#: evolution to run in it
SECTOR_TOL = 1e-12


@dataclass(frozen=True)
class _WordTables:
    """The components O_c of a batch's Hamiltonians (model terms, then one
    sigma-y per site) as one stack of slots on a basis of ``cols.shape[1]``
    states: the full 2^N computational basis, or a sector's.

    Row r of sum_c coeff_c O_c holds, in each slot k, the entry sum_c
    coeff_c vecs[k, m, r] over the slot's components c = comp_idx[k, m], at
    column ``cols[k, r]``; ``comp_idx`` and ``vecs`` are as
    :func:`_stack_slots` makes them.  The off-diagonal slots come first: in
    the full space slot k is the k-th nonzero x-mask of the Pauli words,
    gathering from s ^ x; in a sector a row holds as many slots as it has
    distinct neighbouring orbits, and a row with fewer pads with zero
    weights on its own column.  The diagonal is the last slot, at each row's
    own column (zero where no component has a diagonal entry).  The RK4
    weights (:class:`_Group`) and the ground solves' H_a and H_b
    (:meth:`matrix`) both read this one stack.
    """

    comp_idx: np.ndarray
    vecs: np.ndarray
    cols: np.ndarray

    def matrix(self, coeffs: Sequence[float]) -> sparse.csr_array:
        """Sparse matrix sum_c coeffs[c] O_c, real where every weight is.
        Padding slots add zeros to the diagonal's entry at (r, r)."""
        n_slots, dim = self.cols.shape
        c = np.asarray(coeffs, dtype=float)[self.comp_idx][:, None, :]
        vals = np.matmul(c, self.vecs)
        return sparse.csr_array((vals.ravel(), (np.tile(np.arange(dim), n_slots), self.cols.ravel())),
                                shape=(dim, dim))


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
    (then by column); its diagonal entries take the last slot.
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
    if not groups:
        return _WordTables(np.zeros((1, 1), dtype=int), np.zeros((1, 1, dim)), np.arange(dim)[None, :])
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
    row, col, key, comp, val = map(np.concatenate, (row, col, key, comp, val))

    off = row != col
    pairs, pair_of = np.unique(row[off] * dim + col[off], return_inverse=True)
    first_key = np.full(len(pairs), len(groups))
    np.minimum.at(first_key, pair_of, key[off])
    pair_row, pair_col = pairs // dim, pairs % dim
    order = np.lexsort((pair_col, first_key, pair_row))
    # rank of each pair within its row, in slot order
    rank = np.arange(len(pairs)) - np.searchsorted(pair_row[order], pair_row[order])
    n_off = int(rank.max(initial=-1)) + 1
    pair_slot = np.empty(len(pairs), dtype=int)
    pair_slot[order] = rank
    cols = np.tile(np.arange(dim), (n_off + 1, 1))
    cols[pair_slot, pair_row] = pair_col
    slot = np.full(len(row), n_off)
    slot[off] = pair_slot[pair_of]
    return _WordTables(*_stack_slots(slot, comp, row, val, n_off + 1, dim), cols)


def _h0_pair(model: Model, sector=None, dense: bool = True) -> Tuple[np.ndarray | sparse.csr_array, ...]:
    """H_a = H0(0) and H_b = dH0/dlambda, so that H0(lambda) = H_a +
    lambda * H_b, from the slot tables of the model's terms, in the full
    space or in ``sector``: where ``dense``, dense up to the dimension of
    ``DENSE_MATRIX_MAX_QUBITS`` qubits, else sparse.  The one H0 of the
    ground solves and of exact-CD's gauge potential, which needs it dense
    (``EXACT_CD_MAX_QUBITS`` is within the dense cap)."""
    tables = _word_tables([t.operator for t in model.terms], sector)
    dense = dense and tables.cols.shape[1] <= 1 << DENSE_MATRIX_MAX_QUBITS
    return tuple(m.toarray() if dense else m for m in (tables.matrix([t.field0 for t in model.terms]),
                                                        tables.matrix([t.field1 for t in model.terms])))


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


def check_capacity(n_qubits: int, kinds: Iterable[str]) -> None:
    """Raise :class:`CapacityError` unless protocols of ``kinds`` on
    ``n_qubits`` qubits fit the state-vector and exact-CD caps."""
    if n_qubits > STATE_VECTOR_MAX_QUBITS:
        raise CapacityError(f"{n_qubits} qubits exceeds state-vector cap")
    if "exact-cd" in kinds and n_qubits > EXACT_CD_MAX_QUBITS:
        raise CapacityError(f"exact-cd is limited to {EXACT_CD_MAX_QUBITS} qubits, got {n_qubits}")


def check_steps(steps: int) -> None:
    """Raise ValueError unless ``steps`` RK4 steps are enough to run."""
    if steps < 100:
        raise ValueError("steps must be >= 100")


def _output_steps(steps: int, n_out: int) -> np.ndarray:
    """Indices of the ``n_out`` RK4 steps sampled for output, both ends
    included, each step once."""
    check_steps(steps)
    if not 2 <= n_out <= steps + 1:
        raise ValueError(f"n_out must be from 2 to steps + 1 = {steps + 1}, got {n_out}")
    return np.unique(np.linspace(0, steps, n_out).round().astype(int))


def _check_groups(groups: Sequence[List[Protocol]]) -> None:
    """Each group holds protocols of one model and one ramp, and every group
    has the same ramp."""
    for protocols in groups:
        if not protocols:
            raise ValueError("no protocols to evolve")
        first = protocols[0]
        if any(p.model is not first.model or p.ramp != first.ramp for p in protocols):
            raise ValueError("a batch must share one model and one ramp")
        if first.ramp != groups[0][0].ramp:
            raise ValueError("groups must share one ramp")


def _output_times(protocols: Sequence[Protocol], steps: int, n_out: int) -> np.ndarray:
    """Times of the output steps (:func:`_output_steps`) on the protocols'
    RK4 grid, once the protocols (of one model) fit the propagator."""
    check_capacity(protocols[0].model.n_qubits, [p.kind for p in protocols])
    return np.linspace(0.0, protocols[0].ramp.tau, steps + 1)[_output_steps(steps, n_out)]


def evolve(
    protocols: Sequence[Protocol],
    psi0: np.ndarray,
    steps: int = 2000,
    n_out: int = 101,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 propagation over [0, tau] of every protocol from the
    same initial state, as one block: the one-group case of the block loop
    (:func:`_evolve_groups`).

    The protocols share one model and one ramp, and ``psi0`` is a unit
    vector of the full 2^N space (a ValueError before any work otherwise).
    Returns (times, states) at ``n_out`` integrator grid points (both
    endpoints included, 2 <= ``n_out`` <= ``steps`` + 1), ``states`` a
    ``(n_out, 2^N, B)`` view, one column per protocol, of the RK4 loop's store ``(n_out, B, 2^N)``.
    Raises :class:`StepSizeError`, naming the protocol, if a state's norm
    drifts by more than 1e-6 anywhere on the output grid: the first protocol
    over the tolerance at the earliest such point.

    Where the model declares a sector (:attr:`racd.models.Model.sector`)
    and ``psi0`` lies in it (within ``SECTOR_TOL`` of its projection), the
    block evolves in the sector and is embedded in the full space at the
    output points only; otherwise it evolves in the full space.
    """
    protocols = list(protocols)
    _check_groups([protocols])
    times = _output_times(protocols, steps, n_out)
    dim, psi0 = 1 << protocols[0].model.n_qubits, np.asarray(psi0)
    if psi0.shape != (dim,):
        raise ValueError(f"psi0 has shape {psi0.shape}, not ({dim},)")
    # a NaN or infinite amplitude fails too
    if not abs(np.linalg.norm(psi0) - 1.0) <= NORM_DRIFT_TOL:
        raise ValueError(f"psi0 has norm {np.linalg.norm(psi0):.6g}, not 1 within {NORM_DRIFT_TOL}")
    (states,) = _evolve_groups([(protocols, psi0)], steps, n_out)
    if isinstance(states, Exception):
        raise states
    return times, states


def _evolve_groups(groups: Iterable[Tuple[Sequence[Protocol], np.ndarray]], steps: int,
                   n_out: int) -> Iterator[np.ndarray | Exception]:
    """:func:`evolve` of several groups ``(protocols, psi0)``, each group one
    model's protocols from that model's initial state, every group on one
    ramp: one entry per group, in order, the group's states as
    :func:`evolve` returns them, or the exception that its evolution raised.

    Each group, known to fit the propagator, evolves in its model's sector
    where :func:`evolve` would, on one substep grid made from the first
    group's ramp, whose values there (one :meth:`Ramp.table` for the whole
    stream) every group reads.  Consecutive groups are evolved as one block
    (:func:`_evolve_block`) while one substep's weights of the block stay
    within ``BLOCK_BYTES``; a group above that is a block of its own.
    ``groups`` is read at most one group past the block being gathered, and
    a block's entries are yielded as soon as it has run, so one block's
    states are held at a time, and a generator that makes each group as it
    is read makes none that is not needed yet.
    """
    block, sub = [], None
    for protocols, psi0 in groups:
        if sub is None:
            out_idx, tau = _output_steps(steps, n_out), protocols[0].ramp.tau
            # substep times: t_k, t_k + h/2 interleaved, plus the final endpoint
            sub = np.repeat(np.linspace(0.0, tau, steps + 1), 2)[:-1]
            sub[1::2] += 0.5 * (tau / steps)
            sub = (sub, *protocols[0].ramp.table(sub))
        member = _Group(list(protocols), np.asarray(psi0, dtype=complex), sub)
        grown = block + [member]
        if block and 16 * max(m.slots for m in grown) * sum(m.size for m in grown) > BLOCK_BYTES:
            yield from _evolve_block(block, out_idx, steps)
            block = []
        block.append(member)
    if block:
        yield from _evolve_block(block, out_idx, steps)


class _Group:
    """One group of a block: the protocols of one model, evolved from that
    model's initial state ``psi0``, and -i H(t) of each on the substep grid
    ``(times, lams, lam_dots)``, the ramp's table there.

    The group evolves in the model's sector where ``psi0`` lies in it
    (within ``SECTOR_TOL`` of its projection), else in the full space
    (``sector`` None); ``start`` is its ``(B, dim)`` start block there, and
    ``size`` its number of amplitudes.  The components (model terms, plus
    one sigma-y per site when the group holds local CD) are the one stack
    of slots of :func:`_word_tables`, the diagonal last, with -i folded into
    their weights, so that one batched product contracts them all; a group
    with exact-CD columns (``exact``) adds ``dim`` dense slots, slot k of
    every row gathering basis state k.  :meth:`write` makes the weights of
    a run of substeps into a caller's array, ``(slots, B * dim)`` per
    substep, which multiply the block at the flat gather index ``gather``;
    the coefficients behind them are each protocol's drive table
    (:meth:`~racd.optimizer.Protocol.tables`), whose columns are in the
    components' order, copied as it is into the protocol's column.  The
    tables are evaluated ``TABLE_CHUNK`` substeps at a time from the grid's
    ramp values.  Exact-CD columns are contracted at their UA fields like
    any other, and their dense slots hold (-i lambda_dot * A(lambda)).T,
    with A the spectral gauge potential of H0(lambda) = H_a + lambda * H_b
    (:func:`_h0_pair`; every schedule is affine in lambda) on the same
    basis; other columns' dense slots stay zero.  ``error`` is
    the exception that making the weights raised, if any.
    """

    def __init__(self, protocols: List[Protocol], psi0: np.ndarray, grid: Tuple[np.ndarray, ...]):
        model = protocols[0].model
        self.protocols, (self.times, self.lams, self.lam_dots) = protocols, grid
        self.sector = model.sector
        if self.sector is not None:
            inside = self.sector.project(psi0)
            if np.linalg.norm(psi0 - self.sector.embed(inside)) > SECTOR_TOL:
                self.sector = None
        self.start = np.tile(psi0 if self.sector is None else inside, (len(protocols), 1))
        self.size, self.slots, self.error = self.start.size, 1, None
        self.exact = [b for b, p in enumerate(protocols) if p.kind == "exact-cd"]
        try:
            self._ops = [t.operator for t in model.terms]
            if any(p.kind == "local-cd" for p in protocols):
                self._ops += [sigma_y(model.n_qubits, j) for j in range(model.n_qubits)]
            tables = _word_tables(self._ops, self.sector)
            self._comp_idx = tables.comp_idx
            # real coefficients act on interleaved (re, im) pairs: half a complex product
            self._vecs = np.ascontiguousarray(-1j * tables.vecs).view(float)[:, None]
            cols, dim = tables.cols, tables.cols.shape[1]
            if self.exact:
                cols = np.concatenate([cols, np.broadcast_to(np.arange(dim)[:, None], (dim, dim))])
            self.slots = len(cols)
            # flat gather index into the block: [k, b * dim + r] -> row b, state cols[k, r]
            self.gather = (np.arange(len(protocols))[:, None] * dim + cols[:, None, :]).reshape(self.slots, -1)
            if self.exact:
                # complex: exact_agp's syevd fails on some real H0 (see ground_space)
                self._h_ab = tuple(m.astype(complex) for m in _h0_pair(model, self.sector))
        except Exception as exc:
            self.error = exc
        self._table = (-1, None)

    def _coeffs(self, start: int, stop: int) -> np.ndarray:
        """Coefficients ``(substeps, B, components)`` of the substeps
        ``start`` to ``stop - 1``, from the table chunks that hold them (the
        last one kept for the next call)."""
        parts = []
        for k in range(start // TABLE_CHUNK, (stop - 1) // TABLE_CHUNK + 1):
            if self._table[0] != k:
                chunk = slice(k * TABLE_CHUNK, (k + 1) * TABLE_CHUNK)
                coeffs = np.zeros((len(self.times[chunk]), len(self.protocols), len(self._ops)))
                for b, protocol in enumerate(self.protocols):
                    table = protocol.tables(self.times[chunk], self.lams[chunk], self.lam_dots[chunk])
                    coeffs[:, b, : table.shape[1]] = table
                self._table = (k, coeffs)
            parts.append(self._table[1][max(start - k * TABLE_CHUNK, 0) : stop - k * TABLE_CHUNK])
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def write(self, out: np.ndarray, start: int, stop: int) -> None:
        """Weights of the substeps ``start`` to ``stop - 1`` into ``out``,
        shaped ``(stop - start, slots, B * dim)`` with each row contiguous."""
        coeffs = self._coeffs(start, stop)
        weights = out.reshape(stop - start, self.slots, len(self.protocols), -1)
        table = len(self._vecs)
        g = coeffs[..., self._comp_idx].transpose(2, 0, 1, 3)
        np.matmul(g, self._vecs, out=weights[:, :table].transpose(1, 0, 2, 3).view(float))
        if self.exact:
            h_a, h_b = self._h_ab
            for rows, lam, lam_dot in zip(weights, self.lams[start:stop], self.lam_dots[start:stop]):
                # dense slot k of row r holds the term's entry (r, k); the term stays referenced, as freeing it
                # lets malloc trim the heap after each exact_agp, whose temporaries then fault in new pages
                self._term = (-1j * lam_dot) * exact_agp(h_a + lam * h_b, h_b)
                rows[table:, self.exact] = self._term.T[:, None]


class _Block:
    """Groups (:class:`_Group`) held as one flat, ragged state vector
    ``psi``, each group's ``(B, dim)`` block one contiguous segment, with
    the weights of a chunk of ``2 * per + 1`` substeps, ``per`` as many
    steps as ``CHUNK_BYTES`` holds.

    Every group writes its weights of a chunk (:meth:`make`, by
    :meth:`_Group.write`) into one ``(substeps, slots, amplitudes)`` array,
    its slots in the order of its one stacked table, the diagonal last, then
    an exact-CD group's dense slots.  The flat gather index is each group's
    ``gather`` plus its segment's offset, and a group with fewer slots is
    padded with zero weights on its own index.  So -i H psi of the whole
    block at one substep (:meth:`apply`), for every drive, is one ``take``,
    ``multiply`` and ``add.reduce`` into preallocated buffers.  ``results``
    holds, per group, the exception that stopped it, if any: a group that
    fails (:meth:`fail`) is zeroed and drops out of ``live``.
    """

    def __init__(self, members: List[_Group]):
        self.members = members
        self.results: list = [m.error for m in members]
        self.live = [g for g, m in enumerate(members) if m.error is None]
        bounds = np.cumsum([0] + [m.size for m in members])
        self.segments = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self.index = np.tile(np.arange(bounds[-1]), (max(m.slots for m in members), 1))
        for g in self.live:
            self.index[: members[g].slots, self.segments[g]] = members[g].gather + bounds[g]
        self.per = max(1, min(TABLE_CHUNK // 2, (CHUNK_BYTES // (16 * self.index.size) - 1) // 2))
        self.weights = np.zeros((2 * self.per + 1,) + self.index.shape, dtype=complex)
        self.psi = np.concatenate([m.start.ravel() for m in members])
        self._buf = np.empty(self.index.shape, dtype=complex)

    def fail(self, g: int, exc: Exception) -> None:
        """Stop group ``g`` with ``exc``."""
        self.results[g] = exc
        self.live.remove(g)
        self.psi[self.segments[g]] = 0.0
        self.weights[:, :, self.segments[g]] = 0.0

    def make(self, first: int, start: int, stop: int) -> None:
        """Substeps ``start`` to ``stop - 1`` into the chunk from its row
        ``first``; a group whose weights raise fails."""
        for g in list(self.live):
            member = self.members[g]
            try:
                member.write(self.weights[first : first + stop - start, : member.slots, self.segments[g]], start, stop)
            except Exception as exc:
                self.fail(g, exc)

    def apply(self, row: int, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """-i H psi into ``out`` of the flat block ``x``, at the substep in
        the chunk's ``row``."""
        # out[r] = sum_k w_k[r] x[index[k, r]]
        np.take(x, self.index, out=self._buf, mode="clip")
        np.multiply(self._buf, self.weights[row], out=self._buf)
        return np.add.reduce(self._buf, axis=0, out=out)


# an overflowed state fails its drift check (a non-finite norm does), so
# numpy's overflow warnings on the way there would add nothing to that error
@np.errstate(over="ignore", invalid="ignore")
def _evolve_block(members: List[_Group], out_idx: np.ndarray, steps: int) -> list:
    """The RK4 loop: every group of ``members`` evolved as one
    :class:`_Block`; one entry per group, its states on the output steps
    ``out_idx`` (:func:`evolve`'s), or the exception its evolution raised.

    The RK4 combination runs in place.  A group that fails (its norm
    drifts, or making its weights raises, which happens a chunk ahead)
    stops there, and the others go on.
    """
    block = _Block(members)
    psi, per = block.psi, block.per
    h = members[0].protocols[0].ramp.tau / steps
    k1, k2, k3, k4, arg = (np.empty_like(psi) for _ in range(5))
    states = {g: np.empty((len(out_idx), len(members[g].protocols), 1 << members[g].protocols[0].model.n_qubits),
                          dtype=complex) for g in block.live}
    block.make(0, 0, min(2 * per + 1, 2 * steps + 1))
    pointer = 0
    for k in range(steps + 1):
        if pointer < len(out_idx) and k == out_idx[pointer]:
            for g in list(block.live):
                member = members[g]
                rows = psi[block.segments[g]].reshape(member.start.shape)
                # the sector's basis is orthonormal, so its norms are the full space's
                drift = np.abs(np.linalg.norm(rows, axis=1) - 1.0)
                # NaN drift (an overflowed state) fails too
                over = np.flatnonzero(~(drift <= NORM_DRIFT_TOL))
                if over.size:
                    block.fail(g, StepSizeError(float(drift[over[0]]), steps, kind=member.protocols[over[0]].kind))
                    continue
                states[g][pointer] = rows if member.sector is None else member.sector.embed(rows)
            pointer += 1
        if k == steps or not block.live:
            break
        j = k % per
        if j == 0 and k > 0:
            # the next chunk: the last substep of this one, then those of ``per`` steps
            block.weights[0] = block.weights[-1]
            block.make(1, 2 * k + 1, min(2 * (k + per) + 1, 2 * steps + 1))
        # substeps 2k, 2k+1 and 2k+2 are rows 2j, 2j+1 and 2j+2
        block.apply(2 * j, psi, k1)
        np.multiply(k1, 0.5 * h, out=arg)
        block.apply(2 * j + 1, np.add(psi, arg, out=arg), k2)
        np.multiply(k2, 0.5 * h, out=arg)
        block.apply(2 * j + 1, np.add(psi, arg, out=arg), k3)
        np.multiply(k3, h, out=arg)
        block.apply(2 * j + 2, np.add(psi, arg, out=arg), k4)
        # psi + h/6 (k1 + 2 k2 + 2 k3 + k4), summed in that order
        k1 += np.multiply(k2, 2.0, out=k2)
        k1 += np.multiply(k3, 2.0, out=k3)
        k1 += k4
        psi += np.multiply(k1, h / 6.0, out=k1)
    return [states[g].transpose(0, 2, 1) if g in block.live else result for g, result in enumerate(block.results)]


def ground_trace(model: Model, lambdas: Sequence[float]) -> List[np.ndarray]:
    """Instantaneous ground-subspace bases of H0(lambda) along a grid, in
    the full 2^N space.

    Each solve is of H0 = H_a + lambda * H_b, by :func:`ground_space_op`,
    with H_a and H_b built once (:func:`_h0_pair`), the full space's sparse,
    so that only each lambda's H0 is made dense (a dense pair took the peak
    RSS of a 3-lambda QUBO trace at N = 12 from 360 to 612 MB).  Where the
    model declares a sector, each lambda is first solved there.  That
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
    full, bases = None, []
    for lam in lambdas:
        if sector is not None:
            _, vec = ground_space_op(sec_a + lam * sec_b)
            if _one_signed(vec):
                bases.append(sector.embed(vec.T).T)
                continue
        full = full or _h0_pair(model, dense=False)
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

    The protocols share one model and one ramp, and evolve as one group
    (see :func:`evolve`); the ground bases are solved once and shared.
    :func:`run_groups` is the same for several models at once.
    """
    protocols = list(protocols)
    _check_groups([protocols])
    times, lams, ground_bases = _ground_grid(protocols, steps, n_out)
    _, states = evolve(protocols, ground_bases[0][:, 0], steps=steps, n_out=n_out)
    return _fidelity_traces(protocols, states, times, lams, ground_bases)


def run_groups(
    groups: Iterable[Sequence[Protocol]],
    steps: int = 2000,
    n_out: int = 101,
) -> Iterator[List[FidelityTrace] | Exception]:
    """:func:`run_protocol` of several groups of protocols, each group one
    model's, all on the first group's ramp, with consecutive groups evolved
    together in blocks.  ``groups`` is read lazily, as
    :func:`_evolve_groups` reads it, so a caller may make (synthesize) each
    group as it is read; its ground bases are solved then.  Yields one
    outcome per group, in order, once its block has run: its traces, or the
    exception that its run raised.  So one block's bases and states are
    held at a time.

    The outcomes are those of running the groups one at a time, in order,
    up to the first failure.  A group whose evolution fails does not
    disturb the others.  An exception raised while a group is read, by
    ``groups`` or before its evolution (capacity, ground solves, a
    degenerate start), ends the reading and is the last outcome.  A
    ``steps`` or ``n_out`` that no group can run raises on the first read,
    before any group is read.
    """
    _output_steps(steps, n_out)
    # (protocols, output times, lambdas, ground bases) of each group read and not yet traced
    grids: list = []
    failure: list = []

    def starts():
        first = None
        # the try also spans the yield, where only GeneratorExit, which it lets pass, can arrive
        try:
            for protocols in map(list, groups):
                # the first group stays referenced: every later one is checked against its ramp
                first = first or protocols
                _check_groups([first, protocols])
                grids.append((protocols, *_ground_grid(protocols, steps, n_out)))
                yield protocols, grids[-1][3][0][:, 0]
        except Exception as exc:
            failure.append(exc)

    for states in _evolve_groups(starts(), steps, n_out):
        protocols, times, lams, bases = grids.pop(0)
        if not isinstance(states, Exception):
            try:
                states = _fidelity_traces(protocols, states, times, lams, bases)
            except Exception as exc:
                states = exc
        yield states
    yield from failure


def _ground_grid(protocols: List[Protocol], steps: int, n_out: int) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
    """The output times of a group, their lambdas and ground bases, once the
    group is known to fit the propagator; a degenerate start raises."""
    times = _output_times(protocols, steps, n_out)
    lams, _ = protocols[0].ramp.table(times)
    ground_bases = ground_trace(protocols[0].model, lams)
    if ground_bases[0].shape[1] != 1:
        raise ValueError("degenerate initial ground state")
    return times, lams, ground_bases


def _fidelity_traces(protocols: List[Protocol], states: np.ndarray, times: np.ndarray, lams: np.ndarray,
                     ground_bases: List[np.ndarray]) -> List[FidelityTrace]:
    """F and F-tilde of each column of ``states`` ``(n_out, 2^N, B)``, point by
    point, each row read in place where contiguous (as :func:`evolve`'s are).
    F-tilde rotates the ground state by Q, the Q terms' diagonals weighted by
    ``q_table`` at the point, in term order; Q is zero but for RA, so elsewhere F-tilde is F bit for bit."""
    q_terms = [(t.param, t.operator.diag_vector().real) for t in protocols[0].model.terms
               if t.param in ("gamma", "phi")]
    traces = []
    for col, protocol in enumerate(protocols):
        q_tables, points = protocol.q_table(times), []
        for i, basis in enumerate(ground_bases):
            psi = np.ascontiguousarray(states[i, :, col])
            q_diag = sum((q_tables[param][i] * diag for param, diag in q_terms), np.zeros(len(psi)))
            points.append((fidelity(psi, basis), rotated_fidelity(psi, basis, q_diag)))
        traces.append(FidelityTrace(times, lams, *map(np.array, zip(*points))))
        traces[-1].validate()
    return traces
