"""Benchmark Hamiltonian families, UA schedules, the smooth ramp and
random-instance generation.

Every model is a weighted sum of fixed term operators with affine-in-lambda
unassisted (UA) schedule functions.  The rotated-ansatz parametrization is
anchored to the *signed* term operators exactly as stored here: rotation
generator Q = gamma * (gamma-term op) [+ phi * (phi-term op)], auxiliary
potential K = beta * (beta-term op), so every RA control field is always
"UA field + parameter" (K terms) or "UA field + parameter time-derivative"
(Q terms), with no per-model sign exceptions.

Instances are drawn with numpy's PCG64 generator; identical (kind, size,
seed) triples reproduce identical coupling arrays.  The LHZ layout
combinatorics (:class:`LhzCounts`) live here too; each ``LhzModel`` computes
its own once, as each ``ChainModel`` does its translation sector
(:class:`TranslationSector`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .operators import SpinOperator, sigma_x, sigma_z, z_word

PRNG_NAME = "numpy-PCG64"
LHZ_FINAL_CONSTRAINT_STRENGTH = 3.0

FieldSet = Dict[str, Tuple[float, float]]  # name -> (value, time derivative)


def ramp_table(times: np.ndarray, tau: float) -> Tuple[np.ndarray, np.ndarray]:
    """Smooth ramp lambda(t) = sin^2[(pi/2) sin^2(pi t / 2 tau)] and its
    analytic time derivative at each of ``times``.  Both lambda' and
    lambda'' vanish at t = 0, tau.

    Each square is a C ``pow()`` on one Python float, so every entry equals
    the formula evaluated with numpy scalars on that time alone; numpy's
    array power multiplies instead, which differs in the last bit of some
    values.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not np.isfinite(tau):
        raise ValueError("tau must be finite")
    t = np.asarray(times, dtype=float)
    outside = (t < -1e-9 * tau) | (t > tau * (1 + 1e-9))
    if outside.any():
        raise ValueError(f"t={float(t[outside][0])} outside [0, {tau}]")
    # clamped as Python's min(max(t, 0.0), tau) does: np.maximum(-0.0, 0.0)
    # is 0.0, which would flip the sign of a zero lambda_dot at t = -0.0
    t = np.where(t < 0.0, 0.0, t)
    t = np.where(t > tau, tau, t)
    v = np.pi * t / (2.0 * tau)
    u = 0.5 * np.pi * _pow2(np.sin(v))
    lam = _pow2(np.sin(u))
    lam_dot = (np.pi**2 / (4.0 * tau)) * np.sin(2.0 * u) * np.sin(2.0 * v)
    return lam, lam_dot


def _pow2(x: np.ndarray) -> np.ndarray:
    return np.array([s**2 for s in x.tolist()])


def ramp_eval(t: float, tau: float) -> Tuple[float, float]:
    """:func:`ramp_table` at one time."""
    lam, lam_dot = ramp_table(np.array([float(t)]), tau)
    return float(lam[0]), float(lam_dot[0])


@dataclass(frozen=True)
class Ramp:
    """Total-duration wrapper around :func:`ramp_table` (hbar = 1)."""

    tau: float

    def __call__(self, t: float) -> Tuple[float, float]:
        return ramp_eval(t, self.tau)

    def table(self, times: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return ramp_table(times, self.tau)


@dataclass(frozen=True)
class ModelTerm:
    """One Hamiltonian term: operator, affine UA schedule, ansatz role.

    UA field value at lambda is ``field0 + field1 * lambda``; its time
    derivative is ``field1 * lambda_dot`` exactly.  ``param`` tags which
    variational parameter rides on this term: 'gamma'/'phi' generate the
    rotation Q (term operator must be diagonal), 'beta' builds K.
    """

    name: str
    operator: SpinOperator
    field0: float
    field1: float
    param: str | None

    def ua_value(self, lam: float) -> float:
        return self.field0 + self.field1 * lam

    def ua_dot(self, lam_dot: float) -> float:
        return self.field1 * lam_dot


PARAM_ORDER = ("beta", "gamma", "phi")


class TranslationSector:
    """The translation-invariant (k = 0) sector of N qubits on a ring.

    The cyclic shift T rotates the bits of a basis state; its orbits (the
    binary necklaces of length N) label the sector's orthonormal basis
    |r> = sum_{s in r} |s> / sqrt(|r|).  ``orbit[s]`` is the orbit of basis
    state s, ``sizes[r]`` the size of orbit r, and ``amp[s] =
    1 / sqrt(sizes[orbit[s]])`` the one nonzero of row s of the real
    isometry P (2^N x ``dim``), which is never formed densely.  ``dim`` is
    6 / 36 / 352 / 1182 at N = 4 / 8 / 12 / 14.
    """

    def __init__(self, n_qubits: int):
        n = n_qubits
        states = np.arange(1 << n)
        rep = rotated = states
        for _ in range(n - 1):
            rotated = ((rotated << 1) | (rotated >> (n - 1))) & ((1 << n) - 1)
            rep = np.minimum(rep, rotated)
        self.orbit = np.unique(rep, return_inverse=True)[1]
        self.sizes = np.bincount(self.orbit)
        self.dim = len(self.sizes)
        self.amp = 1.0 / np.sqrt(self.sizes)[self.orbit]

    def project(self, psi: np.ndarray) -> np.ndarray:
        """P^T psi of one 2^N state vector."""
        out = np.zeros(self.dim, dtype=np.result_type(psi, float))
        np.add.at(out, self.orbit, self.amp * psi)
        return out

    def embed(self, phi: np.ndarray) -> np.ndarray:
        """P phi along the last axis of ``phi``: sector states back in the
        full 2^N space."""
        return self.amp * phi[..., self.orbit]


class Model:
    """Base class: a parametric Hamiltonian H0 = sum_t field_t(lambda) * op_t.

    ``sector`` is a symmetry sector that every drive of the model leaves
    invariant, in which :mod:`racd.dynamics` evolves and looks for ground
    states first, or None (the full space); only :class:`ChainModel`
    declares one.
    """

    kind: str = ""
    sector: TranslationSector | None = None

    def __init__(self, n_qubits: int, terms: Sequence[ModelTerm], seed: int | None = None):
        self.n_qubits = n_qubits
        self.terms = tuple(terms)
        self.seed = seed
        for term in self.terms:
            if term.param in ("gamma", "phi") and not term.operator.is_diagonal():
                raise ValueError(f"rotation-generator term {term.name!r} must be diagonal")
            if not term.operator.is_hermitian():
                raise ValueError(f"term {term.name!r} is not Hermitian")

    @property
    def param_names(self) -> Tuple[str, ...]:
        present = {t.param for t in self.terms if t.param}
        return tuple(p for p in PARAM_ORDER if p in present)

    #: Exact periods of the scaled action in each rotation parameter
    #: (physics-equivalent minima); used to undo whole-period hops of the
    #: warm-started optimizer.  Empty for coupling-weighted generators.
    param_periods: Dict[str, float] = {}

    def term_by_param(self, param: str) -> ModelTerm:
        for t in self.terms:
            if t.param == param:
                return t
        raise KeyError(param)

    def hamiltonian(self, fields: Sequence[float]) -> SpinOperator:
        return build_hamiltonian(self, fields)

    def ua_fields(self, lam: float, lam_dot: float) -> FieldSet:
        """UA field values and time derivatives (chain rule through lambda_dot)."""
        if not 0.0 <= lam <= 1.0 + 1e-12:
            raise ValueError(f"lambda={lam} outside [0, 1]")
        return {t.name: (t.ua_value(lam), t.ua_dot(lam_dot)) for t in self.terms}

    def h0(self, lam: float) -> SpinOperator:
        return self.hamiltonian([t.ua_value(lam) for t in self.terms])

    def dh0_dt(self, lam: float, lam_dot: float) -> SpinOperator:
        return self.hamiltonian([t.ua_dot(lam_dot) for t in self.terms])

    def dh0_dlambda(self, lam: float) -> SpinOperator:
        return self.hamiltonian([t.field1 for t in self.terms])

    # -- serialization -------------------------------------------------------
    def to_json(self) -> dict:
        raise NotImplementedError

    def to_json_str(self) -> str:
        return json.dumps(self.to_json())

    @staticmethod
    def from_json(doc: dict) -> "Model":
        kind = doc["kind"]
        if kind == "two-spin":
            return TwoSpinModel()
        if kind == "chain":
            return ChainModel(int(doc["N"]))
        if kind == "qubo":
            return QuboModel(np.asarray(doc["couplings"], dtype=float), seed=doc.get("seed"))
        if kind == "lhz":
            constraints = [tuple(c) for c in doc["constraints"]]
            return LhzModel(
                int(doc["n"]),
                np.asarray(doc["couplings"], dtype=float),
                constraints=constraints,
                seed=doc.get("seed"),
            )
        raise ValueError(f"unknown model kind {kind!r}")


def build_hamiltonian(model: Model, fields: Sequence[float]) -> SpinOperator:
    """sum_i field_i * H_term_i; Hermitian by construction."""
    if len(fields) != len(model.terms):
        raise ValueError(f"expected {len(model.terms)} field values, got {len(fields)}")
    acc = SpinOperator.zero(model.n_qubits)
    for value, term in zip(fields, model.terms):
        acc = acc + float(value) * term.operator
    return acc


class TwoSpinModel(Model):
    """Two-spin Bell-state preparation problem.

    H_a = -(sz_1 + sz_2) with UA field h0 = 5(1-lambda), carries gamma;
    H_b = sx sx + sz sz with UA field J0 = -1, carries beta.
    """

    kind = "two-spin"
    param_periods = {"gamma": np.pi / 2.0}

    def __init__(self):
        n = 2
        h_a = -1.0 * sigma_z(n, 0) - 1.0 * sigma_z(n, 1)
        h_b = SpinOperator(n, {(0b11, 0): 1.0, (0, 0b11): 1.0})  # XX + ZZ
        super().__init__(
            n,
            [
                ModelTerm("h", h_a, 5.0, -5.0, "gamma"),
                ModelTerm("J", h_b, -1.0, 0.0, "beta"),
            ],
        )

    def to_json(self) -> dict:
        return {"kind": self.kind}


class ChainModel(Model):
    """Periodic transverse+longitudinal field Ising chain.

    H_a = -sum sz_j sz_{j+1} (J0 = lambda, gamma), H_b = -sum sx_j
    (h0 = 1 - lambda/2, beta), H_c = -sum sz_j (b0 = lambda/5, phi).
    """

    kind = "chain"
    param_periods = {"gamma": np.pi / 2.0, "phi": np.pi}

    def __init__(self, n_sites: int):
        if n_sites < 3:
            raise ValueError("periodic chain needs at least 3 sites")
        n = n_sites
        h_a = SpinOperator.zero(n)
        h_b = SpinOperator.zero(n)
        h_c = SpinOperator.zero(n)
        for j in range(n):
            h_a = h_a - z_word(n, (j, (j + 1) % n))
            h_b = h_b - sigma_x(n, j)
            h_c = h_c - sigma_z(n, j)
        super().__init__(
            n,
            [
                ModelTerm("J", h_a, 0.0, 1.0, "gamma"),
                ModelTerm("h", h_b, 1.0, -0.5, "beta"),
                ModelTerm("b", h_c, 0.0, 0.2, "phi"),
            ],
        )

    @cached_property
    def sector(self) -> TranslationSector:
        """The k = 0 translation sector, built on first use.  Every term is
        a translation-invariant sum over sites, and so are the drives built
        from them: UA and RA fields ride on whole terms, local CD's sigma-y
        coefficient is the same on every site (by the same symmetry), and
        the exact gauge potential of a translation-invariant H0 is
        translation-invariant."""
        return TranslationSector(self.n_qubits)

    def to_json(self) -> dict:
        return {"kind": self.kind, "N": self.n_qubits}


def check_couplings(couplings: np.ndarray) -> np.ndarray:
    """``couplings`` as a float array if it is a QUBO coupling matrix:
    (N+1)x(N+1) with N >= 2, symmetric and of zero diagonal within 1e-12
    (sz_j^2 = 1, so a diagonal would only shift H_p); else ``ValueError``."""
    J = np.asarray(couplings, dtype=float)
    if J.ndim != 2 or J.shape[0] != J.shape[1] or J.shape[0] < 3:
        raise ValueError("couplings must be a square (N+1)x(N+1) matrix, N >= 2")
    if not np.allclose(J, J.T, atol=1e-12):
        raise ValueError("couplings must be symmetric")
    if not np.allclose(np.diag(J), 0.0, atol=1e-12):
        raise ValueError("couplings must have zero diagonal")
    return J


class QuboModel(Model):
    """Transverse-field annealer for a QUBO instance.

    ``couplings`` is the symmetric (N+1)x(N+1) matrix J with zero diagonal,
    as :func:`check_couplings` checks; row/column 0 holds the local fields
    J_j0.  H_p = -1/2 sum_{j != k} J_jk sz_j sz_k - sum J_j0 sz_j (A0 =
    lambda, gamma); H_x = -sum sx_j (B0 = 1 - lambda, beta).
    """

    kind = "qubo"

    def __init__(self, couplings: np.ndarray, seed: int | None = None):
        J = check_couplings(couplings)
        n = J.shape[0] - 1
        p_terms = {}
        for j in range(1, n + 1):
            if J[j, 0]:
                p_terms[(0, 1 << (j - 1))] = -J[j, 0]
            for k in range(j + 1, n + 1):
                if J[j, k]:
                    p_terms[(0, (1 << (j - 1)) | (1 << (k - 1)))] = -J[j, k]
        h_p = SpinOperator(n, p_terms)
        h_x = SpinOperator(n, {(1 << j, 0): -1.0 for j in range(n)})
        self.couplings = J
        super().__init__(
            n,
            [
                ModelTerm("A", h_p, 0.0, 1.0, "gamma"),
                ModelTerm("B", h_x, 1.0, -1.0, "beta"),
            ],
            seed=seed,
        )

    def to_json(self) -> dict:
        return {"kind": self.kind, "N": self.n_qubits, "couplings": self.couplings.tolist(), "seed": self.seed}


class LhzModel(Model):
    """LHZ / parity annealing architecture for n logical spins.

    N = n(n-1)/2 physical qubits carry random local fields J_k; the
    L = (n-1)(n-2)/2 plaquette constraints are sigma-z products over 3 or 4
    qubits.  H_p = -sum J_k sz_k (A0 = lambda, gamma), H_x = -sum sx_k
    (B0 = 1 - lambda, beta), H_c = -sum_l prod_{q in l} sz_q
    (C0 = C_f * lambda with C_f = 3, phi).  ``counts`` holds the layout's
    constraint combinatorics, which the closed-form action consumes, and
    ``has_repeated_constraint`` whether a constraint appears twice, which the
    closed form does not support.
    """

    kind = "lhz"
    param_periods = {"phi": np.pi}

    def __init__(
        self,
        n_logical: int,
        couplings: np.ndarray,
        constraints: Sequence[Tuple[int, ...]] | None = None,
        seed: int | None = None,
    ):
        if n_logical < 3:
            raise ValueError("LHZ needs at least 3 logical spins")
        n = n_logical * (n_logical - 1) // 2
        J = np.asarray(couplings, dtype=float)
        if J.shape != (n,):
            raise ValueError(f"expected {n} couplings for n_logical={n_logical}, got {J.shape}")
        if constraints is None:
            constraints = lhz_default_constraints(n_logical)
        constraints = [tuple(sorted(int(q) for q in c)) for c in constraints]
        for c in constraints:
            if not all(0 <= q < n for q in c):
                raise ValueError(f"constraint {c} has out-of-range qubit index")
            if len(c) not in (3, 4) or len(set(c)) != len(c):
                raise ValueError(f"constraint {c} must be 3 or 4 distinct qubits")
        h_p = SpinOperator.zero(n)
        for k in range(n):
            if J[k]:
                h_p = h_p - J[k] * sigma_z(n, k)
        h_x = SpinOperator.zero(n)
        for k in range(n):
            h_x = h_x - sigma_x(n, k)
        h_c = SpinOperator.zero(n)
        for c in constraints:
            h_c = h_c - z_word(n, c)
        self.n_logical = n_logical
        self.couplings = J
        self.constraints = list(constraints)
        self.counts = lhz_counts(self.constraints, n)
        self.has_repeated_constraint = len(set(self.constraints)) < len(self.constraints)
        super().__init__(
            n,
            [
                ModelTerm("A", h_p, 0.0, 1.0, "gamma"),
                ModelTerm("B", h_x, 1.0, -1.0, "beta"),
                ModelTerm("C", h_c, 0.0, LHZ_FINAL_CONSTRAINT_STRENGTH, "phi"),
            ],
            seed=seed,
        )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n_logical,
            "couplings": self.couplings.tolist(),
            "constraints": [list(c) for c in self.constraints],
            "seed": self.seed,
        }


def _pair_index(i: int, j: int, n: int) -> int:
    """Linear index of logical pair (i, j), 1 <= i < j <= n, lexicographic."""
    return (i - 1) * n - i * (i + 1) // 2 + j - 1


def lhz_default_constraints(n: int) -> List[Tuple[int, ...]]:
    """Plaquette list of the standard triangular parity layout.

    Boundary triangles {(i,i+1),(i,i+2),(i+1,i+2)} are 3-body; the bulk
    squares {(i,j),(i,j-1),(i+1,j),(i+1,j-1)} (j >= i+3) are 4-body.  Each
    subset multiplies to an even power of every logical spin, and the list
    has exactly (n-1)(n-2)/2 entries.
    """
    if n < 3:
        raise ValueError("LHZ layout needs n >= 3")
    constraints: List[Tuple[int, ...]] = []
    for i in range(1, n - 1):
        constraints.append(
            tuple(sorted((_pair_index(i, i + 1, n), _pair_index(i, i + 2, n), _pair_index(i + 1, i + 2, n))))
        )
    for i in range(1, n - 2):
        for j in range(i + 3, n + 1):
            constraints.append(
                tuple(
                    sorted(
                        (
                            _pair_index(i, j, n),
                            _pair_index(i, j - 1, n),
                            _pair_index(i + 1, j, n),
                            _pair_index(i + 1, j - 1, n),
                        )
                    )
                )
            )
    assert len(constraints) == (n - 1) * (n - 2) // 2
    return constraints


@dataclass(frozen=True)
class LhzCounts:
    """Architecture-only constraint combinatorics.

    L is the total constraint count; L_mu[m] counts constraints containing
    qubit m; L_mu_nu[m, n] counts constraints containing both; L_mu_not_nu
    is L_mu[:, None] - L_mu_nu; pairs lists the (mu < nu) pairs sharing at
    least one constraint.
    """

    L: int
    L_mu: np.ndarray
    L_mu_nu: np.ndarray
    L_mu_not_nu: np.ndarray
    pairs: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if self.L_mu_nu.shape != (len(self.L_mu), len(self.L_mu)):
            raise ValueError("inconsistent counts: L_mu_nu shape")
        if not np.array_equal(self.L_mu_nu, self.L_mu_nu.T):
            raise ValueError("inconsistent counts: L_mu_nu must be symmetric")
        if not np.array_equal(self.L_mu_not_nu, self.L_mu[:, None] - self.L_mu_nu):
            raise ValueError("inconsistent counts: L_mu_not_nu identity violated")
        if np.any(self.L_mu < 0) or np.any(self.L_mu_nu < 0) or np.any(self.L_mu_not_nu < 0):
            raise ValueError("inconsistent counts: negative entry")


def lhz_counts(constraints: Sequence[Sequence[int]], n_qubits: int) -> LhzCounts:
    """Exact combinatorial counts for an explicit constraint list."""
    sets = []
    for c in constraints:
        cs = frozenset(int(q) for q in c)
        if any(not 0 <= q < n_qubits for q in cs):
            raise ValueError(f"constraint {sorted(cs)} has out-of-range index")
        sets.append(cs)
    l_mu = np.zeros(n_qubits, dtype=int)
    l_mu_nu = np.zeros((n_qubits, n_qubits), dtype=int)
    for cs in sets:
        for mu in cs:
            l_mu[mu] += 1
            for nu in cs:
                if nu != mu:
                    l_mu_nu[mu, nu] += 1
    pairs = tuple(
        (mu, nu) for mu in range(n_qubits) for nu in range(mu + 1, n_qubits) if l_mu_nu[mu, nu] > 0
    )
    return LhzCounts(
        L=len(sets),
        L_mu=l_mu,
        L_mu_nu=l_mu_nu,
        L_mu_not_nu=l_mu[:, None] - l_mu_nu,
        pairs=pairs,
    )


def random_instance(kind: str, size: int, seed: int) -> Model:
    """Deterministic random instance; couplings are i.i.d. uniform on [-1, 1].

    The stream is numpy's PCG64 seeded with ``seed``; identical (kind, size,
    seed) gives bitwise-identical coupling arrays.
    """
    if size < 2:
        raise ValueError("size must be >= 2")
    rng = np.random.Generator(np.random.PCG64(seed))
    if kind == "two-spin":
        return TwoSpinModel()
    if kind == "chain":
        return ChainModel(size)
    if kind == "qubo":
        m = size + 1
        J = np.zeros((m, m))
        for j in range(m):
            for k in range(j + 1, m):
                J[j, k] = J[k, j] = rng.uniform(-1.0, 1.0)
        return QuboModel(J, seed=seed)
    if kind == "lhz":
        n_phys = size * (size - 1) // 2
        J = rng.uniform(-1.0, 1.0, size=n_phys)
        return LhzModel(size, J, seed=seed)
    raise ValueError(f"unknown model kind {kind!r}")
