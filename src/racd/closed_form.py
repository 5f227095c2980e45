"""Polynomial-cost evaluators of the time-scaled action for each benchmark
family, the dispatch from a model to its evaluator, and the two-level
analytic optimum.

All evaluators use the dotted (time-scaled) action and one fixed ansatz
convention: Q = gamma * H_gamma-term [+ phi * H_phi-term], K = beta *
H_beta-term, against the signed term operators stored on the model.  Where
the derivation admits more than one printed grouping, the dense trace oracle
(:func:`racd.agp.action_oracle`) is the arbiter; every function here is
required to agree with it to relative 1e-8 at its model's smallest valid
size.

Normalization conventions (documented per function, returned by
:func:`normalization`): the two-level action is the raw 4-dimensional trace;
the chain action is per-site, S / (N 2^N); the QUBO and LHZ actions are
S / 2^N.  The QUBO action takes the couplings that a QUBO model takes
(:func:`racd.models.check_couplings`).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .errors import RacdError
from .models import ChainModel, LhzCounts, Model, check_couplings, lhz_default_constraints
from .operators import SpinOperator, commutator, sigma_x, sigma_y, trace_product, z_word

FieldDerivs = Dict[str, Tuple[float, float]]  # term name -> (value, time derivative)


class UndefinedAngleError(RacdError, ValueError):
    """Two-level optimum is undefined when J0 and phi0 both vanish."""


# ---------------------------------------------------------------------------
# Two-level system
# ---------------------------------------------------------------------------

def _two_level_alphas(J0: float, beta: float, gamma: float) -> Tuple[float, float]:
    # lambda_dot*A = beta*o + alpha_xx (XX - YY) + alpha_xy (XY + YX)
    r = beta + J0
    axx = 0.5 * (r * math.cos(4.0 * gamma) - J0)
    axy = 0.5 * r * math.sin(4.0 * gamma)
    return axx, axy


def action_two_level(fd: FieldDerivs, beta: float, gamma: float) -> float:
    """Scaled action of the two-spin system (raw 4-dim trace).

    S_bar = 6 dJ0^2 + 2 (dJ0 + 8 h0 a_xy)^2 + 2^7 h0^2 a_xx^2
            + 2^3 (2 J0 a_xy - dh0)^2
    """
    h0, dh0 = fd["h"]
    J0, dJ0 = fd["J"]
    axx, axy = _two_level_alphas(J0, beta, gamma)
    return (
        6.0 * dJ0**2
        + 2.0 * (dJ0 + 8.0 * h0 * axy) ** 2
        + 128.0 * h0**2 * axx**2
        + 8.0 * (2.0 * J0 * axy - dh0) ** 2
    )


def two_level_phi0(fd: FieldDerivs) -> float:
    """phi0 = (dJ0 h0 - J0 dh0) / (4 h0^2 + J0^2)."""
    h0, dh0 = fd["h"]
    J0, dJ0 = fd["J"]
    return (dJ0 * h0 - J0 * dh0) / (4.0 * h0**2 + J0**2)


def two_level_optimum(fd: FieldDerivs) -> Tuple[float, float]:
    """Analytic minimizer (beta, gamma) of the two-level scaled action.

    The optimality system fixes (beta + J0) cos 4g = J0 and
    (beta + J0) sin 4g = -phi0, which has two equal-action solution
    branches differing by the sign of beta + J0.  We return the branch
    continuously connected to (beta, gamma) = (0, 0) at phi0 = 0:

        beta = sign(J0) sqrt(J0^2 + phi0^2) - J0,
        4 gamma = atan2(-sign(J0) phi0, |J0|),

    which is the branch the warm-started sequential optimizer tracks and the
    only one whose parameters vanish at the protocol endpoints (where
    lambda_dot = 0 forces phi0 = 0).  The other branch, beta + J0 > 0, is an
    equally deep minimum but jumps discontinuously at the endpoints whenever
    J0 < 0.
    """
    J0, _ = fd["J"]
    phi0 = two_level_phi0(fd)
    if J0 == 0.0 and phi0 == 0.0:
        raise UndefinedAngleError("optimum angle undefined at J0 = phi0 = 0")
    s = 1.0 if J0 >= 0.0 else -1.0
    beta = s * math.hypot(J0, phi0) - J0
    gamma = 0.25 * math.atan2(-s * phi0, abs(J0))
    return beta, gamma


# ---------------------------------------------------------------------------
# Ising chain
# ---------------------------------------------------------------------------

_CHAIN_REFERENCE_SIZE = 4
_CHAIN_ALPHA_NAMES = ("x", "y", "xz", "yz", "zxz", "zyz")


def chain_basis_sums(n: int) -> List[SpinOperator]:
    """Translation-symmetric sums spanning the chain's rotated gauge
    potential: X, Y, XZ+ZX, YZ+ZY, ZXZ, ZYZ (periodic)."""
    if n < 4:
        raise ValueError("chain expansion needs N >= 4")
    x = SpinOperator.zero(n)
    y = SpinOperator.zero(n)
    xz = SpinOperator.zero(n)
    yz = SpinOperator.zero(n)
    zxz = SpinOperator.zero(n)
    zyz = SpinOperator.zero(n)
    for j in range(n):
        jp, jm = (j + 1) % n, (j - 1) % n
        x = x + sigma_x(n, j)
        y = y + sigma_y(n, j)
        xz = xz + z_word(n, (j,)) @ sigma_x(n, jp) + sigma_x(n, j) @ z_word(n, (jp,))
        yz = yz + z_word(n, (j,)) @ sigma_y(n, jp) + sigma_y(n, j) @ z_word(n, (jp,))
        zxz = zxz + z_word(n, (jm,)) @ sigma_x(n, j) @ z_word(n, (jp,))
        zyz = zyz + z_word(n, (jm,)) @ sigma_y(n, j) @ z_word(n, (jp,))
    return [x, y, xz, yz, zxz, zyz]


def chain_alpha_coefficients(fd: FieldDerivs, beta: float, gamma: float, phi: float) -> Dict[str, float]:
    """Coefficients of the chain's scaled gauge potential on the six basis
    sums, from conjugating the transverse term by Q = gamma H_J + phi H_b."""
    h0, _ = fd["h"]
    bt = h0 + beta
    c4g, s4g = math.cos(4.0 * gamma), math.sin(4.0 * gamma)
    c2p, s2p = math.cos(2.0 * phi), math.sin(2.0 * phi)
    return {
        "x": h0 - 0.5 * bt * (1.0 + c4g) * c2p,
        "y": -0.5 * bt * (1.0 + c4g) * s2p,
        "xz": 0.5 * bt * s4g * s2p,
        "yz": -0.5 * bt * s4g * c2p,
        "zxz": 0.5 * bt * (1.0 - c4g) * c2p,
        "zyz": 0.5 * bt * (1.0 - c4g) * s2p,
    }


@lru_cache(maxsize=None)
def _chain_gram(n: int = _CHAIN_REFERENCE_SIZE) -> np.ndarray:
    """Per-site Gram matrix of the operators entering G_t for the chain.

    G_t is linear in (dJ0, dh0, db0) and in the six alpha coefficients times
    the three fields, so S_bar / (N 2^N) is an exact quadratic form.  The
    21 x 21 matrix of normalized trace products is computed symbolically once
    per size; entries are N-independent for N >= 4.
    """
    model = ChainModel(n)
    term_ops = [t.operator for t in model.terms]  # J, h, b
    basis = chain_basis_sums(n)
    ops = list(term_ops)
    for b in basis:
        for t in term_ops:
            ops.append((-1j) * commutator(t, b))
    dim = len(ops)
    gram = np.zeros((dim, dim))
    norm = n * (1 << n)
    for p in range(dim):
        for q in range(p, dim):
            val = trace_product(ops[p], ops[q]).real / norm
            gram[p, q] = gram[q, p] = val
    return gram


def action_chain(fd: FieldDerivs, beta: float, gamma: float, phi: float) -> float:
    """Per-site scaled action of the chain, S_bar / (N 2^N); N-independent
    for N >= 4 by translation symmetry and locality."""
    J0, dJ0 = fd["J"]
    h0, dh0 = fd["h"]
    b0, db0 = fd["b"]
    alphas = chain_alpha_coefficients(fd, beta, gamma, phi)
    fields = (J0, h0, b0)
    coeff = np.empty(3 + 18)
    coeff[0:3] = (dJ0, dh0, db0)
    i = 3
    for name in _CHAIN_ALPHA_NAMES:
        for f in fields:
            coeff[i] = alphas[name] * f
            i += 1
    gram = _chain_gram()
    return float(coeff @ gram @ coeff)


# ---------------------------------------------------------------------------
# QUBO annealer
# ---------------------------------------------------------------------------

#: byte budget of one half block of pair-product rows in :class:`QuboKernel`;
#: bounds the memory of a QUBO action evaluation independently of N
_PAIR_BLOCK_BYTES = 1 << 20


def _pair_blocks(n: int) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Row blocks of the qubit pairs 1 <= j < k <= n, for n >= 2 (so that
    there is a pair).

    Each block holds the pair rows ``j`` and ``k`` and the flat positions of
    the entries m = j and m = k in a C-ordered (2 len(j), n + 1) array that
    stacks the block's J_j + J_k rows over its J_j - J_k rows, at most
    ``_PAIR_BLOCK_BYTES`` of float64 per half.
    """
    j, k = np.triu_indices(n, 1)
    j, k = j + 1, k + 1
    rows = max(1, _PAIR_BLOCK_BYTES // (8 * (n + 1)))
    blocks = []
    for s in range(0, len(j), rows):
        jb, kb = j[s : s + rows], k[s : s + rows]
        base = np.arange(2 * len(jb)) * (n + 1)
        holes = np.concatenate((base + np.tile(jb, 2), base + np.tile(kb, 2)))
        blocks.append((jb, kb, holes))
    return tuple(blocks)


class QuboKernel:
    """The angle sums of :func:`action_qubo` for one coupling matrix ``J``,
    (tau_hp2, N, sum t_row, sum e2, sum e1, sum (1 - f2), sin2_sum,
    pair_sum), at any gamma; none of them depends on the fields or on beta.

    Building the kernel checks ``J`` as :class:`racd.models.QuboModel` does
    (:func:`racd.models.check_couplings`), copies it with its diagonal set
    to 0 (an accepted diagonal is at most 1e-12, and H_p never reads it),
    and computes once what does not depend on gamma: the squared sums of J's
    rows, the pair blocks (:func:`_pair_blocks`) with their positions in the
    pair matrix, the rows J_j and the first block's J_j +- J_k (0 at its
    holes), and the work buffers.  A call at gamma then takes one multiply
    of those rows by 2 gamma, one ``sin`` of theta = 2 gamma J, and one
    ``cos`` and one row product over a single buffer stacking 2 theta_j (as
    theta_j * 2), theta_j (j >= 1) and the first block's pair angles, which
    serve the hole sums and both pair products at once.  A hole product is
    its row's product over the cosine left out: ``np.cos`` is never exactly 0
    at a double, though the quotient loses accuracy near a cosine zero.
    Further blocks (N above about 60) reuse the pair part of that buffer, so
    memory stays O(N^2) plus a fixed number of ``_PAIR_BLOCK_BYTES``
    buffers, and nothing O(N^3) is kept.  Every product runs along one
    contiguous row in m = 0..N and every sum keeps its array layout, so the
    values are bit-identical to those of the full (N+1)^3 tensor reduction.
    The buffers are shared by every call: one kernel serves one thread.
    """

    def __init__(self, J: np.ndarray):
        J = np.array(check_couplings(J))
        np.fill_diagonal(J, 0.0)
        J.setflags(write=False)
        n = J.shape[0] - 1
        self.J, self.n = J, n
        self._t_row = (J[1:, :] ** 2).sum(axis=1)
        self._t_sum = float(self._t_row.sum())
        self._tau_hp2 = 0.5 * float((J[1:, 1:] ** 2).sum()) + float((J[1:, 0] ** 2).sum())
        # each block with its rows j repeated for the buffer's two halves, its
        # holes, and the flat positions (j, k) and (k, j) of its pairs in an
        # (N+1)x(N+1) matrix
        self._blocks = [
            (np.tile(j, 2), k, holes, np.concatenate((j * (n + 1) + k, k * (n + 1) + j)))
            for j, k, holes in _pair_blocks(n)
        ]
        r = len(self._blocks[0][1])
        # 2 theta_j and theta_j (j >= 1), then the pair angles of a block
        self._buf = np.empty((2 * n + 2 * r, n + 1))
        self._rows_k = np.empty((r, n + 1))
        # theta_j and the first block's pair angles over 2 gamma: one
        # multiply makes them
        self._coef = np.concatenate((J[1:], self._pair_coefs(*self._blocks[0][:3])))
        self._prods = np.empty(len(self._buf))
        self._w = np.empty((n, n + 1))
        # e2, e1 and 1 - f2 per row j, summed in one reduction
        self._row_terms = np.empty((3, n))
        # sin^2 theta with row 0 left at 0: only rows and columns >= 1 are
        # summed, so the (N+1)x(N+1) layout of each sum is kept
        self._sin_sq = np.zeros((n + 1, n + 1))
        # pp + pm at (j, k) and (k, j) of every pair, 0 elsewhere
        self._pairs = np.zeros((n + 1, n + 1))

    def _pair_coefs(self, jj: np.ndarray, k: np.ndarray, holes: np.ndarray) -> np.ndarray:
        """The rows J_j + J_k over J_j - J_k of one block, written after the
        theta rows of the buffer, with 0 at the holes m = j and m = k (so
        that the angle there is 0, and its cosine exactly 1)."""
        m = len(k)
        c, rows_k = self._buf[2 * self.n : 2 * self.n + 2 * m], self._rows_k[:m]
        # the indices are in range: "clip" only spares take a buffered copy
        self.J.take(jj, axis=0, out=c, mode="clip")
        self.J.take(k, axis=0, out=rows_k, mode="clip")
        c[:m] += rows_k
        c[m:] -= rows_k
        c.put(holes, 0.0)
        return c

    def __call__(self, gamma: float) -> Tuple[float, ...]:
        n, buf, sin_sq, pairs, terms = self.n, self._buf, self._sin_sq, self._pairs, self._row_terms
        two_g = 2.0 * gamma
        theta = buf[n : 2 * n]
        np.multiply(self._coef, two_g, out=buf[n:])
        np.multiply(theta, 2.0, out=buf[:n])
        np.sin(theta, out=sin_sq[1:])
        w = np.multiply(self.J[1:], sin_sq[1:], out=self._w)
        np.square(sin_sq, out=sin_sq)
        (jj, k, holes, dest), *more = self._blocks
        # the first block shares one cos and one row product with the theta rows
        np.cos(buf, out=buf)
        prods = buf.prod(axis=1, out=self._prods)
        m = len(k)
        pairs.put(dest, prods[2 * n : 2 * n + m] + prods[2 * n + m :])
        for jj, k, holes, dest in more:
            c = self._pair_coefs(jj, k, holes)
            c *= two_g
            np.cos(c, out=c)
            p = c.prod(axis=1)
            pairs.put(dest, p[: len(k)] + p[len(k) :])

        # with q_jk = W_jk / cos theta_jk, the hole sums of row j are
        # e1 = f1 sum_k q_jk and cross = f1 ((sum_k q_jk)^2 - sum_k q_jk^2)
        f1, f2 = prods[n : 2 * n], prods[:n]
        q = np.divide(w, buf[n : 2 * n], out=w)
        sq = q.sum(axis=1)
        np.multiply(f1, sq, out=terms[1])
        cross = f1 * (sq**2 - np.square(q, out=q).sum(axis=1))
        np.multiply(self._t_row, f1, out=terms[0])
        terms[0] -= cross  # e2 = Re tau(R_j^2 e^{2 i gamma R_j})
        np.subtract(1.0, f2, out=terms[2])
        e2_sum, e1_sum, f2_sum = terms.sum(axis=1).tolist()

        sin2_sum = float(sin_sq[1:, 1:].sum())
        pair_sum = float(np.multiply(sin_sq, pairs, out=sin_sq)[1:, 1:].sum())
        return self._tau_hp2, n, self._t_sum, e2_sum, e1_sum, f2_sum, sin2_sum, pair_sum


def action_qubo(J, fd: FieldDerivs, beta: float, gamma: float, cache: dict | None = None) -> float:
    """Scaled QUBO action, normalized as S_bar / 2^N; cost O(N^3) in time and
    O(N^2) in memory.

    ``J`` is the coupling matrix of a :class:`racd.models.QuboModel`, with
    the local fields in row/column 0, or its :class:`QuboKernel` (as
    :func:`evaluator` passes), which keeps the gamma-independent work and
    the checks of ``J`` out of every call; a matrix gets a kernel for the
    call, and so the checks of :func:`racd.models.check_couplings`: a
    nonzero diagonal or N < 2 raises ``ValueError``.

    The action depends on ``beta`` only through a final scalar assembly, so
    ``cache``, a dict that the caller keeps for one fixed ``J``, maps each
    exact ``gamma`` to its angle sums and later calls at that ``gamma`` skip
    the O(N^3) work.  The result is bit-identical with and without it, and
    with a matrix or its kernel.
    """
    # 0.0 and -0.0 share an entry: their sums differ at most in the sign of
    # a zero e1 sum, which leaves the assembled action unchanged
    sums = None if cache is None else cache.get(gamma)
    if sums is None:
        sums = (J if isinstance(J, QuboKernel) else QuboKernel(J))(gamma)
        if cache is not None:
            cache[gamma] = sums
    tau_hp2, n, t_sum, e2_sum, e1_sum, f2_sum, sin2_sum, pair_sum = sums
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


# ---------------------------------------------------------------------------
# LHZ annealer
# ---------------------------------------------------------------------------

def action_lhz(
    counts: LhzCounts,
    J: np.ndarray,
    fd: FieldDerivs,
    beta: float,
    gamma: float,
    phi: float,
) -> float:
    """Scaled LHZ action, normalized as S_bar / 2^N; cost O(N + #pairs).

    Not valid for every constraint list, and the exact condition is open.
    What is known, with the dense oracle as the arbiter:

    - a repeated constraint makes it wrong (41% low on one layout);
    - layouts with three pairwise-overlapping constraints can be wrong: of
      382 such random layouts on 6 and 10 qubits, 154 were off by more
      than 1e-8 and the worst by 22%, while none of 218 without such a
      triple was;
    - the default triangular layouts (:func:`racd.models.lhz_default_constraints`)
      agree with the oracle to rounding for n = 3, 4 and 5, although for
      n >= 4 they hold such a triple; n = 6 has 15 qubits, above the
      oracle's dense cap.

    So :func:`normalization`, and with it :func:`action` and
    :func:`evaluator`, refuse a layout with a repeated constraint, and one
    with three pairwise-overlapping constraints other than the default.
    """
    J = np.asarray(J, dtype=float)
    n = len(J)
    if len(counts.L_mu) != n:
        raise ValueError("inconsistent counts: size mismatch with couplings")
    A0, dA0 = fd["A"]
    B0, dB0 = fd["B"]
    C0, dC0 = fd["C"]
    bt = B0 + beta

    c2, s2 = math.cos(2.0 * phi), math.sin(2.0 * phi)
    c4 = math.cos(4.0 * phi)
    cg = np.cos(2.0 * gamma * J)
    sg = np.sin(2.0 * gamma * J)
    cg4 = np.cos(4.0 * gamma * J)
    lm = counts.L_mu_float
    c2_l = c2 ** counts.L_mu
    c2_lm1 = c2 ** counts.L_mu_less1
    c2_lm2 = c2 ** counts.L_mu_less2
    c4_l = c4 ** counts.L_mu

    s = dA0**2 * float((J**2).sum()) + n * dB0**2 + counts.L * dC0**2
    s += 4.0 * (B0**2 + bt**2) * float((A0**2 * J**2 + C0**2 * lm).sum())
    bracket = (
        A0**2 * J**2 * cg * c2_l
        - 2.0 * A0 * C0 * J * lm * sg * s2 * c2_lm1
        + C0**2 * cg * (lm * c2_l - lm * (lm - 1.0) * s2**2 * c2_lm2)
    )
    s -= 8.0 * B0 * bt * float(bracket.sum())
    s -= 4.0 * bt * float(
        ((B0 * dA0 - dB0 * A0) * J * sg * c2_l + (B0 * dC0 - dB0 * C0) * lm * cg * s2 * c2_lm1).sum()
    )
    s += 2.0 * B0**2 * bt**2 * float((1.0 - cg4 * c4_l).sum())
    for mu, nu, lmn, expo in counts.pairs:
        shared = 1.0 - c4**lmn
        s += 4.0 * B0**2 * bt**2 * shared
        s += 8.0 * B0**2 * bt**2 * shared * (c2**expo) * cg[mu] * cg[nu]
    return float(s)


# ---------------------------------------------------------------------------
# Dispatch from a model to its closed form
# ---------------------------------------------------------------------------

def normalization(model: Model) -> float:
    """Factor by which the dense trace Tr(G_t^2) exceeds :func:`action` for
    ``model``; raises ``ValueError`` where no closed form applies, which
    includes the LHZ layouts that :func:`action_lhz` refuses."""
    n = model.n_qubits
    if model.kind == "two-spin":
        return 1.0
    if model.kind == "chain":
        if n < 4:
            raise ValueError("chain closed form needs N >= 4; use backend='oracle'")
        return n * 2.0**n
    if model.kind == "lhz":
        counts, reason = model.counts, None
        default = sorted(counts.constraints) == sorted(lhz_default_constraints(model.n_logical))
        if counts.repeated:
            reason = "a repeated constraint"
        elif counts.overlapping_triple and not default:
            reason = "three pairwise-overlapping constraints outside the default layout"
        if reason:
            raise ValueError(f"LHZ closed form does not serve a layout with {reason}; use backend='oracle'")
    if model.kind in ("qubo", "lhz"):
        return 2.0**n
    raise ValueError(f"no closed form for model kind {model.kind!r}")


def evaluator(model: Model) -> Callable[[FieldDerivs, Sequence[float]], float]:
    """:func:`action` of ``model`` as a function of ``(fd, x)``, with the
    closed form checked (see :func:`normalization`) and chosen once.  The
    ``action_*`` evaluator is looked up in this module when the function is
    built, so a replacement made before then is the one called.  The QUBO
    function builds its own :class:`QuboKernel` of the model's couplings
    (which checks them) and its own cache of gamma-only sums (see
    :func:`action_qubo`); both live as long as the function."""
    normalization(model)  # rejects models without a closed form
    if model.kind == "two-spin":
        fn = action_two_level
        return lambda fd, x: fn(fd, x[0], x[1])
    if model.kind == "chain":
        fn = action_chain
        return lambda fd, x: fn(fd, x[0], x[1], x[2])
    if model.kind == "qubo":
        fn, kernel, cache = action_qubo, QuboKernel(model.couplings), {}
        return lambda fd, x: fn(kernel, fd, x[0], x[1], cache)
    fn, counts, couplings = action_lhz, model.counts, model.couplings
    return lambda fd, x: fn(counts, couplings, fd, x[0], x[1], x[2])


def action(model: Model, fd: FieldDerivs, x: Sequence[float]) -> float:
    """Scaled action of ``model`` at the stacked parameters ``x`` (ordered as
    ``model.param_names``), normalized as :func:`normalization` states.
    Repeated evaluations on one model should build :func:`evaluator` once
    instead."""
    return evaluator(model)(fd, x)


# ---------------------------------------------------------------------------
# Two-operator variational CD (no rotation): the triviality result
# ---------------------------------------------------------------------------

def action_cd_two_param(
    h_a: SpinOperator,
    h_b: SpinOperator,
    A0: float,
    B0: float,
    dA0: float,
    dB0: float,
    alpha_a: float,
    alpha_b: float,
) -> float:
    """Action of the unrotated two-operator CD ansatz A = a_a H_a + a_b H_b.

    S = Tr((dA0 H_a + dB0 H_b)^2) + c (A0 a_b - B0 a_a)^2 with
    c = Tr((i [H_a, H_b])^2) >= 0, so the trivial point a = 0 is a global
    minimum: without a frame rotation the variational CD cannot improve on
    the bare schedule.
    """
    comm = commutator(h_a, h_b)
    c = -trace_product(comm, comm).real  # Tr((iC)^2) = -Tr(C^2)
    quad = (
        dA0**2 * trace_product(h_a, h_a).real
        + 2.0 * dA0 * dB0 * trace_product(h_a, h_b).real
        + dB0**2 * trace_product(h_b, h_b).real
    )
    return float(quad + c * (A0 * alpha_b - B0 * alpha_a) ** 2)
