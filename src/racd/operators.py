"""Symbolic Pauli-string algebra on N qubits.

An operator is stored as a weighted sum of Pauli words. A word is a pair of
bitmasks ``(x, z)``: bit ``j`` set in ``x`` / ``z`` means site ``j`` carries
an X / Z factor, with the fixed per-site ordering X-before-Z.  A site with
both bits set is ``X*Z = -i*Y``, so sigma_y enters with an explicit ``i`` in
the weight.  The bare words form a trace-orthogonal basis, which keeps
products, commutators and traces exact and cheap: ``Tr(W) = 2^N`` only for
the identity word.

Weights below ``ZERO_TOL`` are pruned.  All values are immutable after
construction; every operation returns a new object.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from .errors import RacdError

ZERO_TOL = 1e-14
DENSE_MATRIX_MAX_QUBITS = 12
STATE_VECTOR_MAX_QUBITS = 15


class DimensionMismatchError(RacdError, ValueError):
    """Operands act on different qubit counts."""


class CapacityError(RacdError, ValueError):
    """Dense conversion above the configured qubit cap."""


class NotDiagonalError(RacdError, ValueError):
    """Operation requires a computational-basis diagonal operator."""


def _parity(n: int) -> int:
    return n.bit_count() & 1


class SpinOperator:
    """Weighted sum of Pauli words: ``sum_w c_w * X^xw Z^zw``."""

    __slots__ = ("n_qubits", "_terms")

    def __init__(self, n_qubits: int, terms: Dict[Tuple[int, int], complex] | None = None):
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        self.n_qubits = n_qubits
        self._terms = {} if terms is None else {k: complex(v) for k, v in terms.items() if abs(v) >= ZERO_TOL}

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, n_qubits: int) -> "SpinOperator":
        return cls(n_qubits, {})

    @classmethod
    def identity(cls, n_qubits: int, weight: complex = 1.0) -> "SpinOperator":
        return cls(n_qubits, {(0, 0): weight})

    # -- inspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[Tuple[Tuple[int, int], complex]]:
        return iter(self._terms.items())

    def weight(self, x_mask: int, z_mask: int) -> complex:
        return self._terms.get((x_mask, z_mask), 0.0 + 0.0j)

    def is_zero(self) -> bool:
        return not self._terms

    def is_diagonal(self) -> bool:
        return all(x == 0 for x, _ in self._terms)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        # word^dag = (-1)^(x.z) word, so hermiticity is a per-word phase condition
        for (x, z), w in self._terms.items():
            sign = -1.0 if _parity(x & z) else 1.0
            if abs(np.conj(w) * sign - w) > tol:
                return False
        return True

    def norm(self) -> float:
        """Frobenius norm / 2^(N/2): sqrt(sum |c_w|^2)."""
        return float(np.sqrt(sum(abs(w) ** 2 for w in self._terms.values())))

    def equals(self, other: "SpinOperator", tol: float = 1e-12) -> bool:
        if self.n_qubits != other.n_qubits:
            return False
        keys = set(self._terms) | set(other._terms)
        return all(abs(self.weight(*k) - other.weight(*k)) <= tol for k in keys)

    def __repr__(self) -> str:
        if not self._terms:
            return f"SpinOperator({self.n_qubits}, 0)"
        parts = []
        for (x, z), w in sorted(self._terms.items()):
            # site j's letter from its (x, z) bits, site 0 leftmost
            label = "".join("IXZY"[(x >> j & 1) | (z >> j & 1) << 1] for j in range(self.n_qubits))
            parts.append(f"({w:.6g})*{label}")
        return " + ".join(parts)

    # -- linear structure ----------------------------------------------------
    def _check_same_size(self, other: "SpinOperator") -> None:
        if self.n_qubits != other.n_qubits:
            raise DimensionMismatchError(f"{self.n_qubits} vs {other.n_qubits} qubits")

    def __add__(self, other: "SpinOperator") -> "SpinOperator":
        self._check_same_size(other)
        out = dict(self._terms)
        for k, w in other._terms.items():
            out[k] = out.get(k, 0.0) + w
        return SpinOperator(self.n_qubits, out)

    def __sub__(self, other: "SpinOperator") -> "SpinOperator":
        return self + (-other)

    def __neg__(self) -> "SpinOperator":
        return SpinOperator(self.n_qubits, {k: -w for k, w in self._terms.items()})

    def __mul__(self, scalar: complex) -> "SpinOperator":
        return SpinOperator(self.n_qubits, {k: w * scalar for k, w in self._terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex) -> "SpinOperator":
        return self * (1.0 / scalar)

    def __matmul__(self, other: "SpinOperator") -> "SpinOperator":
        self._check_same_size(other)
        out: Dict[Tuple[int, int], complex] = {}
        for (x1, z1), w1 in self._terms.items():
            for (x2, z2), w2 in other._terms.items():
                sign = -1.0 if _parity(z1 & x2) else 1.0
                k = (x1 ^ x2, z1 ^ z2)
                out[k] = out.get(k, 0.0) + w1 * w2 * sign
        return SpinOperator(self.n_qubits, out)

    def dagger(self) -> "SpinOperator":
        out = {}
        for (x, z), w in self._terms.items():
            sign = -1.0 if _parity(x & z) else 1.0
            out[(x, z)] = np.conj(w) * sign
        return SpinOperator(self.n_qubits, out)

    # -- dense conversion ----------------------------------------------------
    def to_dense(self, max_qubits: int = DENSE_MATRIX_MAX_QUBITS) -> np.ndarray:
        """2^N x 2^N complex matrix; raises CapacityError above ``max_qubits``."""
        n = self.n_qubits
        if n > max_qubits:
            raise CapacityError(f"{n} qubits exceeds dense cap of {max_qubits}")
        dim = 1 << n
        mat = np.zeros((dim, dim), dtype=complex)
        cols = np.arange(dim)
        for (x, z), w in self._terms.items():
            rows = cols ^ x
            signs = 1.0 - 2.0 * (np.bitwise_count(cols & z) & 1)
            mat[rows, cols] += w * signs
        return mat

    def diag_vector(self, max_qubits: int = STATE_VECTOR_MAX_QUBITS) -> np.ndarray:
        """Diagonal of a diagonal operator as a length-2^N vector."""
        if not self.is_diagonal():
            raise NotDiagonalError("operator has off-diagonal words")
        n = self.n_qubits
        if n > max_qubits:
            raise CapacityError(f"{n} qubits exceeds state-vector cap of {max_qubits}")
        dim = 1 << n
        states = np.arange(dim)
        out = np.zeros(dim, dtype=complex)
        for (_, z), w in self._terms.items():
            out += w * (1.0 - 2.0 * (np.bitwise_count(states & z) & 1))
        return out


# -- site operators ---------------------------------------------------------

def sigma_x(n_qubits: int, j: int) -> SpinOperator:
    return SpinOperator(n_qubits, {(1 << j, 0): 1.0})


def sigma_y(n_qubits: int, j: int) -> SpinOperator:
    return SpinOperator(n_qubits, {(1 << j, 1 << j): 1.0j})


def sigma_z(n_qubits: int, j: int) -> SpinOperator:
    return SpinOperator(n_qubits, {(0, 1 << j): 1.0})


def z_word(n_qubits: int, sites) -> SpinOperator:
    """Product of sigma_z over a collection of sites."""
    mask = 0
    for j in sites:
        if not 0 <= j < n_qubits:
            raise ValueError(f"site {j} out of range for {n_qubits} qubits")
        mask ^= 1 << j
    return SpinOperator(n_qubits, {(0, mask): 1.0})


# -- algebra ----------------------------------------------------------------

def commutator(a: SpinOperator, b: SpinOperator) -> SpinOperator:
    """AB - BA in canonical form."""
    return (a @ b) - (b @ a)


def trace_product(a: SpinOperator, b: SpinOperator) -> complex:
    """Tr(AB), using Tr(word) = 2^N only for the identity word.

    Only matching (x, z) pairs contribute; the product of a word with itself
    is (-1)^(x.z) times the identity.
    """
    a._check_same_size(b)
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    acc = 0.0 + 0.0j
    for (x, z), w in small._terms.items():
        w2 = large._terms.get((x, z))
        if w2 is not None:
            sign = -1.0 if _parity(x & z) else 1.0
            acc += w * w2 * sign
    return acc * (1 << a.n_qubits)


# -- diagonal decomposition -------------------------------------------------

def diag_component(op: SpinOperator, j: int, part: str) -> SpinOperator:
    """Split a diagonal D as D = D^[j] * sigma^z_j + D^[-j].

    ``part='keep_j'`` returns D^[j] (the cofactor of sigma^z_j, with the
    sigma^z_j factor removed); ``part='drop_j'`` returns D^[-j].  Both results
    are diagonal and independent of sigma^z_j.
    """
    if not op.is_diagonal():
        raise NotDiagonalError("diag_component requires a diagonal operator")
    if not 0 <= j < op.n_qubits:
        raise ValueError(f"site {j} out of range")
    if part not in ("keep_j", "drop_j"):
        raise ValueError("part must be 'keep_j' or 'drop_j'")
    bit = 1 << j
    out: Dict[Tuple[int, int], complex] = {}
    for (x, z), w in op._terms.items():
        if part == "keep_j" and (z & bit):
            out[(x, z ^ bit)] = w
        elif part == "drop_j" and not (z & bit):
            out[(x, z)] = w
    return SpinOperator(op.n_qubits, out)


def dense_diag_component(mat: np.ndarray, n_qubits: int, j: int, part: str) -> np.ndarray:
    """Dense-matrix version of the decomposition, used as a test oracle.

    D^[j]  = (1/2) sz_j D + (i/4)(sx_j D sy_j - sy_j D sx_j)
    D^[-j] = (1/2) D + (1/2) sx_j D sx_j
    """
    sx = sigma_x(n_qubits, j).to_dense()
    sy = sigma_y(n_qubits, j).to_dense()
    sz = sigma_z(n_qubits, j).to_dense()
    if part == "keep_j":
        return 0.5 * (sz @ mat) + 0.25j * (sx @ mat @ sy - sy @ mat @ sx)
    if part == "drop_j":
        return 0.5 * mat + 0.5 * (sx @ mat @ sx)
    raise ValueError("part must be 'keep_j' or 'drop_j'")
