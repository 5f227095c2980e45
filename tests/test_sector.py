"""The periodic chain's translation-invariant (k = 0) sector: its basis, its
slot tables and its ground states, each against an independent dense
construction in the full space."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from racd.agp import exact_agp
from racd.dynamics import _h0_pair, _one_signed, _word_tables, ground_space
from racd.models import ChainModel, Ramp, TranslationSector
from racd.operators import sigma_y
from racd.optimizer import assemble_protocol

SIZES = range(3, 11)


def necklaces(n):
    """Binary necklaces of length n: (1/n) sum_{k | n} phi(k) 2^(n/k)."""
    phi = lambda k: sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)
    return sum(phi(k) * 2 ** (n // k) for k in range(1, n + 1) if n % k == 0) // n


def dense_isometry(n):
    """P (2^N x d) from orbits found by rotating each state's bit string,
    columns ordered by the orbits' smallest members."""
    orbits = {}
    for s in range(1 << n):
        bits = format(s, f"0{n}b")
        rep = min(int(bits[k:] + bits[:k], 2) for k in range(n))
        orbits.setdefault(rep, []).append(s)
    p = np.zeros((1 << n, len(orbits)))
    for col, rep in enumerate(sorted(orbits)):
        p[orbits[rep], col] = 1.0 / math.sqrt(len(orbits[rep]))
    return p


def components(n):
    model = ChainModel(n)
    return model, [t.operator for t in model.terms] + [sigma_y(n, j) for j in range(n)]


@settings(max_examples=20, deadline=None)
@given(n=st.integers(3, 10), seed=st.integers(0, 2**16))
def test_sector_basis_is_the_necklace_isometry(n, seed):
    sector = TranslationSector(n)
    assert sector.dim == necklaces(n) == len(sector.sizes)
    assert sector.sizes.sum() == 1 << n
    p = dense_isometry(n)
    rng = np.random.Generator(np.random.PCG64(seed))
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    phi = rng.normal(size=(2, sector.dim)) + 1j * rng.normal(size=(2, sector.dim))
    assert_allclose(sector.project(psi), p.T @ psi, rtol=0, atol=1e-13)
    assert_allclose(sector.embed(phi), phi @ p.T, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_slot_tables_are_the_projected_components(n, seed):
    # every component (model terms and each sigma-y_j) and a random
    # combination of them, against P^T O P from the dense operators
    _, ops = components(n)
    tables = _word_tables(ops, TranslationSector(n))
    p = dense_isometry(n)
    dense = [p.T @ op.to_dense() @ p for op in ops]
    for c, want in enumerate(dense):
        assert_allclose(tables.matrix(np.eye(len(ops))[c]).toarray(), want, rtol=0, atol=1e-14)
    coeffs = np.random.Generator(np.random.PCG64(seed)).uniform(-2.0, 2.0, len(ops))
    assert_allclose(tables.matrix(coeffs).toarray(), sum(c * m for c, m in zip(coeffs, dense)), rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [4, 7])
def test_sector_substeps_apply_the_projected_hamiltonian(n, block_applies):
    # what evolve applies in the sector is P^T H(t) P of each protocol
    model = ChainModel(n)
    ramp = Ramp(1.0)
    protocols = [assemble_protocol(model, None, kind, ramp) for kind in ("ua", "local-cd", "exact-cd")]
    # only where the sector's levels are at least 6e-3 apart (t >= 0.5 at
    # N = 7): at t <= 0.4 they come within 1e-4 to 1e-10 of each other, and
    # the gauge potential changes by up to 1e-8 with the rounding of H0
    times = np.array([0.0, 0.5, 0.6, 0.75, 1.0])
    sector = model.sector
    p = dense_isometry(n)
    rng = np.random.Generator(np.random.PCG64(n))
    for idx, substep in enumerate(block_applies(protocols, times, sector.embed(np.ones(sector.dim) / math.sqrt(sector.dim)))):
        psi = rng.normal(size=(3, sector.dim)) + 1j * rng.normal(size=(3, sector.dim))
        applied = substep(psi)
        lam, lam_dot = ramp(times[idx])
        h0 = model.h0(lam).to_dense()
        for b, protocol in enumerate(protocols):
            h = sum(float(protocol.field_table(times)[t.name][idx]) * t.operator.to_dense() for t in model.terms)
            y = protocol.y_table(times)[idx]
            h = h + sum(y[j] * sigma_y(n, j).to_dense() for j in range(n))
            want = p.T @ h @ p
            if protocol.kind == "exact-cd":
                # the gauge potential is block diagonal in momentum, and its
                # k = 0 block is the gauge potential of H0's k = 0 block
                want = want + lam_dot * exact_agp(p.T @ h0 @ p, p.T @ model.dh0_dlambda(lam).to_dense() @ p)
            assert_allclose(applied[b], want @ psi[b], rtol=0, atol=1e-9)


@pytest.mark.parametrize("n", SIZES)
def test_sector_ground_energy_matches_full_space(n):
    # on 21 lambdas in [0, 1] the sector's ground state is certified (one
    # vector, one sign) and its energy is the full space's ground energy
    model = ChainModel(n)
    sector = model.sector
    h_a, h_b = _h0_pair(model, sector)
    for lam in np.linspace(0.0, 1.0, 21):
        energy, vec = ground_space(h_a + lam * h_b)
        assert _one_signed(vec)
        h = model.h0(lam).to_dense().real
        full = scipy.linalg.eigh(h, eigvals_only=True, subset_by_index=[0, 0])[0]
        assert energy == pytest.approx(full, abs=1e-10)
        state = sector.embed(vec[:, 0])
        assert_allclose(h @ state, energy * state, rtol=0, atol=1e-10)
