import numpy as np
import pytest
from numpy.testing import assert_allclose

from racd.operators import (
    CapacityError,
    DimensionMismatchError,
    NotDiagonalError,
    SpinOperator,
    commutator,
    dense_diag_component,
    diag_component,
    sigma_x,
    sigma_y,
    sigma_z,
    trace_product,
    z_word,
)

SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def word(label: str) -> SpinOperator:
    """The Pauli word of a label like ``'XIZY'`` (site 0 leftmost)."""
    n = len(label)
    op = SpinOperator.identity(n)
    for j, c in enumerate(label):
        if c != "I":
            op = op @ {"X": sigma_x, "Y": sigma_y, "Z": sigma_z}[c](n, j)
    return op


def random_operator(n, rng, n_terms=8, hermitian=False):
    terms = {}
    for _ in range(n_terms):
        x = int(rng.integers(0, 1 << n))
        z = int(rng.integers(0, 1 << n))
        w = rng.normal() + 1j * rng.normal()
        terms[(x, z)] = terms.get((x, z), 0.0) + w
    op = SpinOperator(n, terms)
    if hermitian:
        op = 0.5 * (op + op.dagger())
    return op


def test_single_qubit_product_table_exhaustive():
    # all 16 ordered pairs, phases included
    for a in "IXYZ":
        for b in "IXYZ":
            got = (word(a) @ word(b)).to_dense()
            want = SINGLE[a] @ SINGLE[b]
            assert_allclose(got, want, atol=1e-15, err_msg=f"{a}*{b}")


def test_word_product_examples():
    x, y = word("X"), word("Y")
    xy = x @ y
    assert repr(xy) == "(0+1j)*Z"  # X*Y = iZ
    xx = x @ x
    assert repr(xx) == "(1+0j)*I"  # involution
    ab = word("XZ") @ word("YZ")
    assert repr(ab) == "(0+1j)*ZI"  # (X@Z)(Y@Z) = iZ@I


def test_word_product_associative():
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(50):
        labels = ["".join(rng.choice(list("IXYZ"), size=3)) for _ in range(3)]
        a, b, c = (word(s) for s in labels)
        left = (a @ b) @ c
        right = a @ (b @ c)
        assert left.equals(right, tol=0.0) and len(left) == 1


def test_word_product_size_mismatch():
    with pytest.raises(DimensionMismatchError):
        word("X") @ word("XX")


def test_commutator_examples():
    lhs = commutator(sigma_z(1, 0), sigma_x(1, 0))
    assert lhs.equals(2.0 * sigma_y(1, 0) * 1j)
    a = sigma_x(3, 0) @ sigma_z(3, 1)
    assert commutator(a, a).is_zero()


def test_commutator_antisymmetric_and_dense():
    rng = np.random.Generator(np.random.PCG64(2))
    a = random_operator(3, rng, hermitian=True)
    b = random_operator(3, rng, hermitian=True)
    c = commutator(a, b)
    assert c.equals(-1.0 * commutator(b, a))
    assert_allclose(c.to_dense(), a.to_dense() @ b.to_dense() - b.to_dense() @ a.to_dense(), atol=1e-12)
    # i[A, B] of Hermitians is Hermitian
    assert (1j * c).is_hermitian()


def test_trace_product_single_qubit():
    assert trace_product(sigma_x(1, 0), sigma_x(1, 0)) == pytest.approx(2.0)
    assert trace_product(sigma_x(1, 0), sigma_z(1, 0)) == pytest.approx(0.0)


def test_trace_product_matches_dense():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(20):
        a = random_operator(3, rng)
        b = random_operator(3, rng)
        want = np.trace(a.to_dense() @ b.to_dense())
        assert abs(trace_product(a, b) - want) <= 1e-12 * max(1.0, abs(want))


def test_to_dense_single_site():
    assert_allclose(sigma_z(1, 0).to_dense(), np.diag([1.0, -1.0]).astype(complex))
    assert_allclose(sigma_x(1, 0).to_dense(), SINGLE["X"])


def test_to_dense_two_spin_hamiltonian_blocks():
    # H0 at h=5, J=-1 couples only the |up,up> / |down,down> block
    h_a = -1.0 * sigma_z(2, 0) - 1.0 * sigma_z(2, 1)
    h_b = (sigma_x(2, 0) @ sigma_x(2, 1)) + (sigma_z(2, 0) @ sigma_z(2, 1))
    h = 5.0 * h_a + (-1.0) * h_b
    manual = np.array(
        [
            [-11.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, -1.0, 0.0],
            [0.0, -1.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0, 9.0],
        ],
        dtype=complex,
    )
    assert_allclose(h.to_dense(), manual, atol=1e-15)


def test_to_dense_capacity_cap():
    with pytest.raises(CapacityError):
        SpinOperator.identity(5).to_dense(max_qubits=4)


def test_hermiticity_preserved_by_structure():
    rng = np.random.Generator(np.random.PCG64(4))
    a = random_operator(3, rng, hermitian=True)
    b = random_operator(3, rng, hermitian=True)
    assert (a + b).is_hermitian()
    assert (2.5 * a).is_hermitian()
    assert (1j * commutator(a, b)).is_hermitian()
    assert not (1j * a).is_hermitian()


def test_diag_component_examples():
    d = z_word(2, (0, 1))  # sz_1 sz_2
    keep = diag_component(d, 0, "keep_j")
    drop = diag_component(d, 0, "drop_j")
    assert keep.equals(sigma_z(2, 1))
    assert drop.is_zero()
    d1 = sigma_z(2, 0)
    assert diag_component(d1, 1, "keep_j").is_zero()
    assert diag_component(d1, 1, "drop_j").equals(d1)


def test_diag_component_requires_diagonal():
    with pytest.raises(NotDiagonalError):
        diag_component(sigma_x(2, 0), 0, "keep_j")


def random_diagonal(n, rng, n_terms=6):
    terms = {}
    for _ in range(n_terms):
        z = int(rng.integers(0, 1 << n))
        terms[(0, z)] = terms.get((0, z), 0.0) + rng.normal()
    return SpinOperator(n, terms)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_decomposition_properties_i_to_iv_and_vi(n):
    rng = np.random.Generator(np.random.PCG64(10 + n))
    for _ in range(5):
        d = random_diagonal(n, rng)
        for j in range(n):
            keep = diag_component(d, j, "keep_j")
            drop = diag_component(d, j, "drop_j")
            # (i) reconstruction
            assert (keep @ sigma_z(n, j) + drop).equals(d)
            # (ii) both components diagonal
            assert keep.is_diagonal() and drop.is_diagonal()
            # (iii) independent of site j
            assert commutator(keep, sigma_x(n, j)).is_zero()
            assert commutator(drop, sigma_x(n, j)).is_zero()
            # (iv) [D, x_j] = 2i D^[j] y_j and [D, y_j] = -2i D^[j] x_j
            assert commutator(d, sigma_x(n, j)).equals(2j * (keep @ sigma_y(n, j)))
            assert commutator(d, sigma_y(n, j)).equals(-2j * (keep @ sigma_x(n, j)))
            # (vi) nilpotence
            assert diag_component(keep, j, "keep_j").is_zero()
        # (vi) symmetry
        for j in range(n):
            for k in range(n):
                jk = diag_component(diag_component(d, j, "keep_j"), k, "keep_j")
                kj = diag_component(diag_component(d, k, "keep_j"), j, "keep_j")
                assert jk.equals(kj)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_decomposition_property_v_trig_splitting_dense(n):
    # (cos D)^[k] = -sin(D^[k]) sin(D^[-k]); (sin D)^[k] = sin(D^[k]) cos(D^[-k])
    rng = np.random.Generator(np.random.PCG64(20 + n))
    d = random_diagonal(n, rng)
    diag = np.diag(d.to_dense()).real
    cos_d = np.diag(np.cos(diag)).astype(complex)
    sin_d = np.diag(np.sin(diag)).astype(complex)
    for k in range(n):
        keep = diag_component(d, k, "keep_j").to_dense()
        drop = diag_component(d, k, "drop_j").to_dense()
        sin_keep = np.diag(np.sin(np.diag(keep).real)).astype(complex)
        sin_drop = np.diag(np.sin(np.diag(drop).real)).astype(complex)
        cos_drop = np.diag(np.cos(np.diag(drop).real)).astype(complex)
        assert_allclose(
            dense_diag_component(cos_d, n, k, "keep_j"), -sin_keep @ sin_drop, atol=1e-12
        )
        assert_allclose(
            dense_diag_component(sin_d, n, k, "keep_j"), sin_keep @ cos_drop, atol=1e-12
        )


def test_diag_vector_matches_dense():
    rng = np.random.Generator(np.random.PCG64(30))
    d = random_diagonal(4, rng)
    assert_allclose(d.diag_vector(), np.diag(d.to_dense()), atol=1e-14)


def test_matrix_free_apply_matches_dense():
    # the sparse form of the operator's slot tables, which ground solves
    # above the dense cap apply
    from racd.dynamics import _word_tables

    rng = np.random.Generator(np.random.PCG64(31))
    op = random_operator(4, rng)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    assert_allclose(_word_tables([op]).matrix([1.0]) @ psi, op.to_dense() @ psi, atol=1e-12)


def test_zero_pruning():
    op = SpinOperator(2, {(0, 1): 1e-15})
    assert op.is_zero()
    a = sigma_x(2, 0)
    assert (a - a).is_zero()


def test_size_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        sigma_x(2, 0) + sigma_x(3, 0)
    with pytest.raises(DimensionMismatchError):
        trace_product(sigma_x(2, 0), sigma_x(3, 0))
