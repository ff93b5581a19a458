import cmath
import math

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given
from hypothesis import strategies as st

from openbaker.experiments import sector_spectrum
from openbaker.quantum import escape_projector
from openbaker.spectral import (
    Spectrum,
    eigenpairs,
    select_long_lived,
    spectrum_csv_rows,
    weight,
    weight_prediction,
)
from open_dense import open_propagator


def _dense_spectrum(A):
    """Spectrum of a square matrix from one two-sided LAPACK eigensolve."""
    z, U, V = la.eig(A, left=True, right=True)
    return Spectrum(A.shape[0], eigenpairs(z, V, U, *_actions(A)))


def _actions(A):
    """The action of a dense matrix and of its adjoint on a block of columns."""
    return (lambda X: A @ X), (lambda X: A.conj().T @ X)


@pytest.fixture(scope="module")
def spec27():
    return open_propagator(27), _dense_spectrum(open_propagator(27))


def test_eigendecompose_residuals(spec27):
    Ut, s = spec27
    assert s.N == 27 and len(s.pairs) == 27
    for p in s.pairs:
        assert p.residual_right < 1e-12
        assert p.residual_left < 1e-12
        assert abs(np.linalg.norm(p.right_vec) - 1) < 1e-12
        assert abs(np.linalg.norm(p.left_vec) - 1) < 1e-12


def test_spectrum_sorted_and_subunit(spec27):
    _, s = spec27
    mods = s.moduli()
    assert np.all(np.diff(mods) <= 1e-14)
    assert mods[0] <= 1.0 + 1e-12


def test_eigenvalue_oracle_diagonal():
    """Known-answer check on a hand-built non-normal matrix."""
    A = np.array([[0.5, 1.0], [0.0, -0.25]], dtype=complex)
    s = _dense_spectrum(A)
    assert s.eigenvalues() == pytest.approx([0.5, -0.25])
    for p in s.pairs:
        assert np.linalg.norm(A @ p.right_vec - p.z * p.right_vec) < 1e-14
        assert np.linalg.norm(A.conj().T @ p.left_vec
                              - np.conj(p.z) * p.left_vec) < 1e-14


def _reference_pairs(A, z, V, U):
    """Per-pair reference for `eigenpairs`: normalize each column, make its
    largest component real positive, take the residuals by matrix-vector
    products, and sort by (-|z|, phase)."""
    pairs = []
    for i in range(len(z)):
        v, u = (M[:, i] / np.linalg.norm(M[:, i]) for M in (V, U))
        v, u = (x / (x[np.argmax(np.abs(x))] / np.abs(x).max()) for x in (v, u))
        pairs.append((complex(z[i]), v, u,
                      np.linalg.norm(A @ v - z[i] * v),
                      np.linalg.norm(A.conj().T @ u - np.conj(z[i]) * u)))
    pairs.sort(key=lambda p: (-abs(p[0]), cmath.phase(p[0])))
    return pairs


@pytest.mark.parametrize("A", [
    open_propagator(27),
    np.array([[0.5, 1.0], [0.0, -0.25]], dtype=complex),
], ids=["open_27", "non_normal_2x2"])
def test_eigenpairs_matches_per_pair_reference(A):
    z, U, V = la.eig(A, left=True, right=True)
    ref = _reference_pairs(A, z, V.copy(), U.copy())
    pairs = eigenpairs(z, V, U, *_actions(A))
    assert [p.z for p in pairs] == [r[0] for r in ref]
    for p, (_, v, u, res_r, res_l) in zip(pairs, ref):
        for got, want in ((p.right_vec, v), (p.left_vec, u)):
            assert abs(np.linalg.norm(got) - 1) < 1e-14
            top = got[np.argmax(np.abs(got))]
            assert top.real > 0 and abs(top.imag) < 1e-14
            assert np.abs(got - want).max() < 1e-14
        assert abs(p.residual_right - res_r) < 1e-14
        assert abs(p.residual_left - res_l) < 1e-14
    assert not V.flags.writeable and not U.flags.writeable


def test_left_vectors_vanish_on_opening(spec27):
    """Left eigenstates of nonzero resonance live on the backward-trapped
    set, so their opening components are exactly zero (the opening columns
    of U~ vanish)."""
    _, s = spec27
    for p in s.pairs:
        if p.modulus > 1e-8:
            assert np.abs(p.left_vec[9:18]).max() < 1e-12


def test_biorthogonality(spec27):
    _, s = spec27
    M = np.abs(s.left_matrix().conj().T @ s.right_matrix())
    Z = s.eigenvalues()
    distinct = np.abs(Z[:, None] - Z[None, :]) > 1e-8
    off = M[distinct & ~np.eye(27, dtype=bool)]
    assert off.max() < 1e-10


def propagation_identity_check(s, U_tilde, m: int) -> float:
    """Max over pairs of || U~^m v - z^m v ||."""
    if m < 0:
        raise ValueError("m must be >= 0")
    A = np.linalg.matrix_power(np.asarray(U_tilde, dtype=complex), m)
    V = s.right_matrix()
    Z = s.eigenvalues() ** m
    return float(np.linalg.norm(A @ V - V * Z[None, :], axis=0).max())


def test_propagation_identity(spec27):
    Ut, s = spec27
    assert propagation_identity_check(s, Ut, 0) < 1e-12
    assert propagation_identity_check(s, Ut, 1) < 1e-11
    assert propagation_identity_check(s, Ut, 3) < 1e-10
    with pytest.raises(ValueError):
        propagation_identity_check(s, Ut, -1)


def test_opening_weight_identity(spec27):
    """weight on the opening equals 1 - |z|^2 exactly (operator identity)."""
    _, s = spec27
    pi0 = escape_projector(0, 27)
    for p in s.pairs:
        assert weight(p, pi0) == pytest.approx(1 - p.modulus**2, abs=1e-12)


def test_weight_validation(spec27):
    _, s = spec27
    with pytest.raises(ValueError):
        weight(s.pairs[0], escape_projector(0, 9))
    with pytest.raises(ValueError):
        weight_prediction(0.5, -1)


@given(st.floats(0, 1), st.integers(0, 10))
def test_weight_prediction_bounds(r, m):
    w = weight_prediction(r, m)
    assert 0.0 <= w <= 1.0
    # summing over all m telescopes to 1 for |z| < 1
    if r < 1:
        total = sum(weight_prediction(r, j) for j in range(200))
        assert total <= 1.0 + 1e-12


def test_weight_prediction_values():
    assert weight_prediction(0.0, 0) == 1.0
    assert weight_prediction(1.0, 3) == 0.0
    assert weight_prediction(0.5, 1) == pytest.approx(0.25 * 0.75)


def test_gamma():
    from openbaker.spectral import ResonanceEigenpair
    v = np.array([1.0, 0.0], dtype=complex)
    p = ResonanceEigenpair(0.5, v, v, 0.0, 0.0)
    assert p.gamma == pytest.approx(-2 * math.log(0.5))
    p0 = ResonanceEigenpair(0.0, v, v, 0.0, 0.0)
    assert math.isinf(p0.gamma)


def test_select_long_lived(spec27):
    _, s = spec27
    top = select_long_lived(s, 5)
    assert len(top) == 5
    assert top[0].modulus == s.moduli()[0]
    with pytest.raises(ValueError):
        select_long_lived(s, 0)
    with pytest.raises(ValueError):
        select_long_lived(s, 28)
    # a parity sector holds fewer pairs than N: asking for more fails
    # instead of returning fewer
    even = sector_spectrum(27, "even")
    assert len(even.pairs) == 9
    assert len(select_long_lived(even, 9)) == 9
    with pytest.raises(ValueError, match="number of pairs"):
        select_long_lived(even, 20)


def test_csv_rows(spec27):
    _, s = spec27
    rows = spectrum_csv_rows(s)
    assert rows[0][:4] == ["index", "re_z", "im_z", "modulus"]
    assert len(rows) == 28
    # round-trip safety of the 17-digit rendering
    z = complex(float(rows[1][1]), float(rows[1][2]))
    assert z == s.pairs[0].z


def test_weight_sum_over_escape_depths(spec27):
    """Measured weights over all resolvable depths plus the trapped remainder
    account for the whole state."""
    _, s = spec27
    p = s.pairs[0]
    total = sum(weight(p, escape_projector(m, 27)) for m in range(2))
    assert total <= 1.0 + 1e-12
    assert total >= weight(p, escape_projector(0, 27)) - 1e-12
