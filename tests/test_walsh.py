import numpy as np
import pytest

from openbaker.quantum import escape_projector
from openbaker.spectral import weight, weight_prediction
from openbaker.walsh import (
    ZERO_THRESHOLD,
    _digit_reversal,
    long_lived_spectrum,
    nonzero_count,
    walsh_open_baker,
    walsh_spectrum_report,
    walsh_transform,
)


def test_digit_reversal():
    assert list(_digit_reversal(1)) == [0, 1, 2]
    # two ternary digits: (d0 d1) -> (d1 d0)
    assert list(_digit_reversal(2)) == [0, 3, 6, 1, 4, 7, 2, 5, 8]
    r = _digit_reversal(4)
    assert np.array_equal(r[r], np.arange(81))  # involution


def test_walsh_transform_unitary():
    for k in (1, 2, 3, 4):
        W = walsh_transform(k)
        N = 3**k
        assert np.allclose(W @ W.conj().T, np.eye(N), atol=1e-13)


def test_walsh_transform_tensor_oracle():
    """k = 2 transform from first principles: entry (n, m) couples the
    reversed ternary digits of n with those of m through 3x3 DFT factors."""
    F3 = np.exp(-2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / np.sqrt(3)
    W = walsh_transform(2)
    for n in range(9):
        for m in range(9):
            n1, n0 = divmod(n, 3)   # n = 3*n1 + n0; row permuted to 3*n0 + n1
            m1, m0 = divmod(m, 3)
            expected = F3[n0, m1] * F3[n1, m0]
            assert W[n, m] == pytest.approx(expected, abs=1e-14)


def test_walsh_open_subunitarity():
    """The exact opening identity holds for the Walsh quantization too."""
    for k in (2, 3, 4):
        N = 3**k
        Ut = walsh_open_baker(k)
        pi0 = np.diag(escape_projector(0, N))
        assert np.linalg.norm(Ut.conj().T @ Ut - (np.eye(N) - pi0)) < 1e-13
    with pytest.raises(ValueError):
        walsh_open_baker(1)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_nonzero_count_is_power_of_two(k):
    assert nonzero_count(k) == 2**k


def test_nonzero_count_threshold_stable():
    for t in (1e-12, 1e-10, 1e-8, ZERO_THRESHOLD):
        assert nonzero_count(3, threshold=t) == 8


def test_nilpotent_remainder():
    """U~ restricted to the complement of the long-lived subspace is
    nilpotent: U~^k has rank exactly 2^k, and the next power keeps it."""
    k = 3
    Ut = walsh_open_baker(k)
    r1 = np.linalg.matrix_rank(np.linalg.matrix_power(Ut, k), tol=1e-10)
    r2 = np.linalg.matrix_rank(np.linalg.matrix_power(Ut, k + 1), tol=1e-10)
    assert r1 == r2 == 2**k


def test_long_lived_spectrum_refined():
    s = long_lived_spectrum(3)
    assert len(s.pairs) == nonzero_count(3) == 8
    for p in s.pairs:
        assert p.residual_right < 1e-12
        assert p.residual_left < 1e-12
        assert p.modulus > 0.1


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_kernel_reported_as_exact_zeros(k):
    """Only the 2^k trapped-subspace pairs are resonances; the report gives
    the N - 2^k kernel rows z = 0 exactly and no round-off fragment."""
    N, r = 3**k, 2**k
    assert len(long_lived_spectrum(k).pairs) == r
    rows = walsh_spectrum_report(k)
    assert len(rows) == N
    assert all(row["long_lived"] for row in rows[:r])
    for row in rows[r:]:
        assert row["re_z"] == row["im_z"] == row["modulus"] == 0.0
        assert not row["long_lived"] and row["kernel_dim"] == N - r
    assert not any(0.0 < row["modulus"] < 1e-3 for row in rows)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_long_lived_subspace_cross_check(k):
    """The 2^k invariant-subspace pairs against an independent dense
    eigensolve: same eigenvalues, round-off residuals on both sides,
    biorthogonality inside the degenerate clusters and the exact weights."""
    N, r = 3**k, 2**k
    Ut = walsh_open_baker(k)
    top = long_lived_spectrum(k).pairs
    assert len(top) == r
    z = np.array([p.z for p in top])
    ev = np.linalg.eigvals(Ut)
    dense = list(ev[np.argsort(-np.abs(ev))][:r])
    for zi in z:
        j = int(np.argmin(np.abs(np.array(dense) - zi)))
        assert abs(dense.pop(j) - zi) < 1e-12
    assert max(p.residual_right for p in top) < 1e-13
    assert max(p.residual_left for p in top) < 1e-13
    V = np.column_stack([p.right_vec for p in top])
    U = np.column_stack([p.left_vec for p in top])
    G = np.abs(U.conj().T @ V)
    assert (G - np.diag(np.diag(G))).max() < 1e-12
    projs = [escape_projector(m, N) for m in range(min(5, k))]
    for p in top:
        for m, proj in enumerate(projs):
            assert abs(weight(p, proj) - weight_prediction(p.z, m)) < 1e-12


@pytest.mark.parametrize("k", [3, 4])
def test_weight_formula_exact(k):
    """For the Walsh map the semiclassical weight formula has no error term:
    weight(m) = |z|^(2m) (1 - |z|^2) at round-off for every long-lived state."""
    N = 3**k
    s = long_lived_spectrum(k)
    projs = [escape_projector(m, N) for m in range(k)]
    for p in s.pairs:
        for m, proj in enumerate(projs):
            assert abs(weight(p, proj) - weight_prediction(p.z, m)) < 1e-12


def test_moduli_structure():
    """Long-lived Walsh moduli take the values sqrt((2 + 2 cos t)/3)-type
    products; at any k the largest is sqrt(2/3 + ...) — check the invariant
    that all 2^k nonzero moduli are <= the k = 1-step bound and > 0."""
    s = long_lived_spectrum(4)
    mods = [p.modulus for p in s.pairs]
    assert all(0.0 < m <= 1.0 for m in mods)
    # spectrum is closed under complex conjugation
    zs = sorted((round(p.z.real, 9), round(abs(p.z.imag), 9))
                for p in s.pairs)
    conj = sorted((round(p.z.real, 9), round(abs(np.conj(p.z).imag), 9))
                  for p in s.pairs)
    assert zs == conj


def test_walsh_spectrum_report():
    rows = walsh_spectrum_report(3)
    assert len(rows) == 27
    long_rows = [r for r in rows if r["long_lived"]]
    assert len(long_rows) == 8
    assert all(r["kernel_dim"] == 27 - 8 for r in rows)
    assert max(r["max_weight_residual"] for r in long_rows) < 1e-12
    with pytest.raises(ValueError):
        walsh_spectrum_report(1)
