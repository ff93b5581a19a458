import numpy as np
import pytest

from openbaker.quantum import (
    baker_apply,
    baker_corners,
    baker_unitary,
    dft_apply,
    dft_matrix,
    parity_sector_basis,
    sector_block,
)
from interval_ops import escape_projector
from open_dense import extended_unitary, open_propagator, opened
from walsh_dense import baker_form


def parity_matrix(N):
    """Parity n -> N-1-n as a matrix."""
    return np.eye(N)[::-1]


def test_dft_unitary():
    for N in (3, 9, 27):
        F = dft_matrix(N)
        assert np.allclose(F @ F.conj().T, np.eye(N), atol=1e-13)
    with pytest.raises(ValueError):
        dft_matrix(0)


def test_dft_entries():
    F = dft_matrix(3)
    assert F[0, 0] == pytest.approx(np.exp(-2j * np.pi * 0.25 / 3) / np.sqrt(3))
    assert F[2, 1] == pytest.approx(np.exp(-2j * np.pi * 2.5 * 1.5 / 3) / np.sqrt(3))


def test_dft_squared_is_minus_parity():
    # F^2 = -P for the half-integer-shifted transform
    for N in (9, 27):
        F = dft_matrix(N)
        assert np.allclose(F @ F, -parity_matrix(N), atol=1e-12)


def test_baker_unitary_is_unitary():
    for N in (9, 27, 81):
        U = baker_unitary(N)
        assert np.allclose(U.conj().T @ U, np.eye(N), atol=1e-12)
    with pytest.raises(ValueError):
        baker_unitary(10)


@pytest.mark.parametrize("N", [3, 27, 81, 243, 729])
def test_baker_unitary_is_baker_form_bitwise(N):
    """`baker_unitary` conjugates F_N in place; the product gets the operands
    of `baker_form` in the same layout, so U is the same to the bit (the
    closed-map control selects its states by round-off)."""
    assert np.array_equal(baker_unitary(N), baker_form(dft_matrix(N), dft_matrix(N // 3)))


def test_baker_commutes_with_parity():
    for N in (9, 27, 81):
        U = baker_unitary(N)
        P = parity_matrix(N)
        assert np.linalg.norm(U @ P - P @ U) < 1e-12


def _unit_columns(N, seed):
    """N random unit columns followed by the N basis vectors."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return np.hstack([X / np.linalg.norm(X, axis=0), np.eye(N)])


@pytest.mark.parametrize("N", [3, 6, 9, 12, 27, 81, 243])
def test_baker_apply_matches_dense_unitary(N):
    """The FFT action of U~ = U_N (I - pi_0) and of U~^H agrees with the
    dense open propagator on every column, to the dense matrix's own phase
    round-off (within 1e-15 N), for a block and for a single vector."""
    Ut, X = open_propagator(N), _unit_columns(N, N)
    for adjoint, dense in ((False, Ut), (True, Ut.conj().T)):
        Y = baker_apply(X, adjoint=adjoint)
        assert Y.shape == X.shape
        assert np.linalg.norm(Y - dense @ X, axis=0).max() < 1e-15 * N
        assert np.array_equal(baker_apply(X[:, 0], adjoint=adjoint), Y[:, 0])
    with pytest.raises(ValueError):
        baker_apply(np.ones(10))


def test_baker_apply_matches_extended_precision():
    """Against U~_81, U_81 built in extended precision with its middle
    columns zeroed, the FFT action (two `dft_apply` calls) is off by less
    than 8e-16 per unit column for U~ and U~^H, far closer than the phase
    round-off of the dense `baker_unitary`."""
    N = 81
    Ul, X = opened(extended_unitary(N)), _unit_columns(N, 0)
    Xl = X.astype(np.clongdouble)
    for adjoint, exact in ((False, Ul @ Xl), (True, Ul.conj().T @ Xl)):
        err = (baker_apply(X, adjoint=adjoint) - exact).astype(complex)
        assert np.linalg.norm(err, axis=0).max() < 8e-16


@pytest.mark.parametrize("N", [27, 243])
def test_baker_apply_ignores_the_opening(N):
    """U~ X reads nothing of X's middle third: X and X with that third
    replaced by random numbers give the same bits, as a block and as a
    single vector."""
    t = N // 3
    X = _unit_columns(N, 2)[:, :8]
    Y = X.copy()
    Y[t:2 * t] = np.random.default_rng(3).standard_normal((t, 8))
    assert np.array_equal(baker_apply(X), baker_apply(Y))
    assert np.array_equal(baker_apply(X[:, 0]), baker_apply(Y[:, 0]))


@pytest.mark.parametrize("N", [27, 243])
def test_baker_apply_adjoint_is_zero_on_the_opening(N):
    """U~^H X = (I - pi_0) U_N^H X is exactly 0.0 on the middle third."""
    t = N // 3
    Y = baker_apply(_unit_columns(N, 4), adjoint=True)
    assert np.all(Y[t:2 * t] == 0.0)


@pytest.mark.parametrize("N", [729, 2187])
def test_baker_apply_adjoint_identity(N):
    """<U~ x, y> = <x, U~^H y> for 8 x 8 pairs of random unit columns, to
    2e-16."""
    rng = np.random.default_rng(N)
    X, Y = (rng.standard_normal((N, 8)) + 1j * rng.standard_normal((N, 8)) for _ in range(2))
    X /= np.linalg.norm(X, axis=0)
    Y /= np.linalg.norm(Y, axis=0)
    gap = baker_apply(X).conj().T @ Y - X.conj().T @ baker_apply(Y, adjoint=True)
    assert np.abs(gap).max() < 2e-16


@pytest.mark.parametrize("N", [27, 81, 243], ids=lambda N: f"{N}-{N}")
def test_dft_apply_matches_extended_precision(N):
    """`dft_apply` is F X and, with `adjoint`, F^H X (ids: the N x N shape
    of F), for a block and for a single vector: row s of F X is
    N^{-1/2} sum_m X[m] e^{-2 pi i (m+1/2)(s+1/2)/N}, built here in extended
    precision with each phase's integer numerator (2m+1)(2s+1) reduced mod
    4N before rounding; within 3e-15 per unit column for F, 1.2e-15 for F^H."""
    X = _unit_columns(N, 1)
    j = np.outer(2 * np.arange(N) + 1, 2 * np.arange(N) + 1) % (4 * N)
    pi = 4 * np.arctan(np.longdouble(1))
    K = np.exp(np.clongdouble(-0.5j) * pi * j.astype(np.longdouble) / N)
    K /= np.sqrt(np.longdouble(N))
    for adjoint, exact, bound in ((False, K, 3e-15), (True, K.conj().T, 1.2e-15)):
        for Z in (X, X[:, 0]):
            got = dft_apply(Z, adjoint=adjoint)
            assert got.shape == Z.shape
            err = (got - exact @ Z.astype(np.clongdouble)).astype(complex)
            assert np.linalg.norm(err, axis=0).max() < bound


@pytest.mark.parametrize("N", [27, 81, 243, 729])
def test_baker_corners_match_dense_unitary(N):
    """The kept corners are U_N's rows and columns [0, t) and [2t, N) to
    1e-15: they share the entries of `dft_matrix`, and the open spectra's
    reference values hold to that bound."""
    t = N // 3
    kept = np.r_[0:t, 2 * t:N]
    C = baker_corners(N)
    assert C.shape == (2 * t, 2 * t)
    assert np.abs(C - baker_unitary(N)[np.ix_(kept, kept)]).max() < 1e-15
    with pytest.raises(ValueError):
        baker_corners(10)


@pytest.mark.parametrize("N, bound", [(81, 3e-14), (243, 6e-14)])
def test_baker_corners_match_extended_precision(N, bound):
    """Against U_N built in extended precision, the corners are off by the
    phase round-off of the `dft_matrix` entries they are made of, as the
    corners of the dense `baker_unitary` are. The bound sits just above that
    error, so the products may add ulps but no error of their own."""
    t = N // 3
    kept = np.r_[0:t, 2 * t:N]
    exact = extended_unitary(N)[np.ix_(kept, kept)]
    assert np.abs((baker_corners(N) - exact).astype(complex)).max() < bound


def test_baker_transports_coherent_state():
    """Semiclassical sanity: U_N maps a packet at x to a squeezed packet at
    the classical image of x. The overlap with a round packet there is the
    Gaussian overlap of widths sigma and 3 sigma, sqrt(2*3/(1+9)) =
    sqrt(3/5), up to O(1/N) corrections."""
    from torus_reference import TorusPoint, baker_forward, coherent_vector

    N = 243
    x = TorusPoint(0.11, 0.71)
    v = baker_unitary(N) @ coherent_vector(x, N)
    w = coherent_vector(baker_forward(x), N)
    assert abs(np.vdot(w, v)) == pytest.approx(np.sqrt(0.6), abs=0.01)


def test_projector_exact_and_unresolved():
    pi0 = escape_projector(0, 9)
    assert np.flatnonzero(pi0).tolist() == [3, 4, 5]
    assert pi0.sum() == 3
    with pytest.raises(ValueError, match="not aligned with the 1/9 grid"):
        escape_projector(2, 9)  # needs N divisible by 27


def test_projector_matrix_and_apply():
    pi = escape_projector(1, 27)
    assert np.flatnonzero(pi).tolist() == [3, 4, 5, 21, 22, 23]
    assert pi.dtype == float and set(np.unique(pi)) == {0.0, 1.0}
    assert not pi.flags.writeable
    v = np.arange(27, dtype=complex)
    assert np.allclose(pi * v, np.diag(pi) @ v)
    assert np.array_equal(np.diag(pi) @ np.diag(pi), np.diag(pi))


@pytest.mark.parametrize("m,N", [(0, 9), (1, 27), (2, 81), (3, 243)])
def test_escape_projector_rank(m, N):
    # rank / N equals the region area (1/3)(2/3)^m exactly
    pi = escape_projector(m, N)
    assert pi.sum() * 3 ** (m + 1) == N * 2**m


def test_open_propagator_structure():
    N = 27
    U = baker_unitary(N)
    Ut = open_propagator(N)
    assert np.allclose(Ut[:, :9], U[:, :9])
    assert np.all(Ut[:, 9:18] == 0)
    assert np.allclose(Ut[:, 18:], U[:, 18:])
    # equivalent form U (I - pi_0)
    pi0 = np.diag(escape_projector(0, N))
    assert np.allclose(Ut, U @ (np.eye(N) - pi0), atol=1e-14)


def test_exact_subunitarity_identity():
    """U~^dag U~ = I - pi_0 holds to round-off; this is what makes the
    opening weight of each eigenstate exactly 1 - |z|^2."""
    for N in (9, 27, 81):
        Ut = open_propagator(N)
        pi0 = np.diag(escape_projector(0, N))
        err = np.linalg.norm(Ut.conj().T @ Ut - (np.eye(N) - pi0))
        assert err < 1e-12


def test_parity_sector_basis():
    for N in (9, 27):
        Be = parity_sector_basis(N, "even")
        Bo = parity_sector_basis(N, "odd")
        assert Be.shape == (N, (N + 1) // 2)
        assert Bo.shape == (N, N // 2)
        assert np.allclose(Be.T @ Be, np.eye(Be.shape[1]), atol=1e-14)
        assert np.allclose(Bo.T @ Bo, np.eye(Bo.shape[1]), atol=1e-14)
        assert np.allclose(Be.T @ Bo, 0, atol=1e-14)
        P = parity_matrix(N)
        assert np.allclose(P @ Be, Be, atol=1e-14)
        assert np.allclose(P @ Bo, -Bo, atol=1e-14)
    with pytest.raises(ValueError):
        parity_sector_basis(9, "sideways")


def test_sector_block_decomposes_spectrum():
    """The sector blocks carve the open spectrum into two disjoint halves."""
    N = 27
    Ut = open_propagator(N)
    Ae, _ = sector_block(Ut, "even")
    Ao, _ = sector_block(Ut, "odd")
    full = np.sort_complex(np.linalg.eigvals(Ut))
    both = np.sort_complex(np.concatenate(
        [np.linalg.eigvals(Ae), np.linalg.eigvals(Ao)]))
    assert np.allclose(full, both, atol=1e-10)


def test_sector_block_eigvec_lifts():
    N = 27
    Ut = open_propagator(N)
    A, B = sector_block(Ut, "even")
    w, V = np.linalg.eig(A)
    i = int(np.argmax(np.abs(w)))
    v = B @ V[:, i]
    assert np.linalg.norm(Ut @ v - w[i] * v) < 1e-10
