"""Quantization of the triadic baker map and its opened version.

The Hilbert space has dimension N (effective hbar = 1/(2 pi N)); position
grid points sit at q_n = (n + 1/2)/N, matching the half-integer offsets of
the antiperiodic discrete Fourier transform. A projector onto a vertical
strip, the opening pi_0 or an escape region, is diagonal in this basis: the
open map zeroes the middle third, and `spectral.escape_weights` holds the
escape projectors as 0/1 diagonals.

The closed propagator is U_N = F_N^-1 diag(F_{N/3}, F_{N/3}, F_{N/3}) and
the open one U~ = U_N (I - pi_0). The antiperiodic DFT F_n and F_n^H apply
by one FFT each (`dft_apply`), and `baker_apply` applies U~ or U~^H to a
block of columns as the product of these factors: F_{N/3} over the three
thirds, the middle one zeroed, then F_N^H over the whole. The open spectra
need of U only its restriction to the kept first and last thirds
(`baker_corners`). Everything here runs on NumPy alone. The dense
`baker_unitary` serves the closed-map control.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dft_matrix",
    "dft_apply",
    "baker_unitary",
    "baker_apply",
    "baker_corners",
]


def dft_matrix(N: int) -> np.ndarray:
    """Antiperiodic DFT: F[n,m] = exp(-2 pi i (n+1/2)(m+1/2) / N) / sqrt(N)."""
    if N <= 0:
        raise ValueError("N must be positive")
    return _dft_entries(np.arange(N), np.arange(N), N)


def _dft_entries(rows: np.ndarray, cols: np.ndarray, N: int) -> np.ndarray:
    """The entries F[rows][:, cols] of dft_matrix(N), bit for bit."""
    return np.exp(-2j * np.pi * np.outer(rows + 0.5, cols + 0.5) / N) / np.sqrt(N)


def dft_apply(X: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """F X for F = dft_matrix(n), or F^H X when `adjoint`, for a vector of
    length n or each n x S block of an (..., n, S) array: one FFT of the
    columns twiddled by e^{-i pi m/n}, then the output half-shift in place;
    F^H is the conjugate phases around an inverse FFT."""
    if X.ndim == 1:
        return dft_apply(X[:, None], adjoint)[:, 0]
    n = X.shape[-2]
    a = np.exp(-1j * np.pi * np.arange(n) / n)[:, None]
    b = (np.exp(-1j * np.pi * (2 * np.arange(n) + 1) / (2 * n)) / np.sqrt(n))[:, None]
    if adjoint:
        return np.multiply(Y := np.fft.ifft(X * b.conj(), axis=-2, norm="forward"), a.conj(), out=Y)
    return np.multiply(Y := np.fft.fft(X * a, axis=-2), b, out=Y)


def baker_unitary(N: int) -> np.ndarray:
    """Closed baker propagator U_N = F_N^-1 diag(F_{N/3}, F_{N/3}, F_{N/3}),
    as one product of conj(F_N).T with the dense block diagonal: F_N is
    conjugated in place, so the product has no conjugated copy."""
    if N % 3 != 0:
        raise ValueError("N must be divisible by 3")
    t = N // 3
    F, Ft = dft_matrix(N), dft_matrix(t)
    D = np.zeros((N, N), dtype=complex)
    for s in range(0, N, t):
        D[s:s + t, s:s + t] = Ft
    return np.conj(F, out=F).T @ D


def baker_apply(X: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """U~ X = F_N^-1 diag(F_t, 0, F_t) X, t = N/3, or U~^H X when `adjoint`,
    for an N x r block X or a vector, as two `dft_apply` calls, O(N log N):
    each third is transformed alone, so U~ X reads nothing of X's middle
    third, and U~^H X is exactly 0 on it. A new array; X is not changed."""
    N = X.shape[0]
    if N % 3 != 0:
        raise ValueError("N must be divisible by 3")
    if adjoint:
        Y = dft_apply(dft_apply(X.reshape(N, -1)).reshape(3, N // 3, -1), adjoint=True)
        Y[1] = 0.0
    else:
        Y = dft_apply(X.reshape(3, N // 3, -1))
        Y[1] = 0.0
        Y = dft_apply(Y.reshape(N, -1), adjoint=True)
    return Y.reshape(X.shape)


def baker_corners(N: int) -> np.ndarray:
    """The 2t x 2t restriction of U_N to its kept first and last thirds
    (t = N/3), rows and columns in the order [0, t) then [2t, N). The
    columns of kept third b are F_N^-1 on the kept rows and the columns of
    third b, times F_t: two (2t x t)(t x t) products of `dft_matrix`
    entries, each written into its column block of C. Reversing both axes
    is parity, as for U itself."""
    if N % 3 != 0:
        raise ValueError("N must be divisible by 3")
    t = N // 3
    kept = np.r_[0:t, 2 * t:N]
    Ft = dft_matrix(t)
    C = np.empty((2 * t, 2 * t), dtype=complex, order="F")
    for col, start in ((0, 0), (t, 2 * t)):
        F = _dft_entries(kept, np.arange(start, start + t), N)
        np.matmul(np.conj(F, out=F), Ft, out=C[:, col:col + t])
    return C


def parity_sector_basis(N: int, sector: str) -> np.ndarray:
    """Orthonormal basis (as columns) of the even or odd parity subspace.

    For odd N the even sector has dimension (N+1)/2 and the odd sector
    (N-1)/2."""
    if sector not in ("even", "odd"):
        raise ValueError("sector must be 'even' or 'odd'")
    even = sector == "even"
    half, n = N // 2, np.arange(N // 2)
    B = np.zeros((N, half + N % 2 * even))
    B[n, n], B[N - 1 - n, n] = 1.0 / np.sqrt(2.0), (1.0 if even else -1.0) / np.sqrt(2.0)
    B[half, half:] = 1.0  # the middle index: a column only for odd N, even sector
    return B


def sector_block(U: np.ndarray, sector: str) -> tuple:
    """Restriction of a parity-commuting matrix to one sector.

    Returns (block, basis); eigenvectors of the block lift back to the full
    space as basis @ v."""
    B = parity_sector_basis(U.shape[0], sector)
    return B.T @ U @ B, B
