"""Quantization of the triadic baker map and its opened version.

The Hilbert space has dimension N (effective hbar = 1/(2 pi N)); position
grid points sit at q_n = (n + 1/2)/N, matching the half-integer offsets of
the antiperiodic discrete Fourier transform. A projector onto a vertical
strip, the opening pi_0 or an escape region, is diagonal in this basis: the
open map zeroes the middle third, and `spectral.escape_weights` holds the
escape projectors as 0/1 diagonals.

The closed propagator is U_N = F_N^-1 diag(F_{N/3}, F_{N/3}, F_{N/3}) and
the open one U~ = U_N (I - pi_0). `baker_apply` applies U~ or U~^H to a
block of columns by two FFTs, the antiperiodic DFT F_N applies by one
(`dft_apply`), and the open spectra need of U only its restriction to the
kept first and last thirds (`baker_corners`). Everything here runs on
NumPy alone. The dense `baker_unitary` serves the closed-map control.
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


def dft_apply(X: np.ndarray) -> np.ndarray:
    """F X for F = dft_matrix(N) and an N x S block X: one FFT of the columns
    twiddled by e^{-i pi m/N}, then the output half-shift."""
    N = X.shape[0]
    Y = np.fft.fft(X * np.exp(-1j * np.pi * np.arange(N) / N)[:, None], axis=0)
    return Y * (np.exp(-1j * np.pi * (2 * np.arange(N) + 1) / (2 * N)) / np.sqrt(N))[:, None]


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


def _twiddles(N: int) -> tuple:
    """Phases (a, b, c) with U_N X = c * IFFT_N(b * FFT_t(a * X)), t = N/3,
    both FFTs unitary, the length-t one over each third: a[m] (length t),
    then b[bt + k] (length N) joining the output phase of the antiperiodic
    F_t to the input phase of F_N^-1, then c[n]. Each phase is
    exp(i pi j / (2N)) with its integer j reduced mod 4N before rounding;
    U~ X is the same with the middle third of a * X zeroed."""
    t = N // 3
    m, n = np.arange(t), np.arange(N)
    unit = np.exp(0.5j * np.pi * np.arange(4 * N) / N)
    return (unit[-6 * m % (4 * N)],
            unit[(2 * t * (n // t) - 4 * (n % t) - 3) % (4 * N)],
            unit[2 * n + 1])


def baker_apply(X: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """The open propagator U~ X = U_N (I - pi_0) X, or U~^H X = (I - pi_0)
    U_N^H X when `adjoint`, for an N x r block X (or a vector): one
    antiperiodic length-N/3 FFT over the three thirds and one antiperiodic
    length-N FFT per column, O(N log N), with no N x N array. The opening is
    zeroed before the first FFT (after the last for U~^H): U~ X ignores X's
    middle third, and U~^H X is 0 on it. A new array; X is not changed."""
    N = X.shape[0]
    if N % 3 != 0:
        raise ValueError("N must be divisible by 3")
    t = N // 3
    a, b, c = (w[:, None] for w in _twiddles(N))
    if adjoint:
        Y = np.fft.fft(X.reshape(N, -1) * c.conj(), axis=0, norm="ortho")
        Y *= b.conj()
        Y = np.fft.ifft(Y.reshape(3, t, -1), axis=1, norm="ortho")
        Y *= a.conj()
        Y[1] = 0.0
    else:
        Y = X.reshape(3, t, -1) * a
        Y[1] = 0.0
        Y = np.fft.fft(Y, axis=1, norm="ortho").reshape(N, -1)
        Y *= b
        Y = np.fft.ifft(Y, axis=0, norm="ortho")
        Y *= c
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
