"""Dense references for what the package never forms: the open propagator
U~ = U_N (I - pi_0) as an N x N matrix, U_N in extended precision, and the
Wigner average through the whole 2N x 2N density matrix of its half-grid
amplitudes, with the whole grid rebuilt from the package's upper half and
the marginals that read densities back from a Wigner grid.

`baker_unitary` rounds each phase 2 pi (n+1/2)(m+1/2)/N of its transforms
after the product, so its entries are off by up to 2.7e-13 at N = 729.
`extended_unitary` is the fixed point the double-precision routes are
measured against instead.
"""

import numpy as np

from openbaker.quantum import baker_unitary


def opened(U: np.ndarray) -> np.ndarray:
    """U (I - pi_0): a copy of U with the middle third of the columns set to
    zero."""
    N = U.shape[0]
    Ut = U.copy()
    Ut[:, N // 3: 2 * N // 3] = 0.0
    return Ut


def open_propagator(N: int) -> np.ndarray:
    """Open propagator U_tilde = U_N (I - pi_0)."""
    return opened(baker_unitary(N))


def _extended_dft(M: int) -> np.ndarray:
    """Antiperiodic DFT of size M in np.clongdouble. The phase of entry
    (n, m) is pi j / (2M) with the integer j = (2n+1)(2m+1) reduced mod 4M,
    its period, before any rounding."""
    j = np.outer(2 * np.arange(M) + 1, 2 * np.arange(M) + 1) % (4 * M)
    pi = 4 * np.arctan(np.longdouble(1))
    return np.exp(np.clongdouble(-0.5j) * pi * j.astype(np.longdouble) / M) / np.sqrt(np.longdouble(M))


def extended_unitary(N: int) -> np.ndarray:
    """U_N = F_N^-1 diag(F_{N/3}, F_{N/3}, F_{N/3}) in np.clongdouble
    (unitary to 2e-19 at N = 81 on x86-64)."""
    t = N // 3
    FN, Ft = _extended_dft(N), _extended_dft(t)
    return np.hstack([FN[s:s + t].conj().T @ Ft for s in range(0, N, t)])


def wigner_dense(X: np.ndarray) -> np.ndarray:
    """Mean Wigner grid of the columns of X from the whole averaged density
    matrix rho = conj(Y) Y^T / S of the half-grid amplitudes
    Y_s = N^{-1/2} sum_n psi_n exp(-2 pi i (n+1/2)(s/2+1/2)/N), s < 2N, made
    by a dense 2N x N matrix: one GEMM, one signed gather of
    Z[m, s] = +-rho[2m + s, 2N - 2 - 2m + s] with int64 index grids, one FFT
    over m. It shares no code with the package's position-basis route."""
    N, S = X.shape
    s = np.arange(2 * N)
    # phase pi j / (2N) with the integer j = (2n+1)(s+1) reduced mod 4N
    j = np.outer(s + 1, 2 * np.arange(N) + 1) % (4 * N)
    Y = np.exp(-0.5j * np.pi * j / N) / np.sqrt(N) @ X
    rho = np.conj(Y) @ Y.T / S
    m = np.arange(N)[:, None]
    a = 2 * m + s
    b = 2 * (N - 1 - m) + s
    # antiperiodicity: an index wrapped past 2N flips the amplitude's sign
    Z = rho[a % (2 * N), b % (2 * N)]
    Z[(a >= 2 * N) != (b >= 2 * N)] *= -1.0
    phase = np.exp(1j * np.pi * s * (1.0 - 1.0 / N)).reshape(2, N, 1)
    W = (phase * np.fft.fft(Z, axis=0)).real.reshape(2 * N, 2 * N)
    return W / (4.0 * N)


def wigner_full(W: np.ndarray) -> np.ndarray:
    """The whole 2N x 2N Wigner grid from its N x 2N upper half W, as
    `phase_space.wigner_grid_average` returns it: W[j + N] = (-1)^(N+1) W[j]."""
    N = W.shape[0]
    return np.vstack([W, (-1) ** (N + 1) * W])


def wigner_position_marginal(W: np.ndarray) -> np.ndarray:
    """Position density recovered from a Wigner grid (rows j = 2n+1)."""
    N = W.shape[0] // 2
    rows = W.sum(axis=1)
    return 2.0 * rows[2 * np.arange(N) + 1]


def wigner_momentum_marginal(W: np.ndarray) -> np.ndarray:
    """Momentum density recovered from a Wigner grid."""
    N = W.shape[0] // 2
    cols = W.sum(axis=0)
    l = (2 * np.arange(N) - N + 1) % (2 * N)
    return 2.0 * cols[l]
