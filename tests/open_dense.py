"""Dense references for the open propagator, which the package never forms:
U~ = U_N (I - pi_0) as an N x N matrix, and U_N in extended precision.

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
