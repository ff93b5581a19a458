"""Walsh-Fourier quantization of the open baker map.

Replacing the shifted DFT by a tensor product of unshifted 3x3 Fourier
matrices (composed with ternary digit reversal) turns the open baker into a
weighted digit shift (Nonnenmacher & Zworski, Commun. Math. Phys. 269
(2007) 311), built from one digit matrix M = conj(F3) with its middle column
zeroed: row n of U~ is row (n mod 3) N/3 + floor(n/3) of M (x) I_{N/3}, so
U~ applies in O(N), and U~^k = M^(x)k. Hence the singular values of U~^k are
k-fold products of M's column norms (1, 0, 1); range(U~^k) has the
orthonormal basis Q1^(x)k, Q1 = conj(F3)[:, {0, 2}]; range((U~^k)^H) is
spanned by the coordinates whose ternary digits are all 0 or 2 (the Cantor
indices); and U~ is nilpotent on the rest, so its other N - 2^k eigenvalues
are exactly 0 and are reported as such.

The 2^k long-lived pairs come from those two subspaces, not from a dense
eigensolve, whose eigenvectors in the degenerate clusters sit several orders
above round-off. U~ is diagonalized on Q1^(x)k, and the left vectors are the
dual basis among the Cantor coordinates, so <u_i|v_j> = 0 for i != j even
within a cluster, and every left vector is exactly zero off the Cantor
indices, the forward trapped set. The escape-region weights
(`escape_weights`) obey |z|^(2m) (1 - |z|^2) to round-off. No N x N matrix is formed:
the residuals are taken through one O(N) action, of U~ or of its adjoint.
The eigenpairs stop at k = MAX_K because they hold N x 2^k bases (161 MB
each at k = 9); the counts need only the singular values.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .spectral import Spectrum, eigenpairs, escape_weights

__all__ = [
    "nonzero_count",
    "long_lived_spectrum",
    "walsh_spectrum_report",
]

ZERO_THRESHOLD = 1e-6
MAX_K = 8

_M = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / np.sqrt(3)  # conj(F3)
_M[:, 1] = 0.0


def _apply(V: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """U~ V, or U~^H V when `adjoint`, for a vector or an N x r block, in O(N r)."""
    N = V.shape[0]
    if adjoint:
        X = V.reshape(N // 3, 3, -1).swapaxes(0, 1).reshape(3, -1)
        return (_M.conj().T @ X).reshape(V.shape)
    return (_M @ V.reshape(3, -1)).reshape(3, N // 3, -1).swapaxes(0, 1).reshape(V.shape)


def _singular_values(k: int) -> list:
    """Distinct singular values of U~^k = M^(x)k with their multiplicities:
    the k-fold products of M's column norms."""
    s = np.linalg.norm(_M, axis=0)
    return [(s[0] ** a * s[1] ** b * s[2] ** (k - a - b), math.comb(k, a) * math.comb(k - a, b))
            for a in range(k + 1) for b in range(k + 1 - a)]


def _trapped_bases(k: int) -> tuple:
    """Orthonormal basis Q of range(U~^k), and the Cantor indices, whose
    coordinate vectors span range((U~^k)^H)."""
    Q = reduce(np.kron, [_M[:, ::2]] * k)
    return Q, np.flatnonzero(reduce(np.kron, [[1, 0, 1]] * k))


def nonzero_count(k: int) -> int:
    """Number of nonzero eigenvalues of the open Walsh baker, via the
    numerical rank of U~^k above ZERO_THRESHOLD (the nilpotent part dies
    after k steps)."""
    return sum(m for s, m in _singular_values(k) if s > ZERO_THRESHOLD)


def long_lived_spectrum(k: int) -> Spectrum:
    """The 2^k long-lived pairs, from the invariant subspaces.

    The eigenpairs (z, w) of the small matrix Q^H U~ Q give the right vectors
    V = Q w; the left vectors are the dual basis U = P (P^H V)^-H inside the
    span P of the Cantor coordinates, so U^H V = I before normalization and
    U is zero off the Cantor indices. Both are lifted a panel at a time, from
    w and (when first read) from the 2^k x 2^k dual (P^H V)^-H, so no N x 2^k
    V or U is held beside the spectrum's own columns. The rest are exactly 0.
    """
    if not 2 <= k <= MAX_K:
        raise ValueError(f"Walsh eigenpairs need 2 <= n_exp <= {MAX_K}: "
                         "they hold N x 2^n_exp bases (161 MB each at n_exp 9)")
    Q, cantor = _trapped_bases(k)
    UQ = _apply(Q)  # before Q^H is made: three N x 2^k arrays at most, not four
    z, w = np.linalg.eig(Q.conj().T @ UQ)
    del UQ
    dual = np.linalg.inv(Q[cantor] @ w).conj().T

    def left(cols):  # kept by the spectrum until its L is read: Q is not
        U = np.zeros((3**k, len(z[cols])), dtype=complex)
        U[cantor] = dual[:, cols]
        return U

    return eigenpairs(3**k, [(z, lambda cols: Q @ w[:, cols], left)], _apply)


def walsh_spectrum_report(k: int) -> dict:
    """Per-eigenvalue table as columns: modulus, short/long flag, kernel
    dimension and the worst weight-formula residual over the resolvable
    depths. The N - 2^k kernel rows have z = 0 exactly."""
    s = long_lived_spectrum(k)
    N, r = s.N, len(s.z)
    measured, predicted = escape_weights(s, min(4, k - 1))
    z = np.pad(s.z, (0, N - r))
    return {"index": np.arange(N), "re_z": z.real, "im_z": z.imag, "modulus": np.abs(z),
            "long_lived": np.arange(N) < r, "kernel_dim": np.full(N, N - r),
            "max_weight_residual": np.pad(np.abs(measured - predicted).max(axis=1), (0, N - r))}
