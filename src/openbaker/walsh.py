"""Walsh-Fourier quantization of the open baker map.

Replacing the shifted DFT by a tensor product of unshifted 3x3 Fourier
matrices (composed with ternary digit reversal) turns the open baker into a
weighted digit shift. U~^k then kills everything outside a 2^k-dimensional
invariant subspace: range(U~^k) carries the 2^k nonzero eigenvalues
(counted with multiplicity) and their right eigenvectors, range((U~^k)^H)
their left ones, and U~ is nilpotent on the rest. The escape-region weights of
the long-lived states obey weight(m) = |z|^(2m) (1 - |z|^2) to round-off,
with no semiclassical error term.

The long-lived pairs are built from those two subspaces rather than from a
dense eigensolve, whose eigenvectors in the degenerate clusters sit several
orders above round-off: U~ is diagonalized on an orthonormal basis Q of
range(U~^k), and the left vectors are the dual basis inside
range((U~^k)^H), so <u_i|v_j> = 0 for i != j even within a degenerate cluster.
The other N - 2^k eigenvalues are exactly 0 (U~ is nilpotent off range(U~^k));
they are reported as such, not as the round-off fragments a dense eigensolve
scatters them into.

Digit-order convention: the digit-reversal permutation is applied to the
rows of the tensor-product transform, at every dimension (outer and inner
blocks alike). The convention without reversal was tried and rejected: it
breaks the shift structure (weight residuals at the 1e-1 scale and 54
instead of 16 nonzero eigenvalues at k = 4).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .spectral import Spectrum, eigenpairs, weight, weight_prediction
from .quantum import baker_form, escape_projector, opened

__all__ = [
    "walsh_transform",
    "walsh_open_baker",
    "nonzero_count",
    "long_lived_spectrum",
    "walsh_spectrum_report",
]

ZERO_THRESHOLD = 1e-6


def _digit_reversal(k: int) -> np.ndarray:
    """Permutation sending index with ternary digits (d0..d{k-1}) to the
    index with digits reversed."""
    idx = np.arange(3**k)
    out = np.zeros_like(idx)
    for _ in range(k):
        out = out * 3 + idx % 3
        idx //= 3
    return out


@lru_cache(maxsize=8)
def walsh_transform(k: int) -> np.ndarray:
    """Walsh-Fourier transform on N = 3^k: digit reversal composed with a
    k-fold tensor power of the unshifted 3x3 DFT."""
    if k < 1:
        raise ValueError("k must be >= 1")
    F3 = np.exp(-2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / np.sqrt(3)
    W = F3
    for _ in range(k - 1):
        W = np.kron(W, F3)
    return W[_digit_reversal(k), :]


def walsh_open_baker(k: int) -> np.ndarray:
    """Open Walsh baker: W_N^-1 diag(W_{N/3} x3) with the middle third of
    the columns zeroed."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return opened(baker_form(walsh_transform(k), walsh_transform(k - 1)))


@lru_cache(maxsize=8)
def _trapped_bases(k: int) -> tuple:
    """One SVD of U~^k: its singular values, with orthonormal bases Q of
    range(U~^k) and P of range((U~^k)^H), all read-only. Only the N x 2^k
    bases are kept, not the full N x N singular-vector matrices."""
    X, sv, Yh = np.linalg.svd(np.linalg.matrix_power(walsh_open_baker(k), k))
    r = int((sv > ZERO_THRESHOLD).sum())
    Q, P = X[:, :r].copy(), Yh[:r].conj().T
    for a in (sv, Q, P):
        a.flags.writeable = False
    return sv, Q, P


def nonzero_count(k: int, threshold: float = ZERO_THRESHOLD) -> int:
    """Number of nonzero eigenvalues of the open Walsh baker, via the
    numerical rank of U~^k (the nilpotent part dies after k steps)."""
    return int((_trapped_bases(k)[0] > threshold).sum())


def long_lived_spectrum(k: int) -> Spectrum:
    """The 2^k long-lived pairs, from the invariant subspaces.

    The eigenpairs (z, w) of the small matrix Q^H U~ Q, with Q and P the
    bases of `_trapped_bases`, give the right vectors V = Q w; the left
    vectors are the dual basis U = P (P^H V)^-H inside range(P), so
    U^H V = I before normalization. The remaining eigenvalues are exactly 0.
    """
    _, Q, P = _trapped_bases(k)
    Ut = walsh_open_baker(k)
    z, w = np.linalg.eig(Q.conj().T @ Ut @ Q)
    V = Q @ w
    U = P @ np.linalg.inv(P.conj().T @ V).conj().T
    return Spectrum(Ut.shape[0], eigenpairs(Ut, z, V, U))


def walsh_spectrum_report(k: int):
    """Per-eigenvalue table: modulus, short/long flag, kernel dimension and
    the worst weight-formula residual over the resolvable depths. The
    N - 2^k kernel rows have z = 0 exactly."""
    if k < 2:
        raise ValueError("k must be >= 2")
    N = 3**k
    pairs = long_lived_spectrum(k).pairs
    r = len(pairs)
    projs = [escape_projector(m, N) for m in range(min(5, k))]
    z = [p.z for p in pairs] + [0j] * (N - r)
    res = [max(abs(weight(p, proj) - weight_prediction(p.z, m)) for m, proj in enumerate(projs))
           for p in pairs] + [0.0] * (N - r)
    return [{"index": i, "re_z": z[i].real, "im_z": z[i].imag, "modulus": abs(z[i]),
             "long_lived": i < r, "kernel_dim": N - r, "max_weight_residual": res[i]}
            for i in range(N)]
