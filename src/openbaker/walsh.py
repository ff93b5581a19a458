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

Digit-order convention: the digit-reversal permutation is applied to the
rows of the tensor-product transform, at every dimension (outer and inner
blocks alike). The convention without reversal was tried and rejected: it
breaks the shift structure (weight residuals at the 1e-1 scale and 54
instead of 16 nonzero eigenvalues at k = 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (
    ResonanceEigenpair,
    Spectrum,
    _fix_phase,
    eigendecompose,
    weight,
    weight_prediction,
)
from .quantum import escape_projector

__all__ = [
    "WalshConfig",
    "walsh_transform",
    "walsh_open_baker",
    "nonzero_count",
    "long_lived_spectrum",
    "walsh_spectrum_report",
]

ZERO_THRESHOLD = 1e-10


@dataclass(frozen=True)
class WalshConfig:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def N(self) -> int:
        return 3**self.k


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
    N = 3**k
    W = walsh_transform(k)
    Wi = walsh_transform(k - 1)
    D = np.zeros((N, N), dtype=complex)
    for b in range(3):
        s = b * (N // 3)
        D[s:s + N // 3, s:s + N // 3] = Wi
    Ut = W.conj().T @ D
    Ut[:, N // 3: 2 * N // 3] = 0.0
    return Ut


@lru_cache(maxsize=8)
def nonzero_count(k: int, threshold: float = ZERO_THRESHOLD) -> int:
    """Number of nonzero eigenvalues of the open Walsh baker, via the
    numerical rank of U~^k (the nilpotent part dies after k steps)."""
    Ut = walsh_open_baker(k)
    sv = np.linalg.svd(np.linalg.matrix_power(Ut, k), compute_uv=False)
    return int((sv > threshold).sum())


def long_lived_spectrum(k: int) -> Spectrum:
    """Spectrum whose 2^k long-lived pairs come from the invariant subspaces.

    One SVD of U~^k gives orthonormal bases Q of range(U~^k) and P of
    range((U~^k)^H). The eigenpairs (z, w) of the small matrix Q^H U~ Q give the
    right vectors V = Q w; the left vectors are the dual basis
    U = P (P^H V)^-H inside range(P), so U^H V = I before normalization.
    The N - 2^k kernel pairs follow, taken from the dense eigendecomposition.
    """
    Ut = walsh_open_baker(k)
    X, sv, Yh = np.linalg.svd(np.linalg.matrix_power(Ut, k))
    r = int((sv > ZERO_THRESHOLD).sum())
    Q, P = X[:, :r].copy(), Yh[:r].conj().T
    del X, Yh
    z, w = np.linalg.eig(Q.conj().T @ Ut @ Q)
    V = Q @ w
    U = P @ np.linalg.inv(P.conj().T @ V).conj().T
    V = np.column_stack([_fix_phase(v / np.linalg.norm(v)) for v in V.T])
    U = np.column_stack([_fix_phase(u / np.linalg.norm(u)) for u in U.T])
    res_r = np.linalg.norm(Ut @ V - V * z, axis=0)
    res_l = np.linalg.norm(Ut.conj().T @ U - U * z.conj(), axis=0)
    order = np.lexsort((np.angle(z), -np.abs(z)))
    pairs = tuple(ResonanceEigenpair(complex(z[i]), V[:, i], U[:, i],
                                     float(res_r[i]), float(res_l[i])) for i in order)
    return Spectrum(Ut.shape[0], pairs + eigendecompose(Ut).pairs[r:])


def walsh_spectrum_report(k: int):
    """Per-eigenvalue table: modulus, short/long flag, kernel dimension and
    the worst weight-formula residual over the resolvable depths."""
    if k < 2:
        raise ValueError("k must be >= 2")
    N = 3**k
    s = long_lived_spectrum(k)
    r = nonzero_count(k)
    projs = [escape_projector(m, N) for m in range(min(5, k))]
    rows = []
    for i, p in enumerate(s.pairs):
        long_lived = i < r
        res = 0.0
        if long_lived:
            res = max(
                abs(weight(p, proj) - weight_prediction(p.z, m))
                for m, proj in enumerate(projs)
            )
        rows.append({
            "index": i,
            "re_z": p.z.real,
            "im_z": p.z.imag,
            "modulus": p.modulus,
            "long_lived": long_lived,
            "kernel_dim": N - r,
            "max_weight_residual": res,
        })
    return rows
