"""Dense reference for the Walsh quantization, the cross-check at k <= 6.

This is the generic route the structured `openbaker.walsh` replaces: the
Walsh-Fourier transform as a dense N x N matrix, the open propagator through
the generic `baker_form`, which with the antiperiodic DFTs gives
`openbaker.quantum.baker_unitary` to the bit, opened as in `open_dense.py`,
and one full SVD of its k-th matrix power.

It also keeps the subspace route that `openbaker.walsh.long_lived_spectrum`
replaced with the necklace closed form, as that one's reference at k <= 8:
the eigensolve of the 2^k x 2^k block Q^H U~ Q on the tensor-product basis
Q of range(U~^k), with the left vectors the dual basis among the Cantor
coordinates, made by inverting a 2^k x 2^k matrix (`dual_basis`), which the
closed form's left vectors are checked against.

Digit-order convention: the digit-reversal permutation is applied to the
rows of the tensor-product transform, at every dimension (outer and inner
blocks alike). The convention without reversal was tried and rejected: it
breaks the shift structure (weight residuals at the 1e-1 scale and 54
instead of 16 nonzero eigenvalues at k = 4).
"""

from functools import reduce

import numpy as np

from openbaker.spectral import Spectrum, eigenpairs
from openbaker.walsh import MAX_K, ZERO_THRESHOLD, _M, _apply
from open_dense import opened


def baker_form(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Closed baker propagator outer^-1 diag(inner, inner, inner) of a
    quantization with unitary transforms `outer` on N and `inner` on N/3,
    as one product of conj(outer).T with the dense block diagonal."""
    N, M = outer.shape[0], inner.shape[0]
    D = np.zeros((N, N), dtype=complex)
    for s in range(0, N, M):
        D[s:s + M, s:s + M] = inner
    return outer.conj().T @ D


def digit_reversal(k: int) -> np.ndarray:
    """Permutation sending index with ternary digits (d0..d{k-1}) to the
    index with digits reversed."""
    idx = np.arange(3**k)
    out = np.zeros_like(idx)
    for _ in range(k):
        out = out * 3 + idx % 3
        idx //= 3
    return out


def walsh_transform(k: int) -> np.ndarray:
    """Walsh-Fourier transform on N = 3^k: digit reversal composed with a
    k-fold tensor power of the unshifted 3x3 DFT."""
    if k < 1:
        raise ValueError("k must be >= 1")
    F3 = np.exp(-2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / np.sqrt(3)
    W = F3
    for _ in range(k - 1):
        W = np.kron(W, F3)
    return W[digit_reversal(k), :]


def walsh_open_baker(k: int) -> np.ndarray:
    """Open Walsh baker: W_N^-1 diag(W_{N/3} x3) with the middle third of
    the columns zeroed."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return opened(baker_form(walsh_transform(k), walsh_transform(k - 1)))


def trapped_svd(k: int) -> tuple:
    """One SVD of U~^k: its singular values, with orthonormal bases Q of
    range(U~^k) and P of range((U~^k)^H)."""
    X, sv, Yh = np.linalg.svd(np.linalg.matrix_power(walsh_open_baker(k), k))
    r = int((sv > ZERO_THRESHOLD).sum())
    return sv, X[:, :r], Yh[:r].conj().T


def trapped_bases(k: int) -> tuple:
    """Orthonormal basis Q = Q1^(x)k of range(U~^k), Q1 = M[:, {0, 2}], and
    the Cantor indices, whose coordinate vectors span range((U~^k)^H)."""
    Q = reduce(np.kron, [_M[:, ::2]] * k)
    return Q, np.flatnonzero(reduce(np.kron, [[1, 0, 1]] * k))


def dual_basis(V: np.ndarray, cantor: np.ndarray) -> np.ndarray:
    """The dual basis of the 2^k columns of V inside the span P of the Cantor
    coordinates, U = P (P^H V)^-H, by one inverse: U^H V = I, and U is zero
    off the Cantor indices."""
    U = np.zeros(V.shape, dtype=complex)
    U[cantor] = np.linalg.inv(V[cantor]).conj().T
    return U


def subspace_spectrum(k: int) -> Spectrum:
    """The 2^k long-lived pairs from the invariant subspaces: the eigenpairs
    (z, w) of Q^H U~ Q give the right vectors V = Q w, and the left vectors
    are their `dual_basis`."""
    assert 2 <= k <= MAX_K
    Q, cantor = trapped_bases(k)
    z, w = np.linalg.eig(Q.conj().T @ _apply(Q))
    V = Q @ w
    U = dual_basis(V, cantor)
    return eigenpairs(3**k, [(z, lambda cols: V[:, cols], lambda cols: U[:, cols])], _apply)
