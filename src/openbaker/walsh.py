"""Walsh-Fourier quantization of the open baker map.

Replacing the shifted DFT by a tensor product of unshifted 3x3 Fourier
matrices (composed with ternary digit reversal) turns the open baker into a
weighted digit shift (Nonnenmacher & Zworski, Commun. Math. Phys. 269
(2007) 311), built from one digit matrix M = conj(F3) with its middle column
zeroed: row n of U~ is row (n mod 3) N/3 + floor(n/3) of M (x) I_{N/3}, so
U~ applies in O(N) by elementwise products, and U~^k = M^(x)k. Hence the
singular values of U~^k are k-fold products of M's column norms (1, 0, 1),
and U~ is nilpotent off range(U~^k) = range(Q1^(x)k), Q1 = M[:, {0, 2}]:
its other N - 2^k eigenvalues are exactly 0 and are reported as such.

The 2^k long-lived pairs come from binary necklaces, with no eigensolve
(Keating, Nonnenmacher, Novaes & Sieber, Nonlinearity 21 (2008) 2591): on
the basis Y^(x)k of range(U~^k), Y = Q1 X with Q1^H M Q1 = X diag(mu) X^-1,
U~ sends the k-bit word j to mu[leading bit of j] times its left rotation.
The left vectors are the dual basis in the span of the Cantor coordinates
(ternary digits all 0 or 2), range((U~^k)^H), in closed form from the right
vectors' coefficients, with no inverse: <u_i|v_j> = 0 for i != j even within
a degenerate cluster, and u vanishes off this forward trapped set. No vector
passes through BLAS, so no bit depends on a panel's width or the thread
count. Cylinder masses, so escape weights, are forms in the coefficients
with per-digit 2 x 2 Gram factors of Y, and need no N-vector. The eigenpairs
stop at k = MAX_K, as their vectors are N x 2^k; the counts do not.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .spectral import Spectrum, decay_order, eigenpairs, predicted_weights

__all__ = ["nonzero_count", "long_lived_spectrum", "long_lived_weights", "walsh_spectrum_report"]

ZERO_THRESHOLD = 1e-6
MAX_K = 8

_M = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / np.sqrt(3)  # conj(F3)
_M[:, 1] = 0.0
# m = M on the digits {0, 2}, solved in closed form: eigenvalues mu (larger first), X = (b, mu - a)
(_a, _b), (_c, _d) = _M[np.ix_([0, 2], [0, 2])]
_MU = (_a + _d) / 2 + np.array([1, -1]) * np.sqrt((_a - _d) ** 2 / 4 + _b * _c)
_Y = _M[:, ::2] @ np.array([[_b, _b], _MU - _a])
# the left lift's digit factor E Y[{0, 2}]^-H, E = I[:, {0, 2}], by the 2 x 2 inverse's closed form
(_p, _q), (_r, _s) = _Y[::2]
_E = np.insert(np.conj([[_s, -_r], [-_q, _p]]) / np.conj(_p * _s - _q * _r), 1, 0.0, axis=0)


def _apply(V: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """U~ V, or U~^H V when `adjoint`, for a vector or an N x r block, in O(N r)
    by elementwise products: M's kept columns on the leading digit, or M^H on
    the last digit as a sum of three products."""
    N = V.shape[0]
    if adjoint:
        X, H = V.reshape(N // 3, 3, -1), _M.conj().T[..., None, None]
        return (H[:, 0] * X[:, 0] + H[:, 1] * X[:, 1] + H[:, 2] * X[:, 2]).reshape(V.shape)
    return _digitwise([_M[:, ::2]], V.reshape(3, N // 3, -1)[::2]).reshape(V.shape)


def _digitwise(factors: list, X: np.ndarray) -> np.ndarray:
    """(factors[0] (x) factors[1] (x) ...) X for two-column factors, the first on
    the leading digit, by elementwise products: no BLAS, so X's width moves no bit."""
    for A in factors:
        X = X.reshape(2, -1, r := X.shape[-1])
        X = (A[:, :1, None] * X[0] + A[:, 1:, None] * X[1]).swapaxes(0, 1).reshape(-1, r)
    return X


def _singular_values(k: int) -> list:
    """Distinct singular values of U~^k = M^(x)k with their multiplicities:
    the k-fold products of M's column norms."""
    s = np.sqrt((np.abs(_M) ** 2).sum(axis=0))
    return [(s[0] ** a * s[1] ** b * s[2] ** (k - a - b), math.comb(k, a) * math.comb(k - a, b))
            for a in range(k + 1) for b in range(k + 1 - a)]


@cache
def _necklace_pairs(k: int) -> tuple:
    """The 2^k long-lived z in decay order and their vectors' coefficients on
    Y^(x)k as the columns of C, read-only. A cycle j_0 -> ... -> j_(p-1) of
    rotations gives p pairs: z^p = prod_i mu[leading bit of j_i], from the
    digit counts (equal cycles, equal bits), c_(j_0) = 1 and c_(j_(i+1)) =
    mu[leading bit of j_i] c_(j_i) / z; these p columns differ by p-th roots
    of unity, so the dual D (D^H C = I) is 1/(p conj c) on the cycle."""
    n, z, C = 2**k, [], np.zeros((2**k, 2**k), complex)
    for j0 in range(n):
        cycle = [j0]
        while (j := (cycle[-1] << 1 | cycle[-1] >> (k - 1)) & (n - 1)) != j0:
            cycle.append(j)
        if j0 == min(cycle):  # each cycle once, from its least word
            p, ones = len(cycle), bin(j0).count("1") * len(cycle) // k
            zc = (_MU[0] ** (p - ones) * _MU[1] ** ones) ** (1 / p) * np.exp(2j * np.pi * np.arange(p) / p)
            steps = [_MU[j >> (k - 1)] / zc for j in cycle[:-1]]
            C[cycle, len(z):len(z) + p] = np.cumprod([np.ones(p), *steps], axis=0)
            z.extend(zc)
    order = decay_order(z := np.array(z))
    z, C = z[order], C[:, order]
    z.flags.writeable = C.flags.writeable = False
    return z, C


def nonzero_count(k: int) -> int:
    """Number of nonzero eigenvalues of the open Walsh baker, via the
    numerical rank of U~^k above ZERO_THRESHOLD (the nilpotent part dies
    after k steps)."""
    return sum(m for s, m in _singular_values(k) if s > ZERO_THRESHOLD)


def long_lived_spectrum(k: int) -> Spectrum:
    """The 2^k long-lived pairs from the necklaces: right vectors V = Y^(x)k C,
    and left ones the dual basis E^(x)k (Y[{0, 2}]^(x)k C)^-H = (E Y[{0, 2}]^-H)^(x)k D,
    E = I[:, {0, 2}], with no inverse, D made from each panel's columns of C; both
    lifted a panel at a time. The rest are 0."""
    if not 2 <= k <= MAX_K:
        raise ValueError(f"Walsh eigenpairs need 2 <= n_exp <= {MAX_K}: "
                         "their vectors are N x 2^n_exp (161 MB at n_exp 9)")
    z, C = _necklace_pairs(k)
    return eigenpairs(3**k, [(z, lambda cols: _digitwise([_Y] * k, C[:, cols]),
                              lambda cols: _digitwise([_E] * k, np.divide(  # the dual D of these columns
                                  1, np.count_nonzero(c := C[:, cols], axis=0) * c.conj(),
                                  out=np.zeros_like(c), where=c != 0)))], _apply)


def long_lived_weights(k: int, m_max: int) -> tuple:
    """`spectral.escape_weights` of `long_lived_spectrum(k)`, with no vector
    lifted: V = Y^(x)k c has mass c^H (G_1 (x) ... (x) G_k) c on the cylinder
    A_1 x ... x A_k, G_j = Y[A_j]^H Y[A_j]; R_+^m takes A_j = {0, 2} for the
    first m digits, {1} for the next and all three for the rest."""
    if not 0 <= m_max < k <= MAX_K:
        raise ValueError(f"Walsh weights need 0 <= m_max < k <= {MAX_K}, not m_max {m_max}, k {k}")
    z, C = _necklace_pairs(k)
    inner, middle, whole = (_Y[A].conj().T @ _Y[A] for A in ([0, 2], [1], slice(None)))
    mass = [np.einsum("ij,ij->j", C.conj(), _digitwise(f, C)).real for f in
            [[inner] * m + [middle] + [whole] * (k - m - 1) for m in range(m_max + 1)] + [[whole] * k]]
    return np.column_stack(mass[:-1]) / mass[-1][:, None], predicted_weights(np.abs(z), m_max)


def walsh_spectrum_report(k: int) -> dict:
    """Per-eigenvalue table as columns: modulus, short/long flag, kernel
    dimension and the worst weight-formula residual over the resolvable
    depths (`long_lived_weights`). The N - 2^k kernel rows have z = 0 exactly."""
    s, (measured, predicted) = long_lived_spectrum(k), long_lived_weights(k, min(4, k - 1))
    N, r = s.N, len(s.z)
    z = np.pad(s.z, (0, N - r))
    return {"index": np.arange(N), "re_z": z.real, "im_z": z.imag, "modulus": np.abs(z),
            "long_lived": np.arange(N) < r, "kernel_dim": np.full(N, N - r),
            "max_weight_residual": np.pad(np.abs(measured - predicted).max(axis=1), (0, N - r))}
