"""Husimi and Wigner distributions of coherent states, and density diagnostics.

Conventions: position grid q_n = (n+1/2)/N, antiperiodic wavefunctions
(psi(q+1) = -psi(q)), Gaussian coherent states of width sigma_q =
1/sqrt(2 pi N). The Wigner function lives on the doubled 2N x 2N grid of
half-integer phase-space points. Every distribution is a plain real array:
densities of length N, Husimi images (G, G), Wigner half grids (N, 2N). The
transforms take the states as the columns of an N x S block: the densities
of S states are an N x S block, their Husimi images an iterator of S images.

Every transform here is an FFT or a GEMM. The antiperiodic DFT is one
length-N FFT of the twiddled state (`quantum.dft_apply`). A Wigner average
over S states reads its N x N position density matrix rho = X X^H / S (one
GEMM) along the wrapped anti-diagonals a + b = j - 1 (mod N), one row of the
grid each, and takes one length-2N inverse FFT per row over a - b.
Husimi images form no coherent vector: each state, extended
antiperiodically over three lattice images, is weighted by the real
Gaussian of each position centre, twiddled and folded mod G (one batched
real GEMM over the G residues), and one length-G FFT over the residues
gives every momentum at once. The packet norms come from a 3 x 3 Gram
matrix of lattice images per centre. Nothing is cached, transients come in
bounded blocks, and the cost is about 3GN + G^2 log G per state, not G^2 N.
"""

from __future__ import annotations

import math

import numpy as np

from .classical import IntervalUnion, cantor_approx
from .quantum import dft_apply

__all__ = [
    "husimi_grids",
    "wigner_grid_average",
    "position_density",
    "momentum_density",
    "unit_sum",
    "average_density",
    "interval_mask",
    "cantor_mass",
    "band_mass",
    "self_similarity_score",
]

# bytes per block of Wigner rows; states per Husimi block, whole BLAS column
# panels (8 real columns hold 4 states), so each image has the bits of one call
_WIGNER_BLOCK_BYTES, _HUSIMI_BLOCK = 1 << 21, 32


def husimi_grids(V: np.ndarray, G: int):
    """G x G Husimi distributions of unit sum, one per column of the N x S
    block V: H[i, j] = |<x_ij | psi>|^2 with |x_ij> the unit-norm coherent
    state at (q0, p0) = ((i+1/2)/G, (j+1/2)/G), i indexing position and j
    momentum: the sum over three lattice images nu of
    (-1)^nu exp(-pi N (q_n - q0 + nu)^2 + 2 pi i N p0 (q_n + nu - q0/2)),
    normalized (the neglected images are O(exp(-2 pi N))).

    No packet is formed. On the antiperiodic extension psi_m of the state
    over its three lattice images, m + N in [0, 3N), the overlap is, up to a
    phase that |.|^2 drops, sum_m g_i(m) psi_m e^{-2 pi i (j+1/2)(m+1/2)/G}
    divided by the packet's norm, with g_i the real Gaussian of position
    centre i. Twiddled by e^{-i pi (m+1/2)/G} and folded mod G, that sum is
    one real GEMM per residue and one length-G FFT over the residues. The
    packet norm comes from the 3 x 3 Gram matrix of the Gaussian's lattice
    images; it depends on j unless G divides N.

    V and G are checked and the Gaussian weights built at the call, which
    returns an iterator over the images in column order: blocks of
    `_HUSIMI_BLOCK` states are made as it is read, so neither the transient
    arrays nor the images held grow with S."""
    if G < 8:
        raise ValueError("G must be >= 8")
    N, S = V.shape
    K = -(-3 * N // G)  # fold length: 3N zero-padded to K G
    m = np.arange(-N, 2 * N)
    twiddle = ((-1.0) ** (m // N) * np.exp(-1j * math.pi * (m + 0.5) / G))[:, None]
    centres = (np.arange(G) + 0.5) / G
    g = np.zeros((G, K * G))
    g[:, :3 * N] = np.exp(-math.pi * N * ((m + 0.5) / N - centres[:, None]) ** 2)
    g_fold = np.ascontiguousarray(g.reshape(G, K, G).transpose(2, 0, 1))
    # packet norm^2 = c^T M c*, c_nu = (-1)^nu e^{2 pi i N p_j nu}, M the images' Gram matrix
    gi = g[:, :3 * N].reshape(G, 3, N)
    nu = np.arange(-1, 2)
    c = (-1.0) ** nu * np.exp(2j * math.pi * N * np.outer(centres, nu))
    norm2 = np.einsum("ja,iab,jb->ji", c, gi @ gi.transpose(0, 2, 1), c.conj()).real[:, :, None]
    return _husimi_images(V, G, K, twiddle, g_fold, norm2)


def _husimi_images(V, G, K, twiddle, g_fold, norm2):
    """The images of `husimi_grids`, one at a time, a block of states apart."""
    N, S = V.shape
    for first in range(0, S, _HUSIMI_BLOCK):
        # every block is whole, the last one padded with zero states whose
        # images are dropped: a partial BLAS panel would move a state's bits
        n = min(_HUSIMI_BLOCK, S - first)
        X = np.zeros((K * G, _HUSIMI_BLOCK), dtype=complex)
        X[:3 * N].reshape(3, N, -1)[:, :, :n] = V[:, first:first + n]
        X[:3 * N] *= twiddle
        # fold: sum_k g[i, kG + r] X[kG + r] for each residue r, the real Gaussian
        # times the complex states as one real GEMM on interleaved (re, im) columns
        folded = np.matmul(g_fold, X.reshape(K, G, -1).transpose(1, 0, 2).view(float))
        H = np.abs(np.fft.fft(folded.view(complex), axis=0)) ** 2 / norm2  # [j, i, state]
        del X, folded  # only H is held while its images are taken
        for j in range(n):
            yield unit_sum(H[:, :, j].T)


def wigner_grid_average(X: np.ndarray) -> np.ndarray:
    """Mean discrete Wigner function of the columns of an N x S block X, from
    displaced-parity phase-point operators, as the upper half, rows j < N,
    of its real 2N x 2N grid W: the lower half is W[j + N] = (-1)^(N+1) W[j].

    W[j, l] sits at (q, p) = (j/(2N), l-dependent momentum); the total over
    the doubled grid is 1 and the marginals reproduce the position and
    momentum densities: rows j = 2n+1 sum to half the density at q_n,
    columns l = (2n - N + 1) mod 2N to half that at p_n.

    The phase-point operator A(j, l) is a signed anti-diagonal in the
    position basis: A(j, 0)[a, b] = (-1)^(j+1+k) where a + b = j - 1 + kN,
    k in {0, 1}, and A(j, l)[a, b] = e^{i pi l (a-b)/N} A(j, 0)[a, b]. So
    with rho = X X^H / S and b = (j - 1 - a) mod N, for j < N
    W[j, l] = Re sum_a rho[b, a] (-1)^(j+1+k) e^{i pi l (a-b)/N} / 4N,
    and a - b lies in (-N, N): each row is one length-2N inverse FFT of a
    row holding N signed entries (for even N two of them share a - b and
    add), taken a block of rows at a time. A(j + N, l) = (-1)^(N+1) A(j, l),
    hence the lower half's rule."""
    N, S = X.shape
    if S == 0:
        raise ValueError("need at least one state")
    M, a = 2 * N, np.arange(N)
    rho = X @ X.conj().T / S
    W = np.empty((N, M))
    step = max(1, _WIGNER_BLOCK_BYTES // (32 * N))
    for j0 in range(0, N, step):
        j = np.arange(j0, min(j0 + step, N))[:, None]
        k = a >= j  # a + b = j - 1 + kN
        Z = np.zeros((len(j), M), dtype=complex)
        np.add.at(Z.reshape(-1), (j - j0) * M + (2 * a - j + 1 - k * N) % M,
                  np.where(k == j % 2, -1.0, 1.0) * rho[(j - 1 - a) % N, a])
        W[j0:j0 + len(j)] = np.fft.ifft(Z, axis=1).real / 2
    return W


def position_density(X: np.ndarray) -> np.ndarray:
    """|X|^2 of an N x S block: one density per column, of unit sum for a
    unit-norm column."""
    return np.abs(X) ** 2


def momentum_density(X: np.ndarray) -> np.ndarray:
    """Squared antiperiodic-DFT amplitudes of an N x S block: one density per
    column, of unit sum for a unit-norm column."""
    return np.abs(dft_apply(X)) ** 2


def unit_sum(values: np.ndarray) -> np.ndarray:
    """`values` divided by their total."""
    total = values.sum()
    if total <= 0:
        raise ValueError("cannot normalize a zero-mass grid")
    return values / total


def average_density(densities) -> np.ndarray:
    """Arithmetic mean of same-shape densities, renormalized to unit sum.
    `densities` is any iterable, read once with one running sum: added in
    order and divided by the count, as `np.mean` of their stack does, so the
    bits are the same while only one density is held at a time."""
    total, count = None, 0
    for d in densities:
        if total is None:
            total = np.array(d, dtype=float, order="C")  # as the stack's mean is
        elif np.shape(d) != total.shape:
            raise ValueError(f"density of shape {np.shape(d)} among {total.shape}")
        else:
            total += d
        count += 1
    if total is None:
        raise ValueError("need at least one density")
    total /= count
    return unit_sum(total)


def interval_mask(support: IntervalUnion, L: int) -> np.ndarray:
    """Boolean mask of the grid cells whose centres (n+1/2)/L lie in `support`:
    for each interval [a, b), the n with a L - 1/2 <= n < b L - 1/2, a slice
    whose ends are found in the endpoints' exact arithmetic."""
    mask = np.zeros(L, dtype=bool)
    for a, b in support.intervals:
        mask[math.ceil((2 * a * L - 1) / 2):math.ceil((2 * b * L - 1) / 2)] = True
    return mask


def cantor_mass(values: np.ndarray, level: int) -> float:
    """Fraction of the total mass lying in the level-`level` Cantor cells."""
    if level < 1:
        raise ValueError("level must be >= 1")
    L = len(values)
    if L % 3**level != 0:
        raise ValueError(f"grid length {L} not divisible by 3^{level}")
    return band_mass(values, cantor_approx(level))


def band_mass(values: np.ndarray, support: IntervalUnion) -> float:
    """Fraction of mass of a 1D density inside an interval union."""
    return float(values[interval_mask(support, len(values))].sum() / values.sum())


def self_similarity_score(values: np.ndarray) -> float:
    """Pearson correlation of the first third of the density against the
    density averaged over blocks of three."""
    vals = np.asarray(values, dtype=float)
    L = len(vals)
    if L % 3 != 0:
        raise ValueError(f"length {L} not divisible by 3")
    sub = vals[: L // 3]
    coarse = vals.reshape(L // 3, 3).mean(axis=1)
    sub = sub / sub.sum()
    coarse = coarse / coarse.sum()
    # accumulation noise leaves a constant input with std ~ 1e-18, so the
    # degeneracy test must be relative, not exact
    if sub.std() < 1e-12 * sub.mean() or coarse.std() < 1e-12 * coarse.mean():
        raise ValueError("zero-variance density")
    return float(np.corrcoef(sub, coarse)[0, 1])

