"""Quantization of the triadic baker map and its opened version.

The Hilbert space has dimension N (effective hbar = 1/(2 pi N)); position
grid points sit at q_n = (n + 1/2)/N, matching the half-integer offsets of
the antiperiodic discrete Fourier transform. A projector onto a vertical
strip is diagonal in this basis and is held as its 0/1 diagonal.
"""

from __future__ import annotations

import numpy as np

from .classical import Axis, StripRegion, region_R_plus

__all__ = [
    "UnresolvedRegionError",
    "dft_matrix",
    "baker_form",
    "opened",
    "baker_unitary",
    "projector_for_region",
    "escape_projector",
    "open_propagator",
]


class UnresolvedRegionError(ValueError):
    """The grid is too coarse to represent a region exactly."""


def dft_matrix(N: int) -> np.ndarray:
    """Antiperiodic DFT: F[n,m] = exp(-2 pi i (n+1/2)(m+1/2) / N) / sqrt(N)."""
    if N <= 0:
        raise ValueError("N must be positive")
    n = np.arange(N) + 0.5
    return np.exp(-2j * np.pi * np.outer(n, n) / N) / np.sqrt(N)


def baker_form(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Closed baker propagator outer^-1 diag(inner, inner, inner) of a
    quantization with unitary transforms `outer` on N and `inner` on N/3."""
    N, M = outer.shape[0], inner.shape[0]
    D = np.zeros((N, N), dtype=complex)
    for s in range(0, N, M):
        D[s:s + M, s:s + M] = inner
    return outer.conj().T @ D


def opened(U: np.ndarray) -> np.ndarray:
    """U (I - pi_0): a copy of U with the middle third of the columns set to
    zero."""
    N = U.shape[0]
    Ut = U.copy()
    Ut[:, N // 3: 2 * N // 3] = 0.0
    return Ut


def baker_unitary(N: int) -> np.ndarray:
    """Closed baker propagator U_N = F_N^-1 diag(F_{N/3}, F_{N/3}, F_{N/3})."""
    if N % 3 != 0:
        raise ValueError("N must be divisible by 3")
    return baker_form(dft_matrix(N), dft_matrix(N // 3))


def projector_for_region(region: StripRegion, N: int) -> np.ndarray:
    """Read-only 0/1 diagonal (length N, float) of the projector onto the grid
    points (n+1/2)/N lying in a vertical strip.

    Raises UnresolvedRegionError when an interval of the region only
    partially covers some grid cell [n/N, (n+1)/N).
    """
    if region.axis is not Axis.POSITION:
        raise ValueError("only vertical (position) strips quantize to diagonal projectors")
    d = np.zeros(N)
    for a, b in region.support.intervals:
        lo, hi = a * N, b * N
        if lo.denominator != 1 or hi.denominator != 1:
            raise UnresolvedRegionError(
                f"interval [{a},{b}) not aligned with the 1/{N} grid"
            )
        d[int(lo):int(hi)] = 1.0
    d.flags.writeable = False
    return d


def escape_projector(m: int, N: int) -> np.ndarray:
    """pi_m: diagonal of the projector onto the escape region R_+^m (m = 0 is
    the opening pi_0)."""
    return projector_for_region(region_R_plus(m), N)


def open_propagator(N: int) -> np.ndarray:
    """Open propagator U_tilde = U_N (I - pi_0)."""
    return opened(baker_unitary(N))


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
