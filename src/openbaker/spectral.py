"""Dense non-Hermitian eigendecomposition with matched left/right pairs.

Resonances of the open propagator are eigenvalues inside the unit disk;
the decay rate is Gamma = -ln|z|^2. Left and right eigenvectors are
normalized to unit norm separately (they are not orthogonal to each other).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .quantum import DiagonalProjector

__all__ = [
    "ResonanceEigenpair",
    "Spectrum",
    "eigendecompose",
    "select_long_lived",
    "weight",
    "weight_prediction",
    "biorthogonality_matrix",
    "propagation_identity_check",
    "spectrum_csv_rows",
]


@dataclass(frozen=True)
class ResonanceEigenpair:
    z: complex
    right_vec: np.ndarray
    left_vec: np.ndarray
    residual_right: float
    residual_left: float
    matched: bool = True

    @property
    def modulus(self) -> float:
        return abs(self.z)

    @property
    def gamma(self) -> float:
        """Decay rate -ln|z|^2; infinite for an exact kernel state."""
        if abs(self.z) == 0.0:
            return math.inf
        return -2.0 * math.log(abs(self.z))


@dataclass(frozen=True)
class Spectrum:
    N: int
    pairs: tuple

    def moduli(self) -> np.ndarray:
        return np.array([p.modulus for p in self.pairs])

    def eigenvalues(self) -> np.ndarray:
        return np.array([p.z for p in self.pairs])

    def right_matrix(self) -> np.ndarray:
        return np.column_stack([p.right_vec for p in self.pairs])

    def left_matrix(self) -> np.ndarray:
        return np.column_stack([p.left_vec for p in self.pairs])


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Make the largest-modulus component real positive (reproducible sign)."""
    i = int(np.argmax(np.abs(v)))
    ph = v[i] / abs(v[i]) if abs(v[i]) > 0 else 1.0
    return v / ph


def eigendecompose(U_tilde: np.ndarray) -> Spectrum:
    """Full left/right eigendecomposition of a (generally non-normal) matrix.

    scipy's LAPACK driver returns left eigenvectors already matched to the
    right ones (both come from the same Schur form), so no separate
    eigenvalue-matching pass is needed.
    """
    A = np.asarray(U_tilde, dtype=complex)
    n = A.shape[0]
    if A.ndim != 2 or A.shape[1] != n or n < 2:
        raise ValueError("need a square matrix of dimension >= 2")
    w, vl, vr = la.eig(A, left=True, right=True)
    Ah = A.conj().T
    pairs = []
    for i in range(n):
        v = _fix_phase(vr[:, i] / np.linalg.norm(vr[:, i]))
        u = _fix_phase(vl[:, i] / np.linalg.norm(vl[:, i]))
        rr = float(np.linalg.norm(A @ v - w[i] * v))
        rl = float(np.linalg.norm(Ah @ u - np.conj(w[i]) * u))
        pairs.append(ResonanceEigenpair(complex(w[i]), v, u, rr, rl))
    # sort by modulus descending, ties by phase angle ascending
    pairs.sort(key=lambda p: (-p.modulus, cmath.phase(p.z)))
    return Spectrum(n, tuple(pairs))


def select_long_lived(s: Spectrum, count: int):
    """The `count` pairs of largest modulus (spectrum is pre-sorted)."""
    if not 1 <= count <= s.N:
        raise ValueError(f"count must be in [1, {s.N}]")
    return list(s.pairs[:count])


def weight(pair: ResonanceEigenpair, proj: DiagonalProjector, side: str = "right") -> float:
    """Probability mass of one eigenvector on a diagonal projector."""
    vec = pair.right_vec if side == "right" else pair.left_vec
    if len(vec) != proj.dim:
        raise ValueError("projector dimension does not match eigenvector")
    return float((proj.diagonal() * np.abs(vec) ** 2).sum())


def weight_prediction(z: complex, m: int) -> float:
    """Semiclassical weight |z|^(2m) (1 - |z|^2) on the m-th escape region."""
    if m < 0:
        raise ValueError("m must be >= 0")
    r2 = abs(z) ** 2
    return r2**m * (1.0 - r2)


def biorthogonality_matrix(s: Spectrum) -> np.ndarray:
    """Entries |<left_n | right_m>|; off-diagonals vanish for distinct
    eigenvalues, diagonals measure eigenbasis conditioning."""
    return np.abs(s.left_matrix().conj().T @ s.right_matrix())


def propagation_identity_check(s: Spectrum, U_tilde: np.ndarray, m: int) -> float:
    """Max over pairs of || U~^m v - z^m v ||."""
    if m < 0:
        raise ValueError("m must be >= 0")
    A = np.linalg.matrix_power(np.asarray(U_tilde, dtype=complex), m)
    V = s.right_matrix()
    Z = s.eigenvalues() ** m
    return float(np.linalg.norm(A @ V - V * Z[None, :], axis=0).max())


def spectrum_csv_rows(s: Spectrum):
    """Rows for the spectrum CSV: one per eigenpair, 17 significant digits."""
    header = ["index", "re_z", "im_z", "modulus", "gamma",
              "residual_right", "residual_left", "matched_flag"]
    rows = [header]
    for i, p in enumerate(s.pairs):
        g = p.gamma
        rows.append([
            str(i),
            f"{p.z.real:.17g}", f"{p.z.imag:.17g}",
            f"{p.modulus:.17g}",
            "inf" if math.isinf(g) else f"{g:.17g}",
            f"{p.residual_right:.17g}", f"{p.residual_left:.17g}",
            "1" if p.matched else "0",
        ])
    return rows
