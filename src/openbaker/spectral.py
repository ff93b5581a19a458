"""Non-Hermitian eigenpairs with matched left/right vectors.

Resonances of the open propagator are eigenvalues inside the unit disk;
the decay rate is Gamma = -ln|z|^2. Left and right eigenvectors are
normalized to unit norm separately (they are not orthogonal to each other).

Every spectrum is built by one function, `eigenpairs(z, V, U, apply,
apply_h)`, from eigenvalues with right and left eigenvector columns, whether
they come from the folded blocks of the open map or the Walsh trapped
subspace. It sees the propagator only through its action on a block of
columns, `apply(X)` = A X and `apply_h(X)` = A^H X, so a map whose matrix is
never formed (the open map by two FFTs per column, the Walsh map in O(N)
per column) is checked the same way as a dense one. It normalizes the
columns and fixes their phase in place, takes the residuals through those
two actions, marks the columns read-only and sorts the pairs by
(-|z|, phase); the vectors of each pair are views of those columns.

Figures read a spectrum's columns: the `count` longest-lived states are its
first `count` columns, a decay-rate bin is a mask on `moduli()`, and
`escape_weights` gives every pair's escape-region weights, measured and
predicted, as two (pairs x depths) arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantum import escape_projector

__all__ = [
    "ResonanceEigenpair",
    "Spectrum",
    "eigenpairs",
    "escape_weights",
    "spectrum_csv_rows",
]


@dataclass(frozen=True)
class ResonanceEigenpair:
    z: complex
    right_vec: np.ndarray
    left_vec: np.ndarray
    residual_right: float
    residual_left: float

    @property
    def modulus(self) -> float:
        return abs(self.z)

    @property
    def gamma(self) -> float:
        """Decay rate -ln|z|^2; infinite at z = 0, an exact zero."""
        if abs(self.z) == 0.0:
            return math.inf
        return -2.0 * math.log(abs(self.z))


@dataclass(frozen=True)
class Spectrum:
    """Eigenpairs of an operator on C^N in (-|z|, phase) order, only those
    computed: its other N - len(pairs) eigenvalues are exact zeros (the open
    map's opening kernel, the Walsh map's nilpotent part). A parity sector's
    operator is zero on the other sector, which counts among its zeros."""

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


def eigenpairs(z: np.ndarray, V: np.ndarray, U: np.ndarray, apply, apply_h) -> tuple:
    """Eigenpairs of an operator A from eigenvalues z with right (V) and
    left (U) eigenvector columns, sorted by (-|z|, phase); `apply(X)` and
    `apply_h(X)` return A X and A^H X for an N x r block X.

    V and U are normalized in place, each column's largest-modulus component
    is made real positive (a reproducible phase), and both are then marked
    read-only. The residuals ||A v - z v|| and ||A^H u - conj(z) u|| are
    reported, not checked; the first buffer is freed before the second is
    made.
    """
    for M in (V, U):
        M /= np.linalg.norm(M, axis=0)
        top = M[np.argmax(np.abs(M), axis=0), np.arange(M.shape[1])]
        M /= top / np.abs(top)
        M.flags.writeable = False
    R = apply(V)
    R -= V * z
    res_r = np.linalg.norm(R, axis=0)
    del R
    R = apply_h(U)
    R -= U * z.conj()
    res_l = np.linalg.norm(R, axis=0)
    order = np.lexsort((np.angle(z), -np.abs(z)))
    return tuple(ResonanceEigenpair(complex(z[i]), V[:, i], U[:, i],
                                    float(res_r[i]), float(res_l[i])) for i in order)


def escape_weights(s: Spectrum, m_max: int) -> tuple:
    """Weights of every right vector on the escape regions R_+^0 ... R_+^m_max,
    as two (pairs x depths) arrays: the measured masses (|R|^2)^T P, where P
    stacks the 0/1 diagonals pi_0 ... pi_m_max, and the semiclassical
    prediction |z|^(2m) (1 - |z|^2)."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    P = np.column_stack([escape_projector(m, s.N) for m in range(m_max + 1)])
    # an einsum, not a BLAS product: NumPy's OpenBLAS threads would spin
    # through the LAPACK call that follows and halve its speed
    measured = np.einsum("np,nm->pm", np.abs(s.right_matrix()) ** 2, P)
    r2 = s.moduli() ** 2
    return measured, np.power.outer(r2, np.arange(m_max + 1)) * (1.0 - r2)[:, None]


def spectrum_csv_rows(s: Spectrum):
    """Rows for the spectrum CSV, 17 significant digits: one per eigenpair,
    then `i,0,0,0,inf,0,0` for each exact zero, so that the table has N rows."""
    header = ["index", "re_z", "im_z", "modulus", "gamma",
              "residual_right", "residual_left"]
    rows = [header]
    for i, p in enumerate(s.pairs):
        rows.append([
            str(i),
            f"{p.z.real:.17g}", f"{p.z.imag:.17g}",
            f"{p.modulus:.17g}", f"{p.gamma:.17g}",
            f"{p.residual_right:.17g}", f"{p.residual_left:.17g}",
        ])
    rows += [[str(i), "0", "0", "0", "inf", "0", "0"] for i in range(len(s.pairs), s.N)]
    return rows
