"""Non-Hermitian eigenpairs with matched left/right vectors, as arrays.

Resonances of the open propagator are eigenvalues inside the unit disk;
the decay rate is Gamma = -ln|z|^2. Left and right eigenvectors are
normalized to unit norm separately (they are not orthogonal to each other).

A `Spectrum` is the read-only arrays (N, z, R, L, res_r, res_l) in one
(-|z|, phase) order, `decay_order`. Every spectrum's columns are normalized
by `unit_columns` and checked by `residuals`, which see the propagator only
through its action on a block of columns, so a map whose matrix is never
formed (the open map by two FFTs per column, the Walsh map in O(N) per
column) is checked the same way as a dense one. `eigenpairs` applies both
to whole blocks (the Walsh trapped subspace); the open map's parity sectors
are lifted from their folded blocks a panel of columns at a time
(`experiments`), with the same two rules on every lift, so to the same bits.

Figures read a spectrum's columns: the `count` longest-lived states are the
first `count` columns of R, a decay-rate bin is a mask on `moduli()`, and
`escape_weights` gives every pair's escape-region weights, measured and
predicted, as two (pairs x depths) arrays, and `spectrum_table` the spectrum
table as columns of numbers, exact zeros included (`io_utils.fmt` renders it).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .quantum import escape_projector

__all__ = [
    "Spectrum",
    "decay_order",
    "eigenpairs",
    "escape_weights",
    "residuals",
    "spectrum_table",
    "unit_columns",
]

_Pair = namedtuple("_Pair", "residual_right residual_left")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenpairs of an operator on C^N, only those computed: eigenvalues z,
    right and left vectors as the columns of R and L (N x len(z)), and the
    residuals res_r = ||A v - z v|| and res_l = ||A^H u - conj(z) u||, all
    read-only. Its other N - len(z) eigenvalues are exact zeros (the open
    map's opening kernel, the Walsh map's nilpotent part); a parity sector's
    operator is zero on the other sector, which counts among its zeros."""

    N: int
    z: np.ndarray
    R: np.ndarray
    L: np.ndarray
    res_r: np.ndarray
    res_l: np.ndarray

    def __post_init__(self):
        for f in fields(self)[1:]:
            getattr(self, f.name).flags.writeable = False

    def moduli(self) -> np.ndarray:
        return np.abs(self.z)

    # Only the benchmark's health check (bench/checks.spectrum_health) reads
    # these; they go with the benchmark change of ROADMAP item 1.
    pairs = property(lambda self: list(map(_Pair, self.res_r.tolist(), self.res_l.tolist())))
    def eigenvalues(self): return self.z
    def right_matrix(self): return self.R
    def left_matrix(self): return self.L


def decay_order(z: np.ndarray) -> np.ndarray:
    """Indices that put z in (-|z|, phase) order, longest-lived first."""
    return np.lexsort((np.angle(z), -np.abs(z)))


def unit_columns(M: np.ndarray) -> None:
    """Divide each column of M, in place, by its norm and then by the unit
    phase of its largest-modulus component, which makes that component real
    positive (a reproducible phase)."""
    M /= np.linalg.norm(M, axis=0)
    top = M[np.argmax(np.abs(M), axis=0), np.arange(M.shape[1])]
    M /= top / np.abs(top)


def residuals(apply, V: np.ndarray, z: np.ndarray) -> np.ndarray:
    """||A v - z v|| for each column v of V and its z, with apply(X) = A X."""
    B = apply(V)
    B -= V * z
    return np.linalg.norm(B, axis=0)


def eigenpairs(z: np.ndarray, V: np.ndarray, U: np.ndarray, apply, apply_h) -> Spectrum:
    """The spectrum of an operator A from eigenvalues z with right (V) and
    left (U) eigenvector columns; `apply(X)` and `apply_h(X)` return A X and
    A^H X for an N x r block X.

    V and U are handed over: in place, their columns are put in (-|z|, phase)
    order and normalized by `unit_columns`; the spectrum then holds them
    read-only. The residuals are reported, not checked; the first buffer is
    freed before the second is made.
    """
    o = decay_order(z)
    z = z[o]
    for M in (V, U):
        np.take(M, o, axis=1, out=M)  # buffered: safe in place
        unit_columns(M)
    return Spectrum(V.shape[0], z, V, U, residuals(apply, V, z), residuals(apply_h, U, z.conj()))


def escape_weights(s: Spectrum, m_max: int) -> tuple:
    """Weights of every right vector on the escape regions R_+^0 ... R_+^m_max,
    as two (pairs x depths) arrays: the measured masses (|R|^2)^T P, where P
    stacks the 0/1 diagonals pi_0 ... pi_m_max, and the semiclassical
    prediction |z|^(2m) (1 - |z|^2)."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    P = np.column_stack([escape_projector(m, s.N) for m in range(m_max + 1)])
    # an einsum: a GEMM sums in another order and moves the tables' last digits
    measured = np.einsum("np,nm->pm", np.abs(s.R) ** 2, P)
    r2 = s.moduli() ** 2
    return measured, np.power.outer(r2, np.arange(m_max + 1)) * (1.0 - r2)[:, None]


def spectrum_table(s: Spectrum) -> dict:
    """The spectrum table as columns of numbers, N rows: one per eigenpair,
    then one per exact zero, with z and the residuals padded by zeros. The
    decay rate -ln|z|^2 of an exact zero, or of a computed z = 0, is inf."""
    z, res_r, res_l = (np.pad(c, (0, s.N - len(s.z))) for c in (s.z, s.res_r, s.res_l))
    mod = np.abs(z)
    with np.errstate(divide="ignore"):
        gamma = -2.0 * np.log(mod)
    return {"index": np.arange(s.N), "re_z": z.real, "im_z": z.imag, "modulus": mod,
            "gamma": gamma, "residual_right": res_r, "residual_left": res_l}
