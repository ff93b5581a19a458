"""Non-Hermitian eigenpairs with matched left/right vectors, as arrays.

Resonances of the open propagator are eigenvalues inside the unit disk;
the decay rate is Gamma = -ln|z|^2. Left and right eigenvectors are
normalized to unit norm separately (they are not orthogonal to each other).

A `Spectrum` is read-only arrays in one (-|z|, phase) order, `decay_order`:
z, made when it is built, R on its first read, and L, res_r and res_l on
the first read of any, with no R. `eigenpairs` is the one code that builds
it: from blocks, each its eigenvalues and lifts to their right and left
vectors, it lifts, normalizes and places a panel of columns at a time,
taking each panel's residual on its own lift. It sees the propagator only
through one action on a block of columns, `apply(X)` or
`apply(X, adjoint=True)`, so a map whose matrix is never formed (the open
map by two FFTs per column, the Walsh map in O(N) per column) is checked
the same way as a dense one.

Figures read a spectrum's columns: the `count` longest-lived states are
`leading(count)`, lifted alone until R is made, a decay-rate bin is a mask
on `moduli()`, and `escape_weights` gives every pair's escape-region
weights, measured on the grid cells whose centres lie in each region
(`phase_space.interval_mask`, on a grid that resolves the regions) and
predicted, as two (pairs x depths) arrays, and `spectrum_table` the
spectrum table as columns of numbers, exact zeros included.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .classical import region_R_plus
from .phase_space import interval_mask

__all__ = [
    "Spectrum",
    "decay_order",
    "eigenpairs",
    "escape_weights",
    "predicted_weights",
    "residuals",
    "spectrum_table",
]

_Pair = namedtuple("_Pair", "residual_right residual_left")

# Columns lifted at a time: a lift holds a few N x _PANEL temporaries
_PANEL = 32


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenpairs of an operator on C^N, only those computed: eigenvalues z,
    right and left vectors as the columns of R and L (N x len(z)), and the
    residuals res_r = ||A v - z v|| and res_l = ||A^H u - conj(z) u||, all
    read-only, R made by `lift` on its first read and the rest by `fill` on
    the first read of any. Its other N - len(z) eigenvalues are exact zeros
    (the opening kernel, the Walsh nilpotent part, a parity sector's other)."""

    N: int
    z: np.ndarray
    lift: Callable  # k -> the first k columns of R, lifted alone
    fill: Callable  # () -> (L, res_r, res_l), with no R

    def __post_init__(self):
        self.z.flags.writeable = False

    R = cached_property(lambda self: self.lift(len(self.z)))

    def leading(self, k: int) -> np.ndarray:
        """R[:, :k]: a view of R once it is made, else only these columns lifted."""
        return self.R[:, :k] if "R" in vars(self) else self.lift(k)

    @cached_property
    def _filled(self) -> tuple:
        for a in (arrays := self.fill()):
            a.flags.writeable = False
        return arrays

    L, res_r, res_l = (property(lambda self, i=i: self._filled[i]) for i in range(3))

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


def residuals(apply, V: np.ndarray, z: np.ndarray) -> np.ndarray:
    """||A v - z v|| for each column v of V and its z, with apply(X) = A X,
    each summed alone on an F-ordered difference."""
    B = np.asfortranarray(apply(V))
    B -= V * z
    return np.linalg.norm(B, axis=0)


def _unit(M: np.ndarray) -> np.ndarray:
    """M as an F-ordered array (a copy unless it is one), each column divided
    by its norm, summed alone, then by the unit phase of its first entry
    within a relative 1e-12 of its largest modulus (made real positive: a
    phase that entries equal to round-off, as parity images, do not flip)."""
    M = np.asfortranarray(M)
    M /= np.linalg.norm(M, axis=0)
    top = M[np.argmax((a := np.abs(M)) >= a.max(0) * (1 - 1e-12), axis=0), np.arange(M.shape[1])]
    M /= top / np.abs(top)
    return M


def eigenpairs(N: int, blocks, apply) -> Spectrum:
    """The spectrum of an operator A on C^N from the eigenpairs of its blocks;
    `apply(X)` and `apply(X, adjoint=True)` return A X and A^H X for N x r X.

    Each block is (z, right, left): its eigenvalues in any order, and
    `right(cols)` and `left(cols)`, which return the right and the left
    vectors of z[cols], not yet normalized, handed over. All pairs go in one
    (-|z|, phase) order. `lift(k)` lifts the pairs placed below k, and
    `fill` L and both residuals, each block's columns in panels of `_PANEL`
    (the last one shorter), each made `_unit` straight into its final columns.
    Every norm sums one column alone, so lifts and actions that compute each
    column alone (FFTs, elementwise products: the open and Walsh maps') give
    R[:, :k], L and the residuals bitwise at any panel width. `fill` lifts
    each right panel anew for its residual, freeing it before the left one;
    residuals are reported only.
    """
    z = np.concatenate([b[0] for b in blocks])
    order = decay_order(z)
    places = np.split(np.argsort(order), np.cumsum([len(b[0]) for b in blocks])[:-1])  # by block

    def panels(k: int):  # each panel's block, columns and places, for the pairs below k
        for i, at in enumerate(places):
            cols = np.flatnonzero(at < k)
            yield from ((i, c, at[c]) for c in (cols[p:p + _PANEL] for p in range(0, len(cols), _PANEL)))

    def lift(k: int) -> np.ndarray:
        R = np.empty((N, min(k, len(z))), dtype=complex, order="F")  # one contiguous write per column
        for i, cols, dest in panels(k):
            R[:, dest] = _unit(blocks[i][1](cols))
        R.flags.writeable = False
        return R

    def fill() -> tuple:
        L, res_r, res_l = np.empty((N, len(z)), complex, "F"), np.empty(len(z)), np.empty(len(z))
        for i, cols, dest in panels(len(z)):
            zb, right, left = blocks[i]
            res_r[dest] = residuals(apply, _unit(right(cols)), zb[cols])
            L[:, dest] = U = _unit(left(cols))
            res_l[dest] = residuals(partial(apply, adjoint=True), U, zb[cols].conj())
            del U  # freed before the next panel is lifted
        return L, res_r, res_l

    return Spectrum(N, z[order], lift, fill)


def escape_weights(s: Spectrum, m_max: int) -> tuple:
    """Weights of every right vector on the escape regions R_+^0 ... R_+^m_max,
    as two (pairs x depths) arrays: the measured masses (|R|^2)^T P, where P
    stacks the 0/1 diagonals pi_0 ... pi_m_max, and the semiclassical
    prediction |z|^(2m) (1 - |z|^2). The regions' endpoints are multiples of
    3^-(m_max+1), which must divide the grid: a grid point (n+1/2)/N then
    lies 1/(2N) from every endpoint, so pi_m selects exactly the grid cells
    [n/N, (n+1)/N) inside R_+^m (`phase_space.interval_mask`)."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    if s.N % 3 ** (m_max + 1):
        raise ValueError(f"escape regions to depth {m_max} need N divisible by "
                         f"{3 ** (m_max + 1)}, not N = {s.N}")
    P = np.column_stack([interval_mask(region_R_plus(m), s.N)
                         for m in range(m_max + 1)]).astype(float)
    # an einsum: a GEMM sums in another order and moves the tables' last digits
    return np.einsum("np,nm->pm", np.abs(s.R) ** 2, P), predicted_weights(s.moduli(), m_max)


def predicted_weights(moduli: np.ndarray, m_max: int) -> np.ndarray:
    """|z|^(2m) (1 - |z|^2) for m = 0 ... m_max, as a (pairs x depths) array."""
    return np.power.outer(moduli**2, np.arange(m_max + 1)) * (1.0 - moduli**2)[:, None]


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
