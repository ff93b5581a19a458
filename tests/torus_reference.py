"""Reference geometry on the torus that the package never evaluates: the
classical baker map on points, the incoming regions R_-^m, and the Gaussian
coherent-state vector that the Husimi images are checked against."""

import math

import numpy as np

from openbaker.classical import Axis, StripRegion, TorusPoint, region_R_plus


def baker_forward(x: TorusPoint) -> TorusPoint:
    """One step of the triadic baker map: stretch q by 3, squeeze p by 3."""
    d = min(int(3.0 * x.q), 2)
    return TorusPoint(3.0 * x.q - d, (x.p + d) / 3.0)


def baker_inverse(x: TorusPoint) -> TorusPoint:
    """Inverse baker step; the branch is selected by the leading digit of p."""
    d = min(int(3.0 * x.p), 2)
    return TorusPoint((x.q + d) / 3.0, 3.0 * x.p - d)


def region_R_minus(m: int) -> StripRegion:
    """Points that left through the opening exactly m steps ago: the
    horizontal strip whose momentum support is that of R_+^(m-1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return StripRegion(Axis.MOMENTUM, region_R_plus(m - 1).support)


def coherent_vector(center: TorusPoint, N: int) -> np.ndarray:
    """Unit-norm Gaussian wave packet at (q0, p0) with antiperiodic wrapping:
    sum over three lattice images nu of
    (-1)^nu exp(-pi N (q_n - q0 + nu)^2 + 2 pi i N p0 (q_n + nu - q0/2)).
    The neglected images are O(exp(-pi N * 2))."""
    if N < 3:
        raise ValueError("N must be >= 3")
    q0, p0 = center.q, center.p
    qn = (np.arange(N) + 0.5) / N
    nu = np.arange(-1, 2)[:, None]
    v = ((-1.0) ** nu * np.exp(-math.pi * N * (qn - q0 + nu) ** 2
                               + 2j * math.pi * N * p0 * (qn + nu - q0 / 2))).sum(axis=0)
    return v / np.linalg.norm(v)
