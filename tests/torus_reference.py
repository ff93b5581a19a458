"""Reference geometry on the torus that the package never evaluates: torus
points, the classical baker map on them, the incoming regions R_-^m, and the
Gaussian coherent-state vector that the Husimi images are checked against."""

import math
from dataclasses import dataclass

import numpy as np

from openbaker.classical import IntervalUnion, region_R_plus


@dataclass(frozen=True)
class TorusPoint:
    """A point (q, p) on the unit torus, reduced mod 1 on construction."""

    q: float
    p: float

    def __post_init__(self):
        # x % 1.0 returns 1.0 for tiny negative x; fold that back to 0
        object.__setattr__(self, "q", self.q % 1.0 % 1.0)
        object.__setattr__(self, "p", self.p % 1.0 % 1.0)


def baker_forward(x: TorusPoint) -> TorusPoint:
    """One step of the triadic baker map: stretch q by 3, squeeze p by 3."""
    d = min(int(3.0 * x.q), 2)
    return TorusPoint(3.0 * x.q - d, (x.p + d) / 3.0)


def baker_inverse(x: TorusPoint) -> TorusPoint:
    """Inverse baker step; the branch is selected by the leading digit of p."""
    d = min(int(3.0 * x.p), 2)
    return TorusPoint((x.q + d) / 3.0, 3.0 * x.p - d)


def region_R_minus(m: int) -> IntervalUnion:
    """Points that left through the opening exactly m steps ago: the momentum
    support of a full-width horizontal strip, that of R_+^(m-1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return region_R_plus(m - 1)


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
