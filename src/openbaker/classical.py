"""Classical triadic baker map, escape regions and trapped-set geometry.

All regions are held exactly as finite unions of triadic intervals with
rational endpoints, so the escape-region recursions can be checked as set
identities rather than up to a sampling tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "TorusPoint",
    "IntervalUnion",
    "Axis",
    "StripRegion",
    "baker_forward",
    "baker_inverse",
    "opening",
    "region_R_plus",
    "region_R_minus",
    "cantor_approx",
    "escape_rate_estimate",
    "box_dimension",
    "ehrenfest_time",
]

LYAPUNOV = math.log(3.0)
ESCAPE_RATE = math.log(3.0 / 2.0)


@dataclass(frozen=True)
class TorusPoint:
    """A point (q, p) on the unit torus, reduced mod 1 on construction."""

    q: float
    p: float

    def __post_init__(self):
        # x % 1.0 returns 1.0 for tiny negative x; fold that back to 0
        object.__setattr__(self, "q", self.q % 1.0 % 1.0)
        object.__setattr__(self, "p", self.p % 1.0 % 1.0)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(x).limit_denominator(3**40)


@dataclass(frozen=True)
class IntervalUnion:
    """Finite union of disjoint half-open intervals [a, b) inside [0, 1).

    Endpoints are stored as exact rationals; adjacent intervals are merged
    so that equal sets have equal representations.
    """

    intervals: tuple = ()

    @staticmethod
    def from_pairs(pairs: Iterable) -> "IntervalUnion":
        ivs = []
        for a, b in pairs:
            a, b = _as_fraction(a), _as_fraction(b)
            if not (0 <= a and b <= 1):
                raise ValueError(f"interval [{a},{b}) not inside [0,1)")
            if a < b:
                ivs.append((a, b))
        ivs.sort()
        merged = []
        for a, b in ivs:
            if merged and a <= merged[-1][1]:
                if a < merged[-1][1]:
                    raise ValueError("overlapping intervals")
                merged[-1] = (merged[-1][0], b)
            else:
                merged.append((a, b))
        return IntervalUnion(tuple((a, b) for a, b in merged))

    @staticmethod
    def full() -> "IntervalUnion":
        return IntervalUnion.from_pairs([(0, 1)])

    @property
    def measure(self) -> Fraction:
        return sum((b - a for a, b in self.intervals), Fraction(0))

    def contains(self, x) -> bool:
        x = _as_fraction(x)
        return any(a <= x < b for a, b in self.intervals)

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        # merge endpoint lists; from_pairs rejects genuine overlaps, so
        # resolve them here by sweeping.
        points = sorted(set(
            [p for iv in self.intervals for p in iv]
            + [p for iv in other.intervals for p in iv]
        ))
        out = []
        for a, b in zip(points, points[1:]):
            mid = (a + b) / 2
            if self.contains(mid) or other.contains(mid):
                out.append((a, b))
        return IntervalUnion.from_pairs(out)

    def intersection(self, other: "IntervalUnion") -> "IntervalUnion":
        out = []
        for a, b in self.intervals:
            for c, d in other.intervals:
                lo, hi = max(a, c), min(b, d)
                if lo < hi:
                    out.append((lo, hi))
        return IntervalUnion.from_pairs(out)

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        out = []
        for a, b in self.intervals:
            cuts = [a, b]
            for c, d in other.intervals:
                if c > a and c < b:
                    cuts.append(c)
                if d > a and d < b:
                    cuts.append(d)
            cuts = sorted(set(cuts))
            for lo, hi in zip(cuts, cuts[1:]):
                if not other.contains((lo + hi) / 2):
                    out.append((lo, hi))
        return IntervalUnion.from_pairs(out)

    def scale_shift(self, num, den) -> "IntervalUnion":
        """Affine image x -> (x + num) / den of every interval."""
        num, den = Fraction(num), Fraction(den)
        return IntervalUnion.from_pairs(
            [((a + num) / den, (b + num) / den) for a, b in self.intervals]
        )

    def __bool__(self) -> bool:
        return bool(self.intervals)


class Axis(Enum):
    POSITION = "position"
    MOMENTUM = "momentum"


@dataclass(frozen=True)
class StripRegion:
    """A full-height vertical strip (position axis) or full-width horizontal
    strip (momentum axis) on the torus."""

    axis: Axis
    support: IntervalUnion

    @property
    def measure(self) -> Fraction:
        return self.support.measure

    def contains(self, x: TorusPoint) -> bool:
        coord = x.q if self.axis is Axis.POSITION else x.p
        return self.support.contains(coord)


def baker_forward(x: TorusPoint) -> TorusPoint:
    """One step of the triadic baker map: stretch q by 3, squeeze p by 3."""
    d = min(int(3.0 * x.q), 2)
    return TorusPoint(3.0 * x.q - d, (x.p + d) / 3.0)


def baker_inverse(x: TorusPoint) -> TorusPoint:
    """Inverse baker step; the branch is selected by the leading digit of p."""
    d = min(int(3.0 * x.p), 2)
    return TorusPoint((x.q + d) / 3.0, 3.0 * x.p - d)


def opening() -> StripRegion:
    """The absorbing region: the middle vertical strip q in [1/3, 2/3)."""
    return StripRegion(Axis.POSITION, IntervalUnion.from_pairs([(Fraction(1, 3), Fraction(2, 3))]))


def _triadic_preimage(u: IntervalUnion) -> IntervalUnion:
    """Preimage of a position set under q -> 3q mod 1."""
    out = u.scale_shift(0, 3)
    for d in (1, 2):
        out = out.union(u.scale_shift(d, 3))
    return out


def region_R_plus(m: int) -> StripRegion:
    """Points escaping through the opening at exactly the m-th forward step.

    Vertical strip; 2^m intervals of length 3^-(m+1). m = 0 is the opening
    itself.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    support = opening().support
    for _ in range(m):
        support = _triadic_preimage(support).difference(opening().support)
    return StripRegion(Axis.POSITION, support)


def region_R_minus(m: int) -> StripRegion:
    """Points that left through the opening exactly m steps ago (horizontal
    strip in momentum)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    support = IntervalUnion.from_pairs([(Fraction(1, 3), Fraction(2, 3))])
    for _ in range(m - 1):
        support = support.scale_shift(0, 3).union(support.scale_shift(2, 3))
    return StripRegion(Axis.MOMENTUM, support)


def cantor_approx(level: int) -> IntervalUnion:
    """Level-`level` middle-third Cantor approximant: 2^level intervals of
    length 3^-level."""
    if level < 0:
        raise ValueError("level must be >= 0")
    u = IntervalUnion.full()
    for _ in range(level):
        u = u.scale_shift(0, 3).union(u.scale_shift(2, 3))
    return u


def escape_rate_estimate(max_m: int) -> float:
    """Fit the exponential decay rate of the escape-region areas.

    Least-squares slope of log(area(R_+^m)) against m for m = 0..max_m;
    returns the positive rate (ln(3/2) for the triadic baker).
    """
    if max_m < 2:
        raise ValueError("need max_m >= 2 for a meaningful fit")
    ms = np.arange(max_m + 1, dtype=float)
    areas = np.array([float(region_R_plus(m).measure) for m in range(max_m + 1)])
    slope = np.polyfit(ms, np.log(areas), 1)[0]
    return -slope


def box_dimension(u: IntervalUnion, levels: Sequence[int]) -> float:
    """Box-counting dimension over triadic grids 3^-l for l in `levels`."""
    if not levels:
        raise ValueError("levels must be nonempty")
    if not u:
        raise ValueError("empty set has no box dimension")
    counts = []
    for l in levels:
        scale = 3**l
        cells = set()
        for a, b in u.intervals:
            first = math.floor(a * scale)
            # b is exclusive, so the last touched cell is ceil(b*scale) - 1
            last = math.ceil(b * scale) - 1
            cells.update(range(first, last + 1))
        counts.append(len(cells))
    xs = np.array(levels, dtype=float) * math.log(3.0)
    ys = np.log(np.array(counts, dtype=float))
    if len(levels) == 1:
        return ys[0] / xs[0]
    return float(np.polyfit(xs, ys, 1)[0])


def ehrenfest_time(N: int) -> float:
    """Ehrenfest time ln(M)/lambda with M = N/3 open channels."""
    if N % 3 != 0:
        raise ValueError("N must be divisible by 3")
    return math.log(N // 3) / LYAPUNOV
