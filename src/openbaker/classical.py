"""Escape regions and trapped-set geometry of the classical triadic baker map.

All regions are held exactly as finite unions of triadic intervals with
rational endpoints, built in closed form from Cantor words (integers whose
ternary digits are all 0 or 2), so the escape-region recursions can be
checked as set identities rather than up to a sampling tolerance. An escape
region R_+^m is held as the position support of its vertical strip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "IntervalUnion",
    "region_R_plus",
    "cantor_approx",
    "escape_rate_estimate",
    "box_dimension",
    "ehrenfest_time",
]

LYAPUNOV = math.log(3.0)
ESCAPE_RATE = math.log(3.0 / 2.0)


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
            a, b = Fraction(a), Fraction(b)
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

    @property
    def measure(self) -> Fraction:
        return sum((b - a for a, b in self.intervals), Fraction(0))

    def __bool__(self) -> bool:
        return bool(self.intervals)


def _cantor_words(length: int) -> list:
    """Ascending integers whose `length` ternary digits are all 0 or 2."""
    words = [0]
    for _ in range(length):
        words = [3 * a + d for a in words for d in (0, 2)]
    return words


def region_R_plus(m: int) -> IntervalUnion:
    """Points escaping through the opening at exactly the m-th forward step:
    the vertical strip of the q whose first m ternary digits avoid 1 and
    whose next digit is 1, i.e. [(3a+1)/3^(m+1), (3a+2)/3^(m+1)) over the
    Cantor words a of length m. m = 0 is the opening itself."""
    if m < 0:
        raise ValueError("m must be >= 0")
    den = 3 ** (m + 1)
    return IntervalUnion.from_pairs(
        [(Fraction(3 * a + 1, den), Fraction(3 * a + 2, den)) for a in _cantor_words(m)])


def cantor_approx(level: int) -> IntervalUnion:
    """Level-`level` middle-third Cantor approximant: [a/3^level, (a+1)/3^level)
    over the Cantor words a of that length."""
    if level < 0:
        raise ValueError("level must be >= 0")
    den = 3**level
    return IntervalUnion.from_pairs(
        [(Fraction(a, den), Fraction(a + 1, den)) for a in _cantor_words(level)])


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
    return float(-slope)


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
        return float(ys[0] / xs[0])
    return float(np.polyfit(xs, ys, 1)[0])


def ehrenfest_time(N: int) -> float:
    """Ehrenfest time ln(M)/lambda with M = N/3 open channels."""
    if N % 3 != 0:
        raise ValueError("N must be divisible by 3")
    return math.log(N // 3) / LYAPUNOV
