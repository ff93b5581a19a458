"""Exact set algebra on IntervalUnion, used by the tests to build the
reference recursions (preimages, images, disjointness) that the closed-form
regions of `openbaker.classical` must reproduce, membership of a point, and
the escape projectors by exact rational arithmetic, the reference for the
grid-cell centre rule of `phase_space.interval_mask`."""

from fractions import Fraction

import numpy as np

from openbaker.classical import IntervalUnion, region_R_plus


def contains(u: IntervalUnion, x) -> bool:
    """Whether x (a Fraction, int or float, compared exactly) lies in u."""
    return any(a <= x < b for a, b in u.intervals)


def union(u: IntervalUnion, v: IntervalUnion) -> IntervalUnion:
    # merge endpoint lists; from_pairs rejects genuine overlaps, so
    # resolve them here by sweeping.
    points = sorted(set(
        [p for iv in u.intervals for p in iv]
        + [p for iv in v.intervals for p in iv]
    ))
    out = []
    for a, b in zip(points, points[1:]):
        mid = (a + b) / 2
        if contains(u, mid) or contains(v, mid):
            out.append((a, b))
    return IntervalUnion.from_pairs(out)


def intersection(u: IntervalUnion, v: IntervalUnion) -> IntervalUnion:
    out = []
    for a, b in u.intervals:
        for c, d in v.intervals:
            lo, hi = max(a, c), min(b, d)
            if lo < hi:
                out.append((lo, hi))
    return IntervalUnion.from_pairs(out)


def difference(u: IntervalUnion, v: IntervalUnion) -> IntervalUnion:
    out = []
    for a, b in u.intervals:
        cuts = [a, b]
        for c, d in v.intervals:
            if c > a and c < b:
                cuts.append(c)
            if d > a and d < b:
                cuts.append(d)
        cuts = sorted(set(cuts))
        for lo, hi in zip(cuts, cuts[1:]):
            if not contains(v, (lo + hi) / 2):
                out.append((lo, hi))
    return IntervalUnion.from_pairs(out)


def scale_shift(u: IntervalUnion, num, den) -> IntervalUnion:
    """Affine image x -> (x + num) / den of every interval."""
    num, den = Fraction(num), Fraction(den)
    return IntervalUnion.from_pairs(
        [((a + num) / den, (b + num) / den) for a, b in u.intervals]
    )


def escape_projector(m: int, N: int) -> np.ndarray:
    """pi_m: read-only 0/1 diagonal (length N, float) of the projector onto
    the grid points (n+1/2)/N in the escape region R_+^m (m = 0 is the
    opening pi_0), each interval's endpoints scaled by N exactly.

    Raises ValueError when an interval of the region only partially covers
    some grid cell [n/N, (n+1)/N).
    """
    d = np.zeros(N)
    for a, b in region_R_plus(m).intervals:
        lo, hi = a * N, b * N
        if lo.denominator != 1 or hi.denominator != 1:
            raise ValueError(f"interval [{a},{b}) not aligned with the 1/{N} grid")
        d[int(lo):int(hi)] = 1.0
    d.flags.writeable = False
    return d
