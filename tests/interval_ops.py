"""Exact set algebra on IntervalUnion, used by the tests to build the
reference recursions (preimages, images, disjointness) that the closed-form
regions of `openbaker.classical` must reproduce, and membership of a point."""

from fractions import Fraction

from openbaker.classical import IntervalUnion


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
