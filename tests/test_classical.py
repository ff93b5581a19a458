import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openbaker.classical import (
    IntervalUnion,
    box_dimension,
    cantor_approx,
    ehrenfest_time,
    escape_rate_estimate,
    region_R_plus,
)
from interval_ops import contains, difference, intersection, scale_shift, union
from torus_reference import TorusPoint, baker_forward, baker_inverse, region_R_minus


def test_baker_forward_branches():
    p = baker_forward(TorusPoint(0.1, 0.5))
    assert p.q == pytest.approx(0.3) and p.p == pytest.approx(1 / 6)
    p = baker_forward(TorusPoint(0.5, 0.0))
    assert p.q == pytest.approx(0.5) and p.p == pytest.approx(1 / 3)
    p = baker_forward(TorusPoint(0.9, 0.9))
    assert p.q == pytest.approx(0.7) and p.p == pytest.approx(29 / 30)


def test_baker_inverse_examples():
    p = baker_inverse(TorusPoint(0.3, 1 / 6))
    assert p.q == pytest.approx(0.1) and p.p == pytest.approx(0.5)
    p = baker_inverse(TorusPoint(0.5, 0.5))
    assert p.q == pytest.approx(0.5) and p.p == pytest.approx(0.5)


@given(st.floats(0, 1, exclude_max=True), st.floats(0, 0.99))
@settings(max_examples=200)
def test_baker_roundtrip(q, p):
    # p is kept away from 1: within an ulp of the top edge the image's
    # leading ternary digit is not representable and the inverse branches
    # differently
    x = TorusPoint(q, p)
    y = baker_inverse(baker_forward(x))
    assert abs(y.q - x.q) < 1e-12 or abs(abs(y.q - x.q) - 1) < 1e-12
    assert abs(y.p - x.p) < 1e-12 or abs(abs(y.p - x.p) - 1) < 1e-12


@given(st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False))
def test_torus_point_reduced(q, p):
    x = TorusPoint(q, p)
    assert 0 <= x.q < 1 and 0 <= x.p < 1


def test_opening():
    o = region_R_plus(0)
    assert o.intervals == ((Fraction(1, 3), Fraction(2, 3)),)
    assert o.measure == Fraction(1, 3)
    assert contains(o, TorusPoint(0.5, 0.9).q)
    assert not contains(o, TorusPoint(0.2, 0.9).q)


def test_region_R_plus_base_cases():
    assert region_R_plus(0).intervals == ((Fraction(1, 3), Fraction(2, 3)),)
    assert region_R_plus(1).intervals == (
        (Fraction(1, 9), Fraction(2, 9)), (Fraction(7, 9), Fraction(8, 9)))
    with pytest.raises(ValueError):
        region_R_plus(-1)


@pytest.mark.parametrize("m", range(7))
def test_region_R_plus_measure_exact(m):
    assert region_R_plus(m).measure == Fraction(1, 3) * Fraction(2, 3) ** m


@pytest.mark.parametrize("m", range(5))
def test_region_R_plus_interval_structure(m):
    ivs = region_R_plus(m).intervals
    assert len(ivs) == 2**m
    assert all(b - a == Fraction(1, 3 ** (m + 1)) for a, b in ivs)


def test_region_R_plus_escape_time_oracle():
    """Brute force: first-entry time of q -> 3q mod 1 into the opening."""
    grid = (np.arange(2000) + 0.5) / 2000
    for m in range(4):
        sup = region_R_plus(m)
        for q in grid[::7]:
            t, x = None, q
            for step in range(6):
                if 1 / 3 <= x < 2 / 3:
                    t = step
                    break
                x = (3 * x) % 1.0
            assert contains(sup, Fraction(q).limit_denominator(10**9)) == (t == m)


def test_region_R_minus():
    assert region_R_minus(1).intervals == ((Fraction(1, 3), Fraction(2, 3)),)
    assert region_R_minus(2).intervals == (
        (Fraction(1, 9), Fraction(2, 9)), (Fraction(7, 9), Fraction(8, 9)))
    with pytest.raises(ValueError):
        region_R_minus(0)


@pytest.mark.parametrize("m", range(1, 9))
def test_region_R_minus_forward_recursion(m):
    # image of (R_-^m minus the opening) under the map is R_-^{m+1}
    s = region_R_minus(m)
    image = union(scale_shift(s, 0, 3), scale_shift(s, 2, 3))
    assert image.intervals == region_R_minus(m + 1).intervals


@pytest.mark.parametrize("m", range(9))
def test_region_R_plus_preimage_recursion(m):
    s = region_R_plus(m)
    pre = IntervalUnion()
    for d in (0, 1, 2):
        pre = union(pre, scale_shift(s, d, 3))
    assert difference(pre, region_R_plus(0)).intervals == \
        region_R_plus(m + 1).intervals


def test_R_plus_R_minus_digit_symmetry():
    for m in range(5):
        assert region_R_plus(m).intervals == \
            region_R_minus(m + 1).intervals


def test_R_plus_disjointness():
    covered = IntervalUnion()
    for m in range(9):
        sup = region_R_plus(m)
        assert intersection(covered, sup).measure == 0
        covered = union(covered, sup)
        # escape regions never meet the Cantor approximant one level deeper
        assert intersection(cantor_approx(m + 1), sup).measure == 0


def test_R_plus_measure_partial_sums():
    total = Fraction(0)
    for M in range(8):
        total += region_R_plus(M).measure
        assert 1 - total == Fraction(2, 3) ** (M + 1)


def test_cantor_approx():
    assert cantor_approx(0).intervals == ((Fraction(0), Fraction(1)),)
    assert cantor_approx(1).intervals == (
        (Fraction(0), Fraction(1, 3)), (Fraction(2, 3), Fraction(1)))
    assert cantor_approx(2).intervals == (
        (Fraction(0), Fraction(1, 9)), (Fraction(2, 9), Fraction(1, 3)),
        (Fraction(2, 3), Fraction(7, 9)), (Fraction(8, 9), Fraction(1)))
    for level in range(6):
        assert cantor_approx(level).measure == Fraction(2, 3) ** level


@pytest.mark.parametrize("level", range(8))
def test_cantor_approx_recursion(level):
    # the closed form against the recursion C_{l+1} = C_l/3 u (C_l + 2)/3
    u = cantor_approx(level)
    assert union(scale_shift(u, 0, 3), scale_shift(u, 2, 3)).intervals == \
        cantor_approx(level + 1).intervals


def test_escape_rate_exact():
    assert escape_rate_estimate(6) == pytest.approx(math.log(1.5), abs=1e-12)
    with pytest.raises(ValueError):
        escape_rate_estimate(1)


def test_escape_rate_survival_oracle():
    rng = np.random.default_rng(7)
    q = rng.random(10**6)
    alive = np.ones(len(q), dtype=bool)
    survivors = []
    for _ in range(8):
        alive &= ~((q >= 1 / 3) & (q < 2 / 3))
        survivors.append(alive.mean())
        q = (3 * q) % 1.0
    rate = -np.polyfit(np.arange(8), np.log(survivors), 1)[0]
    assert rate == pytest.approx(math.log(1.5), rel=0.02)


def test_box_dimension():
    assert box_dimension(cantor_approx(8), list(range(1, 7))) == \
        pytest.approx(math.log(2) / math.log(3), abs=1e-6)
    assert box_dimension(IntervalUnion.from_pairs([(0, 1)]), [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)
    tiny = IntervalUnion.from_pairs([(0, Fraction(1, 3**10))])
    assert abs(box_dimension(tiny, [1, 2, 3])) < 0.05
    with pytest.raises(ValueError):
        box_dimension(IntervalUnion(), [1, 2])


def test_ehrenfest_time():
    assert ehrenfest_time(3**7) == pytest.approx(6.0)
    assert ehrenfest_time(3) == pytest.approx(0.0)
    assert ehrenfest_time(3**4) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        ehrenfest_time(10)


def test_area_preservation_monte_carlo():
    rng = np.random.default_rng(11)
    pts = rng.random((10**5, 2))
    imgs = np.array([[3 * q % 1, (p + min(int(3 * q), 2)) / 3] for q, p in pts])
    # fraction of images inside a test rectangle matches its area
    for (a, b, c, d) in [(0.1, 0.4, 0.2, 0.9), (0.0, 1 / 3, 0.0, 1 / 3)]:
        inside = ((imgs[:, 0] >= a) & (imgs[:, 0] < b)
                  & (imgs[:, 1] >= c) & (imgs[:, 1] < d)).mean()
        area = (b - a) * (d - c)
        sigma = math.sqrt(area * (1 - area) / len(pts))
        assert abs(inside - area) < 3 * sigma + 1e-12


def test_interval_union_validation():
    with pytest.raises(ValueError):
        IntervalUnion.from_pairs([(0, Fraction(1, 2)), (Fraction(1, 4), 1)])
    with pytest.raises(ValueError):
        IntervalUnion.from_pairs([(-1, 2)])
