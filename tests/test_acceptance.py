"""End-to-end acceptance checks, one per headline result.

Each test prints a single PASS/FAIL line (run with -s to see them all) and
asserts the same condition. Expensive eigendecompositions are shared through
module-scoped fixtures and the library's own caches.
"""

import math

import numpy as np
import pytest

from openbaker.classical import (
    IntervalUnion,
    cantor_approx,
    box_dimension,
    escape_rate_estimate,
    region_R_plus,
)
from openbaker.experiments import (
    RunConfig,
    closed_states,
    open_spectrum,
    run_spectrum,
    sector_spectrum,
)
from openbaker.io_utils import sha256_file
from openbaker.phase_space import (
    average_density,
    husimi_grids,
    momentum_density,
    position_density,
    self_similarity_score,
    wigner_grid_average,
)
from openbaker.quantum import dft_matrix
from openbaker.spectral import escape_weights
from openbaker.walsh import _apply, long_lived_spectrum, nonzero_count
from interval_ops import difference, escape_projector, scale_shift, union
from open_dense import (open_propagator, wigner_full, wigner_momentum_marginal,
                        wigner_position_marginal)
from torus_reference import TorusPoint, coherent_vector, region_R_minus

CANTOR_DIM = math.log(2.0) / math.log(3.0)


def weyl_scaled_count(count: int, N: int) -> int:
    """Scale a state count at N = 729 across N by the fractal Weyl exponent,
    so selections at different N cover the same spectral fraction."""
    return max(1, min(N, round(count * (N / 729) ** CANTOR_DIM)))


def report(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def even_2187():
    return sector_spectrum(2187, "even")


def test_criterion_01_exact_opening_identity():
    """The open propagator is an exact sub-unitary: U~^dag U~ = I - pi_0."""
    worst = 0.0
    for N in (27, 243, 2187):
        Ut = open_propagator(N)
        target = np.eye(N) - np.diag(escape_projector(0, N))
        worst = max(worst, float(np.abs(Ut.conj().T @ Ut - target).max()))
    for k in (3, 5, 7):
        N = 3**k
        Ut = _apply(np.eye(N, dtype=complex))
        target = np.eye(N) - np.diag(escape_projector(0, N))
        worst = max(worst, float(np.abs(Ut.conj().T @ Ut - target).max()))
    report(1, "exact opening identity", worst < 1e-12,
           f"max entrywise error {worst:.3e} (< 1e-12), standard and Walsh")


def test_criterion_02_opening_weight_identity():
    """Every eigenstate's opening weight equals 1 - |z|^2 exactly."""
    worst = 0.0
    for N in (243, 729):
        s = open_spectrum(N)
        measured, _ = escape_weights(s, 0)
        worst = max(worst, float(np.abs(measured[:, 0] - (1 - s.moduli() ** 2)).max()))
    report(2, "opening weight = 1 - |z|^2", worst < 1e-9,
           f"max deviation {worst:.3e} over all pairs at N = 243, 729 (< 1e-9)")


def _median_weight_errors(N: int, ms):
    s = open_spectrum(N)
    measured, predicted = escape_weights(s, max(ms))
    mod = s.moduli()
    errs = {}
    for m in ms:
        keep = (0.3 <= mod) & (mod <= 0.9) & (predicted[:, m] > 0)
        errs[m] = float(np.median(np.abs(measured[keep, m] - predicted[keep, m])
                                  / predicted[keep, m]))
    return errs


def test_criterion_03_semiclassical_weights():
    """Deeper escape weights follow |z|^(2m)(1 - |z|^2) up to a semiclassical
    error that shrinks with N."""
    med = {N: _median_weight_errors(N, (1, 2)) for N in (81, 243, 729)}
    ok = (med[729][1] < 0.25 and med[729][2] < 0.40
          and med[81][1] > med[243][1] > med[729][1]
          and med[81][2] > med[243][2] > med[729][2])
    report(3, "semiclassical weight formula", ok,
           "median rel. errors m=1: {:.3f}>{:.3f}>{:.3f} (<0.25), "
           "m=2: {:.3f}>{:.3f}>{:.3f} (<0.40)".format(
               med[81][1], med[243][1], med[729][1],
               med[81][2], med[243][2], med[729][2]))


def test_criterion_04_long_lived_window(even_2187):
    """The 20 longest-lived symmetry-reduced states at N = 3^7 sit in the
    published modulus window."""
    mods = sorted(even_2187.moduli(), reverse=True)[:20]
    ok = 0.88 <= mods[0] <= 0.92 and all(0.80 <= m <= 0.93 for m in mods)
    report(4, "top-20 modulus window at N = 2187", ok,
           f"largest {mods[0]:.4f} in [0.88, 0.92], 20th {mods[-1]:.4f}, "
           "all in [0.80, 0.93]")


def test_criterion_05_walsh_exactness():
    """The Walsh quantization has exactly 2^k nonzero eigenvalues and obeys
    the weight formula to round-off (grid resolution allows depth m <= k-1)."""
    worst = 0.0
    counts_ok = True
    for k in (4, 5):
        counts_ok &= nonzero_count(k) == 2**k
        measured, predicted = escape_weights(long_lived_spectrum(k), min(4, k - 1))
        worst = max(worst, float(np.abs(measured - predicted).max()))
    ok = counts_ok and worst < 1e-8
    report(5, "Walsh exactness at k = 4, 5", ok,
           f"counts = 2^k: {counts_ok}, max weight residual {worst:.3e} (< 1e-8)")


def test_criterion_06_fractal_weyl(even_2187):
    """The number of long-lived resonances grows like N^(ln 2 / ln 3)."""
    N_list = [27, 81, 243, 729, 2187]
    counts = []
    for N in N_list:
        if N <= 729:
            counts.append(int((open_spectrum(N).moduli() > 0.5).sum()))
        else:
            c = int((even_2187.moduli() > 0.5).sum())
            c += int((sector_spectrum(N, "odd").moduli() > 0.5).sum())
            counts.append(c)
    slope = float(np.polyfit(np.log(N_list), np.log(counts), 1)[0])
    walsh_ok = all(nonzero_count(k) == 2**k for k in (3, 4, 5))
    ok = 0.48 <= slope <= 0.78 and walsh_ok
    report(6, "fractal Weyl scaling", ok,
           f"counts {counts}, slope {slope:.3f} in [0.48, 0.78] "
           f"(target {CANTOR_DIM:.3f}); Walsh counts exact: {walsh_ok}")


def _band_masses(N: int, count: int, G: int = 27, closed: bool = False):
    if closed:
        right = left = closed_states(N, "full")[1][:, :count]
    else:
        s = open_spectrum(N)
        right, left = s.R[:, :count], s.L[:, :count]
    avg_r = average_density(husimi_grids(right, G))
    avg_l = average_density(husimi_grids(left, G))
    pgrid = (np.arange(G) + 0.5) / G
    band = (pgrid < 1 / 3) | (pgrid >= 2 / 3)
    return float(avg_r[:, band].sum()), float(avg_l[band, :].sum())


def test_criterion_07_trapped_set_concentration():
    """Long-lived right states pile up on the backward-trapped set (momentum
    Cantor band), left states on the forward one; closed-map states spread
    uniformly. State counts are scaled across N by the fractal Weyl exponent
    so each selection covers the same spectral fraction."""
    masses = {N: _band_masses(N, weyl_scaled_count(100, N)) for N in (81, 243, 729)}
    closed_r, _ = _band_masses(729, 100, closed=True)
    r = [masses[N][0] for N in (81, 243, 729)]
    l = [masses[N][1] for N in (81, 243, 729)]
    ok = (r[2] > 2 / 3 and l[2] > 2 / 3
          and r[0] < r[1] < r[2] and l[0] < l[1] < l[2]
          and abs(closed_r - 0.67) < 0.05)
    report(7, "trapped-set concentration", ok,
           f"right band mass {r[0]:.3f}<{r[1]:.3f}<{r[2]:.3f} (>2/3), "
           f"left {l[0]:.3f}<{l[1]:.3f}<{l[2]:.3f}, closed control {closed_r:.3f}")


def test_criterion_08_kill_property_trend():
    """The adjoint propagator annihilates a packet sitting on the one-step
    backward escape strip, with error vanishing as N grows."""
    norms = []
    for N in (81, 243, 729):
        Ut = open_propagator(N)
        v = coherent_vector(TorusPoint(0.5, 0.5), N)
        norms.append(float(np.linalg.norm(Ut.conj().T @ v)))
    ok = norms[0] > norms[1] > norms[2]
    report(8, "coherent-state kill trend", ok,
           "||U~^dag |x>|| = " + " > ".join(f"{n:.3e}" for n in norms)
           + " over N = 81, 243, 729")


def test_criterion_09_self_similarity(even_2187):
    """Eigenstate position densities repeat their own structure under a x3
    magnification; white noise does not."""
    scores = {}
    mod, R = even_2187.moduli(), even_2187.R
    for tag, (lo, hi) in {"low": (0.35, 0.45), "high": (0.65, 0.75)}.items():
        dens = average_density(position_density(R[:, (lo <= mod) & (mod <= hi)]).T)
        scores[tag] = self_similarity_score(dens)
    rng = np.random.default_rng(0)
    noise = self_similarity_score(
        average_density(momentum_density(rng.normal(size=(2187, 1)) + 0j).T))
    ok = scores["low"] > 0.8 and scores["high"] > 0.8 and abs(noise) < 0.3
    report(9, "density self-similarity at N = 2187", ok,
           f"bin scores low {scores['low']:.3f}, high {scores['high']:.3f} "
           f"(> 0.8); noise baseline {noise:.3f} (< 0.3)")


def test_criterion_10_classical_exactness():
    """The classical layer is exact rational arithmetic: areas, recursions,
    escape rate and box dimension all come out closed-form."""
    from fractions import Fraction

    areas_ok = all(region_R_plus(m).measure == Fraction(1, 3) * Fraction(2, 3) ** m
                   for m in range(9))
    rec_plus_ok = True
    for m in range(6):
        s = region_R_plus(m)
        pre = IntervalUnion()
        for d in (0, 1, 2):
            pre = union(pre, scale_shift(s, d, 3))
        rec_plus_ok &= (difference(pre, region_R_plus(0)).intervals
                        == region_R_plus(m + 1).intervals)
    rec_minus_ok = all(
        union(scale_shift(region_R_minus(m), 0, 3),
              scale_shift(region_R_minus(m), 2, 3)).intervals
        == region_R_minus(m + 1).intervals
        for m in range(1, 6))
    rate_err = abs(escape_rate_estimate(8) - math.log(1.5))
    dim_err = abs(box_dimension(cantor_approx(8), list(range(1, 7))) - CANTOR_DIM)
    ok = areas_ok and rec_plus_ok and rec_minus_ok and rate_err < 1e-12 and dim_err < 1e-6
    report(10, "classical exactness", ok,
           f"areas exact: {areas_ok}, recursions exact: {rec_plus_ok and rec_minus_ok}, "
           f"escape-rate error {rate_err:.1e} (< 1e-12), "
           f"box-dimension error {dim_err:.1e} (< 1e-6)")


def test_criterion_11_property_suite(tmp_path):
    """Structural invariants: biorthogonality, unit-sum densities, Wigner
    marginals, and byte-identical reruns."""
    s = open_spectrum(81)
    M = np.abs(s.L.conj().T @ s.R)
    Z = s.z
    distinct = (np.abs(Z[:, None] - Z[None, :]) > 1e-8) & ~np.eye(len(Z), dtype=bool)
    bio = float(M[distinct].max())

    rng = np.random.default_rng(3)
    psi = rng.normal(size=81) + 1j * rng.normal(size=81)
    psi /= np.linalg.norm(psi)
    sums = [abs(position_density(psi).sum() - 1),
            abs(momentum_density(psi[:, None]).sum() - 1),
            abs(list(husimi_grids(psi[:, None], 27))[0].sum() - 1)]
    W = wigner_full(wigner_grid_average(psi[:, None]))
    marg = max(float(np.abs(wigner_position_marginal(W) - np.abs(psi) ** 2).max()),
               float(np.abs(wigner_momentum_marginal(W)
                            - np.abs(dft_matrix(81) @ psi) ** 2).max()))

    cfg = RunConfig(n_exp=3, out_dir=tmp_path)
    h1 = sha256_file(run_spectrum(cfg))
    h2 = sha256_file(run_spectrum(cfg))

    ok = bio < 1e-8 and max(sums) < 1e-10 and marg < 1e-8 and h1 == h2
    report(11, "property suite", ok,
           f"biorthogonality off-diag {bio:.1e} (< 1e-8), density unit-sum "
           f"error {max(sums):.1e} (< 1e-10), Wigner marginal error {marg:.1e} "
           f"(< 1e-8), byte-identical rerun: {h1 == h2}")
