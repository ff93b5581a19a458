"""The open spectrum built from the two index-folded N/3 blocks, with the
opening's exact kernel counted, checked against routes that share none of
its code: the dense eigensolve of U~ = U_N (I - pi_0), with LAPACK's own
left vectors, and the dense propagator itself. The closed states, merged
from the two parity blocks of U_N, are checked against the dense
eigensolve of U_N."""

import math

import numpy as np
import pytest
import scipy.linalg as la

from openbaker import experiments
from openbaker.experiments import closed_states, open_spectrum, sector_spectrum
from openbaker.quantum import baker_unitary, dft_matrix, sector_block
from openbaker.spectral import decay_order
from open_dense import extended_unitary, open_propagator, opened

# Resonance tolerance by modulus band, as (lower bound, tolerance): the
# values of SPECTRUM_TOLERANCE in bench/checks.py, measured there across the
# full dense, deflated and parity routes. Below RESONANCE_FLOOR the
# eigenvalues are round-off fragments of the nilpotent zero cluster.
BAND_TOLERANCE = ((0.03, 1e-10), (0.01, 2e-9), (0.003, 5e-6), (0.0, 1e-3))
RESONANCE_FLOOR = 1e-3


# the arrays of a `Spectrum`
FIELDS = ("z", "R", "L", "res_r", "res_l")


def _tolerance(modulus: float) -> float:
    return next(tol for lower, tol in BAND_TOLERANCE if modulus >= lower)


@pytest.mark.parametrize("N", [81, 243, 729])
def test_resonances_match_dense_eigensolve(N):
    """Every resonance above the zero cluster agrees with LAPACK on the
    dense N x N propagator, matched one to one, largest modulus first."""
    ref = la.eigvals(open_propagator(N))
    ref = ref[np.abs(ref) > RESONANCE_FLOOR]
    got = open_spectrum(N).z
    got = got[np.abs(got) > RESONANCE_FLOOR]
    assert len(got) == len(ref)
    used = np.zeros(len(got), dtype=bool)
    for a in ref[np.argsort(-np.abs(ref))]:
        d = np.where(used, np.inf, np.abs(got - a))
        j = int(np.argmin(d))
        assert d[j] <= _tolerance(abs(a)), f"resonance {a} unmatched ({d[j]:.3g})"
        used[j] = True


@pytest.mark.parametrize("N", [3, 6, 9, 12, 81])
def test_sector_sizes_and_exact_kernel(N):
    """Each open parity sector carries the t = N/3 pairs of its folded block
    and no z = 0. The exact zeros a spectrum counts, N - len(z), are the
    rank deficiency of the dense U~ (times the sector's projector): N/3 for
    the full spectrum, and within each sector ceil(t/2) even and floor(t/2)
    odd, so none in the odd sector at N = 3."""
    t = N // 3
    Ut, parity = open_propagator(N), np.eye(N)[::-1]
    full = open_spectrum(N)
    assert full.z.shape == (2 * t,) and full.R.shape == full.L.shape == (N, 2 * t)
    assert N - len(full.z) == N - np.linalg.matrix_rank(Ut) == t
    for sector, sign, dim, kernel_dim in (("even", 1, math.ceil(N / 2), math.ceil(t / 2)),
                                          ("odd", -1, N // 2, t // 2)):
        s = sector_spectrum(N, sector)
        assert len(s.z) == t and (s.z != 0).all()
        projected = Ut @ (np.eye(N) + sign * parity) / 2
        assert N - len(s.z) == N - np.linalg.matrix_rank(projected)
        assert dim - len(s.z) == kernel_dim
    with pytest.raises(ValueError):
        sector_spectrum(N, "sideways")


@pytest.mark.parametrize("N", [3, 27, 243])
def test_open_spectrum_is_the_full_sector_spectrum(N):
    """`open_spectrum(N)` is `sector_spectrum(N, "full")`: bitwise in
    `leading(k)`, read before R, and in all five arrays."""
    a, b = open_spectrum(N), sector_spectrum(N, "full")
    for k in (1, 7, len(a.z)):
        assert a.leading(k).tobytes() == b.leading(k).tobytes(), k
    for name in FIELDS:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


@pytest.mark.parametrize("solve", [sector_spectrum, closed_states], ids=["open", "closed"])
def test_unknown_sector_fails_before_any_build(solve, monkeypatch):
    """A sector outside the one table ("both") fails with a ValueError
    naming the three choices, before U's kept corners or the dense U is
    built."""
    for name in ("baker_corners", "baker_unitary"):
        monkeypatch.setattr(experiments, name,
                            lambda *a, name=name: pytest.fail(f"{name} called before the check"))
    with pytest.raises(ValueError, match="sector must be 'even', 'odd' or 'full', not 'both'"):
        solve(27, "both")


@pytest.mark.parametrize("N", [81, 243])
def test_open_spectrum_shares_its_sectors(N, monkeypatch):
    """`open_spectrum` folds both parity sectors from one U and publishes
    them: `sector_spectrum` then returns them with no second eigensolve, and
    the full spectrum's columns are theirs, bitwise, in (-|z|, phase) order.
    A warm full spectrum, lifted again from the cached solves, is bitwise
    the cold one, and a sector built alone is bitwise equal to the shared
    one."""
    experiments._SECTORS.clear()
    full = open_spectrum(N)
    monkeypatch.setattr(np.linalg, "eig", lambda *a, **k: pytest.fail("sector solved again"))
    shared = {sector: sector_spectrum(N, sector) for sector in ("even", "odd")}
    warm = open_spectrum(N)
    monkeypatch.undo()
    assert warm is not full
    for name in FIELDS:
        assert getattr(warm, name).tobytes() == getattr(full, name).tobytes()
    order = decay_order(np.concatenate([s.z for s in shared.values()]))
    for name in FIELDS:
        both = np.concatenate([getattr(s, name) for s in shared.values()], axis=-1)
        assert both[..., order].tobytes() == getattr(full, name).tobytes()
    experiments._SECTORS.clear()
    for sector, s in shared.items():
        alone = sector_spectrum(N, sector)
        assert alone is not s
        for name in FIELDS:
            assert getattr(alone, name).tobytes() == getattr(s, name).tobytes()


def test_reported_residuals_are_those_of_the_dense_propagator():
    """The residuals taken through the FFT action of U~ and U~^H equal
    those of the dense U~, built in extended precision, applied to the
    same vectors."""
    N = 81
    Ut = opened(extended_unitary(N))
    s = open_spectrum(N)
    V, U = s.R.astype(np.clongdouble), s.L.astype(np.clongdouble)
    r = np.linalg.norm((Ut @ V - V * s.z).astype(complex), axis=0)
    l = np.linalg.norm((Ut.conj().T @ U - U * s.z.conj()).astype(complex), axis=0)
    assert np.abs(s.res_r - r).max() < 1e-14
    assert np.abs(s.res_l - l).max() < 1e-14
    assert max(r.max(), l.max()) < 1e-13


# Left vectors by time reversal against LAPACK's left vectors of the dense
# U~, aligned in phase. Measured distances: 1.6e-14 at N = 27, 5.3e-13 at
# 81 and 1.7e-11 at 243, growing as the eigenvalue gaps shrink (smallest gap
# above |z| = 0.1: 0.15, 0.057 and 0.015); eigenvalues matched to 1.1e-14.
LEFT_VECTOR_TOLERANCE = {27: 1e-13, 81: 3e-12, 243: 1e-10}


@pytest.mark.parametrize("N", [27, 81, 243])
def test_time_reversal_maps_right_to_left_vectors(N):
    """U~^T = F U~ F^-1, the symmetry the left vectors are built from as
    conj(F v). Each left vector with |z| > 0.1 is, up to a phase, LAPACK's
    left eigenvector of the dense U~ for the nearest eigenvalue, which is
    nearer than any other by a margin."""
    F, Ut = dft_matrix(N), open_propagator(N)
    assert np.abs(Ut.T - F @ Ut @ F.conj().T).max() < 1e-13
    ref, VL = la.eig(Ut, left=True, right=False)
    s = open_spectrum(N)
    for j in np.flatnonzero(s.moduli() > 0.1):
        d = np.abs(ref - s.z[j])
        first, second = np.argsort(d)[:2]
        assert d[first] < 1e-13 and d[second] > 1e-3
        u = VL[:, first] / np.linalg.norm(VL[:, first])
        phase = np.vdot(s.L[:, j], u)
        assert np.linalg.norm(u - phase / abs(phase) * s.L[:, j]) < LEFT_VECTOR_TOLERANCE[N]


@pytest.mark.parametrize("sector", ["even", "odd", "full"])
@pytest.mark.parametrize("N", [27, 81, 243])
def test_closed_states_bitwise_scipy_eig(N, sector):
    """The closed-map control calls LAPACK's zgeev as `scipy.linalg.eig`
    does, from the same SciPy extension with the same workspace, without
    importing `scipy.linalg`: z and V are bitwise those of `la.eig` on each
    sector block, lifted, merged and ordered the same way."""
    U = baker_unitary(N)
    zs, Vs = [], []
    for s in (("even", "odd") if sector == "full" else (sector,)):
        A, B = sector_block(U, s)
        z, R = la.eig(A)
        zs.append(z)
        Vs.append(B @ R)
    z = np.concatenate(zs)
    order = decay_order(z)
    got = closed_states(N, sector)
    assert got[0].tobytes() == z[order].tobytes()
    assert got[1].tobytes() == np.hstack(Vs)[:, order].tobytes()


# Closed eigenvalues from the parity blocks against LAPACK on the dense U_N.
# Measured: 7.0e-15 at N = 81, 1.3e-14 at N = 243; the smallest eigenphase
# gap at N = 243 is 4.3e-4, so the one-to-one matching is unambiguous.
CLOSED_TOLERANCE = 1e-13


@pytest.mark.parametrize("N", [81, 243])
def test_closed_states_match_dense_eigensolve(N):
    """The merged closed states are the eigenvectors of the unitary U_N:
    each eigenvalue matches one of LAPACK's on the dense matrix and lies on
    the unit circle, the eigenvalues come in (-|z|, phase) order, and each
    column is an eigenvector of U_N lying in one parity sector."""
    z, V = closed_states(N, "full")
    assert len(z) == N and V.shape == (N, N)
    used = np.zeros(N, dtype=bool)
    for a in la.eigvals(baker_unitary(N)):
        d = np.where(used, np.inf, np.abs(z - a))
        j = int(np.argmin(d))
        assert d[j] <= CLOSED_TOLERANCE, f"eigenvalue {a} unmatched ({d[j]:.3g})"
        used[j] = True
    assert np.abs(np.abs(z) - 1).max() < 1e-12
    assert np.array_equal(np.lexsort((np.angle(z), -np.abs(z))), np.arange(N))
    assert np.linalg.norm(baker_unitary(N) @ V - V * z, axis=0).max() < 1e-12
    even = np.abs(V[::-1] - V).max(axis=0) < 1e-14
    odd = np.abs(V[::-1] + V).max(axis=0) < 1e-14
    assert np.all(even ^ odd) and even.sum() == math.ceil(N / 2)
    for sector, parity in (("even", even), ("odd", odd)):
        zs, Vs = closed_states(N, sector)
        assert np.array_equal(zs, z[parity]) and np.array_equal(Vs, V[:, parity])
