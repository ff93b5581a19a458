import cmath
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given
from hypothesis import strategies as st

from openbaker.experiments import (
    RunConfig,
    open_spectrum,
    run_density_figures,
    run_husimi_figure,
    sector_spectrum,
)
from openbaker import experiments, spectral, walsh
from openbaker.spectral import (
    Spectrum,
    eigenpairs,
    escape_weights,
    spectrum_table,
)
from openbaker.io_utils import fmt
from openbaker.walsh import long_lived_spectrum
from interval_ops import escape_projector
from open_dense import open_propagator


def _dense_spectrum(A):
    """Spectrum of a square matrix from one two-sided LAPACK eigensolve."""
    z, U, V = la.eig(A, left=True, right=True)
    return eigenpairs(len(A), [(z, lambda c: V[:, c], lambda c: U[:, c])], _action(A))


def _action(A):
    """The action of a dense matrix, or of its adjoint, on a block of columns."""
    return lambda X, adjoint=False: (A.conj().T if adjoint else A) @ X


@pytest.fixture(scope="module")
def spec27():
    return open_propagator(27), _dense_spectrum(open_propagator(27))


def test_dense_spectrum_residuals_and_norms(spec27):
    Ut, s = spec27
    assert s.N == 27 and s.z.shape == s.res_r.shape == s.res_l.shape == (27,)
    assert s.R.shape == s.L.shape == (27, 27)
    assert s.res_r.max() < 1e-12
    assert s.res_l.max() < 1e-12
    assert np.abs(np.linalg.norm(s.R, axis=0) - 1).max() < 1e-12
    assert np.abs(np.linalg.norm(s.L, axis=0) - 1).max() < 1e-12


@pytest.mark.parametrize("make", [lambda: open_spectrum(243), lambda: sector_spectrum(243, "even")]
                         + [lambda k=k: long_lived_spectrum(k) for k in range(2, 9)],
                         ids=["open_243", "even_243"] + [f"walsh_{k}" for k in range(2, 9)])
def test_moduli_follow_the_sort_order(make):
    """`moduli()` is |z| by the rule the (-|z|, phase) order sorts by, bit
    for bit, so the moduli of a spectrum never rise along its columns."""
    s = make()
    mod = s.moduli()
    assert mod.tobytes() == np.abs(s.z).tobytes()
    assert (np.diff(mod) <= 0).all()


def test_benchmark_health_reads_the_arrays():
    """The benchmark's health check reads a spectrum through `pairs`,
    `eigenvalues()`, `right_matrix()` and `left_matrix()`; each of its four
    values equals the one taken from the arrays."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        from checks import RESONANCE_FLOOR, spectrum_health
    finally:
        sys.path.pop(0)
    for s in (open_spectrum(81), sector_spectrum(81, "even"), long_lived_spectrum(4)):
        mod = s.moduli()
        assert spectrum_health(s) == {
            "zero_cluster_count": int(((mod > 1e-12) & (mod < RESONANCE_FLOOR)).sum()),
            "max_residual_right": s.res_r.max(),
            "max_residual_left": s.res_l.max(),
            "min_abs_biorth": np.abs(np.einsum("ij,ij->j", s.L.conj(), s.R)).min(),
        }


def test_spectrum_sorted_and_subunit(spec27):
    _, s = spec27
    mods = s.moduli()
    assert np.all(np.diff(mods) <= 1e-14)
    assert mods[0] <= 1.0 + 1e-12


def test_eigenvalue_oracle_diagonal():
    """Known-answer check on a hand-built non-normal matrix."""
    A = np.array([[0.5, 1.0], [0.0, -0.25]], dtype=complex)
    s = _dense_spectrum(A)
    assert s.z == pytest.approx([0.5, -0.25])
    assert np.linalg.norm(A @ s.R - s.R * s.z, axis=0).max() < 1e-14
    assert np.linalg.norm(A.conj().T @ s.L - s.L * s.z.conj(), axis=0).max() < 1e-14


def _phase_entry(M, axis=None):
    """Index of the first entry within a relative 1e-12 of the largest
    modulus, of a vector or of each column (axis 0): the entry `_unit`
    makes real positive."""
    a = np.abs(M)
    return np.argmax(a >= (1 - 1e-12) * a.max(axis=axis), axis=axis)


def _reference_pairs(A, z, V, U):
    """Per-pair reference for `eigenpairs`: normalize each column, make its
    first component within a relative 1e-12 of the largest modulus real
    positive, take the residuals by matrix-vector products, and sort by
    (-|z|, phase)."""
    pairs = []
    for i in range(len(z)):
        v, u = (M[:, i] / np.linalg.norm(M[:, i]) for M in (V, U))
        v, u = (x / ((top := x[_phase_entry(x)]) / abs(top)) for x in (v, u))
        pairs.append((complex(z[i]), v, u,
                      np.linalg.norm(A @ v - z[i] * v),
                      np.linalg.norm(A.conj().T @ u - np.conj(z[i]) * u)))
    pairs.sort(key=lambda p: (-np.abs(p[0]), cmath.phase(p[0])))
    return pairs


@pytest.mark.parametrize("A", [
    open_propagator(27),
    np.array([[0.5, 1.0], [0.0, -0.25]], dtype=complex),
], ids=["open_27", "non_normal_2x2"])
def test_eigenpairs_matches_per_pair_reference(A):
    z, U, V = la.eig(A, left=True, right=True)
    ref = _reference_pairs(A, z, V.copy(), U.copy())
    s = eigenpairs(len(A), [(z, lambda c: V[:, c], lambda c: U[:, c])], _action(A))
    assert s.z.tolist() == [r[0] for r in ref]
    for i, (_, v, u, res_r, res_l) in enumerate(ref):
        for got, want in ((s.R[:, i], v), (s.L[:, i], u)):
            assert abs(np.linalg.norm(got) - 1) < 1e-14
            top = got[_phase_entry(got)]
            assert top.real > 0 and abs(top.imag) < 1e-14
            assert np.abs(got - want).max() < 1e-14
        assert abs(s.res_r[i] - res_r) < 1e-14
        assert abs(s.res_l[i] - res_l) < 1e-14
    assert not s.R.flags.writeable and not s.L.flags.writeable


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["even", "odd"])
def test_unit_phase_ignores_one_ulp_between_parity_images(sign):
    """A column's phase comes from its first entry within a relative 1e-12
    of its largest modulus: of a parity-symmetric column (v[7-n] = +-v[n])
    whose mirrored maxima differ by one ulp, either way round, the lower
    index, so both columns get the same phase, real positive there."""
    half = np.array([0.1, 0.6 * np.exp(0.3j), 0.2 - 0.1j, 0.05j])
    got = []
    for larger in (1, 6):
        v = np.concatenate([half, sign * half[::-1]])
        v[larger] *= 1 + np.finfo(float).eps
        assert abs(v[larger]) > abs(v[7 - larger])
        got.append(spectral._unit(v[:, None])[:, 0])
    for g in got:
        assert g[1].real > 0 and abs(g[1].imag) < 1e-16
    assert np.abs(got[0] - got[1]).max() < 1e-15


@pytest.mark.parametrize("make", [lambda: open_spectrum(243), lambda: sector_spectrum(243, "odd"),
                                  lambda: long_lived_spectrum(6)],
                         ids=["open_243", "odd_243", "walsh_6"])
def test_lift_bits_do_not_depend_on_panels(make, monkeypatch):
    """Lifts and actions that compute each column alone (the open map's FFTs,
    the Walsh map's elementwise products) and norms summed one column at a
    time give bits that do not depend on which columns share a panel: at
    panel widths 1, 7 and 64, a spectrum's z, R, L and both residuals are
    bitwise those of the default panels."""
    names, s = ("z", "R", "L", "res_r", "res_l"), make()
    want = [getattr(s, name).tobytes() for name in names]  # read now, in the default panels
    for width in (1, 7, 64):
        monkeypatch.setattr(spectral, "_PANEL", width)
        got = make()
        for name, bits in zip(names, want):
            assert getattr(got, name).tobytes() == bits, (width, name)


@pytest.mark.parametrize("N", [3, 9, 27, 81, 243, 729])
@pytest.mark.parametrize("sector", ["full", "even", "odd"])
def test_leading_columns_are_bitwise_those_of_R(N, sector):
    """`leading(k)` lifts only the pairs placed below k and is bitwise
    R[:, :k] for k = 1, 2, 20, 100 and len(z), read before R or after it
    (then a view of R)."""
    for k in (1, 2, 20, 100, None):
        s = sector_spectrum(N, sector)
        k = len(s.z) if k is None else k
        lead = s.leading(k)
        assert lead.shape == s.R[:, :k].shape
        assert lead.tobytes() == s.R[:, :k].tobytes(), k
        assert np.shares_memory(s.leading(k), s.R) and not lead.flags.writeable


def _eager_eigenpairs(N, blocks, apply):
    """Reference for `eigenpairs`: the five arrays with L and both residuals
    made with R, as one loop over the same panels, each panel's right and
    left vectors lifted, normalized as F-ordered copies (phase from the
    first entry within a relative 1e-12 of the largest modulus) and placed
    together and its residuals taken on the lifted panels."""
    z = np.concatenate([b[0] for b in blocks])
    order = spectral.decay_order(z)
    at = np.argsort(order)
    R, L = (np.empty((N, len(z)), dtype=complex, order="F") for _ in range(2))
    res_r, res_l = np.empty(len(z)), np.empty(len(z))
    start = 0
    for zb, right, left in blocks:
        for k in range(0, len(zb), spectral._PANEL):
            cols = slice(k, min(k + spectral._PANEL, len(zb)))
            V, U = np.asfortranarray(right(cols)), np.asfortranarray(left(cols))
            for M in (V, U):
                M /= np.linalg.norm(M, axis=0)
                top = M[_phase_entry(M, axis=0), np.arange(M.shape[1])]
                M /= top / np.abs(top)
            dest = at[start + cols.start:start + cols.stop]
            R[:, dest], L[:, dest] = V, U
            res_r[dest] = spectral.residuals(apply, V, zb[cols])
            res_l[dest] = spectral.residuals(lambda X: apply(X, adjoint=True), U,
                                             zb[cols].conj())
        start += len(zb)
    return dict(z=z[order], R=R, L=L, res_r=res_r, res_l=res_l)


@pytest.mark.parametrize("make", [lambda: open_spectrum(243), lambda: sector_spectrum(243, "odd"),
                                  lambda: long_lived_spectrum(5)],
                         ids=["open_243", "odd_243", "walsh_5"])
@pytest.mark.parametrize("first", ["R", "L", "res_r", "res_l", "pairs"])
def test_filled_arrays_do_not_depend_on_the_first_read(make, first, monkeypatch):
    """R, L, res_r and res_l are each made on their own first read, each
    residual on panels lifted anew, so a read makes only the array read
    (`pairs` both residuals); whichever is read first, all five arrays are
    bitwise those of one eager loop that lifts both sides of a panel at once."""
    for module in (experiments, walsh):
        monkeypatch.setattr(module, "eigenpairs", _eager_eigenpairs)
    want = make()
    monkeypatch.undo()
    got = make()
    getattr(got, first)
    made = {"R", "L", "res_r", "res_l"} & set(vars(got))
    assert made == ({"res_r", "res_l"} if first == "pairs" else {first})
    for name, a in want.items():
        assert getattr(got, name).tobytes() == a.tobytes(), name


def test_left_vectors_vanish_on_opening(spec27):
    """Left eigenstates of nonzero resonance live on the backward-trapped
    set, so their opening components are exactly zero (the opening columns
    of U~ vanish)."""
    _, s = spec27
    assert np.abs(s.L[9:18, s.moduli() > 1e-8]).max() < 1e-12


def test_biorthogonality(spec27):
    _, s = spec27
    M = np.abs(s.L.conj().T @ s.R)
    Z = s.z
    distinct = np.abs(Z[:, None] - Z[None, :]) > 1e-8
    off = M[distinct & ~np.eye(27, dtype=bool)]
    assert off.max() < 1e-10


def propagation_identity_check(s, U_tilde, m: int) -> float:
    """Max over pairs of || U~^m v - z^m v ||."""
    if m < 0:
        raise ValueError("m must be >= 0")
    A = np.linalg.matrix_power(np.asarray(U_tilde, dtype=complex), m)
    V = s.R
    Z = s.z ** m
    return float(np.linalg.norm(A @ V - V * Z[None, :], axis=0).max())


def test_propagation_identity(spec27):
    Ut, s = spec27
    assert propagation_identity_check(s, Ut, 0) < 1e-12
    assert propagation_identity_check(s, Ut, 1) < 1e-11
    assert propagation_identity_check(s, Ut, 3) < 1e-10
    with pytest.raises(ValueError):
        propagation_identity_check(s, Ut, -1)


def test_opening_weight_identity(spec27):
    """weight on the opening equals 1 - |z|^2 exactly (operator identity)."""
    _, s = spec27
    measured, _ = escape_weights(s, 0)
    assert np.abs(measured[:, 0] - (1 - s.moduli() ** 2)).max() <= 1e-12


def test_weight_validation(spec27):
    _, s = spec27
    with pytest.raises(ValueError):
        escape_weights(s, -1)


@pytest.mark.parametrize("N, m_max, den", [(9, 2, 27), (81, 4, 243), (12, 1, 9)])
def test_escape_weights_unresolved_grid(N, m_max, den):
    """A grid whose cells do not resolve the deepest escape region asked
    for (3^(m_max+1) does not divide N) fails with both numbers named,
    not with the weights of a wrongly rasterized region."""
    with pytest.raises(ValueError, match=f"need N divisible by {den}, not N = {N}"):
        escape_weights(_uniform_spectrum(N, [0.5]), m_max)


def _uniform_spectrum(N: int, zs) -> Spectrum:
    """A hand-built spectrum with the given eigenvalues, each carrying the
    flat unit vector as its right and left vectors, with zero residuals."""
    V = np.full((N, len(zs)), N**-0.5, dtype=complex)
    return Spectrum(N, np.array(zs, dtype=complex), lambda k, side: V[:, :k],
                    lambda side: np.zeros(len(zs)))


@given(st.floats(0, 1), st.integers(0, 10))
def test_escape_weights_bounds_and_flat_state(r, m_max):
    """Each predicted weight lies in [0, 1], and over the depths m <= M they
    telescope to 1 - |z|^(2(M+1)), so their sum never exceeds 1; a flat
    state's measured weights are the region areas (1/3)(2/3)^m."""
    measured, predicted = escape_weights(_uniform_spectrum(3 ** (m_max + 1), [r]), m_max)
    assert ((0.0 <= predicted) & (predicted <= 1.0)).all()
    assert predicted.sum() == pytest.approx(1.0 - (r * r) ** (m_max + 1), abs=1e-12)
    assert np.abs(measured[0] - (2 / 3) ** np.arange(m_max + 1) / 3).max() < 1e-12


def test_predicted_escape_weights_values():
    _, predicted = escape_weights(_uniform_spectrum(81, [0.0, 1.0, 0.5]), 3)
    assert predicted[0, 0] == 1.0
    assert predicted[1, 3] == 0.0
    assert predicted[2, 1] == pytest.approx(0.25 * 0.75)


def _per_pair_weights(s: Spectrum, m_max: int):
    """Reference for `escape_weights`: each pair's mass on each escape
    projector, summed vector by vector, and |z|^(2m) (1 - |z|^2) in Python
    floats."""
    projs = [escape_projector(m, s.N) for m in range(m_max + 1)]
    measured = [[float((d * np.abs(v) ** 2).sum()) for d in projs] for v in s.R.T]
    predicted = [[(r ** 2) ** m * (1.0 - r ** 2) for m in range(m_max + 1)]
                 for r in s.moduli().tolist()]
    return np.array(measured), np.array(predicted)


@pytest.mark.parametrize("make, m_max", [(lambda: open_spectrum(81), 2),
                                         (lambda: long_lived_spectrum(4), 3)],
                         ids=["open_81", "walsh_81"])
def test_escape_weights_match_per_pair_formula(make, m_max):
    """The (pairs x depths) tables equal the per-pair sums to round-off: the
    masses within 1e-15, as they differ only in summation order, and the
    predictions within 1e-16, by pow's last bit."""
    s = make()
    measured, predicted = escape_weights(s, m_max)
    ref_measured, ref_predicted = _per_pair_weights(s, m_max)
    assert measured.shape == predicted.shape == (len(s.z), m_max + 1)
    assert np.abs(measured - ref_measured).max() < 1e-15
    assert np.abs(predicted - ref_predicted).max() < 1e-16


def test_gamma():
    """The gamma column is -ln|z|^2, and inf at an exact z = 0 computed
    (here a hand-built pair), with no divide-by-zero warning."""
    s = _uniform_spectrum(2, [0.5, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma = spectrum_table(s)["gamma"]
    assert len(gamma) == 2
    assert gamma[0] == pytest.approx(-2 * math.log(0.5))
    assert math.isinf(gamma[1]) and gamma[1] > 0


def test_longest_lived_lead_and_selection_limits(spec27, tmp_path):
    """Pairs are sorted by decreasing modulus, so the `count` longest-lived
    states are the first `count` columns. An empty selection fails, and so
    does one larger than a sector: at N = 27 a parity sector holds 9 pairs,
    fewer than the 20 that the density figure averages, so `density` refuses
    n_exp 3 instead of averaging fewer (a sector at N = 81 holds 27)."""
    _, s = spec27
    mod = s.moduli()
    assert mod[0] == mod.max() and mod[:5].min() >= mod[5:].max()
    with pytest.raises(ValueError, match="count >= 1"):
        run_husimi_figure(RunConfig(n_exp=3, count=0, out_dir=tmp_path))
    assert len(sector_spectrum(27, "even").z) == 9
    assert len(sector_spectrum(81, "even").z) == 27
    with pytest.raises(ValueError, match="n_exp >= 4"):
        run_density_figures(RunConfig(n_exp=3, out_dir=tmp_path))


def test_csv_rows(spec27):
    _, s = spec27
    table = spectrum_table(s)
    assert list(table)[:4] == ["index", "re_z", "im_z", "modulus"]
    assert all(len(column) == 27 for column in table.values())
    # round-trip safety of the 17-digit rendering
    z = complex(float(fmt(table["re_z"][0])), float(fmt(table["im_z"][0])))
    assert z == s.z[0]


def test_weight_sum_over_escape_depths(spec27):
    """Measured weights over all resolvable depths plus the trapped remainder
    account for the whole state."""
    _, s = spec27
    measured, _ = escape_weights(s, 1)
    total = measured.sum(axis=1)
    assert (total <= 1.0 + 1e-12).all()
    assert (total >= measured[:, 0] - 1e-12).all()
