import math

import numpy as np
import pytest

from openbaker import spectral, walsh
from openbaker.spectral import escape_weights
from openbaker.walsh import (
    MAX_K,
    ZERO_THRESHOLD,
    _apply,
    _singular_values,
    long_lived_spectrum,
    long_lived_weights,
    nonzero_count,
    walsh_spectrum_report,
)
from interval_ops import escape_projector
from walsh_dense import (
    digit_reversal,
    dual_basis,
    subspace_spectrum,
    trapped_bases,
    trapped_svd,
    walsh_open_baker,
    walsh_transform,
)
from test_phase_space import _traced_peak

F3 = np.exp(-2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / np.sqrt(3)


def test_digit_reversal():
    assert list(digit_reversal(1)) == [0, 1, 2]
    # two ternary digits: (d0 d1) -> (d1 d0)
    assert list(digit_reversal(2)) == [0, 3, 6, 1, 4, 7, 2, 5, 8]
    r = digit_reversal(4)
    assert np.array_equal(r[r], np.arange(81))  # involution


def test_walsh_transform_unitary():
    for k in (1, 2, 3, 4):
        W = walsh_transform(k)
        N = 3**k
        assert np.allclose(W @ W.conj().T, np.eye(N), atol=1e-13)


def test_walsh_transform_tensor_oracle():
    """k = 2 transform from first principles: entry (n, m) couples the
    reversed ternary digits of n with those of m through 3x3 DFT factors."""
    W = walsh_transform(2)
    for n in range(9):
        for m in range(9):
            n1, n0 = divmod(n, 3)   # n = 3*n1 + n0; row permuted to 3*n0 + n1
            m1, m0 = divmod(m, 3)
            expected = F3[n0, m1] * F3[n1, m0]
            assert W[n, m] == pytest.approx(expected, abs=1e-14)


def test_walsh_open_subunitarity():
    """The exact opening identity holds for the Walsh quantization too, for
    the O(N) operator and for the dense reference."""
    for k in (2, 3, 4):
        N = 3**k
        pi0 = np.diag(escape_projector(0, N))
        for Ut in (_apply(np.eye(N, dtype=complex)), walsh_open_baker(k)):
            assert np.linalg.norm(Ut.conj().T @ Ut - (np.eye(N) - pi0)) < 1e-13
    with pytest.raises(ValueError):
        walsh_open_baker(1)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_digit_structure_matches_dense_reference(k):
    """The O(N) operator and its adjoint equal the dense
    W_N^-1 diag(W_{N/3} x3) (I - pi_0) and its conjugate transpose, on
    blocks and on single vectors; U~^k is the Kronecker power of the digit
    matrix."""
    N = 3**k
    Ut = _apply(np.eye(N, dtype=complex))
    assert np.abs(Ut - walsh_open_baker(k)).max() < 1e-14
    Uh = _apply(np.eye(N, dtype=complex), adjoint=True)
    assert np.abs(Uh - walsh_open_baker(k).conj().T).max() < 1e-14
    X = np.random.default_rng(k).standard_normal((N, 5)) + 0j
    assert np.abs(_apply(X) - Ut @ X).max() < 1e-14
    assert np.abs(_apply(X[:, 0]) - Ut @ X[:, 0]).max() < 1e-14
    assert np.abs(_apply(X, adjoint=True) - Ut.conj().T @ X).max() < 1e-14
    assert np.abs(_apply(X[:, 0], adjoint=True) - Ut.conj().T @ X[:, 0]).max() < 1e-14
    M = Ut[:3, ::N // 3]  # rows 0..2 of U~ hold M on columns 0, N/3, 2N/3
    Mk = M
    for _ in range(k - 1):
        Mk = np.kron(Mk, M)
    assert np.abs(np.linalg.matrix_power(Ut, k) - Mk).max() < 1e-14


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_trapped_bases_match_dense_svd(k):
    """Q = Q1^(x)k spans the dense SVD's range of U~^k, the Cantor
    coordinates span its co-range, and the singular-value products and the
    count equal the dense SVD's."""
    N = 3**k
    sv, X, P = trapped_svd(k)
    Q, cantor = trapped_bases(k)
    assert Q.shape == (N, 2**k) and len(cantor) == 2**k
    assert np.abs(Q.conj().T @ Q - np.eye(2**k)).max() < 1e-13
    assert np.abs(Q @ Q.conj().T - X @ X.conj().T).max() < 1e-12
    assert np.abs(P @ P.conj().T - np.diag(np.isin(np.arange(N), cantor))).max() < 1e-12
    assert all(set(np.base_repr(n, 3)) <= {"0", "2"} for n in cantor)
    products = np.sort(np.repeat(*zip(*_singular_values(k))))[::-1]
    assert np.abs(products - sv).max() < 1e-12
    assert nonzero_count(k) == int((sv > ZERO_THRESHOLD).sum()) == 2**k


@pytest.mark.parametrize("k", [2, 3, 4])
def test_nonzero_count_is_power_of_two(k):
    assert nonzero_count(k) == 2**k


def test_nonzero_count_threshold_stable():
    """The count is the same for any threshold between round-off and
    ZERO_THRESHOLD: the singular values of U~^3 are 1 or exactly 0."""
    sv = _singular_values(3)
    for t in (1e-12, 1e-10, 1e-8, ZERO_THRESHOLD):
        assert sum(m for s, m in sv if s > t) == 8
    assert nonzero_count(3) == 8


def test_nilpotent_remainder():
    """U~ restricted to the complement of the long-lived subspace is
    nilpotent: U~^k has rank exactly 2^k, and the next power keeps it."""
    k = 3
    Ut = walsh_open_baker(k)
    r1 = np.linalg.matrix_rank(np.linalg.matrix_power(Ut, k), tol=1e-10)
    r2 = np.linalg.matrix_rank(np.linalg.matrix_power(Ut, k + 1), tol=1e-10)
    assert r1 == r2 == 2**k


def test_long_lived_spectrum_refined():
    s = long_lived_spectrum(3)
    assert len(s.z) == nonzero_count(3) == 8
    assert s.res_r.max() < 1e-12
    assert s.res_l.max() < 1e-12
    assert s.moduli().min() > 0.1


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_reported_residuals_are_those_of_the_dense_propagator(k):
    """The residuals taken through the O(N) operator and its adjoint equal
    those of the dense reference U~ applied to the same vectors."""
    Ut = walsh_open_baker(k)
    s = long_lived_spectrum(k)
    r = np.linalg.norm(Ut @ s.R - s.R * s.z, axis=0)
    l = np.linalg.norm(Ut.conj().T @ s.L - s.L * s.z.conj(), axis=0)
    assert np.abs(s.res_r - r).max() < 1e-14
    assert np.abs(s.res_l - l).max() < 1e-14
    assert max(r.max(), l.max()) < 1e-13


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_kernel_reported_as_exact_zeros(k):
    """Only the 2^k trapped-subspace pairs are resonances; the report gives
    the N - 2^k kernel rows z = 0 exactly and no round-off fragment."""
    N, r = 3**k, 2**k
    assert len(long_lived_spectrum(k).z) == r
    table = walsh_spectrum_report(k)
    assert all(len(column) == N for column in table.values())
    assert table["long_lived"][:r].all()
    for name in ("re_z", "im_z", "modulus"):
        assert (table[name][r:] == 0.0).all()
    assert not table["long_lived"][r:].any() and (table["kernel_dim"][r:] == N - r).all()
    assert not ((0.0 < table["modulus"]) & (table["modulus"] < 1e-3)).any()


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_long_lived_subspace_cross_check(k):
    """The 2^k invariant-subspace pairs against an independent dense
    eigensolve: same eigenvalues, round-off residuals on both sides,
    biorthogonality inside the degenerate clusters and the exact weights."""
    r = 2**k
    Ut = walsh_open_baker(k)
    s = long_lived_spectrum(k)
    z = s.z
    assert len(z) == r
    ev = np.linalg.eigvals(Ut)
    dense = list(ev[np.argsort(-np.abs(ev))][:r])
    for zi in z:
        j = int(np.argmin(np.abs(np.array(dense) - zi)))
        assert abs(dense.pop(j) - zi) < 1e-12
    assert s.res_r.max() < 1e-13
    assert s.res_l.max() < 1e-13
    G = np.abs(s.L.conj().T @ s.R)
    assert (G - np.diag(np.diag(G))).max() < 1e-12
    measured, predicted = escape_weights(s, min(5, k) - 1)
    assert np.abs(measured - predicted).max() < 1e-12


@pytest.mark.parametrize("k", [3, 4])
def test_weight_formula_exact(k):
    """For the Walsh map the semiclassical weight formula has no error term:
    weight(m) = |z|^(2m) (1 - |z|^2) at round-off for every long-lived state."""
    measured, predicted = escape_weights(long_lived_spectrum(k), k - 1)
    assert measured.shape == (2**k, k)
    assert np.abs(measured - predicted).max() < 1e-12


# eigenvalues of the digit matrix restricted to the trapped digits {0, 2}
MU = np.linalg.eigvals(F3.conj()[np.ix_([0, 2], [0, 2])])


def necklace_eigenvalues(k: int) -> np.ndarray:
    """Closed-form Walsh spectrum: each binary necklace w of length k and
    primitive period p gives (mu_{w_0} ... mu_{w_{p-1}})^(1/p) e^(2 pi i j/p),
    j = 0..p-1 (Nonnenmacher & Zworski 2007)."""
    out, seen = [], set()
    for n in range(2**k):
        w = [n >> i & 1 for i in range(k)]
        orbit = {tuple(w[i:] + w[:i]) for i in range(k)}
        rep, p = min(orbit), len(orbit)
        if rep not in seen:
            seen.add(rep)
            root = np.prod(MU[list(rep[:p])]) ** (1 / p)
            out += [root * np.exp(2j * np.pi * j / p) for j in range(p)]
    return np.array(out)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_necklace_eigenvalues(k):
    """The 2^k long-lived eigenvalues are the necklace multiset to 1e-14."""
    z = list(long_lived_spectrum(k).z)
    expected = necklace_eigenvalues(k)
    assert len(z) == len(expected) == 2**k
    for e in expected:
        j = int(np.argmin(np.abs(np.array(z) - e)))
        assert abs(z.pop(j) - e) < 1e-14


def test_moduli_structure():
    """Long-lived Walsh moduli take exactly the values |mu_0|^(j/k)
    |mu_1|^(1 - j/k), each C(k, j) times: a word with j zeros in its
    period p contributes |mu_0|^(j/p) |mu_1|^(1 - j/p) for each of its
    rotations."""
    a0, a1 = np.abs(MU)
    for k in (3, 4, 5):
        expected = np.sort(np.repeat([a0 ** (j / k) * a1 ** (1 - j / k) for j in range(k + 1)],
                                     [math.comb(k, j) for j in range(k + 1)]))
        assert np.abs(np.sort(long_lived_spectrum(k).moduli()) - expected).max() < 1e-14


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
def test_left_vectors_vanish_off_cantor_digits(k):
    """Every long-lived left vector is exactly zero on the indices with a
    ternary digit 1 (the forward trapped set in exact form), while the
    right vectors spread over all of them."""
    N = 3**k
    s = long_lived_spectrum(k)
    digit_one = np.array(["1" in np.base_repr(n, 3) for n in range(N)])
    assert (s.L[digit_one] == 0).all()
    assert (np.abs(s.R[digit_one]) > 0).any(axis=0).all()


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
def test_closed_form_matches_subspace_route(k):
    """The necklace pairs against the subspace route they replaced (the
    eigensolve of Q^H U~ Q, `walsh_dense.subspace_spectrum`): the same
    eigenvalue multiset; each cluster of equal eigenvalues (their distinct
    values lie at least 0.097 apart up to k = 8) spans the same invariant
    subspace, compared as the sine of the largest principal angle between
    the two spans, since the vectors inside a cluster are a choice of basis;
    and the closed-form weights equal `escape_weights` on the lifted R, with
    the predictions bitwise. The left vectors, the closed-form dual
    (E Y[{0, 2}]^-H)^(x)k D, equal the dual basis of R made by the inverse
    (`walsh_dense.dual_basis`), normalized alike, and L^H R is diagonal."""
    s, ref = long_lived_spectrum(k), subspace_spectrum(k)
    cantor = trapped_bases(k)[1]
    assert np.abs(spectral._unit(dual_basis(s.R, cantor)) - s.L).max() < 3e-15
    gram = np.abs(s.L.conj().T @ s.R)
    assert (gram - np.diag(np.diag(gram))).max() < 4e-16
    assert len(s.z) == len(ref.z) == 2**k
    rest = list(ref.z)
    for z in s.z:
        j = int(np.argmin(np.abs(np.array(rest) - z)))
        assert abs(rest.pop(j) - z) < 3e-14
    for z in np.unique(np.round(s.z, 9)):
        ours, theirs = (np.linalg.qr(t.R[:, np.abs(t.z - z) < 1e-8])[0] for t in (s, ref))
        assert ours.shape == theirs.shape
        assert np.linalg.norm(theirs - ours @ (ours.conj().T @ theirs), 2) < 1e-13
    m_max = min(4, k - 1)
    measured, predicted = long_lived_weights(k, m_max)
    lifted, predicted_lifted = escape_weights(s, m_max)
    assert np.abs(measured - lifted).max() < 5e-14
    assert predicted.tobytes() == predicted_lifted.tobytes()
    for bad in ((k, k), (k, -1), (MAX_K + 1, 4)):
        with pytest.raises(ValueError, match="m_max < k <= 8"):
            long_lived_weights(*bad)


def test_left_vectors_need_no_linalg(monkeypatch):
    """The left vectors are the closed-form dual of the necklace columns,
    lifted by elementwise products: building the pairs at k = 8 and reading
    L calls no `numpy.linalg` function but the column norms of
    `spectral.eigenpairs` (no inverse, solve or eigensolve)."""
    called = []
    for name in np.linalg.__all__:
        f = getattr(np.linalg, name)
        if callable(f) and not isinstance(f, type):
            monkeypatch.setattr(np.linalg, name, lambda *a, f=f, name=name, **kw:
                                called.append(name) or f(*a, **kw))
    walsh._necklace_pairs.cache_clear()
    long_lived_spectrum(8).L
    assert called and set(called) == {"norm"}, sorted(set(called))


def test_long_lived_spectrum_peak_memory():
    """The Walsh pairs are lifted a panel at a time from their 2^k x 2^k
    coefficients, one digit at a time, so beside the spectrum's R (N x 2^k)
    only a few N x 32 panels are alive: within 40 MiB traced at k = 8, R
    read. A route that holds another N x 2^k array beside R, as a basis Q
    for the lifts, exceeds the bound."""
    assert _traced_peak(lambda: long_lived_spectrum(8).R) <= 40 * 2**20


def test_walsh_spectrum_report():
    table = walsh_spectrum_report(3)
    assert all(len(column) == 27 for column in table.values())
    long = table["long_lived"]
    assert long.sum() == 8
    assert (table["kernel_dim"] == 27 - 8).all()
    assert table["max_weight_residual"][long].max() < 1e-12
    with pytest.raises(ValueError):
        walsh_spectrum_report(1)
