import tracemalloc

import numpy as np
import pytest

from openbaker import phase_space
from openbaker.classical import cantor_approx, region_R_plus
from openbaker.phase_space import (
    average_density,
    band_mass,
    cantor_mass,
    husimi_grids,
    interval_mask,
    momentum_density,
    position_density,
    self_similarity_score,
    unit_sum,
    wigner_grid_average,
)
from openbaker.quantum import dft_matrix
from interval_ops import escape_projector
from open_dense import (open_propagator, wigner_dense, wigner_full, wigner_momentum_marginal,
                        wigner_position_marginal)
from torus_reference import TorusPoint, coherent_vector, region_R_minus


def _brute_phase_point_operator(N, j, l):
    """Displaced-parity phase-point operator built operator-by-operator:
    A(j, l) = B(l) S(j) P S(j)^dag B(l)^dag with S a half-step position
    shift, B a half-step momentum boost and P the parity."""
    n = np.arange(N)
    P = np.eye(N)[::-1]
    F = dft_matrix(N)
    # position shift by j/2 grid units acts in momentum representation
    S = F.conj().T @ np.diag(np.exp(-2j * np.pi * (n + 0.5) * (j / 2.0) / N)) @ F
    B = np.diag(np.exp(2j * np.pi * (n + 0.5) * (l / 2.0) / N))
    return B @ S @ P @ S.conj().T @ B.conj().T


def test_wigner_matches_brute_force_operator():
    """Closed-form Wigner grid equals <psi|A(j,l)|psi>/(2N) at every
    doubled-grid point (N = 9 brute force)."""
    N = 9
    rng = np.random.default_rng(5)
    psi = rng.normal(size=N) + 1j * rng.normal(size=N)
    psi /= np.linalg.norm(psi)
    W = wigner_full(wigner_grid_average(psi[:, None]))
    for j in range(0, 2 * N, 3):
        for l in range(0, 2 * N, 5):
            A = _brute_phase_point_operator(N, j, l)
            expected = (psi.conj() @ A @ psi).real / (4 * N)
            assert W[j, l] == pytest.approx(expected, abs=1e-12)


def test_coherent_state_normalized_and_localized():
    N = 81
    v = coherent_vector(TorusPoint(0.2, 0.7), N)
    assert abs(np.linalg.norm(v) - 1) < 1e-12
    dens = np.abs(v) ** 2
    peak = int(np.argmax(dens))
    assert abs((peak + 0.5) / N - 0.2) < 3 / N
    mdens = np.abs(dft_matrix(N) @ v) ** 2
    assert abs((int(np.argmax(mdens)) + 0.5) / N - 0.7) < 3 / N
    with pytest.raises(ValueError):
        coherent_vector(TorusPoint(0.2, 0.7), 2)


def test_coherent_overlap_decay():
    """Packets separated by 5 sigma in both coordinates are numerically
    orthogonal (diagonal separation used: a position-only split leaves an
    O(1e-3) Gaussian tail)."""
    N = 243
    sigma = 1.0 / np.sqrt(2 * np.pi * N)
    a = coherent_vector(TorusPoint(0.3, 0.3), N)
    b = coherent_vector(TorusPoint(0.3 + 5 * sigma, 0.3 + 5 * sigma), N)
    assert abs(np.vdot(a, b)) < 1e-4


@pytest.mark.parametrize("q0, p0", [(0.01, 0.37), (0.5, 0.81), (0.97, 0.12)])
def test_coherent_vector_matches_image_sum(q0, p0):
    """The factorized packet equals the direct sum over three lattice images
    sum_nu (-1)^nu exp(-pi N (q_n - q0 + nu)^2 + 2 pi i N p0 (q_n + nu - q0/2))."""
    N = 81
    qn = (np.arange(N) + 0.5) / N
    ref = sum((-1.0) ** nu * np.exp(-np.pi * N * (qn - q0 + nu) ** 2
                                    + 2j * np.pi * N * p0 * (qn + nu - q0 / 2))
              for nu in (-1, 0, 1))
    ref /= np.linalg.norm(ref)
    assert np.abs(coherent_vector(TorusPoint(q0, p0), N) - ref).max() < 1e-12


def test_coherent_antiperiodic_images():
    """Wrapping across q = 0 keeps the packet smooth: a center near the edge
    still yields a unit-norm localized state."""
    N = 81
    v = coherent_vector(TorusPoint(0.01, 0.5), N)
    assert abs(np.linalg.norm(v) - 1) < 1e-12
    dens = np.abs(v) ** 2
    assert dens[0] + dens[-1] > 10 * dens[N // 2]


def test_husimi_grid_peak_and_norm():
    N, G = 81, 27
    v = coherent_vector(TorusPoint(0.25, 0.6), N)
    [H] = husimi_grids(v[:, None], G)
    assert H.shape == (G, G)
    assert H.sum() == pytest.approx(1.0)
    i, j = np.unravel_index(np.argmax(H), H.shape)
    assert abs((i + 0.5) / G - 0.25) < 2 / G
    assert abs((j + 0.5) / G - 0.6) < 2 / G
    with pytest.raises(ValueError):
        husimi_grids(v[:, None], 4)


def test_husimi_grids_batch_matches_single():
    """An N x S block is S states, one per column: one image per column,
    each that of the column alone."""
    N, G = 27, 9
    rng = np.random.default_rng(0)
    X = np.column_stack([rng.normal(size=N) + 1j * rng.normal(size=N) for _ in range(3)])
    batch = list(husimi_grids(X, G))
    assert len(batch) == 3
    for k, h in enumerate(batch):
        assert np.allclose(h, list(husimi_grids(X[:, k:k + 1], G))[0], atol=1e-12)


@pytest.mark.parametrize("N, G", [(81, 27), (81, 10), (3, 81), (81, 11), (243, 100)])
def test_husimi_grids_match_coherent_overlaps(N, G):
    """Every image value equals |<x|psi>|^2 with |x> = coherent_vector at the
    cell centre, whether or not G divides N: G > 3N, G coprime to N and G
    not dividing N take the zero-padded fold, and the packet norm then
    depends on the momentum centre."""
    rng = np.random.default_rng(6)
    X = np.column_stack([rng.normal(size=N) + 1j * rng.normal(size=N) for _ in range(2)])
    images = list(husimi_grids(X, G))
    assert len(images) == 2
    for psi, h in zip(X.T, images):
        ref = np.array([[abs(np.vdot(coherent_vector(TorusPoint((i + 0.5) / G, (j + 0.5) / G), N),
                                     psi)) ** 2 for j in range(G)] for i in range(G)])
        assert np.abs(h - ref / ref.sum()).max() < 1e-12


def test_wigner_total_and_marginals():
    N = 27
    rng = np.random.default_rng(1)
    psi = rng.normal(size=N) + 1j * rng.normal(size=N)
    psi /= np.linalg.norm(psi)
    W = wigner_full(wigner_grid_average(psi[:, None]))
    assert W.shape == (2 * N, 2 * N)
    assert W.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(wigner_position_marginal(W), np.abs(psi) ** 2, atol=1e-12)
    assert np.allclose(wigner_momentum_marginal(W),
                       np.abs(dft_matrix(N) @ psi) ** 2, atol=1e-12)


def test_wigner_near_positive_at_packet_center():
    """A coherent state's Wigner function is positive in a neighborhood of
    the packet center. (Globally the discrete torus transform carries
    oscillatory cross-terms between lattice images at half-torus
    displacement, so only the local statement holds.)"""
    N = 81
    q0, p0 = 0.25, 0.7
    v = coherent_vector(TorusPoint(q0, p0), N)
    W = wigner_full(wigner_grid_average(v[:, None]))
    # doubled-grid coordinates of the center: position rows sit at j = 2n+1,
    # momentum columns at l = (2n - N + 1) mod 2N
    nq = round(q0 * N - 0.5)
    np_ = round(p0 * N - 0.5)
    jr, lc = 2 * nq + 1, (2 * np_ - N + 1) % (2 * N)
    assert W[jr, lc] == pytest.approx(W.max(), rel=1e-10)
    rows = np.arange(jr - 6, jr + 7) % (2 * N)
    cols = np.arange(lc - 6, lc + 7) % (2 * N)
    assert W[np.ix_(rows, cols)].min() > 0


def test_wigner_average_is_mean():
    """The Wigner average of an N x S block is the mean of its columns'
    Wigner functions; an empty block has none."""
    N = 27
    rng = np.random.default_rng(2)
    X = np.column_stack([rng.normal(size=N) + 1j * rng.normal(size=N) for _ in range(3)])
    avg = wigner_full(wigner_grid_average(X))
    assert avg.shape == (2 * N, 2 * N)
    mean = np.mean([wigner_full(wigner_grid_average(X[:, k:k + 1])) for k in range(3)], axis=0)
    assert np.allclose(avg, mean, atol=1e-13)
    with pytest.raises(ValueError):
        wigner_grid_average(np.empty((N, 0), dtype=complex))


def _random_states(N, S, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(N, S)) + 1j * rng.normal(size=(N, S))
    return X / np.linalg.norm(X, axis=0)


def _traced_peak(f, *args) -> int:
    """Peak bytes that NumPy and Python allocate while f(*args) runs."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rows", [None, 1, 7])
@pytest.mark.parametrize("S", [1, 5, 40])
@pytest.mark.parametrize("N", [27, 81])
def test_wigner_matches_dense_reference(monkeypatch, N, S, rows):
    """The blocked Wigner average equals the dense half-grid reference. `rows`
    sets the rows of W per block (1, or 7, which leaves a short last block);
    None keeps the default budget, one block at these N. The bound is
    1e-14 max|W|. The package returns rows j < N, and `wigner_full` rebuilds
    rows j + N as their copies; the reference computes both halves, which
    agree to the same bound."""
    if rows:
        monkeypatch.setattr(phase_space, "_WIGNER_BLOCK_BYTES", 32 * N * rows)
    X = _random_states(N, S, seed=N + S)
    W, ref = wigner_full(wigner_grid_average(X)), wigner_dense(X)
    assert W.shape == ref.shape == (2 * N, 2 * N)
    assert np.abs(W - ref).max() <= 1e-14 * np.abs(ref).max()
    assert np.array_equal(W[N:], W[:N])
    assert np.abs(ref[N:] - ref[:N]).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("N", [8, 10])
def test_wigner_even_n(N):
    """For even N two entries of a row share one a - b and add, and rows
    j + N are rows j negated: the grid still equals <psi|A(j,l)|psi>/(4N)
    at every doubled-grid point (within 1e-12) and the dense reference
    (within 1e-14 max|W|), with the lower half rebuilt by `wigner_full`."""
    X = _random_states(N, 3, seed=N)
    W = wigner_full(wigner_grid_average(X))
    assert np.array_equal(W[N:], -W[:N])
    assert np.abs(W - wigner_dense(X)).max() <= 1e-14 * np.abs(W).max()
    psi = X[:, 0]
    W = wigner_full(wigner_grid_average(psi[:, None]))
    for j in range(2 * N):
        for l in range(2 * N):
            A = _brute_phase_point_operator(N, j, l)
            assert W[j, l] == pytest.approx((psi.conj() @ A @ psi).real / (4 * N), abs=1e-12)


def test_wigner_peak_memory_is_a_few_grids():
    """No 2N x 2N density matrix, no half-grid amplitudes and no (2N)^2
    grid: at N = 729, S = 100 the traced peak stays within 1.4 times the
    bytes of a real (2N)^2 grid, which the N x 2N upper half, the N x N
    complex rho of the same size and the row blocks fill."""
    N = 729
    X = _random_states(N, 100)
    assert _traced_peak(wigner_grid_average, X) <= 1.4 * (2 * N) ** 2 * 8


def test_husimi_peak_memory_grows_only_by_the_images():
    """The fold, FFT and |.|^2 run in blocks of states, so from 64 to 192
    states (N = 243, G = 81), all read into a list, the traced peak grows by
    no more than 1.25 times the bytes of the 128 more output images."""
    N, G = 243, 81
    X = _random_states(N, 192)
    small = _traced_peak(lambda V: list(husimi_grids(V, G)), X[:, :64])
    large = _traced_peak(lambda V: list(husimi_grids(V, G)), X)
    assert large - small <= 1.25 * 128 * G * G * 8


def test_densities():
    N = 27
    rng = np.random.default_rng(4)
    psi = rng.normal(size=N) + 1j * rng.normal(size=N)
    psi /= np.linalg.norm(psi)
    pd = position_density(psi)
    md = momentum_density(psi[:, None])
    assert pd.sum() == pytest.approx(1.0)
    assert md.shape == (N, 1) and md.sum() == pytest.approx(1.0)
    avg = average_density([pd, pd])
    assert np.allclose(avg, pd)
    # a block's densities are its columns'
    X = np.column_stack([psi, psi[::-1]])
    assert np.array_equal(position_density(X)[:, 1], pd[::-1])
    assert np.allclose(momentum_density(X)[:, 0], md[:, 0], atol=1e-15)
    with pytest.raises(ValueError):
        average_density([])
    assert np.array_equal(unit_sum(np.array([1.0, 3.0])), [0.25, 0.75])
    with pytest.raises(ValueError):
        unit_sum(np.zeros(3))


@pytest.mark.parametrize("case", ["images", "strided_rows", "single"])
def test_average_density_of_a_stream_is_the_stack_mean(case):
    """A running sum adds the densities in order and divides by their count,
    as `np.mean` of their stack does: a generator of Husimi images, of the
    strided rows of a transposed density block, or of one density averages
    to the bits of the stack's mean, in C order."""
    X = _random_states(81, 7, seed=5)
    densities = {"images": list(husimi_grids(X, 27)),
                 "strided_rows": list(momentum_density(X).T),
                 "single": [position_density(X[:, 0])]}[case]
    avg = average_density(d for d in densities)
    assert np.array_equal(avg, unit_sum(np.mean(np.stack(densities), axis=0)))
    assert avg.flags.c_contiguous


def test_average_density_rejects_no_densities_and_mixed_shapes():
    """No density, or densities of two shapes: a running sum would broadcast
    a row into an image, so the shapes are compared."""
    with pytest.raises(ValueError):
        average_density(iter([]))
    for first, second in ((np.ones((4, 4)), np.ones(4)), (np.ones(4), np.ones((4, 4)))):
        with pytest.raises(ValueError):
            average_density(iter([first, second]))


def test_average_density_holds_a_few_images():
    """Averaging 200 images of 81^2 from a generator holds the running sum,
    the image being added and the next one: within 3.25 images traced."""
    G = 81
    rng = np.random.default_rng(2)
    images = (rng.random((G, G)) for _ in range(200))
    assert _traced_peak(average_density, images) <= 3.25 * G * G * 8


@pytest.mark.parametrize("N", [27, 243])
def test_momentum_density_matches_dense_dft(N):
    rng = np.random.default_rng(N)
    psi = rng.normal(size=N) + 1j * rng.normal(size=N)
    psi /= np.linalg.norm(psi)
    ref = np.abs(dft_matrix(N) @ psi) ** 2
    assert np.abs(momentum_density(psi[:, None])[:, 0] - ref).max() < 1e-13
    # a single vector gives its one density, the bits of its column's
    assert np.array_equal(momentum_density(psi), momentum_density(psi[:, None])[:, 0])


def test_cantor_and_band_mass():
    N = 81
    vals = np.zeros(N)
    grid = (np.arange(N) + 0.5) / N
    keep = cantor_approx(3)
    for a, b in keep.intervals:
        vals[(grid >= float(a)) & (grid < float(b))] = 1.0
    assert np.array_equal(vals > 0, interval_mask(keep, N))
    assert interval_mask(cantor_approx(1), 9).tolist() == [True] * 3 + [False] * 3 + [True] * 3
    assert cantor_mass(vals, 1) == pytest.approx(1.0)
    assert cantor_mass(vals, 3) == pytest.approx(1.0)
    assert band_mass(vals, keep) == pytest.approx(1.0)
    flat = np.ones(N)
    assert cantor_mass(flat, 2) == pytest.approx(4 / 9)
    with pytest.raises(ValueError):
        cantor_mass(flat, 0)
    with pytest.raises(ValueError):
        cantor_mass(np.ones(10), 1)


@pytest.mark.parametrize("k", range(1, 7))
def test_interval_mask_matches_exact_escape_projector(k):
    """On a grid that resolves them (N = 3^k, m <= k-1), the grid-cell
    centre rule selects exactly the cells that the exact rational rule
    does: a centre lies 1/(2N) from every endpoint of R_+^m."""
    N = 3**k
    for m in range(k):
        assert np.array_equal(interval_mask(region_R_plus(m), N), escape_projector(m, N) == 1.0)


def test_self_similarity():
    # an exactly self-affine density scores 1
    vals = np.zeros(81)
    grid = (np.arange(81) + 0.5) / 81
    for a, b in cantor_approx(4).intervals:
        vals[(grid >= float(a)) & (grid < float(b))] = 1.0
    assert self_similarity_score(vals) > 0.99
    flat = np.ones(81)
    with pytest.raises(ValueError):
        self_similarity_score(flat)  # zero variance
    with pytest.raises(ValueError):
        self_similarity_score(np.ones(80))


def kill_property_check(U_tilde: np.ndarray, m: int, centers) -> float:
    """Max over coherent states centered in the m-step backward escape region
    of ||(U~^dag)^m |x>||; decays as N grows."""
    A_dag = np.asarray(U_tilde, dtype=complex).conj().T
    V = np.column_stack([coherent_vector(c, A_dag.shape[0]) for c in centers])
    for _ in range(m):
        V = A_dag @ V
    return float(np.linalg.norm(V, axis=0).max())


def test_kill_property_small_N():
    """The adjoint open propagator annihilates packets whose momentum lies
    in the backward escape strips (their inverse orbit enters the opening
    within m steps), up to wave-packet tails; packets off those strips
    survive."""
    N = 81
    Ut = open_propagator(N)
    centers = [TorusPoint(q, float((a + b) / 2))
               for a, b in region_R_minus(1).intervals
               for q in (0.1, 0.5, 0.9)]
    gone = kill_property_check(Ut, 1, centers)
    stay = kill_property_check(Ut, 1, [TorusPoint(0.05, 0.05)])
    assert gone < 1e-3
    assert stay > 0.5
    # deeper strips are killed only semiclassically: the m = 2 residual is
    # O(1) at this N and shrinks as N grows (checked at larger N in the
    # acceptance suite via the one-step property)
    deep = [TorusPoint(0.1, float((a + b) / 2))
            for a, b in region_R_minus(2).intervals]
    assert kill_property_check(Ut, 2, deep) < 0.5
