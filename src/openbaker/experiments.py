"""Figure-level pipelines.

Each experiment consumes a RunConfig, writes CSV (or JSON) tables plus PGM
images under the configured output directory, and returns a dict of the
emitted aggregates (`run_spectrum` returns its table's path). A table is
handed to `_emit` as columns, header -> 1-D sequence of numbers or strings,
and every cell of a CSV or JSON table is rendered by the one rule of
`io_utils.fmt`. CSV bytes are deterministic for a fixed configuration;
timestamps live only in the JSON sidecars.

Figure pipelines select eigenstates in the even parity sector: the
propagator commutes with parity, and the published eigenvalue window for
the longest-lived states (top modulus about 0.89 at N = 3^7) is the one
seen after symmetry reduction, while the full spectrum's top modulus is
0.939. The weights table is `escape_weights` for both maps; the decay-rate
bins of Fig. 4 are masks on the moduli, and the longest-lived states and
the bins' are leading columns (`Spectrum.leading`), one N x S block.

Every baker spectrum is built per parity sector, from the N/3 eigenpairs of
its folded kept block; the opening's exact kernel (z = 0) is counted, not
built. The N x N propagator is never formed: the blocks are folded from U's
kept corners (`baker_corners`), and the vectors are lifted and their
residuals taken through U~ applied as its factors, two `dft_apply` calls
(`baker_apply`); a block gives right vectors only, and the left ones follow
by time reversal (U~^T = F U~ F^-1). The one spectrum cache (`_SECTORS`)
keeps every open sector's folded solve until the process ends, and nothing
else, read-only: z and the N/3 x N/3 folded right vectors W as
`np.linalg.eig` returns them, so `weyl` after `spectrum` solves no sector
twice. Every open spectrum is one `sector_spectrum(N, sector)` call, its
sector checked against one table (`_COVERS`, read by `closed_states` too),
that lifts through one `spectral.eigenpairs` call only the columns read, a
panel at a time: `weyl` reads z alone, `husimi` and `density` leading
columns, `weights` all of R, `spectrum` L and the residuals. The open route
runs on NumPy alone, and the Walsh pairs make no LAPACK call. The closed-map
control, the one user of SciPy, is plain states: `closed_states` solves the
dense block of U in each sector for right vectors only (U is unitary: they
are its left ones too) by LAPACK's `zgeev`, the call `scipy.linalg.eig`
makes, from SciPy's `_flapack` extension loaded alone, and caches nothing.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import sys
from dataclasses import dataclass, asdict
from importlib.machinery import PathFinder
from pathlib import Path

import numpy as np

from . import io_utils
from .classical import (
    ESCAPE_RATE,
    box_dimension,
    cantor_approx,
    ehrenfest_time,
    escape_rate_estimate,
    region_R_plus,
)
from .phase_space import (
    average_density,
    cantor_mass,
    husimi_grids,
    interval_mask,
    momentum_density,
    position_density,
    self_similarity_score,
    unit_sum,
    wigner_grid_average,
)
from .quantum import baker_apply, baker_corners, baker_unitary, dft_apply, sector_block
from .spectral import Spectrum, decay_order, eigenpairs, escape_weights, spectrum_table
from .walsh import (ZERO_THRESHOLD, long_lived_spectrum, long_lived_weights, nonzero_count,
                    walsh_spectrum_report)

__all__ = [
    "RunConfig",
    "open_spectrum",
    "sector_spectrum",
    "closed_states",
    "run_spectrum",
    "run_weights_experiment",
    "run_weyl_experiment",
    "run_husimi_figure",
    "run_density_figures",
    "run_walsh_report",
    "run_classical",
]

CANTOR_DIM = math.log(2.0) / math.log(3.0)


@dataclass(frozen=True)
class RunConfig:
    n_exp: int = 6
    out_dir: Path = Path("runs")
    grid: int = 81
    count: int = 100
    threshold: float = 0.5
    fmt: str = "csv"
    seed: int = 0
    sector: str = "even"

    def __post_init__(self):
        if self.n_exp < 1:
            raise ValueError("n_exp must be >= 1")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        if not 0 < self.threshold < 1:  # false for nan too
            raise ValueError(f"threshold must be a finite number in (0, 1), not {self.threshold}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        object.__setattr__(self, "out_dir", Path(self.out_dir))

    @property
    def N(self) -> int:
        return 3**self.n_exp

    def as_dict(self) -> dict:
        d = asdict(self)
        d["out_dir"] = str(d["out_dir"])
        d["N"] = self.N
        return d


# The one spectrum cache: every folded solve of an open parity sector the
# process makes, by (N, sector), kept until it ends. An entry is the
# read-only pair (z, W), the eigenvalues of its folded kept block and the
# block's right vectors (N/3 x N/3), both in eig's order, 16 (N/3)^2 + 16 N/3
# bytes: ninefold per step in N, so all entries below the largest pair add
# at most an eighth of it
_SECTORS: dict = {}

# The parity sectors each `sector` choice covers; their vectors' parity under n -> N-1-n
_COVERS = {"even": ("even",), "odd": ("odd",), "full": ("even", "odd")}
_SIGN = {"even": 1.0, "odd": -1.0}


def _covered(sector: str) -> tuple:
    """The parity sectors `sector` covers, or a ValueError naming the choices."""
    if sector not in _COVERS:
        raise ValueError(f"sector must be 'even', 'odd' or 'full', not {sector!r}")
    return _COVERS[sector]


def sector_spectrum(N: int, sector: str) -> Spectrum:
    """Spectrum of the open propagator in one parity sector ("even", "odd") or
    both ("full"): each sector's N/3 eigenpairs from its folded solve in
    `_SECTORS`, missing ones solved first from one set of U's kept corners,
    lifted by one `eigenpairs` call, a block per sector, with no U, U~ or
    parity basis: from columns w of W, right vectors v = U~ x, x = `_unfold`(w),
    by `baker_apply`, and left ones by time reversal (U~^T = F U~ F^-1),
    u = conj(F v) = `_unfold`(conj(F_t w)), as F_N U = diag(F_t, F_t, F_t): one
    length-N/3 `dft_apply`, exactly 0 on the opening, whose kernel (z = 0) is not built."""
    sectors = _covered(sector)
    if missing := [s for s in sectors if (N, s) not in _SECTORS]:
        C = baker_corners(N)
        for s in missing:
            _SECTORS[N, s] = _folded_block_eig(C, _SIGN[s])
            for a in _SECTORS[N, s]:
                a.flags.writeable = False
    blocks = [(z, lambda cols, W=W, sign=_SIGN[s]: baker_apply(_unfold(sign, W[:, cols])),
               lambda cols, W=W, sign=_SIGN[s]: _unfold(sign, dft_apply(W[:, cols]).conj()))
              for s in sectors for z, W in [_SECTORS[N, s]]]
    return eigenpairs(N, blocks, baker_apply)


def open_spectrum(N: int) -> Spectrum:
    """Full spectrum of the open propagator: `sector_spectrum(N, "full")`."""
    return sector_spectrum(N, "full")


def closed_states(N: int, sector: str) -> tuple:
    """Eigenvalues z and eigenvector columns V of the closed map U_N in one
    parity sector, or in both ("full"), in (-|z|, phase) order: the right
    vectors of each sector block by LAPACK's zgeev, lifted to the full space.
    U is unitary, so these are its left vectors too; they are not normalized
    (LAPACK's columns have unit norm to round-off); no residual is taken."""
    sectors = _covered(sector)  # checked before U is built
    U = baker_unitary(N)
    blocks = [sector_block(U, s) for s in sectors]
    del U  # freed before LAPACK runs
    # SciPy's LAPACK extension alone, shared with scipy.linalg through sys.modules
    if (lapack := sys.modules.get("scipy.linalg._flapack")) is None:
        import scipy  # not scipy.linalg, which also imports numpy.testing, f2py and ma
        spec = PathFinder.find_spec("scipy.linalg._flapack", [f"{scipy.__path__[0]}/linalg"])
        spec.loader.exec_module(lapack := importlib.util.module_from_spec(spec))
    zs, Vs = [], []
    for A, B in blocks:  # scipy.linalg.eig(A)'s call: a workspace query, then zgeev
        work, _ = lapack.zgeev_lwork(len(A), compute_vl=0, compute_vr=1)
        z, _, R, info = lapack.zgeev(A, lwork=int(work.real), compute_vl=0, compute_vr=1)
        if info:
            raise np.linalg.LinAlgError(f"zgeev failed on a closed-map sector block (info {info})")
        zs.append(z)
        Vs.append(B @ R)
    z = np.concatenate(zs)
    order = decay_order(z)
    return z[order], np.hstack(Vs)[:, order]


def _folded_block_eig(C: np.ndarray, sign: float) -> tuple:
    """Eigenvalues and right eigenvectors of the folded kept block of the even
    (sign 1) or odd (-1) sector, from U's kept corners C (`baker_corners`),
    for i, j < t = N/3 and i' = N-1-i:
        A[i, j] = (U[i, j] + U[i', j']) / 2 +- (U[i, j'] + U[i', j]) / 2,
    which averages both parity images (U commutes with parity only to
    round-off); reversing C's axes is parity."""
    t = C.shape[0] // 2
    A = (C[:t, :t] + C[::-1, ::-1][:t, :t] + sign * (C[:t, ::-1][:, :t] + C[::-1][:t, :t])) / 2
    return np.linalg.eig(A)


def _unfold(sign: float, W: np.ndarray) -> np.ndarray:
    """(w, 0, +-w reversed) for each column w of W, in a new array."""
    return np.concatenate([W, np.zeros_like(W), sign * W[::-1]])


def _emit(cfg: RunConfig, stem: str, table: dict, extra=None) -> Path:
    """Write a table given as columns, header -> 1-D sequence, each cell
    rendered by `io_utils.fmt`, as CSV with a sidecar or as one JSON file,
    rows rendered one at a time as they are written."""
    rows = zip(*(map(io_utils.fmt, c) for c in table.values()))
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    if cfg.fmt == "json":
        return io_utils.write_json(out / f"{stem}.json", {"config": cfg.as_dict(), **(extra or {})},
                                   (dict(zip(table, r)) for r in rows))
    path = io_utils.write_csv(out / f"{stem}.csv", itertools.chain([list(table)], rows))
    io_utils.write_sidecar(path, cfg.as_dict(), extra)
    return path


def run_spectrum(cfg: RunConfig) -> Path:
    """Full spectrum table of the open baker at N = 3^n_exp."""
    return _emit(cfg, f"spectrum_{cfg.N}", spectrum_table(open_spectrum(cfg.N)))


def run_weights_experiment(cfg: RunConfig, walsh: bool = False) -> dict:
    """Escape-region weights of every resonance (not of the opening's kernel, 1 on
    the opening) against |z|^(2m) (1 - |z|^2) (the Fig. 2 dataset for N = 3^6)."""
    k = cfg.n_exp
    if walsh:
        s, m_max = long_lived_spectrum(k), min(4, k - 1)
        measured, predicted = long_lived_weights(k, m_max)  # lifts no vector
    else:
        if k < 4:
            raise ValueError("weights experiment needs n_exp >= 4")
        s, m_max = open_spectrum(cfg.N), min(4, k - 2)
        measured, predicted = escape_weights(s, m_max)
    N = 3**k
    residual = measured - predicted
    mod = s.moduli()
    band = (0.2 <= mod) & (mod <= 0.95)
    agg = {}
    for m in range(m_max + 1):
        keep = band & (predicted[:, m] > 0)
        rel, n = np.sort(np.abs(residual[keep, m]) / predicted[keep, m]), keep.sum()
        # np.median's value, without the numpy.ma import np.median makes on first use
        agg[m] = float(rel[(n - 1) // 2] + rel[n // 2]) / 2 if n else float("nan")
    tag = "walsh" if walsh else "baker"
    path = _emit(cfg, f"weights_{tag}_{N}",
                 {"modulus": np.repeat(mod, m_max + 1),
                  "m": np.tile(np.arange(m_max + 1), len(mod)), "measured": measured.ravel(),
                  "predicted": predicted.ravel(), "residual": residual.ravel()},
                 {"median_rel_error_band_0.2_0.95": agg})
    return {"m_max": m_max, "median_rel_error": agg, "path": str(path)}


def run_weyl_experiment(cfg: RunConfig, walsh: bool = False) -> dict:
    """Fractal Weyl counting: log-log slope of #{|z| > r} against N."""
    if walsh:
        if cfg.n_exp < 2:
            raise ValueError("Walsh counts need n_exp >= 2: they start at k = 2")
        ks = range(2, cfg.n_exp + 1)
        counts = [nonzero_count(k) for k in ks]
        path = _emit(cfg, f"weyl_walsh_{3 ** cfg.n_exp}",
                     {"k": ks, "N": [3**k for k in ks], "threshold": [ZERO_THRESHOLD] * len(ks),
                      "count": counts, "expected_2k": [2**k for k in ks]})
        return {"counts": counts, "path": str(path)}
    N_list = [3**k for k in range(3, cfg.n_exp + 1)]
    if len(N_list) < 3:
        raise ValueError("weyl counts need n_exp >= 5 (at least 3 N values for a slope)")
    thresholds = sorted({0.3, 0.5, 0.7, cfg.threshold})
    moduli = [open_spectrum(N).moduli() for N in N_list]  # no vector lifted
    counts = np.array([[(m > r).sum() for m in moduli] for r in thresholds])
    slopes = {r: float(np.polyfit(np.log(N_list), np.log(c), 1)[0]) if c.min() > 0 else float("nan")
              for r, c in zip(thresholds, counts)}
    degenerate = bool((counts == 0).any())
    path = _emit(cfg, f"weyl_{max(N_list)}",
                 {"threshold": np.repeat(thresholds, len(N_list)),
                  "N": np.tile(N_list, len(thresholds)), "count": counts.ravel()},
                 {"slopes": {repr(float(k)): v for k, v in slopes.items()},
                  "degenerate_fit": degenerate})
    return {"slopes": slopes, "degenerate_fit": degenerate,
            "target": CANTOR_DIM, "path": str(path)}


def run_husimi_figure(cfg: RunConfig) -> dict:
    """Averaged Husimi and Wigner distributions of the longest-lived states
    (Fig. 1 layout), with closed-map control and Cantor overlay masks."""
    N, G = cfg.N, cfg.grid
    if G < 8:
        raise ValueError("husimi needs grid >= 8")
    if cfg.count < 1:
        raise ValueError("husimi needs count >= 1")
    if cfg.n_exp > 7:
        raise ValueError("husimi needs n_exp <= 7: its Wigner average holds a real "
                         "N x 2N half grid and an N x N complex one (1.38 GB at n_exp 8)")
    s = sector_spectrum(N, cfg.sector)
    # at most the resonances: the opening's exact kernel (z = 0) holds no columns
    count = min(cfg.count, len(s.z))
    out, cfgd, R = cfg.out_dir, cfg.as_dict(), s.leading(count)
    W = wigner_grid_average(R)
    _write_wigner_images(out, W, cfgd)
    del W  # gone before the closed-map control builds U

    # one block of the right and closed-map states, stacked once: one Husimi
    # pass for both averages (the Gaussian fold weights are built once), each
    # summing its count images as the pass makes them. The left average is
    # the transposed right one, by time reversal (U~^T = F U~ F^-1): the left
    # states live on the forward trapped set, the mirror image of the
    # backward one
    X = np.hstack([R, closed_states(N, cfg.sector)[1][:, :count]])
    H = husimi_grids(X, G)
    avg_r, closed_r = (average_density(itertools.islice(H, count)) for _ in range(2))
    avg_l = avg_r.T
    band = interval_mask(cantor_approx(1), G)
    right_mass = float(avg_r[:, band].sum())   # horizontal Cantor band
    # the left average's vertical band is the right one's horizontal band, by
    # the same time reversal: the left mass is the right one by construction
    left_mass = right_mass

    io_utils.write_pgm(out / f"husimi_right_{N}.pgm", avg_r, cfgd)
    io_utils.write_pgm(out / f"husimi_left_{N}.pgm", avg_l, cfgd)
    q, p = np.indices((G, G)).reshape(2, -1)
    _emit(cfg, f"husimi_right_{N}", {"q_index": q, "p_index": p, "value": avg_r.ravel()})

    for level in (1, 2, 3):
        mask = np.zeros((G, G))
        mask[:, interval_mask(cantor_approx(level), G)] = 1.0
        io_utils.write_pgm(out / f"cantor_band_level{level}_{G}.pgm", mask, cfgd, bits=8)

    closed_mass = float(closed_r[:, band].sum())

    results = {"count": count, "right_band_mass": right_mass,
               "left_band_mass": left_mass, "closed_band_mass": closed_mass}
    _emit(cfg, f"husimi_masses_{N}", _quantities(results))
    return results


def _write_wigner_images(out: Path, W: np.ndarray, cfgd: dict) -> None:
    """The sign, positive and negative parts of a 2N x 2N Wigner grid as PGMs,
    from its upper half W: the lower half is W for odd N and -W for even N,
    whose lower image halves are thus the opposite parts. At most one more
    half grid is alive, the positive part; W is left holding max(-W, 0)."""
    N, odd = len(W), len(W) % 2 == 1
    io_utils.write_pgm(out / f"wigner_sign_{N}.pgm", (W >= 0,) * 2 if odd else (W >= 0, W <= 0),
                       cfgd, bits=8)
    pos = np.maximum(W, 0.0)
    neg = np.maximum(np.negative(W, out=W), 0.0, out=W)
    io_utils.write_pgm(out / f"wigner_pos_{N}.pgm", (pos, pos if odd else neg), cfgd)
    io_utils.write_pgm(out / f"wigner_neg_{N}.pgm", (neg, neg if odd else pos), cfgd)


def _modulus_bin(mod: np.ndarray, lo: float, hi: float):
    """Mask of the moduli in [lo, hi]; widened by 0.05 steps if empty."""
    widened = 0
    while True:
        keep = (lo <= mod) & (mod <= hi)
        if keep.any() or lo <= 0 and hi >= 1:
            return keep, widened
        lo, hi = max(0.0, lo - 0.05), min(1.0, hi + 0.05)
        widened += 1


def _density(values: np.ndarray, point: str, N: int) -> dict:
    """Table of a 1D density: index i, the grid point (i + 1/2)/N under the
    header `point`, and the value; a magnification keeps the full N."""
    i = np.arange(len(values))
    return {"index": i, point: (i + 0.5) / N, "value": values}


def _quantities(results: dict) -> dict:
    """Table of named results: one (quantity, value) row each."""
    return {"quantity": list(results), "value": list(results.values())}


def run_density_figures(cfg: RunConfig) -> dict:
    """Momentum density of the 20 longest-lived right states with a x3
    magnification (Fig. 3) and position densities for two decay-rate bins
    (Fig. 4), with self-similarity scores and a seeded noise baseline."""
    if cfg.n_exp < 4:
        raise ValueError("density figures need n_exp >= 4 (20 states in one sector)")
    N = cfg.N
    s = sector_spectrum(N, cfg.sector)
    mod, results = s.moduli(), {}
    bins = {tag: _modulus_bin(mod, lo, hi) for tag, (lo, hi) in
            {"low": (0.35, 0.45), "high": (0.65, 0.75)}.items()}
    # the columns read, the 20 longest-lived and both bins', lifted alone
    R = s.leading(max(20, *(np.flatnonzero(keep).max(initial=0) + 1 for keep, _ in bins.values())))

    results["fig3_modulus_max"] = float(mod[:20].max())
    results["fig3_modulus_min"] = float(mod[:20].min())
    # one density per column; `average_density` takes them as rows
    mdens = average_density(momentum_density(R[:, :20]).T)
    _emit(cfg, f"fig3_momentum_density_{N}", _density(mdens, "p", N))
    _emit(cfg, f"fig3_magnification_{N}", _density(unit_sum(mdens[: N // 3]), "p_unmagnified", N))
    results["fig3_cantor_mass_level2"] = cantor_mass(mdens, 2)
    results["fig3_self_similarity"] = self_similarity_score(mdens)

    for tag, (keep, widened) in bins.items():
        pdens = average_density(position_density(R[:, keep[:R.shape[1]]]).T)
        _emit(cfg, f"fig4_{tag}_position_density_{N}", _density(pdens, "q", N))
        _emit(cfg, f"fig4_{tag}_magnification_{N}",
              _density(unit_sum(pdens[: N // 3]), "q_unmagnified", N))
        results[f"fig4_{tag}_count"] = int(keep.sum())
        results[f"fig4_{tag}_widened_steps"] = widened
        results[f"fig4_{tag}_self_similarity"] = self_similarity_score(pdens)

    rng = np.random.default_rng(cfg.seed)
    results["noise_self_similarity"] = self_similarity_score(rng.random(N))

    _emit(cfg, f"density_scores_{N}", _quantities(results))
    return results


def run_walsh_report(cfg: RunConfig) -> dict:
    """Walsh exactness report: spectrum classification and the worst
    weight-formula residual over the long-lived states."""
    table = walsh_spectrum_report(cfg.n_exp)
    path = _emit(cfg, f"walsh_report_{3 ** cfg.n_exp}", table)
    long = table["long_lived"]
    return {"long_lived_count": int(long.sum()), "kernel_dim": int(table["kernel_dim"][0]),
            "max_weight_residual": float(table["max_weight_residual"][long].max()),
            "path": str(path)}


def run_classical(cfg: RunConfig) -> dict:
    """Exact classical tables: escape-region areas, escape rate, Ehrenfest
    time and the Cantor box dimension."""
    areas = [region_R_plus(m).measure for m in range(9)]  # Fractions; `str` gives a/b
    _emit(cfg, "classical_escape_areas",
          {"m": range(9), "area_exact": areas, "area_float": [float(a) for a in areas]})
    results = {
        "escape_rate": escape_rate_estimate(8),
        "escape_rate_exact": ESCAPE_RATE,
        "box_dimension": box_dimension(cantor_approx(8), list(range(1, 7))),
        "box_dimension_target": CANTOR_DIM,
        "ehrenfest_time": ehrenfest_time(cfg.N),
    }
    _emit(cfg, "classical_summary", _quantities(results))
    return results
