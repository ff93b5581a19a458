"""Figure-level pipelines and reproducible experiment records.

Each experiment consumes a RunConfig, writes CSV (or JSON) tables plus PGM
images under the configured output directory, and returns ExperimentRecord
objects mirroring the emitted aggregates. CSV bytes are deterministic for a
fixed configuration; timestamps live only in the JSON sidecars.

Figure pipelines select eigenstates in the even parity sector: the
propagator commutes with parity, and the published eigenvalue window for
the longest-lived states (top modulus about 0.89 at N = 3^7) is the one
seen after symmetry reduction, while the full spectrum's top modulus is
0.939.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from functools import lru_cache
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
    DensityGrid,
    average_density,
    band_mass,
    cantor_mass,
    husimi_grids,
    momentum_density,
    position_density,
    self_similarity_score,
    wigner_grid_average,
)
from .quantum import baker_unitary, escape_projector, open_propagator, sector_block
from .spectral import (
    Spectrum,
    ResonanceEigenpair,
    eigendecompose,
    select_long_lived,
    spectrum_csv_rows,
    weight,
    weight_prediction,
)
from .walsh import long_lived_spectrum, nonzero_count, walsh_spectrum_report

__all__ = [
    "RunConfig",
    "ExperimentRecord",
    "open_spectrum",
    "sector_spectrum",
    "weyl_scaled_count",
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
        object.__setattr__(self, "out_dir", Path(self.out_dir))

    @property
    def N(self) -> int:
        return 3**self.n_exp

    def as_dict(self) -> dict:
        d = asdict(self)
        d["out_dir"] = str(d["out_dir"])
        d["N"] = self.N
        return d


@dataclass(frozen=True)
class ExperimentRecord:
    experiment: str
    params: dict
    results: dict

    def as_dict(self) -> dict:
        return {"experiment": self.experiment, "params": self.params,
                "results": self.results}


@lru_cache(maxsize=6)
def open_spectrum(N: int) -> Spectrum:
    return eigendecompose(open_propagator(N))


@lru_cache(maxsize=6)
def closed_spectrum(N: int, sector: str = "full") -> Spectrum:
    U = baker_unitary(N)
    if sector == "full":
        return eigendecompose(U)
    return _lifted_sector_spectrum(U, sector)


@lru_cache(maxsize=8)
def sector_spectrum(N: int, sector: str) -> Spectrum:
    """Spectrum of the open propagator restricted to one parity sector,
    with eigenvectors lifted back to the full N-dimensional space."""
    if sector == "full":
        return open_spectrum(N)
    return _lifted_sector_spectrum(open_propagator(N), sector)


def _lifted_sector_spectrum(U: np.ndarray, sector: str) -> Spectrum:
    A, B = sector_block(U, sector)
    s = eigendecompose(A)
    pairs = []
    for p in s.pairs:
        pairs.append(ResonanceEigenpair(
            p.z, B @ p.right_vec, B @ p.left_vec,
            p.residual_right, p.residual_left, p.matched))
    return Spectrum(U.shape[0], tuple(pairs))


def weyl_scaled_count(count: int, N: int, N_ref: int = 729) -> int:
    """Scale a reference state count across N by the fractal Weyl exponent,
    so selections at different N cover the same spectral fraction."""
    return max(1, min(N, round(count * (N / N_ref) ** CANTOR_DIM)))


def _emit(cfg: RunConfig, stem: str, header, rows, extra=None) -> Path:
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    if cfg.fmt == "json":
        path = out / f"{stem}.json"
        payload = {"config": cfg.as_dict(),
                   "rows": [dict(zip(header, r)) for r in rows]}
        if extra:
            payload.update(extra)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
        return path
    path = io_utils.write_csv(out / f"{stem}.csv", [header] + list(rows))
    io_utils.write_sidecar(path, cfg.as_dict(), extra)
    return path


def run_spectrum(cfg: RunConfig) -> Path:
    """Full spectrum table of the open baker at N = 3^n_exp."""
    s = open_spectrum(cfg.N)
    rows = spectrum_csv_rows(s)
    return _emit(cfg, f"spectrum_{cfg.N}", rows[0], rows[1:])


def run_weights_experiment(cfg: RunConfig, walsh: bool = False):
    """Escape-region weights of every eigenstate against the semiclassical
    prediction |z|^(2m) (1 - |z|^2) (the Fig. 2 dataset for N = 3^6)."""
    k = cfg.n_exp
    if walsh:
        if k < 2:
            raise ValueError("walsh weights need n_exp >= 2")
        s = long_lived_spectrum(k)
        pairs = s.pairs[: nonzero_count(k)]
        m_max = min(4, k - 1)
    else:
        if k < 4:
            raise ValueError("weights experiment needs n_exp >= 4")
        s = open_spectrum(cfg.N)
        pairs = s.pairs
        m_max = min(4, k - 2)
    N = 3**k
    rows = []
    per_m = {m: [] for m in range(m_max + 1)}
    projs = {m: escape_projector(m, N) for m in range(m_max + 1)}
    for p in pairs:
        for m in range(m_max + 1):
            measured = weight(p, projs[m])
            predicted = weight_prediction(p.z, m)
            rows.append([io_utils.fmt(p.modulus), str(m), io_utils.fmt(measured),
                         io_utils.fmt(predicted), io_utils.fmt(measured - predicted)])
            if 0.2 <= p.modulus <= 0.95 and predicted > 0:
                per_m[m].append(abs(measured - predicted) / predicted)
    agg = {m: float(np.median(v)) if v else float("nan") for m, v in per_m.items()}
    tag = "walsh" if walsh else "baker"
    path = _emit(cfg, f"weights_{tag}_{N}",
                 ["modulus", "m", "measured", "predicted", "residual"], rows,
                 {"median_rel_error_band_0.2_0.95": agg})
    record = ExperimentRecord(
        f"weights_{tag}", cfg.as_dict(),
        {"m_max": m_max, "median_rel_error": agg, "path": str(path)})
    return record


def run_weyl_experiment(cfg: RunConfig, N_list=None, walsh: bool = False) -> ExperimentRecord:
    """Fractal Weyl counting: log-log slope of #{|z| > r} against N."""
    if walsh:
        ks = list(range(2, cfg.n_exp + 1))
        rows = [[str(k), str(3**k), io_utils.fmt(1e-6), str(nonzero_count(k)), str(2**k)]
                for k in ks]
        path = _emit(cfg, f"weyl_walsh_{3 ** cfg.n_exp}",
                     ["k", "N", "threshold", "count", "expected_2k"], rows)
        return ExperimentRecord("weyl_walsh", cfg.as_dict(),
                                {"counts": [int(r[3]) for r in rows], "path": str(path)})
    if N_list is None:
        N_list = [3**k for k in range(3, cfg.n_exp + 1)]
    if len(N_list) < 3:
        raise ValueError("need at least 3 N values for a slope")
    thresholds = sorted({0.3, 0.5, 0.7, cfg.threshold})
    rows = []
    slopes = {}
    degenerate = False
    for r in thresholds:
        counts = []
        for N in N_list:
            c = int((open_spectrum(N).moduli() > r).sum())
            counts.append(c)
            rows.append([io_utils.fmt(r), str(N), str(c)])
        if min(counts) == 0:
            slopes[r] = float("nan")
            degenerate = True
        else:
            slopes[r] = float(np.polyfit(np.log(N_list), np.log(counts), 1)[0])
    path = _emit(cfg, f"weyl_{max(N_list)}", ["threshold", "N", "count"], rows,
                 {"slopes": {io_utils.fmt(k): v for k, v in slopes.items()},
                  "degenerate_fit": degenerate})
    return ExperimentRecord("weyl", cfg.as_dict(),
                            {"slopes": slopes, "degenerate_fit": degenerate,
                             "target": CANTOR_DIM, "path": str(path)})


def _husimi_band_masses(spectrum: Spectrum, count: int, G: int):
    sel = select_long_lived(spectrum, count)
    avg_r = average_density(husimi_grids([p.right_vec for p in sel], G))
    avg_l = average_density(husimi_grids([p.left_vec for p in sel], G))
    pgrid = (np.arange(G) + 0.5) / G
    band = (pgrid < 1.0 / 3.0) | (pgrid >= 2.0 / 3.0)
    right_mass = float(avg_r.values[:, band].sum())   # horizontal Cantor band
    left_mass = float(avg_l.values[band, :].sum())    # vertical Cantor band
    return avg_r, avg_l, right_mass, left_mass


def run_husimi_figure(cfg: RunConfig) -> ExperimentRecord:
    """Averaged Husimi and Wigner distributions of the longest-lived states
    (Fig. 1 layout), with closed-map control and Cantor overlay masks."""
    N, G = cfg.N, cfg.grid
    s = sector_spectrum(N, cfg.sector)
    count = min(cfg.count, len(s.pairs))
    avg_r, avg_l, right_mass, left_mass = _husimi_band_masses(s, count, G)
    sel = select_long_lived(s, count)

    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    cfgd = cfg.as_dict()
    io_utils.write_pgm(out / f"husimi_right_{N}.pgm", avg_r.values, cfgd)
    io_utils.write_pgm(out / f"husimi_left_{N}.pgm", avg_l.values, cfgd)
    rows = [[str(i), str(j), io_utils.fmt(avg_r.values[i, j])]
            for i in range(G) for j in range(G)]
    _emit(cfg, f"husimi_right_{N}", ["q_index", "p_index", "value"], rows)

    W = wigner_grid_average([p.right_vec for p in sel]).values
    io_utils.write_pgm(out / f"wigner_pos_{N}.pgm", np.maximum(W, 0.0), cfgd)
    io_utils.write_pgm(out / f"wigner_neg_{N}.pgm", np.maximum(-W, 0.0), cfgd)
    io_utils.write_pgm(out / f"wigner_sign_{N}.pgm", (W >= 0).astype(float), cfgd, bits=8)

    for level in (1, 2, 3):
        mask = np.zeros((G, G))
        pgrid = (np.arange(G) + 0.5) / G
        keep = cantor_approx(level)
        sel_cols = np.zeros(G, dtype=bool)
        for a, b in keep.intervals:
            sel_cols |= (pgrid >= float(a)) & (pgrid < float(b))
        mask[:, sel_cols] = 1.0
        io_utils.write_pgm(out / f"cantor_band_level{level}_{G}.pgm", mask, cfgd, bits=8)

    closed = closed_spectrum(N, cfg.sector)
    _, _, closed_mass, _ = _husimi_band_masses(closed, count, G)

    results = {"count": count, "right_band_mass": right_mass,
               "left_band_mass": left_mass, "closed_band_mass": closed_mass}
    _emit(cfg, f"husimi_masses_{N}", ["quantity", "value"],
          [[k, io_utils.fmt(v)] for k, v in results.items()])
    return ExperimentRecord("husimi", cfgd, results)


def _modulus_bin(s: Spectrum, lo: float, hi: float):
    """Pairs with modulus in [lo, hi]; widened by 0.05 steps if empty."""
    widened = 0
    while True:
        sel = [p for p in s.pairs if lo <= p.modulus <= hi]
        if sel or lo <= 0 and hi >= 1:
            return sel, widened
        lo, hi = max(0.0, lo - 0.05), min(1.0, hi + 0.05)
        widened += 1


def run_density_figures(cfg: RunConfig) -> ExperimentRecord:
    """Momentum density of the longest-lived right states with a x3
    magnification (Fig. 3) and position densities for two decay-rate bins
    (Fig. 4), with self-similarity scores and a seeded noise baseline."""
    N = cfg.N
    s = sector_spectrum(N, cfg.sector)
    results = {}

    sel = select_long_lived(s, 20)
    results["fig3_modulus_max"] = max(p.modulus for p in sel)
    results["fig3_modulus_min"] = min(p.modulus for p in sel)
    mdens = average_density([momentum_density(p.right_vec) for p in sel])
    mag = DensityGrid(mdens.values[: N // 3], "momentum").unit_sum()
    rows = [[str(i), io_utils.fmt((i + 0.5) / N), io_utils.fmt(v)]
            for i, v in enumerate(mdens.values)]
    _emit(cfg, f"fig3_momentum_density_{N}", ["index", "p", "value"], rows)
    rows = [[str(i), io_utils.fmt((i + 0.5) / N), io_utils.fmt(v)]
            for i, v in enumerate(mag.values)]
    _emit(cfg, f"fig3_magnification_{N}", ["index", "p_unmagnified", "value"], rows)
    results["fig3_cantor_mass_level2"] = cantor_mass(mdens, 2)
    results["fig3_self_similarity"] = self_similarity_score(mdens)

    for tag, (lo, hi) in {"low": (0.35, 0.45), "high": (0.65, 0.75)}.items():
        bin_pairs, widened = _modulus_bin(s, lo, hi)
        pdens = average_density([position_density(p.right_vec) for p in bin_pairs])
        rows = [[str(i), io_utils.fmt((i + 0.5) / N), io_utils.fmt(v)]
                for i, v in enumerate(pdens.values)]
        _emit(cfg, f"fig4_{tag}_position_density_{N}", ["index", "q", "value"], rows)
        mag = DensityGrid(pdens.values[: N // 3], "position").unit_sum()
        rows = [[str(i), io_utils.fmt((i + 0.5) / N), io_utils.fmt(v)]
                for i, v in enumerate(mag.values)]
        _emit(cfg, f"fig4_{tag}_magnification_{N}", ["index", "q_unmagnified", "value"], rows)
        results[f"fig4_{tag}_count"] = len(bin_pairs)
        results[f"fig4_{tag}_widened_steps"] = widened
        results[f"fig4_{tag}_self_similarity"] = self_similarity_score(pdens)

    rng = np.random.default_rng(cfg.seed)
    noise = DensityGrid(rng.random(N), "position")
    results["noise_self_similarity"] = self_similarity_score(noise)

    _emit(cfg, f"density_scores_{N}", ["quantity", "value"],
          [[k, io_utils.fmt(v)] for k, v in results.items()])
    return ExperimentRecord("density", cfg.as_dict(), results)


def run_walsh_report(cfg: RunConfig) -> ExperimentRecord:
    """Walsh exactness report: spectrum classification and the worst
    weight-formula residual over the long-lived states."""
    k = cfg.n_exp
    if k < 2:
        raise ValueError("walsh report needs n_exp >= 2")
    rows_dicts = walsh_spectrum_report(k)
    header = list(rows_dicts[0].keys())
    rows = [[io_utils.fmt(r[h]) if isinstance(r[h], float) else str(r[h]) for h in header]
            for r in rows_dicts]
    path = _emit(cfg, f"walsh_report_{3 ** k}", header, rows)
    long_rows = [r for r in rows_dicts if r["long_lived"]]
    results = {
        "long_lived_count": len(long_rows),
        "kernel_dim": rows_dicts[0]["kernel_dim"],
        "max_weight_residual": max(r["max_weight_residual"] for r in long_rows),
        "path": str(path),
    }
    return ExperimentRecord("walsh", cfg.as_dict(), results)


def run_classical(cfg: RunConfig) -> ExperimentRecord:
    """Exact classical tables: escape-region areas, escape rate, Ehrenfest
    time and the Cantor box dimension."""
    rows = []
    for m in range(9):
        a = region_R_plus(m).measure
        rows.append([str(m), f"{a.numerator}/{a.denominator}", io_utils.fmt(float(a))])
    _emit(cfg, "classical_escape_areas", ["m", "area_exact", "area_float"], rows)
    results = {
        "escape_rate": escape_rate_estimate(8),
        "escape_rate_exact": ESCAPE_RATE,
        "box_dimension": box_dimension(cantor_approx(8), list(range(1, 7))),
        "box_dimension_target": CANTOR_DIM,
        "ehrenfest_time": ehrenfest_time(cfg.N),
    }
    _emit(cfg, "classical_summary", ["quantity", "value"],
          [[k, io_utils.fmt(v)] for k, v in results.items()])
    return ExperimentRecord("classical", cfg.as_dict(), results)
