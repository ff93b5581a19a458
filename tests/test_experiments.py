import json
import math
import os
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from openbaker import cli, experiments, io_utils, spectral, walsh
from openbaker.cli import main
from openbaker.experiments import (
    RunConfig,
    closed_states,
    open_spectrum,
    run_classical,
    run_density_figures,
    run_husimi_figure,
    run_spectrum,
    run_walsh_report,
    run_weights_experiment,
    run_weyl_experiment,
    sector_spectrum,
)
from openbaker.io_utils import fmt, sha256_file, write_csv, write_pgm
from openbaker.phase_space import average_density, husimi_grids, wigner_grid_average
from openbaker.walsh import long_lived_spectrum
from open_dense import open_propagator, wigner_full
from test_acceptance import weyl_scaled_count
from test_phase_space import _random_states, _traced_peak


def test_run_config_validation(tmp_path):
    with pytest.raises(ValueError):
        RunConfig(n_exp=0)
    with pytest.raises(ValueError):
        RunConfig(fmt="yaml")
    with pytest.raises(ValueError, match="seed must be >= 0, not -1"):
        RunConfig(seed=-1)
    cfg = RunConfig(n_exp=3, out_dir=tmp_path)
    assert cfg.N == 27
    assert cfg.as_dict()["N"] == 27


def test_fmt_roundtrip():
    assert fmt(3) == "3"
    x = 1.0 / 3.0
    assert float(fmt(x)) == x
    assert fmt(np.float64(0.25)) == "0.25"


@pytest.mark.parametrize("fmt_", ["csv", "json"])
def test_emit_renders_every_cell_by_one_rule(tmp_path, fmt_):
    """`_emit` renders each cell by `fmt`, the same in CSV and JSON: a float
    (Python or NumPy) to 17 significant digits, anything else by `str`, so
    ints print plain, a bool as True and a string as it is."""
    cells = {"int": 3, "numpy_int": np.int64(-4), "third": 1 / 3, "zero": 0.0,
             "inf": np.inf, "numpy_float": np.float64(0.25), "bool": True, "string": "1/3"}
    rendered = ["3", "-4", "0.33333333333333331", "0", "inf", "0.25", "True", "1/3"]
    cfg = RunConfig(n_exp=3, out_dir=tmp_path, fmt=fmt_)
    path = experiments._emit(cfg, "cells", {"name": list(cells), "value": list(cells.values())})
    if fmt_ == "csv":
        assert path.read_bytes() == b"name,value\r\n" + b"".join(
            f"{name},{cell}\r\n".encode() for name, cell in zip(cells, rendered))
    else:
        rows = [{"name": name, "value": cell} for name, cell in zip(cells, rendered)]
        expected = {"config": cfg.as_dict(), "rows": rows}
        assert path.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_write_csv_crlf(tmp_path):
    p = write_csv(tmp_path / "t.csv", [["a", "b"], ["1", "2"]])
    assert p.read_bytes() == b"a,b\r\n1,2\r\n"
    # any iterable of rows, read once
    p = write_csv(tmp_path / "g.csv", (row for row in [["a", "b"], ["1", "2"]]))
    assert p.read_bytes() == b"a,b\r\n1,2\r\n"


def test_emit_streams_rows(tmp_path):
    """`_emit` renders a CSV table a row at a time: a 6561 x 3 table (the
    Husimi table at G = 81) writes the bytes of its rows rendered whole and
    joined within 0.5 MiB traced, which rendering every cell first exceeds."""
    q, p = np.indices((81, 81)).reshape(2, -1)
    table = {"q_index": q, "p_index": p, "value": np.random.default_rng(1).random(q.size)}
    cfg = RunConfig(n_exp=3, out_dir=tmp_path)
    peak = _traced_peak(experiments._emit, cfg, "t", table)
    rows = [list(table)] + [[fmt(x) for x in row] for row in zip(*table.values())]
    assert (tmp_path / "t.csv").read_bytes() == "".join(",".join(row) + "\r\n" for row in rows).encode()
    assert peak <= 0.5 * 2**20


def test_emit_streams_json_rows(tmp_path):
    """A JSON table is written a row at a time as well: the 6561-row table
    of `test_emit_streams_rows` stays within 0.5 MiB traced, which `json_text`
    of the whole payload exceeds."""
    q, p = np.indices((81, 81)).reshape(2, -1)
    table = {"q_index": q, "p_index": p, "value": np.random.default_rng(1).random(q.size)}
    cfg = RunConfig(n_exp=3, out_dir=tmp_path, fmt="json")
    assert _traced_peak(experiments._emit, cfg, "t", table) <= 0.5 * 2**20
    assert len(json.loads((tmp_path / "t.json").read_text())["rows"]) == 81 * 81


def _emit_json_whole(cfg, stem, table, extra=None):
    """Reference for a JSON table: `json_text` of its whole payload, every
    row rendered before the first is written."""
    rows = [dict(zip(table, map(fmt, r))) for r in zip(*table.values())]
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / f"{stem}.json"
    path.write_text(io_utils.json_text({"config": cfg.as_dict(), "rows": rows, **(extra or {})}))
    return path


@pytest.mark.parametrize("args", ["classical", "spectrum", "weights", "weights --walsh", "weyl",
                                  "weyl --walsh", "husimi", "density", "walsh"])
def test_json_tables_have_the_bytes_of_the_whole(tmp_path, monkeypatch, args):
    """Every table a subcommand writes with `--format json` at n_exp 4 (5
    for `weyl`, which fits a slope over three N) has the bytes of the
    reference that renders its whole payload at once, extra keys included."""
    argv = args.split() + ["--n-exp", "5" if args == "weyl" else "4", "--format", "json",
                           "--out", str(tmp_path / "out")]

    def tables():
        assert main(argv) == 0
        return {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.json")
                if not p.name.endswith(".pgm.json")}

    streamed = tables()
    shutil.rmtree(tmp_path / "out")
    monkeypatch.setattr(experiments, "_emit", _emit_json_whole)
    assert streamed and tables() == streamed


def test_write_pgm(tmp_path):
    vals = np.linspace(0, 1, 12).reshape(3, 4)
    p = write_pgm(tmp_path / "t.pgm", vals, {"n_exp": 3})
    data = p.read_bytes()
    assert data.startswith(b"P5\n4 3\n65535\n")
    assert len(data) == len(b"P5\n4 3\n65535\n") + 12 * 2
    meta = json.loads(p.with_suffix(".pgm.json").read_text())
    assert meta["value_min"] == 0.0 and meta["value_max"] == 1.0
    assert meta["sha256"] == sha256_file(p)


def _pgm_of_the_one_expression(image, bits: int) -> bytes:
    """The P5 bytes of np.round((image - lo) / (hi - lo) * maxval) taken over
    the whole array, or of zeros when hi == lo."""
    lo, hi, maxval = float(image.min()), float(image.max()), (1 << bits) - 1
    scaled = np.round((image - lo) / (hi - lo) * maxval) if hi > lo else np.zeros(image.shape)
    h, w = image.shape
    return (f"P5\n{w} {h}\n{maxval}\n".encode()
            + scaled.astype(">u2" if bits == 16 else np.uint8).tobytes())


@pytest.mark.parametrize("bits", [16, 8])
@pytest.mark.parametrize("constant", [False, True])
def test_write_pgm_bytes_of_the_one_expression(tmp_path, monkeypatch, bits, constant):
    """`write_pgm` scales a strip of rows at a time; its pixels are the bytes
    of the one expression over the whole array, for float and bool input and
    for strips of the default size (one strip here), of one row, and of 7
    rows (37 = 5 x 7 + 2, a short last strip), also when the image is given
    as a tuple of row blocks (20 and 17 rows, each split into its own
    strips), and the caller's array is left as it was."""
    rng = np.random.default_rng(3)
    vals = np.full((37, 53), 2.5e-4) if constant else rng.normal(size=(37, 53)) * 3e-4
    for rows in (None, 1, 7):
        if rows:
            monkeypatch.setattr(io_utils, "_PGM_STRIP_BYTES", rows * 8 * 53)
        for image in (vals, vals >= np.median(vals)):
            before = image.copy()
            p = write_pgm(tmp_path / "t.pgm", image, {"n_exp": 3}, bits=bits)
            assert p.read_bytes() == _pgm_of_the_one_expression(image, bits)
            p = write_pgm(tmp_path / "t.pgm", (image[:20], image[20:]), {"n_exp": 3}, bits=bits)
            assert p.read_bytes() == _pgm_of_the_one_expression(image, bits)
            assert np.array_equal(image, before)


@pytest.mark.parametrize("rows", [None, 7])
def test_write_pgm_fortran_ordered(tmp_path, monkeypatch, rows):
    """A Fortran-ordered image, such as a transposed one, is written as the
    bytes of its C-ordered copy, in one strip or in strips of 7 rows."""
    if rows:
        monkeypatch.setattr(io_utils, "_PGM_STRIP_BYTES", rows * 8 * 37)
    H = np.random.default_rng(5).random((37, 53))
    expected = write_pgm(tmp_path / "c.pgm", np.ascontiguousarray(H.T), {}).read_bytes()
    assert write_pgm(tmp_path / "f.pgm", H.T, {}).read_bytes() == expected


def test_sector_spectra_partition():
    N = 81
    full = np.sort(open_spectrum(N).moduli())
    both = np.sort(np.concatenate([
        sector_spectrum(N, "even").moduli(),
        sector_spectrum(N, "odd").moduli()]))
    assert len(both) == len(full) == 2 * N // 3
    assert np.allclose(full, both, atol=1e-9)
    # every lifted right and left vector is an eigenvector of the full
    # propagator and lies in its parity sector
    Ut = open_propagator(N)
    for sector, sign in (("even", 1), ("odd", -1)):
        s = sector_spectrum(N, sector)
        z, V, U = s.z, s.R, s.L
        assert np.linalg.norm(Ut @ V - V * z, axis=0).max() < 1e-9
        assert np.linalg.norm(Ut.conj().T @ U - U * z.conj(), axis=0).max() < 1e-9
        assert np.abs(V[::-1] - sign * V).max() < 1e-12
        assert np.abs(U[::-1] - sign * U).max() < 1e-12


def _spectrum_arrays(s, names=("z", "R", "L", "res_r", "res_l")):
    return [getattr(s, name) for name in names]


def _sector_entry_arrays(N, sector):
    open_spectrum(N)
    z, W = experiments._SECTORS[N, sector]
    return [z, W]


@pytest.mark.parametrize("build", [
    lambda: _spectrum_arrays(open_spectrum(27)),
    lambda: _spectrum_arrays(sector_spectrum(27, "even")),
    lambda: _spectrum_arrays(long_lived_spectrum(3)),
    lambda: _spectrum_arrays(open_spectrum(27), ("res_l", "res_r", "L")),
    lambda: _spectrum_arrays(long_lived_spectrum(3), ("res_r", "L", "res_l")),
    lambda: _sector_entry_arrays(27, "odd"),
], ids=["open", "sector", "walsh_long_lived", "open_filled_by_res_l", "walsh_filled_by_res_r",
        "sector_cache_entry"])
def test_cached_spectra_read_only(build):
    """A write to any array of a spectrum fails: a cached sector, the
    merged full spectrum and the Walsh spectrum, also to L, res_r and res_l,
    which are filled on the first read of any of them; and to either array
    of a `_SECTORS` entry, z and W, which every later lift of that sector
    reads."""
    for a in build():
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_merged_spectrum_shares_no_memory_with_its_sectors():
    """The full spectrum holds new arrays: a cached sector is never a view
    of it, nor it of a sector."""
    full = open_spectrum(27)
    for sector in ("even", "odd"):
        s = sector_spectrum(27, sector)
        for name in ("z", "R", "L", "res_r", "res_l"):
            assert not np.shares_memory(getattr(full, name), getattr(s, name))


@pytest.mark.parametrize("N", [243, 729])
def test_cached_sector_holds_no_lifted_vector(N):
    """A `_SECTORS` entry is its sector's folded solve and nothing else,
    also after lifts: the N/3 eigenvalues z and the N/3 x N/3 folded vectors
    W, with no array of N rows, at most 16 (N/3)^2 + 16 N/3 bytes."""
    experiments._SECTORS.clear()
    open_spectrum(N)
    open_spectrum(N)
    t = N // 3
    for sector in ("even", "odd"):
        z, W = experiments._SECTORS[N, sector]
        assert z.shape == (t,) and W.shape == (t, t)
        assert z.nbytes + W.nbytes <= 16 * t * t + 16 * t


# A cold lift at N = 729 peaks in its solve (U's corners and the folded
# block), within 11 MiB traced, whether R is read or L and the residuals,
# which never make R
@pytest.mark.parametrize("build, mib", [(lambda: open_spectrum(729).R, 11),
                                        (lambda: sector_spectrum(729, "even").R, 11),
                                        (lambda: open_spectrum(729).L, 11)],
                         ids=["open", "sector", "open_filled"])
def test_cold_spectrum_peak_memory(build, mib):
    experiments._SECTORS.clear()
    assert _traced_peak(build) <= mib * 2**20


def test_cache_keeps_every_folded_solve(monkeypatch):
    """Every folded solve stays in `_SECTORS`: after both sectors at N = 3,
    9, 27, 81 and 243 (ten entries), N = 3 is asked for again with no
    second solve, and its re-lifted spectrum is bitwise the first."""
    experiments._SECTORS.clear()
    solve, solved = experiments._folded_block_eig, []
    monkeypatch.setattr(experiments, "_folded_block_eig",
                        lambda C, sign: solved.append(3 * len(C) // 2) or solve(C, sign))
    first = open_spectrum(3)
    for N in (9, 27, 81, 243):
        open_spectrum(N)
    assert len(experiments._SECTORS) == 10
    again = open_spectrum(3)
    assert solved == [N for N in (3, 9, 27, 81, 243) for _ in range(2)]
    for a, b in zip(_spectrum_arrays(first), _spectrum_arrays(again)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("sector", ["even", "full"])
def test_only_the_spectrum_table_lifts_left_vectors(tmp_path, monkeypatch, sector):
    """The figures read right vectors alone: at n_exp 5, `weights`, `husimi`
    and `density` take no residual and make no left lift (one `dft_apply`
    per panel), and `spectrum`, whose table reads both residuals, makes one
    left lift and takes one right and one left residual per panel: a sector
    of N/3 = 81 columns lifts in 3 panels."""
    calls = {"residuals": 0, "left": 0}

    def counted(name, f):
        return lambda *a, **k: calls.update({name: calls[name] + 1}) or f(*a, **k)

    monkeypatch.setattr(spectral, "residuals", counted("residuals", spectral.residuals))
    monkeypatch.setattr(experiments, "dft_apply", counted("left", experiments.dft_apply))
    cfg = RunConfig(n_exp=5, out_dir=tmp_path, sector=sector)
    for run in (run_weights_experiment, run_husimi_figure, run_density_figures):
        run(cfg)
    assert calls == {"residuals": 0, "left": 0}
    run_spectrum(cfg)
    panels = 2 * -(-81 // spectral._PANEL)
    assert calls == {"residuals": 2 * panels, "left": panels}


def test_figures_lift_only_the_columns_they_read(tmp_path, monkeypatch):
    """Right vectors are lifted through `baker_apply`, one column each: at
    n_exp 6 `density` lifts the 72 leading columns of the even sector's 243
    (its 20 longest-lived states and its two decay-rate bins, the last at
    column 71), `husimi` the 100 it averages, and `weyl`, which counts from
    the moduli, none."""
    lifted, apply = [], experiments.baker_apply
    monkeypatch.setattr(experiments, "baker_apply",
                        lambda X, **k: lifted.append(X.shape[1]) or apply(X, **k))
    for sub, columns in (("density", 72), ("husimi", 100), ("weyl", 0)):
        lifted.clear()
        assert main([sub, "--n-exp", "6", "--out", str(tmp_path)]) == 0
        assert sum(lifted) == columns, sub


def test_walsh_cli_lifts_no_vector(tmp_path, monkeypatch):
    """`walsh` and `weights --walsh` read z and the closed-form weights only:
    each builds `long_lived_spectrum` once and lifts no column of R or L."""
    lifted, built, pairs = [], [], walsh.eigenpairs
    spy = lambda N, blocks, apply: pairs(N, [(z, lambda c, f=f: lifted.append(c) or f(c),
                                              lambda c, g=g: lifted.append(c) or g(c))
                                             for z, f, g in blocks], apply)
    monkeypatch.setattr(walsh, "eigenpairs", spy)
    spectrum = walsh.long_lived_spectrum
    monkeypatch.setattr(walsh, "long_lived_spectrum", lambda k: built.append(k) or spectrum(k))
    monkeypatch.setattr(experiments, "long_lived_spectrum", walsh.long_lived_spectrum)
    for args in (["walsh"], ["weights", "--walsh"]):
        built.clear()
        assert main([*args, "--n-exp", "6", "--out", str(tmp_path)]) == 0
        assert built == [6] and lifted == [], args


def test_weyl_scaled_count():
    assert weyl_scaled_count(100, 729) == 100
    assert weyl_scaled_count(100, 243) == 50
    assert weyl_scaled_count(100, 81) == 25
    assert weyl_scaled_count(100, 3) >= 1
    assert weyl_scaled_count(10**6, 27) <= 27


def test_run_spectrum_deterministic(tmp_path):
    cfg = RunConfig(n_exp=3, out_dir=tmp_path)
    p1 = run_spectrum(cfg)
    h1 = sha256_file(p1)
    p2 = run_spectrum(cfg)
    assert sha256_file(p2) == h1  # byte-identical rerun
    lines = p1.read_text().splitlines()
    assert lines[0].startswith("index,re_z,im_z,modulus")
    assert len(lines) == 28
    sidecar = json.loads(p1.with_suffix(".csv.json").read_text())
    assert sidecar["config"]["N"] == 27
    assert "written_at" in sidecar


def test_run_weights(tmp_path):
    cfg = RunConfig(n_exp=4, out_dir=tmp_path)
    rec = run_weights_experiment(cfg)
    assert rec["m_max"] == 2
    med = rec["median_rel_error"]
    assert all(v < 0.5 for v in med.values())
    assert Path(rec["path"]).exists()
    with pytest.raises(ValueError):
        run_weights_experiment(RunConfig(n_exp=3, out_dir=tmp_path))


def test_weights_list_resonances_only(tmp_path):
    """The weights table lists the 2N/3 resonances at every depth m and no
    state of the opening's exact kernel (modulus 0)."""
    rec = run_weights_experiment(RunConfig(n_exp=4, out_dir=tmp_path))
    rows = Path(rec["path"]).read_text().splitlines()[1:]
    moduli = [float(row.split(",")[0]) for row in rows]
    assert len(moduli) == 54 * (rec["m_max"] + 1)
    assert min(moduli) > 0


def test_run_weights_walsh(tmp_path):
    cfg = RunConfig(n_exp=3, out_dir=tmp_path)
    rec = run_weights_experiment(cfg, walsh=True)
    med = rec["median_rel_error"]
    assert all(v < 1e-10 for v in med.values())


def test_run_weyl(tmp_path):
    cfg = RunConfig(n_exp=5, out_dir=tmp_path)
    rec = run_weyl_experiment(cfg)
    assert not rec["degenerate_fit"]
    assert 0.3 < rec["slopes"][0.5] < 1.0
    with pytest.raises(ValueError, match="at least 3 N values"):
        run_weyl_experiment(RunConfig(n_exp=4, out_dir=tmp_path))


def _strict_json(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("fmt_, name", [("csv", "weyl_243.csv.json"), ("json", "weyl_243.json")])
def test_weyl_slopes_keyed_by_shortest_text(tmp_path, fmt_, name):
    """The sidecar's and the JSON table's slopes are keyed by each
    threshold's shortest round-trip text, "0.3", not by the 17-digit table
    cell "0.29999999999999999"."""
    run_weyl_experiment(RunConfig(n_exp=5, out_dir=tmp_path, threshold=0.45, fmt=fmt_))
    slopes = json.loads((tmp_path / name).read_text(), parse_constant=_strict_json)["slopes"]
    assert list(slopes) == ["0.3", "0.45", "0.5", "0.7"]
    assert None not in slopes.values()


@pytest.mark.parametrize("fmt_, name", [("csv", "weyl_243.csv.json"), ("json", "weyl_243.json")])
def test_weyl_degenerate_slope_is_null(tmp_path, fmt_, name):
    """Both files are strict JSON: the slope of a threshold that no
    resonance passes is null, not a bare NaN."""
    run_weyl_experiment(RunConfig(n_exp=5, out_dir=tmp_path, threshold=0.999999, fmt=fmt_))
    slopes = json.loads((tmp_path / name).read_text(), parse_constant=_strict_json)["slopes"]
    assert list(slopes) == ["0.3", "0.5", "0.7", "0.999999"]
    assert [k for k, v in slopes.items() if v is None] == ["0.999999"]


def test_weyl_builds_each_propagator_once(tmp_path, monkeypatch):
    """`weyl` takes each N's two folded solves once, in one
    `sector_spectrum(N, "full")` call, and counts every
    threshold from their eigenvalues, with no vector lifted (no
    `baker_apply`), so U_N's kept corners are built once per N, and again
    only for a sector not yet solved; `spectrum`, `weyl` and `density`
    never build the dense U_N."""
    experiments._SECTORS.clear()
    build, built, spectra, applied = experiments.baker_corners, [], [], []
    spectrum, apply = experiments.sector_spectrum, experiments.baker_apply
    monkeypatch.setattr(experiments, "baker_corners", lambda N: built.append(N) or build(N))
    monkeypatch.setattr(experiments, "sector_spectrum",
                        lambda N, sector: spectra.append((N, sector)) or spectrum(N, sector))
    monkeypatch.setattr(experiments, "baker_apply",
                        lambda X, **k: applied.append(X.shape) or apply(X, **k))
    monkeypatch.setattr(experiments, "baker_unitary",
                        lambda N: pytest.fail(f"dense U_{N} built for an open spectrum"))
    assert main(["weyl", "--n-exp", "5", "--out", str(tmp_path)]) == 0
    assert built == [27, 81, 243] and not applied
    assert spectra == [(N, "full") for N in built]
    experiments._SECTORS.clear()
    for sub in ("density", "spectrum"):  # the even sector alone, then the odd one
        assert main([sub, "--n-exp", "4", "--out", str(tmp_path)]) == 0
    assert built == [27, 81, 243, 81, 81]


def test_run_weyl_walsh(tmp_path):
    cfg = RunConfig(n_exp=4, out_dir=tmp_path)
    rec = run_weyl_experiment(cfg, walsh=True)
    assert rec["counts"] == [4, 8, 16]


def test_run_husimi(tmp_path):
    cfg = RunConfig(n_exp=4, out_dir=tmp_path, grid=27, count=20)
    r = run_husimi_figure(cfg)
    assert 0 < r["closed_band_mass"] < r["right_band_mass"] <= 1
    for stem in ("husimi_right_81.pgm", "husimi_left_81.pgm", "wigner_pos_81.pgm",
                 "wigner_neg_81.pgm", "wigner_sign_81.pgm",
                 "cantor_band_level2_27.pgm", "husimi_masses_81.csv"):
        assert (tmp_path / stem).exists()


def test_husimi_count_stops_at_resonances(tmp_path, monkeypatch):
    """The even sector at N = 81 holds its 27 resonances as columns (its 14
    exact zeros are counted, not carried); the default count of 100 selects
    the 27, whose right vectors lead the one Husimi block, followed by as
    many closed-map states."""
    husimi, blocks = experiments.husimi_grids, []
    monkeypatch.setattr(experiments, "husimi_grids",
                        lambda V, G: blocks.append(V) or husimi(V, G))
    r = run_husimi_figure(RunConfig(n_exp=4, out_dir=tmp_path))
    assert r["count"] == 27
    s = sector_spectrum(81, "even")
    assert blocks[0].shape == (81, 2 * 27) and s.z.shape == (27,) and (s.z != 0).all()
    assert np.array_equal(blocks[0][:, :27], s.R)
    assert np.array_equal(blocks[0][:, 27:], closed_states(81, "even")[1][:, :27])


def test_husimi_figure_peak_memory(tmp_path):
    """The n_exp 5 figure, its spectrum cached and SciPy's LAPACK extension
    loaded beforehand by a closed-map solve, stays within 14 MiB traced: each
    of its two Husimi averages is summed as the pass makes its images."""
    sector_spectrum(243, "even")
    closed_states(243, "even")
    assert _traced_peak(run_husimi_figure, RunConfig(n_exp=5, out_dir=tmp_path)) <= 14 * 2**20


def test_husimi_image_independent_of_batch():
    """The figure makes the right and closed-map images in one Husimi pass;
    each state's image, here of right, left and closed-map states, must be
    bitwise what its own call gives, also for one state alone against the
    same state in a 40-state batch at N = 729, whose fold is long enough for
    a partial BLAS panel to move an unpadded block's bits."""
    s = sector_spectrum(243, "even")
    sets = [s.R[:, :20], s.L[:, :20],
            closed_states(243, "even")[1][:, :20]]
    joint = list(husimi_grids(np.hstack(sets), 81))
    alone = sum((list(husimi_grids(X, 81)) for X in sets), [])
    assert all(np.array_equal(a, b) for a, b in zip(joint, alone, strict=True))
    R = sector_spectrum(729, "even").R
    batch = list(husimi_grids(R[:, :40], 81))
    for k in (0, 5, 39):
        assert np.array_equal(list(husimi_grids(R[:, k:k + 1], 81))[0], batch[k])


@pytest.mark.parametrize("sector, G", [("even", 27), ("odd", 50), ("full", 27)])
def test_left_husimi_average_is_the_transposed_right_one(tmp_path, sector, G):
    """Time reversal (U~^T = F U~ F^-1) maps the right states, on the
    backward trapped set, to the left ones, on its mirror image the forward
    set: the average of the Husimi images of the stored left vectors is the
    transposed right average within 1e-14 of its largest pixel, also for a
    G that does not divide N. The figure writes its left PGM from the
    transposed right average, with the bytes of the left vectors' one."""
    s = sector_spectrum(243, sector)
    avg_r, avg_l = (average_density(husimi_grids(V[:, :81], G)) for V in (s.R, s.L))
    assert np.abs(avg_l - avg_r.T).max() <= 1e-14 * avg_r.max()
    cfg = RunConfig(n_exp=5, out_dir=tmp_path, grid=G, count=81, sector=sector)
    run_husimi_figure(cfg)
    expected = write_pgm(tmp_path / "left.pgm", avg_l, cfg.as_dict()).read_bytes()
    assert (tmp_path / "husimi_left_243.pgm").read_bytes() == expected


def _assert_wigner_images(out: Path, W: np.ndarray) -> None:
    """The three Wigner PGMs in `out` are those of the whole grid W, each
    image made whole and put through the one expression."""
    N = len(W) // 2
    for name, image, bits in (("pos", np.maximum(W, 0.0), 16), ("neg", np.maximum(-W, 0.0), 16),
                              ("sign", (W >= 0).astype(float), 8)):
        assert (out / f"wigner_{name}_{N}.pgm").read_bytes() == \
            _pgm_of_the_one_expression(image, bits)


def test_husimi_figure_wigner_images(tmp_path):
    """The figure's Wigner PGMs are those of the average over its right
    vectors, on the whole grid rebuilt from the upper half."""
    r = run_husimi_figure(RunConfig(n_exp=4, out_dir=tmp_path))
    W = wigner_grid_average(sector_spectrum(81, "even").R[:, :r["count"]])
    _assert_wigner_images(tmp_path, wigner_full(W))


@pytest.mark.parametrize("N", [8, 10])
def test_wigner_images_even_n(tmp_path, monkeypatch, N):
    """For even N the grid's lower half is the upper one negated, so the
    lower half of the positive image is the upper half's negative part and
    the other way round, and the sign image's is W <= 0, told from W < 0 by
    a position eigenstate, whose grid is exactly zero off a few rows: the
    PGMs written from the half grid are those of the whole grid, of random
    states and of that eigenstate, in strips of the default size and of 3
    rows, which split each half unevenly."""
    for rows in (None, 3):
        if rows:
            monkeypatch.setattr(io_utils, "_PGM_STRIP_BYTES", rows * 8 * 2 * N)
        for X in (_random_states(N, 3, seed=N), np.eye(N, 1, -1, dtype=complex)):
            W = wigner_grid_average(X)
            full = wigner_full(W)
            assert (full < 0).any() and (full > 0).any()
            experiments._write_wigner_images(tmp_path, W, {})
            _assert_wigner_images(tmp_path, full)


def test_wigner_images_hold_one_more_grid(tmp_path):
    """The three Wigner PGMs of a grid at N = 243 are written from its upper
    half W with at most one more half grid alive, the positive part, plus
    strips: within 1.2 half grids traced beyond W."""
    W = wigner_grid_average(sector_spectrum(243, "even").R[:, :100])
    assert W.shape == (243, 486)
    assert _traced_peak(experiments._write_wigner_images, tmp_path, W, {}) <= 1.2 * W.nbytes


def test_run_density(tmp_path):
    cfg = RunConfig(n_exp=5, out_dir=tmp_path, seed=1)
    r = run_density_figures(cfg)
    assert r["fig3_self_similarity"] > 0.5
    assert r["fig3_cantor_mass_level2"] > 4 / 9  # above the flat baseline
    assert abs(r["noise_self_similarity"]) < 0.5
    assert r["fig4_low_count"] >= 1 and r["fig4_high_count"] >= 1
    assert (tmp_path / "fig3_momentum_density_243.csv").exists()
    assert (tmp_path / "fig4_low_magnification_243.csv").exists()


def test_modulus_bin_widens():
    from openbaker.experiments import _modulus_bin
    mod = open_spectrum(27).moduli()
    keep, widened = _modulus_bin(mod, 1.5, 1.6)  # empty band above the disk
    assert widened > 0
    assert keep.any()


def test_run_walsh_report(tmp_path):
    cfg = RunConfig(n_exp=3, out_dir=tmp_path)
    rec = run_walsh_report(cfg)
    assert rec["long_lived_count"] == 8
    assert rec["kernel_dim"] == 19
    assert rec["max_weight_residual"] < 1e-12


def test_run_classical(tmp_path):
    cfg = RunConfig(n_exp=4, out_dir=tmp_path)
    r = run_classical(cfg)
    assert r["escape_rate"] == pytest.approx(math.log(1.5), abs=1e-10)
    assert r["box_dimension"] == pytest.approx(math.log(2) / math.log(3), abs=1e-6)
    assert r["ehrenfest_time"] == pytest.approx(3.0)
    assert (tmp_path / "classical_escape_areas.csv").exists()
    # plain Python numbers, so the CLI's result line shows no np.float64(...)
    assert all(type(v) in (int, float) for v in r.values()), r


@pytest.mark.parametrize("n_exp", [1, 4])
def test_spectrum_csv_counts_the_kernel(tmp_path, n_exp):
    """`spectrum_<N>.csv` still has N rows: the resonances, then exactly N/3
    rows of the opening's exact kernel, which no pair carries. At N = 3 the
    kernel is the middle basis state of the even sector alone."""
    N = 3**n_exp
    path = run_spectrum(RunConfig(n_exp=n_exp, out_dir=tmp_path))
    rows = path.read_text().splitlines()[1:]
    zeros = [i for i, row in enumerate(rows) if row.endswith(",0,0,0,inf,0,0")]
    assert len(rows) == N and len(open_spectrum(N).z) == 2 * N // 3
    assert zeros == list(range(2 * N // 3, N))
    assert rows[-1] == f"{N - 1},0,0,0,inf,0,0"


def test_json_format(tmp_path):
    cfg = RunConfig(n_exp=3, out_dir=tmp_path, fmt="json")
    run_spectrum(cfg)
    payload = json.loads((tmp_path / "spectrum_27.json").read_text())
    assert payload["config"]["N"] == 27
    assert len(payload["rows"]) == 27
    assert set(payload["rows"][0]) >= {"re_z", "im_z", "modulus"}


@pytest.mark.parametrize("name", list(cli.SUBCOMMANDS))
def test_cli_defaults_are_run_configs(name):
    """An option not given is absent from the parsed arguments, so a run's
    defaults are RunConfig's alone: `--n-exp k` by itself makes
    RunConfig(n_exp=k), with no --walsh flag left to pop."""
    args = vars(cli.build_parser().parse_args([name, "--n-exp", "5"]))
    assert args.pop("command") == name
    assert RunConfig(**args) == RunConfig(n_exp=5)


def test_readme_command_line_names_every_subcommand_and_flag():
    """README's "Command line" section, the one part of it that restates
    code, shows every subcommand run and names every further flag."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    assert [n for n in cli.SUBCOMMANDS if not re.search(rf"openbaker +{n}\b", section)] == []
    assert [f for f in cli.OPTIONS if not re.search(rf"`{f}\b", section)] == []


def test_cli_spectrum(tmp_path, capsys):
    rc = main(["spectrum", "--n-exp", "3", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "spectrum_27.csv").exists()


def test_cli_classical_and_walsh(tmp_path, capsys):
    assert main(["classical", "--n-exp", "3", "--out", str(tmp_path)]) == 0
    assert main(["walsh", "--n-exp", "3", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "long_lived_count" in out


# Runs the subcommands named in argv[2] (JSON) in turn, at n_exp 4 unless
# given, in one fresh interpreter, and prints as its last line whether any
# `scipy` module, whether `scipy.linalg` and whether `numpy.ma` was loaded
# after each one.
SCIPY_PROBE = """
import json, sys
from openbaker.cli import main
loaded = []
for args in json.loads(sys.argv[2]):
    n_exp = [] if "--n-exp" in args else ["--n-exp", "4"]
    assert main([*args, *n_exp, "--out", sys.argv[1]]) == 0, args
    loaded.append([any(m.split(".")[0] == "scipy" for m in sys.modules),
                   "scipy.linalg" in sys.modules, "numpy.ma" in sys.modules])
print(json.dumps(loaded))
"""


@pytest.mark.parametrize("subcommands, loaded", [
    ([["spectrum"], ["weights"], ["weyl", "--n-exp", "5"], ["density"], ["walsh"], ["classical"]],
     [False, False, False]),
    ([["husimi"]], [True, False, False]),
], ids=["open_route", "closed_control"])
def test_cli_loads_scipy_only_for_the_closed_control(tmp_path, subcommands, loaded):
    """The open route runs on NumPy alone: in a fresh interpreter, every
    subcommand but `husimi` runs without loading any `scipy` module, and
    `husimi` loads `scipy` and SciPy's LAPACK extension for its closed-map
    control, but never `scipy.linalg`. None loads `numpy.ma`: `weights`
    takes its medians from the sorted middle pair, as `np.median` does
    without the import it makes on first use."""
    env = {**os.environ, "PYTHONPATH": str(Path(experiments.__file__).resolve().parents[1])}
    argv = [sys.executable, "-c", SCIPY_PROBE, str(tmp_path), json.dumps(subcommands)]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == [loaded] * len(subcommands)


def test_cli_closed_control_lapack_failure_exits_2(tmp_path, capsys, monkeypatch):
    """A nonzero info from the closed-map control's zgeev (LAPACK did not
    converge) is a numerical failure: `husimi` exits with code 2 and says
    so, with no masses table."""
    import scipy.linalg  # noqa: F401  (loads the LAPACK extension that is replaced)
    lapack = sys.modules["scipy.linalg._flapack"]
    failing = types.SimpleNamespace(zgeev_lwork=lapack.zgeev_lwork,
                                    zgeev=lambda A, **k: (*lapack.zgeev(A, **k)[:3], 1))
    monkeypatch.setitem(sys.modules, "scipy.linalg._flapack", failing)
    assert main(["husimi", "--n-exp", "3", "--out", str(tmp_path)]) == 2
    assert "numerical failure: zgeev failed" in capsys.readouterr().err
    assert not (tmp_path / "husimi_masses_27.csv").exists()


def test_cli_invalid_args(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--format", "xml"])
    assert exc.value.code == 1
    # options are registered only on the subcommands that read them
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--grid", "5"])
    assert exc.value.code == 1
    assert main(["weights", "--n-exp", "2", "--out", str(tmp_path)]) == 1


def test_cli_density_needs_n_exp_4(tmp_path, capsys, monkeypatch):
    """A parity sector at N = 27 holds fewer than the 20 states that Fig. 3
    averages, so `density --n-exp 3` fails before any solve and names n_exp;
    at n_exp 4 both sectors write their tables."""
    monkeypatch.setattr(experiments, "sector_spectrum",
                        lambda *a: pytest.fail("solved before validating n_exp"))
    assert main(["density", "--n-exp", "3", "--out", str(tmp_path)]) == 1
    assert "need n_exp >= 4" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    monkeypatch.undo()
    for sector in ("even", "odd"):
        out = tmp_path / sector
        assert main(["density", "--n-exp", "4", "--sector", sector, "--out", str(out)]) == 0
        for stem in ("fig3_momentum_density", "fig4_high_position_density", "density_scores"):
            assert (out / f"{stem}_81.csv").exists()


@pytest.mark.parametrize("args, message", [(["--grid", "7"], "husimi needs grid >= 8"),
                                           (["--count", "0"], "husimi needs count >= 1")],
                         ids=["grid", "count"])
def test_cli_husimi_validates_before_solving(tmp_path, capsys, monkeypatch, args, message):
    """A Husimi grid below 8 or an empty selection fails before any solve,
    with the reason, and writes nothing."""
    monkeypatch.setattr(experiments, "sector_spectrum",
                        lambda *a: pytest.fail("solved before validating the options"))
    assert main(["husimi", "--n-exp", "4", *args, "--out", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("threshold", ["nan", "-1", "0", "1", "inf"])
def test_cli_weyl_rejects_threshold(tmp_path, capsys, monkeypatch, threshold):
    """A Weyl threshold that is not a finite number in (0, 1) fails before
    any solve, with the reason, and writes nothing."""
    monkeypatch.setattr(experiments, "sector_spectrum",
                        lambda *a: pytest.fail("solved before validating the threshold"))
    assert main(["weyl", "--n-exp", "5", "--threshold", threshold, "--out", str(tmp_path)]) == 1
    assert "threshold must be a finite number in (0, 1)" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("threshold", ["0.9", "0.5"])
def test_cli_weyl_walsh_rejects_threshold(tmp_path, capsys, monkeypatch, threshold):
    """The Walsh count takes no threshold: given with --walsh, even at its
    default value, --threshold fails before any count, names the exact
    kernel, and writes nothing."""
    monkeypatch.setattr(experiments, "nonzero_count",
                        lambda *a: pytest.fail("counted before rejecting the threshold"))
    assert main(["weyl", "--walsh", "--n-exp", "4", "--threshold", threshold,
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "--threshold does not apply with --walsh" in err
    assert "exact kernel (ZERO_THRESHOLD = 1e-06)" in err
    assert not any(tmp_path.iterdir())


def test_cli_weyl_needs_n_exp_5(tmp_path, capsys):
    """The Weyl slope needs 3^3, 3^4 and 3^5, so `weyl --n-exp 4` fails
    before writing anything and names the least n_exp."""
    assert main(["weyl", "--n-exp", "4", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "need n_exp >= 5" in err and "at least 3 N values" in err
    assert not any(tmp_path.iterdir())


def test_cli_weights_walsh(tmp_path, capsys):
    rc = main(["weights", "--walsh", "--n-exp", "3", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "weights_walsh_27.csv").exists()


@pytest.mark.parametrize("args", [["walsh"], ["weights", "--walsh"]], ids=["walsh", "weights"])
def test_cli_walsh_eigenpairs_limit_n_exp(tmp_path, capsys, monkeypatch, args):
    """The Walsh eigenpairs' vectors are N x 2^n_exp, so n_exp 9 (161 MB)
    fails before any build, names the limit and writes nothing; the Weyl
    counts need no eigenpair and take it."""
    monkeypatch.setattr(walsh, "_necklace_pairs",
                        lambda *a: pytest.fail("built before validating n_exp"))
    assert main([*args, "--n-exp", "9", "--out", str(tmp_path)]) == 1
    assert "need 2 <= n_exp <= 8" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    assert main(["weyl", "--walsh", "--n-exp", "9", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "weyl_walsh_19683.csv").read_text().splitlines()[-1].endswith(",512,512")


@pytest.mark.parametrize("args, message", [
    (["walsh"], None), (["weights", "--walsh"], None),
    (["weyl", "--walsh"], "Walsh counts need n_exp >= 2: they start at k = 2"),
], ids=["walsh", "weights", "weyl"])
def test_cli_walsh_rejects_n_exp_1(tmp_path, capsys, args, message):
    """Below the range, the Walsh subcommands fail and write nothing: those
    that need eigenpairs with the one range message of `long_lived_spectrum`,
    the counts with their own, whose range has no upper end."""
    if message is None:
        with pytest.raises(ValueError) as exc:
            long_lived_spectrum(1)
        message = str(exc.value)
    assert main([*args, "--n-exp", "1", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())
    # an --out not made yet stays unmade
    assert main([*args, "--n-exp", "1", "--out", str(tmp_path / "new" / "runs")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


def test_cli_unwritable_out_exits_1(tmp_path, capsys, monkeypatch):
    """An `--out` that names an existing file, or a path under one, exits 1
    with one `error:` line, not a traceback, and before any solve."""
    out = tmp_path / "taken"
    out.write_text("")
    experiments._SECTORS.clear()
    monkeypatch.setattr(experiments, "_folded_block_eig",
                        lambda *a: pytest.fail("solved before --out was checked"))
    for path in (out, out / "runs"):
        assert main(["spectrum", "--n-exp", "2", "--out", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_cli_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    """A run whose arrays do not fit in memory exits 2 with one line, not a
    traceback; the runner here raises as NumPy does, allocating nothing."""
    message = ("Unable to allocate 26.0 GiB for an array with shape (59049, 59049) "
               "and data type complex128")

    def run_spectrum(cfg):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_spectrum", run_spectrum)
    assert main(["spectrum", "--n-exp", "11", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"out of memory: {message}\n"


def test_cli_husimi_limit_n_exp(tmp_path, capsys, monkeypatch):
    """The Wigner average holds a real N x 2N half grid and an N x N complex
    density matrix, 1.38 GB at n_exp 8, so `husimi --n-exp 8` fails before
    any build, names the limit and writes nothing."""
    for name in ("baker_unitary", "baker_corners"):
        monkeypatch.setattr(experiments, name,
                            lambda *a: pytest.fail("built before validating n_exp"))
    assert main(["husimi", "--n-exp", "8", "--out", str(tmp_path)]) == 1
    assert "husimi needs n_exp <= 7" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
