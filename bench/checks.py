"""Output checks: read each subcommand's CSV back and compare it with the
reference values in `reference.json`, recorded from the program at the
commit that introduced the benchmark (see `record_reference.py`).

A check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")

# Resonances below this modulus are excluded from the spectrum comparison:
# the nilpotent zero cluster leaves round-off fragments up to about 1e-3.
RESONANCE_FLOOR = 1e-3

# Multiset tolerance by modulus band, as (lower bound, tolerance). Measured
# across routes (full dense, deflated 2N/3 block, even+odd parity blocks) at
# N = 729 and 2187, with a factor of about 10 of margin; the largest observed
# distances were 1.1e-4, 4.3e-7, 2.0e-10 and 9.0e-12 in these bands. Small
# resonances sit next to the zero cluster and are ill-conditioned.
SPECTRUM_TOLERANCE = ((0.03, 1e-10), (0.01, 2e-9), (0.003, 5e-6), (0.0, 1e-3))

VALUE_TOLERANCE = 1e-9
WEIGHT_IDENTITY_TOLERANCE = 1e-9
WALSH_RESIDUAL_TOLERANCE = 1e-10
FIG3_MODULUS_RANGE = (0.88, 0.92)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def n_of(argv) -> int:
    return 3 ** int(argv[argv.index("--n-exp") + 1])


def output_csv(argv) -> str:
    """The CSV a subcommand is checked on."""
    sub, N = argv[0], n_of(argv)
    if sub == "weyl" and "--walsh" in argv:
        return f"weyl_walsh_{N}.csv"
    return {
        "classical": "classical_escape_areas.csv",
        "spectrum": f"spectrum_{N}.csv",
        "weights": f"weights_baker_{N}.csv",
        "weyl": f"weyl_{N}.csv",
        "husimi": f"husimi_masses_{N}.csv",
        "density": f"density_scores_{N}.csv",
        "walsh": f"walsh_report_{N}.csv",
    }[sub]


def read_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def resonances(rows) -> np.ndarray:
    z = np.array([complex(float(r["re_z"]), float(r["im_z"])) for r in rows])
    return z[np.abs(z) > RESONANCE_FLOOR]


def extract(argv, path):
    """Reference value of a subcommand's CSV, or None for checks that need
    no reference."""
    rows = read_rows(path)
    sub = argv[0]
    if sub == "spectrum":
        return [[z.real, z.imag] for z in resonances(rows)]
    if sub == "weyl":
        return [list(r.values()) for r in rows]
    if sub in ("husimi", "density"):
        return {r["quantity"]: float(r["value"]) for r in rows}
    if sub == "classical":
        return [r["area_exact"] for r in rows]
    return None


def noise_self_similarity(seed: int, N: int) -> float:
    """The density noise baseline, recomputed from the seed."""
    v = np.random.default_rng(seed).random(N)
    sub = v[: N // 3] / v[: N // 3].sum()
    coarse = v.reshape(N // 3, 3).mean(axis=1)
    coarse = coarse / coarse.sum()
    return float(np.corrcoef(sub, coarse)[0, 1])


def _tolerance(modulus: float) -> float:
    for lower, tol in SPECTRUM_TOLERANCE:
        if modulus >= lower:
            return tol
    return SPECTRUM_TOLERANCE[-1][1]


def match_multiset(ref: np.ndarray, got: np.ndarray) -> list:
    if len(ref) != len(got):
        return [f"{len(got)} resonances above {RESONANCE_FLOOR}, reference has {len(ref)}"]
    used = np.zeros(len(got), dtype=bool)
    for a in ref[np.argsort(-np.abs(ref))]:
        d = np.where(used, np.inf, np.abs(got - a))
        j = int(np.argmin(d))
        if d[j] > _tolerance(abs(a)):
            return [f"resonance {a} unmatched (nearest distance {d[j]:.3g})"]
        used[j] = True
    return []


def _check_values(got: dict, ref: dict, seed: int, N: int) -> list:
    errors = []
    if set(got) != set(ref):
        errors.append(f"quantities {sorted(got)} differ from reference {sorted(ref)}")
    for key in set(got) & set(ref):
        want = noise_self_similarity(seed, N) if key == "noise_self_similarity" else ref[key]
        if not abs(got[key] - want) <= VALUE_TOLERANCE:
            errors.append(f"{key} = {got[key]!r}, reference {want!r}")
    return errors


def check(argv, out_dir, seed: int, reference: dict) -> list:
    """Check one subcommand's output in `out_dir`."""
    name = output_csv(argv)
    path = Path(out_dir) / name
    if not path.exists():
        return [f"{name} missing"]
    sub, N = argv[0], n_of(argv)
    rows = read_rows(path)
    ref = reference["values"].get(name)
    if sub == "spectrum":
        moduli = [float(r["modulus"]) for r in rows]
        if len(rows) != N or max(moduli) > 1.0 + 1e-12:
            return [f"{len(rows)} eigenvalues, max modulus {max(moduli)!r}"]
        return match_multiset(np.array([complex(*z) for z in ref]), resonances(rows))
    if sub == "weights":
        worst = max(abs(float(r["measured"]) - float(r["predicted"]))
                    for r in rows if r["m"] == "0")
        ok = worst <= WEIGHT_IDENTITY_TOLERANCE
        return [] if ok else [f"opening identity violated by {worst!r}"]
    if sub == "weyl":
        errors = [] if extract(argv, path) == ref else ["counts differ from reference"]
        if "--walsh" in argv and any(r["count"] != r["expected_2k"] for r in rows):
            errors.append("Walsh nonzero count differs from 2^k")
        return errors
    if sub in ("husimi", "density"):
        got = extract(argv, path)
        errors = _check_values(got, ref, seed, N)
        if sub == "density":
            lo, hi = FIG3_MODULUS_RANGE
            if not lo <= got.get("fig3_modulus_max", -1.0) <= hi:
                errors.append(f"fig3_modulus_max outside [{lo}, {hi}]")
        return errors
    if sub == "walsh":
        k = int(argv[argv.index("--n-exp") + 1])
        long_rows = [r for r in rows if r["long_lived"] == "True"]
        errors = [] if len(long_rows) == 2**k else [f"{len(long_rows)} long-lived, want {2**k}"]
        worst = max((float(r["max_weight_residual"]) for r in long_rows), default=np.inf)
        if not worst <= WALSH_RESIDUAL_TOLERANCE:
            errors.append(f"max weight residual {worst!r}")
        return errors
    if sub == "classical":
        return [] if extract(argv, path) == ref else ["exact areas differ from reference"]
    return [f"no check for {sub}"]


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def output_digests(out_dir) -> dict:
    """sha256 of every CSV and PGM an output directory holds."""
    return {p.name: sha256(p) for p in sorted(Path(out_dir).iterdir())
            if p.suffix in (".csv", ".pgm")}


def seeded(name: str) -> bool:
    """CSVs whose bytes depend on --seed (the noise baseline)."""
    return name.startswith("density_scores_")


def spectrum_health(s) -> dict:
    """Numerical health of an in-memory spectrum: zero-cluster fragments
    reported with finite decay rate, worst residuals, and the smallest
    per-pair |<u|v>| (inverse eigenvalue condition number)."""
    mod = np.abs(s.eigenvalues())
    biorth = np.abs(np.einsum("ij,ij->j", s.left_matrix().conj(), s.right_matrix()))
    return {
        "zero_cluster_count": int(((mod > 1e-12) & (mod < RESONANCE_FLOOR)).sum()),
        "max_residual_right": max(p.residual_right for p in s.pairs),
        "max_residual_left": max(p.residual_left for p in s.pairs),
        "min_abs_biorth": float(biorth.min()),
    }
