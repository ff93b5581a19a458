"""Workload table: each workload is a fixed list of CLI subcommands run in
one fresh process, one after the other (closed loop, one client).

`--seed <n>` and `--out <dir>` are appended to every subcommand by the
worker; only the noise baseline of `density` reads the seed.
"""

WORKLOADS = {
    # The everyday figure set: time is spread across every layer, and it is
    # the only workload where the classical layer and row formatting show.
    "figures_729": [
        ["classical", "--n-exp", "6"],
        ["spectrum", "--n-exp", "6"],
        ["weights", "--n-exp", "6"],
        ["weyl", "--n-exp", "6"],
        ["husimi", "--n-exp", "6"],
        ["density", "--n-exp", "6"],
    ],
    # Full open spectra from N = 27 to 729: the dense eigensolve dominates,
    # with no parity and no phase-space work. Not up to 2187: one repetition
    # there takes 22-31 s of memory-bound residual matvecs, fits only once in
    # a run, and its spread across runs on a shared host reached 0.20.
    "open_729": [
        ["spectrum", "--n-exp", "6"],
        ["weyl", "--n-exp", "6"],
    ],
    # The even-sector parity lift and the dense N x N momentum transforms,
    # alone. N = 729, not 2187: at 2187 one repetition takes 25-35 s, is
    # dominated by page faults whose cost on a shared host swings by 40%
    # between runs, and fits only once in a run; at 729 a run holds many
    # repetitions and reports their median.
    "sector_729": [
        ["density", "--n-exp", "6"],
    ],
    # Inverse-iteration refinement of 64 degenerate pairs (LU solves) and the
    # Walsh layer's repeated SVD ranks; the only workload that runs `walsh`.
    "walsh_729": [
        ["walsh", "--n-exp", "6"],
        ["weyl", "--walsh", "--n-exp", "6"],
    ],
}

# Spectrum whose numerical health the traced run reports, as
# (traced function, its positional arguments).
HEALTH_SPECTRUM = {
    "figures_729": ("experiments.open_spectrum", (729,)),
    "open_729": ("experiments.open_spectrum", (729,)),
    "sector_729": ("experiments.sector_spectrum", (729, "even")),
    "walsh_729": ("walsh.long_lived_spectrum", (6,)),
}


def subcommand_argv(argv, seed, out_dir):
    return list(argv) + ["--seed", str(seed), "--out", str(out_dir)]
