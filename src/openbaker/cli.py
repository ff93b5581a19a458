"""Command-line entry point.

Subcommands: spectrum, weights, weyl, husimi, density, walsh, classical.
Exit codes: 0 success, 1 invalid input or output path, 2 numerical or out-of-memory failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .experiments import (
    RunConfig,
    run_classical,
    run_density_figures,
    run_husimi_figure,
    run_spectrum,
    run_walsh_report,
    run_weights_experiment,
    run_weyl_experiment,
)
from .walsh import ZERO_THRESHOLD

# Subcommand -> (default k for N = 3^k, runner, options it reads beyond the
# ones every subcommand takes). Runners are named, and looked up when called,
# so that a wrapper bound to the module-level name (a tracer) sees the call.
SUBCOMMANDS = {
    "spectrum": (6, "run_spectrum", ()),
    "weights": (6, "run_weights_experiment", ("--walsh",)),
    "weyl": (7, "run_weyl_experiment", ("--threshold", "--walsh")),
    "husimi": (6, "run_husimi_figure", ("--grid", "--count", "--sector")),
    "density": (7, "run_density_figures", ("--sector",)),
    "walsh": (4, "run_walsh_report", ()),
    "classical": (6, "run_classical", ()),
}

# An option not given is absent from the parsed arguments (each subparser's
# default is SUPPRESS), so every default but --n-exp's is RunConfig's
OPTIONS = {
    "--grid": dict(type=int, help="Husimi grid size"),
    "--count": dict(type=int, help="number of long-lived states to select"),
    "--threshold": dict(type=float,
                        help="long-lived modulus cutoff for Weyl counting (default 0.5)"),
    "--sector": dict(choices=["even", "odd", "full"],
                     help="parity sector for figure-level state selection"),
    "--walsh": dict(action="store_true", help="use the Walsh quantization"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="openbaker",
                     description="Open triadic baker map resonance laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (n_exp, _, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--n-exp", type=int, default=n_exp,
                       help="k for N = 3^k (default %(default)s)")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--format", dest="fmt", choices=["csv", "json"])
        p.add_argument("--seed", type=int, help="seed for noise baselines only")
        for flag in options:
            p.add_argument(flag, **OPTIONS[flag])
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    run = globals()[SUBCOMMANDS[args.pop("command")][1]]
    walsh = {"walsh": args.pop("walsh")} if "walsh" in args else {}
    try:
        if walsh.get("walsh") and "threshold" in args:
            raise ValueError("--threshold does not apply with --walsh: the Walsh count uses "
                             f"the exact kernel (ZERO_THRESHOLD = {ZERO_THRESHOLD:g})")
        cfg = RunConfig(**args)
        # an --out that cannot be a directory fails here, before any solve,
        # and nothing is made until the runner writes its first output
        top = next(p for p in (cfg.out_dir, *cfg.out_dir.parents) if p.exists())
        if not top.is_dir():
            raise NotADirectoryError(f"--out {cfg.out_dir}: {top} is not a directory")
        result = run(cfg, **walsh)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:  # LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    if isinstance(result, dict):
        print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
