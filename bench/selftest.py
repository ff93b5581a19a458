"""Self-tests of the benchmark itself (about 20 s):

    python3 bench/selftest.py   # from the repository root

1. Traced and untraced repetitions of figures_729 write byte-identical CSV
   and PGM files.
2. Span self times sum to the root span within 1%.
3. An untouched copy of a valid output passes every check, and a copy with
   one tampered value in any checked CSV is counted as a failure.

Exits 1 if any test fails.
"""

from __future__ import annotations

import csv
import shutil
import sys
from pathlib import Path

import checks
from run import Runner
from workloads import WORKLOADS

WORKLOAD = "figures_729"
SEED = 3


def _tamper(path: Path, column: str, change) -> None:
    """Rewrite one value of a CSV in place; the first row whose value changes."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    for row in rows[1:]:
        new = change(row[col])
        if new != row[col]:
            row[col] = new
            break
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows(rows)


def _bump(delta):
    return lambda v: repr(float(v) + delta)


# One tampering per checked CSV: (subcommand, column, change). The changes are
# well below what a plot would show but above every check's tolerance.
TAMPERINGS = {
    "classical": ("area_exact", lambda v: v.replace("/", "1/", 1)),
    "spectrum": ("re_z", _bump(1e-7)),
    "weights": ("measured", _bump(1e-7)),
    "weyl": ("count", lambda v: str(int(v) + 1)),
    "husimi": ("value", _bump(1e-7)),
    "density": ("value", _bump(1e-7)),
}


def main() -> int:
    root = Path.cwd()
    run_dir = root / ".bench_runs" / "selftest"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(root, WORKLOAD, SEED, run_dir)
    plain, traced = run_dir / "plain", run_dir / "traced"
    res_plain = runner.spawn(["--out", str(plain)], "rep")
    res_traced = runner.spawn(["--out", str(traced), "--trace"], "trace")
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    expect(res_plain is not None and res_traced is not None, "both repetitions ran")
    if failures:
        return 1
    d_plain, d_traced = checks.output_digests(plain), checks.output_digests(traced)
    expect(len(d_plain) > 20 and d_plain == d_traced,
           f"traced and untraced outputs byte-identical ({len(d_plain)} CSV/PGM files)")

    layers = res_traced["layers"]
    root_s = layers["workload"]["total_s"]
    self_sum = sum(v["self_s"] for v in layers.values())
    expect(abs(self_sum - root_s) <= 0.01 * root_s,
           f"span self times sum to the root span ({self_sum:.6f} s vs {root_s:.6f} s)")

    reference = checks.load_reference()
    for argv in WORKLOADS[WORKLOAD]:
        name = checks.output_csv(argv)
        errors = checks.check(argv, plain, SEED, reference)
        expect(not errors, f"valid {name} passes {errors}")
        copy = run_dir / f"tampered_{argv[0]}"
        shutil.copytree(plain, copy)
        column, change = TAMPERINGS[argv[0]]
        _tamper(copy / name, column, change)
        expect(bool(checks.check(argv, copy, SEED, reference)),
               f"tampered {name} ({column}) is a failure")
    shutil.rmtree(run_dir)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
