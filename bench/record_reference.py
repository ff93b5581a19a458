"""Record `reference.json` from the program as it is: run every workload
once with seed 0, keep the values the output checks compare against and the
sha256 of every CSV whose bytes do not depend on the seed.

    python3 bench/record_reference.py   # from the repository root
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
from run import Runner
from workloads import WORKLOADS


def main() -> int:
    root = Path.cwd()
    values, digests = {}, {}
    for name, subcommands in WORKLOADS.items():
        run_dir = root / ".bench_runs" / f"reference-{name}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        out = run_dir / "out"
        res = Runner(root, name, 0, run_dir).spawn(["--out", str(out)], "rep")
        if res is None or any(s["error"] for s in res["subcommands"]):
            print(f"error: workload {name} failed; see {run_dir / 'workers.log'}", file=sys.stderr)
            return 1
        for argv in subcommands:
            value = checks.extract(argv, out / checks.output_csv(argv))
            if value is not None:
                values[checks.output_csv(argv)] = value
        digests.update({n: d for n, d in checks.output_digests(out).items()
                        if n.endswith(".csv") and not checks.seeded(n)})
        print(f"{name}: {res['wall_s']:.1f} s")
    checks.REFERENCE.write_text(json.dumps({"values": values, "digests": digests},
                                           indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
