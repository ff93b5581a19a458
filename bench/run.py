"""openbaker benchmark: runs one workload of CLI subcommands and prints its
metrics; the last line of standard output is one JSON object.

    python3 bench/run.py --workload figures_729 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 0

Run it from the repository root; it imports the package from `src/`.
Every repetition runs in a fresh worker process with a fresh output
directory under `.bench_runs/`, so the library's caches start cold.
Repetitions continue while another one still fits in `--seconds` (at least
one runs). `--trace 1` adds one traced repetition and reports the per-layer
metrics listed in BENCHMARK.json instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
SETUP_SPAWNS = 3        # set-up-only processes per run, besides the repetitions
RUN_DEADLINE_S = 170.0  # a run must end within 180 s


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, run_dir: Path):
        self.workload, self.seed, self.run_dir = workload, seed, run_dir
        self.reference = checks.load_reference()
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.started = _now()
        self.count = 0

    def spawn(self, extra, tag: str):
        """Start one worker, wait for it, and return its result (or None)."""
        self.count += 1
        result_path = self.run_dir / f"{tag}{self.count}.json"
        timeout = max(1.0, RUN_DEADLINE_S - (_now() - self.started))
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--result", str(result_path)] + extra
        with open(self.run_dir / "workers.log", "ab") as log:
            proc = subprocess.Popen(cmd + ["--spawned", repr(_now())], env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                rc = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                rc = None
        if rc != 0 or not result_path.exists():
            return None
        return json.loads(result_path.read_text())

    def setup_only(self):
        return self.spawn(["--out", str(self.run_dir / "unused"), "--setup-only"], "setup")

    def repetition(self, traced: bool = False) -> dict:
        """One fresh-process repetition, with its outputs checked."""
        out = self.run_dir / f"out{self.count + 1}"
        extra = ["--out", str(out)] + (["--trace"] if traced else [])
        res = self.spawn(extra, "trace" if traced else "rep")
        subs = WORKLOADS[self.workload]
        rep = {"ok": res is not None, "result": res, "failures": [],
               "attempted": len(subs), "failed": 0}
        if res is None:
            rep["failed"] = len(subs)
            rep["failures"] = [f"{' '.join(a)}: worker failed" for a in subs]
        else:
            for sub in res["subcommands"]:
                errs = [sub["error"]] if sub["error"] else \
                    checks.check(sub["argv"], out, self.seed, self.reference)
                rep["failed"] += bool(errs)
                rep["failures"] += [f"{' '.join(sub['argv'])}: {e}" for e in errs]
        if out.exists():
            rep["digests"] = checks.output_digests(out)
            rep["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
            shutil.rmtree(out)
        return rep


def blas_info() -> dict:
    deps = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"name": deps.get("name"), "version": deps.get("version"), "threads": None}
    import scipy.linalg  # noqa: F401  (loads the BLAS library)
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            info["threads"] = fn()
            return info
    return info


def environment(root: Path) -> dict:
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
                                ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "note": "shared host; other tenants' load shows in loadavg",
    }


def layer_metrics(traced: dict, untraced_walls, reference: dict, digests_untraced) -> dict:
    """Flat per-layer values of one traced repetition."""
    res = traced["result"]
    flat = {}
    for name, stats in res["layers"].items():
        for key, value in stats.items():
            flat[f"{name}.{key}"] = value
    flat.update(res["counters"])
    for name, hits in res["cache_hits"].items():
        flat[f"{name}.cache_hits"] = hits
    for name, value in res.get("health", {}).items():
        flat[f"spectral.{name}"] = value
    for sub in res["subcommands"]:
        flat[f"cli.{sub['argv'][0]}.wall_s"] = sub["wall_s"]
    digests = traced.get("digests", {})
    csvs = [n for n in digests if n.endswith(".csv") and not checks.seeded(n)]
    same = [n for n in csvs if reference["digests"].get(n) == digests[n]]
    flat["io_utils.csv_digest_match"] = len(same) / len(csvs) if csvs else 0.0
    flat["io_utils.bytes_written"] = traced.get("bytes_written", 0)
    for name, value in res["process"].items():
        flat[f"process.{name}"] = value
    flat["trace.wall_s"] = res["wall_s"]
    flat["trace.overhead_s"] = res["wall_s"] - statistics.median(untraced_walls)
    flat["trace.outputs_identical"] = float(bool(digests) and digests == digests_untraced)
    return flat


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool):
    run_dir = root / ".bench_runs" / f"{workload}-seed{seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    runner = Runner(root, workload, seed, run_dir)
    setups = [r["setup_s"] for r in (runner.setup_only() for _ in range(SETUP_SPAWNS)) if r]
    reps = []
    start = _now()
    while True:
        t0 = _now()
        reps.append(runner.repetition())
        if _now() - start + (_now() - t0) > seconds:
            break
    traced = runner.repetition(traced=True) if trace else None
    every = reps + ([traced] if traced else [])

    setups += [r["result"]["setup_s"] for r in every if r["ok"]]
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    failures = [f for r in every for f in r["failures"]]
    walls = [r["result"]["wall_s"] for r in reps if r["ok"]]
    values = {}
    if walls and setups:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["result"]["peak_rss_mb"] for r in reps if r["ok"]),
        }
    if traced is not None and traced["ok"] and walls:
        values.update(layer_metrics(traced, walls, runner.reference,
                                    next(r.get("digests") for r in reps if r["ok"])))
    summary = {"workload": workload, "seed": seed, "repetitions": len(reps),
               "setup_samples": len(setups), "attempted": attempted, "failed": failed,
               "error_rate": failed / attempted, "failures": failures, "values": values}
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1, default=str))
    return summary


def select_metrics(values: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json lists for this mode; a function that was
    never called reads 0."""
    out = {}
    for m in SPEC["per_layer" if trace else "end_to_end"]:
        name = m["name"]
        if name in values:
            value = values[name]
        elif trace and name.rsplit(".", 1)[-1] in ("calls", "self_s", "total_s", "cache_hits",
                                                   "dim_sum", "states", "wall_s"):
            value = 0
        else:
            raise KeyError(f"metric {name} was not measured")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "openbaker" / "cli.py").is_file():
        print(f"error: no openbaker sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment(root)}))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        s = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        attempted += s["attempted"]
        failed += s["failed"]
        for f in s["failures"]:
            print(f"FAIL {name}: {f.splitlines()[-1] if f.strip() else f}", file=sys.stderr)
        try:
            selected = select_metrics(s["values"], bool(args.trace))
        except KeyError as exc:
            print(f"error: {name}: {exc.args[0]}", file=sys.stderr)
            correct, selected = False, {}
        correct = correct and s["failed"] == 0 and bool(selected)
        print(f"{name}: repetitions {s['repetitions']}, set-up samples {s['setup_samples']}, "
              f"error_rate {s['error_rate']:.6g} ratio ({s['failed']}/{s['attempted']})")
        for metric, v in selected.items():
            print(f"  {metric} {v['value']!r} {v['unit']}")
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = v
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
