"""Write a results record: every workload over seeds 1-10, plus repeats and one traced run each.

    python3 perfbench/record.py --out perfbench/results/NAME.json

For each workload it runs run.py untraced once per seed, for BENCHMARK.json's
run_seconds, and reports per end-to-end metric the median, the quartiles and
their distance as a share of the median (the spread), with every value. It
then repeats the first seed untraced, so that the record shows how much of
the spread is the host's rather than the inputs'. One traced run per
workload, on the first seed, gives the per-layer metrics and the workload's
input properties. The record also holds the git commit, Python version and
core count of the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, WORKLOADS

SEEDS = range(1, 11)
SAME_SEED_REPEATS = 5
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(result line, info line) of one run.py invocation."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    info = next(json.loads(line[5:]) for line in lines if line.startswith("info "))
    return json.loads(lines[-1]), info


def _summary(workload: str, seeds: list[int]) -> dict:
    """Untraced runs on the given seeds, summarised per end-to-end metric."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in seeds:
        res, _ = _run(workload, seed, 0)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"{workload} seed {seed}: " + ", ".join(f"{k} {v[-1]:.4g}" for k, v in values.items()),
              file=sys.stderr)
    out = {}
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        out[name] = {"unit": units[name], "median": statistics.median(v), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(v), "values": v}
    return out


def _git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    seeds = list(SEEDS)
    record = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seconds": SECONDS,
        "seeds": seeds,
        "same_seed_repeats": SAME_SEED_REPEATS,
        "workloads": {},
    }
    for w in WORKLOADS:
        end_to_end = _summary(w, seeds)
        same_seed = _summary(w, [seeds[0]] * SAME_SEED_REPEATS)
        traced, info = _run(w, seeds[0], 1)
        record["workloads"][w] = {
            "end_to_end": end_to_end,
            "same_seed": same_seed,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "per_layer_seed": seeds[0],
            "inputs": info,
        }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
