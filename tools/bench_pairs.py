"""Alternating benchmark pairs of a parent checkout and this one, per end-to-end metric.

    python3 tools/bench_pairs.py --base CHECKOUT --workload W [--pairs 10] [--first-seed 1]

Pairs run the seeds F, F + 1, ..., F + pairs - 1, F being --first-seed, so
that a claim can be checked again on seeds not looked at while the change
was written. The pair of seed i runs
`perfbench/run.py --workload W --seed i --seconds S --trace 0` once from
the parent checkout --base and once from the checkout holding this file
(the change), each from its own root directory; S is BENCHMARK.json's
run_seconds. Odd pairs (the first, third, ...) run the change first, even
pairs the parent, so neither side always follows the other. Each run's last
stdout line is its JSON result; a run that fails or is not correct stops
the series with exit 1. After each pair one line shows both sides' values.

Then, for each end-to-end metric of BENCHMARK.json, one Markdown table
row: the parent and change medians with their quartiles, the median
change in per cent, the number of pairs the change won (by the metric's
`better`), the gap of the medians over the parent's quartile distance,
signed so that a positive number favours the change, and a verdict:
`gain` where the change won at least nine tenths of the pairs and the gap
exceeds the parent's quartile distance, `worse` where the change median
is worse than the parent's by more than the metric's `bound`, else blank.
Quartiles are statistics.quantiles(method="inclusive"). The tool writes no
file, and the runs write no bytecode (PYTHONDONTWRITEBYTECODE=1), so no run
leaves .pyc files that would move a later run's setup_s or peak_rss_mb.
Bytecode a checkout already holds is still read: compare fresh exports
(git archive) of both sides, as the benchmark's own runs do.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over paired runs: medians and quartiles, wins, the gap over the parent's IQR, a verdict.

    parent[i] and change[i] are pair i's values. "parent" and "change" are
    (median, q1, q3). "wins" counts the pairs the change won: a lower value
    for better = "lower", a higher one for "higher"; a tie is no win.
    "ratio" is the change median over the parent median, minus 1. "gap_iqr"
    is the parent median minus the change median over the parent's q3 - q1,
    negated for "higher", so that it is positive when the change is better;
    with an IQR of 0 it is +-inf, or 0 if the medians are equal too.
    "verdict" is "gain" when the change won at least nine tenths of the
    pairs and gap_iqr exceeds 1, "worse" when the change median is worse
    than the parent's by more than bound (a fraction of the parent median),
    else "".
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equally long lists of at least two values")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1 if better == "lower" else -1
    (p1, pm, p3), (c1, cm, c3) = (statistics.quantiles(xs, n=4, method="inclusive")
                                  for xs in (parent, change))
    gap, iqr = sign * (pm - cm), p3 - p1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gap_iqr = gap / iqr if iqr else 0.0 if gap == 0 else gap * float("inf")
    if 10 * wins >= 9 * len(parent) and gap_iqr > 1:
        verdict = "gain"
    elif -gap > bound * abs(pm):
        verdict = "worse"
    else:
        verdict = ""
    return {
        "parent": (pm, p1, p3),
        "change": (cm, c1, c3),
        "wins": wins,
        "ratio": cm / pm - 1 if pm else float("nan"),
        "gap_iqr": gap_iqr,
        "verdict": verdict,
    }


def schedule(first_seed: int, pairs: int) -> list[tuple[int, tuple[str, str]]]:
    """(seed, the sides in running order) for each pair: odd pairs run the change first."""
    return [(first_seed + i, ("change", "parent") if i % 2 == 0 else ("parent", "change"))
            for i in range(pairs)]


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced run.py result from checkout: {metric: value}. Raises RuntimeError on failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    if not result.get("correct") or result.get("failed"):
        raise RuntimeError(f"{checkout} seed {seed}: exit {done.returncode}\n"
                           f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.base.resolve(), "change": ROOT}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for seed, order in schedule(args.first_seed, args.pairs):
        for side in order:
            try:
                runs[side].append(run_once(sides[side], args.workload, seed, bench["run_seconds"]))
            except RuntimeError as e:
                print(f"run failed: {e}", file=sys.stderr)
                return 1
        print(f"pair {seed}: " + ", ".join(f"{name} {runs['parent'][-1][name]:.3f} -> "
                                           f"{value:.3f}" for name, value in runs["change"][-1].items()),
              flush=True)
    print(f"\n{args.workload}, {args.pairs} pairs from seed {args.first_seed}: "
          f"parent {sides['parent']}, change {ROOT}\n")
    print("| workload | metric | parent median [q1–q3] | change median [q1–q3] | median change "
          "| change won | gap / parent IQR | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        s = summarise([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                      metric["better"], metric["bound"])
        (pm, p1, p3), (cm, c1, c3) = s["parent"], s["change"]
        print(f"| `{args.workload}` | `{name}` | {pm:.3f} [{p1:.3f}–{p3:.3f}] | "
              f"{cm:.3f} [{c1:.3f}–{c3:.3f}] | {s['ratio']:+.1%} | {s['wins']}/{args.pairs} | "
              f"{s['gap_iqr']:+.2f} | {s['verdict']} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
