"""Alternating benchmark pairs of a parent checkout and this one, per end-to-end metric.

    python3 tools/bench_pairs.py --base CHECKOUT --workload W [--pairs 10] [--first-seed 1]
                                 [--inert CHECKOUT] [--trace]

Pairs run the seeds F, F + 1, ..., F + pairs - 1, F being --first-seed, so
that a claim can be checked again on seeds not looked at while the change
was written. The pair of seed i runs
`perfbench/run.py --workload W --seed i --seconds S --trace 0` once from
the parent checkout --base and once from the checkout holding this file
(the change), each from its own root directory; S is BENCHMARK.json's
run_seconds. Odd pairs (the first, third, ...) run the change first, even
pairs the parent, so neither side always follows the other. Each run's last
stdout line is its JSON result; a run that fails or is not correct stops
the series with exit 1. Each run also records its child processes' minor
page faults and user and system CPU seconds (ru_minflt, ru_utime,
ru_stime): the resource.getrusage(RUSAGE_CHILDREN) deltas around the
run.py subprocess, which count run.py and every worker it waited for.
They count only descendants that were reaped: a process a worker forks
and never waits for (say a helper left to exit after it) reads as no
work at all. A prototype of the form count's helper that was never
reaped read ru_utime 7-8 % below the parent's, less CPU than the
sequential run, where the reaped helper reads within 1 %.
After each pair one line shows both sides' values.

With --inert, each pair also runs a third checkout: the parent plus a
change that does no work (one unused module-level tuple), which moves
only the heap's layout. The three sides take turns in a rotating order:
the first pair runs change, parent, inert, the second parent, inert,
change, the third inert, change, parent, and so on.

Then, for each end-to-end metric of BENCHMARK.json, one Markdown table
row: the parent and change medians with their quartiles, the median
change in per cent, the number of pairs the change won (by the metric's
`better`), the gap of the medians over the parent's quartile distance,
signed so that a positive number favours the change, and a verdict:
`gain` where the change won at least nine tenths of the pairs and the gap
exceeds the parent's quartile distance, `worse` where the change median
is worse than the parent's by more than the metric's `bound`, else blank.
With --inert the row also gives the inert side's median and quartiles,
and a `gain` or `worse` verdict reads `layout` when the inert side earns
the same verdict against the parent: a change that does nothing moves the
metric as far. Quartiles are statistics.quantiles(method="inclusive"). A
second table gives each side's medians and quartiles of the page faults
and CPU seconds, with no verdict: a gain that comes with a swing in page
faults reads as a heap-layout effect, not as less work.

With --trace, each pair's seed is then run once more per side, in the
same order, with `--trace 1`, and a third table shows each per-layer
metric of BENCHMARK.json: each side's medians with their quartiles and
the median change, with no verdict. It shows where a change's time went,
layer by layer; a per-layer figure comes from one traced pass per run, so
it is not a measure to claim a gain on.

The tool writes no file, and the runs write no bytecode
(PYTHONDONTWRITEBYTECODE=1), so no run leaves .pyc files that would move
a later run's setup_s or peak_rss_mb. Bytecode a checkout already holds
is still read: compare fresh exports (git archive) of both sides, as the
benchmark's own runs do.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the child rusage fields each run records, in layer_rows' metric form
RUSAGE = [{"name": "ru_minflt", "unit": "faults"}, {"name": "ru_utime", "unit": "s"},
          {"name": "ru_stime", "unit": "s"}]
SIDES = ("change", "parent", "inert")  # the first pair's running order


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3) of xs, inclusive quartiles; a single value is all three."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, qm, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return qm, q1, q3


def summarise(parent: list[float], change: list[float], better: str, bound: float,
              inert: list[float] | None = None) -> dict:
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
    else "". Given the inert side's values, "inert" is their (median, q1,
    q3), and a "gain" or "worse" verdict becomes "layout" when the inert
    side, in the change's place, earns the same verdict.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equally long lists of at least two values")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1 if better == "lower" else -1
    (pm, p1, p3), (cm, c1, c3) = quartiles(parent), quartiles(change)
    gap, iqr = sign * (pm - cm), p3 - p1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gap_iqr = gap / iqr if iqr else 0.0 if gap == 0 else gap * float("inf")
    if 10 * wins >= 9 * len(parent) and gap_iqr > 1:
        verdict = "gain"
    elif -gap > bound * abs(pm):
        verdict = "worse"
    else:
        verdict = ""
    out = {
        "parent": (pm, p1, p3),
        "change": (cm, c1, c3),
        "wins": wins,
        "ratio": cm / pm - 1 if pm else float("nan"),
        "gap_iqr": gap_iqr,
        "verdict": verdict,
    }
    if inert is not None:
        same = summarise(parent, inert, better, bound)
        out["inert"] = same["change"]
        if verdict and same["verdict"] == verdict:
            out["verdict"] = "layout"
    return out


def layer_rows(workload: str, metrics: list[dict], parent: list[dict], change: list[dict],
               inert: list[dict] | None = None) -> list[str]:
    """A Markdown table of metrics, BENCHMARK.json's per_layer or RUSAGE: a header, then one row each.

    parent, change and, if given, inert hold each run's {metric: value}. A
    row gives each side's median [q1–q3] over the runs that report the
    metric (— for a side where none does) and the change median over the
    parent median, minus 1, blank where the parent median is 0 or a side is
    missing. Values take six significant digits, so that a page-fault count
    reads whole.
    """
    sides = [parent, change] + ([inert] if inert is not None else [])
    heads = ["parent", "change", "inert"][:len(sides)]
    rows = ["| workload | metric | unit | " + " | ".join(f"{h} median [q1–q3]" for h in heads)
            + " | median change |", "|---|---|---|" + "---|" * len(sides) + "---|"]
    for metric in metrics:
        name, cells, medians = metric["name"], [], []
        for runs in sides:
            xs = [r[name] for r in runs if name in r]
            if xs:
                m, q1, q3 = quartiles(xs)
                cells.append(f"{m:.6g} [{q1:.6g}–{q3:.6g}]")
                medians.append(m)
            else:
                cells.append("—")
                medians.append(None)
        p, c = medians[:2]
        ratio = f"{c / p - 1:+.1%}" if p and c is not None else ""
        rows.append(f"| `{workload}` | `{name}` | {metric['unit']} | {' | '.join(cells)} | {ratio} |")
    return rows


def schedule(first_seed: int, pairs: int, sides: tuple[str, ...] = SIDES[:2]) -> list[tuple[int, tuple]]:
    """(seed, the sides in running order) for each pair: pair i starts i places into sides, rotating.

    With the two sides (change, parent), odd pairs run the change first.
    """
    return [(first_seed + i, sides[i % len(sides):] + sides[:i % len(sides)]) for i in range(pairs)]


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: bool = False) -> dict:
    """One run.py result from checkout, traced or not: {metric: value}. Raises RuntimeError on failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    if not result.get("correct") or result.get("failed"):
        raise RuntimeError(f"{checkout} seed {seed}: exit {done.returncode}\n"
                           f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def paired_runs(sides: dict[str, Path], workload: str, first_seed: int, pairs: int, seconds: int,
                trace: bool = False):
    """Yield (seed, {side: result}) for each pair, its sides (SIDES that sides names) in schedule's order.

    A result is run_once's, with the RUSAGE fields' RUSAGE_CHILDREN deltas
    around it added.
    """
    for seed, order in schedule(first_seed, pairs, tuple(s for s in SIDES if s in sides)):
        got = {}
        for side in order:
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            got[side] = run_once(sides[side], workload, seed, seconds, trace)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            got[side].update({f["name"]: getattr(after, f["name"]) - getattr(before, f["name"])
                              for f in RUSAGE})
        yield seed, got


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--inert", type=Path,
                    help="the parent plus a change that does no work, run as a third side")
    ap.add_argument("--trace", action="store_true", help="then one traced run per side per pair")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.base.resolve(), "change": ROOT}
    if args.inert:
        sides["inert"] = args.inert.resolve()
    series = (sides, args.workload, args.first_seed, args.pairs, bench["run_seconds"])
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    try:
        for seed, got in paired_runs(*series):
            cells = []
            for name in got["change"]:
                places = 0 if name == "ru_minflt" else 3  # a count of page faults
                cell = f"{name} {got['parent'][name]:.{places}f} -> {got['change'][name]:.{places}f}"
                cells.append(cell + (f" (inert {got['inert'][name]:.{places}f})" if args.inert else ""))
            for side in sides:
                runs[side].append(got[side])
            print(f"pair {seed}: " + ", ".join(cells), flush=True)
    except RuntimeError as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 1
    where = ", ".join(f"{side} {path}" for side, path in sides.items())
    print(f"\n{args.workload}, {args.pairs} pairs from seed {args.first_seed}: {where}\n")
    heads = "".join(f" {side} median [q1–q3] |" for side in sides)
    print(f"| workload | metric |{heads} median change | change won | gap / parent IQR | verdict |")
    print("|---" * (len(sides) + 6) + "|")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = {side: [r[name] for r in side_runs] for side, side_runs in runs.items()}
        s = summarise(values["parent"], values["change"], metric["better"], metric["bound"],
                      values.get("inert"))
        medians = [f"{m:.3f} [{q1:.3f}–{q3:.3f}]" for m, q1, q3 in (s[side] for side in values)]
        print(f"| `{args.workload}` | `{name}` | {' | '.join(medians)} | {s['ratio']:+.1%} | "
              f"{s['wins']}/{args.pairs} | {s['gap_iqr']:+.2f} | {s['verdict']} |", flush=True)
    print("\nchild processes, per run:\n")
    print("\n".join(layer_rows(args.workload, RUSAGE, *runs.values())), flush=True)
    if not args.trace:
        return 0
    try:
        traced = [got for _, got in paired_runs(*series, trace=True)]
    except RuntimeError as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 1
    print("\nper layer, one traced run per side and pair:\n")
    print("\n".join(layer_rows(args.workload, bench["per_layer"],
                               *([got[side] for got in traced] for side in sides))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
