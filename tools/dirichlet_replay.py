"""Replay the Dirichlet oracle on a sweep seed's discriminants, on two checkouts.

    python3 tools/dirichlet_replay.py --base CHECKOUT [--root CHECKOUT]
                                      [--seed 1] [--seconds 30] [--steps 12]

First it records the fundamental D of every window of the sweep workload
(perfbench/workloads.py under --root, by default the checkout holding this
file), in the order the benchmark's worker counts them. Then one
long-lived interpreter per checkout imports that checkout's iqtuples, runs
classno.class_number_dirichlet once over all the D untimed, and the two
take turns: at each step each side times one pass over all of them, D by
D, the side going first alternating from step to step. For each (decade of
|D|, shape) it prints each side's minimum and median over the steps of
the pass's time summed over those D, and the median over the steps of
root's time over base's. The shapes split D at its largest odd prime q:
`prime` (|D| = q), `q>sqrt` (q > sqrt|D|, not prime) and `q<sqrt`; -8,
with no odd prime, is counted as q<sqrt. It exits 1, with one line for
each, if a side's h differ between its own passes or the two sides give a
different h for any D.

Why alternate: the speed of the host drifts within a run, and two passes
taken back to back share its state, so their ratio varies far less than
either time does. Nothing is written: no bytecode is cached.
"""

from __future__ import annotations

import argparse
import json
import logging
import statistics
import subprocess
import sys
import time
from math import isqrt
from pathlib import Path


def record(root: Path, seed: int, seconds: int) -> list[int]:
    """The fundamental D of the sweep's windows, as perfbench/worker.py takes them."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    from iqtuples import classno

    Ds = []
    for item in workloads.sweep(seed, seconds).items:
        found = 0
        for D in workloads.candidates(item.window):
            if classno.is_fundamental_discriminant(D):
                Ds.append(D)
                found += 1
                if found == workloads.SWEEP_FUNDAMENTAL_PER_WINDOW:
                    break
    return Ds


def shape(D: int) -> str:
    """prime, q>sqrt or q<sqrt: how the largest odd prime q of D compares with sqrt|D|."""
    m, q, p = -D, 1, 3
    while m % 2 == 0:
        m //= 2
    while p * p <= m:
        while m % p == 0:
            m, q = m // p, p
        p += 2
    q = max(q, m)
    return "prime" if q == -D else "q>sqrt" if q > isqrt(-D) else "q<sqrt"


def serve(root: Path) -> None:
    """Read the D, then time one pass over them for every line read; reply in JSON."""
    sys.path.insert(0, str(root / "src"))
    import numpy  # noqa: F401

    from iqtuples import classno

    logging.getLogger().setLevel(logging.CRITICAL)
    Ds = json.loads(sys.stdin.readline())
    for D in Ds:  # warm-up: numpy's first calls
        classno.class_number_dirichlet(D)
    for _ in sys.stdin:
        seconds, hs = [], []
        for D in Ds:
            start = time.perf_counter()
            hs.append(classno.class_number_dirichlet(D).h)
            seconds.append(time.perf_counter() - start)
        print(json.dumps({"seconds": seconds, "h": hs}), flush=True)


def check(Ds: list[int], passes: dict[str, list[list[int]]]) -> list[str]:
    """One line for each thing wrong with the h; empty when there is nothing.

    passes[side] holds one list per pass of that side, the h of each D of
    Ds. Named, with a count and the first D: a side whose passes differ
    from its first one, and the D whose first-pass h differ between the
    sides.
    """
    problems = []
    for side, runs in passes.items():
        moved = [D for i, D in enumerate(Ds) if any(run[i] != runs[0][i] for run in runs)]
        if moved:
            problems.append(f"{side}: h differs between its own passes on {len(moved)} of "
                            f"{len(Ds)} D, the first {moved[0]}")
    first = {side: runs[0] for side, runs in passes.items()}
    differ = [i for i, (b, r) in enumerate(zip(first["base"], first["root"])) if b != r]
    if differ:
        i = differ[0]
        problems.append(f"the sides differ on {len(differ)} of {len(Ds)} D, the first "
                        f"{Ds[i]}: base h = {first['base'][i]}, root h = {first['root'][i]}")
    return problems


def replay(Ds: list[int], sides: dict[str, Path], steps: int) -> tuple[dict, dict]:
    """({side: per pass, each D's seconds}, {side: per pass, each D's h}), alternating."""
    procs = {side: subprocess.Popen([sys.executable, "-B", __file__, "--serve", str(path)],
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
             for side, path in sides.items()}
    times: dict[str, list[list[float]]] = {side: [] for side in sides}
    passes: dict[str, list[list[int]]] = {side: [] for side in sides}
    try:
        for proc in procs.values():
            proc.stdin.write(json.dumps(Ds) + "\n")
            proc.stdin.flush()
        for step in range(steps):
            for side in ("base", "root") if step % 2 == 0 else ("root", "base"):
                procs[side].stdin.write("run\n")
                procs[side].stdin.flush()
                reply = json.loads(procs[side].stdout.readline())
                times[side].append(reply["seconds"])
                passes[side].append(reply["h"])
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait(timeout=60)
    return times, passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--steps", type=int, default=12)
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    sides = {"base": args.base.resolve(), "root": args.root.resolve()}
    Ds = record(sides["root"], args.seed, args.seconds)
    print(f"sweep seed {args.seed}: {len(Ds)} fundamental D, |D| {min(-D for D in Ds)}"
          f"-{max(-D for D in Ds)}", flush=True)
    times, passes = replay(Ds, sides, args.steps)
    groups: dict[tuple[int, str], list[int]] = {}
    for i, D in enumerate(Ds):
        groups.setdefault((len(str(-D)) - 1, shape(D)), []).append(i)
    print("| decade | shape | D | base min / median ms | root min / median ms | root/base |")
    print("|---|---|---|---|---|---|")
    for (decade, kind), at in sorted(groups.items()):
        sums = {side: [1000 * sum(run[i] for i in at) for run in runs]
                for side, runs in times.items()}
        ratio = statistics.median(r / b for b, r in zip(sums["base"], sums["root"]))
        print(f"| 1e{decade} | {kind} | {len(at)} | "
              + " | ".join(f"{min(sums[s]):.2f} / {statistics.median(sums[s]):.2f}"
                           for s in ("base", "root"))
              + f" | {ratio:.3f} |")
    problems = check(Ds, passes)
    for line in problems:
        print(f"h: {line}")
    if problems:
        return 1
    print("h: identical on both sides in every pass")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--serve"]:  # one side's interpreter, started by main
        serve(Path(sys.argv[2]).resolve())
    else:
        sys.exit(main())
