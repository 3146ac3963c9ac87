"""Replay one layer's inputs from a benchmark run on two checkouts, alternating.

    python3 tools/replay.py --layer qs|dirichlet --base CHECKOUT [--root CHECKOUT]
                            [--workload W] [--seed 1] [--seconds 30] [--steps 12]

--layer picks the function replayed: `qs` is arith._quadratic_sieve on
the cofactors it receives (workload construct by default), `dirichlet`
classno.class_number_dirichlet on the fundamental D it receives (workload
sweep by default). First the tool records the distinct inputs the
function receives, in order, while the workload's items run once through
iqtuples.cli.main in this process, by tools/output_digest.py's runner
(--root's src/ and perfbench/, by default the checkout holding this file).
Then one long-lived interpreter per checkout imports that checkout's
iqtuples, runs the function once over all the inputs untimed, and the two
take turns: at each step each side times one pass over all of them, input
by input, the side going first alternating from step to step.

For `qs` it prints each side's minimum and median pass time and the median
over the steps of root's time over base's. For `dirichlet` it prints one
table row per (decade of |D|, shape): each side's minimum and median over
the steps of the pass's time summed over those D, and the median over the
steps of root's time over base's. The shapes split D at its largest odd
prime q: `prime` (|D| = q), `q>sqrt` (q > sqrt|D|, not prime) and
`q<sqrt`; -8, with no odd prime, is counted as q<sqrt.

It exits 1, with one line for each, if a side's results (divisors or h)
differ between its own passes, if the two sides give a different result
for any input, or, for `qs`, if any divisor g of a cofactor n is not a
proper one (1 < g < n and n % g == 0); None, the sieve giving up, is not
checked.

Why alternate: the speed of the host can drift by 1.5x within a run, and
QS-only passes of identical code ranged from 0.25 to 0.37 s; two passes
taken back to back share the host's state, so their ratio varies far less
than either time does. Nothing is written: no bytecode is cached.
"""

from __future__ import annotations

import argparse
import importlib
import json
import logging
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from math import isqrt
from pathlib import Path


@dataclass(frozen=True)
class Layer:
    module: str  # iqtuples' module holding the function replayed
    function: str
    workload: str  # the workload recorded by default
    called: str  # what the report calls the function
    inputs: str  # what the report calls the inputs
    results: str  # ... and the results, which head every check line
    differ: str  # the verb agreeing with results
    value: str  # put before each result where the sides differ
    divisors: bool  # each result must be a proper divisor of its input, or None


LAYERS = {
    "qs": Layer("arith", "_quadratic_sieve", "construct", "the quadratic sieve",
                "cofactors", "divisors", "differ", "", True),
    "dirichlet": Layer("classno", "class_number_dirichlet", "sweep", "the Dirichlet oracle",
                       "D", "h", "differs", "h = ", False),
}


def record(layer: str, root: Path, workload: str, seed: int, seconds: int) -> list[int]:
    """The distinct inputs the layer's function receives over the workload, in order."""
    import output_digest  # beside this file; imported once main has turned bytecode off

    run = output_digest.runner(root)
    spec = LAYERS[layer]
    module = importlib.import_module(f"iqtuples.{spec.module}")
    seen: dict[int, None] = {}
    function = getattr(module, spec.function)

    def recording(x):
        seen[x] = None
        return function(x)

    setattr(module, spec.function, recording)
    try:
        run(workload, seed, seconds)
    finally:
        setattr(module, spec.function, function)
    return list(seen)


def serve(layer: str, root: Path) -> None:
    """Read the inputs, then time one pass over them for every line read; reply in JSON.

    Each reply holds every input's seconds and result: a divisor or None
    for `qs`, h for `dirichlet`.
    """
    sys.path.insert(0, str(root / "src"))
    import numpy  # noqa: F401

    spec = LAYERS[layer]
    function = getattr(importlib.import_module(f"iqtuples.{spec.module}"), spec.function)
    result = (lambda x: x) if spec.divisors else (lambda x: x.h)
    logging.getLogger().setLevel(logging.CRITICAL)
    xs = json.loads(sys.stdin.readline())
    for x in xs:  # warm-up: the tables and numpy's first calls
        function(x)
    for _ in sys.stdin:
        seconds, results = [], []
        for x in xs:
            start = time.perf_counter()
            results.append(result(function(x)))
            seconds.append(time.perf_counter() - start)
        print(json.dumps({"seconds": seconds, "results": results}), flush=True)


def check(layer: str, xs: list[int], passes: dict[str, list[list]]) -> list[str]:
    """One line for each thing wrong with the results; empty when there is nothing.

    passes[side] holds one list per pass of that side, the result for each
    input of xs. Named, with a count and the first input: a side whose
    passes differ from its first one, the inputs whose first-pass results
    differ between the sides, and, for `qs`, a side's divisors g of a
    cofactor n with not (1 < g < n and n % g == 0).
    """
    spec = LAYERS[layer]
    problems = []
    for side, runs in passes.items():
        moved = [x for i, x in enumerate(xs) if any(run[i] != runs[0][i] for run in runs)]
        if moved:
            problems.append(f"{side}: {spec.results} {spec.differ} between its own passes on "
                            f"{len(moved)} of {len(xs)} {spec.inputs}, the first {moved[0]}")
        bad = sorted({(i, g) for run in runs for i, g in enumerate(run)
                      if spec.divisors and g is not None and not (1 < g < xs[i] and xs[i] % g == 0)})
        if bad:
            i, g = bad[0]
            problems.append(f"{side}: {len(bad)} divisors are not proper divisors of their "
                            f"cofactor, the first {g} of {xs[i]}")
    first = {side: runs[0] for side, runs in passes.items()}
    differ = [i for i, (b, r) in enumerate(zip(first["base"], first["root"])) if b != r]
    if differ:
        i = differ[0]
        problems.append(f"the sides differ on {len(differ)} of {len(xs)} {spec.inputs}, the first "
                        f"{xs[i]}: base {spec.value}{first['base'][i]}, "
                        f"root {spec.value}{first['root'][i]}")
    return problems


def replay(layer: str, xs: list[int], sides: dict[str, Path], steps: int) -> tuple[dict, dict]:
    """({side: per pass, each input's seconds}, {side: per pass, each input's result}), alternating."""
    procs = {side: subprocess.Popen([sys.executable, "-B", __file__, "--serve", layer, str(path)],
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
             for side, path in sides.items()}
    times: dict[str, list[list[float]]] = {side: [] for side in sides}
    passes: dict[str, list[list]] = {side: [] for side in sides}
    try:
        for proc in procs.values():
            proc.stdin.write(json.dumps(xs) + "\n")
            proc.stdin.flush()
        for step in range(steps):
            for side in ("base", "root") if step % 2 == 0 else ("root", "base"):
                procs[side].stdin.write("run\n")
                procs[side].stdin.flush()
                reply = json.loads(procs[side].stdout.readline())
                times[side].append(reply["seconds"])
                passes[side].append(reply["results"])
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait(timeout=60)
    return times, passes


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


def pass_lines(sides: dict[str, Path], times: dict[str, list[list[float]]]) -> list[str]:
    """`qs`: each side's minimum and median pass time, and the median per-step ratio."""
    totals = {side: [sum(run) for run in runs] for side, runs in times.items()}
    lines = [f"{side} {path}: min {min(totals[side]):.3f} s, median "
             f"{statistics.median(totals[side]):.3f} s over {len(totals[side])} passes"
             for side, path in sides.items()]
    ratios = [r / b for b, r in zip(totals["base"], totals["root"])]
    return lines + [f"median per-step ratio root/base: {statistics.median(ratios):.3f} "
                    f"(range {min(ratios):.3f}-{max(ratios):.3f})"]


def shape_table(Ds: list[int], times: dict[str, list[list[float]]]) -> list[str]:
    """`dirichlet`: one Markdown row per (decade, shape) of each side's summed pass times."""
    groups: dict[tuple[int, str], list[int]] = {}
    for i, D in enumerate(Ds):
        groups.setdefault((len(str(-D)) - 1, shape(D)), []).append(i)
    lines = ["| decade | shape | D | base min / median ms | root min / median ms | root/base |",
             "|---|---|---|---|---|---|"]
    for (decade, kind), at in sorted(groups.items()):
        sums = {side: [1000 * sum(run[i] for i in at) for run in runs]
                for side, runs in times.items()}
        ratio = statistics.median(r / b for b, r in zip(sums["base"], sums["root"]))
        lines.append(f"| 1e{decade} | {kind} | {len(at)} | "
                     + " | ".join(f"{min(sums[s]):.2f} / {statistics.median(sums[s]):.2f}"
                                  for s in ("base", "root"))
                     + f" | {ratio:.3f} |")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--layer", choices=sorted(LAYERS), required=True)
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--workload", help="the workload recorded (default: construct for qs, "
                                       "sweep for dirichlet)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--steps", type=int, default=12)
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    spec = LAYERS[args.layer]
    workload = args.workload or spec.workload
    sides = {"base": args.base.resolve(), "root": args.root.resolve()}
    xs = record(args.layer, sides["root"], workload, args.seed, args.seconds)
    if not xs:
        print(f"{workload} seed {args.seed}: {spec.called} was never called")
        return 0
    if spec.divisors:
        bits = sorted(n.bit_length() for n in xs)
        print(f"{workload} seed {args.seed}: {len(xs)} cofactors, {bits[0]}-{bits[-1]} bits",
              flush=True)
    else:
        print(f"{workload} seed {args.seed}: {len(xs)} fundamental D, |D| {min(-D for D in xs)}"
              f"-{max(-D for D in xs)}", flush=True)
    times, passes = replay(args.layer, xs, sides, args.steps)
    print("\n".join(pass_lines(sides, times) if spec.divisors else shape_table(xs, times)))
    problems = check(args.layer, xs, passes)
    for line in problems:
        print(f"{spec.results}: {line}")
    if problems:
        return 1
    print(f"{spec.results}: identical on both sides in every pass")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--serve"]:  # one side's interpreter, started by main
        serve(sys.argv[2], Path(sys.argv[3]).resolve())
    else:
        sys.exit(main())
