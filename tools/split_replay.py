"""Replay the quadratic sieve's inputs from a benchmark run on two checkouts.

    python3 tools/split_replay.py --base CHECKOUT [--root CHECKOUT]
                                  [--workload construct] [--seed 1] [--seconds 30]
                                  [--steps 12]

First it records every cofactor that arith._quadratic_sieve receives while
the workload's items run once through iqtuples.cli.main in this process,
by tools/output_digest.py's runner (--root's src/ and perfbench/, by
default the checkout holding this file). Then one long-lived
interpreter per checkout imports that checkout's iqtuples, runs the
sieve once over all the cofactors untimed, and the two take turns: at
each step each side times one pass over all of them, the side going first
alternating from step to step. It prints each side's minimum and median
pass time and the median over the steps of root's time over base's. It
exits 1, with one line for each, if a side's divisors differ between its
own passes, if the two sides return a different divisor for any
cofactor, or if any divisor g of a cofactor n is not a proper one
(1 < g < n and n % g == 0); None, the sieve giving up, is not checked.

Why alternate: the speed of the host can drift by 1.5x within a run, and
QS-only passes of identical code ranged from 0.25 to 0.37 s; two passes
taken back to back share the host's state, so their ratio varies far less
than either time does. Nothing is written: no bytecode is cached.
"""

from __future__ import annotations

import argparse
import json
import logging
import statistics
import subprocess
import sys
import time
from pathlib import Path


def record(root: Path, workload: str, seed: int, seconds: int) -> list[int]:
    """The distinct cofactors _quadratic_sieve receives over the workload, in order."""
    import output_digest  # beside this file; imported once main has turned bytecode off

    run = output_digest.runner(root)
    from iqtuples import arith

    seen: dict[int, None] = {}
    sieve = arith._quadratic_sieve

    def recording(n):
        seen[n] = None
        return sieve(n)

    arith._quadratic_sieve = recording
    run(workload, seed, seconds)
    return list(seen)


def serve(root: Path) -> None:
    """Read the cofactors, then time one pass over them for every line read; reply in JSON."""
    sys.path.insert(0, str(root / "src"))
    import numpy  # noqa: F401

    from iqtuples import arith

    logging.getLogger().setLevel(logging.CRITICAL)
    ns = json.loads(sys.stdin.readline())
    for n in ns:  # warm-up: the multiplier table and numpy's first calls
        arith._quadratic_sieve(n)
    for _ in sys.stdin:
        start = time.perf_counter()
        divisors = [arith._quadratic_sieve(n) for n in ns]
        elapsed = time.perf_counter() - start
        print(json.dumps({"seconds": elapsed, "divisors": divisors}), flush=True)


def check(ns: list[int], passes: dict[str, list[list]]) -> list[str]:
    """One line for each thing wrong with the divisors; empty when there is nothing.

    passes[side] holds one list per pass of that side, the divisor or None
    returned for each cofactor of ns. Named, with a count and the first
    cofactor: a side whose passes differ from its first one, the cofactors
    whose first-pass divisors differ between the sides, and a side's
    divisors g of a cofactor n with not (1 < g < n and n % g == 0).
    """
    problems = []
    for side, runs in passes.items():
        moved = [n for i, n in enumerate(ns) if any(run[i] != runs[0][i] for run in runs)]
        if moved:
            problems.append(f"{side}: divisors differ between its own passes on {len(moved)} of "
                            f"{len(ns)} cofactors, the first {moved[0]}")
        bad = sorted({(i, g) for run in runs for i, g in enumerate(run)
                      if g is not None and not (1 < g < ns[i] and ns[i] % g == 0)})
        if bad:
            i, g = bad[0]
            problems.append(f"{side}: {len(bad)} divisors are not proper divisors of their "
                            f"cofactor, the first {g} of {ns[i]}")
    first = {side: runs[0] for side, runs in passes.items()}
    differ = [i for i, (b, r) in enumerate(zip(first["base"], first["root"])) if b != r]
    if differ:
        i = differ[0]
        problems.append(f"the sides differ on {len(differ)} of {len(ns)} cofactors, the first "
                        f"{ns[i]}: base {first['base'][i]}, root {first['root'][i]}")
    return problems


def replay(ns: list[int], sides: dict[str, Path], steps: int) -> tuple[dict, dict]:
    """({side: pass times}, {side: each pass's divisors}) from one interpreter per side, alternating."""
    procs = {side: subprocess.Popen([sys.executable, "-B", __file__, "--serve", str(path)],
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
             for side, path in sides.items()}
    times: dict[str, list[float]] = {side: [] for side in sides}
    passes: dict[str, list[list]] = {side: [] for side in sides}
    try:
        for proc in procs.values():
            proc.stdin.write(json.dumps(ns) + "\n")
            proc.stdin.flush()
        for step in range(steps):
            for side in ("base", "root") if step % 2 == 0 else ("root", "base"):
                procs[side].stdin.write("run\n")
                procs[side].stdin.flush()
                reply = json.loads(procs[side].stdout.readline())
                times[side].append(reply["seconds"])
                passes[side].append(reply["divisors"])
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait(timeout=60)
    return times, passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--workload", default="construct")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--steps", type=int, default=12)
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    sides = {"base": args.base.resolve(), "root": args.root.resolve()}
    ns = record(sides["root"], args.workload, args.seed, args.seconds)
    if not ns:
        print(f"{args.workload} seed {args.seed}: the quadratic sieve was never called")
        return 0
    bits = sorted(n.bit_length() for n in ns)
    print(f"{args.workload} seed {args.seed}: {len(ns)} cofactors, {bits[0]}-{bits[-1]} bits",
          flush=True)
    times, passes = replay(ns, sides, args.steps)
    for side, path in sides.items():
        print(f"{side} {path}: min {min(times[side]):.3f} s, "
              f"median {statistics.median(times[side]):.3f} s over {args.steps} passes")
    ratios = [r / b for b, r in zip(times["base"], times["root"])]
    print(f"median per-step ratio root/base: {statistics.median(ratios):.3f} "
          f"(range {min(ratios):.3f}-{max(ratios):.3f})")
    problems = check(ns, passes)
    for line in problems:
        print(f"divisors: {line}")
    if problems:
        return 1
    print("divisors: identical on both sides in every pass")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--serve"]:  # one side's interpreter, started by main
        serve(Path(sys.argv[2]).resolve())
    else:
        sys.exit(main())
