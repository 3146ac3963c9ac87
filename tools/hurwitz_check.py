"""Check the Kronecker-Hurwitz class number relation over the production form counts.

    python3 tools/hurwitz_check.py N [N ...]

For each N >= 1 it prints both sides of

    sum_{t^2 <= 4N} H(4N - t^2) = 2 sigma(N) - sum_{d | N} min(d, N/d),

H the Hurwitz class number, each h*(D) in it counted by
classno.class_number_forms(D) of the checkout holding this file, and
whether they are equal; the sides, H and the divisors come from
tests/oracles.py, which shares no code with the count. It exits 1 when any
N's sides differ. The sum takes about 2 sqrt(N) counts, of every
discriminant -(4N - t^2), fundamental or not, so at N near 10^7 it runs
every route of the count, past SIEVE_FROM and DIRICHLET_LIMIT. N =
10 000 006 and 17 000 001 took 6.9 and 13.1 s on a 2-core x86-64 VM
(CPython 3.11), too slow for the tier-1 tests, which take N <= 10^6.
Choose N with 4N a square mod 9, 25 and 49, as those two are, so that
discriminants in the sum hold each of those squares.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from iqtuples import classno  # noqa: E402
from oracles import kronecker_hurwitz_sides  # noqa: E402


def count(D: int) -> int:
    return classno.class_number_forms(D).h


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("N", type=int, nargs="+")
    args = ap.parse_args(argv)
    differ = 0
    for N in args.N:
        start = time.perf_counter()
        left, right = kronecker_hurwitz_sides(N, count)
        differ += left != right
        print(f"N = {N}: sum of H = {left}, 2 sigma(N) - sum of min(d, N/d) = {right}, "
              f"{'equal' if left == right else 'DIFFER'} ({time.perf_counter() - start:.1f} s)",
              flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
