"""One sha256 of exit codes and stdout per benchmark workload and seed.

    python3 tools/output_digest.py [--root CHECKOUT] [--seeds 1 2 3]
                                   [--workloads certify sweep construct] [--seconds 30]

Generates each workload's items from perfbench/workloads.py, runs every
item once through iqtuples.cli.main in this one process, the way
perfbench/worker.py does (numpy imported first, `verify` items fed their
stdin, `sweep` windows counted D by D), and prints one line per workload
and seed:

    construct seed 1: 390 items, 0 nonzero exits, sha256 <hex>

Two checkouts give the same lines exactly when every item's exit code and
stdout are the same. --root picks the checkout whose src/ and perfbench/
are imported (by default the one holding this file), so a copy of another
revision can be digested without copying this file into it. Nothing is
written: no bytecode is cached under perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import sys
from pathlib import Path


def runner(root: Path):
    """A function running a workload's items the way perfbench/worker.py does, on root's code.

    Imports numpy first, then root's iqtuples and perfbench modules, and
    silences logging. The function returned, run(workload, seed, seconds),
    gives each item's (exit code, stdout) in order: `verify` items fed
    their stdin, `sweep` windows counted D by D. Raises SystemExit when
    iqtuples does not come from root.
    """
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    import numpy  # noqa: F401  the benchmark worker imports it before any item

    import iqtuples
    from iqtuples import classno, cli
    import worker
    import workloads

    if Path(iqtuples.__file__).resolve().parent != root / "src" / "iqtuples":
        raise SystemExit(f"iqtuples imported from {iqtuples.__file__}, not from {root}")
    logging.getLogger().addHandler(logging.NullHandler())  # cli's basicConfig then stays silent
    logging.getLogger().setLevel(logging.CRITICAL)

    def run(workload: str, seed: int, seconds: int) -> list[tuple[int, str]]:
        out = []
        for item in workloads.GENERATORS[workload](seed, seconds).items:
            if workload == "sweep":
                out.append(worker._sweep_window(cli, classno, workloads, item.window))
            else:
                out.append(worker._call(cli, item.argv, item.stdin))
        return out

    return run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--workloads", nargs="+", default=["certify", "sweep", "construct"])
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    run = runner(args.root.resolve())
    for name in args.workloads:
        for seed in args.seeds:
            results = run(name, seed, args.seconds)
            digest = hashlib.sha256()
            for rc, out in results:
                digest.update(f"{rc}\n{len(out)}\n{out}".encode())
            nonzero = sum(rc != 0 for rc, _ in results)
            print(f"{name} seed {seed}: {len(results)} items, {nonzero} nonzero exits, "
                  f"sha256 {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
