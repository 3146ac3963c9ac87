"""One benchmark pass in a fresh interpreter, driven item by item by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

Sets the workload up (imports, seeded inputs, process-lifetime caches) and
prints READY. Then it reads commands from stdin: an item index runs that
item once through iqtuples.cli.main with stdout captured and answers with
its latency in seconds; "end" stops. It then checks every output and
prints one JSON object: latencies, output hashes, failures and, with
--trace, the per-layer metrics and the workload's input properties. With
--setup-only it stops after READY.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import resource
import sys
import time
from math import isqrt
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

BUDGET_STATUS = "unverified (budget)"


class _Records(logging.Handler):
    """Collects the library's ERROR records per item instead of writing them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.errors: list[str] = []

    def emit(self, record):
        if record.levelno >= logging.ERROR:
            self.errors.append(record.getMessage())


def _call(cli, argv, stdin=None) -> tuple[int, str]:
    buf = io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)  # looked up at call time, so a tracer sees it
    finally:
        sys.stdin = saved
    return rc, buf.getvalue()


def _sweep_window(cli, classno, workloads, start: int) -> tuple[int, str]:
    """Test candidates from start on; count the first few fundamental ones both ways."""
    tested, fundamental, outs = [], [], []
    for D in workloads.candidates(start):
        tested.append(str(D))
        if not classno.is_fundamental_discriminant(D):
            continue
        fundamental.append(str(D))
        for method in ("dirichlet", "forms"):
            rc, out = _call(cli, ["classnum", "-D", str(D), "--method", method, "--format", "json"])
            if rc:
                return rc, out
            outs.append(out)
        if len(fundamental) == workloads.SWEEP_FUNDAMENTAL_PER_WINDOW:
            break
    return 0, " ".join(tested) + "\n" + " ".join(fundamental) + "\n" + "".join(outs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    commands, replies = sys.stdin, sys.stdout

    import numpy  # noqa: F401  imported lazily by the Dirichlet oracle; a per-process cost

    import iqtuples
    from iqtuples import arith, classno, cli, lehmer

    if Path(iqtuples.__file__).resolve().parent != ROOT / "src" / "iqtuples":
        print(f"iqtuples imported from {iqtuples.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.GENERATORS[args.workload](args.seed, args.seconds)
    arith.smallest_prime_factor_table(isqrt(wl.max_disc // 3))
    lehmer.exceptional_tables()
    arith.factorize(6)  # fills the trial-division prime list
    records = _Records()
    logging.getLogger().addHandler(records)  # cli's basicConfig then leaves logging alone
    logging.getLogger().setLevel(logging.WARNING)
    print(f"READY {len(wl.items)}", file=replies, flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    outs: list[str | None] = [None] * len(wl.items)
    item_s = [0.0] * len(wl.items)
    failed: dict[int, str] = {}
    for line in commands:
        if line.strip() == "end":
            break
        i = int(line)
        item = wl.items[i]
        if tracer:
            tracer.item = i
        records.errors.clear()
        t0 = time.perf_counter()
        try:
            if args.workload == "sweep":
                rc, out = _sweep_window(cli, classno, workloads, item.window)
            else:
                rc, out = _call(cli, item.argv, item.stdin)
        except Exception as e:  # an item that raises is a failure, not the end of the run
            rc, out = None, f"raised {e!r}"
        item_s[i] = time.perf_counter() - t0
        print(item_s[i], file=replies, flush=True)
        outs[i] = out
        if rc != 0 or BUDGET_STATUS in out or records.errors:
            failed[i] = f"exit {rc}, log {records.errors[:1]}, output {out[:200]!r}"
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the checks
    layers = None
    info = {**wl.info, "items": len(wl.items)}
    if tracer:
        tracer.uninstall()
        layers = tracer.metrics()
        info.update(tracer.input_properties())
        spans_dir = HERE / "spans"
        spans_dir.mkdir(exist_ok=True)
        tracer.write_spans(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")

    errors = [f"item {i} {wl.items[i].argv or wl.items[i].window}: {e}" for i, e in failed.items()]
    check = workloads.CHECKS[args.workload]
    oracle: dict[int, int] = {}
    for i, (item, out) in enumerate(zip(wl.items, outs)):
        if i in failed:
            continue
        if out is None:
            errors.append(f"item {i} was never run")
            continue
        try:
            errors.extend(f"item {i} {item.argv or item.window}: {e}" for e in check(item, out))
            if args.workload == "certify":
                for D, h in workloads.oracle_pairs(item, out):
                    if oracle.setdefault(D, h) != h:
                        errors.append(f"item {i}: h({D}) = {h}, but {oracle[D]} elsewhere")
        except (ValueError, KeyError, TypeError, IndexError) as e:
            errors.append(f"item {i}: unreadable output ({e!r}): {out[:200]!r}")
    checked = [(D, h) for D, h in sorted(oracle.items()) if -D <= classno.DIRICHLET_LIMIT]
    for D, h in checked:
        if classno.class_number_dirichlet(D).h != h:
            errors.append(f"certified h({D}) = {h} disagrees with the Dirichlet oracle")

    result = {
        "item_s": item_s,
        "hashes": [hashlib.sha256((o or "").encode()).hexdigest()[:16] for o in outs],
        "failed": len(failed),
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
        "info": {**info, "oracle_checked": len(checked)},
        "layers": layers,
    }
    print(json.dumps(result), file=replies, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
