"""iqtuples benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the program is imported from
./src). Each pass runs in its own fresh interpreter (worker.py), so every
pass starts with the caches a user's process starts with. The passes take
turns, one item each per step, and only one pass computes at a time. They
start at evenly spaced points of the item list, so the runs of one item are
spread over the whole timed phase. Before every step run.py times a fixed
piece of reference work, which tracks the host's speed through the run.

  --trace 0  three untraced passes and three set-up-only interpreters;
             prints the end-to-end metrics.
  --trace 1  one untraced and one traced pass; prints the per-layer metrics.
             The info line gets the workload's input properties and
             trace.overhead_s, the traced minus the untraced time.

Every item's stdout must be byte-identical across the passes. The last
stdout line is the JSON result; the lines before it summarise the run for
a reader. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "sweep", "construct")
# Untraced passes per run. Other tenants of the host only ever add time, and
# on the VM the benchmark was built on they slow it by up to 2x in spells of
# a few seconds, so an item's latency is the fastest of its runs, taken a
# third of the timed phase apart.
PASSES = 3
# The timings are scaled to a fixed host speed: the one at which the
# reference work takes REFERENCE_S. Each run of an item is scaled by
# REFERENCE_S over the median of the reference times within HOST_WINDOW steps
# of it, so a run made while the host was slow, for seconds or for the whole
# run, is scaled down by as much as the reference work slowed then. Windows
# of 2 to 5 steps did about equally well, 0 and 10 or more worse.
# REFERENCE_S is the reference work's median time on the 2-core x86-64 VM
# the benchmark was built on, so the figures read as milliseconds there.
HOST_WINDOW = 5
REFERENCE_S = 2.7e-3
# Extra set-up-only interpreters per untraced run, started at evenly spaced
# steps of the timed phase. The passes' own three set-ups happen back to back
# in one spell of the host; with these, setup_s is the median of six starts
# spread over the run. Over ten seeds per workload, the spread of setup_s was
# 0.17-0.30 of its median from the three set-ups alone and 0.07-0.12 with
# the probes.
SETUP_PROBES = 3
DEADLINE_S = 170  # whole run, so that a stuck pass still ends within 180 s


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics.

    The weight of the i-th smallest of n values is the mass of
    Beta((n+1)q, (n+1)(1-q)) on [(i-1)/n, i/n], here by the midpoint rule. A
    plain order statistic jumps by the whole gap to its neighbour when noise
    swaps two items around it; this moves smoothly with every value near q.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 32
    weights = []
    for i in range(n):
        points = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
                           for x in points))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _reference_work() -> int:
    """About 2-3 ms of pure-Python work of the kinds the program does: a
    small-integer loop (form counting) and modular powers of 127-bit
    integers (primality tests, rho)."""
    s = 0
    for i in range(15_000):
        s += i * i % 7
    x = 3
    for _ in range(200):
        x = pow(x, 65537, (1 << 127) - 1)
    return s + x


def _host_adjusted_ms(passes: list[dict], ref_s: list[float]) -> list[float]:
    """Per item, in ms: the fastest of its runs, each scaled to the host speed
    REFERENCE_S stands for by the reference times around its step. The
    passes are in the order _passes ran them."""
    n = len(ref_s)
    local = [statistics.median(ref_s[max(0, t - HOST_WINDOW):t + HOST_WINDOW + 1]) for t in range(n)]
    shifts = [j * n // len(passes) for j in range(len(passes))]
    return [1e3 * min(p["item_s"][i] * REFERENCE_S / local[(i - shift) % n] for p, shift in zip(passes, shifts))
            for i in range(n)]


class BenchError(Exception):
    pass


def _on_alarm(signum, frame):
    raise BenchError(f"run did not finish within {DEADLINE_S} s")


def _start(args, extra: list[str], procs: list) -> tuple[subprocess.Popen, float, int]:
    """Start a worker and wait for READY: (process, seconds to READY, item count)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    procs.append(proc)
    ready = proc.stdout.readline().split()
    setup_s = time.perf_counter() - t0
    if not ready or ready[0] != "READY":
        raise BenchError(f"worker {extra} failed during set-up (exit {proc.wait()})")
    return proc, setup_s, int(ready[1])


def _send(proc: subprocess.Popen, line: str) -> str:
    proc.stdin.write(line + "\n")
    proc.stdin.flush()
    reply = proc.stdout.readline()
    if not reply:
        raise BenchError(f"worker exited with {proc.wait()} at command {line!r}")
    return reply


def _passes(args, flags: list[list[str]], probes: int,
            procs: list) -> tuple[list[float], list[dict], list[float]]:
    """Set up one worker per flag list, run them in turns; return the set-up
    times, the workers' results and the reference time before each step.

    At step t pass j runs item (t + j*n/P) mod n: every pass runs every item
    once, and the P runs of an item lie n/P steps apart. Between steps, at
    evenly spaced points, `probes` set-up-only workers add set-up times.
    """
    started = [_start(args, f, procs) for f in flags]
    setups = [s for _, s, _ in started]
    workers = [w for w, _, _ in started]
    n = started[0][2]
    shifts = [j * n // len(workers) for j in range(len(workers))]
    probe_steps = {(j + 1) * n // (probes + 1) for j in range(probes)}
    ref_s = []
    for t in range(n):
        if t in probe_steps:
            probe, setup_s, _ = _start(args, ["--setup-only"], procs)
            setups.append(setup_s)
            probe.wait()
        t0 = time.perf_counter()
        _reference_work()
        ref_s.append(time.perf_counter() - t0)
        for w, shift in zip(workers, shifts):
            _send(w, str((t + shift) % n))
    results = [json.loads(_send(w, "end")) for w in workers]
    for w in workers:
        if w.wait() != 0:
            raise BenchError(f"worker exited with {w.returncode}")
    return setups, results, ref_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "iqtuples" / "__init__.py").is_file():
        print(f"no iqtuples sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    procs: list[subprocess.Popen] = []
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        if args.trace:
            setups, passes, ref_s = _passes(args, [[], ["--trace"]], 0, procs)
        else:
            setups, passes, ref_s = _passes(args, [[]] * PASSES, SETUP_PROBES, procs)
    except (BenchError, OSError) as e:  # OSError: a worker's pipe closed under us
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()

    errors = [e for p in passes for e in p["errors"]]
    for i, p in enumerate(passes[1:], 2):
        if p["hashes"] != passes[0]["hashes"]:
            differ = sum(x != y for x, y in zip(p["hashes"], passes[0]["hashes"]))
            errors.append(f"pass {i}: stdout differs from pass 1 for {differ} items")
    correct = not errors
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    totals = [sum(p["item_s"]) for p in passes]
    print(f"{args.workload} seed {args.seed}: {len(ref_s)} items x {len(passes)} passes, "
          f"pass totals {' '.join(f'{t:.3f}' for t in totals)} s, reference work "
          f"{1e3 * min(ref_s):.3f}-{1e3 * max(ref_s):.3f} ms (median {1e3 * statistics.median(ref_s):.3f})")
    info = passes[-1]["info"]  # under --trace 1 the traced pass's, with the input properties
    if args.trace:
        info["trace.overhead_s"] = totals[1] - totals[0]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in passes[1]["layers"].items()}
    else:
        item_ms = _host_adjusted_ms(passes, ref_s)
        metrics = {
            "wall_s": {"value": sum(item_ms) / 1e3, "unit": "s"},
            "item_p50_ms": {"value": hd_quantile(item_ms, 0.5), "unit": "ms"},
            "item_p90_ms": {"value": hd_quantile(item_ms, 0.9), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups) * REFERENCE_S / statistics.median(ref_s), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
        }
    print(f"info {json.dumps(info)}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(p["item_s"]) for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
