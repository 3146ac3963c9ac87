"""Seeded inputs, item runners and output checks for the three workloads.

Every workload is a list of items built from the seed alone. An item is
either one CLI invocation (argv plus optional stdin) or, for `sweep`, one
window of discriminants. The program only ever sees the generated argv and
JSON lines. Range rules, never observed failures, decide what is generated;
the hypothesis rules the library applies are re-stated here exactly so that
rejected (n, k, p) are dropped before timing starts.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from math import gcd, isqrt

from iqtuples import arith, families

# Items in a 30-second run; other run lengths scale these counts.
REFERENCE_SECONDS = 30

# certify: (n, k) whose |d| = 4*(4k^n - 1)^n stays at or below 2*10^11 (well
# inside the default sf budget), grouped by decade of |d|. (3, 10) and
# (3, 11) are left out: one of them costs as much as the rest of a run.
CERTIFY_NK = [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (3, 9), (5, 2)]

# certify items per run by decade of |D| and kind. Kinds: Q quadruple, F
# quintuple, T tuples, V verify on a JSON line, H thm31. Few tuples exist in
# the top decades, so their slots rotate through all of them, which keeps the
# cost of a run nearly independent of the seed. Items from 10^9 up are under
# a tenth of the total, so the p90 item falls among the many 10^8 tuples
# rather than on the boundary between two decades.
CERTIFY_RECIPE = {
    5: {"Q": 12, "F": 3, "T": 8, "V": 8, "H": 20},
    6: {"Q": 12, "F": 3, "T": 8, "V": 8, "H": 20},
    7: {"Q": 10, "T": 4, "V": 6, "H": 14},
    8: {"Q": 6, "F": 2, "T": 3, "V": 4, "H": 10},
    9: {"Q": 1, "F": 1, "H": 3},
    10: {"Q": 2, "V": 1, "H": 2},
    11: {"F": 1, "H": 1},
}
# thm31 discriminants in the top decade stay below this, so that one draw
# cannot cost several times another. It also bounds every certify |D|.
CERTIFY_TOP = 3 * 10**11
# A thm31 item's |D| lies within this distance of its slot's target, in log10
# (about 5%, so the form count's cost, which grows as sqrt|D|, within 2.5%).
THM31_TOLERANCE = 0.02

# sweep: windows per decade of |D| per run, each holding this many
# fundamental discriminants. Starts are uniform in |D| within a decade, and
# the upper decade has more windows: the Dirichlet sum costs O(|D|), and at
# small |D| the fixed cost of a CLI call would hide it.
SWEEP_WINDOWS = {4: 40, 5: 80}
SWEEP_FUNDAMENTAL_PER_WINDOW = 4
SWEEP_MAX = 999_000  # window starts stay clear of the Dirichlet limit 10^6

# construct: every (n, k) below twice per 30 seconds of run: once as tuples
# with every accepted odd prime up to CONSTRUCT_M, once as a quintuple or a
# quadruple with p in {3, 5}, chosen by k. All radicands stay below
# arith.MR_PROVEN_BOUND. The factoring cost of d + 4p^2 (and of ell^n - p^2,
# which the hypothesis check for p > 5 factors) is heavy-tailed in (k, p);
# fixing the items per (n, k) keeps that tail in every run instead of letting
# the seed pick it. The seed sets the order of the items.
CONSTRUCT_NK = [(3, k) for k in range(12, 201)] + [(5, k) for k in range(2, 7)] + [(7, 2)]
CONSTRUCT_M = 13


@dataclass
class Item:
    """One closed-loop request: argv for cli.main, or a sweep window start."""

    argv: list[str] = field(default_factory=list)
    stdin: str | None = None
    window: int = 0
    decade: int = 0
    # What the output must show: kind, n, k, p_list (tuples) or ell, n, p.
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    items: list[Item]
    max_disc: int  # bound on |D| for the workload, not the seed; sizes the spf table
    info: dict


def _odd_primes(limit: int) -> list[int]:
    return [p for p in arith.primes_up_to(limit) if p != 2]


_SMALL_PRIMES = arith.primes_up_to(10_000)


def squarefree_part(m: int) -> int:
    """Square-free part of 0 < m <= 10^12, by trial division to m^(1/3).

    What remains after removing primes up to the cube root has at most two
    prime factors, so it is a prime square or square-free.
    """
    s = 1
    for q in _SMALL_PRIMES:
        if q * q * q > m:
            break
        e = 0
        while m % q == 0:
            m //= q
            e += 1
        if e % 2:
            s *= q
    r = isqrt(m)
    return s if r * r == m else s * m


def _small_squarefree_part(m: int, bound: int) -> int | None:
    """sf(m) for m > 0 when it is at most bound, else None (no factoring)."""
    for s in range(1, bound + 1):
        if m % s == 0:
            r = isqrt(m // s)
            if r * r == m // s and all(s % (q * q) for q in range(2, isqrt(s) + 1)):
                return s
    return None


def prime_accepted(n: int, k: int, p: int) -> bool:
    """The hypotheses families attaches to the offset 4p^2, stated exactly.

    gcd(ell, p) = 1, p^2 < ell^n, and for p outside {3, 5} p is not +-1
    modulo d' = sf(ell^n - p^2). Since p < d' - 1 whenever d' > p + 1, only
    a square-free part up to p + 1 can reject p, and that needs no factoring.
    """
    ell = 4 * k**n - 1
    if gcd(ell, p) != 1 or p * p >= ell**n:
        return False
    if p in (3, 5):
        return (ell, n) != (3, 3)
    dprime = _small_squarefree_part(ell**n - p * p, p + 1)
    return dprime is None or p % dprime not in (1, dprime - 1)


def _tuple_radicand_max(n: int, k: int, p_list: list[int]) -> int:
    return abs(4 * (1 - 4 * k**n) ** n) + 4 * max(p_list, default=0) ** 2


def _decade(x: int) -> int:
    return len(str(abs(x))) - 1


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """count values, one uniform draw in each of count equal slices of [lo, hi)."""
    step = (hi - lo) / count
    return [lo + (i + rng.random()) * step for i in range(count)]


# ---------------------------------------------------------------- certify

def _tuple_item(kind: str, slot: int, n: int, k: int, rng: random.Random, decade: int) -> Item:
    """A quadruple, quintuple or tuples item at (n, k), or verify on one.

    The slot number, not the seed, picks the tuple size and the record a
    verify item reads. The seed picks a quadruple's p only among the accepted
    primes with ell^n - p^2 square-free, so that the member d + 4p^2 keeps its
    full size and the seed moves p but not the work per item.
    """
    ok = [p for p in _odd_primes(31) if prime_accepted(n, k, p)]
    quintuple_ok = 3 in ok and 5 in ok
    if kind == "F" and not quintuple_ok:
        kind = "Q"
    inner = kind
    if kind == "V":
        inner = "F" if quintuple_ok and decade < 9 and slot % 2 else "Q"
    if inner == "Q":
        ell = 4 * k**n - 1
        p = rng.choice([p for p in ok if squarefree_part(ell**n - p * p) == ell**n - p * p] or ok)
        argv = ["quadruple", "-n", str(n), "-p", str(p), "-k", str(k)]
        expect = {"kind": "quadruple", "p_list": [p]}
        build = lambda: families.quadruple(n, p, k)  # noqa: E731
    elif inner == "F":
        argv = ["quintuple", "-n", str(n), "-k", str(k)]
        expect = {"kind": "quintuple", "p_list": [3, 5]}
        build = lambda: families.quintuple(n, k)  # noqa: E731
    else:
        sizes = [5, 7] if decade >= 8 else [5, 7, 11, 13]
        m = sizes[slot % len(sizes)]
        primes = _odd_primes(m)
        mode = "strict" if all(p in ok for p in primes) else "lenient"
        argv = ["tuples", "-n", str(n), "-m", str(m), "-k", str(k), "--mode", mode]
        expect = {"kind": "pi_tuple", "p_list": [p for p in primes if p in ok]}
        build = lambda: families.pi_tuple(n, m, k, mode)  # noqa: E731
    expect.update(n=n, k=k)
    if kind == "V":
        return Item(["verify", "--format", "json"], families.to_json_line(build()) + "\n",
                    decade=decade, expect=expect)
    return Item(argv + ["--verify", "--format", "json"], decade=decade, expect=expect)


def _thm31_item(rng: random.Random, target: float, lo: int, hi: int) -> Item:
    """thm31 on (ell, n, p) whose |D| = 4*sf(ell^n - p^2) lies in [lo, hi) and
    within THM31_TOLERANCE of 10^target in log10.

    The target comes from the item's slot; the seed only chooses among the
    (ell, n, p) that meet it, so it barely moves the cost of the form count.
    """
    primes = _odd_primes(199)
    for _ in range(100_000):
        n = rng.choice((3, 5, 7))
        ell = round((10**target / 4) ** (1 / n)) + 4 * rng.randint(-2, 2)
        ell += (3 - ell) % 4
        p = rng.choice(primes)
        if ell < 3 or ell**n > 10**12 or gcd(ell, p) != 1 or p * p >= ell**n:
            continue
        d = squarefree_part(ell**n - p * p)
        if p in (3, 5):
            ok = (ell, n) != (3, 3)
        else:
            ok = d > 1 and p % d not in (1, d - 1)
        if ok and lo <= 4 * d < hi and abs(math.log10(4 * d) - target) <= THM31_TOLERANCE:
            argv = ["thm31", "-l", str(ell), "-n", str(n), "-p", str(p), "--format", "json"]
            return Item(argv, decade=_decade(4 * d), expect={"ell": ell, "n": n, "p": p, "D": -4 * d})
    raise RuntimeError(f"no thm31 parameters with |D| near 10^{target:.3f}")


def certify(seed: int, seconds: int) -> Workload:
    rng = random.Random(seed)
    scale = seconds / REFERENCE_SECONDS
    by_decade: dict[int, list[tuple[int, int]]] = {}
    for n, k in CERTIFY_NK:
        by_decade.setdefault(_decade(4 * (4 * k**n - 1) ** n), []).append((n, k))
    items: list[Item] = []
    for decade, kinds in CERTIFY_RECIPE.items():
        lo, hi = 10**decade, min(10 ** (decade + 1), CERTIFY_TOP)
        slots = [(kind, j) for kind, c in kinds.items() if kind != "H" for j in range(_scaled(c, scale))]
        nks = by_decade[decade]
        offset = rng.randrange(len(nks))
        for i, (kind, j) in enumerate(slots):
            n, k = nks[(offset + i) % len(nks)]
            items.append(_tuple_item(kind, j, n, k, rng, decade))
        count = _scaled(kinds["H"], scale)
        step = math.log10(hi / lo) / count
        for j in range(count):  # the middle of each of count equal slices of the decade
            items.append(_thm31_item(rng, math.log10(lo) + (j + 0.5) * step, lo, hi))
    rng.shuffle(items)
    counts = {f"1e{d}": sum(it.decade == d for it in items) for d in sorted({it.decade for it in items})}
    return Workload(items, CERTIFY_TOP, {"items_by_decade": counts})


def check_certify(item: Item, out: str) -> list[str]:
    """Exit 0 was checked by the runner; here every member and verdict."""
    recs = [json.loads(line) for line in out.splitlines() if line]
    if len(recs) != 1:
        return [f"expected one JSON record, got {len(recs)}"]
    rec, ex = recs[0], item.expect
    if "ell" in ex:
        errs = []
        for key in ("ell", "n", "p"):
            if rec[key] != ex[key]:
                errs.append(f"thm31 {key} = {rec[key]}, expected {ex[key]}")
        if not (rec["accepted"] and rec["verdict"] is True and not rec["anomaly"]):
            errs.append(f"thm31 not certified: {rec['rejection']}, anomaly {rec['anomaly']}")
        elif rec["h"] % ex["n"] or -4 * rec["d"] != ex["D"]:
            errs.append(f"thm31 h = {rec['h']} at d = {rec['d']}")
        elif ex["ell"] ** ex["n"] - ex["p"] ** 2 != rec["d"] * rec["r"] ** 2:
            errs.append("thm31 ell^n - p^2 != d*r^2")
        return errs
    errs = _check_tuple_record(rec, ex)
    for m in rec["members"]:
        if m["status"] != families.STATUS_VERIFIED:
            errs.append(f"offset {m['offset']}: status {m['status']}")
        elif m["class_number"] % ex["n"] or m["divisible"] is not True:
            errs.append(f"offset {m['offset']}: h = {m['class_number']} not divisible by {ex['n']}")
    if rec["all_divisible"] is not True:
        errs.append(f"all_divisible = {rec['all_divisible']}")
    return errs


def oracle_pairs(item: Item, out: str) -> list[tuple[int, int]]:
    """(D, h) certified by a certify item, for the Dirichlet cross-check."""
    rec = json.loads(out)
    if "ell" in item.expect:
        return [(-4 * rec["d"], rec["h"])]
    return [(s if s % 4 == 1 else 4 * s, m["class_number"])
            for m in rec["members"] for s in [m["squarefree_part"]]]


# ------------------------------------------------------------------ sweep

def sweep(seed: int, seconds: int) -> Workload:
    rng = random.Random(seed)
    scale = seconds / REFERENCE_SECONDS
    items = []
    for decade, count in SWEEP_WINDOWS.items():
        hi = min(10 ** (decade + 1), SWEEP_MAX)
        for x in _stratified(rng, 10**decade, hi, _scaled(count, scale)):
            items.append(Item(window=int(x), decade=decade))
    rng.shuffle(items)
    counts = {f"1e{d}": sum(it.decade == d for it in items) for d in SWEEP_WINDOWS}
    return Workload(items, SWEEP_MAX + 10_000, {"items_by_decade": counts})


def candidates(start: int):
    """|D| = start, start + 1, ... with D = -|D| congruent to 0 or 1 mod 4."""
    m = start
    while True:
        if m % 4 in (0, 3):
            yield -m
        m += 1


def is_fundamental(D: int) -> bool:
    """Independent fundamentality test for -10^6 <= D < 0."""
    if D % 4 == 1:
        return squarefree_part(-D) == -D
    if D % 4 == 0:
        m = -D // 4
        return m % 4 in (1, 2) and squarefree_part(m) == m
    return False


def check_sweep(item: Item, out: str) -> list[str]:
    """A window's output: the tested D, the fundamental ones, then a Dirichlet
    and a form-count record for each fundamental D."""
    errs = []
    lines = out.splitlines()
    tested = [int(x) for x in lines[0].split()]
    for D in tested:
        if is_fundamental(D) != (str(D) in lines[1].split()):
            errs.append(f"fundamentality of {D} disagrees with trial division")
    pairs = [json.loads(line) for line in lines[2:]]
    for dirichlet, forms in zip(pairs[::2], pairs[1::2]):
        if dirichlet["discriminant"] != forms["discriminant"] or dirichlet["h"] != forms["h"]:
            errs.append(f"forms {forms} != dirichlet {dirichlet}")
        if (dirichlet["method"], forms["method"]) != ("dirichlet", "form-count"):
            errs.append(f"unexpected methods {dirichlet['method']}, {forms['method']}")
    if len(pairs) != 2 * SWEEP_FUNDAMENTAL_PER_WINDOW:
        errs.append(f"window produced {len(pairs) // 2} fundamental discriminants")
    return errs


# -------------------------------------------------------------- construct

def _construct_items(n: int, k: int) -> list[Item]:
    """The tuples item for (n, k) and a quintuple or quadruple, both fixed by (n, k)."""
    ok = [p for p in _odd_primes(CONSTRUCT_M) if prime_accepted(n, k, p)]
    mode = "strict" if len(ok) == len(_odd_primes(CONSTRUCT_M)) else "lenient"
    items = [(["tuples", "-n", str(n), "-m", str(CONSTRUCT_M), "-k", str(k), "--mode", mode],
              {"kind": "pi_tuple", "p_list": ok})]
    small = [p for p in (3, 5) if p in ok]
    if k % 2 and len(small) == 2:
        items.append((["quintuple", "-n", str(n), "-k", str(k)], {"kind": "quintuple", "p_list": [3, 5]}))
    else:
        p = (small or ok)[k // 2 % len(small or ok)]
        items.append((["quadruple", "-n", str(n), "-p", str(p), "-k", str(k)],
                      {"kind": "quadruple", "p_list": [p]}))
    decade = _decade(4 * (4 * k**n - 1) ** n)
    return [Item(argv + ["--format", "json"], decade=decade, expect={**expect, "n": n, "k": k})
            for argv, expect in items]


def construct(seed: int, seconds: int) -> Workload:
    rng = random.Random(seed)
    items = []
    for _ in range(max(1, round(seconds / REFERENCE_SECONDS))):
        for n, k in CONSTRUCT_NK:
            items.extend(_construct_items(n, k))
    rng.shuffle(items)
    bound = max(_tuple_radicand_max(it.expect["n"], it.expect["k"], it.expect["p_list"]) for it in items)
    if bound >= arith.MR_PROVEN_BOUND:
        raise RuntimeError("construct radicand above the proven primality bound")
    counts: dict[str, int] = {}
    for it in items:
        counts[it.expect["kind"]] = counts.get(it.expect["kind"], 0) + 1
    return Workload(items, 0, {"items_by_kind": dict(sorted(counts.items()))})


def _check_tuple_record(rec: dict, ex: dict) -> list[str]:
    """Header, construction identities and decompositions; shared by certify and construct."""
    n, k, p_list = ex["n"], ex["k"], ex["p_list"]
    ell, d = 4 * k**n - 1, 4 * (1 - 4 * k**n) ** n
    got = (rec["schema"], rec["kind"], rec["n"], rec["k"], rec["ell"], rec["d"], rec["p_list"])
    want = (families.SCHEMA_VERSION, ex["kind"], n, k, ell, d, p_list)
    if got != want:
        return [f"record header {got} != {want}"]
    # d, d + 1 = 1 - 4 ell^n, d + 4 = 4 (1 - ell^n), d + 4p^2 = 4 (p^2 - ell^n)
    radicands = {0: d, 1: 1 - 4 * ell**n, 4: 4 * (1 - ell**n)}
    radicands.update((4 * p * p, 4 * (p * p - ell**n)) for p in p_list)
    errs = []
    if [m["offset"] for m in rec["members"]] != list(radicands):
        errs.append(f"offsets {[m['offset'] for m in rec['members']]} != {list(radicands)}")
    for m in rec["members"]:
        s, f, rad = m["squarefree_part"], m["cofactor"], m["radicand"]
        if rad != radicands.get(m["offset"]) or rad != d + m["offset"]:
            errs.append(f"offset {m['offset']}: radicand {rad} breaks the construction identity")
        elif rad != s * f * f or (s < 0) != (rad < 0):
            errs.append(f"offset {m['offset']}: radicand {rad} != {s} * {f}^2")
        elif any(s % (q * q) == 0 for q in _SMALL_PRIMES[:25]):
            errs.append(f"offset {m['offset']}: square-free part {s} has a square factor")
    return errs


def check_construct(item: Item, out: str) -> list[str]:
    recs = [json.loads(line) for line in out.splitlines() if line]
    if len(recs) != 1:
        return [f"expected one JSON record, got {len(recs)}"]
    rec = recs[0]
    errs = _check_tuple_record(rec, item.expect)
    for m in rec["members"]:
        if m["status"] != families.STATUS_PENDING or m["class_number"] is not None:
            errs.append(f"offset {m['offset']}: constructed member is {m['status']}")
    return errs


GENERATORS = {"certify": certify, "sweep": sweep, "construct": construct}
CHECKS = {"certify": check_certify, "sweep": check_sweep, "construct": check_construct}
