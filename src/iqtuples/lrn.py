"""Solvers for x^2 + d*y^2 = ell^z and the class-number divisibility verifier.

Two independent routes to the solution set with z bounded: a brute scan
over (z, x), and a structured enumeration that builds every solution as

    x + y*sqrt(-d) = eps * (a + mu*b*sqrt(-d))^t,   z = s*t,

from base solutions a^2 + d*b^2 = ell^s with gcd(a, b) = 1 and s dividing
the form class number h*(-4d). The verifier uses the structured route's
theory (primitive divisors of Lehmer numbers force t = 1) to certify that
n divides h*(-4d) where -d is the square-free part of p^2 - ell^n, and
records each elimination step in a machine-readable trace.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from math import gcd, isqrt

from . import arith, classno, lehmer
from .errors import DomainError, HypothesisCheck, decimal, labelled

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LrnInstance:
    """The equation x^2 + d*y^2 = ell^z, searched for z <= z_max.

    Solutions are positive coprime pairs (x, y). The structured solver's
    underlying decomposition is stated for d > 3; d = 2 and d = 3 are
    accepted as well (their rings have unit group {1, -1}, and the
    decomposition is checked against the brute solver in the test suite).
    """

    d: int
    ell: int
    z_max: int

    def __post_init__(self):
        if self.d < 2:
            raise DomainError(f"d must be at least 2, got {self.d}")
        if self.ell <= 1 or self.ell % 2 == 0:
            raise DomainError(f"ell must be an odd integer > 1, got {self.ell}")
        if gcd(self.ell, 2 * self.d) != 1:
            raise DomainError(f"gcd(ell, 2d) must be 1, got ell={self.ell}, d={self.d}")
        if self.z_max < 1:
            raise DomainError(f"z_max must be positive, got {self.z_max}")


@dataclass(frozen=True)
class Decomposition:
    """Exact identity x + y*sqrt(-d) = eps * (a + mu*b*sqrt(-d))^t, z = s*t."""

    eps: int
    mu: int
    a: int
    b: int
    s: int
    t: int

    def expand(self, d: int) -> tuple[int, int]:
        """(x, y) from the identity, by exact arithmetic in Z[sqrt(-d)]."""
        x, y = 1, 0
        mb = self.mu * self.b
        for _ in range(self.t):
            x, y = x * self.a - y * mb * d, x * mb + y * self.a
        return self.eps * x, self.eps * y


@dataclass(frozen=True)
class LrnSolution:
    x: int
    y: int
    z: int
    decomposition: Decomposition | None = None


def solve_brute(inst: LrnInstance) -> list[LrnSolution]:
    """All solutions with z <= z_max by scanning x for each power of ell."""
    out = []
    for z in range(1, inst.z_max + 1):
        target = inst.ell**z
        x = 1
        while x * x < target:
            rest = target - x * x
            if rest % inst.d == 0:
                y2 = rest // inst.d
                y = isqrt(y2)
                if y * y == y2 and y >= 1 and gcd(x, y) == 1:
                    out.append(LrnSolution(x, y, z))
            x += 1
    out.sort(key=lambda s: (s.z, s.x, s.y))
    return out


def _base_solutions(d: int, ell: int, s: int) -> list[tuple[int, int]]:
    """Coprime positive (a, b) with a^2 + d*b^2 = ell^s, ordered by a."""
    target = ell**s
    out = []
    b = 1
    while d * b * b < target:
        rest = target - d * b * b
        a = isqrt(rest)
        if a * a == rest and a >= 1 and gcd(a, b) == 1:
            out.append((a, b))
        b += 1
    out.sort()
    return out


def solve_structured(inst: LrnInstance) -> list[LrnSolution]:
    """All solutions with z <= z_max, each carrying its power decomposition.

    Base exponents s run over the divisors of h*(-4d) in increasing order,
    base solutions in increasing a, then powers t and signs; the first
    decomposition found for an (x, y, z) is the one reported.
    """
    h = classno.class_number_forms(-4 * inst.d).h
    found: dict[tuple[int, int, int], Decomposition] = {}
    divisors = [s for s in range(1, min(h, inst.z_max) + 1) if h % s == 0]
    for s in divisors:
        for a, b in _base_solutions(inst.d, inst.ell, s):
            t = 1
            while s * t <= inst.z_max:
                for mu in (1, -1):
                    for eps in (1, -1):
                        dec = Decomposition(eps, mu, a, b, s, t)
                        x, y = dec.expand(inst.d)
                        if x > 0 and y > 0:
                            key = (x, y, s * t)
                            if key not in found:
                                if x * x + inst.d * y * y != inst.ell ** (s * t):
                                    raise ArithmeticError(
                                        f"decomposition {dec} expands off the curve"
                                    )
                                found[key] = dec
                t += 1
    sols = [LrnSolution(x, y, z, dec) for (x, y, z), dec in found.items()]
    sols.sort(key=lambda s: (s.z, s.x, s.y))
    return sols


@dataclass
class Theorem31Report:
    """Outcome of the divisibility verification for (ell, n, p).

    When every hypothesis holds the report carries the square-free part d
    and cofactor r of ell^n - p^2 = d*r^2, the class number h = h*(-4d),
    the verdict (n divides h), and a trace of the elimination steps. A
    failed hypothesis leaves verdict None; a false verdict despite valid
    hypotheses sets anomaly (it would contradict proven theory).
    """

    ell: int
    n: int
    p: int
    hypotheses: list[HypothesisCheck] = field(default_factory=list)
    branch: str = ""
    d: int | None = None
    r: int | None = None
    h: int | None = None
    verdict: bool | None = None
    anomaly: bool = False
    trace: dict = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        return all(c.ok for c in self.hypotheses)

    @property
    def rejection(self) -> str | None:
        for c in self.hypotheses:
            if not c.ok:
                return c.check
        return None


def _trace_t_range() -> dict:
    """Why the power exponent t can only be 1, 3, or 5.

    |L_t| = 1 for the Lehmer pair attached to a solution, so L_t has no
    primitive divisor; t > 30 is impossible (Bilu-Hanrot-Voutier), and the
    pair's parameters (-4db^2, 4p^2) are (0, 0) mod 4, which matches no
    tabled defective pair at odd t in 7..29 in either sign image.
    """
    finite = lehmer.exceptional_tables()["finite"]
    residues = sorted(
        {(ea % 4, eb % 4) for entries in finite.values() for ea, eb in entries}
        | {(-ea % 4, -eb % 4) for entries in finite.values() for ea, eb in entries}
    )
    return {
        "parameters": ["-4*d*b^2", "4*p^2"],
        "parameters_mod_4": [0, 0],
        "table_entries_mod_4": residues,
        "table_match_possible": [0, 0] in [list(r) for r in residues],
        "conclusion": "t in {1, 3, 5}",
    }


def _trace_t3(d: int, p: int) -> dict:
    """Eliminate t = 3: p^2 - 3*d*b^2 = +-1 has no integer solution b.

    Checked directly (neither (p^2 - 1)/(3d) nor (p^2 + 1)/(3d) is a
    perfect square) and by the congruences that prove it in general:
    with d = 2 (mod 4) and b odd, p^2 - 3*d*b^2 = 3 (mod 4) rules out +1,
    and p^2 = -1 (mod 3) is impossible, ruling out -1.
    """
    out: dict = {"equation": "p^2 - 3*d*b^2 = +-1"}
    for sign, name in ((1, "plus"), (-1, "minus")):
        num = p * p - sign
        entry: dict = {"b_squared_times_3d": num}
        if num % (3 * d) != 0:
            entry["integral"] = False
            entry["solvable"] = False
        else:
            b2 = num // (3 * d)
            entry["integral"] = True
            entry["square"] = isqrt(b2) ** 2 == b2
            entry["solvable"] = entry["square"]
        out[name] = entry
    # d = 2 (mod 4) and b odd make p^2 - 3*d*b^2 = 3 (mod 4), never +1;
    # p^2 = -1 (mod 3) would need a square residue of 2, which does not exist.
    out["mod4_rules_out_plus"] = d % 4 == 2
    out["mod3_rules_out_minus"] = (p * p) % 3 != 2
    out["possible"] = out["plus"]["solvable"] or out["minus"]["solvable"]
    return out


def _trace_t5(d: int) -> dict:
    """Eliminate t = 5: -4*d*b^2 would have to be a Fibonacci or Lucas number.

    F_k and L_k are nonnegative for every k >= 0 (F_0 = 0 is the least),
    while -4*d*b^2 <= -4d < 0, so no b works.
    """
    return {
        "required": "-4*d*b^2 equals a Fibonacci or Lucas number",
        "min_family_value": 0,
        "max_candidate": -4 * d,
        "possible": -4 * d >= 0,
    }


def theorem31_hypotheses(
    ell: int, n: int, p: int
) -> tuple[list[HypothesisCheck], arith.SquarefreeDecomposition | None]:
    """Theorem 3.1's hypotheses on p, in order, up to the first that fails.

    gcd(ell, p) = 1, then p^2 < ell^n; once both hold, 4*(p^2 - ell^n) is
    decomposed (for ell = 4*k^n - 1 it is the tuple member d + 4p^2), and
    d' = -s, s its square-free part. Last comes p != +-1 (mod d'), waived
    for p in {3, 5}, which need only (ell, n) != (3, 3). Returns the checks
    made and the decomposition, None when a check before it failed.
    ell = 3 (mod 4) is the caller's to check: it holds for every tuple.
    """
    g = gcd(ell, p)
    checks = [HypothesisCheck(f"gcd(ell, {p}) = 1", g == 1, f"gcd({ell}, {p}) = {g}")]
    if g != 1:
        return checks, None
    elln = ell**n
    ok = p * p < elln
    checks.append(HypothesisCheck(f"{p}^2 < ell^n", ok, f"{p * p} < {decimal(elln)}"))
    if not ok:
        return checks, None
    dec = arith.squarefree_decompose(4 * (p * p - elln))
    if p in (3, 5):
        checks.append(HypothesisCheck(
            f"(ell, n) != (3, 3) for p = {p}", (ell, n) != (3, 3),
            "congruence condition waived for p in {3, 5}",
        ))
    else:
        dprime = -dec.s
        checks.append(HypothesisCheck(
            f"{p} != +-1 (mod d')", p % dprime not in (1, dprime - 1),
            f"d' = {dprime}, {p} = {p % dprime} (mod d')",
        ))
    return checks, dec


def theorem31_verify(ell: int, n: int, p: int) -> Theorem31Report:
    """Certify that n divides h*(-4d), -d the square-free part of p^2 - ell^n.

    Hypotheses: ell = 3 (mod 4), gcd(ell, p) = 1, p^2 < ell^n, and either
    p in {3, 5} with (ell, n) != (3, 3), or p incongruent to +-1 mod d.
    Violations produce a report with the failed check named, not an
    exception. With valid hypotheses the verdict is the computed
    divisibility; the trace records the t-elimination steps.
    """
    if n <= 1 or n % 2 == 0:
        raise DomainError(f"n must be an odd integer > 1, got {n}")
    if ell <= 1 or ell % 2 == 0:
        raise DomainError(f"ell must be an odd integer > 1, got {ell}")
    if p % 2 == 0 or not labelled(lambda: f"testing p = {p} for primality", arith.is_prime, p):
        raise DomainError(f"p must be an odd prime, got {p}")

    report = Theorem31Report(ell, n, p)
    ok = ell % 4 == 3
    report.hypotheses.append(
        HypothesisCheck("ell = 3 (mod 4)", ok, f"ell = {ell} = {ell % 4} (mod 4)")
    )
    if not ok:
        return report
    checks, dec = labelled(lambda: f"decomposing 4(p^2 - ell^n) = {decimal(4 * (p * p - ell**n))}",
                           theorem31_hypotheses, ell, n, p)
    report.hypotheses += checks
    if dec is not None:
        # 4*(p^2 - ell^n) = -d * (2r)^2, and the decomposition is unique
        report.d, report.r = -dec.s, dec.f // 2
        report.branch = "p-in-{3,5}" if p in (3, 5) else "general"
    if not report.accepted:
        return report

    report.trace["solution"] = {
        "equation": f"x^2 + {report.d}*y^2 = {ell}^z",
        "x": p, "y": report.r, "z": n,
    }
    report.trace["d_mod_4"] = report.d % 4
    report.trace["t_range"] = _trace_t_range()
    report.trace["t3"] = _trace_t3(report.d, p)
    report.trace["t5"] = _trace_t5(report.d)
    report.trace["conclusion"] = "t = 1, so n = s divides h*(-4d)"

    report.h = classno.class_number_forms(-4 * report.d).h
    report.verdict = report.h % n == 0
    if not report.verdict:
        report.anomaly = True
        log.error(
            "verified hypotheses but %d does not divide h*(%d) = %d for "
            "(ell, n, p) = (%d, %d, %d); this contradicts proven theory",
            n, -4 * report.d, report.h, ell, n, p,
        )
    if report.trace["t3"]["possible"] or report.trace["t5"]["possible"]:
        report.anomaly = True
        log.error("t-elimination unexpectedly failed for (%d, %d, %d)", ell, n, p)
    return report
