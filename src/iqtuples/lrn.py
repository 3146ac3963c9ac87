"""Solvers for x^2 + d*y^2 = ell^z and the class-number divisibility verifier.

Two independent routes to the solution set with z bounded: a brute scan
over (z, x), and a structured enumeration that builds every solution as

    x + y*sqrt(-d) = eps * (a + mu*b*sqrt(-d))^t,   z = s*t,

from base solutions a^2 + d*b^2 = ell^s with gcd(a, b) = 1 and s dividing
the form class number h*(-4d). The verifier checks Theorem 3.1's
hypotheses on (ell, n, p) and then decides whether n divides h*(-4d), -d
the square-free part of p^2 - ell^n, by one exact form count: the verdict
is the count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from math import gcd, isqrt

from . import arith, classno
from .errors import DomainError, HypothesisCheck, OutOfRangeError, labelled

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


def _base_solutions(d: int, ell_factors: tuple, s: int) -> list[tuple[int, int]]:
    """Coprime positive (a, b) with a^2 + d*b^2 = ell^s, ordered by a, ell given by its (p, e).

    By Cornacchia's algorithm. Such a b is prime to m = ell^s, so a/b mod m
    is a square root of -d mod m, and each root r gives at most one
    solution: a is the first remainder below sqrt(m) in Euclid's algorithm
    on (m, r). The roots are taken mod each prime power p^(e*s) of m by
    arith.sqrt_mod_prime_power and joined by CRT: at most 2^k of them
    for k primes of ell, as gcd(ell, 2d) = 1. A root and its negative may
    give the same solution.
    """
    roots, m = [0], 1
    for p, e in ell_factors:
        q = p ** (e * s)
        inv = pow(m, -1, q)
        roots = [r0 + m * ((r1 - r0) * inv % q)
                 for r0 in roots for r1 in arith.sqrt_mod_prime_power(-d, p, e * s)]
        m *= q
    out = set()
    for r in roots:
        x, a = m, r
        while a * a >= m:
            x, a = a, x % a
        b = isqrt((m - a * a) // d)
        if a * a + d * b * b == m and gcd(a, b) == 1:
            out.add((a, b))
    return sorted(out)


def solve_structured(inst: LrnInstance) -> list[LrnSolution]:
    """All solutions with z <= z_max, each carrying its power decomposition.

    Base exponents s run over the divisors of h*(-4d) in increasing order
    (ell is factored once for all), base solutions in increasing a, then
    powers t and signs; the first decomposition found for an (x, y, z) is
    the one reported. The power (a + b*sqrt(-d))^t and ell^(s*t) are stepped
    from t - 1 by one multiplication each, mu = -1 taking the conjugate, so
    a z_max costs z_max steps per base solution rather than z_max^2 / 2.
    """
    h = classno.class_number_forms(-4 * inst.d).h
    found: dict[tuple[int, int, int], Decomposition] = {}
    divisors = [s for s in range(1, min(h, inst.z_max) + 1) if h % s == 0]
    ell_factors = arith.factorize(inst.ell).factors
    for s in divisors:
        ell_s = inst.ell**s
        for a, b in _base_solutions(inst.d, ell_factors, s):
            X, Y, power = 1, 0, 1  # (a + b*sqrt(-d))^t = X + Y*sqrt(-d), and ell^(s*t)
            for t in range(1, inst.z_max // s + 1):
                X, Y, power = X * a - Y * b * inst.d, X * b + Y * a, power * ell_s
                for mu in (1, -1):
                    for eps in (1, -1):
                        x, y = eps * X, eps * mu * Y
                        if x > 0 and y > 0:
                            key = (x, y, s * t)
                            if key not in found:
                                dec = Decomposition(eps, mu, a, b, s, t)
                                if x * x + inst.d * y * y != power:
                                    raise ArithmeticError(
                                        f"decomposition {dec} expands off the curve"
                                    )
                                found[key] = dec
    sols = [LrnSolution(x, y, z, dec) for (x, y, z), dec in found.items()]
    sols.sort(key=lambda s: (s.z, s.x, s.y))
    return sols


@dataclass
class Theorem31Report:
    """Outcome of the divisibility verification for (ell, n, p).

    When every hypothesis holds the report carries the square-free part d
    and cofactor r of ell^n - p^2 = d*r^2, the class number h = h*(-4d)
    and the verdict (n divides h). A failed hypothesis leaves verdict None;
    a false verdict despite valid hypotheses sets anomaly (it would
    contradict proven theory).
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

    @property
    def accepted(self) -> bool:
        return all(c.ok for c in self.hypotheses)

    @property
    def rejection(self) -> str | None:
        for c in self.hypotheses:
            if not c.ok:
                return c.check
        return None


# ell^n is refused, before it is formed, when n*bits(ell) exceeds this: its
# radicands would lie far past arith.MR_PROVEN_BOUND (about 2^81.5), where
# is_prime refuses every cofactor, while forming the power alone can take
# seconds (ell = 4*2^6001 - 1 to the 6001st has 36 million bits).
POWER_CAP_BITS = 200


def ell_power(ell: int, n: int) -> int:
    """ell^n, or OutOfRangeError before it is formed when n*bits(ell) > POWER_CAP_BITS."""
    if n * ell.bit_length() > POWER_CAP_BITS:
        raise OutOfRangeError(f"ell^n has up to n*bits(ell) = {n * ell.bit_length()} bits, "
                              f"past the cap of {POWER_CAP_BITS}")
    return ell**n


def theorem31_hypotheses(
    ell: int, n: int, p: int, elln: int
) -> tuple[list[HypothesisCheck], arith.SquarefreeDecomposition | None]:
    """Theorem 3.1's hypotheses on p, in order, up to the first that fails.

    elln is ell^n, formed once by the caller (ell_power). gcd(ell, p) = 1,
    then p^2 < ell^n; once both hold, 4*(p^2 - ell^n) = (2p)^2 - 4*ell^n is
    decomposed by arith.decompose_member(4*ell^n, 2p), the route the tuple
    builder takes for its member d + 4p^2 (ell = 4*k^n - 1), and d' = -s, s
    its square-free part. Last comes p != +-1 (mod d'), waived for p in
    {3, 5}, which need only (ell, n) != (3, 3). Returns the checks made and
    the decomposition, None when a check before it failed. ell = 3 (mod 4)
    is the caller's to check: it holds for every tuple.
    """
    g = gcd(ell, p)
    checks = [HypothesisCheck(f"gcd(ell, {p}) = 1", g == 1, f"gcd({ell}, {p}) = {g}")]
    if g != 1:
        return checks, None
    ok = p * p < elln
    checks.append(HypothesisCheck(f"{p}^2 < ell^n", ok,
                                  f"{p * p} {'<' if ok else '>='} {elln}"))
    if not ok:
        return checks, None
    dec = arith.decompose_member(4 * elln, 2 * p)
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
    exception. With valid hypotheses the verdict is the count: h*(-4d) by
    classno.class_number_forms, and whether n divides it.
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
    elln = ell_power(ell, n)
    checks, dec = labelled(lambda: f"decomposing 4(p^2 - ell^n) = {4 * (p * p - elln)}",
                           theorem31_hypotheses, ell, n, p, elln)
    report.hypotheses += checks
    if dec is not None:
        # 4*(p^2 - ell^n) = -d * (2r)^2, and the decomposition is unique
        report.d, report.r = -dec.s, dec.f // 2
        report.branch = "p-in-{3,5}" if p in (3, 5) else "general"
    if not report.accepted:
        return report

    report.h = classno.class_number_forms(-4 * report.d).h
    report.verdict = report.h % n == 0
    if not report.verdict:
        report.anomaly = True
        log.error(
            "verified hypotheses but %d does not divide h*(%d) = %d for "
            "(ell, n, p) = (%d, %d, %d); this contradicts proven theory",
            n, -4 * report.d, report.h, ell, n, p,
        )
    return report
