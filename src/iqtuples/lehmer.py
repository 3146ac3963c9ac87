"""Lehmer numbers, primitive divisors, and the tables of defective pairs.

A Lehmer pair (alpha, beta) is described here by its parameter pair
(a, b) = ((alpha + beta)^2, (alpha - beta)^2), two integers with
a = b (mod 4), a != b, both nonzero, gcd(a, (a - b)/4) = 1, and alpha/beta
not a root of unity. The n-th Lehmer number is

    L_n = (alpha^n - beta^n) / (alpha - beta)      n odd
    L_n = (alpha^n - beta^n) / (alpha^2 - beta^2)  n even

and is always a rational integer. A prime is a primitive divisor of L_n if
it divides L_n but not a*b*L_1*...*L_{n-1} (note (alpha^2-beta^2)^2 = a*b).
By the Bilu-Hanrot-Voutier theorem L_n has a primitive divisor for every
n > 30; the finitely many defective parameter pairs for odd n in 7..29 and
the parametrized families for n in {3, 5} ship as a versioned data file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from math import gcd

from . import arith
from .errors import DomainError

def fibonacci(k: int) -> int:
    """k-th Fibonacci number, F_0 = 0, F_1 = 1."""
    if k < 0:
        raise DomainError(f"fibonacci requires k >= 0, got {k}")
    x, y = 0, 1
    for _ in range(k):
        x, y = y, x + y
    return x


def lucas(k: int) -> int:
    """k-th Lucas number, L_0 = 2, L_1 = 1."""
    if k < 0:
        raise DomainError(f"lucas requires k >= 0, got {k}")
    x, y = 2, 1
    for _ in range(k):
        x, y = y, x + y
    return x


def _lehmer_raw(a: int, b: int, n: int) -> int:
    """L_n for parameters (a, b) with no validity checking.

    Same-parity linear recurrence: with M = (a + b)/2 and q = (a - b)/4
    (so M = alpha^2 + beta^2 and q = alpha*beta),

        L_{n+2} = M * L_n - q^2 * L_{n-2}

    seeded by L_1 = 1, L_3 = (3a + b)/4 on the odd side and
    L_2 = 1, L_4 = (a + b)/2 on the even side.
    """
    q = (a - b) // 4
    M = (a + b) // 2
    if n % 2:
        if n == 1:
            return 1
        lo, hi = 1, (3 * a + b) // 4
        k = 3
    else:
        if n == 2:
            return 1
        lo, hi = 1, M
        k = 4
    qq = q * q
    while k < n:
        lo, hi = hi, M * hi - qq * lo
        k += 2
    return hi


@dataclass(frozen=True)
class LehmerParams:
    """Validated parameter pair (a, b) of a Lehmer pair."""

    a: int
    b: int

    def __post_init__(self):
        a, b = self.a, self.b
        if a == 0 or b == 0:
            raise DomainError(f"parameters must be nonzero, got ({a}, {b})")
        if a == b:
            raise DomainError(f"parameters must differ, got ({a}, {b})")
        if (a - b) % 4:
            raise DomainError(f"(a - b) must be divisible by 4, got ({a}, {b})")
        if gcd(a, (a - b) // 4) != 1:
            raise DomainError(
                f"(alpha+beta)^2 = {a} and alpha*beta = {(a - b) // 4} are not coprime"
            )
        # alpha/beta a root of unity forces some L_n = 0 with n <= 12
        for n in range(2, 13):
            if _lehmer_raw(a, b, n) == 0:
                raise DomainError(f"degenerate pair ({a}, {b}): L_{n} = 0")

    @property
    def q(self) -> int:
        """alpha * beta = (a - b) / 4."""
        return (self.a - self.b) // 4


def lehmer_number(p: LehmerParams, n: int) -> int:
    """Exact value of the n-th Lehmer number for parameters p, n >= 1."""
    if n < 1:
        raise DomainError(f"index must be positive, got {n}")
    return _lehmer_raw(p.a, p.b, n)


def _strip_known(value: int, known: int) -> int:
    """Largest divisor of |value| coprime to known."""
    m = abs(value)
    g = gcd(m, known)
    while g > 1:
        while m % g == 0:
            m //= g
        g = gcd(m, known)
    return m


def _primitive_part(p: LehmerParams, n: int) -> int:
    """The part of |L_n|, n >= 2, built from primes not dividing a*b*L_1*...*L_{n-1}."""
    if n < 2:
        raise DomainError(f"primitive divisors need n >= 2, got {n}")
    known = abs(p.a * p.b)
    for d in range(1, n // 2 + 1):  # gcd(L_k, L_n) = |L_gcd(k, n)|, as gcd(a, q) = 1
        if n % d == 0:
            known *= abs(_lehmer_raw(p.a, p.b, d))
    return _strip_known(_lehmer_raw(p.a, p.b, n), known)


def primitive_divisors(p: LehmerParams, n: int) -> frozenset[int]:
    """The set of primitive prime divisors of L_n(p), n >= 2.

    The non-primitive part of L_n is removed exactly by gcd stripping, so
    only the primitive part is ever factored; BudgetError propagates if
    that exceeds the factoring budget.
    """
    residual = _primitive_part(p, n)
    if residual == 1:
        return frozenset()
    return frozenset(q for q, _ in arith.factorize(residual).factors)


def has_primitive_divisor(p: LehmerParams, n: int) -> bool:
    """True iff primitive_divisors(p, n) is nonempty.

    Decided from the gcd-stripped primitive part alone, without factoring,
    so it never hits the factoring budget.
    """
    return _primitive_part(p, n) > 1


def equivalent_params(p1: LehmerParams, p2: LehmerParams) -> bool:
    """True iff the pairs agree up to multiplying alpha, beta by a 4th root of unity.

    At the parameter level the only images are (a, b) and (-a, -b).
    """
    return _equivalent_raw((p1.a, p1.b), (p2.a, p2.b))


def _equivalent_raw(p1: tuple[int, int], p2: tuple[int, int]) -> bool:
    return p2 == p1 or p2 == (-p1[0], -p1[1])


@lru_cache(maxsize=1)
def exceptional_tables() -> dict:
    """The shipped table of defective pairs (parsed, cached)."""
    text = resources.files("iqtuples.data").joinpath("lehmer_exceptional.json").read_text()
    return json.loads(text)


def _is_power_of_3(n: int) -> int | None:
    """Exponent k with 3^k = n, or None."""
    if n < 1:
        return None
    k = 0
    while n % 3 == 0:
        n //= 3
        k += 1
    return k if n == 1 else None


def _match_t3(pair: tuple[int, int]) -> bool:
    """Membership in the defective families at index 3, one sign image.

    Both families determine their parameters from (a, b), so no search is made.
    """
    a, b = pair
    # family (1 + u, 1 - 3u), u not in {0, 1}
    u = a - 1
    if b == 1 - 3 * u and u not in (0, 1):
        return True
    # family (3^k + u, 3^k - 3u), u != 0, 3 does not divide u, (k, u) != (1, 1)
    total = 3 * a + b  # equals 4 * 3^k on the family
    if total >= 4 and total % 4 == 0:
        k = _is_power_of_3(total // 4)
        if k is not None:
            u = a - 3**k
            if u != 0 and u % 3 != 0 and (k, u) != (1, 1):
                return True
    return False


def _match_t5(pair: tuple[int, int]) -> bool:
    """Membership in the Fibonacci/Lucas defective families at index 5, one sign image.

    On the family (seq(k - 2e), seq(k - 2e) - 4*seq(k)) a is a sequence
    value, and both sequences are nondecreasing from index 1 on, so the
    scan stops once the value passes a.
    """
    a, b = pair
    for seq, k_min, k_skip in (([0, 1], 3, None), ([2, 1], 0, 1)):
        while len(seq) < 4 or seq[-3] <= a:
            seq.append(seq[-1] + seq[-2])
        for idx, value in enumerate(seq[:-2]):
            for k in (idx + 2, idx - 2):  # e = 1, e = -1
                if value == a and k >= k_min and k != k_skip and b == a - 4 * seq[k]:
                    return True
    return False


def exceptional_table_lookup(t: int, p: LehmerParams) -> bool:
    """True iff p is, up to equivalence, a defective pair at odd index t >= 3.

    Indices 7..29 use the shipped finite table (empty for indices it does
    not list); 3 and 5 decide membership in the parametrized families
    exactly.
    """
    if t % 2 == 0:
        raise DomainError(f"table is indexed by odd t, got {t}")
    if t < 3:
        raise DomainError(f"table starts at t = 3, got {t}")
    images = ((p.a, p.b), (-p.a, -p.b))
    if t == 3:
        return any(_match_t3(img) for img in images)
    if t == 5:
        return any(_match_t5(img) for img in images)
    entries = exceptional_tables()["finite"].get(str(t), [])
    return any(
        _equivalent_raw((p.a, p.b), (ea, eb)) for ea, eb in entries
    )
