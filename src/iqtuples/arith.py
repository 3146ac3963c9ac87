"""Exact integer utilities: primality, factorization, square-free parts, Kronecker symbol.

Everything here works on plain Python integers (arbitrary precision) and is
deterministic: the same input always produces the same output, and no routine
ever trades correctness for speed.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from math import gcd, isqrt, prod

from .errors import BudgetError, DomainError, OutOfRangeError, decimal, labelled

# Strong-pseudoprime test with the first 13 primes as witnesses is a proven
# primality test below this bound (Sorenson-Webster).
MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_PROVEN_BOUND = 3317044064679887385961981


@dataclass(frozen=True)
class Limits:
    """Budgets for every computation in the context; set with ``limits``."""

    rho_budget: int = 10**8  # Pollard-rho iterations per factorize() call
    sf_budget: int = 10**12  # largest |square-free part| verify_tuple attempts


_LIMITS: ContextVar[Limits] = ContextVar("limits", default=Limits())

# Entries each process-lifetime memo keeps (factorize's here, classno's
# h-only form counts); past it the oldest entry goes. Running all 390 items
# of the construct benchmark in one process leaves 758 factorizations.
MEMO_SIZE = 1 << 14


def _remember(memo: dict, key, value) -> None:
    """Store value under key in memo, first dropping its oldest entries past MEMO_SIZE."""
    while len(memo) >= MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[key] = value


@contextmanager
def limits(**changes: int):
    """Within the block, replace the named fields of the current Limits."""
    token = _LIMITS.set(replace(_LIMITS.get(), **changes))
    try:
        yield
    finally:
        _LIMITS.reset(token)


@dataclass(frozen=True)
class Factorization:
    """Prime factorization ``n = prod(p**e)`` with primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out


@dataclass(frozen=True)
class SquarefreeDecomposition:
    """Decomposition ``n = s * f**2`` with s square-free and sign(s) = sign(n)."""

    n: int
    s: int
    f: int


def is_prime(m: int) -> bool:
    """Deterministic primality test for |m| < MR_PROVEN_BOUND (about 3.3e24).

    Miller-Rabin with a fixed witness set that is proven correct below the
    bound. Larger inputs raise OutOfRangeError rather than returning a
    probabilistic answer.
    """
    if m < 2:
        return False
    if m >= MR_PROVEN_BOUND:
        raise OutOfRangeError(
            f"is_prime supports m < {MR_PROVEN_BOUND}; got a larger value"
        )
    for p in MR_WITNESSES:
        if m % p == 0:
            return m == p
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_WITNESSES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def primes_up_to(m: int) -> list[int]:
    """All primes <= m in increasing order (sieve of Eratosthenes)."""
    if m < 2:
        return []
    sieve = bytearray([1]) * (m + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(m) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, m + 1, i)))
    return [i for i in range(2, m + 1) if sieve[i]]


_TRIAL_PRIMES = primes_up_to(10_000)
_TRIAL_PRODUCT = prod(_TRIAL_PRIMES)
_spf_table: list[int] = []
# m -> (its Factorization, the rho iterations it took), for the m rho split
_rho_memo: dict[int, tuple[Factorization, int]] = {}


def smallest_prime_factor_table(limit: int) -> list[int]:
    """Table t with t[n] = smallest prime factor of n, for 0 <= n <= limit.

    Grown on demand and cached for the process lifetime; a larger table
    replaces the old one whole, so a table a caller holds never changes.
    """
    global _spf_table
    if len(_spf_table) > limit:
        return _spf_table
    size = max(limit + 1, 2 * len(_spf_table), 1 << 16)
    spf = list(range(size))
    for p in reversed(primes_up_to(isqrt(size - 1))):  # smaller primes overwrite
        spf[p * p :: p] = [p] * len(range(p * p, size, p))
    _spf_table = spf
    return _spf_table


def _brent_rho(n: int, budget: list[int]) -> int:
    """One nontrivial factor of composite odd n, Brent's cycle variant.

    The polynomial constant c is stepped deterministically (1, 2, 3, ...) so
    repeated runs factor identically. budget is a single-element mutable
    iteration counter shared across a factorization.
    """
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                step = min(128, r - k)
                for _ in range(step):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget[0] -= step
                if budget[0] < 0:
                    raise BudgetError(f"rho iteration budget exhausted factoring {n}")
                g = gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                budget[0] -= 1
                if budget[0] < 0:
                    raise BudgetError(f"rho iteration budget exhausted factoring {n}")
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1  # cycle collapsed; retry with the next constant


def factorize(m: int) -> Factorization:
    """Prime factorization of m >= 2.

    Trial division by primes below 10^4, then Brent-Pollard rho on what is
    left, with primality certified by is_prime at every split. Raises
    BudgetError if rho exceeds the current Limits.rho_budget iterations,
    never returns a wrong or incomplete factorization. An m past the proven
    primality range whose cofactor after trial division stays past it fails
    at once: the trial primes are stripped by gcd with their product first.

    An m that rho split is remembered for the process, with the iterations
    it took (MEMO_SIZE numbers at most, the oldest dropped first). A remembered
    m is answered at once only while those iterations fit the current
    rho_budget; otherwise it is factored again, and rho, being
    deterministic, raises the BudgetError the first call would have.
    """
    if m < 2:
        raise DomainError(f"factorize requires m >= 2, got {m}")
    rho_budget = _LIMITS.get().rho_budget
    hit = _rho_memo.get(m)
    if hit is not None and hit[1] <= rho_budget:
        return hit[0]

    def is_prime_cofactor(v: int) -> bool:
        return labelled(lambda: f"factoring {decimal(m)}: "
                                f"testing the cofactor {decimal(v)} for primality", is_prime, v)

    if m >= MR_PROVEN_BOUND:
        n, g = m, gcd(m, _TRIAL_PRODUCT)
        while g > 1:
            n //= g
            g = gcd(n, g)
        if n >= MR_PROVEN_BOUND:
            is_prime_cofactor(n)  # raises the OutOfRangeError rho's first test would
    n = m
    exps: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            if n > 1:
                exps[n] = 1  # no prime up to sqrt(n) divides n, so n is prime
            return Factorization(m, tuple(exps.items()))
        while n % p == 0:
            exps[p] = exps.get(p, 0) + 1
            n //= p
    budget = [rho_budget]
    stack = [n] if n > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime_cofactor(v):
            exps[v] = exps.get(v, 0) + 1
            continue
        g = _brent_rho(v, budget)
        stack.append(g)
        stack.append(v // g)
    out = Factorization(m, tuple(sorted(exps.items())))
    if budget[0] < rho_budget:
        _remember(_rho_memo, m, (out, rho_budget - budget[0]))
    return out


def squarefree_decompose(m: int) -> SquarefreeDecomposition:
    """Split nonzero m as s * f**2 with s square-free, sign(s) = sign(m)."""
    if m == 0:
        raise DomainError("squarefree_decompose requires m != 0")
    if abs(m) == 1:
        return SquarefreeDecomposition(m, m, 1)
    s, f = 1, 1
    for p, e in factorize(abs(m)).factors:
        if e % 2:
            s *= p
        f *= p ** (e // 2)
    if m < 0:
        s = -s
    return SquarefreeDecomposition(m, s, f)


def kronecker(D: int, n: int) -> int:
    """Kronecker symbol (D/n), defined for all integers D and n.

    Standard conventions: (D/0) is 1 when D = +-1 and 0 otherwise,
    (D/2) is 0 for even D and +1/-1 according to D mod 8, and
    (D/-1) is the sign character of D.
    """
    if n == 0:
        return 1 if D in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if D < 0:
            result = -result
    if n % 2 == 0:
        if D % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if D % 8 in (3, 5):
                result = -result
    # n is now odd and positive: Jacobi symbol loop with reciprocity.
    D %= n
    while D:
        while D % 2 == 0:
            D //= 2
            if n % 8 in (3, 5):
                result = -result
        if D % 4 == 3 and n % 4 == 3:
            result = -result
        D, n = n % D, D
    return result if n == 1 else 0
