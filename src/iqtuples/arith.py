"""Exact integer utilities: primality, factorization, square-free parts, Kronecker symbol.

Everything here works on plain Python integers (arbitrary precision) and is
deterministic: the same input always produces the same output, and no routine
ever trades correctness for speed. squarefree_decompose and decompose_member
share one rule (_decompose): a cofactor with no prime below P is settled
below P^3 by one isqrt, with no full factorization. A tuple's members are
values x^2 - 4N, so decompose_member(4N, x) with x^2 < 10^4 also divides by
the primes up to 10^6 that one reduction of 4N finds, which raises P, and
remembers every member it settles without factorizing.
"""

from __future__ import annotations

import logging
import sys
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from itertools import chain, count
from math import gcd, inf, isqrt, log2, prod

from .errors import BudgetError, DomainError, OutOfRangeError, decimal, labelled

log = logging.getLogger(__name__)

# Strong-pseudoprime test with the first 13 primes as witnesses is a proven
# primality test below this bound (Sorenson-Webster).
MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_PROVEN_BOUND = 3317044064679887385961981
# (bound, witnesses): the bound is the least strong pseudoprime to these
# witnesses, so below it they prove primality (Pomerance, Selfridge and
# Wagstaff 1980 for {2, 3}; Jaeschke 1993 for the first 7 primes; Jiang and
# Deng 2014 for the first 9). is_prime takes the first row whose bound
# exceeds m.
MR_WITNESS_SETS = (
    (2047, MR_WITNESSES[:1]),
    (1373653, MR_WITNESSES[:2]),
    (341550071728321, MR_WITNESSES[:7]),
    (3825123056546413051, MR_WITNESSES[:9]),
    (MR_PROVEN_BOUND, MR_WITNESSES),
)


@dataclass(frozen=True)
class Limits:
    """Budgets for every computation in the context; set with ``limits``.

    rho_budget bounds the Pollard-rho iterations of one factorize() call,
    charged as _split says; _brent_rho charges only its gcd-chunk steps,
    about a third of the squarings it runs. A decomposition whose cofactor
    is below 10007^3 takes no rho step. A negative budget raises DomainError.
    """

    rho_budget: int = 10**8  # Pollard-rho iterations per factorize() call
    sf_budget: int = 10**12  # largest |square-free part| whose class number is counted

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0:
                raise DomainError(f"{name} must be >= 0, got {value}")


_LIMITS: ContextVar[Limits] = ContextVar("limits", default=Limits())

# Entries each process-lifetime memo keeps (factorize's, the member sieves and
# members here, classno's h-only form counts); past it the oldest entry goes.
# Running all 390 items of the construct benchmark in one process leaves 758
# factorizations and 1140 members.
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

    Trial division by the 13 witnesses, then Miller-Rabin with the smallest
    witness set of MR_WITNESS_SETS that is proven correct below a bound
    above m. Larger inputs raise OutOfRangeError rather than returning a
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
    return _strong_probable_prime(m, next(ws for bound, ws in MR_WITNESS_SETS if m < bound))


def _strong_probable_prime(m: int, witnesses: tuple[int, ...]) -> bool:
    """True when m passes the strong test to every witness; m is odd and above them all."""
    s = ((m - 1) & (1 - m)).bit_length() - 1
    d = (m - 1) >> s
    for a in witnesses:
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


def _prime_past(b: int) -> int:
    """The least prime above b >= 2."""
    return next(q for q in count(b + 1 | 1, 2) if is_prime(q))


_PAST_TRIAL = _prime_past(10_000)  # 10007, the least prime trial division leaves
_spf_table = array("i")
# (m, sieved) -> (its Factorization, the rho iterations it took, 0 if rho never ran), m >= 10^8
_factor_memo: dict[tuple[int, bool], tuple[Factorization, int]] = {}


def smallest_prime_factor_table(limit: int) -> array:
    """Table t with t[n] = smallest prime factor of a composite n, 0 for primes, 0 and 1.

    Covers 0 <= n <= limit at least. The only such table in the process:
    an array("i"), 4 bytes an entry, built in pure Python so that the form
    count's walk, which reads it one entry at a time as t[n] or n, imports
    no numpy, while the form count's numpy passes view its buffer without a
    copy (classno._sieve). Grown on demand and cached for the process
    lifetime; a larger table replaces the old one whole, so a table a
    caller holds never changes.
    """
    global _spf_table
    if len(_spf_table) > limit:
        return _spf_table
    size = max(limit + 1, 2 * len(_spf_table), 1 << 16)
    spf = array("i", [0]) * size
    for p in reversed(primes_up_to(isqrt(size - 1))):  # smaller primes overwrite
        spf[p * p :: p] = array("i", [p]) * len(range(p * p, size, p))
    _spf_table = spf
    return _spf_table


def sqrt_mod_prime(n: int, p: int) -> int | None:
    """Square root of n modulo an odd prime p, or None if n is a non-residue."""
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


def sqrt_mod_prime_power(D: int, p: int, e: int) -> list[int]:
    """All x in [0, p^e) with x^2 = D (mod p^e), p prime and e >= 1, sorted.

    Writing D = p^v * u with u a unit, the roots are y * p^(v/2) plus
    multiples of p^(e - v/2), y running over the roots of y^2 = u (mod
    p^(e-v)): +-r for odd p, and for p = 2 also +-r + 2^(e-v-1) once
    e - v >= 3.
    """
    pe = p**e
    D %= pe
    if D == 0:
        return list(range(0, pe, p ** ((e + 1) // 2)))
    v = 0
    while D % p == 0:
        D //= p
        v += 1
    if v % 2:
        return []
    eu = e - v
    peu = p**eu
    if p == 2:
        if D % (1 << min(eu, 3)) != 1:  # an odd square is 1 mod 8
            return []
        r = 1
        for i in range(3, eu):  # r^2 = D (mod 2^i) lifts to r or r + 2^(i-1)
            if (r * r - D) % (2 << i):
                r += 1 << (i - 1)
    else:
        r = sqrt_mod_prime(D, p)
        if r is None:
            return []
        pk = p
        while pk < peu:  # Newton's step doubles the exponent
            pk = min(pk * pk, peu)
            r = (r - (r * r - D) * pow(2 * r, -1, pk)) % pk
    units = {r, peu - r}
    if p == 2 and eu >= 3:
        units |= {(y + (peu >> 1)) % peu for y in units}
    half = p ** (v // 2)
    stride = peu * half
    return sorted(y * half + t * stride for y in units for t in range(half))


def _perfect_power(v: int) -> tuple[int, int] | None:
    """(r, k) with v = r**k for the first k in 2, 3, 5 that fits, else None.

    For v < 2**82 the float k-th root is within 10**-7 of the true one, so
    rounding it finds r whenever it exists. factorize asks only about v
    below MR_PROVEN_BOUND < 10**28 with every prime above 10**4, and such a
    v has no prime to a power above 6: a square, cube or fifth power test
    finds every perfect power among them.
    """
    r = isqrt(v)
    if r * r == v:
        return r, 2
    for k in (3, 5):
        r = round(v ** (1.0 / k))
        if r**k == v:
            return r, k
    return None


# Rho iterations charged to a cofactor before the quadratic sieve is tried on
# it, in the order _split alone keeps. Within this many, rho splits a
# cofactor whose smaller prime is below about 10^6; past that, the sieve
# (1-17 ms from 35 to 76 bits) is cheaper than rho's sqrt(p) steps of about
# 1 us each. The 390 construct benchmark items of seed 1, run in one process
# (2-core VM, CPython 3.11.7), took 5.5-6.1 s without the sieve and 2.2-2.7 s
# with it at every hand-off from 512 to 4096 iterations, a flat optimum;
# replaying the recorded rho calls with the hand-off after H iterations gave
# its minimum at H = 1024 and 2048.
QS_AFTER = 1024

# Cofactor bit length -> (primes in the factor base, half-width M of the sieve
# interval); the first row whose bound reaches the cofactor's length applies.
_QS_PARAMS = ((45, 30, 1 << 12), (55, 30, 1 << 14), (65, 40, 1 << 15),
              (73, 70, 1 << 15), (82, 110, 1 << 16))
_QS_MULTIPLIERS = (1, 3, 5, 7, 11, 13, 15, 17, 19, 21, 23, 29, 31, 33, 35, 37, 39, 41, 43, 47)
_QS_POLYS = 100  # polynomials tried before the sieve gives up; 1-9 were needed at seed 1
_QS_FAILS = 32  # dependencies that gave no divisor before the sieve gives up
_QS_LARGE = 32  # a partial relation's leftover is below this times the largest base prime


def _pow_mod(x, e, m):
    """x^e mod m elementwise over int64 arrays that broadcast, 0 <= x < m, 2 <= m < 2^31, e >= 0."""
    import numpy as np

    out = np.ones_like(x)
    bits = int(e.max()).bit_length() if e.size else 0
    for k in range(bits):
        out = np.where((e >> k & 1).astype(bool), out * x % m, out)  # products stay below 2^62
        if k + 1 < bits:
            x = x * x % m
    return out


_qs_scores: tuple = ()  # (gain if (n/p) = 1, gain if (n/p) = -1, 0.5 log2 k), once first asked for


def _qs_multiplier(n: int) -> int:
    """Knuth-Schroeppel: the k whose kn has the most small primes splitting it.

    No prime below 10^4 divides n, so (kn/p) = (k/p)(n/p) with (n/p) = +-1
    at each odd p <= 113: the gain of every k and p for either sign of
    (n/p) is held for the process, and a call takes 29 Legendre symbols of
    n and picks its gains from there.
    """
    import numpy as np

    global _qs_scores
    primes = _TRIAL_PRIMES[1:30]
    if not _qs_scores:
        P = np.array(primes, dtype=np.int64)
        K = np.array(_QS_MULTIPLIERS, dtype=np.int64)[:, None]
        symbol = _pow_mod(K % P, (P - 1) >> 1, P)  # (k/p) as 1, p - 1 or 0
        _qs_scores = tuple(
            np.where(K % P == 0, np.log2(P) / P, np.where(symbol == r, 2 * np.log2(P) / (P - 1), 0))
            for r in (1, P - 1)) + (0.5 * np.log2(K[:, 0]),)
    plus, minus, half_log_k = _qs_scores
    residue = [pow(n % p, p >> 1, p) == 1 for p in primes]  # Euler's criterion
    score = np.where(residue, plus, minus).sum(axis=1) - half_log_k
    score += [2 if k * n % 8 == 1 else 1 if k * n % 8 == 5 else 0.5 for k in _QS_MULTIPLIERS]
    return _QS_MULTIPLIERS[int(np.argmax(score))]


def _quadratic_sieve(n: int) -> int | None:
    """A proper divisor of n, or None after _QS_POLYS polynomials or _QS_FAILS misses.

    n is composite, every prime factor of n is above 10**4 and n <
    MR_PROVEN_BOUND. A perfect power gets None at once: a congruence of
    squares cannot split a prime power, and Q(x) can be 0 when n is a
    square. An n longer than the last row of _QS_PARAMS gets None too, as no
    parameters fit it. Each polynomial is Montgomery's Q(x) = ((Ax + B)^2 - kn) / A
    with A = q^2 for a prime q = 3 (mod 4), k the Knuth-Schroeppel
    multiplier, so (Ax + B)^2 = q^2 Q(x) (mod n). x runs over [-M, M); an
    int16 array sums log2(p) over the factor base by slice, and the x whose
    sum passes a threshold are trial-divided together: one int64 matrix of
    Q(x) mod p finds the primes that divide each Q(x) (|Q(x)| <=
    M*sqrt(kn/2) < 2**62 at these sizes), then the pairs found are divided
    out until none divides. Relations with one leftover factor
    below _QS_LARGE times the largest base prime are paired on it. Each
    relation is reduced at once against the earlier ones as a GF(2) bitset,
    and a dependency is tried for a divisor as soon as it appears.
    Deterministic; a failure costs time only.
    """
    bits = n.bit_length()
    row = next(((s, m) for b, s, m in _QS_PARAMS if bits <= b), None)
    if row is None or _perfect_power(n) is not None:
        return None
    import numpy as np

    size, M = row
    k = _qs_multiplier(n)
    kn = k * n
    primes = [2]
    for p in _TRIAL_PRIMES[1:]:
        if len(primes) == size:
            break
        if k % p == 0 or pow(kn % p, (p - 1) // 2, p) == 1:
            primes.append(p)
    P = np.array(primes, dtype=np.int64)
    # Only the primes above 30 that do not divide k are sieved: the others
    # have one root or short strides, and the threshold leaves room for them.
    sieved = [p for p in primes if p > 30 and k % p]
    SP = np.array(sieved, dtype=np.int64)
    T = np.array([sqrt_mod_prime(kn, p) for p in sieved], dtype=np.int64)
    logs = [round(log2(p)) for p in sieved]
    large = _QS_LARGE * primes[-1]
    thresh = int(log2(M) + 0.5 * log2(kn / 2) - log2(large) - 6)
    # (X, Z, e): X^2 = Z^2 * (-1)^e[0] * prod(primes[i]^e[i + 1]) (mod n)
    relations: list[tuple[int, int, np.ndarray]] = []
    partials: dict[int, tuple[int, int, np.ndarray]] = {}  # leftover factor -> its first relation
    pivots: dict[int, tuple[int, int]] = {}  # lowest bit -> (parity row, relations in it)
    q = (isqrt(isqrt(2 * kn) // M) | 3) - 4
    for polys in range(1, _QS_POLYS + 1):
        # Each dependency splits n unless X = +-Y, at odds of 1 in 2 or less
        # for n with two distinct primes or more; after _QS_FAILS misses in a
        # row something else is wrong, and rho is cheaper than more trying.
        if len(relations) - len(pivots) >= _QS_FAILS:
            break
        q += 4
        while not (pow(kn % q, (q - 1) // 2, q) == 1 and is_prime(q)):
            q += 4
        A = q * q
        B = sqrt_mod_prime_power(kn, q, 2)[0]
        C = (B * B - kn) // A
        if A * M * M + 2 * B * M + abs(C) >= 1 << 62:  # |Q(x)| would not fit an int64
            break
        Ainv = np.array([pow(A, -1, p) if p != q else 0 for p in sieved], dtype=np.int64)
        Bp = B % SP
        r1 = ((T - Bp) * Ainv + M) % SP
        r2 = ((SP - T - Bp) * Ainv + M) % SP
        sieve = np.zeros(2 * M, dtype=np.int16)
        for p, lp, a, b in zip(sieved, logs, r1.tolist(), r2.tolist()):
            if p != q:
                sieve[a::p] += lp
                sieve[b::p] += lp
        xs = np.flatnonzero(sieve > thresh) - M
        if not xs.size:
            continue
        V = (A * xs + 2 * B) * xs + C  # int64: |Q(x)| < 2^62 by the check above
        rem = np.abs(V)
        E = np.zeros((xs.size, len(primes) + 1), dtype=np.int8)
        E[:, 0] = V < 0
        i, j = np.nonzero(rem[:, None] % P == 0)  # every (x, p) with p | Q(x), p once
        pj = P[j]
        while i.size:
            E[i, j + 1] += 1  # the pairs (i, j) are distinct, so no index repeats
            np.floor_divide.at(rem, i, pj)
            again = rem[i] % pj == 0
            i, j, pj = i[again], j[again], pj[again]
        smooth = np.flatnonzero(rem < large).tolist()
        for c, x, r in zip(smooth, xs[smooth].tolist(), rem[smooth].tolist()):
            rel = ((A * x + B) % n, q, E[c].copy())
            if r > 1:
                if r not in partials:
                    partials[r] = rel
                    continue
                X, Z, f = partials[r]
                rel = (rel[0] * X % n, q * Z * r % n, rel[2] + f)
            relations.append(rel)
            row = int.from_bytes(np.packbits(rel[2] & 1, bitorder="little").tobytes(), "little")
            used = 1 << (len(relations) - 1)
            while row:
                low = row & -row
                piv = pivots.get(low)
                if piv is None:
                    pivots[low] = (row, used)
                    break
                row ^= piv[0]
                used ^= piv[1]
            else:
                g = _qs_divisor(n, primes, relations, used)
                if g:
                    log.info("quadratic sieve split a %d-bit cofactor: %d polynomials, "
                             "%d relations", bits, polys, len(relations))
                    return g
    log.info("quadratic sieve gave up on a %d-bit cofactor: %d polynomials, %d relations",
             bits, polys, len(relations))
    return None


def _qs_divisor(n: int, primes: list[int], relations: list, used: int) -> int:
    """The proper divisor gcd(X - Y, n) that the relations in the bitset used give, or 0.

    Their product is X^2 = Y^2 (mod n), Y taken from the halved exponents.
    """
    import numpy as np

    chosen = [rel for i, rel in enumerate(relations) if used >> i & 1]
    X = Y = 1
    for x, z, _ in chosen:
        X, Y = X * x % n, Y * z % n
    exps = np.sum([e for _, _, e in chosen], axis=0, dtype=np.int64)
    for p, e in zip(primes, exps[1:].tolist()):
        Y = Y * pow(p, e // 2, n) % n
    g = gcd(X - Y, n)
    return g if 1 < g < n else 0


def _spend(budget: list[int], k: int, n: int) -> None:
    """Charge k rho iterations on n to budget, a one-element counter; raise once it is overdrawn."""
    budget[0] -= k
    if budget[0] < 0:
        raise BudgetError(f"rho iteration budget exhausted factoring {n}")


def _brent_rho(n: int, budget: list[int], cap: float = inf) -> int:
    """One nontrivial factor of composite odd n by Brent's cycle variant, or 0 after cap iterations.

    The polynomial constant c is stepped deterministically (1, 2, 3, ...) so
    repeated runs factor identically. Each iteration is charged to budget,
    shared across a factorization; the last chunk is clipped so that a call
    spends at most cap of them.
    """
    if n % 2 == 0:
        return 2
    left = cap
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
                step = min(128, r - k, left)
                if not step:
                    return 0
                for _ in range(step):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                _spend(budget, step, n)
                left -= step
                g = gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                if not left:
                    return 0
                ys = (ys * ys + c) % n
                _spend(budget, 1, n)
                left -= 1
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1  # cycle collapsed; retry with the next constant


def _primes_dividing(g: int):
    """The trial primes dividing g, a divisor of their product, in increasing order.

    Once p^2 > g, what is left of g is 1 or one trial prime, so the scan
    stops there.
    """
    for p in _TRIAL_PRIMES:
        if p * p > g:
            if g > 1:
                yield g
            return
        if g % p == 0:
            g //= p
            yield p


def _trial_divide(m: int, more=()) -> tuple[int, dict[int, int]]:
    """(v, {p: e}): m >= 1 divided by its primes below 10^4, then by those of more.

    Below 10^8 the scan runs over the trial primes, above only over those
    that one gcd with their product names; more lists primes past 10^4 that
    divide m, increasing. The scan stops once p^2 exceeds v, then 1 or a prime.
    """
    exps: dict[int, int] = {}
    for p in chain(_TRIAL_PRIMES if m < 10**8 else _primes_dividing(gcd(m, _TRIAL_PRODUCT)), more):
        if p * p > m:
            break
        while m % p == 0:
            exps[p] = exps.get(p, 0) + 1
            m //= p
    return m, exps


def factorize(m: int) -> Factorization:
    """Prime factorization of m >= 2.

    Trial division by primes below 10^4, then, for each composite cofactor
    left, an exact test for a square, cube or fifth power, and _split, which
    orders Brent-Pollard rho and a quadratic sieve. No prime below 10^4
    divides a cofactor, so one below 10^8 is prime: a composite would have
    a prime factor up to its square root. Primality of the larger ones is
    certified by is_prime at every split. Raises BudgetError if rho exceeds
    the current Limits.rho_budget iterations, never returns a wrong or
    incomplete factorization. A cofactor past the proven primality range
    raises OutOfRangeError at its first is_prime test, before any rho step,
    naming m and the cofactor.

    Every m >= 10^8 is remembered for the process once factored, by m and
    route (see _factorize), with the rho iterations it took, 0 when trial
    division, is_prime and the power test finished it (MEMO_SIZE entries at
    most, the oldest dropped first); below 10^8 trial division alone
    decides, and nothing is kept. A remembered m is answered at once only
    while those iterations fit the current rho_budget; otherwise it is
    factored again, and rho, being deterministic, raises the BudgetError
    the first call would have.
    """
    if m < 2:
        raise DomainError(f"factorize requires m >= 2, got {m}")
    return _factorize(m, False)


def _factorize(m: int, sieved: bool) -> Factorization:
    """factorize(m); sieved says that the member sieve has cleared m of every prime up to B.

    A sieved m is the cofactor _decompose leaves with a sieve, and every composite
    cofactor found in it goes to _split as sieved: both parts of a split
    keep that property. The memo is keyed by (m, sieved): the sieved route
    charges QS_AFTER where plain rho may split m in fewer, so an entry of
    one route would answer a budget the other would raise on.
    """
    rho_budget = _LIMITS.get().rho_budget
    hit = _factor_memo.get((m, sieved))
    if hit is not None and hit[1] <= rho_budget:
        return hit[0]

    def is_prime_cofactor(v: int) -> bool:
        return labelled(lambda: f"factoring {decimal(m)}: "
                                f"testing the cofactor {decimal(v)} for primality", is_prime, v)

    n, exps = _trial_divide(m)
    budget = [rho_budget]
    stack = [(n, 1)] if n > 1 else []  # (cofactor, its exponent in m)
    while stack:
        v, e = stack.pop()
        if v < 10**8 or is_prime_cofactor(v):  # below 10^8 prime by the trial division
            exps[v] = exps.get(v, 0) + e
            continue
        power = _perfect_power(v)
        if power is not None:
            log.info("factoring %s: the cofactor %d is a power %d^%d", decimal(m), v, *power)
            stack.append((power[0], e * power[1]))
            continue
        g = _split(v, budget, sieved)
        stack.append((g, e))
        stack.append((v // g, e))
    out = Factorization(m, tuple(sorted(exps.items())))
    if m >= 10**8:
        _remember(_factor_memo, (m, sieved), (out, rho_budget - budget[0]))
    return out


def _split(v: int, budget: list[int], sieved: bool) -> int:
    """A proper divisor of v: composite, no perfect power, no prime below 10^4.

    The one place that orders the factoring steps: rho capped at QS_AFTER
    iterations, then the quadratic sieve once, then rho from c = 1 on
    whatever budget is left. A sieved v has no prime up to B, where those
    first iterations split almost nothing (9 of 120 cofactors over
    construct seed 1, each with its smaller prime below 4.2*10^6), so it is
    charged QS_AFTER at once in place of running them. Either way the
    sieve runs only once QS_AFTER iterations are charged, and its own work
    is not charged.
    """
    if sieved:
        _spend(budget, QS_AFTER, v)
    else:
        g = _brent_rho(v, budget, QS_AFTER)
        if g:
            return g
    return _quadratic_sieve(v) or _brent_rho(v, budget)


class _MemberSieve:
    """The primes in (10^4, bound] that divide x^2 - 4N, for every square x^2 < 10^4.

    A prime q > x^2 divides x^2 - 4N exactly when 4N mod q = x^2, so one
    reduction of 4N finds them for every such x at once. The pairs (x^2, q)
    are held as two int arrays, squares and primes, ordered by x^2 and then
    q (about 40 pairs, 0.7 KB where a dict of tuples takes 5 KB); above is
    the least prime past bound. A plain class: a frozen dataclass would add
    about 1 ms to every command's import of this module.
    """

    __slots__ = ("bound", "above", "squares", "primes")

    def __init__(self, bound: int, above: int, squares: array, primes: array):
        self.bound, self.above = bound, above
        self.squares, self.primes = squares, primes

    def divisors(self, x2: int) -> array:
        """The primes in (10^4, bound] dividing x2 - 4N, in increasing order."""
        return self.primes[bisect_left(self.squares, x2):bisect_right(self.squares, x2)]


# Largest prime the member sieve reduces 4N by: B = min(this, cube root of 4N).
# construct seed 1's 390 items, run in one process (2-core VM, CPython 3.11.7,
# median of 7), took 1.38 s without the sieve, 1.15 s with B capped at 2^18
# and 0.97 s at 10^6. Past 2^20 the int64 reduction could overflow.
MEMBER_SIEVE_BOUND = 10**6
_sieve_memo: dict[int, _MemberSieve] = {}  # 4N -> its sieve, for every 4N sieved
# (4N, x^2) -> the decomposition of x^2 - 4N, for each member settled with no factorize
_member_memo: dict[tuple[int, int], SquarefreeDecomposition] = {}
_sieve_tables: tuple = ()  # (B, the primes in (10^4, B], 2^40 mod each) for the largest B asked


def _sieve_primes(bound: int):
    """The primes q in (10^4, bound] and 2^40 mod q, as int32 arrays viewing the held tables.

    A numpy sieve of Eratosthenes, held for the process and rebuilt only
    when a larger bound is asked for.
    """
    import numpy as np

    global _sieve_tables
    if not _sieve_tables or _sieve_tables[0] < bound:
        flags = np.ones(bound + 1, dtype=bool)
        for p in _TRIAL_PRIMES:
            if p * p > bound:
                break
            flags[p * p :: p] = False
        Q = (np.flatnonzero(flags[10_001:]) + 10_001).astype(np.int32)
        _sieve_tables = (bound, Q, ((1 << 40) % Q.astype(np.int64)).astype(np.int32))
    _, Q, shift = _sieve_tables
    end = int(np.searchsorted(Q, bound, side="right"))
    return Q[:end], shift[:end]


def _member_sieve(four_n: int) -> _MemberSieve:
    """The sieve of 4N < MR_PROVEN_BOUND, from one int64 reduction.

    4N mod q = ((4N >> 40)(2^40 mod q) + (4N mod 2^40)) mod q; as 4N <
    MR_PROVEN_BOUND < 2^82 and q <= MEMBER_SIEVE_BOUND < 2^20, the sum stays
    under 2^62 + 2^40 < 2^63.
    """
    import numpy as np

    bound = min(MEMBER_SIEVE_BOUND, int(four_n ** (1 / 3)))
    Q, shift = _sieve_primes(bound)
    r = shift.astype(np.int64)
    r *= four_n >> 40
    r += four_n & ((1 << 40) - 1)
    r %= Q
    near = np.flatnonzero(r < 10_000)
    root = np.rint(np.sqrt(r[near]))
    hit = near[root * root == r[near]]
    pairs = sorted(zip(r[hit].tolist(), Q[hit].tolist()))
    return _MemberSieve(bound, _prime_past(bound), array("i", [x2 for x2, _ in pairs]),
                        array("i", [q for _, q in pairs]))


def _sieve_of(four_n: int) -> _MemberSieve | None:
    """The sieve of 4N, or None when none is built for it.

    Built only where it can hold a prime, 10007^3 <= 4N < MR_PROVEN_BOUND,
    and once numpy is loaded, as importing it would cost a one-shot command
    more than the sieve saves; each 4N sieved is remembered (MEMO_SIZE at most).
    """
    sieve = _sieve_memo.get(four_n)
    if sieve is None and _PAST_TRIAL**3 <= four_n < MR_PROVEN_BOUND and "numpy" in sys.modules:
        sieve = _member_sieve(four_n)
        _remember(_sieve_memo, four_n, sieve)
    return sieve


def decompose_member(four_n: int, x: int) -> SquarefreeDecomposition:
    """squarefree_decompose(x^2 - 4N), using the sieve of 4N when x^2 < 10^4 and it is built.

    Every radicand of a tuple is such a member: d, d + 1, d + 4 and d + 4p^2
    are x = 0, 1, 2 and 2p with 4N = -d. The sieve gives the primes in (10^4, B]
    dividing the member, B = min(MEMBER_SIEVE_BOUND, cube root of 4N), for
    _decompose's rule. Without the sieve (see _sieve_of), or for x^2 >= 10^4,
    the member goes to squarefree_decompose; the result is the same either way.

    A member settled with no factorize, and so with no rho charge, is
    remembered for the process under (4N, x^2) (MEMO_SIZE at most, the
    oldest dropped first), and a repeat skips the sieve lookup and the trial
    division. With the sieve that is every member whose cofactor _decompose
    settles below P^3; without it, every member below 10007^3, where no
    cofactor can reach P^3 (telling the others apart would need their
    cofactor). The key holds 4N, not only the member, because the same
    member reached from another 4N has another sieve, or none, and could
    need a factorization there. A factorized member is not kept here: its
    factorization sits in _factor_memo under that memo's budget rule, so a
    remembered member never lets a smaller rho_budget pass where a fresh
    call would raise.
    """
    x2 = x * x
    hit = _member_memo.get((four_n, x2))
    if hit is not None:
        return hit
    m = x2 - four_n
    sieve = _sieve_of(four_n) if x2 < 10_000 else None
    if sieve:
        out, factored = _decompose(m, sieve, x2)
    else:
        out, factored = squarefree_decompose(m), abs(m) >= _PAST_TRIAL**3
    if not factored:
        _remember(_member_memo, (four_n, x2), out)
    return out


def squarefree_decompose(m: int) -> SquarefreeDecomposition:
    """Split nonzero m as s * f**2 with s square-free and sign(s) = sign(m), by _decompose's rule."""
    if m == 0:
        raise DomainError("squarefree_decompose requires m != 0")
    return _decompose(m)[0]


def _decompose(m: int, sieve: _MemberSieve | None = None,
               x2: int = 0) -> tuple[SquarefreeDecomposition, bool]:
    """(the decomposition of m != 0, whether it factorized), m the member x2 - 4N of a sieve given.

    The one rule for every number: |m| is trial-divided below 10^4 and by
    the sieve's primes for x2, leaving a cofactor v with no prime below P,
    the least prime past 10^4 (10007) or, with a sieve, past B. Below P^3, v
    is 1, a prime, a prime square or two distinct primes: a perfect square
    or square-free, settled by one isqrt with no rho and no is_prime. From
    P^3 up, a sieved v is factorized as sieved (_split), and otherwise
    factorize(|m|) takes the whole of m, keeping its memo key and messages.
    """
    v, exps = _trial_divide(abs(m), sieve.divisors(x2) if sieve else ())
    factored = v >= (sieve.above if sieve else _PAST_TRIAL) ** 3
    if factored:
        exps.update(_factorize(v, True).factors if sieve else factorize(abs(m)).factors)
    elif v > 1:
        r = isqrt(v)
        exps.update([(r, 2) if r * r == v else (v, 1)])
    s, f = 1, 1
    for p, e in exps.items():
        if e % 2:
            s *= p
        f *= p ** (e // 2)
    return SquarefreeDecomposition(m, s if m > 0 else -s, f), factored


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
