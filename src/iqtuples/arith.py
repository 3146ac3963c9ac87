"""Exact integer utilities: primality, factorization, square-free parts, Kronecker symbol.

Everything here works on plain Python integers (arbitrary precision) and is
deterministic: the same input always produces the same output, and no routine
ever trades correctness for speed. squarefree_decompose and decompose_member
share one rule (_decompose): a cofactor with no prime below P is settled
below P^3 by one isqrt, and from there by one base-2 power that proves it
square-free or splits it; no prime is proven. A tuple's members are
values x^2 - 4N, so decompose_member(4N, x) with x^2 < 10^4 also divides by
the primes up to 10^6 that one reduction of 4N finds, which raises P. That
sieve depends on 4N alone, never on what the process has imported. factorize
keeps no state; decompose_member remembers each member with its rho charge.
"""

from __future__ import annotations

import logging
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
# No prime p in (3511, this) has 2^(p-1) = 1 (mod p^2), a base-2 Wieferich
# prime (Dorais and Klyve, A Wieferich prime search up to 6.7*10^15, J.
# Integer Seq. 14 (2011), 11.9.2). Every p with p^2 below MR_PROVEN_BOUND is
# below it, which lets one base-2 power prove a cofactor square-free (_fermat_base_2).
WIEFERICH_SEARCH_BOUND = 6_700_000_000_000_000
assert MR_PROVEN_BOUND < WIEFERICH_SEARCH_BOUND**2
# (bound, witnesses): the bound is the least strong pseudoprime to these
# witnesses, so below it they prove primality (Pomerance, Selfridge and
# Wagstaff 1980 for the first 2 to 4 primes; Jaeschke 1993 for the first 5
# to 7; Jiang and Deng 2014 for the first 9; Sorenson and Webster 2017 for
# the first 12 and 13). is_prime takes the first row whose bound exceeds m.
MR_WITNESS_SETS = (
    (2047, MR_WITNESSES[:1]),
    (1373653, MR_WITNESSES[:2]),
    (25326001, MR_WITNESSES[:3]),
    (3215031751, MR_WITNESSES[:4]),
    (2152302898747, MR_WITNESSES[:5]),
    (3474749660383, MR_WITNESSES[:6]),
    (341550071728321, MR_WITNESSES[:7]),
    (3825123056546413051, MR_WITNESSES[:9]),
    (318665857834031151167461, MR_WITNESSES[:12]),
    (MR_PROVEN_BOUND, MR_WITNESSES),
)


@dataclass(frozen=True)
class Limits:
    """Budgets for every computation in the context; set with ``limits``.

    rho_budget bounds the Pollard-rho iterations of one factorize() call or
    one decomposition, charged as _split says; _brent_rho charges only its
    gcd-chunk steps, about a third of the squarings it runs. A decomposition
    whose cofactor is below P^3 takes no rho step, P being 10007 or, for a
    sieved member, the least prime past the member sieve's bound, and
    neither does one whose cofactor passes the base-2 power that proves it
    square-free (Dorais and Klyve's Wieferich search; see
    WIEFERICH_SEARCH_BOUND). Only the parts that fail that power are split,
    so a member is never charged more than factorizing its cofactor would
    be. As the member sieve depends on 4N alone, whether a budget suffices
    depends on the arguments alone. A negative budget raises DomainError.
    """

    rho_budget: int = 10**8  # Pollard-rho iterations per factorize() call or decomposition
    sf_budget: int = 10**12  # largest |square-free part| whose class number is counted

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0:
                raise DomainError(f"{name} must be >= 0, got {value}")


_LIMITS: ContextVar[Limits] = ContextVar("limits", default=Limits())

# Entries each process-lifetime memo keeps (the member sieves and members here,
# classno's h-only form counts); past it the oldest entry goes. The 390 items
# of construct seed 1, run in one process, leave 1437 members.
MEMO_SIZE = 1 << 14


def _remember(memo: dict, key, value) -> None:
    """Store value under key in memo, first dropping its oldest entries past MEMO_SIZE."""
    while len(memo) >= MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[key] = value


@contextmanager
def limits(**changes: int):
    """Within the block, replace the named fields of the current Limits.

    Where every named field already has its value, the current Limits stays
    in force and no context is entered: no new Limits is built or checked.
    """
    current = _LIMITS.get()
    if all(getattr(current, name) == value for name, value in changes.items()):
        yield
        return
    token = _LIMITS.set(replace(current, **changes))
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
    rounding it finds r whenever it exists. _cofactor_parts asks only
    about v below MR_PROVEN_BOUND < 10**28 with every prime above 10**4,
    and such a v has no prime to a power above 6: a square, cube or fifth
    power test finds every perfect power among them.
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
_QS_TABLE_BOUND = 1 << 11  # the factor base is taken from the primes below this


def _pow_mod(x, e, m):
    """x^e mod m elementwise over int64 arrays that broadcast, 0 <= x < m, 2 <= m < 2^31, e >= 0.

    Left to right in 2-bit windows (Cohen, A Course in Computational
    Algebraic Number Theory, 1.2): each element's row of [1, x, x^2, x^3] is
    laid end to end in one flat int32 table (every entry is below m), and
    per window the result is squared twice and multiplied by the entry its
    digit picks, by one gather. Products stay below 2^62. Over Euler's
    criterion on the first 60 to 27 000 odd primes (min of 15; 2-core VM,
    CPython 3.11.7, numpy 2.4.6) this took 0.65-0.90 of the time of the
    right-to-left square-and-multiply it replaced (3.74 -> 2.53 ms at
    27 000). With int64 tables, 2-bit windows took 0.65-0.90 of it, 1-bit
    ones 0.88-1.15, 3-bit ones 0.75-0.96 and 4-bit ones 1.03-1.56.
    """
    import numpy as np

    shape = np.broadcast_shapes(x.shape, e.shape, m.shape)
    bits = int(e.max()).bit_length() if e.size else 0
    if not bits:
        return np.ones(shape, dtype=np.int64)
    x = np.broadcast_to(x, shape)
    x2 = x * x % m
    table = np.stack([np.ones_like(x), x, x2, x2 * x % m], axis=-1, dtype=np.int32).reshape(-1)
    at = np.arange(0, table.size, 4).reshape(shape)  # where each element's row starts
    top = (bits - 1) & ~1
    out = table[at + (e >> top & 3)].astype(np.int64)
    for s in range(top - 2, -1, -2):
        out = out * out % m
        out = out * out % m * table[at + (e >> s & 3)] % m
    return out


_qs_roots: tuple = ()  # _qs_root_table's (odd primes, offsets, roots), once first asked for
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


def _qs_root_table():
    """(odd primes below 2^11, each one's offset, the roots), built once per process.

    The roots are one int16 array of 289 174 entries, p of them for each odd
    prime p < 2^11 in turn from its offset: entry r is the square root of r
    modulo p in [0, p/2], 0 for r = 0, and -1 when r is a non-residue. It
    is built on the quadratic sieve's first call, one small numpy step per
    prime (under 3 ms); a single vectorised step over all primes lifted the
    benchmark's peak RSS by 5.8 MB, against about 0.6 MB for this table.
    """
    import numpy as np

    global _qs_roots
    if not _qs_roots:
        odd = [p for p in _TRIAL_PRIMES[1:] if p < _QS_TABLE_BOUND]
        offsets = np.cumsum([0] + odd[:-1], dtype=np.int64)
        roots = np.empty(sum(odd), dtype=np.int16)
        for p, o in zip(odd, offsets.tolist()):
            r = np.arange(p // 2 + 1, dtype=np.int16)
            entries = roots[o:o + p]
            entries.fill(-1)
            entries[r.astype(np.int64) ** 2 % p] = r
        _qs_roots = (np.array(odd, dtype=np.int64), offsets, roots)
    return _qs_roots


def _quadratic_sieve(n: int) -> int | None:
    """A proper divisor of n, or None after _QS_POLYS polynomials or _QS_FAILS misses.

    n is composite, every prime factor of n is above 10**4 and n <
    MR_PROVEN_BOUND. A perfect power gets None at once: a congruence of
    squares cannot split a prime power, and Q(x) can be 0 when n is a
    square. An n longer than the last row of _QS_PARAMS gets None too, as no
    parameters fit it, and so does an n whose factor base the odd primes
    below 2^11 cannot fill (rho takes over; the 82-bit row needs 109 of
    their 308). The factor base is 2 and the first odd p with kn a square
    mod p, found with the roots of kn mod p in _qs_root_table. Each
    polynomial is Montgomery's Q(x) = ((Ax + B)^2 - kn) / A
    with A = q^2 for a prime q = 3 (mod 4), k the Knuth-Schroeppel
    multiplier, so (Ax + B)^2 = q^2 Q(x) (mod n). x runs over [-M, M); an
    int16 array sums log2(p) over the factor base by slice, and the x whose
    sum passes a threshold are trial-divided together: the power of 2 in
    Q(x) is its lowest set bit, one int64 matrix of Q(x) mod p finds the
    odd primes that divide each Q(x) (|Q(x)| <= M*sqrt(kn/2) < 2**62 at
    these sizes), then the pairs found are divided out until none divides.
    Relations with one leftover factor below _QS_LARGE times the largest
    base prime are paired on it. Each relation is reduced at once against
    the earlier ones as a GF(2) bitset (the exponents' parities, packed
    once per polynomial), and a dependency is tried for a divisor as soon
    as it appears.

    Elimination pivots on each row's highest set bit, its largest prime:
    few rows share one, so a row meets fewer pivots than on its lowest bit
    (the sign, 2, 3 and 5, which most rows hold). The pivot order changes
    no result. Whether a relation completes a dependency depends only on the
    span of the earlier ones; the relations that do not are the basis,
    fixed by arrival order alone, and are linearly independent, so the
    subset of them that a dependency combines with the new relation is the
    only one with that parity sum. So the relations, each dependency's
    combination and every divisor are those of any other pivot order.
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
    odd, offsets, roots = _qs_root_table()
    high, low = divmod(kn, 1 << 40)  # kn < 2^88, so high < 2^48
    residue = (high % odd * ((1 << 40) % odd) + low % odd) % odd
    root = roots[offsets + residue]
    base = np.flatnonzero(root >= 0)[:size - 1]  # p | k has root 0; no p < 2^11 divides n
    if base.size < size - 1:
        return None
    primes = [2] + odd[base].tolist()
    P = np.array(primes, dtype=np.int64)
    # Only the primes above 30 that do not divide k (root 0) are sieved: the
    # others have one root or short strides, and the threshold leaves room for them.
    keep = (P[1:] > 30) & (root[base] > 0)
    SP = P[1:][keep]
    sieved = SP.tolist()
    T = root[base][keep].astype(np.int64)
    logs = [round(log2(p)) for p in sieved]
    large = _QS_LARGE * primes[-1]
    thresh = int(log2(M) + 0.5 * log2(kn / 2) - log2(large) - 6)
    # (X, Z, e): X^2 = Z^2 * (-1)^e[0] * prod(primes[i]^e[i + 1]) (mod n)
    relations: list[tuple[int, int, np.ndarray]] = []
    # leftover factor -> its first relation and that relation's parity row
    partials: dict[int, tuple[tuple[int, int, np.ndarray], int]] = {}
    pivots: dict[int, tuple[int, int]] = {}  # highest bit's length -> (parity row, relations in it)
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
        E[:, 1] = np.frexp(rem & -rem)[1] - 1  # the lowest set bit, exact in a float64
        rem >>= E[:, 1]
        i, j = np.nonzero(rem[:, None] % P[1:] == 0)  # every (x, p) with odd p | Q(x), p once
        j += 1
        pj = P[j]
        while i.size:
            E[i, j + 1] += 1  # the pairs (i, j) are distinct, so no index repeats
            np.floor_divide.at(rem, i, pj)
            again = rem[i] % pj == 0
            i, j, pj = i[again], j[again], pj[again]
        smooth = np.flatnonzero(rem < large)
        E = E[smooth]
        parity = np.packbits(E & 1, axis=1, bitorder="little")
        width = parity.shape[1]
        parity = parity.tobytes()
        for c, (x, r) in enumerate(zip(xs[smooth].tolist(), rem[smooth].tolist())):
            rel = ((A * x + B) % n, q, E[c])
            row = int.from_bytes(parity[c * width:(c + 1) * width], "little")
            if r > 1:
                if r not in partials:
                    partials[r] = rel, row
                    continue
                (X, Z, f), first = partials[r]
                rel = (rel[0] * X % n, q * Z * r % n, rel[2] + f)
                row ^= first
            relations.append(rel)
            used = 1 << (len(relations) - 1)
            while row:
                top = row.bit_length()
                piv = pivots.get(top)
                if piv is None:
                    pivots[top] = (row, used)
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
    used is the newest relation and the one subset of the basis relations
    (those that completed no dependency) with the same parity sum, so it,
    and the divisor, do not depend on the order in which the elimination
    pivots. Each relation's exponents are a view of a row of its
    polynomial's matrix, or, for a pair of partials, their sum.
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

    Trial division by primes below 10^4, then _cofactor_parts, the loop
    decompositions run, with is_prime as the test that settles a part: a
    composite part takes an exact test for a square, cube or fifth power,
    then _split, which orders Brent-Pollard rho and a quadratic sieve. No
    prime below 10^4 divides a part, so one below 10^8 is prime. Primality
    of the larger ones is proven by is_prime, so a base-2 pseudoprime is
    split. Raises BudgetError if rho exceeds the current Limits.rho_budget
    iterations, never returns a wrong or incomplete factorization. A
    cofactor past the proven primality range raises OutOfRangeError before
    any rho step, naming m and the cofactor. Nothing is remembered: the
    same m always takes the same steps and charges the same rho iterations.
    """
    if m < 2:
        raise DomainError(f"factorize requires m >= 2, got {m}")
    return _factorize(m)[0]


def _factorize(m: int) -> tuple[Factorization, int]:
    """(factorize(m), the rho iterations it charged): trial division, then _cofactor_parts.

    The charge is 0 when trial division, is_prime and the power test finish
    m. Rho is deterministic and its path does not depend on the budget, so
    an m charges the same each time, and a budget below that charge raises
    BudgetError whatever ran before.
    """
    n, exps = _trial_divide(m)
    parts, charge = _cofactor_parts(m, n, 10**8, lambda u: _prime_cofactor(m, u), False)
    exps.update(parts)
    return Factorization(m, tuple(sorted(exps.items()))), charge


def _prime_cofactor(m: int, v: int) -> bool:
    """is_prime(v) for a cofactor v of m; past its range, an OutOfRangeError naming both."""
    return labelled(lambda: f"factoring {decimal(m)}: "
                            f"testing the cofactor {decimal(v)} for primality", is_prime, v)


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
# (4N, x^2) -> (the decomposition of x^2 - 4N, the rho iterations it charged)
_member_memo: dict[tuple[int, int], tuple[SquarefreeDecomposition, int]] = {}
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

    Built wherever it can hold a prime, 10007^3 <= 4N < MR_PROVEN_BOUND,
    whatever the process has imported, so a one-shot command there imports
    numpy. Each 4N sieved is remembered (MEMO_SIZE at most).
    """
    sieve = _sieve_memo.get(four_n)
    if sieve is None and _PAST_TRIAL**3 <= four_n < MR_PROVEN_BOUND:
        sieve = _member_sieve(four_n)
        _remember(_sieve_memo, four_n, sieve)
    return sieve


def decompose_member(four_n: int, x: int) -> SquarefreeDecomposition:
    """squarefree_decompose(x^2 - 4N), using the sieve of 4N when x^2 < 10^4 and it is built.

    Every radicand of a tuple is such a member: d, d + 1, d + 4 and d + 4p^2
    are x = 0, 1, 2 and 2p with 4N = -d. The sieve gives the primes in (10^4, B]
    dividing the member, B = min(MEMBER_SIEVE_BOUND, cube root of 4N), for
    _decompose's rule. Without the sieve (see _sieve_of), or for x^2 >= 10^4,
    _decompose takes the member alone; the result is the same either way.
    A cofactor from P^3 up is proven square-free by 2^(v-1) = 1 (mod v),
    which no square of a prime in (10^4, 6.7*10^15) passes (Dorais and
    Klyve, see WIEFERICH_SEARCH_BOUND), and only a cofactor that fails it
    is split; no prime of the member is proven, and its charge is never
    above that of factorizing the cofactor.

    Every member decomposed is remembered for the process under (4N, x^2)
    with the rho iterations its decomposition charged, 0 when nothing was
    factorized (MEMO_SIZE at most, the oldest dropped first). A repeat is
    answered from there while that charge fits the current rho_budget;
    otherwise the member is decomposed again, and rho, being deterministic,
    raises the BudgetError a fresh process would. The key holds 4N, not
    only the member, because the same member reached from another 4N has
    another sieve, or none, and so another route and charge.
    """
    x2 = x * x
    hit = _member_memo.get((four_n, x2))
    if hit is not None and hit[1] <= _LIMITS.get().rho_budget:
        return hit[0]
    out = _decompose(x2 - four_n, _sieve_of(four_n) if x2 < 10_000 else None, x2)
    _remember(_member_memo, (four_n, x2), out)
    return out[0]


def squarefree_decompose(m: int) -> SquarefreeDecomposition:
    """Split nonzero m as s * f**2 with s square-free and sign(s) = sign(m), by _decompose's rule."""
    return _decompose(m)[0]


def _decompose(m: int, sieve: _MemberSieve | None = None,
               x2: int = 0) -> tuple[SquarefreeDecomposition, int]:
    """(the decomposition of m != 0, its rho charge), m the member x2 - 4N of a sieve given.

    The one rule for every number: |m| is trial-divided below 10^4 and by
    the sieve's primes for x2, leaving a cofactor v with no prime below P,
    the least prime past 10^4 (10007) or, with a sieve, past B. Below P^3, v
    is 1, a prime, a prime square or two distinct primes: a perfect square
    or square-free, settled by one isqrt with no rho, and charged 0. From
    P^3 up, _cofactor_parts splits v into square-free parts, each proven so
    by a base-2 power (_fermat_base_2) or by that isqrt, and charges only
    the splits of the parts that fail the power. No prime is proven here: s
    needs only its square-free parts, and factorize proves every prime.
    m = 0 raises DomainError.
    """
    if m == 0:
        raise DomainError("a square-free decomposition requires m != 0")
    v, exps = _trial_divide(abs(m), sieve.divisors(x2) if sieve else ())
    cube = (sieve.above if sieve else _PAST_TRIAL) ** 3
    charge = 0
    if v >= cube:
        parts, charge = _cofactor_parts(abs(m), v, cube, _fermat_base_2, sieve is not None)
        exps.update(parts)
    elif v > 1:
        exps.update([_below_cube(v, 1)])
    s, f = 1, 1
    for q, e in exps.items():
        if e % 2:
            s *= q
        f *= q ** (e // 2)
    return SquarefreeDecomposition(m, s if m > 0 else -s, f), charge


def _cofactor_parts(m: int, v: int, cut: int, settled, sieved: bool) -> tuple[dict[int, int], int]:
    """({q: e} with v = prod(q^e), the q square-free and pairwise coprime; the rho charge).

    The one cofactor loop. v is what trial division leaves of m, with no
    prime below P. A part u below cut <= P^3 is settled by one isqrt
    (_below_cube), one from cut up that passes settled(u) is kept, and one
    that fails it is composite: a perfect power goes on as its root, any
    other is split once by _split, sieved or not as v. _factorize passes
    cut 10^8 and is_prime, so its parts are primes. _decompose passes P^3
    and _fermat_base_2: were p^2 | u with 2^(u-1) = 1 (mod u), the order of
    2 mod p^2 would divide p(p - 1) and u - 1, which p does not divide, so
    2^(p-1) = 1 (mod p^2) with 10^4 < p < WIEFERICH_SEARCH_BOUND, and there
    is no such p. Every prime passes that power and 10^8 < P^3, so with the
    same sieved a decomposition's splits are among factorize's, on the same
    parts, and its charge never exceeds factorize's. A v at or past
    MR_PROVEN_BOUND raises factorize's OutOfRangeError, naming m, before
    any rho step.
    """
    if v >= MR_PROVEN_BOUND:
        _prime_cofactor(m, v)  # is_prime refuses v
    rho_budget = _LIMITS.get().rho_budget
    budget = [rho_budget]
    parts: dict[int, int] = {}
    stack = [(v, 1)] if v > 1 else []  # (part, its exponent in v)
    while stack:
        u, e = stack.pop()
        if u < cut:
            _merge(parts, *_below_cube(u, e))
        elif settled(u):
            _merge(parts, u, e)
        elif (power := _perfect_power(u)) is not None:
            log.info("factoring %s: the cofactor %d is a power %d^%d", decimal(m), u, *power)
            stack.append((power[0], e * power[1]))
        else:
            g = _split(u, budget, sieved)
            stack.append((g, e))
            stack.append((u // g, e))
    return parts, rho_budget - budget[0]


def _fermat_base_2(u: int) -> bool:
    """2^(u-1) = 1 (mod u), which proves a part u square-free (see _cofactor_parts)."""
    return pow(2, u - 1, u) == 1


def _below_cube(u: int, e: int) -> tuple[int, int]:
    """(q, k) with q^k = u^e and q square-free, for 1 < u < P^3 with no prime below P.

    Such a u is a prime, a prime square or two distinct primes: square-free
    unless it is a square.
    """
    r = isqrt(u)
    return (r, 2 * e) if r * r == u else (u, e)


def _merge(parts: dict[int, int], a: int, e: int) -> None:
    """Put a^e into parts, {q: k} with the q square-free and pairwise coprime; a is square-free.

    A q with g = gcd(a, q) > 1 becomes g^(k + e) and (q / g)^k, and a / g
    goes on, so a prime met twice adds its exponents.
    """
    while a > 1:
        for q, k in parts.items():
            g = gcd(a, q)
            if g > 1:
                del parts[q]
                parts[g] = k + e
                if q > g:
                    parts[q // g] = k
                a //= g
                break
        else:
            parts[a] = e
            return


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
