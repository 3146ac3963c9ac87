"""Class numbers of negative discriminants via reduced binary quadratic forms.

The main counter counts the primitive reduced positive-definite forms
(a, b, c), a running from 1 to sqrt(|D|/3); gcd(a, b, c) = 1 is a local
condition on b at each prime of a (_primitive_roots). For a up to M, the
largest a with 4a^2 < |D|, every root b of b^2 = D (mod 4a) in (-a, a]
gives c > a, so the forms number R(a), the primitive roots b mod 2a; R is
multiplicative and is sieved over the whole a-range at once: on a Python
list below |D| = SIEVE_FROM (_root_list), by numpy from there on
(_root_counts). Above M, the last eighth of the range, only the a with
R(a) > 0 are looked at: b is solved mod 2a by CRT over the factorization
of 2a, and the forms with c < a are dropped. A tail of TAIL_PASS_FROM such
a or more is counted in one numpy pass over all of them, a shorter one
walked a by a; below SIEVE_FROM every tail is shorter, so a count there
imports no numpy. All of them read smallest prime factors from arith's
one array("i") table: the list sieve and the walk entry by entry, the
numpy sieve of R and the tail pass through a numpy view of its buffer,
with the primes read off it once per table (_sieve). The walk tests
gcd(a, b, c) = 1 form by form, an independent check on the local rule,
and on request lists the forms of every a, within one a in the CRT order
of the roots. Counts are remembered for the process; verify_tuple shares
its large ones with a child process (counthelper). An independent
Dirichlet evaluator of the class number formula cross-checks fundamental
D, for |D| <= DIRICHLET_LIMIT: it splits the character at the largest odd
prime q of D and counts the squares mod q by residue class mod |D|/q, so
none of its arrays is as long as |D| (class_number_dirichlet).
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import dropwhile
from math import gcd, isqrt

from . import arith
from .errors import BudgetError, DomainError

log = logging.getLogger(__name__)

# The Dirichlet oracle sums a character over |D|/2 residues; cap it.
DIRICHLET_LIMIT = 10**6

_PROGRESS_EVERY = 250_000

# Below this |D| R is sieved on a Python list, as numpy's fixed cost per
# call exceeds the list's whole work there. Per warm count, list against
# numpy, best of 3 per D, over 150 D = 0, 1 (mod 4) drawn from |D| in
# [x, 1.05x] and run alternately in one process: 56-64 against 134-156 us
# at x = 10^4, 134-167 against 215-273 at 10^5, 304-323 against 330-345 at
# 10^6, 391-417 against 393-425 at 1.5*10^6, 434-538 against 428-545 at
# 2*10^6 and 460-635 against 433-630 at 2.5*10^6, over three seeds
# (CPython 3.11, 2-core x86-64 VM). It stays below 3.7*10^6: from there
# a_max - M, the longest a tail can be, reaches TAIL_PASS_FROM, and below
# it no count imports numpy.
SIEVE_FROM = 2_000_000

# A tail of fewer a than this (the a above M with R(a) > 0) is walked, as
# the numpy pass's fixed cost exceeds the walk there. Per count, over 900
# D = 0, 1 (mod 4) with |D| log-uniform in [10^7, 4*10^8], binned by tail
# length, the walk against the pass took 0.89 against 1.25 ms at 75-99 a,
# 1.43 against 1.49 at 125-149, 1.66 against 1.54 at 150-174 and 2.80
# against 1.86 at 275-299 (CPython 3.11, 2-core x86-64 VM).
TAIL_PASS_FROM = 150


@dataclass(frozen=True)
class QuadForm:
    """Binary quadratic form a*x^2 + b*x*y + c*y^2."""

    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (-a < b <= a <= c):
            return False
        return b >= 0 if (b == -a or a == c) else True


@dataclass(frozen=True)
class ClassNumberResult:
    discriminant: int
    h: int
    method: str  # "form-count" or "dirichlet"
    reduced_forms: tuple[QuadForm, ...] | None = None


def reduce_form(f: QuadForm) -> QuadForm:
    """The unique reduced form properly equivalent to f.

    Reduced means |b| <= a <= c with b >= 0 whenever |b| = a or a = c.
    Requires a positive-definite form: a > 0 and discriminant < 0.
    """
    a, b, c = f.a, f.b, f.c
    if b * b - 4 * a * c >= 0:
        raise DomainError(f"form {f} has non-negative discriminant")
    if a <= 0:
        raise DomainError(f"form {f} is not positive definite (a <= 0)")
    while True:
        # translate b into (-a, a]
        if not -a < b <= a:
            r = (a - b) // (2 * a)
            b, c = b + 2 * r * a, a * r * r + b * r + c
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return QuadForm(a, b, c)


def _two_adic_roots(D: int, v: int) -> list[int]:
    """The x in [0, 2^(v+1)) with x^2 = D (mod 2^(v+2)), sorted.

    These are the roots mod 2^(v+2) below 2^(v+1), half of them: a root
    stays one when 2^(v+1) is added, as 2^(v+2) divides 2^(v+2)*x + 2^(2v+2).
    """
    roots = arith.sqrt_mod_prime_power(D, 2, v + 2)
    return roots[: len(roots) // 2]


def _primitive_roots(D: int, p: int, e: int, roots: list[int] | None = None) -> list[int]:
    """The roots mod p^e (2^(e+1) at p = 2) of primitive forms, p^e exactly dividing a.

    For odd p, the x with x^2 = D (mod p^e); for p = 2, _two_adic_roots(D, e):
    these are roots, unless a caller that has them already gives them. When
    e >= 1, the x with p | x and p | c are dropped: those with p^(e+1)
    (2^(e+3) at p = 2) dividing x^2 - D, as p | x gives b^2 = x^2 modulo
    that power.
    """
    if p == 2:
        roots, mod = _two_adic_roots(D, e) if roots is None else roots, 8 << e
    else:
        roots, mod = arith.sqrt_mod_prime_power(D, p, e) if roots is None else roots, p ** (e + 1)
    if D % p == 0 and e:  # else p | x would mean p | D, or p does not divide a
        roots = [x for x in roots if x % p or (x * x - D) % mod]
    return roots


def _roots_mod_2a(D: int, a: int, spf: Sequence[int], cache: dict[int, list[int]]) -> list[int]:
    """All b in [0, 2a) with b^2 = D (mod 4a), via CRT over the factors of 2a.

    A root stays one when 2a is added, so these are the roots mod 4a, each
    taken once. cache maps each prime power q exactly dividing 2a to the
    residues of those roots mod q: the roots of x^2 = D (mod q) for odd q,
    _two_adic_roots for q = 2^(v+1). It is only valid for one fixed D.
    """
    v = (a & -a).bit_length() - 1
    rest = a >> v
    mod = 2 << v
    roots = cache.get(mod)
    if roots is None:
        roots = cache[mod] = _two_adic_roots(D, v)
    if not roots:
        return []
    while rest > 1:
        p = spf[rest] or rest  # a prime reads 0
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        q = p**e
        rs = cache.get(q)
        if rs is None:
            rs = arith.sqrt_mod_prime_power(D, p, e)
            cache[q] = rs
        if not rs:
            return []
        inv = pow(mod, -1, q)
        roots = [r0 + mod * ((r1 - r0) * inv % q) for r0 in roots for r1 in rs]
        mod *= q
    return roots


def _walk(D: int, a_values, a_max: int):
    """Yield the primitive reduced forms (a, b, c) of discriminant D with a in a_values.

    In the CRT order of the roots within one a: each root b in [0, 2a) is
    moved into (-a, a] and kept when c > a, or when c = a and b >= 0, and
    when gcd(a, b, c) = 1. a_values is increasing and ends at or below a_max.
    Each a is factored by arith's smallest-prime-factor table, without numpy.
    """
    spf = arith.smallest_prime_factor_table(a_max)
    cache: dict[int, list[int]] = {}
    for i, a in enumerate(a_values, 1):
        if i % _PROGRESS_EVERY == 0:
            log.info("form count %d: a = %d / %d", D, a, a_max)
        m4a = 4 * a
        for r in _roots_mod_2a(D, a, spf, cache):
            b = r if r <= a else r - 2 * a
            c = (b * b - D) // m4a
            if (c > a or c == a and b >= 0) and gcd(gcd(a, b), c) == 1:
                yield a, b, c


_view: tuple = (None, None, None)  # (arith's table, a numpy view of it, its primes), once asked for


def _sieve(m: int):
    """(spf, primes): arith.smallest_prime_factor_table(m) seen by numpy, and the primes <= m.

    spf is an int32 view of that table's buffer, not a copy: spf[n] is the
    smallest prime factor of a composite n and 0 for primes, 0 and 1; it
    covers 0..m at least. primes (int64) are read off it once per table and
    held until arith replaces the table, which leaves a view or primes a
    caller holds as they were. The sieve of R and the tail pass both ask
    for a_max, so a count reads the primes once at most.
    """
    import numpy as np

    global _view
    table = arith.smallest_prime_factor_table(m)
    if _view[0] is not table:
        spf = np.frombuffer(table, dtype=np.intc)
        _view = (table, spf, np.flatnonzero(spf == 0)[2:])  # 0 and 1 read 0 too
    _, spf, primes = _view
    return spf, primes[: np.searchsorted(primes, m, side="right")]


def _power_counts(D: int, p: int, a_max: int) -> list[tuple[int, int]]:
    """(p^e, R(p^e)) for e = 1, 2, ... while p^e <= a_max, R the _primitive_roots.

    Up to the first zero at a p^e that does not divide D. Once p^e does not
    divide D, some root is kept whenever there is one, so a zero means no
    root mod p^e, nor mod any higher power. While p^e | D a zero may precede
    a nonzero count (D = p^2 u, u a nonzero square mod p: R(p) = 0 and
    R(p^2) = p - 2).

    Each power's roots are lifted from the last power's: x in [0, span) to
    the x + k*span (k < p) that are roots mod nxt, the next modulus (at 2,
    from _two_adic_roots(D, e) to those of e + 1). At odd p, Newton's step
    gives the one lift of an x prime to p; an x = 0 (mod p) lifts to every
    k or to none, as (x + k*span)^2 = x^2 (mod nxt).
    """
    roots = _two_adic_roots(D, 1) if p == 2 else arith.sqrt_mod_prime_power(D, p, 1)
    out, q, e = [], p, 1
    while q <= a_max:
        n = len(_primitive_roots(D, p, e, roots))
        out.append((q, n))
        if n == 0 and D % q or q > a_max // p:
            break
        span, nxt = (2 * q, 8 * q) if p == 2 else (q, p * q)
        lifted = []
        for x in roots:
            if p > 2 and x % p:
                lifted.append((x - (x * x - D) * pow(2 * x, -1, nxt)) % nxt)
            elif x % p or (x * x - D) % nxt == 0:
                lifted += [y for y in range(x, p * span, span) if (y * y - D) % nxt == 0]
        roots, q, e = lifted, q * p, e + 1
    return out


def _root_list(D: int, a_max: int) -> list[int]:
    """_root_counts(D, a_max).tolist(), built on a Python list without numpy.

    The same rule: _power_counts laid over the multiples at 2 and at each
    odd p | D, and 1 + (D/p) for the other odd primes p, the entries 0 of
    arith's table from 3 on, by one pow(D % p, p >> 1, p) each. An inert p
    zeroes its multiples and a split p doubles them, by slicing.
    """
    spf = arith.smallest_prime_factor_table(a_max)
    R = [1] * (a_max + 1)
    R[0] = 0
    exact = [2]
    for p in range(3, a_max + 1, 2):
        if spf[p]:
            continue
        chi = pow(D % p, p >> 1, p)
        if chi == 1:
            R[p::p] = [r + r for r in R[p::p]]
        elif chi:
            R[p::p] = [0] * (a_max // p)
        else:
            exact.append(p)
    for p in exact:
        counts = list(dropwhile(lambda qn: qn[1] == 1, _power_counts(D, p, a_max)))
        if counts:  # from the first count that is not 1, over the multiples of its q
            q0 = counts[0][0]
            at = [1] * (a_max // q0)
            for q, n in counts:
                at[q // q0 - 1 :: q // q0] = [n] * (a_max // q)
            R[q0::q0] = [r * n for r, n in zip(R[q0::q0], at)]
    return R


def _root_counts(D: int, a_max: int):
    """R with R[a] = #{b mod 2a : b^2 = D (mod 4a), gcd(a, b, c) = 1} for 0 < a <= a_max.

    R[0] = 0. R is multiplicative, R(p^e) the number of _primitive_roots:
    by _power_counts at 2 and the odd p | D, each laid over the multiples of
    p^e in turn so that the exact power decides, and 1 + (D/p) for the other
    odd p. The primes are those read off arith's table by _sieve(a_max),
    and the Legendre symbols come from Euler's criterion over all odd ones
    at once, by arith._pow_mod (one 2-bit window per two bits of (p-1)/2,
    the largest p deciding how many). Each factor is multiplied into the
    multiples of its prime by slicing, except that the large primes, whose
    squares exceed a_max, go in by their multiples j*p, one j at a time.
    """
    import numpy as np

    primes = _sieve(a_max)[1]
    odd = primes[1:]
    Dmod = D % odd  # |D| < 2^63, or the arrays here would not fit in memory
    chi = arith._pow_mod(Dmod, (odd - 1) >> 1, odd)
    fac = np.where(chi == 1, 2, np.where(chi == 0, 1, 0))  # R(p) = 1 + (D/p)

    # One numpy call per prime below the split and per j above it; splitting
    # at 4*sqrt(a_max) rather than sqrt(a_max) took a quarter less time.
    split_at = 4 * isqrt(a_max)
    small = int(np.searchsorted(odd, split_at, side="right"))
    exact = [_power_counts(D, p, a_max) for p in [2] + odd[Dmod == 0].tolist()]
    # No a <= a_max has more than omega prime factors, and each contributes
    # at most 2 or its exact power count, so R fits a dtype this bound fits.
    bound, prod = 1, 1
    for p in primes[:16].tolist():
        prod *= p
        if prod > a_max:
            break
        bound *= 2
    for counts in exact:
        bound *= max([n for _, n in counts] + [1])
    dtype = np.int16 if bound < 1 << 15 else np.int32 if bound < 1 << 31 else np.int64

    R = np.ones(a_max + 1, dtype=dtype)
    R[0] = 0
    for counts in exact:
        counts = list(dropwhile(lambda qn: qn[1] == 1, counts))
        if counts:  # from the first count that is not 1, over the multiples of its q
            q0 = counts[0][0]
            at = np.empty(a_max // q0, dtype=dtype)
            for q, n in counts:
                at[q // q0 - 1 :: q // q0] = n
            R[q0::q0] *= at
    for p, f in zip(odd[:small].tolist(), fac[:small].tolist()):
        if f != 1:
            R[p::p] *= f
    inert, split = odd[small:][fac[small:] == 0], odd[small:][fac[small:] == 2]
    js = np.arange(1, a_max // (split_at + 1) + 1)
    upto = a_max // js
    counts = zip(js.tolist(), np.searchsorted(inert, upto, side="right").tolist(),
                 np.searchsorted(split, upto, side="right").tolist())
    for j, i, s in counts:
        R[j * inert[:i]] = 0
        R[j * split[:s]] *= 2
    return R


def _sqrt_mod_split(d, p):
    """s with s^2 = d (mod p) elementwise, for odd primes p and nonzero squares d mod p.

    One power for p = 3 (mod 4): d^((p+1)/4). Atkin's for p = 5 (mod 8),
    where 2 is a non-residue: with v = (2d)^((p-5)/8), i = 2d v^2 is a root
    of -1 and s = dv(i - 1). Otherwise Cipolla: t is the least positive
    integer with w = t^2 - d a non-residue, and s is the constant term of
    (t + x)^((p+1)/2) in F_p[x]/(x^2 - w), taken left to right in 2-bit
    windows as arith._pow_mod takes its powers. Every product is below p^2,
    and every sum of two below 2p^2.
    """
    import numpy as np

    s = np.empty_like(p)
    one = (p & 7) == 1
    q, c = p[~one], d[~one]
    five = (q & 7) == 5
    base = np.where(five, 2 * c % q, c)
    v = arith._pow_mod(base, np.where(five, (q - 5) >> 3, (q + 1) >> 2), q)
    s[~one] = np.where(five, c * v % q * ((base * v % q * v - 1) % q) % q, v)
    P, d = p[one], d[one]
    t, w = np.empty_like(P), np.empty_like(P)
    pending, k = np.arange(len(P)), 1
    while pending.size:
        # Half the t fail. A round's numpy calls cost about as much as its
        # work on 1000 pairs (p, t), so it tries up to 8 t per p to reach that.
        # Over the split primes of 12 tail passes at |D| in [10^9, 3*10^11]
        # (430-7430 primes, 2-core VM, CPython 3.11.7, numpy 2.4.6), a call
        # took 430/745/1790 us per decade from 10^9 at 8 t, within 3 % at 4
        # and 16, and 1.1-1.45x longer at 1 t.
        ks = np.arange(k, k + min(8, max(1, 1024 // len(pending))))
        Pk = P[pending, None]
        wk = (ks * ks - d[pending, None]) % Pk
        nonres = arith._pow_mod(wk, Pk >> 1, Pk) == Pk - 1  # Euler's criterion
        found, col = nonres.any(axis=1), nonres.argmax(axis=1)
        t[pending[found]] = ks[col[found]]
        w[pending[found]] = wk[found, col[found]]
        pending, k = pending[~found], k + len(ks)
    # (t + x)^e left to right in 2-bit windows, as arith._pow_mod: the rows
    # [1, z, z^2, z^3] of z = t + x as (constant, x) coefficient tables
    e, x2, y2 = (P + 1) >> 1, (t * t + w) % P, 2 * t % P
    X = np.stack([np.ones_like(P), t, x2, (x2 * t + y2 * w) % P], axis=-1).reshape(-1)
    Y = np.stack([np.zeros_like(P), np.ones_like(P), y2, (x2 + y2 * t) % P], axis=-1).reshape(-1)
    at, top = np.arange(0, X.size, 4), (int(e.max(initial=1)).bit_length() - 1) & ~1
    k = at + (e >> top & 3)
    rx, ry = X[k], Y[k]
    for sh in range(top - 2, -1, -2):
        for _ in range(2):
            rx, ry = (rx * rx + ry * ry % P * w) % P, 2 * rx * ry % P
        k = at + (e >> sh & 3)
        cx, cy = X[k], Y[k]
        rx, ry = (rx * cx + ry * cy % P * w) % P, (rx * cy + ry * cx) % P
    s[one] = rx
    return s


def _root_table(roots: list[list[int]]):
    """(flat, count, start): the lists laid end to end, list i at flat[start[i]:][:count[i]]."""
    import numpy as np

    count = np.array([len(rs) for rs in roots], dtype=np.int64)
    flat = np.array([x for rs in roots for x in rs], dtype=np.int64)
    return flat, count, np.cumsum(count) - count


def _expand(k):
    """(i, j) over the pairs j < k[i], i increasing: the rows i repeated k[i] times."""
    import numpy as np

    i = np.repeat(np.arange(len(k)), k)
    return i, np.arange(len(i)) - (np.cumsum(k) - k)[i]


def _inverse_mod_2k(u, mask):
    """w in [0, 2^k) with u * w = 1 (mod 2^k) elementwise, for odd u and mask = 2^k - 1.

    Newton's step w -> w(2 - uw) doubles the bits to which w is right, from
    3 at w = u, as u^2 = 1 (mod 8). int64 products that pass 2^63 wrap
    modulo 2^64, which keeps them right modulo 2^k for any k <= 63.
    """
    w = u & mask
    for _ in range(int(mask.max()).bit_length().bit_length() - 1):  # 3 * 2^steps >= k
        w = w * (2 - (u * w & mask)) & mask
    return w


def _tail_count(D: int, tail) -> int:
    """The primitive reduced forms (a, b, c) of D with a in tail: _walk's count.

    tail is an increasing int64 array of a in (M, a_max] with R(a) > 0, all
    counted in one numpy pass. Each a = 2^v * u is factored through
    _sieve's view of arith's smallest-prime-factor table, where a prime
    reads 0 and stands for itself, one odd prime power q of u per level,
    smallest first. The roots mod a q = p^e with e > 1 or p | D come from
    _primitive_roots, once per D and q; for the other q = p they are
    +-sqrt(D) mod p, from _sqrt_mod_split once per prime. Each array row
    holds one root mod the part of u done so far, starting from 0 mod 1; at
    each level a row becomes one row per root mod q, joined by CRT with the
    inverse of that part mod q. Those inverses, for every a and level from
    the second on, are known once the levels are, and are all taken before
    the first by one Fermat power (arith._pow_mod). At the first such split
    p of an a only +sqrt(D) is taken, and its rows stand for b and -b both.
    Last, each root mod u is joined with each of _primitive_roots(D, 2, v),
    mod 2^(v+1), by _inverse_mod_2k. A root b in [0, 2a) is moved into
    (-a, a] and kept when c > a, or when c = a and b >= 0, compared as
    b^2 - D against 4a^2; a row that stands for -b too counts 2 when c > a
    and 1 when c = a. That is exact: p | a and p does not divide b, as it does not
    divide D, so b is neither 0 nor a; b and -b are then two roots mod 2a,
    both in (-a, a) with the same c and told apart by b mod p, and the
    primitive roots, like gcd(a, b, c), do not change when b is negated.
    Half the rows of such an a are built. Outside _inverse_mod_2k, whose
    masks keep it right, every intermediate is below max(4a^2, a^2 - D) <=
    4|D|/3, so all are exact in int64 for |D| < 2^62.
    """
    import numpy as np

    n = len(tail)
    if not n:
        return 0
    low = tail & -tail
    v = np.frexp(low.astype(np.float64))[1].astype(np.int64) - 1  # low = 2^v exactly
    rest = tail >> v
    spf = _sieve(int(tail[-1]))[0]
    levels = []  # (a, p, q, split): the tail indices a whose next odd prime power is q = p^e
    depth = np.zeros(n, dtype=np.int64)  # the odd prime powers of each a
    taken = np.ones(n, dtype=np.int64)  # per a: the product of its q so far
    fermat = [(low[:0],) * 3]  # (x, e, m), x^-1 = x^e mod m, of each level's CRT inverses
    act = np.flatnonzero(rest > 1)
    while act.size:
        left = rest[act]
        p = spf[left]
        p = np.where(p == 0, left, p)  # a prime reads 0
        q = p.copy()
        left //= p
        more = np.flatnonzero(left % p == 0)
        while more.size:
            q[more] *= p[more]
            left[more] //= p[more]
            more = more[left[more] % p[more] == 0]
        rest[act] = left
        depth[act] += 1
        if levels:  # at the first level every product is 1, and so is its inverse
            fermat.append((taken[act] % q, q - q // p - 1, q))
        levels.append((act, p, q, (q == p) & (D % p != 0)))
        taken[act] *= q
        act = act[left > 1]
    inverses = arith._pow_mod(*(np.concatenate(c) for c in zip(*fermat)))  # level by level

    root_at = np.zeros(int(tail[-1]) + 1, dtype=np.int32)  # sqrt(D) mod each split p met
    for _, p, _, sp in levels:
        root_at[p[sp]] = 1
    split_p = np.flatnonzero(root_at)
    root_at[split_p] = _sqrt_mod_split(D % split_p, split_p)
    # sorted, repeats dropped: np.unique would import numpy.ma on its first call
    exact_q = np.sort(np.concatenate([q[~sp] for _, _, q, sp in levels] + [low[:0]]))
    exact_q = exact_q[np.diff(exact_q, prepend=-1) != 0]
    exact = []
    for q in exact_q.tolist():
        p, e = int(spf[q]) or q, 1
        while p**e < q:
            e += 1
        exact.append(_primitive_roots(D, p, e))
    ex_flat, ex_count, ex_start = _root_table(exact)

    own, r = np.arange(n), np.zeros(n, dtype=np.int64)  # own: the tail index of each row
    mod = np.ones(n, dtype=np.int64)  # per a: the part of u its roots so far are taken mod
    # per a, at its current level: roots mod q, and the first of them (the
    # square root of D for a split p, else where they start in ex_flat)
    count, first, qa, inv = (np.ones(n, dtype=np.int64) for _ in range(4))
    tabled, paired = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    finished = []
    for level, (act, p, q, sp) in enumerate(levels):
        done = depth[own] == level
        finished.append((own[done], r[done]))
        own, r = own[~done], r[~done]
        count[act], qa[act], tabled[act] = 2, q, ~sp
        halve = act[sp & ~paired[act]]  # at its first split p an a takes +sqrt(D) alone
        count[halve], paired[halve] = 1, True
        first[act[sp]] = root_at[p[sp]]
        x = np.searchsorted(exact_q, q[~sp])
        count[act[~sp]], first[act[~sp]] = ex_count[x], ex_start[x]
        if level:
            inv[act], inverses = inverses[: len(act)], inverses[len(act) :]
        i, j = _expand(count[own])
        own, r0 = own[i], r[i]
        qq, f = qa[own], first[own]
        r1 = np.where(j == 0, f, qq - f)
        t = np.flatnonzero(tabled[own])
        r1[t] = ex_flat[f[t] + j[t]]
        r = r0 + mod[own] * ((r1 - r0) % qq * inv[own] % qq)
        mod[act] *= q
        del i, j, r0, qq, f, r1, t  # before the next level's rows or the last step's
    own = np.concatenate([o for o, _ in finished] + [own])
    r = np.concatenate([x for _, x in finished] + [r])
    del finished

    two_flat, two_count, two_start = _root_table(
        [_primitive_roots(D, 2, k) for k in range(int(v.max()) + 1)])
    mask = (low << 1) - 1
    w = _inverse_mod_2k(mod, mask)
    i, j = _expand(two_count[v[own]])
    own, r = own[i], r[i]
    j += two_start[v[own]]
    b = r + mod[own] * ((two_flat[j] - r) * w[own] & mask[own])
    del i, j, r
    a, pair = tail[own], paired[own]
    b = np.where(b > a, b - 2 * a, b)
    N, A4 = b * b - D, 4 * a * a
    above = N > A4
    return int(np.count_nonzero(above) + np.count_nonzero(above & pair)
               + np.count_nonzero((N == A4) & (pair | (b >= 0))))


def _reduced_count(D: int) -> int:
    """h*(D): the number of primitive reduced forms of discriminant D.

    For a up to M, the largest a with 4a^2 < |D|, every root b in (-a, a]
    gives c > a, so the forms with first coefficient a number R(a) and the
    sieve counts them. Above M only the a with R(a) > 0 are looked at: a
    tail of at least TAIL_PASS_FROM of them is counted by _tail_count in one
    numpy pass, a shorter one walked. Below |D| = SIEVE_FROM, R is the
    Python list of _root_list and every tail is shorter than TAIL_PASS_FROM,
    so the count imports no numpy.
    """
    a_max, M = isqrt(-D // 3), isqrt((-D - 1) // 4)
    if -D < SIEVE_FROM:
        R = _root_list(D, a_max)
        head = sum(R[1 : M + 1])
        tail = [a for a in range(M + 1, a_max + 1) if R[a]]
    else:
        import numpy as np

        R = _root_counts(D, a_max)
        head = int(R[1 : M + 1].sum(dtype=np.int64))
        tail = np.flatnonzero(R[M + 1 :]) + (M + 1)
        if len(tail) < TAIL_PASS_FROM:
            tail = tail.tolist()
    log.info("form count %d: a = 1..%d sieved, %d forms", D, M, head)
    if isinstance(tail, list):
        h = sum(1 for _ in _walk(D, tail, a_max))
    else:
        h = _tail_count(D, tail)
    log.info("form count %d: walked %d of a = %d..%d, %d forms", D, len(tail), M + 1, a_max, h)
    return head + h


_h_memo: dict[int, int] = {}  # D -> h, for the counts made without with_forms


def class_number_forms(D: int, with_forms: bool = False) -> ClassNumberResult:
    """h*(D): the number of classes of primitive positive-definite forms.

    D must be negative and congruent to 0 or 1 mod 4 (it need not be
    fundamental). h is _reduced_count(D); with with_forms, one walk of every
    a lists the forms whatever D is. Results without with_forms are
    remembered for the process (at most arith.MEMO_SIZE, oldest dropped
    first), and a D counted before is answered from there, logged at INFO.
    So are the counts the count helper made for this process
    (counthelper.count_shared remembers each as it is read). Every
    count, remembered or not, first checks that the square-free part of D
    may fit Limits.sf_budget: |D| <= sf_budget for D = 1 (mod 4), or
    4 * sf_budget for D = 0 (mod 4). Past it, it raises BudgetError.
    """
    if D >= 0:
        raise DomainError(f"discriminant must be negative, got {D}")
    if D % 4 not in (0, 1):
        raise DomainError(f"discriminant must be 0 or 1 mod 4, got {D}")
    budget = arith._LIMITS.get().sf_budget
    bound, what = (budget, "sf_budget") if D % 4 == 1 else (4 * budget, "4 * sf_budget")
    if -D > bound:
        raise BudgetError(f"form count of D = {D}: |D| exceeds {what} = {bound}")
    if with_forms:
        a_max = isqrt(-D // 3)
        forms = tuple(QuadForm(*f) for f in _walk(D, range(1, a_max + 1), a_max))
        return ClassNumberResult(D, len(forms), "form-count", forms)
    h = _h_memo.get(D)
    if h is not None:
        log.info("form count %d: h = %d, counted earlier in this process", D, h)
    else:
        h = _reduced_count(D)
        arith._remember(_h_memo, D, h)
    return ClassNumberResult(D, h, "form-count")


# |D| from which verify_tuple shares a tuple's counts with the count helper,
# a child process (counthelper): a count there takes 1.3 ms or more, and its
# trip through the helper's pipes adds about 20 us. Against this threshold,
# 10^7, 10^9 and 10^10 moved certify's wall_s by -1.1, -0.2 and -0.6 %,
# within noise (10 benchmark pairs each, 2-core x86-64 VM).
HELPER_FROM = 10**8


def is_fundamental_discriminant(D: int) -> bool:
    """True if D is the discriminant of a quadratic field (here: D < 0 only)."""
    if D >= 0 or D % 4 not in (0, 1):
        return False
    if D % 4 == 1:
        return arith.squarefree_decompose(D).f == 1
    m = D // 4
    return m % 4 in (2, 3) and arith.squarefree_decompose(m).f == 1


def _fill_periodic(out, table) -> None:
    """Fill the array out with table repeated, cut off at len(out).

    The table is copied once, then the filled prefix onto the rest, doubling
    it each time: log2(len(out) / len(table)) copies and no index array.
    """
    n = min(len(table), len(out))
    out[:n] = table[:n]
    while n < len(out):  # n is a multiple of the period until the last copy
        k = min(n, len(out) - n)
        out[n : n + k] = out[:k]
        n += k


# i taken at once while the squares mod p are formed, for a Legendre table
# or for the oracle's count of squares by residue class: int64 blocks of
# 128 KB. Over the 480 D of the sweep benchmark's seed 1, in one process,
# blocks of 2^16 took 28 % more minor page faults than one buffer of p / 2
# entries (22 715 against 17 676) and blocks of 2^14 took 3 114 (2-core
# x86-64 VM, CPython 3.11, glibc malloc); the sweep's item_p50_ms followed
# the faults.
_LEGENDRE_BLOCK = 1 << 14


def _square_blocks(p: int):
    """The i^2 mod p for 0 < i <= (p - 1)/2, p an odd prime: each nonzero square once.

    _LEGENDRE_BLOCK i at a time, the i^2 sit in one int64 buffer and are
    reduced in place as sq - p * (sq // p), as numpy divides by one scalar
    without a hardware division per element, which an int64 % pays. Each
    block is yielded as int32, where the callers' passes over it run faster.
    So two int64 buffers of 128 KB, whatever p, are live at once. Exact for
    p <= 10^6: i <= 5 * 10^5, so i^2 < 2^38.
    """
    import numpy as np

    half = p // 2 + 1
    for lo in range(1, half, _LEGENDRE_BLOCK):
        sq = np.arange(lo, min(lo + _LEGENDRE_BLOCK, half), dtype=np.int64)
        sq *= sq
        q = sq // p
        q *= p
        sq -= q
        yield sq.astype(np.int32)


def _legendre_table(p: int):
    """The int8 table t with t[r] = (r/p) for 0 <= r < p, p an odd prime, from _square_blocks."""
    import numpy as np

    legendre = np.full(p, -1, dtype=np.int8)
    legendre[0] = 0
    for sq in _square_blocks(p):
        legendre[sq] = 1
    return legendre


# (D/a) for 0 <= a < 8 at the 2-part prime discriminants -4, 8 and -8
_TWO_PART = {-4: [0, 1, 0, -1], 8: [0, 1, 0, -1, 0, -1, 0, 1], -8: [0, 1, 0, 1, 0, -1, 0, -1]}


def class_number_dirichlet(D: int) -> ClassNumberResult:
    """Class number of a fundamental D < 0 by the half-range Dirichlet formula.

        h = S / (2 - (D/2)),  S = sum_{0 < a <= A} (D/a),  A = (|D| - 1) // 2

    for D < -4, and h = 1 for D = -3 and D = -4. D is split into prime
    discriminants through one factorization, which also decides whether D
    is fundamental. No array grows with |D|. With q the largest odd prime
    of D and m1 = |D|/q, (D/a) = chi1(a) (a/q), chi1 the product of the
    other prime discriminants' characters, of period m1: one int8 residue
    table each (_legendre_table for an odd p), repeated by copying the
    filled prefix onto the rest. Writing a = qj + r with (Q0, R0) =
    divmod(A, q), and t_c = c * (q^-1 mod m1) mod m1,

        S = chi1(q) sum_{c < m1} [(C1[t_c + Q0 + 1] - C1[t_c]) X0[c]
                                  + (C1[t_c + Q0] - C1[t_c]) X1[c]],

    C1 the prefix sums of chi1 over its m1 + Q0 + 1 entries (int32), and
    X_h[c] the sum of (r/q) over 0 < r < q with r = c (mod m1) and [r > R0]
    = h: twice the squares i^2 mod q (0 < i <= (q - 1)/2) in that class and
    side, one np.bincount per block of _square_blocks, minus all its
    residues. Only the min(m1, q) classes c < q hold any r, so the arrays
    over c are no longer than sqrt(|D|). For |D| = q prime S = 2 #{i : i^2
    mod q <= A} - A; D = -8 reads its 8-entry table. Exact as |D| <= 10^6
    is enforced. Independent of the form-counting path by construction.
    """
    import numpy as np

    # D = rem * prod(p*) over the odd primes p | D, p* = +-p = 1 (mod 4). D
    # is fundamental exactly when no p^2 divides it, which would leave p in
    # rem, and rem is 1, -4 or +-8. The odd part is factored as by
    # is_fundamental_discriminant, after the same tests mod 4 and mod 16.
    odd_primes: list[int] = []
    rem = 0
    if D < 0 and (D % 4 == 1 or D % 16 in (8, 12)):
        rem = D
        m = -D if D % 4 == 1 else -D // 4
        for p, _ in arith.factorize(m).factors if m > 1 else ():
            if p != 2:
                odd_primes.append(p)
                rem //= p if p % 4 == 1 else -p
    if rem not in (1, -4, 8, -8):
        raise DomainError(f"{D} is not a negative fundamental discriminant")
    absD = -D
    if absD > DIRICHLET_LIMIT:
        raise DomainError(
            f"dirichlet method supports |D| <= {DIRICHLET_LIMIT}, got |D| = {absD}"
        )
    if D in (-3, -4):
        return ClassNumberResult(D, 1, "dirichlet")
    A = (absD - 1) // 2
    if not odd_primes:  # D = -8
        S = sum(_TWO_PART[rem][1 : A + 1])
    elif absD == odd_primes[0]:
        S = -A
        for sq in _square_blocks(absD):
            S += 2 * int(np.count_nonzero(sq <= A))
    else:
        q = odd_primes.pop()
        m1 = absD // q
        Q0, R0 = divmod(A, q)
        tables = [_legendre_table(p) for p in odd_primes]
        if rem != 1:
            tables.append(np.array(_TWO_PART[rem], dtype=np.int8))
        chi1 = np.empty(m1 + Q0, dtype=np.int8)
        _fill_periodic(chi1, tables[0])
        factor = np.empty_like(chi1)
        for table in tables[1:]:
            _fill_periodic(factor, table)
            chi1 *= factor
        C1 = np.zeros(m1 + Q0 + 1, dtype=np.int32)
        np.cumsum(chi1, dtype=np.int32, out=C1[1:])
        k = min(m1, q)  # the classes c holding some 0 < r < q
        squares = np.zeros(2 * k, dtype=np.int64)  # at 2c + [r > R0]
        for sq in _square_blocks(q):
            key = sq // m1
            key *= -2 * m1
            key += sq
            key += sq
            key += sq > R0
            squares += np.bincount(key, minlength=2 * k)
        c = np.arange(k)
        total = (q - 1 - c) // m1 + 1  # the r in [0, q) and in [0, R0] with r = c (mod m1)
        low = (R0 - c) // m1 + 1
        total[0] -= 1  # r = 0
        low[0] -= 1
        t = c * pow(q, -1, m1) % m1
        S = int(chi1[q % m1]) * int((C1[t + Q0 + 1] - C1[t]) @ (2 * squares[0::2] - low)
                                    + (C1[t + Q0] - C1[t]) @ (2 * squares[1::2] - total + low))
    den = 2 - arith.kronecker(D, 2)
    if S <= 0 or S % den != 0:
        raise ArithmeticError(f"character sum {S} is inconsistent for D = {D}")
    return ClassNumberResult(D, S // den, "dirichlet")


def fundamental_discriminant(d: int) -> int:
    """Discriminant of the quadratic field Q(sqrt(d)) for square-free d."""
    if d in (0, 1):
        raise DomainError(f"no quadratic field for d = {d}")
    if arith.squarefree_decompose(d).f != 1:
        raise DomainError(f"{d} is not square-free")
    return d if d % 4 == 1 else 4 * d


def field_class_number(d: int, with_forms: bool = False) -> ClassNumberResult:
    """Class number h of the imaginary quadratic field Q(sqrt(d)), d < 0 square-free.

    Computed as the primitive-form class count of the fundamental
    discriminant (d itself when d = 1 mod 4, else 4d); for square-free
    d the two invariants agree.
    """
    if d >= 0:
        raise DomainError(f"field_class_number requires d < 0, got {d}")
    return class_number_forms(fundamental_discriminant(d), with_forms)
