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
of 2a, and the forms with c < a are dropped. A tail of fewer than
TAIL_PASS_FROM such a is counted by a Python loop (_tail_list), a longer
one by a numpy pass gathering from one flat table of roots (_tail_count);
below SIEVE_FROM every tail is that short, so a count there imports no
numpy. The list sieve reads (D/p) and the loop sqrt(D) mod p off one held
table of square roots mod each odd prime, which only the list sieve grows,
to its a_max (_sqrt_table), and the loop asks arith.sqrt_mod_prime past it.
Every route takes its counts and roots at 2 from one _two_adic per count,
and every root mod a prime power comes from arith.sqrt_mod_prime_power
(_primitive_roots). All read smallest prime factors from arith's one
array("i") table: the list sieve and the loop entry by entry, the numpy
sieve and pass through a numpy view of its buffer, with the primes read
off it once per table (_sieve). No count takes the walk (_walk): it tests gcd(a, b, c) = 1 form
by form, the independent reference for the local rule and the counts,
and on request lists the forms of every a, within one a in the CRT order
of the roots. Counts are remembered for the process; count_ahead decides
which of a list's D are counted ahead on two cores, with a child process
(counthelper), and counts them. An independent Dirichlet evaluator of the
class number formula cross-checks fundamental D, for |D| <= DIRICHLET_LIMIT:
it splits the character at the largest odd prime q of D and counts the
squares mod q, from one exact float64 kernel (_square_blocks), below
thresholds when |D|/q <= THRESHOLD_M1, else by residue class mod |D|/q, so
none of its arrays is as long as |D| (class_number_dirichlet).
"""

from __future__ import annotations

import logging
from array import array
from bisect import bisect_right
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

# Below this |D| R is sieved on a Python list reading _sqrt_table, as
# numpy's fixed cost per call exceeds its whole work there. Per warm count,
# list against numpy, best of 3 per D, over 150 D = 0, 1 (mod 4) drawn from
# |D| in [x, 1.05x] and run alternately in one process: 38-50 against
# 138-194 us at x = 10^4, 69-94 against 191-286 at 10^5, 150-161 against
# 336-363 at 10^6, 183-258 against 411-598 at 2*10^6, 221-223 against
# 460-467 at 3*10^6 and 238-255 against 485-521 at 3.6*10^6, over three
# seeds (CPython 3.11, 2-core x86-64 VM). At 2*10^7, with the rows kept to
# 1110 and one power per prime past them, counts were slower from 1.2*10^7
# up: 759-899 against 719-798 us. Below it no tail reaches TAIL_PASS_FROM.
SIEVE_FROM = 3_700_000

# A tail of fewer a than this (the a above M with R(a) > 0) is counted by
# the Python loop (_tail_list), as the numpy pass's fixed cost exceeds the
# loop there. Per tail, best of 3, medians over 125 D = 0, 1 (mod 4) with
# |D| log-uniform in [2*10^7, 3*10^10], binned by tail length, the loop
# against the pass took 433 against 676 us at 100-149 a, 586 against 746
# at 150-199, 807 against 845 at 200-249, 1058 against 915 at 250-299 and
# 1213 against 989 at 300-349 (CPython 3.11, 2-core x86-64 VM).
TAIL_PASS_FROM = 250


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


def _primitive_roots(D: int, p: int, e: int) -> list[int]:
    """The roots mod p^e (2^(e+1) at p = 2) of primitive forms, p^e exactly dividing a.

    For odd p, the x with x^2 = D (mod p^e), from arith.sqrt_mod_prime_power;
    for p = 2, _two_adic_roots(D, e). When e >= 1, the x with p | x and
    p | c are dropped: those with p^(e+1) (2^(e+3) at p = 2) dividing
    x^2 - D, as p | x gives b^2 = x^2 modulo that power.
    """
    if p == 2:
        roots, mod = _two_adic_roots(D, e), 8 << e
    else:
        roots, mod = arith.sqrt_mod_prime_power(D, p, e), p ** (e + 1)
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


def _power_counts(D: int, p: int, a_max: int, kept: list | None = None) -> list[tuple[int, int]]:
    """(p^e, R(p^e)) for e = 1, 2, ... while p^e <= a_max, R the _primitive_roots.

    Up to the first zero at a p^e that does not divide D. Once p^e does not
    divide D, some root is kept whenever there is one, so a zero means no
    root mod p^e, nor mod any higher power. While p^e | D a zero may precede
    a nonzero count (D = p^2 u, u a nonzero square mod p: R(p) = 0 and
    R(p^2) = p - 2). Each power's roots are _primitive_roots(D, p, e), so
    arith.sqrt_mod_prime_power is the one lift. kept, if given, gets each
    power's primitive roots appended, e = 1 first.
    """
    out, q, e = [], p, 1
    while q <= a_max:
        primitive = _primitive_roots(D, p, e)
        if kept is not None:
            kept.append(primitive)
        out.append((q, len(primitive)))
        if not primitive and D % q:
            break
        q, e = q * p, e + 1
    return out


_sqrt_rows: tuple[list[int], list] = ([], [])  # _sqrt_table's (odd primes, rows by p), grown in place


def _sqrt_table(m: int) -> tuple[list[int], list]:
    """(primes, rows): the odd primes p <= m at least, increasing, and rows[p] for each.

    rows[p] is an array("h") of p entries, in the layout of a row of
    arith._qs_root_table: entry r is the square root of r modulo p in
    [0, p/2], 0 for r = 0, and -1 when r is a non-residue. So rows[p][D % p]
    reads (D/p) by its sign, and sqrt(D) mod p when D is a nonzero square;
    rows[n] is None for every other n. Built in pure Python, a row at a
    time as m passes it, and held for the process: rows never change, and
    the two lists only grow. _root_list alone grows them, to its a_max;
    _tail_list reads the rows held.
    """
    primes, rows = _sqrt_rows
    if len(rows) <= m:
        spf = arith.smallest_prime_factor_table(m)
        for p in range(len(rows), m + 1):
            row = None
            if p > 2 and not spf[p]:
                roots = [-1] * p
                for x in range(p // 2 + 1):
                    roots[x * x % p] = x
                row = array("h", roots)
                primes.append(p)
            rows.append(row)
    return primes, rows


def _two_adic(D: int, a_max: int) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """(_power_counts(D, 2, a_max), roots), roots[v] = _primitive_roots(D, 2, v) for 2^v <= a_max.

    The one source of the counts and roots at 2: _reduced_count takes it
    once per count and hands it to the sieve of R and to the tail, on
    every route. The roots come in the order they are found, not sorted.
    With k = bits(a_max), D = 1 (mod 8) has R(2^e) = 2 for every e, and
    its roots mod 2^(v+1) are +-r, r one root of x^2 = D (mod 2^(k+1)) from
    arith.sqrt_mod_prime_power. For any other D roots[0] is [D mod 2], the
    roots from v = 1 on are those _power_counts finds, and the powers it
    stops short of hold none.
    """
    k = a_max.bit_length()
    if D & 7 == 1:
        r = arith.sqrt_mod_prime_power(D, 2, k + 1)[0]
        return ([(1 << e, 2) for e in range(1, k)],
                [[1]] + [[r & m, -r & m] for m in ((2 << v) - 1 for v in range(1, k))])
    roots = [[D & 1]]
    counts = _power_counts(D, 2, a_max, roots)
    return counts, roots + [[] for _ in range(k - len(roots))]


def _root_list(D: int, a_max: int, two: tuple) -> list[int]:
    """_root_counts(D, a_max).tolist(), built on a Python list without numpy.

    The same rule, with (D/p) read off _sqrt_table's row of each odd prime
    p <= a_max as the sign of row[D % p]: an inert p zeroes its multiples
    and a split p doubles them, by slicing. A p | D with p^2 not dividing D
    has R(p) = 1 and R(p^e) = 0 from e = 2 on, so it zeroes the multiples
    of p^2 by one slice. The counts at 2 (_two_adic) go in first, each
    power of 2 set over its multiples in increasing order, and those of
    each p with p^2 | D (_power_counts) are multiplied in last. two is
    _two_adic(D, a_max), which _tail_list reads too.
    """
    primes, rows = _sqrt_table(a_max)
    R = [1] * (a_max + 1)
    R[0] = 0
    for q, n in two[0]:  # each power of 2 over the multiples of the last
        R[q::q] = [n] * (a_max // q)
    exact = []
    large = bisect_right(primes, a_max // 2)  # from here on R[p] is p's one multiple
    for p in primes[:large]:
        s = rows[p][D % p]
        if s > 0:
            R[p::p] = [r + r for r in R[p::p]]
        elif s:
            R[p::p] = [0] * (a_max // p)
        elif D % (p * p):
            R[p * p :: p * p] = [0] * (a_max // (p * p))
        else:
            exact.append(_power_counts(D, p, a_max))
    for p in primes[large : bisect_right(primes, a_max)]:
        s = rows[p][D % p]
        if s > 0:
            R[p] = 2
        elif s or D % (p * p) == 0:  # p^2 | D leaves no primitive root mod p
            R[p] = 0
    for counts in exact:
        counts = list(dropwhile(lambda qn: qn[1] == 1, counts))
        if counts:  # from the first count that is not 1, over the multiples of its q
            q0 = counts[0][0]
            at = [1] * (a_max // q0)
            for q, n in counts:
                at[q // q0 - 1 :: q // q0] = [n] * (a_max // q)
            R[q0::q0] = [r * n for r, n in zip(R[q0::q0], at)]
    return R


def _tail_list(D: int, tail: list[int], a_max: int, two: tuple) -> int:
    """The primitive reduced forms (a, b, c) of D with a in tail: _walk's count, without numpy.

    tail is an increasing list of Python ints a <= a_max with R(a) > 0, on
    either side of SIEVE_FROM. Each a = 2^v * u is factored by arith's
    smallest-prime-factor table, and its roots b mod 2a are joined by CRT
    from the primitive roots mod 2^(v+1) of two = _two_adic(D, a_max) and,
    for each odd prime power q exactly dividing u, the roots mod q:
    +-sqrt(D) mod p when q = p does not divide D, else
    _primitive_roots(D, p, e), once per q. sqrt(D) mod p is read off the
    rows _sqrt_table holds, which _root_list grows to its a_max, so below
    SIEVE_FROM every p has one; a p past them, and from SIEVE_FROM up any p
    before a list-route count has built its row, takes
    arith.sqrt_mod_prime. No row is built here. As in _tail_count, at the
    first such split p of an a only +sqrt(D) is taken, and each root stands
    for b and -b both; a root b in [0, 2a) is moved into (-a, a] and kept
    when c > a, or when c = a and b >= 0, and one that stands for -b too
    counts 2 when c > a and 1 when c = a.
    """
    rows = _sqrt_rows[1]
    spf = arith.smallest_prime_factor_table(a_max)
    exact: dict[int, list[int]] = {}
    h = 0
    for a in tail:
        v = (a & -a).bit_length() - 1
        roots, mod, rest, paired = two[1][v], 2 << v, a >> v, False
        while rest > 1:
            p = spf[rest] or rest  # a prime reads 0
            q, e = p, 1
            rest //= p
            while rest % p == 0:
                rest //= p
                q *= p
                e += 1
            if e == 1 and D % p:
                s = rows[p][D % p] if p < len(rows) else arith.sqrt_mod_prime(D, p)
                rs = [s, p - s] if paired else [s]
                paired = True
            else:
                rs = exact.get(q)
                if rs is None:
                    rs = exact[q] = _primitive_roots(D, p, e)
            inv = pow(mod, -1, q)
            roots = [r0 + mod * ((r1 - r0) * inv % q) for r0 in roots for r1 in rs]
            mod *= q
        m4a, a2 = 4 * a, 2 * a
        for r in roots:
            b = r if r <= a else r - a2
            c = (b * b - D) // m4a
            if c > a:
                h += 2 if paired else 1
            elif c == a and (paired or b >= 0):
                h += 1
    return h


def _root_counts(D: int, a_max: int, two: tuple):
    """R with R[a] = #{b mod 2a : b^2 = D (mod 4a), gcd(a, b, c) = 1} for 0 < a <= a_max.

    R[0] = 0. R is multiplicative, R(p^e) the number of _primitive_roots:
    at 2 the counts of two = _two_adic(D, a_max), at the odd p | D those of
    _power_counts, each laid over the multiples of p^e in turn so that the
    exact power decides, and 1 + (D/p) for the other odd p. The primes are those read off arith's table by _sieve(a_max),
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
    exact = [two[0]] + [_power_counts(D, p, a_max) for p in odd[Dmod == 0].tolist()]
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


def _root_table(pairs, roots: list[list[int]]):
    """(flat, count, start): the rows of a (k, 2) int64 array, then the lists, laid end to end.

    Row or list i is flat[start[i]:][:count[i]].
    """
    import numpy as np

    count = np.concatenate([np.full(len(pairs), 2), [len(rs) for rs in roots]]).astype(np.int64)
    listed = np.array([x for rs in roots for x in rs], dtype=np.int64)
    flat = np.concatenate([pairs.reshape(-1), listed])
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


def _tail_count(D: int, tail, two: tuple) -> int:
    """The primitive reduced forms (a, b, c) of D with a in tail: _walk's count.

    tail is an increasing int64 array of a in (M, a_max] with R(a) > 0, all
    counted in one numpy pass. Each a = 2^v * u is factored through
    _sieve's view of arith's smallest-prime-factor table, where a prime
    reads 0 and stands for itself, one odd prime power q of u per level,
    smallest first. Every root joined comes from one flat table
    (_root_table): +sqrt(D) and -sqrt(D) mod each split p met (q = p not
    dividing D), from one _sqrt_mod_split call over them in increasing
    order; then _primitive_roots mod each other q met; then the roots mod
    2^(v+1) of two = _two_adic(D, a_max). A level finds where its roots
    start by searchsorted over the q met and reads them by one gather. Each
    array row holds one root mod the part of u done so far, from 0 mod 1;
    at each level a row becomes one row per root mod q, joined by CRT with
    the inverse of that part mod q. Those inverses, for every a and level
    from the second on, are all taken before the first by one Fermat power
    (arith._pow_mod). At the first split p of an a only the first entry,
    +sqrt(D), is taken, and its rows stand for b and -b both. Last, each
    root mod u is joined with each root mod 2^(v+1) by _inverse_mod_2k. A
    root b in [0, 2a) is moved into (-a, a] and kept when c > a, or when
    c = a and b >= 0, compared as b^2 - D against 4a^2; a row that stands
    for -b too counts 2 when c > a and 1 when c = a. That is exact: p | a
    and p does not divide b, as it does not divide D, so b is neither 0 nor
    a; b and -b are then two roots mod 2a, both in (-a, a) with the same c
    and told apart by b mod p, and the primitive roots, like gcd(a, b, c),
    do not change when b is negated. Outside _inverse_mod_2k, whose masks
    keep it right, every intermediate is below max(4a^2, a^2 - D) <=
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
    top = int(tail[-1]) + 1  # the key of a q: q for a split prime, q + top for any other
    levels = []  # (a, q, key): the tail indices a whose next odd prime power is q = p^e
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
        levels.append((act, q, np.where((q == p) & (D % p != 0), q, q + top)))
        taken[act] *= q
        act = act[left > 1]
    inverses = arith._pow_mod(*(np.concatenate(c) for c in zip(*fermat)))  # level by level

    # sorted, repeats dropped: np.unique would import numpy.ma on its first call
    keys = np.sort(np.concatenate([key for *_, key in levels] + [low[:0]]))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    split_p = keys[: np.searchsorted(keys, top)]
    s = _sqrt_mod_split(D % split_p, split_p)
    exact = []
    for q in (keys[len(split_p) :] - top).tolist():
        p, e = int(spf[q]) or q, 1
        while p**e < q:
            e += 1
        exact.append(_primitive_roots(D, p, e))
    flat, count_at, start = _root_table(np.stack([s, split_p - s], axis=1),
                                        exact + two[1][: int(v.max()) + 1])

    own, r = np.arange(n), np.zeros(n, dtype=np.int64)  # own: the tail index of each row
    mod = np.ones(n, dtype=np.int64)  # per a: the part of u its roots so far are taken mod
    # per a, at its current level: q, its roots taken, where they start in flat
    qa, count, first, inv = (np.ones(n, dtype=np.int64) for _ in range(4))
    paired = np.zeros(n, dtype=bool)
    finished = []
    for level, (act, q, key) in enumerate(levels):
        done = depth[own] == level
        finished.append((own[done], r[done]))
        own, r = own[~done], r[~done]
        x = np.searchsorted(keys, key)
        qa[act], count[act], first[act] = q, count_at[x], start[x]
        halve = act[(key < top) & ~paired[act]]  # at its first split p an a takes +sqrt(D) alone
        count[halve], paired[halve] = 1, True
        if level:
            inv[act], inverses = inverses[: len(act)], inverses[len(act) :]
        i, j = _expand(count[own])
        own, r0 = own[i], r[i]
        qq = qa[own]
        r = r0 + mod[own] * ((flat[first[own] + j] - r0) % qq * inv[own] % qq)
        mod[act] *= q
        del i, j, r0, qq  # before the next level's rows or the last step's
    own = np.concatenate([o for o, _ in finished] + [own])
    r = np.concatenate([x for _, x in finished] + [r])
    del finished

    mask = (low << 1) - 1
    w = _inverse_mod_2k(mod, mask)
    at = len(keys) + v  # per a: its list of roots mod 2^(v+1) in flat
    i, j = _expand(count_at[at[own]])
    own, r = own[i], r[i]
    b = r + mod[own] * ((flat[start[at[own]] + j] - r) * w[own] & mask[own])
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
    sieve counts them. Above M only the a with R(a) > 0 are looked at.
    Below |D| = SIEVE_FROM, R is the Python list of _root_list, from there
    on numpy's _root_counts. A tail of fewer than TAIL_PASS_FROM such a, on
    either side of SIEVE_FROM, is counted by the Python loop _tail_list, as
    is every tail below it, so a count there imports no numpy; a longer one
    by _tail_count in one numpy pass. Every route reads its counts and roots
    at 2 from the one _two_adic(D, a_max) taken here. Either way one INFO
    line logs the sieved forms and one the tail's.
    """
    a_max, M = isqrt(-D // 3), isqrt((-D - 1) // 4)
    two = _two_adic(D, a_max)  # for the sieve of R and the tail, on every route
    if -D < SIEVE_FROM:
        R = _root_list(D, a_max, two)
        head = sum(R[1 : M + 1])
        tail = [a for a in range(M + 1, a_max + 1) if R[a]]
    else:
        import numpy as np

        R = _root_counts(D, a_max, two)
        head = int(R[1 : M + 1].sum(dtype=np.int64))
        tail = np.flatnonzero(R[M + 1 :]) + (M + 1)
        if len(tail) < TAIL_PASS_FROM:
            tail = tail.tolist()
    log.info("form count %d: a = 1..%d sieved, %d forms", D, M, head)
    h = (_tail_list(D, tail, a_max, two)
         if len(tail) < TAIL_PASS_FROM or -D < SIEVE_FROM else _tail_count(D, tail, two))
    log.info("form count %d: walked %d of a = %d..%d, %d forms", D, len(tail), M + 1, a_max, h)
    return head + h


_h_memo: dict[int, int] = {}  # D -> h, for the counts made without with_forms


def _sf_bound(D: int) -> tuple[int, str]:
    """The largest |D| whose count Limits.sf_budget allows, and its name.

    The square-free part s of D may be as large as D for D = 1 (mod 4), and
    as D/4 for D = 0 (mod 4).
    """
    budget = arith._LIMITS.get().sf_budget
    return (budget, "sf_budget") if D % 4 == 1 else (4 * budget, "4 * sf_budget")


def class_number_forms(D: int, with_forms: bool = False) -> ClassNumberResult:
    """h*(D): the number of classes of primitive positive-definite forms.

    D must be negative and congruent to 0 or 1 mod 4 (it need not be
    fundamental). h is _reduced_count(D); with with_forms, one walk of every
    a lists the forms whatever D is. Results without with_forms are
    remembered for the process (at most arith.MEMO_SIZE, oldest dropped
    first), and a D counted before is answered from there, logged at INFO.
    So are the counts made ahead by count_ahead. Every count, remembered or
    not, first checks that the square-free part of D may fit
    Limits.sf_budget (_sf_bound); past it, it raises BudgetError.
    """
    if D >= 0:
        raise DomainError(f"discriminant must be negative, got {D}")
    if D % 4 not in (0, 1):
        raise DomainError(f"discriminant must be 0 or 1 mod 4, got {D}")
    bound, what = _sf_bound(D)
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


# |D| from which count_ahead shares a list's counts with the count helper,
# a child process (counthelper): a count there takes 1.3 ms or more, and its
# trip through the helper's pipes adds about 20 us. Against this threshold,
# 10^7, 10^9 and 10^10 moved certify's wall_s by -1.1, -0.2 and -0.6 %,
# within noise (10 benchmark pairs each, 2-core x86-64 VM).
HELPER_FROM = 10**8


def count_ahead(discs: list[int]) -> None:
    """Count the fresh large D of discs ahead, on two cores, into the memo.

    Fresh large D are those from |D| = HELPER_FROM on that the memo does not
    hold and whose count sf_budget allows (_sf_bound). With two or more of
    them and at most arith.MEMO_SIZE discs, so that no count made ahead
    leaves the memo before class_number_forms reads it, they go largest |D|
    first to counthelper.count_shared, imported then, so that no other
    caller compiles it. Otherwise nothing is counted here.
    """
    if len(discs) > arith.MEMO_SIZE:
        return
    fresh = sorted({D for D in discs
                    if -D >= HELPER_FROM and D not in _h_memo and -D <= _sf_bound(D)[0]})
    if len(fresh) > 1:
        from . import counthelper

        counthelper.count_shared(fresh)


def is_fundamental_discriminant(D: int) -> bool:
    """True if D is the discriminant of a quadratic field (here: D < 0 only)."""
    if D >= 0 or D % 4 not in (0, 1):
        return False
    if D % 4 == 1:
        return arith.squarefree_decompose(D).f == 1
    m = D // 4
    return m % 4 in (2, 3) and arith.squarefree_decompose(m).f == 1


# i taken at once while the squares mod p are formed, for a Legendre table
# or for the oracle's counts of squares: blocks of 128 KB. Over the 480 D of
# the sweep benchmark's seed 1, in one process, blocks of 2^16 took 28 % more
# minor page faults than one buffer of p / 2 entries (22 715 against 17 676)
# and blocks of 2^14 took 3 114 (2-core x86-64 VM, CPython 3.11, glibc
# malloc); the sweep's item_p50_ms followed the faults.
_LEGENDRE_BLOCK = 1 << 14


def _square_blocks(p: int):
    """The i^2 mod p for 0 < i <= (p - 1)/2, p an odd prime: each nonzero square once.

    _LEGENDRE_BLOCK i at a time, as float64 i^2 - p * floor(i^2 * fl(1/p)),
    in buffers made once per call: each block yielded is overwritten by the
    next. Exact for p < 2^27: i^2 < 2^52 is exact; i^2 / p lies at least
    1/p from every integer, as p does not divide i, and the rounded product
    is within (p/4) 2^-52 < 1/p of it (< 2^-34 for p <= 10^6), so the floor
    is exact, and so is the difference. numpy multiplies floats faster than
    it divides int64 by a scalar.
    """
    import numpy as np

    half = p // 2
    n = min(_LEGENDRE_BLOCK, half)
    sq, quot = np.arange(1, n + 1, dtype=np.float64), np.empty(n)
    i = sq.copy() if n < half else None  # the first block's i, for the blocks after it
    for lo in range(0, half, n):
        k = min(n, half - lo)
        s, f = sq[:k], quot[:k]
        if lo:
            np.add(i[:k], lo, out=s)
        s *= s
        np.multiply(s, 1 / p, out=f)
        np.floor(f, out=f)
        f *= p
        s -= f
        yield s


def _legendre_table(p: int):
    """The int8 table t with t[r] = (r/p) for 0 <= r < p, p an odd prime, from _square_blocks."""
    import numpy as np

    legendre = np.full(p, -1, dtype=np.int8)
    legendre[0] = 0
    for sq in _square_blocks(p):
        legendre[sq.astype(np.intp)] = 1
    return legendre


# The oracle sums by thresholds (_threshold_sum) when m1 = |D|/q is at most
# this, q the largest odd prime of D, else by class and side. Per call, over
# 12 D per m1 with |D| in [10^5, 10^6), medians of min of 7: 469 against 1284
# us at m1 = 1, 247/449 at 3, 212/465 at 4, 193/259 at 5, 224/230 at 7, 147/258
# at 8, 188/147 at 11, 232/174 at 13 (2-core x86-64 VM, CPython 3.11, numpy 2.4).
THRESHOLD_M1 = 8


def _threshold_sum(D: int, q: int, A: int) -> int:
    """sum_{0 < a <= A} (D/a) from counts of the squares mod q below thresholds.

    q is the largest odd prime of D, m1 = |D|/q, and (D/a) = chi1(a) (a/q),
    chi1 = (D1/.) of period m1, D1 = D/q*, q* = +-q = 1 (mod 4). With a =
    c + m1 t, 0 <= c < m1, (a/q) = (m1/q) ((t + u_c)/q), u_c = c m1^-1 mod
    q, and t runs from 0 to (A - c) // m1; a period of (y/q) sums to 0, so

        S = (m1/q) sum_{chi1(c) != 0} chi1(c) [P((u_c + (A - c) // m1 + 1) mod q) - P(u_c)],

    P(x) = sum_{0 < y < x} (y/q) = 2 N(x) - (x - 1), P(0) = 0, and N(x) =
    #{0 < i <= (q - 1)/2 : i^2 mod q < x}. Every N comes from one pass of
    _square_blocks, one compare-and-count per threshold per block. For a
    prime |D| = q, S = 2 N(A + 1) - A.
    """
    import numpy as np

    m1 = -D // q
    D1, inv = D // (q if q % 4 == 1 else -q), pow(m1, -1, q)
    cs = [(arith.kronecker(D1, c), c * inv % q, c) for c in range(m1)]  # (chi1(c), u_c, c)
    terms = [(x, u, (u + (A - c) // m1 + 1) % q) for x, u, c in cs if x]
    below = dict.fromkeys({x for _, u, hi in terms for x in (u, hi)} - {0}, 0)  # x: N(x)
    for sq in _square_blocks(q):
        for x in below:
            below[x] += int(np.count_nonzero(sq < x))
    P = {0: 0} | {x: 2 * n - (x - 1) for x, n in below.items()}
    return arith.kronecker(m1, q) * sum(x * (P[hi] - P[u]) for x, u, hi in terms)


# (D/a) for 0 <= a < 8 at the 2-part prime discriminants -4, 8 and -8
_TWO_PART = {-4: [0, 1, 0, -1], 8: [0, 1, 0, -1, 0, -1, 0, 1], -8: [0, 1, 0, 1, 0, -1, 0, -1]}


def class_number_dirichlet(D: int) -> ClassNumberResult:
    """Class number of a fundamental D < 0 by the half-range Dirichlet formula.

        h = S / (2 - (D/2)),  S = sum_{0 < a <= A} (D/a),  A = (|D| - 1) // 2

    for D < -4, and h = 1 for D = -3 and D = -4. D is split into prime
    discriminants through one factorization, which also decides whether D
    is fundamental. No array grows with |D|. With q the largest odd prime
    of D and m1 = |D|/q, (D/a) = chi1(a) (a/q), chi1 the product of the
    other prime discriminants' characters, of period m1. For m1 <=
    THRESHOLD_M1, a prime |D| among them (m1 = 1), S is summed from the
    counts of the squares mod q below the thresholds of _threshold_sum.
    Above it chi1 is one int8 residue table per prime discriminant
    (_legendre_table for an odd p), tiled over m1 + A/q entries and
    multiplied into chi1, which starts at ones. Writing a = qj + r with
    (Q0, R0) = divmod(A, q), and t_c = c * (q^-1 mod m1) mod m1,

        S = chi1(q) sum_{c < m1} [(C1[t_c + Q0 + 1] - C1[t_c]) X0[c]
                                  + (C1[t_c + Q0] - C1[t_c]) X1[c]],

    C1 the prefix sums of chi1 over its m1 + Q0 + 1 entries (int32), and
    X_h[c] the sum of (r/q) over 0 < r < q with r = c (mod m1) and [r > R0]
    = h: twice the squares i^2 mod q (0 < i <= (q - 1)/2) in that class and
    side, one np.bincount per block of _square_blocks, minus all its
    residues. Only the min(m1, q) classes c < q hold any r, so the arrays
    over c are no longer than sqrt(|D|). D = -8 reads its 8-entry table.
    Exact as |D| <= 10^6 is enforced. Independent of the form-counting path
    by construction.
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
    elif absD // odd_primes[-1] <= THRESHOLD_M1:
        S = _threshold_sum(D, odd_primes[-1], A)
    else:
        q = odd_primes.pop()
        m1 = absD // q
        Q0, R0 = divmod(A, q)
        tables = [_legendre_table(p) for p in odd_primes]
        if rem != 1:
            tables.append(np.array(_TWO_PART[rem], dtype=np.int8))
        chi1 = np.ones(m1 + Q0, dtype=np.int8)
        for table in tables:  # each table's length divides m1
            chi1 *= np.tile(table, -(-len(chi1) // len(table)))[: len(chi1)]
        C1 = np.zeros(m1 + Q0 + 1, dtype=np.int32)
        np.cumsum(chi1, dtype=np.int32, out=C1[1:])
        k = min(m1, q)  # the classes c holding some 0 < r < q
        squares = np.zeros(2 * k, dtype=np.int64)  # at 2c + [r > R0]
        for sq in _square_blocks(q):
            sq = sq.astype(np.int32)
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
