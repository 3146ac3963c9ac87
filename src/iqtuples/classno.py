"""Class numbers of negative discriminants via reduced binary quadratic forms.

The main counter counts reduced positive-definite forms (a, b, c) of every
content, a running from 1 to sqrt(|D|/3), and Moebius inversion over the
squares dividing D keeps the primitive ones. For a up to M, the largest a
with 4a^2 < |D|, every root b of b^2 = D (mod 4a) in (-a, a] gives c > a,
so the forms number R(a) = #{b mod 2a : b^2 = D (mod 4a)}; R is
multiplicative and a numpy sieve builds it over the whole a-range at once.
Above M, the last eighth of the range, the a with R(a) > 0 are walked: b is
solved mod 2a by CRT over the factorization of 2a, and the forms with c < a
are dropped. Below |D| = SIEVE_FROM nothing is sieved: one walk of every
a keeps the forms with gcd(a, b, c) = 1 and counts them, and on request
the same walk lists them, within one a in the CRT order of the roots.
Counts are remembered for the process. An independent Dirichlet evaluator
of the class number formula cross-checks fundamental D.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import gcd, isqrt

from . import arith
from .errors import DomainError

log = logging.getLogger(__name__)

# The Dirichlet oracle evaluates a character sum of length |D|/2; cap it.
DIRICHLET_LIMIT = 10**6

_PROGRESS_EVERY = 250_000

# Below this |D| a form count walks every a: the sieve's fixed numpy cost
# exceeds the whole walk there. Per call, over 150 D = 0, 1 (mod 4) drawn
# from |D| in [x, x + 1500], the walk against the sieve took 312 against
# 363 us at x = 20 000, 401 against 418 at 30 000, 506 against 435 at
# 40 000 and 529 against 470 at 50 000 (CPython 3.11, 2-core x86-64 VM).
SIEVE_FROM = 40_000


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


def _sqrt_mod_prime_power(D: int, p: int, e: int) -> list[int]:
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
        r = arith.sqrt_mod_prime(D, p)
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


def _two_adic_roots(D: int, v: int) -> list[int]:
    """The x in [0, 2^(v+1)) with x^2 = D (mod 2^(v+2)), sorted.

    These are the roots mod 2^(v+2) below 2^(v+1), half of them: a root
    stays one when 2^(v+1) is added, as 2^(v+2) divides 2^(v+2)*x + 2^(2v+2).
    """
    roots = _sqrt_mod_prime_power(D, 2, v + 2)
    return roots[: len(roots) // 2]


def _roots_mod_2a(D: int, a: int, spf: list[int], cache: dict[int, list[int]]) -> list[int]:
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
        p = spf[rest]
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        q = p**e
        rs = cache.get(q)
        if rs is None:
            rs = _sqrt_mod_prime_power(D, p, e)
            cache[q] = rs
        if not rs:
            return []
        inv = pow(mod, -1, q)
        roots = [r0 + mod * ((r1 - r0) * inv % q) for r0 in roots for r1 in rs]
        mod *= q
    return roots


def _walk(D: int, a_values, a_max: int):
    """Yield the reduced forms (a, b, c) of discriminant D with a in a_values.

    Forms of every content, in the CRT order of the roots within one a: each
    root b in [0, 2a) is moved into (-a, a] and kept when c > a, or when
    c = a and b >= 0. a_values is increasing and ends at or below a_max.
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
            if c > a or c == a and b >= 0:
                yield a, b, c


_held_primes: tuple = (0, None)  # (m, numpy array of the primes <= m)


def _prime_array(m: int):
    """The primes <= m as a numpy int64 array, cut from a sieve held for the process.

    Grown on demand like arith's spf table; a larger array replaces the old
    one whole.
    """
    import numpy as np

    global _held_primes
    held, primes = _held_primes
    if held < m:
        held = max(m, 2 * held, 1 << 16)
        primes = np.array(arith.primes_up_to(held), dtype=np.int64)
        _held_primes = (held, primes)
    return primes[: np.searchsorted(primes, m, side="right")]


def _power_counts(D: int, p: int, a_max: int) -> list[tuple[int, int]]:
    """(p^e, R(p^e)) for e = 1, 2, ... while p^e <= a_max, up to the first zero."""
    out, q, e = [], p, 1
    while q <= a_max:
        n = len(_two_adic_roots(D, e) if p == 2 else _sqrt_mod_prime_power(D, p, e))
        out.append((q, n))
        if n == 0:
            break
        q, e = q * p, e + 1
    return out


def _root_counts(D: int, a_max: int):
    """R with R[a] = #{b mod 2a : b^2 = D (mod 4a)} for 0 < a <= a_max, R[0] = 0.

    R is multiplicative. R(2^v) is the number of _two_adic_roots(D, v);
    for odd p, R(p^e) = 1 + (D/p) whatever e when p does not divide D, and
    the number of roots mod p^e when it does. The Legendre symbols come from
    Euler's criterion over all odd primes at once. Each factor is multiplied
    into the multiples of its prime (power) by slicing, except that the
    large primes, whose squares exceed a_max, go in by their multiples j*p,
    one j at a time.
    """
    import numpy as np

    primes = _prime_array(a_max)
    odd = primes[1:]
    Dmod = D % odd  # |D| < 2^63, or the arrays here would not fit in memory
    chi, base, e = np.ones_like(odd), Dmod, (odd - 1) >> 1
    for k in range(int(e[-1]).bit_length() if len(e) else 0):
        chi = np.where(e >> k & 1, chi * base % odd, chi)  # products stay below 2^62
        base = base * base % odd
    fac = np.where(chi == 1, 2, np.where(chi == 0, 1, 0))  # R(p) = 1 + (D/p)

    # One numpy call per prime below the split and per j above it; splitting
    # at 4*sqrt(a_max) rather than sqrt(a_max) took a quarter less time.
    split_at = 4 * isqrt(a_max)
    small = int(np.searchsorted(odd, split_at, side="right"))
    exact = [_power_counts(D, 2, a_max)]
    exact += [_power_counts(D, p, a_max) for p in odd[:small][Dmod[:small] == 0].tolist()]
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
        prev = 1
        for q, n in counts:
            if n != prev:  # at the multiples of q, R(q/p) becomes R(q)
                view = R[q::q]
                view //= prev
                view *= n
            prev = n
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


def _reduced_count(D: int) -> int:
    """The number of reduced forms of discriminant D, primitive or not.

    For a up to M, the largest a with 4a^2 < |D|, every root b in (-a, a]
    gives c > a, so the forms with first coefficient a number R(a) and the
    sieve counts them. The a above M are walked, but only where R(a) > 0.
    Below |D| = SIEVE_FROM every a is walked and nothing sieved.
    """
    a_max = isqrt(-D // 3)
    if -D < SIEVE_FROM:
        return sum(1 for _ in _walk(D, range(1, a_max + 1), a_max))
    import numpy as np

    R = _root_counts(D, a_max)
    M = isqrt((-D - 1) // 4)
    head = int(R[1 : M + 1].sum(dtype=np.int64))
    log.info("form count %d: a = 1..%d sieved, %d forms", D, M, head)
    tail = (np.flatnonzero(R[M + 1 :]) + (M + 1)).tolist()
    h = sum(1 for _ in _walk(D, tail, a_max))
    log.info("form count %d: walked %d of a = %d..%d, %d forms", D, len(tail), M + 1, a_max, h)
    return head + h


def _moebius_terms(D: int) -> list[tuple[int, int]]:
    """(g, mu(g)) for the square-free g with g^2 | D and D/g^2 = 0, 1 (mod 4).

    A reduced form of D is g times a primitive reduced form of D/g^2, g its
    content, so h*(D) = sum of mu(g) * (reduced forms of D/g^2) by Moebius
    inversion. Trial division runs while p^3 <= r, the part of |D| left;
    then r has at most two prime factors, so a square divides it only if it
    is one. Pure Python, so a walked count imports no numpy.
    """
    terms, r, p = [(1, 1)], -D, 2
    while p * p * p <= r:
        if r % (p * p) == 0:
            terms += [(g * p, -mu) for g, mu in terms]
        while r % p == 0:
            r //= p
        p += 1
    q = isqrt(r)
    if q > 1 and q * q == r:
        terms += [(g * q, -mu) for g, mu in terms]
    return [(g, mu) for g, mu in terms if (D // (g * g)) % 4 in (0, 1)]


_h_memo: dict[int, int] = {}  # D -> h, for the counts made without with_forms


def _primitive_walk(D: int):
    """Yield the reduced forms (a, b, c) of D with gcd(a, b, c) = 1, every a walked."""
    a_max = isqrt(-D // 3)
    return ((a, b, c) for a, b, c in _walk(D, range(1, a_max + 1), a_max)
            if gcd(gcd(a, b), c) == 1)


def class_number_forms(D: int, with_forms: bool = False) -> ClassNumberResult:
    """h*(D): the number of classes of primitive positive-definite forms.

    D must be negative and congruent to 0 or 1 mod 4 (it need not be
    fundamental). From |D| = SIEVE_FROM up, h is the sum of mu(g) times the
    number of reduced forms of D/g^2, over the terms of _moebius_terms;
    below it, one walk of every a counts the forms with gcd(a, b, c) = 1.
    With with_forms, that walk runs whatever D is, and the forms it keeps
    are returned. Results without with_forms are remembered for the process
    (at most arith.MEMO_SIZE, oldest dropped first), and a D counted before
    is answered from there, logged at INFO.
    """
    if D >= 0:
        raise DomainError(f"discriminant must be negative, got {D}")
    if D % 4 not in (0, 1):
        raise DomainError(f"discriminant must be 0 or 1 mod 4, got {D}")
    if with_forms:
        forms = tuple(QuadForm(a, b, c) for a, b, c in _primitive_walk(D))
        return ClassNumberResult(D, len(forms), "form-count", forms)
    h = _h_memo.get(D)
    if h is not None:
        log.info("form count %d: h = %d, counted earlier in this process", D, h)
    else:
        if -D < SIEVE_FROM:
            h = sum(1 for _ in _primitive_walk(D))
        else:
            h = sum(mu * _reduced_count(D // (g * g)) for g, mu in _moebius_terms(D))
        arith._remember(_h_memo, D, h)
    return ClassNumberResult(D, h, "form-count")


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


def class_number_dirichlet(D: int) -> ClassNumberResult:
    """Class number of a fundamental D < 0 by the half-range Dirichlet formula.

        h = sum_{0 < a < |D|/2} (D/a) / (2 - (D/2))

    for D < -4, and h = 1 for D = -3 and D = -4. D is split into prime
    discriminants through one factorization, which also decides whether D
    is fundamental. The character (D/a) on 0 <= a <= |D|/2 is the product
    of one int8 residue table per factor, each repeated to length |D|/2 + 1
    by copying the filled prefix onto the rest, with no index array; every
    intermediate is a bounded exact integer (|D| <= 10^6 is enforced).
    Independent of the form-counting path by construction.
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
    # 0 <= a <= |D|/2: (D/0) = 0, and (D/a) = 0 at a = |D|/2 when |D| is even
    tables = []
    for p in odd_primes:
        legendre = np.full(p, -1, dtype=np.int8)  # legendre[r] = (r/p)
        i = np.arange(p // 2 + 1, dtype=np.int64)
        legendre[i * i % p] = 1
        legendre[0] = 0
        tables.append(legendre)
    if rem != 1:
        tables.append(np.array({-4: [0, 1, 0, -1], 8: [0, 1, 0, -1, 0, -1, 0, 1],
                                -8: [0, 1, 0, 1, 0, -1, 0, -1]}[rem], dtype=np.int8))
    chi = np.empty(absD // 2 + 1, dtype=np.int8)
    _fill_periodic(chi, tables[0])
    factor = np.empty_like(chi)
    for table in tables[1:]:
        _fill_periodic(factor, table)
        chi *= factor
    S = int(chi.sum(dtype=np.int64))
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
