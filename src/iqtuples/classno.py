"""Class numbers of negative discriminants via reduced binary quadratic forms.

The main counter enumerates reduced primitive positive-definite forms
(a, b, c) of discriminant D < 0 by walking a from 1 to sqrt(|D|/3) and
solving the congruence b^2 = D (mod 4a) through the factorization of 4a,
so a single class number costs O(sqrt(|D|)) congruence solves rather than
O(|D|) scanning. An independent Dirichlet class-number-formula evaluator
serves as a cross-check oracle for fundamental discriminants.
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


def _tonelli(n: int, p: int) -> int | None:
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
        r = _tonelli(D, p)
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


def _roots_mod_4a(D: int, a: int, spf: list[int], cache: dict[int, list[int]]) -> list[int]:
    """All b in [0, 4a) with b^2 = D (mod 4a), via CRT over the factors of 4a.

    cache maps prime powers q to the solution set of x^2 = D (mod q); it is
    only valid for one fixed D.
    """
    v2 = 2
    rest = a
    while rest % 2 == 0:
        rest //= 2
        v2 += 1
    q = 1 << v2
    roots = cache.get(q)
    if roots is None:
        roots = _sqrt_mod_prime_power(D, 2, v2)
        cache[q] = roots
    if not roots:
        return []
    mod = q
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


def class_number_forms(D: int, with_forms: bool = False) -> ClassNumberResult:
    """h*(D): the number of classes of primitive positive-definite forms.

    D must be negative and congruent to 0 or 1 mod 4 (it need not be
    fundamental). Reduced representatives are returned only when
    with_forms is set.
    """
    if D >= 0:
        raise DomainError(f"discriminant must be negative, got {D}")
    if D % 4 not in (0, 1):
        raise DomainError(f"discriminant must be 0 or 1 mod 4, got {D}")
    a_max = isqrt(-D // 3)
    spf = arith.smallest_prime_factor_table(a_max)
    cache: dict[int, list[int]] = {}
    h = 0
    forms: list[QuadForm] = []
    report_at = 1 + _PROGRESS_EVERY
    for a in range(1, a_max + 1):
        if a >= report_at:
            log.info("form count %d: a = %d / %d", D, a, a_max)
            report_at += _PROGRESS_EVERY
        m4a = 4 * a
        for r in _roots_mod_4a(D, a, spf, cache):
            b = r if r <= a else r - m4a
            if b < -a:
                continue
            c = (b * b - D) // m4a
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue  # boundary classes are counted once, with b >= 0
            if gcd(gcd(a, b), c) != 1:
                continue
            h += 1
            if with_forms:
                forms.append(QuadForm(a, b, c))
    return ClassNumberResult(D, h, "form-count", tuple(forms) if with_forms else None)


def is_fundamental_discriminant(D: int) -> bool:
    """True if D is the discriminant of a quadratic field (here: D < 0 only)."""
    if D >= 0 or D % 4 not in (0, 1):
        return False
    if D % 4 == 1:
        return arith.squarefree_decompose(D).f == 1
    m = D // 4
    return m % 4 in (2, 3) and arith.squarefree_decompose(m).f == 1


def class_number_dirichlet(D: int) -> ClassNumberResult:
    """Class number of a fundamental D < 0 by the half-range Dirichlet formula.

        h = sum_{0 < a < |D|/2} (D/a) / (2 - (D/2))

    for D < -4, and h = 1 for D = -3 and D = -4. The character is evaluated
    through the factorization of D into prime discriminants, one residue
    table per factor built for this call; every intermediate is a bounded
    exact integer (|D| <= 10^6 is enforced). Independent of the
    form-counting path by construction.
    """
    import numpy as np

    if not is_fundamental_discriminant(D):
        raise DomainError(f"{D} is not a negative fundamental discriminant")
    absD = -D
    if absD > DIRICHLET_LIMIT:
        raise DomainError(
            f"dirichlet method supports |D| <= {DIRICHLET_LIMIT}, got |D| = {absD}"
        )
    odd_primes = [p for p, _ in arith.factorize(absD).factors if p != 2]
    rem = D
    for p in odd_primes:
        rem //= p if p % 4 == 1 else -p
    # rem is the 2-part prime discriminant (or 1) left after odd factors.
    if rem not in (1, -4, 8, -8):
        raise DomainError(f"{D} does not factor into prime discriminants")
    if D in (-3, -4):
        return ClassNumberResult(D, 1, "dirichlet")
    # 0 <= a <= |D|/2: (D/0) = 0, and (D/a) = 0 at a = |D|/2 when |D| is even
    a = np.arange(absD // 2 + 1, dtype=np.int64)
    chi = np.ones(len(a), dtype=np.int8)
    for p in odd_primes:
        legendre = np.full(p, -1, dtype=np.int8)  # legendre[r] = (r/p)
        i = np.arange(p // 2 + 1, dtype=np.int64)
        legendre[i * i % p] = 1
        legendre[0] = 0
        chi *= legendre[a % p]
    if rem == -4:
        chi *= np.array([0, 1, 0, -1], dtype=np.int8)[a & 3]
    elif rem == 8:
        chi *= np.array([0, 1, 0, -1, 0, -1, 0, 1], dtype=np.int8)[a & 7]
    elif rem == -8:
        chi *= np.array([0, 1, 0, 1, 0, -1, 0, -1], dtype=np.int8)[a & 7]
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
