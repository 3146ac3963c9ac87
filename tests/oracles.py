"""Independent reference implementations used as test oracles.

Deliberately naive: trial division, exhaustive scans, and direct symbolic
expansion. Nothing here shares code with the package.
"""

from fractions import Fraction
from math import comb, gcd, isqrt


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def trial_factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def sieve_primes(m: int) -> list[int]:
    if m < 2:
        return []
    flags = [True] * (m + 1)
    flags[0] = flags[1] = False
    for i in range(2, isqrt(m) + 1):
        if flags[i]:
            for j in range(i * i, m + 1, i):
                flags[j] = False
    return [i for i, f in enumerate(flags) if f]


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in trial_factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return out


def hurwitz_class_number(m: int, count) -> Fraction:
    """H(m) for m >= 0, with count(D) the number of primitive classes of discriminant D < 0.

    H(0) = -1/12. For m > 0, the sum of count(-m/f^2)/w' over the f with
    f^2 | m and -m/f^2 = 0, 1 (mod 4), where w' = 3 at -3, 2 at -4 and 1
    otherwise.
    """
    if m == 0:
        return Fraction(-1, 12)
    root = 1  # the largest f with f^2 | m
    for p, e in trial_factorize(m):
        root *= p ** (e // 2)
    total = Fraction(0)
    for f in divisors(root):
        D = -m // (f * f)
        if D % 4 in (0, 1):
            total += Fraction(count(D), {-3: 3, -4: 2}.get(D, 1))
    return total


def kronecker_hurwitz_sides(N: int, count) -> tuple[Fraction, int]:
    """Both sides of the Kronecker-Hurwitz class number relation at N >= 1:

        sum_{t^2 <= 4N} H(4N - t^2) = 2 sigma(N) - sum_{d | N} min(d, N/d),

    t over all integers, H by hurwitz_class_number with the count given
    (Zagier, Nombres de classes et formes modulaires de poids 3/2, C. R.
    Acad. Sci. Paris 281, 1975).
    """
    left = Fraction(0)
    for t in range(isqrt(4 * N) + 1):
        left += (2 if t else 1) * hurwitz_class_number(4 * N - t * t, count)
    ds = divisors(N)
    return left, 2 * sum(ds) - sum(min(d, N // d) for d in ds)


def brute_reduced_forms(D: int, a_limit: int | None = None) -> set[tuple[int, int, int]]:
    """All reduced primitive forms of discriminant D < 0, by scanning a and b
    with no a-cutoff cleverness (a runs to a_limit, default |D|)."""
    assert D < 0
    if a_limit is None:
        a_limit = -D
    out = set()
    for a in range(1, a_limit + 1):
        m4a = 4 * a
        for b in range(-a, a + 1):
            t = b * b - D
            if t % m4a:
                continue
            c = t // m4a
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            out.add((a, b, c))
    return out


def lehmer_symbolic(a: int, b: int, n: int) -> int:
    """L_n by direct binomial expansion of (alpha^n - beta^n) over the
    appropriate denominator, with alpha, beta = (sqrt(a) +- sqrt(b)) / 2.

    For odd n the quotient by (alpha - beta) = sqrt(b) is
        2^(1-n) * sum_{odd j} C(n, j) a^((n-j)/2) b^((j-1)/2)
    and for even n the quotient by (alpha^2 - beta^2) = sqrt(a*b) is
        2^(1-n) * sum_{odd j} C(n, j) a^((n-j-1)/2) b^((j-1)/2).
    """
    total = 0
    for j in range(1, n + 1, 2):
        if n % 2:
            total += comb(n, j) * a ** ((n - j) // 2) * b ** ((j - 1) // 2)
        else:
            total += comb(n, j) * a ** ((n - j - 1) // 2) * b ** ((j - 1) // 2)
    den = 2 ** (n - 1)
    assert total % den == 0, (a, b, n)
    return total // den


def lehmer_primitive_part(a: int, b: int, n: int) -> int:
    """The part of |L_n| prime to a*b*L_1*...*L_{n-1}, by the definition.

    Every earlier term is expanded symbolically and stripped from L_n by
    repeated gcds, with no use of the sequence's divisibility.
    """
    m = abs(lehmer_symbolic(a, b, n))
    for known in [a * b] + [lehmer_symbolic(a, b, k) for k in range(1, n)]:
        g = gcd(m, known)
        while g > 1:
            m //= g
            g = gcd(m, known)
    return m


def valid_lehmer_pairs(limit: int) -> list[tuple[int, int]]:
    """All valid parameter pairs with |a|, |b| <= limit."""
    out = []
    for a in range(-limit, limit + 1):
        for b in range(-limit, limit + 1):
            if a == 0 or b == 0 or a == b or (a - b) % 4:
                continue
            if gcd(a, (a - b) // 4) != 1:
                continue
            if any(lehmer_symbolic(a, b, n) == 0 for n in range(2, 13)):
                continue
            out.append((a, b))
    return out
