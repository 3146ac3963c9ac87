"""Construction and certification of tuples of imaginary quadratic fields.

For an odd n >= 3 and k >= 2 set ell = 4*k^n - 1 and d = 4*(1 - 4*k^n)^n.
The radicands d, d + 1, d + 4, and d + 4*p^2 (p an odd prime passing the
hypothesis checks) then satisfy the exact identities

    d + 1     = 1 - 4*ell^n
    d + 4     = 4*(1 - ell^n)
    d + 4*p^2 = 4*(p^2 - ell^n)

and every member's field class number is divisible by n. With N = ell^n,
so that d = -4N, every radicand is a value of g(x) = x^2 - 4N: d = g(0),
d + 1 = g(1), d + 4 = g(2) and d + 4p^2 = g(2p). A prime q > x^2 divides
g(x) exactly when 4N mod q = x^2, so the builder decomposes every member
by arith.decompose_member(4N, x), which shares one sieve of 4N among them.
Constructors populate radicands and square-free parts; verify_tuple
computes the class numbers and the divisibility verdicts. Records
serialize to a versioned JSON-lines schema.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from math import isqrt

from . import arith, classno, lrn
from .errors import (BudgetError, DomainError, HypothesisCheck, HypothesisRejection,
                     OutOfRangeError, labelled)

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

STATUS_PENDING = "pending"
STATUS_VERIFIED = "verified"
STATUS_BUDGET = "unverified (budget)"


@dataclass
class FamilyMember:
    """One member; its field order is the key order of its JSON record."""

    offset: int
    radicand: int
    squarefree_part: int
    cofactor: int
    class_number: int | None = None
    divisible: bool | None = None
    status: str = STATUS_PENDING


@dataclass
class FamilyTuple:
    kind: str  # "quadruple", "quintuple", or "pi_tuple"
    n: int
    k: int
    p_list: list[int]
    ell: int
    d: int
    members: list[FamilyMember]
    hypotheses: list[HypothesisCheck] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def offsets(self) -> list[int]:
        return [m.offset for m in self.members]

    @property
    def all_divisible(self) -> bool | None:
        """Conjunction over members; None while any member is unverified."""
        if any(m.status != STATUS_VERIFIED for m in self.members):
            return None
        return all(m.divisible for m in self.members)


def _check_nk(n: int, k: int) -> None:
    if n < 3 or n % 2 == 0:
        raise DomainError(f"n must be an odd integer >= 3, got {n}")
    if k < 2:
        raise DomainError(f"k must be an integer >= 2, got {k}")


def _ell_power(n: int, k: int) -> tuple[int, int]:
    """(ell, ell^n) for ell = 4*k^n - 1, under lrn.ell_power's size cap.

    bits(ell) > n*(bits(k) - 1), so once n^2*(bits(k) - 1) is past the cap
    ell^n is past it too: that is refused before k^n is formed.
    """
    if n * n * (k.bit_length() - 1) > lrn.POWER_CAP_BITS:
        raise OutOfRangeError(f"ell^n = (4*k^n - 1)^n has over n^2*(bits(k) - 1) = "
                              f"{n * n * (k.bit_length() - 1)} bits, past the cap of "
                              f"{lrn.POWER_CAP_BITS}")
    ell = 4 * k**n - 1
    return ell, lrn.ell_power(ell, n)


def _identities_hold(t: FamilyTuple) -> bool:
    """Whether t's ell, d, offsets and radicands are the ones its n, k and p_list determine."""
    ell, elln = _ell_power(t.n, t.k)
    d = -4 * elln
    offsets = [0, 1, 4] + [4 * p * p for p in t.p_list]
    return ((t.ell, t.d, t.offsets) == (ell, d, offsets)
            and all(m.radicand == d + m.offset for m in t.members))


def _theorem_b_check(n: int, ell: int) -> HypothesisCheck:
    # the d + 4 member needs (n, V) != (5, 3) with V = ell; vacuous for k >= 2
    return HypothesisCheck("(n, V) != (5, 3)", (n, ell) != (5, 3), f"V = {ell}")


def _build(kind: str, n: int, k: int, primes: list[int], lenient: bool = False) -> FamilyTuple:
    """The tuple of the given kind that n, k and the odd primes determine.

    The only path from parameters to a FamilyTuple. ell^n is formed once,
    by _ell_power under the size cap, and d = -4*ell^n. Each prime gets
    Theorem 3.1's hypotheses from lrn.theorem31_hypotheses, whose
    decomposition of 4(p^2 - ell^n) = d + 4p^2 is the prime's member. A
    prime that fails a check raises HypothesisRejection, or with lenient is
    dropped with a warning. Every member is x^2 - 4*ell^n for x = 0, 1, 2
    and 2p, and each is decomposed by arith.decompose_member(4*ell^n, x).
    """
    _check_nk(n, k)
    shape_ok = {"quadruple": len(primes) == 1, "quintuple": primes == [3, 5], "pi_tuple": True}
    if kind not in shape_ok:
        raise DomainError(f"kind must be quadruple, quintuple or pi_tuple, got {kind!r}")
    if not shape_ok[kind]:
        raise DomainError(f"a {kind} cannot have the primes {primes}")
    for p in primes:
        if p % 2 == 0 or not labelled(lambda: f"testing p = {p} for primality", arith.is_prime, p):
            raise DomainError(f"p must be an odd prime, got {p}")
    if any(p >= q for p, q in zip(primes, primes[1:])):
        raise DomainError(f"the primes must be increasing, got {primes}")
    ell, elln = _ell_power(n, k)
    d = -4 * elln  # = 4*(1 - 4*k^n)^n, as n is odd
    checks: list[HypothesisCheck] = []
    warnings: list[str] = []
    kept: list[tuple[int, arith.SquarefreeDecomposition]] = []
    for p in primes:
        pchecks, dec = labelled(lambda: f"decomposing the radicand at offset {4 * p * p}",
                                lrn.theorem31_hypotheses, ell, n, p, elln)
        checks.extend(pchecks)
        bad = next((c for c in pchecks if not c.ok), None)
        if bad is None:
            kept.append((p, dec))
        elif lenient:
            warnings.append(f"dropped p = {p}: {bad.check} ({bad.detail})")
            log.warning("%s n=%d k=%d: %s", kind, n, k, warnings[-1])
        else:
            raise HypothesisRejection(bad.check, bad.detail)
    theorem_b = _theorem_b_check(n, ell)
    if not theorem_b.ok:
        raise HypothesisRejection(theorem_b.check, theorem_b.detail)
    checks = [theorem_b] + checks if kind == "pi_tuple" else checks + [theorem_b]
    decs = [(x * x, labelled(lambda: f"decomposing the radicand at offset {x * x}",
                             arith.decompose_member, -d, x)) for x in (0, 1, 2)]
    decs += [(4 * p * p, dec) for p, dec in kept]
    members = [FamilyMember(off, d + off, dec.s, dec.f) for off, dec in decs]
    return FamilyTuple(kind, n, k, [p for p, _ in kept], ell, d, members, checks, warnings)


def quadruple(n: int, p: int, k: int) -> FamilyTuple:
    """Tuple with offsets {0, 1, 4, 4*p^2} for an odd prime p.

    Raises HypothesisRejection (naming the failed check) when p shares a
    factor with ell, p^2 >= ell^n, or the congruence condition on p fails;
    for p in {3, 5} the congruence condition is waived unless
    (ell, n) = (3, 3).
    """
    return _build("quadruple", n, k, [p])


def quintuple(n: int, k: int) -> FamilyTuple:
    """Tuple with offsets {0, 1, 4, 36, 100}: the quadruples for p = 3 and p = 5 merged."""
    return _build("quintuple", n, k, [3, 5])


def pi_tuple(n: int, m: int, k: int, mode: str = "strict") -> FamilyTuple:
    """Tuple with offsets {0, 1, 4} and 4*p^2 for every odd prime p <= m.

    The prime 2 contributes no offset. In strict mode the first per-prime
    hypothesis failure raises HypothesisRejection; in lenient mode the
    offending prime is dropped with a warning. The member count is
    pi(m) + 2 when every odd prime passes.
    """
    _check_nk(n, k)  # before the sieve, which a bad n or k would waste
    if m < 2:
        raise DomainError(f"m must be an integer >= 2, got {m}")
    if mode not in ("strict", "lenient"):
        raise DomainError(f"mode must be 'strict' or 'lenient', got {mode!r}")
    odd_primes = [p for p in arith.primes_up_to(m) if p != 2]
    return _build("pi_tuple", n, k, odd_primes, lenient=mode == "lenient")


def verify_tuple(t: FamilyTuple) -> FamilyTuple:
    """Fill in class numbers and divisibility verdicts for every member.

    Re-checks first that ell, d, the offsets and every radicand d + offset
    are those n, k and p_list determine. Then, in offset order and before
    any count, each member's (s, f) is derived again, as _build derived it,
    by arith.decompose_member(-d, x) with x^2 its offset, and a member whose
    s or f differs raises ArithmeticError. Every member the build decomposed
    is remembered with its rho charge (at most arith.MEMO_SIZE), so while
    it is and that charge fits the current rho_budget, it costs one lookup;
    otherwise it is decomposed again. Either way each member is compared
    with this process's own derivation, never with one read from a record.
    The field discriminant D is then s, or 4s unless s = 1 mod 4.
    classno.count_ahead counts the large D ahead, on two cores where it
    may, and each member's count is then class_number_forms(D), read from
    its memo for a D counted ahead, under the same budget check, so the
    records are those of the counts made one by one in this process. A
    member whose form count raises BudgetError (its |square-free part|
    exceeds the current Limits.sf_budget) is marked unverified. Returns the
    same tuple with members completed.
    """
    if not _identities_hold(t):
        raise ArithmeticError(f"tuple fails its construction identities: {t.kind} n={t.n} k={t.k}")
    members = sorted(t.members, key=lambda m: m.offset)
    discs = []
    for m in members:
        dec = arith.decompose_member(-t.d, isqrt(m.offset))
        if (m.squarefree_part, m.cofactor) != (dec.s, dec.f):
            raise ArithmeticError(f"member at offset {m.offset} has a broken decomposition")
        discs.append(dec.s if dec.s % 4 == 1 else 4 * dec.s)
    classno.count_ahead(discs)
    for m, D in zip(members, discs):
        try:
            m.class_number = classno.class_number_forms(D).h
        except BudgetError as e:
            m.status = STATUS_BUDGET
            m.class_number = None
            m.divisible = None
            log.warning("offset %d: |square-free part| = %d exceeds budget (%s), not verified",
                        m.offset, abs(m.squarefree_part), e)
            continue
        m.divisible = m.class_number % t.n == 0
        m.status = STATUS_VERIFIED
        if not m.divisible:
            log.error(
                "divisibility anomaly: offset %d, h(%d) = %d not divisible by %d",
                m.offset, m.squarefree_part, m.class_number, t.n,
            )
    return t


def to_json_dict(t: FamilyTuple) -> dict:
    """Schema-stable dict for one tuple (one JSON line per tuple)."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": t.kind,
        "n": t.n,
        "k": t.k,
        "ell": t.ell,
        "d": t.d,
        "p_list": list(t.p_list),
        "hypotheses": [dict(vars(c)) for c in t.hypotheses],
        "warnings": list(t.warnings),
        "members": [dict(vars(m)) for m in t.members],
        "all_divisible": t.all_divisible,
    }


def to_json_line(t: FamilyTuple) -> str:
    return json.dumps(to_json_dict(t), separators=(",", ":"), sort_keys=False)


def from_json_dict(rec: dict) -> FamilyTuple:
    """Rebuild a FamilyTuple from an untrusted JSON record.

    The tuple is rebuilt from the record's kind, n, k and p_list, so its
    decompositions, hypotheses and warnings are derived here, never read.
    Raises DomainError when a p fails its hypotheses, when the record's
    ell, d, p_list or members are not exactly the rebuilt ones, and when a
    pi_tuple's p_list leaves out an odd prime below its largest p that
    passes every hypothesis: the left-out primes are tried in increasing
    order up to the first that passes, so no sieve runs up to that p. A
    huge n or k is refused by _build's cap before any power. The verdict
    fields (class_number, divisible, status, all_divisible) are ignored:
    the members come back pending, for verify_tuple to decide.
    """
    schema = rec.get("schema") if isinstance(rec, dict) else None
    if type(schema) is not int or schema != SCHEMA_VERSION:  # True == 1.0 == 1 passes !=
        raise DomainError(f"not a schema-{SCHEMA_VERSION} tuple record")
    try:
        kind, n, k, ell, d = (rec[key] for key in ("kind", "n", "k", "ell", "d"))
        p_list = list(rec["p_list"])
        members = [(m["offset"], m["radicand"], m["squarefree_part"], m["cofactor"])
                   for m in rec["members"]]
    except (KeyError, TypeError) as e:
        raise DomainError(f"malformed record ({type(e).__name__}: {e})") from None
    numbers = [n, k, ell, d, *p_list, *(v for m in members for v in m)]
    if type(kind) is not str or any(type(v) is not int for v in numbers):
        raise DomainError("kind must be a string, and n, k, ell, d, p_list and the member "
                          "numbers integers")
    try:
        t = _build(kind, n, k, p_list)
    except HypothesisRejection as e:
        raise DomainError(f"p_list fails a hypothesis: {e}") from None
    rebuilt = [(m.offset, m.radicand, m.squarefree_part, m.cofactor) for m in t.members]
    if (ell, d, p_list, members) != (t.ell, t.d, t.p_list, rebuilt):
        raise DomainError("ell, d or the members are not those that kind, n, k and p_list determine")
    if kind == "pi_tuple" and p_list:
        listed, elln = set(p_list), -d // 4
        for p in range(3, p_list[-1], 2):
            if p not in listed and arith.is_prime(p) and all(
                    c.ok for c in lrn.theorem31_hypotheses(ell, n, p, elln)[0]):
                raise DomainError(f"p_list leaves out p = {p}, which passes every hypothesis")
    return t
