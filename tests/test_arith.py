import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from iqtuples import arith, families, lrn
from iqtuples.errors import BudgetError, DomainError, OutOfRangeError

from oracles import sieve_primes, trial_factorize, trial_is_prime


class TestFactorize:
    def test_small_composite(self):
        assert arith.factorize(12).factors == ((2, 2), (3, 1))

    def test_radicand_scale(self):
        # 4 * 31^3
        assert arith.factorize(119164).factors == ((2, 2), (31, 3))

    def test_prime_input(self):
        assert trial_is_prime(14891)
        assert arith.factorize(14891).factors == ((14891, 1),)

    def test_rejects_below_two(self):
        for m in (1, 0, -5):
            with pytest.raises(DomainError):
                arith.factorize(m)

    def test_deterministic(self):
        n = 600851475143
        assert arith.factorize(n).factors == arith.factorize(n).factors

    def test_budget_error_is_raised(self):
        # both factors are beyond the trial-division range, and one rho
        # iteration is not enough to split their product
        n = 99991 * 99989
        with pytest.raises(BudgetError), arith.limits(rho_budget=1):
            arith.factorize(n)
        assert arith.factorize(n).factors == ((99989, 1), (99991, 1))

    def test_too_long_to_print_is_named_by_size(self):
        # Python refuses to print an int of more than 4300 digits in decimal
        m = 10**5000 + 1
        while any(m % p == 0 for p in arith.primes_up_to(10_000)):
            m += 2
        with pytest.raises(OutOfRangeError, match=f"^factoring a {m.bit_length()}-bit integer: "):
            arith.factorize(m)

    def test_huge_cofactor_fails_before_rho(self, monkeypatch):
        m = 2**5 * 3 * 9973**2 * (10**30 + 57)  # 10^30 + 57 has no factor below 10^4
        monkeypatch.setattr(arith, "_brent_rho", _untouchable)
        with pytest.raises(OutOfRangeError, match=f"^factoring {m}: testing the cofactor "
                                                  f"{10**30 + 57} for primality: "):
            arith.factorize(m)

    def test_huge_smooth_part_then_small_cofactor(self):
        # past the proven range, but trial division leaves a cofactor inside it
        assert arith.factorize(2**90 * 1000003).factors == ((2, 90), (1000003, 1))

    def test_product_and_primality_up_to_1e6(self):
        # every m in [2, 10^6]: factors multiply back and are prime
        for m in range(2, 10**6 + 1):
            f = arith.factorize(m)
            assert f.value() == m
            for p, e in f.factors:
                assert e >= 1
                assert arith.is_prime(p), (m, p)
            primes = [p for p, _ in f.factors]
            assert primes == sorted(set(primes))


def _untouchable(*args):
    raise AssertionError("called")


def _watch_cofactor_parts(monkeypatch) -> list:
    """Each (m, v, sieved) given to _cofactor_parts: by factorize, or a decomposition past P^3."""
    steps = []
    real = arith._cofactor_parts
    monkeypatch.setattr(arith, "_cofactor_parts", lambda m, v, cut, settled, sieved:
                        steps.append((m, v, sieved)) or real(m, v, cut, settled, sieved))
    return steps


def _prime(rng, bits):
    """A random prime of the given bit length above 10^4."""
    while True:
        p = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        if p > 10**4 and arith.is_prime(p):
            return p


def _composites(seed):
    """Seeded composites in [2^40, 2^81] whose primes are all above 10^4.

    Balanced semiprimes, products of three primes, p^2 q, p^3 and p^5, and
    the 23-digit radicand cofactor that rho took 448 767 iterations on.
    """
    rng = random.Random(seed)
    out = [61887126757805598613499]  # 149383678981 * 414283054079
    for bits in (42, 48, 56, 64, 72, 78, 81):
        out.append(_prime(rng, bits // 2) * _prime(rng, bits - bits // 2))
    for bits in (45, 60, 75, 81):
        a = bits // 3
        out.append(_prime(rng, a) * _prime(rng, a) * _prime(rng, bits - 2 * a))
    for bits in (44, 63, 80):
        a = bits // 3
        out.append(_prime(rng, a) ** 2 * _prime(rng, bits - 2 * a))
    out += [_prime(rng, b) ** 3 for b in (15, 20, 27)]
    out += [_prime(rng, b) ** 5 for b in (14, 15, 16)]
    assert all(2**40 <= m < min(2**81, arith.MR_PROVEN_BOUND) for m in out)
    return out


class TestFactorizeOracle:
    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        for m in _composites(10):
            assert arith.factorize(m).factors == tuple(sorted(sympy.factorint(m).items())), m

    def test_cofactors_below_1e8_are_not_tested(self, monkeypatch):
        # no prime below 10^4 divides a cofactor, so one below 10^8 is prime;
        # rho splits these products of primes in (10^4, 10^8) and one larger
        # prime without the sieve
        sympy = pytest.importorskip("sympy")
        rng = random.Random(14)
        ms = [99999989, 10007 * 99999989, 10007**2 * 99999989, 10009**3 * _prime(rng, 40)]
        for _ in range(12):
            small = [_prime(rng, rng.randrange(14, 18)) for _ in range(rng.randrange(1, 3))]
            s = prod(small) * rng.choice(small + [1])
            ms.append(s * _prime(rng, rng.randrange(27, 82 - s.bit_length())))
        assert all(m < arith.MR_PROVEN_BOUND for m in ms)
        tested = []
        is_prime = arith.is_prime

        def large_only(v):
            assert v >= 10**8, f"is_prime({v})"
            tested.append(v)
            return is_prime(v)

        monkeypatch.setattr(arith, "is_prime", large_only)
        monkeypatch.setattr(arith, "_quadratic_sieve", _untouchable)
        for m in ms:
            assert arith.factorize(m).factors == tuple(sorted(sympy.factorint(m).items())), m
        assert sum(p < 10**8 for m in ms for p in sympy.factorint(m)) > len(ms)
        assert tested


class TestPrimesDividing:
    def test_equals_the_full_scan(self):
        # the scan stops once p^2 exceeds what is left of g, which is then 1 or a prime
        for g in [1, 2 * 9973, 9967 * 9973, 3 * 5 * 7 * 9973] + sieve_primes(10**4):
            full = [p for p in arith._TRIAL_PRIMES if g % p == 0]
            assert list(arith._primes_dividing(g)) == full, g


def _grid_multiplier(n: int) -> int:
    """Knuth-Schroeppel's k scored over the whole (k, p) grid for this n alone."""
    primes = sieve_primes(113)[1:]
    P = np.array(primes, dtype=np.int64)
    K = np.array(arith._QS_MULTIPLIERS, dtype=np.int64)[:, None]
    base = K * np.array([n % p for p in primes], dtype=np.int64) % P
    square = arith._pow_mod(base, (P - 1) >> 1, P)
    gain = np.where(K % P == 0, np.log2(P) / P, np.where(square == 1, 2 * np.log2(P) / (P - 1), 0))
    score = gain.sum(axis=1) - 0.5 * np.log2(K[:, 0])
    score += [2 if k * n % 8 == 1 else 1 if k * n % 8 == 5 else 0.5 for k in arith._QS_MULTIPLIERS]
    return arith._QS_MULTIPLIERS[int(np.argmax(score))]


class TestQuadraticSieve:
    N = 61887126757805598613499  # 149383678981 * 414283054079

    def test_multiplier_equals_the_grid_formula(self):
        # 2000 seeded n whose primes are all above 10^4, from 28 to 82 bits
        rng = random.Random(15)
        ns = [_prime(rng, rng.randrange(14, 42)) * _prime(rng, rng.randrange(14, 41)) for _ in range(2000)]
        got = [arith._qs_multiplier(n) for n in ns]
        assert got == [_grid_multiplier(n) for n in ns]
        assert len(set(got)) > 5

    def test_rho_alone_gives_the_same_factorizations(self, monkeypatch):
        # semiprimes that rho takes more than QS_AFTER iterations on
        rng = random.Random(11)
        ms = [_prime(rng, 26) * _prime(rng, 27) for _ in range(4)] + [10007 * _prime(rng, 60)]
        with_sieve = [arith.factorize(m) for m in ms]
        asked = []
        monkeypatch.setattr(arith, "_quadratic_sieve", lambda n: asked.append(n))
        assert [arith.factorize(m) for m in ms] == with_sieve
        assert asked == ms[:4]  # each offered once; 10007 falls to rho at once

    def test_returns_a_proper_divisor(self):
        # and nothing for a perfect power, which no congruence of squares splits
        for m in _composites(12):
            g = arith._quadratic_sieve(m)
            if arith._perfect_power(m) is None:
                assert g is not None and 1 < g < m and m % g == 0, m
            else:
                assert g is None, m

    def test_none_above_the_last_parameter_row(self):
        n = 4398046511119 * 8796093022237  # 86 bits, two primes of 43 and 44 bits
        assert n.bit_length() > arith._QS_PARAMS[-1][0]
        assert arith._quadratic_sieve(n) is None

    # Seeded semiprimes with both primes above 10^4, six in each _QS_PARAMS
    # row (up to 45, 55, 65, 73 and 82 bits), and the divisor the sieve
    # returned for each before elimination pivoted on the highest bit and the
    # factor base came from the root table.
    PINNED = (
        (16951360853591, 8415497),
        (7643011239887, 7630901),
        (1103426389493, 7016083),
        (9240025138129, 304127),
        (2034079334681, 111218729),
        (25995599537639, 264379057),
        (15298873294289509, 11671039),
        (269222166171659, 58309),
        (79383563539853, 9663301),
        (162827890100017, 264806869),
        (260436968781631, 18651557),
        (314761207767119, 1244501),
        (15358054506154692539, 6460736749),
        (7809217710074809129, 443627311),
        (63138040904651819, 254729),
        (481329467007982289, 417708839),
        (468729192408906593, 1026539551),
        (39306330461163721, 1046247929),
        (841452653624039691139, 130905053),
        (552541892705237259401, 3295334925331),
        (113097721089934611731, 30422179409),
        (6611946478639940706137, 1715360283997),
        (93521582310805952551, 2401836769),
        (209869474375016594491, 11428753162493),
        (158605911576941668631783, 702090091),
        (1217622976155233106105313, 404290824991),
        (901853587301908399099927, 4234974127),
        (36559160917805940099181, 1368138215585957),
        (2947054081151987498689993, 11697185133587867),
        (65998915004784863627917, 4751113793),
    )

    def test_divisors_equal_the_pinned_ones(self):
        rows = [b for b, _, _ in arith._QS_PARAMS]
        per_row = [sum(lo < n.bit_length() <= hi for n, _ in self.PINNED)
                   for lo, hi in zip([40] + rows, rows)]
        assert per_row == [6] * 5
        for n, g in self.PINNED:
            p = min(g, n // g)
            assert n % g == 0 and p > 10**4 and arith.is_prime(p) and arith.is_prime(n // p)
        for _ in range(2):  # and the same again: nothing a call leaves behind moves the next
            assert [(n, arith._quadratic_sieve(n)) for n, _ in self.PINNED] == list(self.PINNED)

    def test_root_table_follows_eulers_criterion(self):
        odd, offsets, roots = arith._qs_root_table()
        primes = sieve_primes(2047)[1:]
        assert odd.tolist() == primes and len(primes) == 308
        assert roots.dtype == np.int16 and roots.size == sum(primes) == 289174
        assert offsets.tolist() == [sum(primes[:i]) for i in range(len(primes))]
        for p, o in zip(primes, offsets.tolist()):
            entries = roots[o:o + p].tolist()
            assert entries[0] == 0
            for r, t in zip(range(1, p), entries[1:]):
                if pow(r, (p - 1) // 2, p) == p - 1:
                    assert t == -1, (p, r)
                else:
                    assert 0 <= t <= p // 2 and t * t % p == r, (p, r, t)
        assert arith._qs_root_table()[2] is roots  # built once

    def test_a_factor_base_past_the_table_gives_none(self, monkeypatch):
        n = self.N
        odd, offsets, roots = arith._qs_root_table()
        kn = arith._qs_multiplier(n) * n
        fits = sum(int(roots[o + kn % p]) >= 0 for p, o in zip(odd.tolist(), offsets.tolist()))
        for size in (fits + 2, 400):  # 2 and the residues below 2^11 are one short, or far short
            monkeypatch.setattr(arith, "_QS_PARAMS", ((82, size, 1 << 12),))
            assert arith._quadratic_sieve(n) is None
        assert arith.factorize(n).factors == ((149383678981, 1), (414283054079, 1))  # rho's

    def test_a_budget_below_the_hand_off_raises_without_the_sieve(self, monkeypatch):
        monkeypatch.setattr(arith, "_quadratic_sieve", _untouchable)
        with pytest.raises(BudgetError), arith.limits(rho_budget=arith.QS_AFTER - 1):
            arith.factorize(self.N)

    def test_the_charge_is_the_rho_iterations_spent(self, monkeypatch):
        spent = []
        brent_rho = arith._brent_rho

        def counting(n, budget, *rest):
            before = budget[0]
            try:
                return brent_rho(n, budget, *rest)
            finally:
                spent.append(before - budget[0])

        monkeypatch.setattr(arith, "_brent_rho", counting)
        f, charge = arith._factorize(self.N)
        assert f.factors == ((149383678981, 1), (414283054079, 1))
        assert charge == sum(spent) == arith.QS_AFTER  # the sieve split it
        with pytest.raises(BudgetError), arith.limits(rho_budget=charge - 1):
            arith.factorize(self.N)
        with arith.limits(rho_budget=charge):
            assert arith._factorize(self.N) == (f, charge)

    def test_the_plain_route_hands_off_after_exactly_qs_after(self):
        with pytest.raises(BudgetError), arith.limits(rho_budget=arith.QS_AFTER - 1):
            arith.factorize(self.N)
        with arith.limits(rho_budget=arith.QS_AFTER):
            f, charge = arith._factorize(self.N)
        assert f.factors == ((149383678981, 1), (414283054079, 1)) and charge == arith.QS_AFTER


class TestBrentRho:
    N = TestQuadraticSieve.N

    def test_a_cap_is_spent_exactly(self):
        # past the first chunks of 1 + 2 + ... + 512 = 1023 steps, the chunks
        # are 128 long; the last one is clipped to the cap
        for cap in (1, 2, 127, 1000, 1023, 1024, 1151, 5000):
            budget = [10**6]
            assert arith._brent_rho(self.N, budget, cap) == 0
            assert budget == [10**6 - cap], cap


class TestFactorizeKeepsNoState:
    # 99991 * 99989 falls to rho before the hand-off, N to the quadratic sieve after it
    MS = (99991 * 99989, TestQuadraticSieve.N)

    def test_the_charge_is_the_same_whatever_ran_before(self):
        for m in self.MS:
            f, charge = arith._factorize(m)
            assert 0 < charge <= arith.QS_AFTER
            for budget in (charge - 1, 1, charge - 1):  # refused before and after the passes
                with pytest.raises(BudgetError, match=f"factoring {m}$"), arith.limits(rho_budget=budget):
                    arith.factorize(m)
                for ok in (charge, 10**8):
                    with arith.limits(rho_budget=ok):
                        assert arith._factorize(m) == (f, charge)
                        assert arith.factorize(m) == f

    def test_no_rho_charges_nothing(self, monkeypatch):
        # trial division finishes these, or leaves a prime cofactor past 10^8,
        # or a power of primes past 10^4 that the root test takes without rho
        monkeypatch.setattr(arith, "_brent_rho", _untouchable)
        ms = (12, 119164, 14891, 9973 * 9967, 99999989, 2**90 * 1000003, 2**40 * 3**5 * 9973,
              6 * 1000000007, 10007**3, 12 * 10007**5, 10007**4, 10009**6)
        with arith.limits(rho_budget=0):
            for m in ms:
                f, charge = arith._factorize(m)
                assert f.value() == m and all(arith.is_prime(p) for p, _ in f.factors)
                assert charge == 0, m
        assert arith.factorize(10007**3).factors == ((10007, 3),)
        assert arith.factorize(10009**6).factors == ((10009, 6),)


class TestIsPrime:
    def test_examples(self):
        assert arith.is_prime(2)
        assert arith.is_prime(31)
        assert not arith.is_prime(119163)  # 3 * 39721
        assert 119163 == 3 * 39721

    def test_small_values(self):
        for m in (-7, -1, 0, 1):
            assert not arith.is_prime(m)

    def test_matches_trial_division(self):
        for m in range(2, 20000):
            assert arith.is_prime(m) == trial_is_prime(m), m

    def test_strong_pseudoprime_traps(self):
        # composites that fool small witness sets
        assert not arith.is_prime(3215031751)          # 151 * 751 * 28351
        assert not arith.is_prime(3825123056546413051)
        assert arith.is_prime(2**61 - 1)

    def test_witness_sets_agree_with_all_13_witnesses(self):
        # densely below 3*10^4 and on both sides of every bound, the bound itself included
        all_13 = arith.MR_WITNESSES
        for bound, witnesses in arith.MR_WITNESS_SETS:
            near = range(max(43, bound - 3000) | 1, bound + 3000, 2)
            for m in [*range(43, 30_000, 2), *near]:
                if m < arith.MR_PROVEN_BOUND and all(m % p for p in all_13):
                    want = arith._strong_probable_prime(m, all_13)
                    assert arith.is_prime(m) == want, m
                    if m < bound:
                        assert arith._strong_probable_prime(m, witnesses) == want, (bound, m)

    def test_strong_pseudoprimes_at_the_bounds(self):
        # the least strong pseudoprime to the first k primes, for k = 1..9, 12 and 13
        least = {1: 2047, 2: 1373653, 3: 25326001, 4: 3215031751, 5: 2152302898747,
                 6: 3474749660383, 7: 341550071728321, 8: 341550071728321,
                 9: 3825123056546413051, 12: 318665857834031151167461,
                 13: arith.MR_PROVEN_BOUND}
        for k, m in least.items():
            assert arith._strong_probable_prime(m, arith.MR_WITNESSES[:k]), m
            if m < arith.MR_PROVEN_BOUND:
                assert not arith.is_prime(m), m
        sets = arith.MR_WITNESS_SETS
        assert [bound for bound, _ in sets] == [least[len(ws)] for _, ws in sets]
        assert [len(ws) for _, ws in sets] == [1, 2, 3, 4, 5, 6, 7, 9, 12, 13]
        assert sets[-1] == (arith.MR_PROVEN_BOUND, arith.MR_WITNESSES)

    def test_each_row_bound_is_a_composite_its_witnesses_pass(self):
        # each bound is a strong pseudoprime to its own row, and is_prime,
        # which takes that row just below it, agrees with sympy around it
        sympy = pytest.importorskip("sympy")
        rng = random.Random(7)
        for bound, witnesses in arith.MR_WITNESS_SETS:
            assert not sympy.isprime(bound), bound
            assert arith._strong_probable_prime(bound, witnesses), bound
            near = [*range(bound - 200, bound + 200)] + [rng.randrange(bound // 2, bound) for _ in range(300)]
            for m in near:
                if m < arith.MR_PROVEN_BOUND:
                    assert arith.is_prime(m) == sympy.isprime(m), m
            assert sum(map(sympy.isprime, near)) > 5, bound  # the sample holds primes too

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            arith.is_prime(arith.MR_PROVEN_BOUND)
        # just below the bound must still answer
        assert arith.is_prime(arith.MR_PROVEN_BOUND - 1) in (True, False)


class TestSquarefree:
    def test_examples(self):
        assert (arith.squarefree_decompose(12).s, arith.squarefree_decompose(12).f) == (3, 2)
        d = arith.squarefree_decompose(-119164)
        assert (d.s, d.f) == (-31, 62)
        d = arith.squarefree_decompose(-29790)
        assert (d.s, d.f) == (-3310, 3)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            arith.squarefree_decompose(0)

    def test_units(self):
        assert (arith.squarefree_decompose(1).s, arith.squarefree_decompose(1).f) == (1, 1)
        assert (arith.squarefree_decompose(-1).s, arith.squarefree_decompose(-1).f) == (-1, 1)

    def test_identity_and_sign_over_range(self):
        for m in range(-10**6, 10**6 + 1):
            if m == 0:
                continue
            d = arith.squarefree_decompose(m)
            assert d.s * d.f * d.f == m
            assert (d.s > 0) == (m > 0)
            assert d.f >= 1

    def test_no_rho_below_the_cube_of_10007(self):
        # -255808047896 = -8 * 33641 * 950507: the cofactor is two primes
        # below 10007^3, which one isqrt settles with no rho step
        with arith.limits(rho_budget=0):
            d = arith.squarefree_decompose(-255808047896)
        assert (d.s, d.f) == (-63952011974, 2)

    def test_cofactors_around_the_cube_of_10007(self, monkeypatch):
        # v is what trial division below 10^4 leaves; _cofactor_parts sees
        # it, plain, exactly when v >= 10007^3, and splits only P^2 * 10009
        # (P^3 fails the base-2 power and is a cube), with no prime proven
        P = 10007
        steps = _watch_cofactor_parts(monkeypatch)
        split = []
        real_split = arith._split
        monkeypatch.setattr(arith, "_split", lambda v, *rest: split.append(v) or real_split(v, *rest))
        monkeypatch.setattr(arith, "is_prime", _untouchable)
        cases = [(P * 10009, False), (P * P, False), (999999999989, False),
                 (P * 100140043, False), (P**3, True), (P * P * 10009, True)]
        assert P * 100140043 < P**3 and trial_is_prime(100140043) and trial_is_prime(999999999989)
        for v, factors in cases:
            for small in (1, 2, 12, 3 * 5 * 7 * 9973, 8 * 9973**2):
                for m in (small * v, -small * v):
                    steps.clear()
                    split.clear()
                    d, charge = arith._decompose(m)
                    assert (d.s, d.f) == _sympy_decompose(m), m
                    assert steps == ([(abs(m), v, False)] if factors else []), m
                    assert split == ([v] if v == P * P * 10009 else []), m
                    assert (charge > 0) == bool(split), m

    def test_s_is_squarefree_by_refactoring(self):
        rng = random.Random(2024)
        for m in rng.sample(range(2, 10**6), 10**4):
            s = arith.squarefree_decompose(m).s
            assert all(e == 1 for _, e in trial_factorize(abs(s))), m


def _sympy_decompose(m: int) -> tuple[int, int]:
    sympy = pytest.importorskip("sympy")
    s, f = 1, 1
    for p, e in sympy.factorint(abs(m)).items():
        s *= p ** (e % 2)
        f *= p ** (e // 2)
    return (s if m > 0 else -s), f


class TestMemberSieve:
    # the x of the members d, d + 1, d + 4 and d + 4p^2 for every odd p <= 47
    XS = [0, 1, 2] + [2 * p for p in sieve_primes(47)[1:]]

    def test_divisors_equal_trial_division(self):
        # one Python int remainder per prime, on both sides of B = 10^6 and up
        # to the int64 limit of the reduction
        primes = sieve_primes(10**6 + 100)
        for four_n in (10**12, 10**15 + 7, 999 * 10**15, 4 * 511**7, 10**18 + 9,
                       arith.MR_PROVEN_BOUND - 1):
            sieve = arith._member_sieve(four_n)
            assert sieve.bound == 10**6 or sieve.bound**3 <= four_n < (sieve.bound + 2) ** 3
            want: dict[int, tuple[int, ...]] = {}
            for q in primes:
                if 10**4 < q <= sieve.bound:
                    r = four_n % q
                    if r < 10**4 and isqrt(r) ** 2 == r:
                        want[r] = want.get(r, ()) + (q,)
            got = {x2: tuple(sieve.divisors(x2)) for x2 in range(10**4) if isqrt(x2) ** 2 == x2}
            assert {x2: qs for x2, qs in got.items() if qs} == want, four_n
            assert sieve.above == next(q for q in primes if q > sieve.bound)

    def test_tuple_members_equal_sympy(self):
        # (n, k) with 10^12 <= 4*ell^n < MR_PROVEN_BOUND: the first and last k
        # at n = 3, k = 54 and 55 on both sides of B = 10^6, and n = 5 and 7
        nks = [(3, 12), (3, 13), (3, 31), (3, 54), (3, 55), (3, 100), (3, 151), (3, 200),
               (3, 286), (5, 3), (5, 4), (5, 5), (5, 6), (7, 2)]
        for n, k in nks:
            four_n = 4 * (4 * k**n - 1) ** n
            assert 10**12 <= four_n < arith.MR_PROVEN_BOUND
            for x in self.XS:
                d = arith.decompose_member(four_n, x)
                assert (d.s, d.f) == _sympy_decompose(x * x - four_n), (n, k, x)
            assert four_n in arith._sieve_memo  # the sieve, not factorize, found them

    def test_cofactors_around_the_bounds(self, monkeypatch):
        # Members -M with 4N = M + x^2 >= 10^18, so B = 10^6 (or the float
        # cube root just below it) and the least prime past it is P = 1000003.
        # Each M is a power of 2 times v = 999983^e * u, the primes of u just
        # above B or around B^2 and B^3; u goes to _cofactor_parts, sieved,
        # from P^3 up, never below, and no prime is proven.
        below_b, P, P2, P3 = 999983, 1000003, 1000033, 1000037
        below_b2, above_b2 = 999999999989, 1000000000039
        below_b3, above_b3 = 999999999999999989, 1000000000000000003
        below_p2, below_p3 = 1000005999943, 1000009000026999979  # primes just below P^2, P^3
        steps = _watch_cofactor_parts(monkeypatch)
        is_prime = arith.is_prime  # the sieve's own P is proven, below 10^8
        monkeypatch.setattr(arith, "is_prime", lambda q: is_prime(q) if q < 10**8 else _untouchable())
        cases = [  # (e, u, whether u reaches _cofactor_parts)
            (1, 1, False), (0, P, False), (0, P * P, False), (0, P * P2, False),
            (1, P * P, False), (2, P, False), (2, P2 * P2, False),
            (0, below_b2, False), (0, above_b2, False), (1, P * below_b2, False),
            (0, P * above_b2, False), (0, below_b3, False), (0, above_b3, False),
            (1, below_p3, False), (1, P * below_p2, False), (0, P**3, True), (1, P**3, True),
            (0, P * P * P2, True), (0, P * P2 * P3, True), (0, P * P2 * P3 * P3, True),
            (0, P * above_b3, True), (0, above_b2**2, True),
        ]
        for i, (e, u, factors) in enumerate(cases):
            x = self.XS[i % len(self.XS)]
            v = below_b**e * u
            M = v << max(0, 61 - v.bit_length())
            assert 10**18 <= M + x * x < arith.MR_PROVEN_BOUND
            steps.clear()
            d = arith.decompose_member(M + x * x, x)
            assert (d.s, d.f) == _sympy_decompose(-M), (e, u)
            assert steps == ([(M, u, True)] if factors else []), (e, u)

    def test_cube_root_bound_below_1e6(self):
        # 4N = 99991 * 100003^2 + 36 has its cube root between the two primes:
        # 99991 is sieved, 100003 is the least prime past B and stays a square
        four_n = 99991 * 100003**2 + 36
        d = arith.decompose_member(four_n, 6)
        assert (d.s, d.f) == (-99991, 100003)
        sieve = arith._sieve_memo[four_n]
        assert 99991 <= sieve.bound < 100003 == sieve.above
        assert list(sieve.divisors(36)) == [99991]

    def test_built_only_in_range_whatever_is_imported(self, monkeypatch):
        # certify's 4*ell^n stays at or below 2*10^11; 4*127^5, at (5, 2), is its largest
        families.quintuple(5, 2)
        for four_n in (10**12 - 1, arith.MR_PROVEN_BOUND):
            assert arith._sieve_of(four_n) is None
        assert not arith._sieve_memo
        sieve = arith._sieve_of(10**15)
        assert sieve is arith._sieve_memo[10**15]
        # a fresh interpreter, which has not imported numpy, builds the same sieve
        script = ("import sys\nfrom iqtuples import arith\n"
                  "assert 'numpy' not in sys.modules\n"
                  "s = arith._sieve_of(10**15)\n"
                  "print(s.bound, s.above, list(s.squares), list(s.primes))\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(arith.__file__)))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split(" ", 2) == [str(sieve.bound), str(sieve.above),
                                            f"{list(sieve.squares)} {list(sieve.primes)}\n"]
        # squarefree_decompose reads no sieve: the member x = 3, whose cofactor
        # 718321 * 2131907 is past 10007^3, takes the plain route
        monkeypatch.setattr(arith, "_sieve_of", _untouchable)
        steps = _watch_cofactor_parts(monkeypatch)
        d = arith.squarefree_decompose(9 - 10**15)
        assert (d.s, d.f) == _sympy_decompose(9 - 10**15)
        assert steps == [(10**15 - 9, 718321 * 2131907, False)]

    def test_built_only_where_it_can_hold_a_prime(self):
        # below 10007^3 the cube root B is below 10007, the least prime past 10^4
        for four_n in (10**12, 10**12 + 4, 10007**3 - 1):
            assert arith._sieve_of(four_n) is None
        assert 10007 <= arith._sieve_of(10008**3).bound < arith._sieve_of(10008**3).above

    def test_one_sieve_per_tuple(self, monkeypatch):
        built = []
        member_sieve = arith._member_sieve
        monkeypatch.setattr(arith, "_member_sieve", lambda n: built.append(n) or member_sieve(n))
        for _ in range(2):
            families.pi_tuple(5, 47, 5, "lenient")
        assert built == [4 * 12499**5]


class TestSievedCofactors:
    # d + 100 at (n, k) = (5, 5) leaves this cofactor past the member sieve
    V = 1001387 * 50771867830517
    FOUR_N = 4 * 12499**5

    def test_the_quadratic_sieve_comes_before_any_rho_step(self, monkeypatch):
        calls = []
        sieve, rho = arith._quadratic_sieve, arith._brent_rho
        monkeypatch.setattr(arith, "_quadratic_sieve",
                            lambda n: calls.append(("qs", n)) or sieve(n))
        monkeypatch.setattr(arith, "_brent_rho",
                            lambda n, *rest, **kw: calls.append(("rho", n)) or rho(n, *rest, **kw))
        families.quintuple(5, 5)
        assert (self.FOUR_N - 100) % self.V == 0
        assert ("qs", self.V) in calls and ("rho", self.V) not in calls
        assert arith._member_memo[self.FOUR_N, 100][1] == arith.QS_AFTER  # the charge, recorded

    def test_the_charge_obeys_the_budget(self):
        with arith.limits(rho_budget=arith.QS_AFTER - 1):
            with pytest.raises(BudgetError, match=f"factoring {self.V}$"):
                families.quintuple(5, 5)
        assert (self.FOUR_N, 100) not in arith._member_memo
        with arith.limits(rho_budget=arith.QS_AFTER):
            families.quintuple(5, 5)
            parts, charge = arith._cofactor_parts(self.FOUR_N - 100, self.V,
                                                  arith._sieve_of(self.FOUR_N).above ** 3,
                                                  arith._fermat_base_2, True)
        assert parts == {1001387: 1, 50771867830517: 1} and charge == arith.QS_AFTER
        assert arith._member_memo[self.FOUR_N, 100][1] == charge

    def test_the_routes_charge_apart(self):
        # plain rho splits P^2 * P2 in fewer than QS_AFTER iterations, where
        # the sieved route charges QS_AFTER: a budget that the plain route
        # meets still refuses the member
        u = 1000003**2 * 1000033
        M = u << (61 - u.bit_length())  # 4N = M, the member -M at x = 0, cleared to 10^6
        cube = 1000003**3
        parts, spent = arith._cofactor_parts(u, u, cube, arith._fermat_base_2, False)
        assert parts == {1000003: 2, 1000033: 1} and 0 < spent < arith.QS_AFTER
        assert arith._cofactor_parts(u, u, cube, arith._fermat_base_2, True) == (parts, arith.QS_AFTER)
        with arith.limits(rho_budget=spent):
            with pytest.raises(BudgetError, match=f"factoring {u}$"):
                arith.decompose_member(M, 0)
            assert arith._decompose(u) == (arith.SquarefreeDecomposition(u, 1000033, 1000003), spent)
        assert (M, 0) not in arith._member_memo
        with arith.limits(rho_budget=arith.QS_AFTER):
            d = arith.decompose_member(M, 0)
        assert (d.s, d.f) == _sympy_decompose(-M)
        assert arith._member_memo[M, 0] == (d, arith.QS_AFTER)

    def test_thm31_takes_the_member_route(self, monkeypatch):
        # theorem31_hypotheses decomposes 4(p^2 - ell^n) = (2p)^2 - 4*ell^n as
        # the builder's member x = 2p, so at (5, 5) with p = 5 it meets d +
        # 100's cleared cofactor V, not the whole radicand, and no rho step
        rho = []
        brent_rho = arith._brent_rho
        monkeypatch.setattr(arith, "_brent_rho",
                            lambda n, *rest: rho.append(n) or brent_rho(n, *rest))
        steps = _watch_cofactor_parts(monkeypatch)
        checks, dec = lrn.theorem31_hypotheses(12499, 5, 5, 12499**5)
        assert all(c.ok for c in checks) and (dec.s, dec.f) == _sympy_decompose(100 - self.FOUR_N)
        assert steps == [(self.FOUR_N - 100, self.V, True)]
        assert arith._member_memo[self.FOUR_N, 100] == (dec, arith.QS_AFTER)
        assert rho == []
        arith._member_memo.clear()
        with arith.limits(rho_budget=arith.QS_AFTER - 1):
            with pytest.raises(BudgetError, match=f"factoring {self.V}$"):
                lrn.theorem31_hypotheses(12499, 5, 5, 12499**5)

    def test_rho_alone_when_the_sieve_finds_nothing(self, monkeypatch):
        # each cleared cofactor is offered to the quadratic sieve once; rho
        # then splits it with no second hand-off
        asked = []
        monkeypatch.setattr(arith, "_quadratic_sieve", lambda n: asked.append(n))
        P, P2, P3, above_b3 = 1000003, 1000033, 1000037, 1000000000000000003
        cases = [(self.FOUR_N, x) for x in TestMemberSieve.XS]
        for u in (P**3, P * P * P2, P * P2 * P3, P * above_b3):
            M = u << max(0, 61 - u.bit_length())  # 4N = M, the member -M at x = 0
            cases.append((M, 0))
        for four_n, x in cases:
            d = arith.decompose_member(four_n, x)
            assert (d.s, d.f) == _sympy_decompose(x * x - four_n), (four_n, x)
        assert self.V in asked and P * P2 * P3 in asked
        assert len(asked) == len(set(asked))


class TestMemberMemo:
    # the x = 2p past the member sieve's squares, x^2 >= 10^4
    PLAIN_XS = [2 * p for p in sieve_primes(200) if p >= 53]

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(3, 21).flatmap(lambda k: st.integers(10**k // 4, 10 ** (k + 1) // 4)),
           st.one_of(st.integers(0, 99), st.sampled_from(PLAIN_XS)))
    def test_a_hit_equals_a_fresh_decomposition(self, monkeypatch, n, x):
        # 4N log-uniform in [10^3, 10^22): sieved from 10007^3 up when x^2 < 10^4
        four_n, x2 = 4 * n, x * x
        assume(x2 != four_n)
        arith._member_memo.clear()
        charges = []
        real = arith._cofactor_parts

        def cofactor_parts(*args):
            out = real(*args)
            charges.append(out[1])
            return out

        with monkeypatch.context() as mp:
            mp.setattr(arith, "_cofactor_parts", cofactor_parts)
            first = arith.decompose_member(four_n, x)
        # kept, split or not, with the charge of its one cofactor step or 0
        assert len(charges) <= 1
        assert arith._member_memo[four_n, x2] == (first, sum(charges))
        with monkeypatch.context() as mp:
            mp.setattr(arith, "_sieve_of", _untouchable)
            mp.setattr(arith, "_trial_divide", _untouchable)
            mp.setattr(arith, "_cofactor_parts", _untouchable)
            with arith.limits(rho_budget=sum(charges)):
                again = arith.decompose_member(four_n, x)
        assert again is first
        assert first == arith.squarefree_decompose(x2 - four_n)

    def test_a_factorized_member_still_meets_the_budget(self, monkeypatch):
        # d + 100 at (n, k) = (5, 5), from construct: its cleared cofactor
        # needs the quadratic sieve, charged c = QS_AFTER
        four_n, c = TestSievedCofactors.FOUR_N, arith.QS_AFTER
        with pytest.raises(BudgetError) as fresh, arith.limits(rho_budget=c - 1):
            arith.decompose_member(four_n, 10)
        assert not arith._member_memo
        d0 = arith.decompose_member(four_n, 0)
        d = arith.decompose_member(four_n, 10)
        assert (d.s, d.f) == _sympy_decompose(100 - four_n)
        assert arith._member_memo[four_n, 100] == (d, c)
        assert arith._member_memo[four_n, 0] == (d0, 0)
        with arith.limits(rho_budget=c - 1):
            with pytest.raises(BudgetError) as again:
                arith.decompose_member(four_n, 10)
            assert str(again.value) == str(fresh.value)
            # a member settled without factoring is answered from the memo at any budget
            with arith.limits(rho_budget=0):
                assert arith.decompose_member(four_n, 0) is d0
        monkeypatch.setattr(arith, "_cofactor_parts", _untouchable)
        with arith.limits(rho_budget=c):  # the charge fits: answered from the memo
            assert arith.decompose_member(four_n, 10) is d

    def test_tuple_built_twice_still_obeys_the_budget(self):
        families.quintuple(5, 5)
        assert arith._member_memo[TestSievedCofactors.FOUR_N, 100][1] == arith.QS_AFTER
        with pytest.raises(BudgetError), arith.limits(rho_budget=1):
            families.quintuple(5, 5)

    def test_a_repeated_tuple_proves_nothing_again(self, large_proofs):
        families.quintuple(3, 150)
        assert large_proofs
        large_proofs.clear()
        families.quintuple(3, 150)
        assert large_proofs == []

    def test_size_bound_drops_the_oldest(self, monkeypatch):
        # settled and factorized members share one bound: 4 * 31^3 is below
        # 10007^3, and the members x = 100 below are -4 times three primes past 10^4
        monkeypatch.setattr(arith, "MEMO_SIZE", 3)
        keys = [(4 * 31**3, x * x) for x in range(3)]
        keys += [(4 * p * q * r + 10**4, 10**4) for p, q, r in
                 ((10007, 10009, 10037), (10039, 10061, 10067), (10069, 10079, 10091))]
        for four_n, x2 in keys:
            arith.decompose_member(four_n, isqrt(x2))
            assert len(arith._member_memo) <= 3
        assert list(arith._member_memo) == keys[3:]
        assert all(charge > 0 for _, charge in arith._member_memo.values())
        arith.decompose_member(4 * 31**3, 0)
        assert list(arith._member_memo) == keys[4:] + keys[:1]
        # the zero member x^2 = 4N is refused, as squarefree_decompose(0) is, and not kept
        with pytest.raises(DomainError, match="requires m != 0"):
            arith.decompose_member(4 * 10**6, 2000)
        assert list(arith._member_memo) == keys[4:] + keys[:1]


class TestCofactorParts:
    # The members of every tuple construct builds: offsets 0, 1 and 4, and
    # 4p^2 for the odd primes up to CONSTRUCT_M = 13, which hold the
    # quintuple's and quadruples' p = 3 and 5 (perfbench/workloads.py)
    CONSTRUCT_NK = [(3, k) for k in range(12, 201)] + [(5, k) for k in range(2, 7)] + [(7, 2)]
    XS = (0, 1, 2, 6, 10, 14, 18, 22, 26)

    def test_only_two_wieferich_primes_below_2e6(self):
        # the premise on a range a test covers: trial division to 10^4 must
        # come first, as 1093^2 and 3511^2 pass the base-2 power
        assert [p for p in arith.primes_up_to(2 * 10**6) if pow(2, p - 1, p * p) == 1] == [1093, 3511]
        assert all(pow(2, p * p - 1, p * p) == 1 for p in (1093, 3511))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(10**4, 10**7 - 200), st.integers(10**4, 10**7 - 200))
    def test_no_square_passes_the_base_2_power(self, a, b):
        p, q = arith._prime_past(a), arith._prime_past(b)
        for v in (p * p * q, p**3, p * p * q * q):
            assert pow(2, v - 1, v) != 1, (p, q)

    def test_any_split_gives_the_oracles_decomposition(self, monkeypatch):
        # _split stubbed to return each proper divisor of v in turn, then the
        # least prime of each later part; with the power test and without it
        p, q, r = 10007, 10009, 10037
        perfect_power = arith._perfect_power
        for v in (p * p * q, p**3 * q, p * p * q * q, p * q * r, p**4):
            exps = dict(trial_factorize(v))
            divisors = sorted(prod(t**e for t, e in zip(exps, es))
                              for es in np.ndindex(*(e + 1 for e in exps.values())))[1:-1]
            for d in divisors:
                for power in (perfect_power, lambda u: None):
                    first = [d]

                    def split(u, budget, sieved):
                        return first.pop() if first else next(t for t in (p, q, r) if u % t == 0)

                    monkeypatch.setattr(arith, "_split", split)
                    monkeypatch.setattr(arith, "_perfect_power", power)
                    for m in (v, -12 * v):
                        dec, charge = arith._decompose(m)
                        s = prod(t for t, e in trial_factorize(abs(m)) if e % 2)
                        assert (dec.s, dec.f * dec.f) == ((s if m > 0 else -s), abs(m) // s), (v, d)
                        assert charge == 0
                    # only the power test keeps p^4 and p^2 q^2 from _split
                    assert not first or (power is perfect_power and v in (p**4, p * p * q * q)), (v, d)

    @pytest.mark.parametrize("m, primes", [(207132481, (10177, 20353)),
                                           (6323547512449, (10177, 20353, 30529))])
    def test_a_base_2_pseudoprime_is_split_only_by_factorize(self, monkeypatch, m, primes):
        # m passes the base-2 power and has no prime below 10^4: 10177 * 20353
        # lies below 10007^3 and the Carmichael number 10177 * 20353 * 30529
        # above it. factorize proves primes, so it splits m; a decomposition
        # keeps m whole, by one isqrt or by the base-2 power, splitting nothing
        assert pow(2, m - 1, m) == 1
        multiples = {1: (1, 1), 2: (2, 1), -5: (-5, 1), 12: (3, 2), 9973**2: (1, 9973)}
        for k in multiples:
            expected = sorted(trial_factorize(abs(k)) + [(p, 1) for p in primes])
            assert list(arith.factorize(abs(k) * m).factors) == expected, k
        monkeypatch.setattr(arith, "_split", _untouchable)
        steps = _watch_cofactor_parts(monkeypatch)
        for k, (s, f) in multiples.items():
            steps.clear()
            assert arith._decompose(k * m) == (arith.SquarefreeDecomposition(k * m, s * m, f), 0), k
            # below 10007^3 the isqrt settles m; above it, the cofactor loop's base-2 power
            assert steps == ([] if m < arith._PAST_TRIAL**3 else [(abs(k) * m, m, False)]), k

    def test_members_equal_their_factorization(self):
        # the fast route against the independent slow one: every member of a
        # seeded sample of construct's grid, n = 3 and n > 3 apart, and of the
        # four (3, k) whose cofactor splits into parts below P^3
        rng = random.Random(33)
        nks = rng.sample(self.CONSTRUCT_NK[:189], 10) + rng.sample(self.CONSTRUCT_NK[189:], 3)
        nks += [(3, 165), (3, 173), (3, 188), (3, 199)]
        for n, k in nks:
            four_n = 4 * (4 * k**n - 1) ** n
            for x in self.XS:
                dec = arith.decompose_member(four_n, x)
                s = f = 1
                for t, e in arith.factorize(four_n - x * x).factors:
                    s *= t ** (e % 2)
                    f *= t ** (e // 2)
                assert (dec.s, dec.f) == (-s, f), (n, k, x)


class TestKronecker:
    def test_examples(self):
        assert arith.kronecker(-4, 3) == -1
        assert arith.kronecker(-4, 5) == 1
        assert arith.kronecker(-23, 2) == 1   # -23 = 1 mod 8

    def test_conventions(self):
        assert arith.kronecker(1, 0) == 1
        assert arith.kronecker(-1, 0) == 1
        assert arith.kronecker(5, 0) == 0
        assert arith.kronecker(-3, -1) == -1
        assert arith.kronecker(3, -1) == 1
        assert arith.kronecker(6, 2) == 0

    def test_euler_criterion_on_odd_primes(self):
        for p in (3, 5, 7, 11, 13, 101, 997):
            for D in range(-50, 51):
                euler = pow(D % p, (p - 1) // 2, p)
                want = 0 if D % p == 0 else (1 if euler == 1 else -1)
                assert arith.kronecker(D, p) == want, (D, p)

    def test_fully_multiplicative_in_n(self):
        table = {}
        for D in range(-100, 101):
            row = [0] * (10**4 + 1)
            for n in range(1, 10**4 + 1):
                row[n] = arith.kronecker(D, n)
            table[D] = row
            for n1 in range(1, 101):
                for n2 in range(1, 101):
                    assert row[n1 * n2] == row[n1] * row[n2], (D, n1, n2)


class TestPrimesUpTo:
    def test_examples(self):
        assert arith.primes_up_to(10) == [2, 3, 5, 7]
        assert arith.primes_up_to(1) == []
        ps = arith.primes_up_to(31)
        assert len(ps) == 11 and ps[-1] == 31

    def test_matches_sieve_oracle(self):
        assert set(arith.primes_up_to(10**5)) == set(sieve_primes(10**5))
        for m in (0, 2, 3, 4, 97, 100):
            assert arith.primes_up_to(m) == sieve_primes(m)


class TestSmallestPrimeFactorTable:
    def test_matches_trial_division(self):
        # a composite reads its smallest prime factor; primes, 0 and 1 read 0
        t = arith.smallest_prime_factor_table(70_000)  # past the 1 << 16 minimum size
        assert len(t) > 70_000 and t[0] == t[1] == 0
        for n in range(2, 70_001):
            p = trial_factorize(n)[0][0]
            assert t[n] == (0 if p == n else p), n

    def test_held_table_survives_growth(self):
        held = arith.smallest_prime_factor_table(100)
        copy = list(held)
        grown = arith.smallest_prime_factor_table(2 * len(held))
        assert len(grown) > 2 * len(held)
        assert list(held) == copy and list(grown[: len(held)]) == copy

    def test_is_an_int32_array(self):
        t = arith.smallest_prime_factor_table(1000)
        assert isinstance(t, array) and t.typecode == "i"

    def test_peak_memory_of_a_build(self, monkeypatch):
        # 4 bytes an entry: 1.2 MB held at 3*10^5; a list of ints peaks near 12 MB
        monkeypatch.setattr(arith, "_spf_table", array("i"))
        tracemalloc.start()
        try:
            t = arith.smallest_prime_factor_table(300_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(t) == 300_001 and t[299_999] == 7 and t[299_993] == 0  # 299 993 is prime
        assert peak < 3 * 10**6, peak


class TestPowMod:
    def test_equals_pow(self):
        rng = np.random.default_rng(11)
        m = rng.integers(2, 2**31, 3000)
        x = rng.integers(0, 2**62, 3000) % m
        e = rng.integers(0, 2**31, 3000)
        e[::7] = 0
        want = [pow(*t) for t in zip(x.tolist(), e.tolist(), m.tolist())]
        assert arith._pow_mod(x, e, m).tolist() == want

    def test_zero_exponents_and_empty_arrays(self):
        x = np.array([0, 1, 5, 2**31 - 2], dtype=np.int64)
        zero = np.zeros_like(x)
        assert arith._pow_mod(x, zero, x + 1).tolist() == [1, 1, 1, 1]
        empty = np.zeros(0, dtype=np.int64)
        assert arith._pow_mod(empty, empty, empty).tolist() == []

    def test_broadcast_as_the_multiplier_uses_it(self):
        # a base per multiplier and prime, one exponent and modulus per prime
        P = np.array(arith.primes_up_to(113)[1:], dtype=np.int64)
        K = np.arange(1, 41, 2, dtype=np.int64)[:, None]
        base = K * 1000003 % P
        assert base.shape == (20, 29)
        got = arith._pow_mod(base, (P - 1) >> 1, P)
        want = [[pow(b, (p - 1) // 2, p) for b, p in zip(row, P.tolist())] for row in base.tolist()]
        assert got.tolist() == want

    def test_every_exponent_length_at_the_largest_modulus(self):
        # each bit length from 1 to 31 as the longest exponent, so that every
        # remainder of the window width starts the loop; x = m - 1 and the
        # random x near m give the largest products
        rng = np.random.default_rng(31)
        m = 2**31 - 1
        for bits in range(1, 32):
            e = np.concatenate([[1 << (bits - 1), (1 << bits) - 1, 0, 1],
                                rng.integers(0, 1 << bits, 60)]).astype(np.int64)
            x = np.concatenate([[m - 1] * 4, rng.integers(m - 2**20, m, 60)]).astype(np.int64)
            got = arith._pow_mod(x, e, np.array(m, dtype=np.int64))
            assert got.dtype == np.int64 and got.shape == (64,), bits
            assert got.tolist() == [pow(a, b, m) for a, b in zip(x.tolist(), e.tolist())], bits

    def test_broadcast_as_the_square_root_search_uses_it(self):
        # _sqrt_mod_split's search: a (k, 8) block of bases, one exponent and
        # modulus per row as a (k, 1) column
        rng = np.random.default_rng(8)
        P = np.array([p for p in arith.primes_up_to(200000) if p % 8 == 1][-300:], dtype=np.int64)
        Pk = P[:, None]
        base = rng.integers(0, 2**31, (len(P), 8)) % Pk
        got = arith._pow_mod(base, Pk >> 1, Pk)
        assert got.dtype == np.int64 and got.shape == (300, 8)
        want = [[pow(b, p >> 1, p) for b in row] for row, p in zip(base.tolist(), P.tolist())]
        assert got.tolist() == want
        # and the exponent the wider operand: one base per row
        got = arith._pow_mod(base[:, :1], np.arange(8, dtype=np.int64) + Pk - 8, Pk)
        assert got.dtype == np.int64 and got.shape == (300, 8)
        assert got.tolist() == [[pow(row[0], p - 8 + j, p) for j in range(8)]
                                for row, p in zip(base.tolist(), P.tolist())]
