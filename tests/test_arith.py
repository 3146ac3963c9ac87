import random

import pytest

from iqtuples import arith, families
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

    def test_huge_cofactor_fails_before_trial_division(self, monkeypatch):
        class Untouchable:
            def __iter__(self):
                raise AssertionError("trial division ran")

        m = 2**5 * 3 * 9973**2 * (10**30 + 57)  # 10^30 + 57 has no factor below 10^4
        monkeypatch.setattr(arith, "_TRIAL_PRIMES", Untouchable())
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


class TestFactorizeMemo:
    def test_hit_never_beats_a_smaller_budget(self):
        # test_budget_error_is_raised in the other order: remembered first
        n = 99991 * 99989
        assert arith.factorize(n).factors == ((99989, 1), (99991, 1))
        assert n in arith._rho_memo
        with pytest.raises(BudgetError), arith.limits(rho_budget=1):
            arith.factorize(n)
        spent = arith._rho_memo[n][1]
        with pytest.raises(BudgetError), arith.limits(rho_budget=spent - 1):
            arith.factorize(n)
        with arith.limits(rho_budget=spent):  # exactly the iterations it took
            assert arith.factorize(n) is arith._rho_memo[n][0]

    def test_tuple_built_twice_still_obeys_the_budget(self):
        families.quintuple(7, 2)
        assert arith._rho_memo
        with pytest.raises(BudgetError), arith.limits(rho_budget=1):
            families.quintuple(7, 2)

    def test_only_what_rho_split_is_remembered(self):
        # trial division finishes these, or leaves a prime cofactor past 10^8
        for m in (12, 119164, 14891, 2**90 * 1000003, 9973 * 9967, 6 * 1000000007):
            arith.factorize(m)
        assert not arith._rho_memo

    def test_size_bound_drops_the_oldest(self, monkeypatch):
        monkeypatch.setattr(arith, "MEMO_SIZE", 3)
        ms = [p * q for p, q in ((10007, 10009), (10037, 10039), (10061, 10067),
                                 (10069, 10079), (10091, 10093))]
        for m in ms:
            arith.factorize(m)
            assert len(arith._rho_memo) <= 3
        assert list(arith._rho_memo) == ms[2:]
        assert arith.factorize(ms[0]).factors == ((10007, 1), (10009, 1))
        assert list(arith._rho_memo) == ms[3:] + ms[:1]


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

    def test_s_is_squarefree_by_refactoring(self):
        rng = random.Random(2024)
        for m in rng.sample(range(2, 10**6), 10**4):
            s = arith.squarefree_decompose(m).s
            assert all(e == 1 for _, e in trial_factorize(abs(s))), m


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
        t = arith.smallest_prime_factor_table(70_000)  # past the 1 << 16 minimum size
        assert len(t) > 70_000
        for n in range(2, 70_001):
            assert t[n] == trial_factorize(n)[0][0], n

    def test_held_table_survives_growth(self):
        held = arith.smallest_prime_factor_table(100)
        copy = list(held)
        grown = arith.smallest_prime_factor_table(2 * len(held))
        assert len(grown) > 2 * len(held)
        assert held == copy and grown[: len(held)] == copy
