import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from iqtuples import arith, classno
from iqtuples.classno import QuadForm, reduce_form
from iqtuples.errors import BudgetError, DomainError

from oracles import brute_reduced_forms, sieve_primes, trial_factorize, trial_is_prime


class TestSqrtModInternals:
    def test_sqrt_mod_prime_power_exhaustive(self):
        # every p^e <= 2500 (2^e for e <= 11), D over four full periods
        for p in (2, 3, 5, 7, 11, 13):
            e, pe = 1, p
            while pe <= 2500:
                roots: dict[int, list[int]] = {}
                for x in range(pe):
                    roots.setdefault(x * x % pe, []).append(x)
                for D in range(-2 * pe, 2 * pe):
                    got = arith.sqrt_mod_prime_power(D, p, e)
                    assert got == roots.get(D % pe, []), (p, e, D)
                e, pe = e + 1, pe * p

    def test_sqrt_mod_2e_sampled(self):
        # the exponents _roots_mod_2a meets at |D| up to about 3e11
        rng = random.Random(5)
        for e in range(9, 21):
            m = 1 << e
            x = np.arange(m, dtype=np.int64)
            squares = x * x % m
            for i in range(40):
                D = rng.randrange(-10**12, 0)
                if i % 2:  # every other D is a square mod 2^e, often an even one
                    y = rng.randrange(1, m) << rng.randrange(e // 2 + 1)
                    D = y * y % m - m * rng.randrange(1, 10**6)
                got = arith.sqrt_mod_prime_power(D, 2, e)
                assert got == sorted(set(got)) and all((r * r - D) % m == 0 for r in got), (e, D)
                if i < 8:
                    assert len(got) == int(np.count_nonzero(squares == D % m)), (e, D)


class TestReduceForm:
    def test_already_reduced(self):
        assert reduce_form(QuadForm(1, 0, 1)) == QuadForm(1, 0, 1)

    def test_reduction(self):
        assert reduce_form(QuadForm(6, 1, 1)) == QuadForm(1, 1, 6)

    def test_distinct_classes_stay_distinct(self):
        # (2, -1, 3) and (2, 1, 3) are inequivalent reduced forms of -23
        # (they are the two non-principal classes), so both are fixed points
        assert reduce_form(QuadForm(2, -1, 3)) == QuadForm(2, -1, 3)
        assert reduce_form(QuadForm(2, 1, 3)) == QuadForm(2, 1, 3)

    def test_boundary_b_equals_a(self):
        assert reduce_form(QuadForm(2, -2, 3)) == QuadForm(2, 2, 3)

    def test_boundary_a_equals_c(self):
        assert reduce_form(QuadForm(3, -1, 3)) == QuadForm(3, 1, 3)

    def test_rejects_nonnegative_discriminant(self):
        with pytest.raises(DomainError):
            reduce_form(QuadForm(1, 5, 1))
        with pytest.raises(DomainError):
            reduce_form(QuadForm(1, 2, 1))  # discriminant 0

    def test_rejects_negative_definite(self):
        with pytest.raises(DomainError):
            reduce_form(QuadForm(-1, 0, -1))

    def test_idempotent_and_discriminant_preserving(self):
        rng = random.Random(11)
        for _ in range(500):
            a = rng.randint(1, 40)
            b = rng.randint(-80, 80)
            cmin = (b * b) // (4 * a) + 1
            c = rng.randint(cmin, cmin + 60)
            f = QuadForm(a, b, c)
            if f.discriminant >= 0:
                continue
            r = reduce_form(f)
            assert r.is_reduced()
            assert r.discriminant == f.discriminant
            assert reduce_form(r) == r


class TestClassNumberForms:
    def test_minus_four(self):
        res = classno.class_number_forms(-4, with_forms=True)
        assert res.h == 1
        assert res.reduced_forms == (QuadForm(1, 0, 1),)

    def test_minus_23(self):
        res = classno.class_number_forms(-23, with_forms=True)
        assert res.h == 3
        assert set(res.reduced_forms) == {
            QuadForm(1, 1, 6), QuadForm(2, 1, 3), QuadForm(2, -1, 3)
        }

    def test_nonfundamental_large(self):
        # -4 * 119164 = -16 * 31^3
        res = classno.class_number_forms(-476656)
        assert res.h == 186
        assert res.h % 3 == 0

    def test_domain_errors(self):
        for D in (0, 4, -6, -9, 3):
            with pytest.raises(DomainError):
                classno.class_number_forms(D)

    def test_forms_list_only_on_request(self):
        assert classno.class_number_forms(-23).reduced_forms is None

    def test_forms_are_reduced_primitive_distinct(self):
        for D in (-23, -47, -400, -2047):
            if D % 4 not in (0, 1):
                continue
            res = classno.class_number_forms(D, with_forms=True)
            assert len(res.reduced_forms) == res.h
            assert len(set(res.reduced_forms)) == res.h
            for f in res.reduced_forms:
                assert f.is_reduced()
                assert f.discriminant == D

    def test_enumeration_completeness_small(self):
        # against a scan with no a-cutoff, every discriminant down to -400
        for aD in range(3, 401):
            D = -aD
            if D % 4 not in (0, 1):
                continue
            res = classno.class_number_forms(D, with_forms=True)
            want = brute_reduced_forms(D)
            assert {(f.a, f.b, f.c) for f in res.reduced_forms} == want, D
            # and the h-only count, from the list of R below SIEVE_FROM
            assert classno.class_number_forms(D).h == len(want), D

    def test_enumeration_completeness_sampled(self):
        rng = random.Random(7)
        pool = [D for D in range(-2000, -400) if D % 4 in (0, 1)]
        for D in rng.sample(pool, 40):
            res = classno.class_number_forms(D, with_forms=True)
            assert {(f.a, f.b, f.c) for f in res.reduced_forms} == brute_reduced_forms(D), D

    def test_nonfundamental_equals_order_formula(self, monkeypatch):
        # h*(f^2 D0) = h(D0) f prod_{p | f} (1 - (D0/p)/p) / (w(D0)/2) (Cox,
        # Primes of the Form x^2 + ny^2, Thm 7.24), h(D0) by Dirichlet, on
        # the list of R, the sieve with the tail pass and the sieve with the
        # tail walked: every non-fundamental D to -12 000 (-40 000 by default,
        # all on the list of R), 40 sampled f^2 D0 to 5*10^10, large primes q with
        # q^2 | D, and D = 7^2 u with u a nonzero square mod 7, which has
        # R(7) = 0 and R(49) = 5
        big = [-3 * 10007**2, -4 * 99991**2, -28 * 10007**2, -108 * 10007**2,
               -(2**12) * 3**4 * 7, -49 * 20_011]
        assert classno._power_counts(-49 * 20_011, 7, 600)[:2] == [(7, 0), (49, 5)]
        rng = random.Random(13)
        sampled = [-rng.choice([3, 4, 7, 8, 20, 23, 31, 47, 104, 5923]) * rng.randint(2, 3000) ** 2
                   for _ in range(40)]
        dirichlet: dict[int, int] = {}

        def order_h(D):
            sf = arith.squarefree_decompose(D)
            D0, f = (sf.s, sf.f) if sf.s % 4 == 1 else (4 * sf.s, sf.f // 2)
            if D0 not in dirichlet:
                dirichlet[D0] = classno.class_number_dirichlet(D0).h
            h = dirichlet[D0] * f
            for q, _ in trial_factorize(f):
                h = h * (q - arith.kronecker(D0, q)) // q
            return h // {-3: 3, -4: 2}.get(D0, 1)

        small = [D for D in range(-3, -40_001, -1)
                 if D % 4 in (0, 1) and not classno.is_fundamental_discriminant(D)]
        for sieve_from, tail_pass_from, upto in ((classno.SIEVE_FROM, classno.TAIL_PASS_FROM, 40_000),
                                                 (0, 0, 12_000), (0, 10**9, 12_000)):
            monkeypatch.setattr(classno, "SIEVE_FROM", sieve_from)
            monkeypatch.setattr(classno, "TAIL_PASS_FROM", tail_pass_from)
            classno._h_memo.clear()
            for D in [D for D in small if -D <= upto] + big + sampled:
                assert classno.class_number_forms(D).h == order_h(D), (D, sieve_from, tail_pass_from)

    def test_with_forms_reads_no_local_rule(self, monkeypatch):
        # the listing walks every root and tests gcd(a, b, c) itself, so it
        # stays an independent check on _primitive_roots
        def refuse(*args):
            raise AssertionError("_primitive_roots called")

        monkeypatch.setattr(classno, "_primitive_roots", refuse)
        for D in (-23, -4 * 9 * 7, -49 * 20_011, -(2**12) * 3**4 * 7):
            forms = classno.class_number_forms(D, with_forms=True).reduced_forms
            assert all(f.is_reduced() for f in forms), D
        with pytest.raises(AssertionError, match="_primitive_roots called"):
            classno.class_number_forms(-49 * 20_011)


class TestFormCountMemo:
    def test_remembered_equals_fresh(self, caplog):
        for D in (-23, -476656, -4 * 10**9 + 1, -100003 * 4):
            first = classno.class_number_forms(D)
            assert classno._h_memo[D] == first.h
            with caplog.at_level("INFO", logger="iqtuples"):
                caplog.clear()
                again = classno.class_number_forms(D)
            assert again == first
            assert [r.getMessage() for r in caplog.records] == [
                f"form count {D}: h = {first.h}, counted earlier in this process"]
            classno._h_memo.clear()
            assert classno.class_number_forms(D) == first

    def test_with_forms_is_not_remembered(self):
        assert classno.class_number_forms(-23).reduced_forms is None
        res = classno.class_number_forms(-23, with_forms=True)
        assert set(res.reduced_forms) == {QuadForm(1, 1, 6), QuadForm(2, 1, 3), QuadForm(2, -1, 3)}
        assert list(classno._h_memo) == [-23]
        classno._h_memo.clear()
        classno.class_number_forms(-47, with_forms=True)
        assert not classno._h_memo

    def test_dirichlet_is_not_remembered(self):
        assert classno.class_number_dirichlet(-23).h == 3
        assert not classno._h_memo

    def test_sf_budget_is_checked_before_the_memo(self):
        D = -4 * (10**6 + 1)  # the largest |D| that sf_budget = 10^6 + 1 allows
        h = classno.class_number_forms(D).h
        with arith.limits(sf_budget=10**6 + 1):
            assert classno.class_number_forms(D).h == h
        with arith.limits(sf_budget=10**6):
            with pytest.raises(BudgetError, match="exceeds 4 \\* sf_budget = 4000000$"):
                classno.class_number_forms(D)
            with pytest.raises(BudgetError):
                classno.class_number_forms(D, with_forms=True)

    def test_size_bound(self, monkeypatch):
        monkeypatch.setattr(arith, "MEMO_SIZE", 2)
        for D in (-3, -4, -7, -8, -11):
            classno.class_number_forms(D)
            assert len(classno._h_memo) <= 2
        assert list(classno._h_memo) == [-8, -11]


def _walk_h(D):
    return len(classno.class_number_forms(D, with_forms=True).reduced_forms)


class TestSieve:
    def test_equals_walk_to_3e4(self, monkeypatch):
        # every D, so -3, -4 and non-fundamental D such as -4*9*7 among them;
        # the sieve and the numpy tail pass at every size
        monkeypatch.setattr(classno, "SIEVE_FROM", 0)
        monkeypatch.setattr(classno, "TAIL_PASS_FROM", 0)
        for D in range(-3, -30_001, -1):
            if D % 4 in (0, 1):
                assert classno.class_number_forms(D).h == _walk_h(D), D

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 10).flatmap(lambda k: st.integers(1, 10**k // 4)),
           st.sampled_from(["D", "-4d", "square"]), st.integers(2, 60))
    def test_equals_walk_sampled(self, monkeypatch, n, kind, f):
        # |D| log-uniform up to 1e10; -4d with d = 3 (mod 4) is what thm31 counts
        if kind == "D":
            D = -n if -n % 4 in (0, 1) else -4 * n
        elif kind == "-4d":
            D = -4 * (4 * (n // 4) + 3)
        else:  # a square cofactor f^2 over a discriminant
            d = max(3, n // (f * f))
            D = (-d if -d % 4 in (0, 1) else -4 * d) * f * f
        with monkeypatch.context() as m:
            m.setattr(classno, "SIEVE_FROM", 0)  # the sieve at every size
            assert classno.class_number_forms(D).h == _walk_h(D), D

    def test_root_counts_brute(self):
        square_heavy = -4 * 30030**2  # large R(a) at a with many small primes
        # 7^2 u and 5^2 u with u a nonzero square mod p: R(p) = 0, R(p^2) > 0;
        # 3 * 101^2: a prime above the split at 4 * sqrt(300) with its square in D
        for D in (-3, -4, -252, -112, -2**12 * 3**4 * 7, -1023, square_heavy, -4 * 10**9 + 1,
                  -49 * 3, -25 * 11, -3 * 101**2):
            R = classno._root_counts(D, 300)
            roots = [[b for b in range(2 * a) if (b * b - D) % (4 * a) == 0]
                     for a in range(1, 301)]
            primitive = [sum(gcd(gcd(a, b), (b * b - D) // (4 * a)) == 1 for b in rs)
                         for a, rs in enumerate(roots, 1)]
            assert R.tolist() == [0] + primitive, D
            spf, cache = arith.smallest_prime_factor_table(300), {}
            for a, want in enumerate(roots, 1):  # every root, primitive or not
                assert sorted(classno._roots_mod_2a(D, a, spf, cache)) == want, (D, a)

    def test_power_counts_stop_only_where_nothing_follows(self):
        # the counts end at the first zero at a p^e not dividing D; the
        # counts past it, to p^14, are all zero
        for p in (2, 3, 5, 7):
            for D in range(-3, -3001, -1):
                if D % 4 not in (0, 1):
                    continue
                got = classno._power_counts(D, p, p**14)
                want = [(p**e, len(classno._primitive_roots(D, p, e))) for e in range(1, 15)]
                assert got == want[: len(got)] and not any(n for _, n in want[len(got) :]), (p, D)
        assert classno._power_counts(-49 * 3, 7, 7**4) == [(7, 0), (49, 5), (343, 12), (2401, 12)]
        assert classno._power_counts(-7 * 43, 7, 7**4) == [(7, 1), (49, 0)]
        assert classno._power_counts(-4 * 43 + 1, 2, 2**4) == [(2, 0)]  # D = 5 (mod 8)

    def test_tail_walks_only_a_with_roots(self, monkeypatch):
        D = -4 * 10**9 + 1
        walked = []
        roots_mod_2a = classno._roots_mod_2a

        def recording(D, a, spf, cache):
            walked.append(a)
            return roots_mod_2a(D, a, spf, cache)

        with monkeypatch.context() as m:
            m.setattr(classno, "_roots_mod_2a", recording)
            m.setattr(classno, "TAIL_PASS_FROM", 10**9)  # the walk, whatever the tail
            h = classno.class_number_forms(D).h
        a_max, M = isqrt(-D // 3), isqrt((-D - 1) // 4)
        spf = arith.smallest_prime_factor_table(a_max)
        assert walked and all(M < a <= a_max and roots_mod_2a(D, a, spf, {}) for a in walked)
        assert len(walked) < (a_max - M) // 2
        assert h == _walk_h(D)


class TestRootList:
    def test_equals_root_counts_to_1e4(self):
        for D in range(-3, -10_001, -1):
            if D % 4 in (0, 1):
                a_max = isqrt(-D // 3)
                assert classno._root_list(D, a_max) == classno._root_counts(D, a_max).tolist(), D

    def test_equals_root_counts_sampled(self):
        # |D| log-uniform up to 4 * SIEVE_FROM, and D with p^2 | D, 2^v | D and
        # D = 49u with u a nonzero square mod 7 (R(7) = 0, R(49) = 5)
        rng = random.Random(18)
        top = 4 * classno.SIEVE_FROM
        Ds = [-rng.randrange(10**4, int(10 ** rng.uniform(4.1, np.log10(top)))) for _ in range(300)]
        Ds = [D if D % 4 in (0, 1) else 4 * (D // 4) for D in Ds]
        for p in (3, 5, 7, 11, 13, 29, 97, 401):
            D = -3 * p * p * rng.randrange(1, top // (12 * p * p))
            Ds.append(D if D % 4 in (0, 1) else 4 * D)
        Ds += [-(2**v) * rng.randrange(1, top >> v) for v in range(2, 22)]
        Ds += [49 * u for u in (-3, -20_011) + tuple(range(-(top // 49), -(top // 49) + 28))
               if u % 7 in (1, 2, 4) and u % 4 in (0, 1)]
        assert sum(D % 49 == 0 and D // 49 % 7 in (1, 2, 4) for D in Ds) >= 5
        for D in Ds:
            assert D % 4 in (0, 1) and -top <= D < 0, D
            a_max = isqrt(-D // 3)
            assert classno._root_list(D, a_max) == classno._root_counts(D, a_max).tolist(), D

    def test_tails_below_sieve_from_are_walked(self):
        # a tail holds at most a_max - M a, which grows as 0.077 sqrt|D|
        longest = max(isqrt(n // 3) - isqrt((n - 1) // 4)
                      for n in range(classno.SIEVE_FROM - 10**4, classno.SIEVE_FROM))
        assert longest < classno.TAIL_PASS_FROM

    def test_counts_equal_the_walk_across_sieve_from(self, monkeypatch):
        # below SIEVE_FROM the walk is given the tail alone, the a > M with R(a) > 0
        rng = random.Random(19)
        walk, given = classno._walk, []
        monkeypatch.setattr(classno, "_walk", lambda D, a_values, a_max: given.append(
            (D, list(a_values))) or walk(D, a_values, a_max))
        Ds = [-rng.randrange(classno.SIEVE_FROM // 2, 2 * classno.SIEVE_FROM) for _ in range(40)]
        Ds += [-classno.SIEVE_FROM - k for k in range(-4, 4)]
        for D in [D if D % 4 in (0, 1) else 4 * (D // 4) for D in Ds]:
            given.clear()
            h = classno._reduced_count(D)
            a_max, M = isqrt(-D // 3), isqrt((-D - 1) // 4)
            if -D < classno.SIEVE_FROM:
                R = classno._root_list(D, a_max)
                assert given == [(D, [a for a in range(M + 1, a_max + 1) if R[a]])], D
            assert h == len(list(walk(D, range(1, a_max + 1), a_max))), D


class TestHeldSieve:
    def test_views_arith_table(self, monkeypatch):
        # from an empty table, across the growth past 2^16 and to 3*10^5
        monkeypatch.setattr(arith, "_spf_table", array("i"))
        for m in list(range(101)) + [2**16 - 1, 2**16, 70_000, 300_000]:
            spf, primes = classno._sieve(m)
            assert len(spf) > m and spf.dtype == np.int32 and primes.dtype == np.int64
            assert np.shares_memory(spf, arith.smallest_prime_factor_table(m)), m
            assert primes.tolist() == arith.primes_up_to(m), m

    def test_primes_are_read_once_per_table(self, monkeypatch):
        monkeypatch.setattr(arith, "_spf_table", array("i"))
        held = classno._sieve(100)[1].base
        assert held is not None and classno._sieve(60_000)[1].base is held
        grown = classno._sieve(2**16)[1].base
        assert grown is not held and classno._sieve(1000)[1].base is grown

    def test_held_arrays_survive_growth(self, monkeypatch):
        monkeypatch.setattr(arith, "_spf_table", array("i"))
        spf, primes = classno._sieve(100)
        copies = spf.copy(), primes.copy()
        grown, more = classno._sieve(2 * len(spf))
        assert len(grown) > 2 * len(spf)
        assert (spf == copies[0]).all() and (primes == copies[1]).all()
        assert (grown[: len(spf)] == spf).all() and (more[: len(primes)] == primes).all()

    def test_count_after_the_table_grows(self, monkeypatch):
        # the first count reads the primes off a table of 2^16; the second
        # grows it to 2^17, so the primes are read again, off the new table
        monkeypatch.setattr(arith, "_spf_table", array("i"))
        first, second = -4 * 10**9 + 1, -4 * 10**10
        h = classno.class_number_forms(first).h
        held = classno._sieve(0)[1].base
        assert len(arith.smallest_prime_factor_table(0)) == 2**16
        assert classno.class_number_forms(second).h == _walk_h(second)
        assert len(arith.smallest_prime_factor_table(0)) == 2**17
        assert classno._sieve(0)[1].base is not held
        assert h == _walk_h(first)


def _tail(D):
    a_max, M = isqrt(-D // 3), isqrt((-D - 1) // 4)
    R = classno._root_counts(D, a_max)
    return np.flatnonzero(R[M + 1 :]) + (M + 1), a_max


class TestTailPass:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(27, 41).flatmap(lambda k: st.integers(2**k, 2 ** (k + 1))),
           st.sampled_from(["D", "-4d", "square", "two"]), st.integers(2, 400), st.integers(3, 24))
    def test_equals_walk_sampled(self, n, kind, f, v):
        # |D| log-uniform from 1.3e8, where most tails pass the cut, to 4e12
        n = min(n, 10**12)
        if kind == "D":
            D = -n if -n % 4 in (0, 1) else -4 * n
        elif kind == "-4d":  # what thm31 counts
            D = -4 * (4 * (n // 4) + 3)
        elif kind == "square":  # p^2 | D for the primes p of f
            d = max(3, n // (f * f))
            D = (-d if -d % 4 in (0, 1) else -4 * d) * f * f
        else:  # 2^v | D
            D = -(2**v) * max(1, n >> v)
        tail, a_max = _tail(D)
        want = sum(1 for _ in classno._walk(D, tail.tolist(), a_max))
        assert classno._tail_count(D, tail) == want, D

    def test_equals_walk_on_prime_powers(self):
        # tails whose a hold odd prime powers and high powers of 2, with p | D,
        # p^2 | D and 2^v | D for many v, and one tail of a single a
        for D in (-4 * 30030**2, -(3**4) * (5**2) * 7 * 11 * 13 * 4 * 10**3, -(2**23) * 3 * 5 * 7,
                  -(2**30) * 17, -4 * 10**9 - 3 * 4, -3, -4):
            tail, a_max = _tail(D)
            want = sum(1 for _ in classno._walk(D, tail.tolist(), a_max))
            assert classno._tail_count(D, tail) == want, D
        tail, _ = _tail(-4 * 30030**2)
        assert any(a % 9 == 0 and a % 27 for a in tail.tolist())  # 9 exactly divides a

    def test_paired_roots_against_the_walk(self):
        # ambiguous forms with c = a whose a has a split prime (all of them in
        # 1 - 4 * 15015^2), a whose odd primes all divide D, and a = 2^v * p
        # with p split; the pass over the whole tail against the walk
        seen = {"c = a, split p | a": 0, "odd primes | D": 0, "2^v * p": 0}
        odd_primorial = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
        for D in (1 - 4 * 15015**2, -odd_primorial * 29, -4 * odd_primorial):
            tail, a_max = _tail(D)
            forms = list(classno._walk(D, tail.tolist(), a_max))
            assert classno._tail_count(D, tail) == len(forms), D
            for a in tail.tolist():
                u = a >> (a & -a).bit_length() - 1
                odd = [p for p, _ in trial_factorize(u)] if u > 1 else []
                seen["odd primes | D"] += bool(odd) and all(D % p == 0 for p in odd)
                seen["2^v * p"] += a % 2 == 0 and odd == [u] and D % u != 0
            seen["c = a, split p | a"] += sum(
                c == a and any(D % p for p, _ in trial_factorize(a) if p > 2) for a, _, c in forms)
        assert all(seen.values()), seen

    def test_count_at_3e11(self, monkeypatch):
        # as the pass counted it with both roots of every split prime expanded
        monkeypatch.setattr(classno, "TAIL_PASS_FROM", 1)
        assert classno._reduced_count(-299999999999) == 795920

    def test_inverse_mod_2k(self):
        rng = np.random.default_rng(3)
        for k in range(1, 33):
            u = np.concatenate([np.arange(1, 200, 2), rng.integers(0, 2**31, 500) | 1])
            mask = np.full_like(u, (1 << k) - 1)
            mask[::2] = 1  # and a smaller modulus beside it
            w = classno._inverse_mod_2k(u, mask)
            assert (u * w & mask == 1 & mask).all() and (w <= mask).all(), k

    def test_sqrt_mod_split(self):
        # p = 3 (mod 4) by one power, 5 (mod 8) by Atkin's formula, 1 (mod 8) by Cipolla
        primes = np.array(arith.primes_up_to(5000)[1:], dtype=np.int64)
        seen = set()
        for D in (-4, -3, -23, -4 * 10**9 - 12, -4 * 10**12 + 1):
            split = primes[[arith.kronecker(D, p) == 1 for p in primes.tolist()]]
            s = classno._sqrt_mod_split(D % split, split)
            assert ((s * s - D) % split == 0).all(), D
            seen |= set((split % 8).tolist())
        assert seen == {1, 3, 5, 7}

    def test_imports_no_masked_arrays(self):
        # np.unique imports numpy.ma on its first call, 7-17 ms that a one-shot
        # count would pay for nothing
        script = ("import sys\nfrom iqtuples import classno\n"
                  "passes, count = [], classno._tail_count\n"
                  "classno._tail_count = lambda *args: passes.append(1) or count(*args)\n"
                  "assert classno.class_number_forms(-40000000003).h == 29199\n"
                  "assert passes and 'numpy' in sys.modules and 'numpy.ma' not in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(classno.__file__)))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_tail_pass_from_the_cut(self, monkeypatch, caplog):
        # from the cut up the pass runs and walks nothing; both log alike
        D = -4 * 10**9 + 1
        tail, _ = _tail(D)
        assert len(tail) >= classno.TAIL_PASS_FROM
        walk, runs = classno._walk, []
        for cut in (len(tail), len(tail) + 1):  # the pass, then the walk
            walked = []
            monkeypatch.setattr(classno, "TAIL_PASS_FROM", cut)
            monkeypatch.setattr(classno, "_walk", lambda *args: walked.append(1) or walk(*args))
            with caplog.at_level("INFO", logger="iqtuples"):
                caplog.clear()
                count = classno._reduced_count(D)
            runs.append((count, [r.getMessage() for r in caplog.records], bool(walked)))
        (c0, log0, walked0), (c1, log1, walked1) = runs
        assert (c0, log0) == (c1, log1) and not walked0 and walked1
        assert log0[-1].startswith(f"form count {D}: walked {len(tail)} of a = ")


class TestDirichlet:
    def test_small_fundamental(self):
        assert classno.class_number_dirichlet(-3).h == 1
        assert classno.class_number_dirichlet(-4).h == 1
        assert classno.class_number_dirichlet(-23).h == 3

    def test_character_sum_for_minus_23(self):
        from iqtuples.arith import kronecker
        S = sum(a * kronecker(-23, a) for a in range(1, 23))
        assert abs(S) == 69
        assert 2 * 69 // (2 * 23) == 3

    def test_rejects_nonfundamental(self):
        for D in (-12, -9, -16, -27, -100):
            with pytest.raises(DomainError):
                classno.class_number_dirichlet(D)

    def test_rejects_above_limit(self):
        with pytest.raises(DomainError):
            classno.class_number_dirichlet(-(10**6) - 7)  # fundamental but too big

    def test_agrees_with_forms_on_small_range(self):
        for D in range(-3, -5000, -1):
            if classno.is_fundamental_discriminant(D):
                assert classno.class_number_dirichlet(D).h == classno.class_number_forms(D).h, D

    def test_rejects_exactly_the_nonfundamental(self):
        for D in list(range(-1, -3000, -1)) + [0, 1, 5, 8, 12, -(10**6) - 16]:
            if classno.is_fundamental_discriminant(D):
                assert classno.class_number_dirichlet(D).h >= 1, D
            else:
                with pytest.raises(DomainError, match="not a negative fundamental"):
                    classno.class_number_dirichlet(D)

    def test_agrees_with_forms_near_limit_per_2_part(self):
        # the largest fundamental |D| <= 10^6 whose 2-part prime discriminant
        # is 1 (odd D), -4, 8 and -8
        largest: dict[int, int] = {}
        D = -(10**6)
        while len(largest) < 4:
            if classno.is_fundamental_discriminant(D):
                two = 1 if D % 4 == 1 else -4 if D % 16 == 12 else 8 if D // 8 % 4 == 1 else -8
                largest.setdefault(two, D)
            D += 1
        assert largest == {1: -999995, -4: -999988, -8: -999976, 8: -999960}
        for D in largest.values():
            assert classno.class_number_dirichlet(D).h == classno.class_number_forms(D).h, D

    def test_agrees_with_forms_on_many_primes_and_on_a_long_period(self):
        # -255255 = -3*5*7*11*13*17 has the most odd prime factors under the
        # limit; for the prime 999983 the table is longer than |D|/2 + 1
        for D in (-255255, -999983):
            assert classno.is_fundamental_discriminant(D)
            assert classno.class_number_dirichlet(D).h == classno.class_number_forms(D).h, D

    def test_legendre_table_is_eulers_criterion(self):
        # every odd prime below 2000, and the largest primes below 10^5 and 10^6
        assert not any(trial_is_prime(n) for n in range(99992, 10**5))
        assert not any(trial_is_prime(n) for n in range(999984, 10**6))
        for p in sieve_primes(2000)[1:] + [99991, 999983]:
            assert trial_is_prime(p)
            euler = [pow(r, (p - 1) // 2, p) for r in range(p)]
            table = classno._legendre_table(p)
            assert table.dtype == np.int8
            assert table.tolist() == [e if e < 2 else e - p for e in euler], p

    def test_legendre_table_across_block_boundaries(self):
        # p // 2 + 1 = 2^16: the squares of i = 1..p // 2 end one short of the
        # fourth block boundary, and the next prime's spill past it
        after = next(n for n in range(131073, 10**6, 2) if trial_is_prime(n))
        assert trial_is_prime(131071) and (131071 // 2 + 1) % classno._LEGENDRE_BLOCK == 0
        assert after // 2 + 1 > 2**16
        for p in (131071, after):
            euler = [pow(r, (p - 1) // 2, p) for r in range(p)]
            assert classno._legendre_table(p).tolist() == [e if e < 2 else e - p for e in euler], p

    def test_legendre_table_peak_memory(self):
        # the 1 MB table and two int64 blocks; two buffers of p / 2 entries took 8 MB
        classno._legendre_table(999983)  # numpy's first-use allocations, outside the count
        tracemalloc.start()
        try:
            table = classno._legendre_table(999983)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.nbytes == 999983 and peak < 4 * 10**6, peak

    def test_agrees_with_forms_on_a_seeded_sample_per_2_part(self):
        # 20 fundamental D in [-10^6, -10^5) for each 2-part prime discriminant
        # (1, -4, 8, -8), the odd ones other than -p, and 20 D = -p, p prime
        rng = random.Random(14)
        kinds: dict[str, list[int]] = {kind: [] for kind in ("1", "-4", "8", "-8", "-p")}
        while any(len(Ds) < 20 for Ds in kinds.values()):
            D = -rng.randrange(10**5 + 1, 10**6 + 1)
            if not classno.is_fundamental_discriminant(D):
                continue
            if D % 4 == 1:
                kind = "-p" if trial_is_prime(-D) else "1"
            else:
                kind = "-4" if D % 16 == 12 else "8" if D // 8 % 4 == 1 else "-8"
            if len(kinds[kind]) < 20:
                kinds[kind].append(D)
        for Ds in kinds.values():
            for D in Ds:
                assert classno.class_number_dirichlet(D).h == classno.class_number_forms(D).h, D

    def test_peak_memory_does_not_grow_with_d(self):
        # |D| = 999983 is prime: the squares mod |D| are counted 2^14 at a time,
        # and no table of |D| entries is built (a table and |D|/2 + 1 character
        # values took 2 MB). -994840 = -8 * 5 * 7 * 11 * 17 * 19 has the longest
        # chi1 under the limit, m1 + Q0 = 78539 entries for q = 19
        for D, h in ((-999983, 1171), (-994840, 256)):
            classno.class_number_dirichlet(D)  # numpy's first-use allocations, outside the count
            tracemalloc.start()
            try:
                got = classno.class_number_dirichlet(D).h
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == h and peak < 10**6, (D, peak)

    def test_square_blocks_on_and_past_a_block_boundary(self):
        # q = 65537 has (q - 1)/2 = 2 blocks of squares exactly, q = 65539 one
        # square more; both as the largest prime of D, and 65539 on its own
        assert 65537 // 2 == 2 * classno._LEGENDRE_BLOCK
        for q in (65537, 65539):
            assert trial_is_prime(q)
            blocks = list(classno._square_blocks(q))
            assert [len(b) for b in blocks[:2]] == [classno._LEGENDRE_BLOCK] * 2
            squares = np.concatenate(blocks).tolist()
            assert squares == [i * i % q for i in range(1, q // 2 + 1)], q
            assert len(set(squares)) == q // 2, q
        for D, h in ((-3 * 65537, 138), (-8 * 65537, 224), (-65539, 57)):
            assert classno.is_fundamental_discriminant(D)
            assert classno.class_number_dirichlet(D).h == h == classno.class_number_forms(D).h, D

    def test_fill_periodic(self):
        table = np.array([0, 1, -1, -1, 1], dtype=np.int8)
        for L in (3, 5, 6, 19, 20, 21, 40, 41, 1):
            out = np.empty(L, dtype=np.int8)
            classno._fill_periodic(out, table)
            assert out.tolist() == [int(table[a % 5]) for a in range(L)], L


class TestFieldClassNumber:
    def test_examples(self):
        assert classno.field_class_number(-1).h == 1
        assert classno.field_class_number(-31).h == 3
        res = classno.field_class_number(-31, with_forms=True)
        assert set(res.reduced_forms) == {
            QuadForm(1, 1, 8), QuadForm(2, 1, 4), QuadForm(2, -1, 4)
        }

    def test_bridge_at_2_mod_4(self):
        res = classno.field_class_number(-6)
        assert res.h == 2
        assert res.h == classno.class_number_forms(-24).h
        assert res.discriminant == -24

    def test_rejects_non_squarefree(self):
        with pytest.raises(DomainError):
            classno.field_class_number(-12)

    def test_rejects_positive(self):
        with pytest.raises(DomainError):
            classno.field_class_number(5)

    def test_field_equals_form_count_for_2_mod_4(self):
        # h(-d) = h*(-4d) whenever d > 0 square-free with d = 2 (mod 4)
        from iqtuples.arith import squarefree_decompose
        for d in range(2, 10**4 + 1, 4):
            if squarefree_decompose(d).f != 1:
                continue
            assert classno.field_class_number(-d).h == classno.class_number_forms(-4 * d).h, d


class TestFundamentalDiscriminant:
    def test_examples(self):
        assert classno.fundamental_discriminant(-3) == -3
        assert classno.fundamental_discriminant(-6) == -24
        assert classno.fundamental_discriminant(-31) == -31

    def test_positive_side(self):
        assert classno.fundamental_discriminant(5) == 5
        assert classno.fundamental_discriminant(2) == 8

    def test_rejects(self):
        for d in (0, 1, -12, 8):
            with pytest.raises(DomainError):
                classno.fundamental_discriminant(d)
