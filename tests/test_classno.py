import random
from math import isqrt

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from iqtuples import arith, classno
from iqtuples.classno import QuadForm, reduce_form
from iqtuples.errors import DomainError

from oracles import brute_reduced_forms, trial_factorize


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
                    got = classno._sqrt_mod_prime_power(D, p, e)
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
                got = classno._sqrt_mod_prime_power(D, 2, e)
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
            # below SIEVE_FROM the h-only count walks every a too
            assert classno.class_number_forms(D).h == len(want), D

    def test_enumeration_completeness_sampled(self):
        rng = random.Random(7)
        pool = [D for D in range(-2000, -400) if D % 4 in (0, 1)]
        for D in rng.sample(pool, 40):
            res = classno.class_number_forms(D, with_forms=True)
            assert {(f.a, f.b, f.c) for f in res.reduced_forms} == brute_reduced_forms(D), D

    def test_nonfundamental_below_sieve_from(self):
        # one walk keeps the primitive forms; the Moebius sum over walked
        # counts of every content is the independent check
        assert classno.SIEVE_FROM >= 40_000
        counts = {}
        for D in range(-3, -40_001, -1):
            if D % 4 not in (0, 1) or classno.is_fundamental_discriminant(D):
                continue
            h = classno.class_number_forms(D).h
            assert h == len(classno.class_number_forms(D, with_forms=True).reduced_forms), D
            terms = classno._moebius_terms(D)
            assert len(terms) > 1, D
            for g, _ in terms:
                if D // (g * g) not in counts:
                    counts[D // (g * g)] = classno._reduced_count(D // (g * g))
            assert h == sum(mu * counts[D // (g * g)] for g, mu in terms), D


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
        # every D, so -3, -4 and non-fundamental D such as -4*9*7 among them
        monkeypatch.setattr(classno, "SIEVE_FROM", 0)
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
        for D in (-3, -4, -252, -112, -2**12 * 3**4 * 7, -1023, square_heavy, -4 * 10**9 + 1):
            R = classno._root_counts(D, 300)
            roots = [[b for b in range(2 * a) if (b * b - D) % (4 * a) == 0]
                     for a in range(1, 301)]
            assert R.tolist() == [0] + [len(rs) for rs in roots], D
            spf, cache = arith.smallest_prime_factor_table(300), {}
            for a, want in enumerate(roots, 1):
                got = classno._roots_mod_2a(D, a, spf, cache)
                assert sorted(got) == want and len(got) == R[a], (D, a)

    def test_moebius_terms_brute(self):
        # q^2 | D for a prime q above the cube root of |D| is found too
        big = [-3 * 10007**2, -4 * 99991**2, -28 * 10007**2, -3 * 4 * 9 * 10007**2, -(2**12) * 3**4 * 7]
        for D in big + list(range(-3, -2001, -1)):
            if D % 4 not in (0, 1):
                continue
            want = []
            for g in range(1, isqrt(-D) + 1):
                if -D % (g * g) or (D // (g * g)) % 4 not in (0, 1):
                    continue
                fs = trial_factorize(g)
                if all(e == 1 for _, e in fs):
                    want.append((g, (-1) ** len(fs)))
            assert sorted(classno._moebius_terms(D)) == want, D

    def test_tail_walks_only_a_with_roots(self, monkeypatch):
        D = -4 * 10**9 + 1
        walked = []
        roots_mod_2a = classno._roots_mod_2a

        def recording(D, a, spf, cache):
            walked.append(a)
            return roots_mod_2a(D, a, spf, cache)

        with monkeypatch.context() as m:
            m.setattr(classno, "_roots_mod_2a", recording)
            h = classno.class_number_forms(D).h
        a_max, M = isqrt(-D // 3), isqrt((-D - 1) // 4)
        spf = arith.smallest_prime_factor_table(a_max)
        assert walked and all(M < a <= a_max and roots_mod_2a(D, a, spf, {}) for a in walked)
        assert len(walked) < (a_max - M) // 2
        assert h == _walk_h(D)


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
