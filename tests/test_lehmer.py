import random

import pytest

from iqtuples import lehmer
from iqtuples.errors import DomainError
from iqtuples.lehmer import LehmerParams

from oracles import lehmer_primitive_part, lehmer_symbolic, valid_lehmer_pairs

# finite table of defective parameter pairs at odd indices 7..29
TABLE = {
    7: [(1, -7), (1, -19), (3, -5), (5, -7), (13, -3), (14, -22)],
    9: [(5, -3), (7, -1), (7, -5)],
    13: [(1, -7)],
    15: [(7, -1), (10, -2)],
}


class TestSequences:
    def test_fibonacci_seeds(self):
        assert lehmer.fibonacci(0) == 0
        assert lehmer.fibonacci(1) == 1
        assert lehmer.fibonacci(10) == 55

    def test_lucas_seeds(self):
        assert lehmer.lucas(0) == 2
        assert lehmer.lucas(1) == 1
        assert [lehmer.lucas(k) for k in range(2, 6)] == [3, 4, 7, 11]

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            lehmer.fibonacci(-1)
        with pytest.raises(DomainError):
            lehmer.lucas(-2)


class TestParams:
    def test_q_is_alpha_beta(self):
        assert LehmerParams(1, -7).q == 2
        assert LehmerParams(14, -22).q == 9

    def test_rejects_zero_and_equal(self):
        for a, b in ((0, 4), (4, 0), (3, 3)):
            with pytest.raises(DomainError):
                LehmerParams(a, b)

    def test_rejects_bad_mod4(self):
        with pytest.raises(DomainError):
            LehmerParams(1, -2)

    def test_rejects_non_coprime(self):
        # q = (6 - (-6)) / 4 = 3 shares a factor with a = 6
        with pytest.raises(DomainError):
            LehmerParams(6, -6)

    def test_rejects_degenerate_root_of_unity(self):
        # (1, -3): alpha/beta is a sixth root of unity, L_3 = 0
        with pytest.raises(DomainError):
            LehmerParams(1, -3)
        # (2, -2): alpha/beta = i, L_4 = 0
        with pytest.raises(DomainError):
            LehmerParams(2, -2)

    def test_table_pairs_are_valid(self):
        for pairs in TABLE.values():
            for a, b in pairs:
                LehmerParams(a, b)


class TestLehmerNumber:
    def test_seed(self):
        assert lehmer.lehmer_number(LehmerParams(1, -7), 1) == 1

    def test_odd_chain_examples(self):
        p = LehmerParams(1, -7)
        assert [lehmer.lehmer_number(p, n) for n in (3, 5, 7, 9, 11, 13)] == [
            -1, -1, 7, -17, 23, -1
        ]

    def test_even_chain_seeds(self):
        p = LehmerParams(1, -7)
        assert lehmer.lehmer_number(p, 2) == 1
        # L_4 = alpha^2 + beta^2 = (a + b) / 2
        assert lehmer.lehmer_number(p, 4) == -3 == (1 - 7) // 2

    def test_index_must_be_positive(self):
        with pytest.raises(DomainError):
            lehmer.lehmer_number(LehmerParams(1, -7), 0)

    def test_recurrence_matches_symbolic_expansion(self):
        # integrality plus agreement with the direct expansion oracle
        for a, b in valid_lehmer_pairs(50):
            p = LehmerParams(a, b)
            for n in range(1, 31):
                assert lehmer.lehmer_number(p, n) == lehmer_symbolic(a, b, n), (a, b, n)

    def test_divisibility_along_divisors(self):
        for a, b in valid_lehmer_pairs(30):
            p = LehmerParams(a, b)
            vals = {n: lehmer.lehmer_number(p, n) for n in range(1, 25)}
            for n in range(2, 25):
                for m in range(1, n):
                    if n % m == 0:
                        assert vals[n] % vals[m] == 0, (a, b, m, n)


class TestEquivalence:
    def test_examples(self):
        p = LehmerParams(1, -7)
        assert lehmer.equivalent_params(p, LehmerParams(1, -7))
        assert lehmer.equivalent_params(p, LehmerParams(-1, 7))
        assert not lehmer.equivalent_params(p, LehmerParams(7, -1))


class TestPrimitiveDivisors:
    def test_defective_by_ab_division(self):
        # L_7(1, -7) = 7 and 7 | a*b, so nothing primitive remains
        p = LehmerParams(1, -7)
        assert lehmer.lehmer_number(p, 7) == 7
        assert (p.a * p.b) % 7 == 0
        assert lehmer.primitive_divisors(p, 7) == frozenset()

    def test_defective_by_earlier_terms(self):
        # L_15(7, -1) = -275 = -(5^2 * 11); 5 | L_3 and 11 | L_5
        p = LehmerParams(7, -1)
        assert lehmer.lehmer_number(p, 15) == -275
        assert lehmer.lehmer_number(p, 3) == 5
        assert lehmer.lehmer_number(p, 5) == 11
        assert lehmer.primitive_divisors(p, 15) == frozenset()

    def test_nonempty_at_31(self):
        assert lehmer.primitive_divisors(LehmerParams(3, -13), 31) == frozenset({5519, 54311})

    def test_index_below_two_rejected(self):
        with pytest.raises(DomainError):
            lehmer.primitive_divisors(LehmerParams(1, -7), 1)

    def test_boolean_examples(self):
        assert not lehmer.has_primitive_divisor(LehmerParams(1, -7), 13)
        assert not lehmer.has_primitive_divisor(LehmerParams(5, -3), 9)

    def test_boolean_matches_set(self):
        rng = random.Random(5)
        pairs = valid_lehmer_pairs(12)
        for a, b in rng.sample(pairs, 40):
            p = LehmerParams(a, b)
            for n in (2, 3, 5, 7, 12):
                assert lehmer.has_primitive_divisor(p, n) == bool(
                    lehmer.primitive_divisors(p, n)
                ), (a, b, n)

    def test_primitive_part_matches_definition(self):
        # _primitive_part strips only |ab| and L_d for the proper divisors d
        # of n; the oracle strips every earlier term
        rng = random.Random(29)
        for a, b in rng.sample(valid_lehmer_pairs(30), 150):
            p = LehmerParams(a, b)
            for n in range(2, 31):
                part = lehmer_primitive_part(a, b, n)
                assert lehmer._primitive_part(p, n) == part, (a, b, n)
                assert lehmer.has_primitive_divisor(p, n) == (part > 1), (a, b, n)

    def test_table_soundness(self):
        for t, pairs in TABLE.items():
            for a, b in pairs:
                assert not lehmer.has_primitive_divisor(LehmerParams(a, b), t), (t, a, b)

    def test_table_completeness_at_13(self):
        # only pairs equivalent to (1, -7) lack a primitive divisor at 13
        for a, b in valid_lehmer_pairs(40):
            p = LehmerParams(a, b)
            if not lehmer.has_primitive_divisor(p, 13):
                assert lehmer.equivalent_params(p, LehmerParams(1, -7)), (a, b)

    def test_sign_image_invariance(self):
        rng = random.Random(17)
        pairs = valid_lehmer_pairs(20)
        for a, b in rng.sample(pairs, 60):
            for n in (5, 9, 14):
                assert lehmer.has_primitive_divisor(
                    LehmerParams(a, b), n
                ) == lehmer.has_primitive_divisor(LehmerParams(-a, -b), n), (a, b, n)

    def test_bhv_sample_at_31(self):
        rng = random.Random(31)
        pairs = valid_lehmer_pairs(100)
        for a, b in rng.sample(pairs, 25):
            assert lehmer.has_primitive_divisor(LehmerParams(a, b), 31), (a, b)


class TestExceptionalTable:
    def test_finite_entries(self):
        assert lehmer.exceptional_table_lookup(7, LehmerParams(14, -22))
        assert lehmer.exceptional_table_lookup(7, LehmerParams(-14, 22))   # sign image
        assert not lehmer.exceptional_table_lookup(13, LehmerParams(1, -19))
        assert lehmer.exceptional_table_lookup(13, LehmerParams(1, -7))

    def test_unlisted_odd_indices_are_empty(self):
        for t in (11, 17, 19, 21, 29):
            assert not lehmer.exceptional_table_lookup(t, LehmerParams(1, -7))

    def test_even_or_small_index_rejected(self):
        with pytest.raises(DomainError):
            lehmer.exceptional_table_lookup(8, LehmerParams(1, -7))
        with pytest.raises(DomainError):
            lehmer.exceptional_table_lookup(1, LehmerParams(1, -7))

    def test_t5_fibonacci_family(self):
        # k = 3, eps = +1: (F_1, F_1 - 4*F_3) = (1, -7)
        assert lehmer.exceptional_table_lookup(5, LehmerParams(1, -7))
        # k = 3, eps = -1: (F_5, F_5 - 4*F_3) = (5, -3)
        assert lehmer.exceptional_table_lookup(5, LehmerParams(5, -3))
        assert not lehmer.has_primitive_divisor(LehmerParams(5, -3), 5)

    def test_t5_non_member(self):
        p = LehmerParams(13, -3)
        assert not lehmer.exceptional_table_lookup(5, p)
        assert lehmer.has_primitive_divisor(p, 5)

    def test_t3_families(self):
        # (1 + u, 1 - 3u) at u = 2
        assert lehmer.exceptional_table_lookup(3, LehmerParams(3, -5))
        # (3^k + u, 3^k - 3u) at k = 2, u = 2 gives (11, 3)
        assert lehmer.exceptional_table_lookup(3, LehmerParams(11, 3))
        # the sign image (-1, 7) of (1, -7) is (1 + u, 1 - 3u) at u = -2
        assert lehmer.exceptional_table_lookup(3, LehmerParams(1, -7))
        assert not lehmer.has_primitive_divisor(LehmerParams(1, -7), 3)

    def test_t3_families_have_no_parameter_bound(self):
        # (1 + u, 1 - 3u) at u = 100001 and (3^k + u, 3^k - 3u) at k = 70, u = 2
        for a, b in ((100002, -300002), (3**70 + 2, 3**70 - 6)):
            p = LehmerParams(a, b)
            assert lehmer.exceptional_table_lookup(3, p), (a, b)
            assert not lehmer.has_primitive_divisor(p, 3), (a, b)

    def test_t5_family_has_no_index_bound(self):
        # (F_59, F_59 - 4*F_61): k = 61, e = 1, past the former bound k <= 60
        f59 = lehmer.fibonacci(59)
        p = LehmerParams(f59, f59 - 4 * lehmer.fibonacci(61))
        assert (p.a, p.b) == (956722026041, -9062201101803)
        assert lehmer.exceptional_table_lookup(5, p)
        assert not lehmer.has_primitive_divisor(p, 5)

    def test_t3_non_member(self):
        # L_3(5, -7) = 2 is a primitive divisor, so (5, -7) cannot be listed
        p = LehmerParams(5, -7)
        assert not lehmer.exceptional_table_lookup(3, p)
        assert lehmer.has_primitive_divisor(p, 3)

    def test_family_members_are_defective(self):
        # soundness: every family match really lacks a primitive divisor.
        # (The converse fails: e.g. (-1, -5) ~ (1, 5), the golden-ratio pair
        # with L_5 = F_5 = 5 dividing a*b, is defective at 5 but is not a
        # family value for any k >= 0.)
        hits = 0
        for a, b in valid_lehmer_pairs(25):
            p = LehmerParams(a, b)
            for t in (3, 5):
                if lehmer.exceptional_table_lookup(t, p):
                    hits += 1
                    assert not lehmer.has_primitive_divisor(p, t), (a, b, t)
        assert hits > 20
        assert not lehmer.exceptional_table_lookup(5, LehmerParams(-1, -5))
        assert not lehmer.has_primitive_divisor(LehmerParams(-1, -5), 5)

    def test_shipped_table_contents(self):
        data = lehmer.exceptional_tables()
        assert data["version"] == 1
        assert data["finite"]["7"] == [[1, -7], [1, -19], [3, -5], [5, -7], [13, -3], [14, -22]]
        assert data["finite"]["9"] == [[5, -3], [7, -1], [7, -5]]
        assert data["finite"]["13"] == [[1, -7]]
        assert data["finite"]["15"] == [[7, -1], [10, -2]]
        assert set(data["families"]) == {"3", "5"}
