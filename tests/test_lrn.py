import dataclasses
import json
import logging
from math import gcd, isqrt

import pytest

from iqtuples import arith, classno, cli, families, lrn
from iqtuples.errors import DomainError, OutOfRangeError
from iqtuples.lrn import Decomposition, LrnInstance


def triples(sols):
    return [(s.x, s.y, s.z) for s in sols]


class TestInstance:
    def test_validation(self):
        with pytest.raises(DomainError):
            LrnInstance(1, 3, 5)       # d too small
        with pytest.raises(DomainError):
            LrnInstance(5, 4, 5)       # even ell
        with pytest.raises(DomainError):
            LrnInstance(5, 1, 5)
        with pytest.raises(DomainError):
            LrnInstance(6, 3, 5)       # gcd(ell, 2d) != 1
        with pytest.raises(DomainError):
            LrnInstance(5, 3, 0)

    def test_small_d_accepted(self):
        LrnInstance(2, 3, 5)
        LrnInstance(3, 5, 2)


class TestBrute:
    def test_d2_ell3(self):
        sols = lrn.solve_brute(LrnInstance(2, 3, 5))
        assert triples(sols) == [(1, 1, 1), (1, 2, 2), (5, 1, 3), (7, 4, 4), (1, 11, 5)]
        # spot checks: 25 + 2 = 27 and 1 + 2 * 121 = 243
        assert (5, 1, 3) in triples(sols)
        assert (1, 11, 5) in triples(sols)

    def test_d318_ell7(self):
        sols = lrn.solve_brute(LrnInstance(318, 7, 3))
        assert triples(sols) == [(5, 1, 3)]
        assert 25 + 318 == 343

    def test_d5_ell3(self):
        assert triples(lrn.solve_brute(LrnInstance(5, 3, 3))) == [(2, 1, 2)]

    def test_every_solution_satisfies_equation(self):
        inst = LrnInstance(7, 11, 4)
        for s in lrn.solve_brute(inst):
            assert s.x**2 + 7 * s.y**2 == 11**s.z
            assert gcd(s.x, s.y) == 1
            assert s.x >= 1 and s.y >= 1


class TestStructured:
    def test_same_set_as_brute_d2(self):
        inst = LrnInstance(2, 3, 5)
        st = lrn.solve_structured(inst)
        assert triples(st) == triples(lrn.solve_brute(inst))
        # h*(-8) = 1 forces s = 1 and base (a, b) = (1, 1)
        for s in st:
            dec = s.decomposition
            assert (dec.a, dec.b, dec.s) == (1, 1, 1)
            assert dec.t == s.z
        odd = {s.decomposition.t for s in st if s.z % 2}
        assert odd == {1, 3, 5}

    def test_d318_decomposition(self):
        st = lrn.solve_structured(LrnInstance(318, 7, 3))
        assert triples(st) == [(5, 1, 3)]
        dec = st[0].decomposition
        assert dec.s * dec.t == 3

    def test_oracle_equivalence_d7_ell11(self):
        inst = LrnInstance(7, 11, 2)
        assert triples(lrn.solve_structured(inst)) == triples(lrn.solve_brute(inst)) == [
            (2, 1, 1), (3, 4, 2)
        ]

    def test_decompositions_reexpand_exactly(self):
        for d, ell in ((2, 3), (5, 3), (7, 11), (17, 5), (30, 7)):
            inst = LrnInstance(d, ell, 5)
            for s in lrn.solve_structured(inst):
                assert s.decomposition.expand(d) == (s.x, s.y)

    def test_base_divides_x_for_odd_power(self):
        # the real part of (a + mu*b*sqrt(-d))^t is a multiple of a for odd t
        for d, ell in ((2, 3), (6, 5), (10, 3), (21, 11)):
            inst = LrnInstance(d, ell, 6)
            for s in lrn.solve_structured(inst):
                dec = s.decomposition
                if dec.t % 2 == 1:
                    assert s.x % dec.a == 0, (d, ell, s)

    def test_equivalence_sweep_small(self):
        # a slice of the full acceptance sweep, plus d = 2 and d = 3
        for d in (2, 3, 4, 5, 11, 23, 42, 60):
            for ell in (3, 5, 7, 11, 13):
                if gcd(ell, 2 * d) != 1:
                    continue
                inst = LrnInstance(d, ell, 6)
                assert triples(lrn.solve_structured(inst)) == triples(
                    lrn.solve_brute(inst)
                ), (d, ell)


    def test_equals_brute_wherever_brute_runs(self):
        # every d < 40 and ell < 20 that the instance admits, up to ell^z_max <= 10^6
        for d in range(2, 40):
            for ell in range(3, 20, 2):
                if gcd(ell, 2 * d) != 1:
                    continue
                inst = LrnInstance(d, ell, max(z for z in range(1, 20) if ell**z <= 10**6))
                assert triples(lrn.solve_structured(inst)) == triples(lrn.solve_brute(inst)), (d, ell)

    def test_long_range_matches_expand(self):
        # far past brute's reach: 3^2000 has 954 digits
        sols = lrn.solve_structured(LrnInstance(5, 3, 2000))
        assert len(sols) == 1000 and [s.z for s in sols] == list(range(2, 2001, 2))
        for s in sols[::37] + sols[-1:]:
            assert s.decomposition.expand(5) == (s.x, s.y)
            assert s.x * s.x + 5 * s.y * s.y == 3**s.z

    def test_base_solutions_equal_the_scan(self):
        # Cornacchia against a scan of every b with d*b^2 < ell^s, ell prime,
        # a prime power or a product of two primes; 658 solutions in all
        def scan(d, ell, s):
            target, out = ell**s, []
            for b in range(1, isqrt(target // d) + 1):
                rest = target - d * b * b
                a = isqrt(rest)
                if a >= 1 and a * a == rest and gcd(a, b) == 1:
                    out.append((a, b))
            return sorted(out)

        found = []
        for d in range(2, 21):
            for ell in range(3, 100, 2):
                if gcd(ell, 2 * d) == 1:
                    for s in (1, 2, 3):
                        want = scan(d, ell, s)
                        assert lrn._base_solutions(d, arith.factorize(ell).factors, s) == want, (d, ell, s)
                        found += [ell] * len(want)
        assert len(found) == 658 and {9, 15, 27, 91} <= set(found)

    def test_base_solutions_for_a_large_prime(self):
        # the scan would take about 4*10^11 steps at s = 2
        ell = 1000000000061
        assert lrn._base_solutions(5, ((ell, 1),), 1) == [(449616, 399461)]
        assert lrn._base_solutions(5, ((ell, 1),), 2) == [(595690905149, 359208113952)]
        sols = lrn.solve_structured(LrnInstance(5, ell, 20))
        assert [s.z for s in sols] == list(range(1, 21))
        assert all(s.x * s.x + 5 * s.y * s.y == ell**s.z for s in sols)


    def test_ell_is_factored_once(self, monkeypatch):
        # h*(-4 * 5) = 2 has base exponents s = 1 and 2; ell = 9 * 1000000000061
        factored = []
        factorize = arith.factorize
        monkeypatch.setattr(arith, "factorize", lambda m: factored.append(m) or factorize(m))
        ell = 9 * 1000000000061
        sols = lrn.solve_structured(LrnInstance(5, ell, 4))
        assert factored == [ell]
        assert sols and all(s.x * s.x + 5 * s.y * s.y == ell**s.z for s in sols)


class TestDecomposition:
    def test_expand(self):
        # -(1 - sqrt(-2))^3 = 5 + sqrt(-2)
        assert Decomposition(-1, -1, 1, 1, 1, 3).expand(2) == (5, 1)


class TestTheorem31:
    def test_waived_branch_example(self):
        rep = lrn.theorem31_verify(7, 3, 5)
        assert rep.accepted
        assert rep.branch == "p-in-{3,5}"
        assert (rep.d, rep.r) == (318, 1)
        assert rep.h == 12
        assert rep.verdict is True
        assert not rep.anomaly

    def test_construction_instance(self):
        rep = lrn.theorem31_verify(31, 3, 3)
        assert rep.accepted
        assert (rep.d, rep.r) == (29782, 1)
        assert 29782 == 2 * 14891
        assert rep.h == 78
        assert rep.verdict is True

    def test_general_branch(self):
        rep = lrn.theorem31_verify(7, 3, 11)
        assert rep.accepted
        assert rep.branch == "general"
        assert rep.d == 222
        assert rep.verdict is True
        rep = lrn.theorem31_verify(7, 3, 13)
        assert (rep.d, rep.h, rep.verdict) == (174, 12, True)

    def test_excluded_case_rejected_not_crashed(self):
        rep = lrn.theorem31_verify(3, 3, 3)
        assert not rep.accepted
        assert rep.rejection == "gcd(ell, 3) = 1"
        assert rep.verdict is None
        assert rep.h is None

    def test_ell_1_mod_4_rejected(self):
        rep = lrn.theorem31_verify(5, 3, 3)
        assert not rep.accepted
        assert rep.rejection == "ell = 3 (mod 4)"

    def test_p_too_large_rejected(self):
        rep = lrn.theorem31_verify(7, 3, 19)  # 361 > 343
        assert not rep.accepted
        assert rep.rejection == "19^2 < ell^n"
        assert rep.hypotheses[-1].detail == "361 >= 343"

    def test_size_check_states_the_relation_that_holds(self):
        assert lrn.theorem31_verify(7, 3, 17).hypotheses[2].detail == "289 < 343"
        t = families.pi_tuple(3, 1000, 2, mode="lenient")
        dropped = next(w for w in t.warnings if w.startswith("dropped p = 173: "))
        assert dropped == "dropped p = 173: 173^2 < ell^n (29929 >= 29791)"
        kept = next(c for c in t.hypotheses if c.check == "167^2 < ell^n")
        assert kept.ok and kept.detail == "27889 < 29791"

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lrn.theorem31_verify(7, 2, 3)    # even n
        with pytest.raises(DomainError):
            lrn.theorem31_verify(4, 3, 3)    # even ell
        with pytest.raises(DomainError):
            lrn.theorem31_verify(7, 3, 9)    # p not prime
        with pytest.raises(DomainError):
            lrn.theorem31_verify(7, 3, 2)    # even p

    def test_anomaly_only_when_n_does_not_divide_the_count(self, monkeypatch, caplog, capsys):
        # the verdict is the count; a count n does not divide under valid
        # hypotheses is the one failure, reported as anomaly with an ERROR
        rep = lrn.theorem31_verify(7, 3, 5)
        assert (rep.h, rep.verdict, rep.anomaly) == (12, True, False)
        count = classno.class_number_forms
        monkeypatch.setattr(classno, "class_number_forms",
                            lambda D: dataclasses.replace(count(D), h=count(D).h + 1))
        with caplog.at_level(logging.ERROR, logger="iqtuples.lrn"):
            rep = lrn.theorem31_verify(7, 3, 5)
        assert rep.accepted and (rep.h, rep.verdict, rep.anomaly) == (13, False, True)
        assert [r.getMessage() for r in caplog.records] == [
            "verified hypotheses but 3 does not divide h*(-1272) = 13 for "
            "(ell, n, p) = (7, 3, 5); this contradicts proven theory"]
        assert not hasattr(rep, "trace")
        assert cli.main(["thm31", "-l", "7", "-n", "3", "-p", "5", "--format", "json"]) == 1
        rec = json.loads(capsys.readouterr().out)
        assert (rec["h"], rec["verdict"], rec["anomaly"]) == (13, False, True)
        assert list(rec) == ["command", "ell", "n", "p", "accepted", "rejection", "branch",
                             "d", "r", "h", "verdict", "anomaly", "hypotheses"]

    def test_power_cap_is_on_n_times_the_bits_of_ell(self):
        ell = (1 << 39) + 3  # 40 bits: n*bits(ell) = 5*40 is the cap itself
        assert lrn.ell_power(ell, 5) == ell**5
        with pytest.raises(OutOfRangeError, match=r"n\*bits\(ell\) = 201 bits, past the cap of 200$"):
            lrn.ell_power((1 << 66) + 3, 3)

    def test_tuple_checks_are_theorem31s(self):
        # for ell = 4k^n - 1, thm31 runs exactly the checks a quadruple runs on p,
        # and its d is the member's -squarefree_part
        for n, k, p in ((3, 2, 3), (3, 2, 7), (3, 4, 3), (5, 2, 11)):
            t = families._build("quadruple", n, k, [p], lenient=True)
            rep = lrn.theorem31_verify(t.ell, n, p)
            assert rep.hypotheses[0].check == "ell = 3 (mod 4)"
            assert rep.hypotheses[1:] == t.hypotheses[:-1], (n, k, p)  # the last is theorem B
            if t.p_list:
                assert rep.accepted and rep.d == -t.members[-1].squarefree_part
            else:
                assert not rep.accepted and rep.d is None

    def test_verdict_true_on_small_grid(self):
        for ell in (7, 11):
            for n in (3, 5):
                for p in (3, 5):
                    rep = lrn.theorem31_verify(ell, n, p)
                    assert rep.accepted and rep.verdict is True, (ell, n, p)
