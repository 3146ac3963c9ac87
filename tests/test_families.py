import csv
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from iqtuples import arith, classno, cli, families
from iqtuples.arith import limits
from iqtuples.classno import field_class_number
from iqtuples.errors import BudgetError, DomainError, HypothesisRejection, OutOfRangeError
from iqtuples.families import (
    FamilyMember,
    FamilyTuple,
    pi_tuple,
    quadruple,
    quintuple,
    verify_tuple,
)


class TestIdentityChain:
    def test_exact_identities(self):
        for n in (3, 5, 7, 9):
            for k in range(2, 7):
                ell = 4 * k**n - 1
                d = 4 * (1 - 4 * k**n) ** n
                assert d + 1 == 1 - 4 * ell**n
                assert d + 4 == 4 * (1 - ell**n)
                for p in (3, 5, 7, 11):
                    assert d + 4 * p * p == 4 * (p * p - ell**n)

    def test_constructed_tuples_satisfy_identities(self):
        t = quadruple(3, 3, 2)
        assert t.ell == 31
        assert t.d == -119164
        assert [m.radicand for m in t.members] == [
            -119164, -119163, -119160, -119128
        ]

    def test_field_equality_scaled_members_have_even_cofactor(self):
        # the d, d+4, d+4p^2 radicands are 4 times an integer, so the field
        # is defined by the square-free part and the cofactor keeps the 2
        for n, k in ((3, 2), (3, 5), (5, 2), (7, 2)):
            t = quintuple(n, k)
            for m in t.members:
                assert m.radicand == m.squarefree_part * m.cofactor**2
                if m.offset != 1:
                    assert m.cofactor % 2 == 0, (n, k, m.offset)

    def test_radicands_beyond_certified_range_are_refused(self):
        # quintuple(7, 3) has |radicands| near 9e27, past the range where
        # primality (and hence square-free parts) can be certified
        from iqtuples.errors import OutOfRangeError
        with pytest.raises(OutOfRangeError):
            quintuple(7, 3)


class TestQuadruple:
    def test_small_instance(self):
        t = quadruple(3, 3, 2)
        assert t.kind == "quadruple"
        assert t.offsets == [0, 1, 4, 36]
        assert [m.squarefree_part for m in t.members] == [-31, -119163, -3310, -29782]
        assert [m.cofactor for m in t.members] == [62, 1, 6, 2]
        assert all(m.status == families.STATUS_PENDING for m in t.members)
        assert all(m.class_number is None for m in t.members)

    def test_gcd_rejection(self):
        # k = 4: ell = 255 = 3 * 5 * 17 shares a factor with p = 3
        with pytest.raises(HypothesisRejection) as exc:
            quadruple(3, 3, 4)
        assert "gcd" in str(exc.value)

    def test_general_p_branch_reported(self):
        t = quadruple(3, 7, 2)
        names = [c.check for c in t.hypotheses]
        assert "7 != +-1 (mod d')" in names
        detail = next(c.detail for c in t.hypotheses if "mod d'" in c.check)
        assert "29742" in detail

    def test_non_prime_p_rejected(self):
        with pytest.raises(DomainError):
            quadruple(3, 9, 2)
        with pytest.raises(DomainError):
            quadruple(3, 2, 2)


class TestQuintuple:
    def test_radicands(self):
        t = quintuple(3, 2)
        assert t.offsets == [0, 1, 4, 36, 100]
        assert [m.radicand for m in t.members] == [
            -119164, -119163, -119160, -119128, -119064
        ]

    def test_rejection_names_prime(self):
        with pytest.raises(HypothesisRejection) as exc:
            quintuple(3, 4)
        assert "3" in str(exc.value)

    def test_large_n(self):
        t = quintuple(5, 2)
        assert t.ell == 127
        assert t.d == 4 * (-127) ** 5
        assert t.d == -132153477628

    def test_merges_quadruples(self):
        t5 = quintuple(3, 2)
        t3 = quadruple(3, 3, 2)
        tp5 = quadruple(3, 5, 2)
        assert set(t5.offsets) == set(t3.offsets) | set(tp5.offsets)

    def test_rho_budget_reaches_construction(self):
        # d + 100 = 4*(25 - 12499^5) keeps 1001387 * 50771867830517, past the
        # member sieve's primes and its cube, for Pollard rho to split
        with limits(rho_budget=1), pytest.raises(BudgetError):
            quintuple(5, 5)


class TestPiTuple:
    def test_offsets_to_six(self):
        t = pi_tuple(3, 6, 2)
        assert t.offsets == [0, 1, 4, 36, 100]
        assert t.p_list == [3, 5]

    def test_degenerate_triple(self):
        t = pi_tuple(3, 2, 2)
        assert t.offsets == [0, 1, 4]
        assert t.p_list == []

    def test_includes_offset_484(self):
        t = pi_tuple(3, 12, 2)
        assert t.offsets == [0, 1, 4, 36, 100, 196, 484]
        names = [c.check for c in t.hypotheses]
        assert "11 != +-1 (mod d')" in names

    def test_member_count_is_pi_plus_two(self):
        from iqtuples.arith import primes_up_to
        for m in (2, 3, 6, 12, 20):
            t = pi_tuple(3, m, 2)
            assert len(t.members) == len(primes_up_to(m)) + 2

    def test_strict_rejects(self):
        with pytest.raises(HypothesisRejection):
            pi_tuple(3, 6, 4)

    def test_lenient_drops_with_warning(self):
        t = pi_tuple(3, 6, 4, mode="lenient")
        assert t.offsets == [0, 1, 4]
        assert len(t.warnings) == 2
        assert "dropped p = 3" in t.warnings[0]

    def test_each_radicand_is_decomposed_once(self, monkeypatch):
        # the congruence check reads d' off the member d + 4p^2 = -4(ell^n - p^2)
        assert not arith._member_memo
        seen = []
        real = arith._decompose
        monkeypatch.setattr(arith, "_decompose", lambda m, *rest: seen.append(m) or real(m, *rest))
        t = pi_tuple(3, 12, 2)
        assert sorted(seen) == sorted(m.radicand for m in t.members)
        detail = next(c.detail for c in t.hypotheses if c.check == "11 != +-1 (mod d')")
        assert detail.startswith(f"d' = {-t.members[-1].squarefree_part}, ")

    def test_bad_mode(self):
        with pytest.raises(DomainError):
            pi_tuple(3, 6, 2, mode="other")


class TestVerifyTuple:
    def test_quadruple_full_verification(self):
        t = verify_tuple(quadruple(3, 3, 2))
        assert t.all_divisible is True
        m0 = t.members[0]
        assert m0.squarefree_part == -31
        assert m0.class_number == 3
        assert [m.class_number for m in t.members] == [3, 48, 36, 78]

    def test_quintuple_full_verification(self):
        t = verify_tuple(quintuple(3, 2))
        assert t.all_divisible is True
        assert [m.class_number for m in t.members] == [3, 48, 36, 78, 12]
        assert all(m.status == families.STATUS_VERIFIED for m in t.members)

    def test_membership_consistency(self):
        # the offset-0 member is Q(sqrt(1 - 4k^n)): d = (1 - 4k^n) * (2(1 - 4k^n)^((n-1)/2))^2
        for k in (2, 3, 5):  # h(-31) = 3, h(-107) = 3, h(-499) = 3
            t = verify_tuple(quadruple(3, 3, k))
            assert t.members[0].squarefree_part == arith.squarefree_decompose(1 - 4 * k**3).s
            assert t.members[0].divisible is True
        assert field_class_number(quadruple(5, 3, 2).members[0].squarefree_part).h == 5  # -127
        for n, k in ((4, 2), (3, 1)):
            with pytest.raises(DomainError):
                quadruple(n, 3, k)

    def test_negative_divisibility_detected(self, monkeypatch):
        # a built tuple's offset-0 member (s = -31) counted as radicand -15,
        # whose h = 2 is not divisible by 3
        t = quadruple(3, 3, 2)
        forms = classno.class_number_forms
        monkeypatch.setattr(classno, "class_number_forms", lambda D: forms(-15 if D == -31 else D))
        verify_tuple(t)
        assert t.members[0].class_number == 2
        assert t.members[0].divisible is False
        assert t.all_divisible is False

    def test_budget_marks_unverified(self, caplog):
        # on the form count's BudgetError: |D| = 119163 > sf_budget for D = 1 (mod 4)
        t = quadruple(3, 3, 2)
        with limits(sf_budget=10**4), caplog.at_level("WARNING", logger="iqtuples"):
            verify_tuple(t)
        assert caplog.records[0].getMessage() == (
            "offset 1: |square-free part| = 119163 exceeds budget (form count of D = -119163: "
            "|D| exceeds sf_budget = 10000), not verified")
        by_offset = {m.offset: m for m in t.members}
        assert by_offset[0].status == families.STATUS_VERIFIED     # |-31| small
        assert by_offset[1].status == families.STATUS_BUDGET       # |-119163| too big
        assert by_offset[1].class_number is None
        assert t.all_divisible is None

    def test_identities_rechecked(self):
        t = quadruple(3, 3, 2)
        t.d += 1  # corrupt
        with pytest.raises(ArithmeticError):
            verify_tuple(t)

    def test_broken_member_decomposition_detected(self):
        t = quadruple(3, 3, 2)
        t.members[0].cofactor = 5
        with pytest.raises(ArithmeticError):
            verify_tuple(t)

    def test_every_member_is_checked_before_any_count(self, monkeypatch):
        # offset 100's cofactor forged: no member is counted, not even the
        # four before it
        counts = []
        reduced_count = classno._reduced_count
        monkeypatch.setattr(classno, "_reduced_count",
                            lambda D: counts.append(D) or reduced_count(D))
        t = quintuple(3, 2)
        t.members[-1].cofactor += 2
        with pytest.raises(ArithmeticError, match="offset 100 has a broken decomposition"):
            verify_tuple(t)
        assert counts == []

    @pytest.mark.parametrize("s, f", [(-119164, 1), (-29791, 2)])
    def test_every_square_free_part_is_rederived(self, s, f):
        # radicand = s * f^2 holds for both, but s is not square-free: the form
        # count would give h = 186 or 93, the class numbers of orders, where
        # the field Q(sqrt(-31)) has h = 3
        t = quadruple(3, 3, 2)
        m0 = t.members[0]
        assert (m0.radicand, m0.squarefree_part, m0.cofactor) == (-119164, -31, 62)
        m0.squarefree_part, m0.cofactor = s, f
        assert m0.radicand == s * f * f
        with pytest.raises(ArithmeticError, match="offset 0 has a broken decomposition"):
            verify_tuple(t)

    @pytest.mark.parametrize("mutate", [
        # Q(sqrt(-23)) is no member of the tuple, and h(-23) = 3 would pass
        lambda t: t.members.__setitem__(1, FamilyMember(1, -23, -23, 1)),
        lambda t: setattr(t.members[3], "offset", 4 * 49),
        lambda t: t.members.pop(),
        lambda t: t.members.append(FamilyMember(4 * 49, t.d + 4 * 49, t.d + 4 * 49, 1)),
        lambda t: setattr(t, "ell", t.ell + 4),
        lambda t: setattr(t, "p_list", [5]),
    ])
    def test_every_radicand_is_rechecked(self, mutate):
        t = quadruple(3, 3, 2)
        mutate(t)
        with pytest.raises(ArithmeticError):
            verify_tuple(t)

    def test_huge_k_is_refused_before_its_power(self):
        # n^2*(bits(k) - 1) = 9000 bits is past the cap, so k^n is never formed
        t = quadruple(3, 3, 2)
        t.k = 2**1000
        with pytest.raises(OutOfRangeError, match=r"has over n\^2\*\(bits\(k\) - 1\) = 9000 bits"):
            verify_tuple(t)


class TestSerialization:
    def test_json_round_trip(self):
        t = verify_tuple(quintuple(3, 2))
        line = families.to_json_line(t)
        rec = json.loads(line)
        assert rec["schema"] == families.SCHEMA_VERSION
        assert rec["kind"] == "quintuple"
        assert rec["all_divisible"] is True
        back = families.from_json_dict(rec)
        assert all((m.class_number, m.divisible, m.status) == (None, None, families.STATUS_PENDING)
                   for m in back.members)  # the record's verdicts are not copied
        assert families.to_json_line(verify_tuple(back)) == line

    def test_json_schema_fields(self):
        rec = families.to_json_dict(quadruple(3, 3, 2))
        assert list(rec) == [
            "schema", "kind", "n", "k", "ell", "d", "p_list",
            "hypotheses", "warnings", "members", "all_divisible",
        ]
        for m in rec["members"]:
            assert list(m) == [
                "offset", "radicand", "squarefree_part", "cofactor",
                "class_number", "divisible", "status",
            ]

    @pytest.mark.parametrize("schema", [99, True, 1.0])  # True == 1.0 == 1: the type counts too
    def test_rejects_unknown_schema(self, schema):
        rec = families.to_json_dict(quadruple(3, 3, 2))
        rec["schema"] = schema
        with pytest.raises(DomainError, match="not a schema-1 tuple record"):
            families.from_json_dict(rec)

    @pytest.mark.parametrize("mutate", [
        # Q(sqrt(-23)) is not in the tuple; this record used to verify, exit 0
        lambda rec: rec["members"][1].update(radicand=-23, squarefree_part=-23, cofactor=1),
        lambda rec: rec.update(ell=rec["ell"] + 4),
        lambda rec: rec.update(d=rec["d"] - 4),
        lambda rec: rec.update(k=3),
        lambda rec: rec.update(n=10**9 + 1),
        lambda rec: rec.update(p_list=[5]),
        lambda rec: rec["members"].pop(),
        lambda rec: rec["members"].append(dict(rec["members"][0])),
        lambda rec: rec["members"][3].update(offset=4 * 49, radicand=rec["d"] + 4 * 49),
        lambda rec: rec["members"][0].update(cofactor=rec["members"][0]["cofactor"] + 2),
        lambda rec: rec.update(n="3"),
        lambda rec: rec.update(n=3.0),
        lambda rec: rec["members"][2].update(cofactor=True),
        lambda rec: rec.update(members={}),
        lambda rec: rec["members"][0].pop("radicand"),
        lambda rec: rec.pop("p_list"),
    ])
    def test_rejects_records_that_are_not_the_constructed_tuple(self, mutate):
        rec = families.to_json_dict(quadruple(3, 3, 2))
        families.from_json_dict(rec)  # the untouched record passes
        mutate(rec)
        with pytest.raises(DomainError):
            families.from_json_dict(rec)

    def test_rejects_non_object(self):
        with pytest.raises(DomainError):
            families.from_json_dict([1, 2])

    def test_csv_rows(self, capsys):
        assert cli.main(["quadruple", "-n", "3", "-p", "3", "-k", "2", "--verify", "--format", "csv"]) == 0
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert len(rows) == 4
        assert len(header) == 12 and all(len(r) == 12 for r in rows)
        assert rows[0][header.index("squarefree_part")] == "-31"

    def test_pending_members_serialize_with_nulls(self):
        rec = families.to_json_dict(quadruple(3, 3, 2))
        assert rec["members"][0]["class_number"] is None
        assert rec["all_divisible"] is None


def _facts(t: FamilyTuple) -> dict:
    """Everything in a tuple's record except the verdicts verify_tuple fills in."""
    rec = families.to_json_dict(t)
    for m in rec["members"]:
        del m["class_number"], m["divisible"], m["status"]
    del rec["all_divisible"]
    return rec


def _claims(rec: dict) -> tuple:
    """The numbers a record states about its tuple, its schema with its type, as True == 1."""
    members = [(m["offset"], m["radicand"], m["squarefree_part"], m["cofactor"]) for m in rec["members"]]
    return (type(rec["schema"]), rec["schema"], rec["kind"], rec["n"], rec["k"], rec["ell"],
            rec["d"], rec["p_list"], members)


def _constructed(kind: str, n: int, k: int, p_list: list[int]) -> FamilyTuple:
    if kind == "quadruple":
        return quadruple(n, p_list[0], k)
    if kind == "quintuple":
        return quintuple(n, k)
    return pi_tuple(n, max(p_list, default=2), k)  # strict: every odd prime up to m


VALID_RECORDS = [
    families.to_json_dict(t)
    for t in (quadruple(3, 7, 2), quintuple(3, 3), pi_tuple(3, 12, 2), verify_tuple(quintuple(3, 2)))
]
ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=4),
    st.integers(-10**30, 10**30), st.lists(st.integers(-20, 20), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@st.composite
def single_field_mutations(draw):
    """A valid record with one field, at the top or in one member, changed or removed."""
    rec = json.loads(json.dumps(draw(st.sampled_from(VALID_RECORDS))))
    holder = rec
    if draw(st.booleans()):
        holder = draw(st.sampled_from(rec["members"]))
    key = draw(st.sampled_from(sorted(holder)))
    old = holder[key]
    candidates = [ANY_VALUE]
    if type(old) is int:
        candidates += [st.integers(-12, 12).map(lambda e: old + e),
                       st.sampled_from([-old, 2 * old, old // 4, 4 * old])]
    if isinstance(old, list):
        candidates += [st.permutations(old), st.lists(st.sampled_from(old or [0]), max_size=6)]
    if key == "p_list":
        candidates.append(st.lists(st.integers(-3, 40), max_size=6))
    if key == "kind":
        candidates.append(st.sampled_from(["quadruple", "quintuple", "pi_tuple"]))
    if draw(st.integers(0, 9)) == 0:
        del holder[key]
    else:
        holder[key] = draw(st.one_of(candidates))
    return rec


class TestTrustBoundary:
    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(single_field_mutations())
    def test_mutations_are_rejected_or_rebuilt(self, rec):
        try:
            t = families.from_json_dict(rec)
        except DomainError:
            return
        true = _constructed(t.kind, t.n, t.k, t.p_list)
        assert _claims(rec) == _claims(families.to_json_dict(true))
        assert _facts(t) == _facts(true)

    def test_lenient_record_is_rebuilt_over_its_own_p_list(self):
        # k = 4: p = 3 and p = 5 share a factor with ell = 255 and are dropped
        lenient = pi_tuple(3, 6, 4, mode="lenient")
        assert lenient.p_list == [] and len(lenient.warnings) == 2
        back = families.from_json_dict(families.to_json_dict(lenient))
        assert back.warnings == []
        assert [c.check for c in back.hypotheses] == ["(n, V) != (5, 3)"]
        assert _facts(back)["members"] == _facts(lenient)["members"]
