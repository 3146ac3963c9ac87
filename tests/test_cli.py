import csv
import dataclasses
import io
import json
import logging
import os
import subprocess
import sys
import time
from collections import Counter

import pytest

from iqtuples import arith, classno, cli, families, lrn


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _untouchable(*args):
    raise AssertionError("called")


TOO_LONG = (f"invalid input: a result has more than {sys.get_int_max_str_digits()} digits, "
            "Python's limit for printing an integer (PYTHONINTMAXSTRDIGITS raises it)\n")


class TestClassnum:
    def test_field_radicand(self, capsys):
        code, out, _ = run(capsys, "classnum", "-d", "-31")
        assert code == 0
        assert "= 3" in out

    def test_discriminant_json(self, capsys):
        code, out, _ = run(capsys, "classnum", "-D", "-23", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["h"] == 3 and rec["method"] == "form-count"

    def test_dirichlet_method(self, capsys):
        code, out, _ = run(capsys, "classnum", "-D", "-23", "--method", "dirichlet",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["method"] == "dirichlet"

    def test_with_forms_needs_the_form_count(self, capsys):
        # the Dirichlet sum lists no forms; the flag used to be ignored there
        code, out, err = run(capsys, "classnum", "-D", "-23", "--method", "dirichlet",
                             "--with-forms")
        assert code == 3
        assert out == "" and err.startswith("usage error: ")

    def test_with_forms(self, capsys):
        code, out, _ = run(capsys, "classnum", "-D", "-23", "--with-forms",
                           "--format", "json")
        assert sorted(json.loads(out)["reduced_forms"]) == [[1, 1, 6], [2, -1, 3], [2, 1, 3]]

    def test_sf_budget_bounds_the_form_count(self, capsys):
        # |D| = 4 * (10^12 + 1), one past 4 * sf_budget at the default budget
        code, out, err = run(capsys, "classnum", "-D", "-4000000000004")
        assert code == 2 and out == ""
        assert err.startswith("budget exhausted: form count of D = -4000000000004: ")
        code, out, _ = run(capsys, "classnum", "-D", "-4000000000004",
                           "--sf-budget", "1000000000001")
        assert code == 0
        assert out.startswith("h*(-4000000000004) = 938880 ")  # as a walk of every tail a counts it

    def test_sf_budget_bounds_an_odd_discriminant_by_itself(self, capsys):
        # D = 1 (mod 4) is its own square-free part, so |D| <= sf_budget
        code, out, err = run(capsys, "classnum", "-D", "-1000003", "--sf-budget", "1000000")
        assert code == 2 and out == ""
        assert err == "budget exhausted: form count of D = -1000003: |D| exceeds sf_budget = 1000000\n"
        code, out, _ = run(capsys, "classnum", "-D", "-1000003", "--sf-budget", "1000003")
        assert code == 0 and out.startswith("h*(-1000003) = ")

    def test_needs_exactly_one_input(self, capsys):
        code, _, err = run(capsys, "classnum")
        assert code == 3
        code, _, err = run(capsys, "classnum", "-d", "-31", "-D", "-23")
        assert code == 3


class TestScalarCommands:
    def test_squarefree(self, capsys):
        code, out, _ = run(capsys, "squarefree", "-m", "-119164", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert (rec["s"], rec["f"]) == (-31, 62)

    def test_out_of_range_cofactor_is_named(self, capsys):
        # used to say only that is_prime got a value past its proven bound
        m = "10000000000000000000000000000057"
        code, out, err = run(capsys, "squarefree", "-m", m)
        assert code == 3 and out == ""
        assert err.startswith(f"invalid input: factoring {m}: testing the cofactor {m} for ")

    def test_lehmer(self, capsys):
        code, out, _ = run(capsys, "lehmer", "-a", "1", "-b", "-7", "-t", "13")
        assert code == 0
        assert "-1" in out

    def test_pdiv_defective(self, capsys):
        code, out, _ = run(capsys, "pdiv", "-a", "7", "-b", "-1", "-t", "15",
                           "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["primitive_divisors"] == []
        assert rec["has_primitive_divisor"] is False

    def test_pdiv_nonempty(self, capsys):
        code, out, _ = run(capsys, "pdiv", "-a", "3", "-b", "-13", "-t", "31",
                           "--format", "json")
        assert json.loads(out)["primitive_divisors"] == [5519, 54311]

    def test_invalid_params_exit_usage(self, capsys):
        code, _, err = run(capsys, "lehmer", "-a", "3", "-b", "3", "-t", "5")
        assert code == 3
        assert "invalid input" in err

    def test_too_long_a_lehmer_number_exits_3(self, capsys):
        # L_30000(5, 1) has more digits than Python will print
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "lehmer", "-a", "5", "-b", "1", "-t", "30000",
                                 "--format", fmt)
            assert (code, out, err) == (3, "", TOO_LONG), fmt


class TestLrnSolve:
    def test_structured_json_lines(self, capsys):
        code, out, _ = run(capsys, "lrn-solve", "-d", "2", "-l", "3", "--z-max", "5",
                           "--format", "json")
        assert code == 0
        recs = [json.loads(line) for line in out.splitlines()]
        assert [(r["x"], r["y"], r["z"]) for r in recs] == [
            (1, 1, 1), (1, 2, 2), (5, 1, 3), (7, 4, 4), (1, 11, 5)
        ]
        assert all(r["s"] == 1 for r in recs)

    def test_both_methods_cross_check(self, capsys):
        code, _, err = run(capsys, "lrn-solve", "-d", "7", "-l", "11", "--z-max", "3",
                           "--method", "both")
        assert code == 0

    def test_too_long_a_solution_exits_3(self, capsys):
        # past z = 1433 a solution has more digits than Python will print (at
        # ell = 3 past z = 18 020); the shorter ones before it are not printed either
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "lrn-solve", "-d", "5", "-l", "1000081", "--z-max", "1450",
                                 "--format", fmt)
            assert (code, out, err) == (3, "", TOO_LONG), fmt

    def test_sf_budget_bounds_the_class_number(self, capsys):
        code, out, err = run(capsys, "lrn-solve", "-d", "1000000000001", "-l", "3", "--z-max", "1")
        assert code == 2 and out == ""
        assert err.startswith("budget exhausted: form count of D = -4000000000004: ")


class TestThm31:
    def test_success(self, capsys):
        code, out, _ = run(capsys, "thm31", "-l", "7", "-n", "3", "-p", "5",
                           "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["verdict"] is True and rec["h"] == 12

    def test_rejection_exit_code(self, capsys):
        code, out, _ = run(capsys, "thm31", "-l", "3", "-n", "3", "-p", "3",
                           "--format", "json")
        assert code == 1
        assert json.loads(out)["rejection"] == "gcd(ell, 3) = 1"

    def test_out_of_range_radicand_is_named(self, capsys):
        code, out, err = run(capsys, "thm31", "-l", "2047", "-n", "9", "-p", "3")
        assert code == 3 and out == ""
        assert err.startswith(f"invalid input: decomposing 4(p^2 - ell^n) = {4 * (9 - 2047**9)}: ")
        assert "testing the cofactor " in err
        p = "1000000000000000000000000000057"
        code, out, err = run(capsys, "thm31", "-l", "7", "-n", "3", "-p", p)
        assert code == 3 and out == ""
        assert err.startswith(f"invalid input: testing p = {p} for primality: ")

    def test_power_past_the_cap_is_refused(self, capsys):
        # 7^6001 would have 16849 bits, more decimal digits than Python prints
        code, out, err = run(capsys, "thm31", "-l", "7", "-n", "6001", "-p", "3")
        assert code == 3 and out == ""
        assert err == "invalid input: ell^n has up to n*bits(ell) = 18003 bits, past the cap of 200\n"
        # at the cap ell^n is formed, and its radicand's cofactor is what is refused
        ell = (1 << 39) + 3  # n*bits(ell) = 5*40
        code, out, err = run(capsys, "thm31", "-l", str(ell), "-n", "5", "-p", "3")
        assert code == 3 and out == ""
        assert err.startswith(f"invalid input: decomposing 4(p^2 - ell^n) = {4 * (9 - ell**5)}: ")


class TestTuples:
    def test_power_past_the_cap_exits_at_once(self, capsys):
        # ell^n would have 36 million bits; forming it took 13 s, twice
        start = time.perf_counter()
        code, out, err = run(capsys, "quadruple", "-n", "6001", "-k", "2", "-p", "3")
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert err == ("invalid input: ell^n = (4*k^n - 1)^n has over n^2*(bits(k) - 1) = "
                       "36012001 bits, past the cap of 200\n")
        code, out, err = run(capsys, "quintuple", "-n", "13", "-k", "3")  # ell has 23 bits
        assert code == 3 and out == ""
        assert err == "invalid input: ell^n has up to n*bits(ell) = 299 bits, past the cap of 200\n"

    def test_quintuple_verify_json(self, capsys):
        code, out, _ = run(capsys, "quintuple", "-n", "3", "-k", "2", "--verify",
                           "--format", "json")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["all_divisible"] is True
        assert [m["divisible"] for m in rec["members"]] == [True] * 5

    def test_quadruple_rejection(self, capsys):
        code, _, err = run(capsys, "quadruple", "-n", "3", "-p", "3", "-k", "4")
        assert code == 1
        assert "gcd" in err

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "quadruple", "-n", "3", "-p", "3", "-k", "2",
                           "--verify", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[:3] == ["kind", "n", "k"]
        assert len(lines) == 5  # header + 4 members

    def test_csv_list_and_dict_cells_are_json(self, capsys):
        # each such cell reads back from csv.reader as the JSON record's field
        cases = [(["thm31", "-l", "7", "-n", "3", "-p", "5"], "hypotheses"),
                 (["classnum", "-D", "-23", "--with-forms"], "reduced_forms"),
                 (["tables"], "finite"), (["tables"], "families")]
        for argv, field in cases:
            code, out, _ = run(capsys, *argv, "--format", "json")
            assert code == 0
            want = json.loads(out)
            code, out, _ = run(capsys, *argv, "--format", "csv")
            assert code == 0
            header, row = csv.reader(io.StringIO(out))
            cells = dict(zip(header, row))
            assert isinstance(want[field], (list, dict)) and json.loads(cells[field]) == want[field]
            scalars = [f for f, v in want.items() if not isinstance(v, (list, dict))]
            assert all(cells[f] == str(want[f] if want[f] is not None else "") for f in scalars), argv

    def test_pi_tuple_lenient(self, capsys):
        code, out, _ = run(capsys, "tuples", "-n", "3", "-m", "6", "-k", "4",
                           "--mode", "lenient", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert len(rec["warnings"]) == 2

    def test_pi_tuple_strict_rejects(self, capsys):
        code, _, _ = run(capsys, "tuples", "-n", "3", "-m", "6", "-k", "4")
        assert code == 1

    def test_budget_exit_code(self, capsys):
        code, out, _ = run(capsys, "quadruple", "-n", "3", "-p", "3", "-k", "2",
                           "--verify", "--sf-budget", "100", "--format", "json")
        assert code == 2
        assert json.loads(out)["all_divisible"] is None

    def test_out_of_range_p_is_named(self, capsys):
        # used to say only that is_prime got a value past its proven bound
        p = "1000000000000000000000000000057"
        code, out, err = run(capsys, "quadruple", "-n", "3", "-k", "2", "-p", p)
        assert code == 3
        assert out == "" and err.startswith(f"invalid input: testing p = {p} for primality: ")

    def test_out_of_range_radicand_is_named(self, capsys):
        code, out, err = run(capsys, "quintuple", "-n", "9", "-k", "2")
        assert code == 3
        assert out == ""
        assert err.startswith("invalid input: decomposing the radicand at offset 36: ")

    def test_rho_budget_bounds_construction(self, capsys):
        # d + 100 keeps a cofactor past the member sieve that only rho splits
        code, out, err = run(capsys, "--rho-budget", "1", "quintuple", "-n", "5", "-k", "5")
        assert code == 2
        assert out == "" and "budget exhausted" in err


class TestVerifyCommand:
    def test_round_trip_through_file(self, capsys, tmp_path):
        code, out, _ = run(capsys, "quintuple", "-n", "3", "-k", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["all_divisible"] is None  # not verified yet
        src = tmp_path / "tuples.jsonl"
        src.write_text(out)
        code, out2, _ = run(capsys, "verify", str(src), "--format", "json")
        assert code == 0
        rec = json.loads(out2)
        assert rec["all_divisible"] is True
        assert rec["members"][0]["class_number"] == 3

    def test_csv_has_one_header_over_several_tuples(self, capsys, tmp_path):
        records = ""
        for argv in (["quadruple", "-n", "3", "-k", "2", "-p", "3"], ["quintuple", "-n", "3", "-k", "2"]):
            code, out, _ = run(capsys, *argv, "--format", "json")
            assert code == 0
            records += out
        src = tmp_path / "tuples.jsonl"
        src.write_text(records)
        code, out, _ = run(capsys, "verify", str(src), "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["kind", "n", "k", "ell", "d", "offset", "radicand", "squarefree_part",
                           "cofactor", "class_number", "divisible", "status"]
        assert len(rows) == 10 and rows[0] not in rows[1:]  # 4 + 5 members
        assert [r[0] for r in rows[1:]] == ["quadruple"] * 4 + ["quintuple"] * 5

    def test_malformed_input_exits_3_naming_the_line(self, capsys, tmp_path):
        _, good, _ = run(capsys, "quintuple", "-n", "3", "-k", "2", "--format", "json")
        rec = json.loads(good)
        tampered = json.loads(good)  # offset 1 swapped for Q(sqrt(-23)) used to verify, exit 0
        tampered["members"][1].update(radicand=-23, squarefree_part=-23, cofactor=1)
        bad_lines = {
            "tampered member": json.dumps(tampered),
            "malformed JSON": good[:40],
            "missing key": json.dumps({k: v for k, v in rec.items() if k != "members"}),
            "wrong type": json.dumps({**rec, "k": "2"}),
            "unknown schema": json.dumps({**rec, "schema": 7}),
            "boolean schema": json.dumps({**rec, "schema": True}),
            "float schema": json.dumps({**rec, "schema": 1.0}),
            "identities": json.dumps({**rec, "d": rec["d"] + 8}),
        }
        for why, bad in bad_lines.items():
            src = tmp_path / "batch.jsonl"
            src.write_text(good + bad + "\n")
            code, out, err = run(capsys, "verify", str(src), "--format", "json")
            assert code == 3, why
            assert json.loads(out)["all_divisible"] is True, why  # line 1 verified
            assert err.startswith("invalid input: line 2: "), why
            assert "Traceback" not in err, why

    def test_fabricated_hypotheses_are_not_echoed(self, capsys, tmp_path):
        _, good, _ = run(capsys, "quintuple", "-n", "3", "-k", "2", "--format", "json")
        rec = json.loads(good)
        src = tmp_path / "made_up.jsonl"
        src.write_text(json.dumps({**rec, "hypotheses": [{"check": "made up", "ok": True}],
                                   "warnings": ["made up"]}) + "\n")
        code, out, _ = run(capsys, "verify", str(src), "--format", "json")
        assert code == 0
        back = json.loads(out)
        assert back["hypotheses"] == rec["hypotheses"] and back["warnings"] == []
        assert "made up" not in out

    def test_record_with_a_composite_p_exits_3(self, capsys, tmp_path):
        # p = 7 swapped for 9 at offset 4*81; the record used to verify, exit 0,
        # still listing the checks for p = 7
        from iqtuples.arith import squarefree_decompose
        _, good, _ = run(capsys, "tuples", "-n", "3", "-m", "12", "-k", "2", "--format", "json")
        rec = json.loads(good)
        assert rec["p_list"] == [3, 5, 7, 11]
        dec = squarefree_decompose(rec["d"] + 4 * 81)
        rec["p_list"] = [3, 5, 9, 11]
        rec["members"][5].update(offset=4 * 81, radicand=dec.n, squarefree_part=dec.s,
                                 cofactor=dec.f)
        src = tmp_path / "nine.jsonl"
        src.write_text(good + json.dumps(rec) + "\n")
        code, out, err = run(capsys, "verify", str(src), "--format", "json")
        assert code == 3
        assert len(out.splitlines()) == 1  # line 1 verified
        assert err.startswith("invalid input: line 2: p must be an odd prime, got 9")

    def test_record_whose_p_fails_its_hypothesis_exits_3(self, capsys, tmp_path):
        # n = 3, k = 4: ell = 255 shares the factor 3 with p = 3, so quadruple
        # refuses it; a record with the right numbers used to verify anyway
        from iqtuples.arith import squarefree_decompose
        ell, d = 255, 4 * (1 - 4 * 4**3) ** 3
        members = []
        for off in (0, 1, 4, 36):
            dec = squarefree_decompose(d + off)
            members.append({"offset": off, "radicand": dec.n, "squarefree_part": dec.s,
                            "cofactor": dec.f, "class_number": None, "divisible": None,
                            "status": "pending"})
        rec = {"schema": 1, "kind": "quadruple", "n": 3, "k": 4, "ell": ell, "d": d,
               "p_list": [3], "hypotheses": [], "warnings": [], "members": members,
               "all_divisible": None}
        _, good, _ = run(capsys, "quadruple", "-n", "3", "-p", "3", "-k", "2", "--format", "json")
        src = tmp_path / "gcd.jsonl"
        src.write_text(good + "\n" + json.dumps(rec) + "\n")
        code, out, err = run(capsys, "verify", str(src), "--format", "json")
        assert code == 3
        assert len(out.splitlines()) == 1
        assert err.startswith("invalid input: line 3: p_list fails a hypothesis: gcd(ell, 3) = 1")

    def test_relabelled_quadruple_exits_3_naming_p_3(self, capsys, tmp_path):
        # quadruple(3, 7, 2) as a pi_tuple rebuilds with p_list [7], though
        # p = 3 and p = 5 pass every hypothesis; it used to verify, exit 0
        _, good, _ = run(capsys, "quadruple", "-n", "3", "-p", "7", "-k", "2", "--format", "json")
        src = tmp_path / "relabelled.jsonl"
        src.write_text(json.dumps({**json.loads(good), "kind": "pi_tuple"}) + "\n")
        code, out, err = run(capsys, "verify", str(src))
        assert code == 3
        assert out == "" and err == ("invalid input: line 1: p_list leaves out p = 3, "
                                     "which passes every hypothesis\n")

    def test_record_with_a_huge_n_is_refused_by_the_cap(self, capsys, tmp_path):
        _, good, _ = run(capsys, "quadruple", "-n", "3", "-p", "3", "-k", "2", "--format", "json")
        src = tmp_path / "huge_n.jsonl"
        src.write_text(json.dumps({**json.loads(good), "n": 10**9 + 1}) + "\n")
        code, out, err = run(capsys, "verify", str(src))
        assert code == 3
        assert out == "" and err.startswith("invalid input: line 1: ell^n = (4*k^n - 1)^n has over ")
        assert err.endswith(f"past the cap of {lrn.POWER_CAP_BITS}\n")

    def test_record_with_an_out_of_range_p_names_it(self, capsys, tmp_path):
        _, good, _ = run(capsys, "quadruple", "-n", "3", "-p", "3", "-k", "2", "--format", "json")
        p = 10**30 + 1
        src = tmp_path / "huge.jsonl"
        src.write_text(json.dumps({**json.loads(good), "p_list": [p]}) + "\n")
        code, out, err = run(capsys, "verify", str(src))
        assert code == 3
        assert out == "" and err.startswith(f"invalid input: line 1: testing p = {p} for primality: ")

    def test_input_that_is_not_utf8_exits_3(self, capsys, tmp_path):
        # used to end in a UnicodeDecodeError traceback with exit 1
        _, good, _ = run(capsys, "quadruple", "-n", "3", "-p", "3", "-k", "2", "--format", "json")
        src = tmp_path / "utf16.jsonl"
        src.write_bytes(good.encode() + b"\xff\xfe{\x00}\x00\n")
        code, out, err = run(capsys, "verify", str(src), "--format", "json")
        assert code == 3
        assert json.loads(out)["all_divisible"] is True  # line 1 verified
        assert err.startswith("invalid input: line 2: ")
        assert "utf-8" in err and "Traceback" not in err

    def test_input_nested_too_deep_exits_3(self, capsys, tmp_path):
        # used to end in a RecursionError traceback with exit 1
        _, good, _ = run(capsys, "quadruple", "-n", "3", "-p", "3", "-k", "2", "--format", "json")
        src = tmp_path / "deep.jsonl"
        for deep in ("[" * (sys.getrecursionlimit() + 1), '{"a": ' * 10**5):
            src.write_text(good + deep + "\n")
            code, out, err = run(capsys, "verify", str(src), "--format", "json")
            assert code == 3
            assert json.loads(out)["all_divisible"] is True  # line 1 verified
            assert err.startswith("invalid input: line 2: maximum recursion depth exceeded")
            assert "Traceback" not in err

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", str(tmp_path / "absent.jsonl"))
        assert code == 3
        assert out == "" and "absent.jsonl" in err


class TestTables:
    def test_dump_contains_entries(self, capsys):
        code, out, _ = run(capsys, "tables")
        assert code == 0
        assert "(14, -22)" in out
        code, out, _ = run(capsys, "tables", "--format", "json")
        rec = json.loads(out)
        assert rec["version"] == 1

    def test_membership_check(self, capsys):
        code, out, _ = run(capsys, "tables", "-t", "7", "-a", "14", "-b", "-22",
                           "--format", "json")
        assert json.loads(out)["in_table"] is True
        code, out, _ = run(capsys, "tables", "-t", "13", "-a", "1", "-b", "-19",
                           "--format", "json")
        assert json.loads(out)["in_table"] is False

    def test_membership_has_no_search_bounds(self, capsys):
        # (1 + u, 1 - 3u) at u = 100001, past the former default bound |u| <= 10^4
        code, out, _ = run(capsys, "tables", "-t", "3", "-a", "100002", "-b", "-300002",
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == {"command": "tables", "t": 3, "a": 100002, "b": -300002,
                                   "in_table": True}
        assert run(capsys, "tables", "-t", "3", "-a", "3", "-b", "-5", "--k-max", "9")[0] == 3
        assert run(capsys, "tables", "-t", "3", "-a", "3", "-b", "-5", "--u-max", "9")[0] == 3

    @pytest.mark.parametrize("flags", [["-t", "7"], ["-a", "14"], ["-b", "-22"], ["-t", "7", "-a", "14"],
                                       ["-t", "7", "-b", "-22"], ["-a", "14", "-b", "-22"]])
    def test_membership_flags_come_together(self, capsys, flags):
        # any of -t, -a and -b without the others is refused, never a dump of the table
        code, out, err = run(capsys, "tables", *flags)
        assert code == 3 and out == ""
        assert "table membership check needs -t, -a and -b together" in err


class TestHarness:
    def test_usage_error_exit_3(self, capsys):
        assert run(capsys, "no-such-command")[0] == 3
        assert run(capsys, "lehmer", "-a", "1")[0] == 3

    def test_flag_position_flexible(self, capsys):
        a = run(capsys, "--format", "json", "squarefree", "-m", "12")
        b = run(capsys, "squarefree", "-m", "12", "--format", "json")
        assert a == b

    def test_byte_identical_reruns(self, capsys):
        args = ("quintuple", "-n", "3", "-k", "2", "--verify", "--format", "json")
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second
        args = ("thm31", "-l", "7", "-n", "3", "-p", "5", "--format", "json")
        assert run(capsys, *args) == run(capsys, *args)

    def test_calls_share_no_arguments(self, capsys, tmp_path, monkeypatch):
        # the parser is built once per process; each call must still parse afresh
        _, quad, _ = run(capsys, "quadruple", "-n", "3", "-p", "3", "-k", "2", "--format", "json")
        _, quint, _ = run(capsys, "quintuple", "-n", "3", "-k", "2", "--format", "json")
        src = tmp_path / "quad.jsonl"
        src.write_text(quad)
        code, out, _ = run(capsys, "verify", str(src), "--format", "json", "--sf-budget", "100")
        assert code == 2 and json.loads(out)["kind"] == "quadruple"
        monkeypatch.setattr("sys.stdin", io.StringIO(quint))
        code, out, _ = run(capsys, "--rho-budget", "1000000", "verify")
        assert code == 0
        assert out.startswith("quintuple n=3 k=2 ") and "all divisible: True" in out

    def test_verbose_applies_to_each_call(self, capsys, caplog, monkeypatch):
        # logging.basicConfig is a no-op once the root logger has a handler
        monkeypatch.setattr(classno, "_PROGRESS_EVERY", 10)
        progress = []
        for argv in (["classnum"], ["-v", "classnum"], ["classnum"]):
            caplog.clear()
            assert run(capsys, *argv, "-D", "-100003")[0] == 0
            progress.append(sum(r.levelname == "INFO" and r.getMessage().startswith("form count")
                                for r in caplog.records))
        assert progress[0] == 0 and progress[1] > 0 and progress[2] == 0

    def test_verbose_is_set_from_the_argv_whatever_the_logger_had(self, capsys, caplog, monkeypatch):
        # main sets the iqtuples logger's level only when it differs from the
        # one asked for, comparing with the logger's own level: a level set
        # between two calls, by any other code, is undone
        logger = logging.getLogger("iqtuples")
        for order in (["-v", ""], ["", "-v"], ["", "", "-v", "-v", ""]):
            for flags in order:
                for had in (logging.NOTSET, logging.INFO, logging.WARNING):
                    logger.setLevel(had)
                    caplog.clear()
                    assert run(capsys, "classnum", "-D", "-23", *flags.split())[0] == 0
                    told = [r for r in caplog.records if r.levelname == "INFO"]
                    assert bool(told) == (flags == "-v"), (order, flags, had)
                    assert logger.level == (logging.INFO if flags else logging.WARNING)
        # an unchanged level is not set again
        monkeypatch.setattr(logger, "setLevel", _untouchable)
        assert run(capsys, "classnum", "-D", "-23")[0] == 0

    def test_a_budget_holds_for_its_own_command_only(self, capsys, monkeypatch):
        # |D| = 23 is past --sf-budget 10. A command's budgets are entered
        # where they differ from the ones in force, compared with those, so
        # none leaks into the next command or into the caller's context
        default = arith.Limits()
        for budget, code in ((None, 0), ("10", 2), (None, 0), ("10", 2), ("10", 2), (None, 0)):
            flags = () if budget is None else ("--sf-budget", budget)
            assert run(capsys, "classnum", "-D", "-23", *flags)[0] == code, flags
            assert arith._LIMITS.get() == default
            with arith.limits(sf_budget=10):
                assert run(capsys, "classnum", "-D", "-23", *flags)[0] == code, flags
                assert arith._LIMITS.get().sf_budget == 10
            with arith.limits(sf_budget=23):
                assert run(capsys, "classnum", "-D", "-23", "--sf-budget", "22")[0] == 2
        # the budgets in force are not built or checked again
        built = []
        monkeypatch.setattr(arith, "replace", lambda limits, **changes: built.append(changes)
                            or dataclasses.replace(limits, **changes))
        assert run(capsys, "classnum", "-D", "-23")[0] == 0
        assert built == []
        assert run(capsys, "classnum", "-D", "-23", "--sf-budget", "10")[0] == 2
        assert built == [{"rho_budget": default.rho_budget, "sf_budget": 10}]

    def test_negative_budgets_are_bad_input(self, capsys):
        for argv, want in (
            (["--sf-budget", "-1", "classnum", "-D", "-23"], "sf_budget must be >= 0, got -1"),
            (["--rho-budget", "-5", "quadruple", "-n", "3", "-p", "3", "-k", "2"],
             "rho_budget must be >= 0, got -5"),
            (["quintuple", "-n", "3", "-k", "2", "--verify", "--sf-budget", "-4"],
             "sf_budget must be >= 0, got -4"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (3, "", f"invalid input: {want}\n"), argv

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        # as when the spf table or pi_tuple's primes do not fit; nothing is allocated
        def sieve(m):
            raise MemoryError(f"Unable to allocate 43.0 GiB for an array with shape ({m},)")

        def primes_up_to(m):
            raise MemoryError()  # as a bytearray too large for the address space

        monkeypatch.setattr(classno, "_sieve", sieve)
        code, out, err = run(capsys, "classnum", "-D", "-4000003")  # above SIEVE_FROM
        assert code == 2 and out == ""
        assert err == ("budget exhausted: out of memory: Unable to allocate 43.0 GiB "
                       "for an array with shape (1154,)\n")
        monkeypatch.setattr(arith, "primes_up_to", primes_up_to)
        code, out, err = run(capsys, "tuples", "-n", "3", "-m", "100000000000", "-k", "2")
        assert code == 2 and out == ""
        assert err == "budget exhausted: out of memory: an allocation failed\n"

    def test_only_the_conversion_limit_is_caught(self, monkeypatch):
        # any other ValueError is a fault of the program, not of the input
        def lehmer_number(p, t):
            raise ValueError("not a conversion")

        monkeypatch.setattr(cli.lehmer, "lehmer_number", lehmer_number)
        with pytest.raises(ValueError, match="^not a conversion$"):
            cli.main(["lehmer", "-a", "5", "-b", "1", "-t", "3"])

    def test_walked_counts_import_no_numpy(self):
        # numpy doubles a fresh interpreter's start-up, so a count below
        # SIEVE_FROM, a listing or a construction without --verify at 4*ell^n
        # below 10007^3, where no member sieve is built, must not import it
        below = next(D for D in range(1 - classno.SIEVE_FROM, 0) if D % 4 in (0, 1))
        script = ("import sys\nfrom iqtuples import cli\n"
                  "assert cli.main(['quintuple', '-n', '3', '-k', '151']) == 1\n"  # 3 | ell
                  f"for argv in (['classnum', '-D', '-23'], ['classnum', '-D', '{below}'], "
                  "['classnum', '-D', '-39999', '--with-forms'], "
                  "['quadruple', '-n', '3', '-p', '3', '-k', '2']):\n"
                  "    assert cli.main(argv) == 0, argv\n"
                  "assert 'numpy' not in sys.modules\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_remembered_factorization_obeys_rho_budget(self, capsys):
        assert run(capsys, "quintuple", "-n", "5", "-k", "5")[0] == 0
        code, out, err = run(capsys, "--rho-budget", "1", "quintuple", "-n", "5", "-k", "5")
        assert code == 2 and out == "" and err.startswith("budget exhausted: ")

    def test_a_small_rho_budget_holds_in_process_and_one_shot(self, capsys):
        # d + 36 at (n, k) = (5, 5) keeps 36739225052363 = 4986169 * 7368227
        # past trial division. The member sieve of 4N finds both primes, so no
        # rho step runs, whether or not the process had imported numpy
        argv = ["quadruple", "-n", "5", "-p", "3", "-k", "5", "--rho-budget", "1023"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "iqtuples", *argv],
                              env=env, capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, out, "")

    def test_verify_batch_splits_each_radicand_once(self, capsys, tmp_path, monkeypatch):
        # at (n, k) = (3, 100) offsets 0, 1 and 4 are common to every p, and
        # the offset-1 radicand keeps 2693237 * 442106202089 past the member
        # sieve to split (so does p = 11's own member)
        records = [families.to_json_line(families.quadruple(3, p, 100)) for p in (5, 7, 11, 13)]
        split = []
        split_one = arith._split

        def recording(n, budget, sieved):
            split.append(n)
            return split_one(n, budget, sieved)

        monkeypatch.setattr(arith, "_split", recording)
        alone, alone_splits, alone_total = [], Counter(), 0
        for i, line in enumerate(records):
            arith._member_memo.clear()
            classno._h_memo.clear()
            split.clear()
            src = tmp_path / f"one{i}.jsonl"
            src.write_text(line + "\n")
            alone.append(run(capsys, "verify", str(src), "--format", "json")[:2])
            alone_splits |= Counter(split)  # the most times one record split each n
            alone_total += len(split)
        arith._member_memo.clear()
        classno._h_memo.clear()
        split.clear()
        src = tmp_path / "batch.jsonl"
        src.write_text("".join(line + "\n" for line in records))
        code, out, _ = run(capsys, "verify", str(src), "--format", "json")
        assert code == max(c for c, _ in alone)
        assert out == "".join(o for _, o in alone)
        assert Counter(split) == alone_splits
        assert len(split) < alone_total

    def test_verify_factors_nothing_once_built(self, capsys, monkeypatch):
        # the member at offset 4 has radicand -255808047896 = 8 * -31976005987
        # and square-free part -63952011974 = 2 * -31976005987; verify_tuple
        # takes each square-free part as built and splits nothing again
        verify_tuple = families.verify_tuple

        def verify_unfactored(t):
            monkeypatch.setattr(arith, "_cofactor_parts", _untouchable)
            monkeypatch.setattr(arith, "_brent_rho", _untouchable)
            return verify_tuple(t)

        monkeypatch.setattr(families, "verify_tuple", verify_unfactored)
        code, out, _ = run(capsys, "quadruple", "-n", "3", "-p", "5", "-k", "10", "--verify",
                           "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["all_divisible"] is True
        assert -63952011974 in (m["squarefree_part"] for m in rec["members"])

    def test_no_rho_below_the_cube_of_10007(self, capsys):
        # 4N = 2.56*10^11: every member's cofactor past trial division is
        # below 10007^3, so one isqrt settles it, with numpy loaded or not
        argv = ["quadruple", "-n", "3", "-p", "5", "-k", "10", "--rho-budget", "0"]
        assert run(capsys, *argv)[0] == 0
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "iqtuples", *argv],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_verbose_names_sieve_and_power_splits(self, capsys, caplog):
        sieved = "61887126757805598613499"  # 149383678981 * 414283054079
        power = str(12 * 10007**3)
        for m, said in ((sieved, "quadratic sieve split a 76-bit cofactor: "),
                        (power, f"factoring {power}: the cofactor {10007**3} is a power 10007^3")):
            outs, told = [], []
            for argv in (["squarefree"], ["-v", "squarefree"]):
                caplog.clear()
                code, out, _ = run(capsys, *argv, "-m", m)
                assert code == 0
                outs.append(out)
                told.append(sum(r.levelname == "INFO" and r.getMessage().startswith(said)
                                for r in caplog.records))
            assert outs[0] == outs[1]
            assert told == [0, 1]

    def test_threads_flag_is_gone(self, capsys):
        assert run(capsys, "--threads", "2", "squarefree", "-m", "12")[0] == 3

    def test_a_repeated_command_proves_nothing_again(self, capsys, large_proofs):
        argv = ("quadruple", "-n", "3", "-p", "5", "-k", "150", "--format", "json")
        first = run(capsys, *argv)
        assert large_proofs
        large_proofs.clear()
        assert run(capsys, *argv) == first
        assert large_proofs == []

    def test_python_dash_m_runs_the_cli(self, capsys):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "iqtuples", "tables", "--format", "json"],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == run(capsys, "tables", "--format", "json")[1]


def _parse(parse, argv):
    """vars of parse(argv) with a file argument by its name, or the usage error as main prints it."""
    try:
        args = vars(parse(argv))
    except cli._UsageError as e:
        return f"usage error: {e}"
    if args.get("file") not in (None, sys.stdin):
        args["file"].close()
        args["file"] = args["file"].name
    return args


def _whole_parser_unused(*args):
    raise AssertionError("a valid command went through the whole parser")


class TestParseArgv:
    COMMANDS = (
        ["classnum", "-D", "-23", "--method", "dirichlet"],
        ["classnum", "-d", "-31", "--with-forms"],
        ["squarefree", "-m", "-12"],
        ["lehmer", "-a", "1", "-b", "-3", "-t", "5"],
        ["pdiv", "-a", "1", "-b", "-3", "-t", "5"],
        ["lrn-solve", "-d", "7", "-l", "11", "--z-max", "3", "--method", "both"],
        ["thm31", "-l", "7", "-n", "3", "-p", "5"],
        ["quadruple", "-n", "3", "-p", "5", "-k", "2", "--verify"],
        ["quintuple", "-n", "3", "-k", "2"],
        ["tuples", "-n", "3", "-m", "12", "-k", "2", "--mode", "lenient"],
        ["verify"],
        ["tables", "-t", "7", "-a", "14", "-b", "-22"],
    )
    # shared flags as the tables read them: spelt out, repeated (the last one
    # wins) and with a value like a negative number
    SHARED = ([], ["--format", "json"], ["--rho-budget", "1000", "-v"], ["--rho-budget", "-5"],
              ["--verbose", "--sf-budget", "7", "--format", "text"],
              ["--format", "csv", "-v", "--format", "json", "--verbose"])
    # shared flags the tables leave to the whole parser: abbreviated, or with =
    WHOLE = (["--sf-budget=99"], ["--form", "csv"], ["--rho", "-5"], ["--verb"])
    # every argv shape the benchmark workloads send (perfbench/workloads.py
    # and worker.py's sweep windows)
    WORKLOADS = (
        ["quadruple", "-n", "3", "-p", "5", "-k", "2", "--verify", "--format", "json"],
        ["quintuple", "-n", "3", "-k", "2", "--verify", "--format", "json"],
        ["tuples", "-n", "3", "-m", "13", "-k", "2", "--mode", "lenient", "--verify",
         "--format", "json"],
        ["verify", "--format", "json"],
        ["thm31", "-l", "7", "-n", "3", "-p", "5", "--format", "json"],
        ["classnum", "-D", "-123451", "--method", "dirichlet", "--format", "json"],
        ["classnum", "-D", "-123451", "--method", "forms", "--format", "json"],
        ["tuples", "-n", "3", "-m", "13", "-k", "12", "--mode", "strict", "--format", "json"],
        ["quintuple", "-n", "3", "-k", "13", "--format", "json"],
        ["quadruple", "-n", "3", "-p", "3", "-k", "12", "--format", "json"],
    )

    def test_equals_the_whole_parser(self, tmp_path, monkeypatch):
        src = tmp_path / "in.jsonl"
        src.write_text("")
        commands = self.COMMANDS + self.WORKLOADS + (["verify", str(src)], ["verify", "-v", str(src)])
        assert {c[0] for c in commands} == set(cli._parsers()[2])
        whole = cli.build_parser().parse_args
        tabled = [b + c + a for b in self.SHARED for c in commands for a in self.SHARED]
        by_whole = [b + c + a for b in self.SHARED + self.WHOLE for c in commands
                   for a in self.SHARED + self.WHOLE if b in self.WHOLE or a in self.WHOLE]
        # past "--" every token is an argument, a shared flag too
        by_whole += [b + ["verify", "--", str(src)] for b in self.SHARED + self.WHOLE]
        wants = [(argv, _parse(whole, argv)) for argv in tabled + by_whole]
        assert all(isinstance(want, dict) for _, want in wants)
        for argv, want in wants[len(tabled):]:
            assert cli._from_tables(argv) is None, argv
            assert _parse(cli.parse_argv, argv) == want, argv
        monkeypatch.setattr(cli.build_parser(), "parse_args", _whole_parser_unused)
        for argv, want in wants[:len(tabled)]:
            assert _parse(cli.parse_argv, argv) == want, argv

    def test_values_at_argparse_edges(self, capsys):
        # argparse reads " -3", "-3\n" (its negative-number pattern ends in $)
        # and "-١٢" (\d is any Unicode digit) as values, and int() takes
        # them, as it takes "1_000"; "-0x10", "--5" and "-1_000" are options
        # to argparse, so the flag before them has no value. Each reads as
        # the whole parser reads it; the tables answer the values argparse takes
        whole = cli.build_parser().parse_args
        taken = (" -3", "-3\n", "-١٢", "1_000", "-7")
        for value in taken + ("-0x10", "--5", "-1_000", "-", "", "-.5", "1.5", "0x10", "-3 "):
            for argv in (["classnum", "-D", value], ["--rho-budget", value, "classnum", "-D", "-3"],
                         ["classnum", "-D", "-3", "--sf-budget", value, "--format", "json"]):
                want = _parse(whole, argv)
                assert _parse(cli.parse_argv, argv) == want, argv
                assert (cli._from_tables(argv) is not None) == (value in taken), argv
                if value in taken:
                    assert isinstance(want, dict), argv
        # a repeated flag: the last one wins, both in the tables and argparse
        argv = ["classnum", "-D", "-3", "--method", "dirichlet", "-D", "-7", "--method", "forms"]
        assert vars(cli._from_tables(argv)) == vars(whole(argv))
        assert (whole(argv).D, whole(argv).method) == (-7, "forms")
        # -h after a valid command prints the subcommand's help and exits 0
        for argv in (["classnum", "-D", "-3", "-h"], ["verify", "--format", "json", "--help"]):
            assert cli._from_tables(argv) is None
            with pytest.raises(SystemExit) as parsed:
                whole(argv)
            want = capsys.readouterr().out
            with pytest.raises(SystemExit) as ran:
                cli.main(argv)
            assert parsed.value.code == ran.value.code == 0, argv
            assert capsys.readouterr().out == want and want.startswith("usage: iqtuples"), argv

    def test_verify_without_a_file_reads_stdin(self, monkeypatch):
        # the default "-" passes through FileType when the command runs, as in argparse
        argv = ["verify", "--format", "json"]
        for stdin in (io.StringIO(""), io.StringIO("")):
            monkeypatch.setattr("sys.stdin", stdin)
            args = cli._from_tables(argv)
            assert args.file is stdin and vars(args) == vars(cli.build_parser().parse_args(argv))

    def test_defaults_are_a_fresh_copy(self):
        # no two calls share a Namespace, nor one with the tables' defaults
        whole = cli.build_parser().parse_args
        for before in ([], ["--format", "json"]):
            argv = before + ["classnum", "-D", "-123451", "--method", "dirichlet"]
            first, second = cli.parse_argv(argv), cli.parse_argv(argv)
            assert first == second == whole(argv) and first is not second, argv
            first.format, first.verbose, first.d = "csv", True, 5
            assert cli.parse_argv(argv) == second == whole(argv), argv

    def test_refused_argv_reads_as_before(self, capsys):
        for argv in (
            ["--bogus", "classnum", "-D", "-3"],
            ["classnum", "-D", "-3", "--bogus"],
            ["--bogus", "classnum", "-D", "-3", "--also-bogus"],
            ["classnum", "-D", "-3", "--method", "sum"],
            ["--format", "xml", "classnum", "-D", "-3"],
            [],
            ["--format", "json"],
            ["-5", "classnum", "-D", "-3"],
            ["--format", "tables"],
            ["--format", "tables", "tables"],
            ["--rho-budget", "verify", "classnum", "-D", "-3"],
            ["--rho-budget"],
            ["--", "classnum", "-D", "-3"],
            ["classnum", "--", "-D", "-3"],
            ["--format", "json", "--", "verify"],
            ["lehmer", "-a", "1"],
            ["no-such-command"],
        ):
            want = _parse(cli.build_parser().parse_args, argv)
            assert want.startswith("usage error: "), argv
            assert _parse(cli.parse_argv, argv) == want, argv
            assert run(capsys, *argv) == (3, "", want + "\n"), argv

    def test_help_exits_0(self, capsys):
        for argv in (["classnum", "-h"], ["-h"], ["-h", "classnum"], ["--format", "json", "--help"],
                     ["--format", "json", "tables", "--help"]):
            with pytest.raises(SystemExit) as parsed:
                cli.build_parser().parse_args(argv)
            want = capsys.readouterr().out
            with pytest.raises(SystemExit) as ran:
                cli.main(argv)
            assert parsed.value.code == ran.value.code == 0, argv
            assert capsys.readouterr().out == want and want.startswith("usage: iqtuples"), argv
