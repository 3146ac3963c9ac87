import csv
import io
import json
from collections import Counter

from iqtuples import arith, classno, cli, families


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


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

    def test_too_long_to_print_power_is_named_by_size(self, capsys):
        # 7^6001 has more decimal digits than Python converts to a string
        code, out, err = run(capsys, "thm31", "-l", "7", "-n", "6001", "-p", "3")
        assert code == 3 and out == ""
        assert err.startswith("invalid input: decomposing 4(p^2 - ell^n) = a 16849-bit integer: ")
        assert "Traceback" not in err


class TestTuples:
    def test_too_long_to_print_radicand_is_named_by_size(self, capsys):
        code, out, err = run(capsys, "quadruple", "-n", "2001", "-k", "2", "-p", "3")
        assert code == 3 and out == ""
        assert err.startswith("invalid input: decomposing the radicand at offset 36: ")
        assert "-bit integer" in err and "Traceback" not in err

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
        code, out, err = run(capsys, "--rho-budget", "1", "quintuple", "-n", "7", "-k", "2")
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
        assert rows[0] == list(families.CSV_FIELDS)
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

    def test_remembered_factorization_obeys_rho_budget(self, capsys):
        assert run(capsys, "quintuple", "-n", "7", "-k", "2")[0] == 0
        code, out, err = run(capsys, "--rho-budget", "1", "quintuple", "-n", "7", "-k", "2")
        assert code == 2 and out == "" and err.startswith("budget exhausted: ")

    def test_verify_batch_splits_each_radicand_once(self, capsys, tmp_path, monkeypatch):
        # at (n, k) = (3, 16) offsets 0, 1 and 4 are common to every p, and
        # the offset-1 radicand needs rho (so does p = 11's own member)
        records = [families.to_json_line(families.quadruple(3, p, 16)) for p in (5, 7, 11, 13)]
        split = []
        brent_rho = arith._brent_rho

        def recording(n, budget):
            split.append(n)
            return brent_rho(n, budget)

        monkeypatch.setattr(arith, "_brent_rho", recording)
        alone, alone_splits, alone_total = [], Counter(), 0
        for i, line in enumerate(records):
            arith._rho_memo.clear()
            classno._h_memo.clear()
            split.clear()
            src = tmp_path / f"one{i}.jsonl"
            src.write_text(line + "\n")
            alone.append(run(capsys, "verify", str(src), "--format", "json")[:2])
            alone_splits |= Counter(split)  # the most times one record split each n
            alone_total += len(split)
        arith._rho_memo.clear()
        classno._h_memo.clear()
        split.clear()
        src = tmp_path / "batch.jsonl"
        src.write_text("".join(line + "\n" for line in records))
        code, out, _ = run(capsys, "verify", str(src), "--format", "json")
        assert code == max(c for c, _ in alone)
        assert out == "".join(o for _, o in alone)
        assert Counter(split) == alone_splits
        assert len(split) < alone_total

    def test_threads_flag_is_gone(self, capsys):
        assert run(capsys, "--threads", "2", "squarefree", "-m", "12")[0] == 3
