"""tools/replay.py: each layer's check of the results both sides return, the recorder, the shapes, the exit code."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import output_digest  # noqa: E402
import replay  # noqa: E402
from replay import check, shape  # noqa: E402

from iqtuples import arith, classno  # noqa: E402

NS = [15 * 10007, 10007 * 10009, 10009 * 10037]
GOOD = [10007, 10009, 10037]
DS = [-23, -999983, -994840]
H = [3, 1171, 256]


def test_identical_proper_divisors_pass():
    assert check("qs", NS, {"base": [GOOD, GOOD], "root": [GOOD, GOOD, GOOD]}) == []


def test_none_is_not_a_wrong_divisor():
    gave_up = [10007, None, 10037]
    assert check("qs", NS, {"base": [gave_up] * 2, "root": [gave_up] * 2}) == []


def test_a_side_whose_divisors_move_between_its_own_passes_is_named():
    moved = [10007, 10007, 10037]  # a proper divisor still, in the second pass only
    problems = check("qs", NS, {"base": [GOOD, GOOD], "root": [GOOD, moved]})
    assert problems == [f"root: divisors differ between its own passes on 1 of 3 cofactors, "
                        f"the first {NS[1]}"]


def test_cofactors_where_the_sides_differ_are_named():
    other = [15, 10009, 10009]  # proper divisors too, other ones
    problems = check("qs", NS, {"base": [GOOD, GOOD], "root": [other, other]})
    assert problems == [f"the sides differ on 2 of 3 cofactors, the first {NS[0]}: "
                        f"base 10007, root 15"]


def test_a_divisor_that_is_not_proper_is_named():
    for wrong in (1, NS[2], 10039, 0):
        bad = GOOD[:2] + [wrong]
        problems = check("qs", NS, {"base": [bad, bad], "root": [bad, bad]})
        assert problems == [f"{side}: 1 divisors are not proper divisors of their cofactor, "
                            f"the first {wrong} of {NS[2]}" for side in ("base", "root")], wrong


def test_every_divisor_fault_is_named_at_once():
    problems = check("qs", NS, {"base": [GOOD, [10007, 10009, 1]], "root": [[1, 10009, 10037]] * 2})
    assert [p.split(":")[0] for p in problems] == [
        "base", "base", "root", f"the sides differ on 1 of 3 cofactors, the first {NS[0]}"]


def test_identical_h_pass():
    assert check("dirichlet", DS, {"base": [H, H], "root": [H, H, H]}) == []


def test_a_side_whose_h_move_between_its_own_passes_is_named():
    moved = [3, 1171, 255]
    problems = check("dirichlet", DS, {"base": [H, H], "root": [H, moved]})
    assert problems == ["root: h differs between its own passes on 1 of 3 D, the first -994840"]


def test_d_where_the_sides_differ_are_named():
    other = [3, 1173, 258]
    problems = check("dirichlet", DS, {"base": [H, H], "root": [other, other]})
    assert problems == ["the sides differ on 2 of 3 D, the first -999983: base h = 1171, "
                        "root h = 1173"]


def test_every_h_fault_is_named_at_once():
    # h is no divisor of D, and is not checked as one
    problems = check("dirichlet", DS, {"base": [H, [3, 1171, 1]], "root": [[5, 1171, 256]] * 2})
    assert [p.split(":")[0] for p in problems] == [
        "base", "the sides differ on 1 of 3 D, the first -23"]


def test_shapes_split_at_the_largest_odd_prime():
    # -999983 is prime; -3 * 65537 has q = 65537 > 443; -994840 = -8*5*7*11*17*19
    # has q = 19; -8 has no odd prime
    assert [shape(D) for D in (-23, -999983, -3 * 65537, -994840, -8, -4 * 7 * 11)] == [
        "prime", "prime", "q>sqrt", "q<sqrt", "q<sqrt", "q<sqrt"]


def test_the_recorder_wraps_the_layers_function_while_the_workload_runs(monkeypatch):
    # each distinct input once, in the order first received, and the
    # function put back after
    asked = []

    def runner(root):
        def run(workload, seed, seconds):
            asked.append((root, workload, seed, seconds))
            for D in (-23, -999983, -23, -4):
                classno.class_number_dirichlet(D)
            arith._quadratic_sieve(10007 * 10009)
        return run

    monkeypatch.setattr(output_digest, "runner", runner)
    function = classno.class_number_dirichlet
    assert replay.record("dirichlet", Path("."), "sweep", 3, 30) == [-23, -999983, -4]
    assert asked == [(Path("."), "sweep", 3, 30)] and classno.class_number_dirichlet is function
    assert replay.record("qs", Path("."), "construct", 1, 30) == [10007 * 10009]


def _main(monkeypatch, capsys, layer, xs, passes, seconds):
    monkeypatch.setattr(replay, "record", lambda *args: xs)
    monkeypatch.setattr(replay, "replay", lambda layer, xs, sides, steps: (
        {s: [seconds] * len(passes[s]) for s in passes}, passes))
    code = replay.main(["--layer", layer, "--base", "."])
    return code, capsys.readouterr().out.splitlines()


def test_qs_main_exits_1_naming_each_fault(monkeypatch, capsys):
    seconds = [0.05, 0.1, 0.05]  # a pass of 0.2 s
    code, out = _main(monkeypatch, capsys, "qs", NS, {"base": [GOOD, GOOD], "root": [GOOD, GOOD]},
                      seconds)
    assert code == 0 and out[-1] == "divisors: identical on both sides in every pass"
    assert out[0] == "construct seed 1: 3 cofactors, 18-27 bits"
    assert out[1].startswith("base ") and out[1].endswith(": min 0.200 s, median 0.200 s over 2 passes")
    assert out[3] == "median per-step ratio root/base: 1.000 (range 1.000-1.000)"
    moved = [10007, 10007, 10037]
    for root, named in (([GOOD, moved], "root: divisors differ between its own passes"),
                        ([moved, moved], "the sides differ on 1 of 3 cofactors"),
                        ([[1, 10009, 10037]] * 2, "root: 1 divisors are not proper")):
        code, out = _main(monkeypatch, capsys, "qs", NS, {"base": [GOOD, GOOD], "root": root},
                          seconds)
        assert code == 1 and any(line.startswith(f"divisors: {named}") for line in out), out
        assert "divisors: identical on both sides in every pass" not in out


def test_dirichlet_main_exits_1_naming_each_fault(monkeypatch, capsys):
    seconds = [0.002, 0.001, 0.001]
    code, out = _main(monkeypatch, capsys, "dirichlet", DS, {"base": [H, H], "root": [H, H]},
                      seconds)
    assert code == 0 and out[-1] == "h: identical on both sides in every pass"
    assert out[0] == "sweep seed 1: 3 fundamental D, |D| 23-999983"
    assert "| 1e5 | prime | 1 | 1.00 / 1.00 | 1.00 / 1.00 | 1.000 |" in out
    moved = [3, 1171, 255]
    for root, named in (([H, moved], "root: h differs between its own passes"),
                        ([moved, moved], "the sides differ on 1 of 3 D")):
        code, out = _main(monkeypatch, capsys, "dirichlet", DS, {"base": [H, H], "root": root},
                          seconds)
        assert code == 1 and any(line.startswith(f"h: {named}") for line in out), out
        assert "h: identical on both sides in every pass" not in out


def test_a_layer_never_called_exits_0(monkeypatch, capsys):
    code, out = _main(monkeypatch, capsys, "qs", [], {}, [])
    assert code == 0 and out == ["construct seed 1: the quadratic sieve was never called"]
