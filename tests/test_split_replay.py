"""tools/split_replay.py's check of the divisors both sides return, and its exit code."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import split_replay  # noqa: E402
from split_replay import check  # noqa: E402

NS = [15 * 10007, 10007 * 10009, 10009 * 10037]
GOOD = [10007, 10009, 10037]


def test_identical_proper_divisors_pass():
    assert check(NS, {"base": [GOOD, GOOD], "root": [GOOD, GOOD, GOOD]}) == []


def test_none_is_not_a_wrong_divisor():
    gave_up = [10007, None, 10037]
    assert check(NS, {"base": [gave_up] * 2, "root": [gave_up] * 2}) == []


def test_a_side_that_moves_between_its_own_passes_is_named():
    moved = [10007, 10007, 10037]  # a proper divisor still, in the second pass only
    problems = check(NS, {"base": [GOOD, GOOD], "root": [GOOD, moved]})
    assert problems == [f"root: divisors differ between its own passes on 1 of 3 cofactors, "
                        f"the first {NS[1]}"]


def test_cofactors_where_the_sides_differ_are_named():
    other = [15, 10009, 10009]  # proper divisors too, other ones
    problems = check(NS, {"base": [GOOD, GOOD], "root": [other, other]})
    assert problems == [f"the sides differ on 2 of 3 cofactors, the first {NS[0]}: "
                        f"base 10007, root 15"]


def test_a_divisor_that_is_not_proper_is_named():
    for wrong in (1, NS[2], 10039, 0):
        bad = GOOD[:2] + [wrong]
        problems = check(NS, {"base": [bad, bad], "root": [bad, bad]})
        assert problems == [f"{side}: 1 divisors are not proper divisors of their cofactor, "
                            f"the first {wrong} of {NS[2]}" for side in ("base", "root")], wrong


def test_every_fault_is_named_at_once():
    problems = check(NS, {"base": [GOOD, [10007, 10009, 1]], "root": [[1, 10009, 10037]] * 2})
    assert [p.split(":")[0] for p in problems] == [
        "base", "base", "root", f"the sides differ on 1 of 3 cofactors, the first {NS[0]}"]


def _main(monkeypatch, capsys, passes):
    monkeypatch.setattr(split_replay, "record", lambda *args: NS)
    monkeypatch.setattr(split_replay, "replay",
                        lambda ns, sides, steps: ({s: [0.2, 0.1] for s in passes}, passes))
    code = split_replay.main(["--base", "."])
    return code, capsys.readouterr().out.splitlines()


def test_main_exits_1_naming_each_fault(monkeypatch, capsys):
    code, out = _main(monkeypatch, capsys, {"base": [GOOD, GOOD], "root": [GOOD, GOOD]})
    assert code == 0 and out[-1] == "divisors: identical on both sides in every pass"
    moved = [10007, 10007, 10037]
    for root, named in (([GOOD, moved], "root: divisors differ between its own passes"),
                        ([moved, moved], "the sides differ on 1 of 3 cofactors"),
                        ([[1, 10009, 10037]] * 2, "root: 1 divisors are not proper")):
        code, out = _main(monkeypatch, capsys, {"base": [GOOD, GOOD], "root": root})
        assert code == 1 and any(line.startswith(f"divisors: {named}") for line in out), out
        assert "divisors: identical on both sides in every pass" not in out
