"""tools/dirichlet_replay.py's check of the h both sides return, its shapes and its exit code."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import dirichlet_replay  # noqa: E402
from dirichlet_replay import check, shape  # noqa: E402

DS = [-23, -999983, -994840]
GOOD = [3, 1171, 256]


def test_identical_h_pass():
    assert check(DS, {"base": [GOOD, GOOD], "root": [GOOD, GOOD, GOOD]}) == []


def test_a_side_that_moves_between_its_own_passes_is_named():
    moved = [3, 1171, 255]
    problems = check(DS, {"base": [GOOD, GOOD], "root": [GOOD, moved]})
    assert problems == ["root: h differs between its own passes on 1 of 3 D, the first -994840"]


def test_d_where_the_sides_differ_are_named():
    other = [3, 1173, 258]
    problems = check(DS, {"base": [GOOD, GOOD], "root": [other, other]})
    assert problems == ["the sides differ on 2 of 3 D, the first -999983: base h = 1171, "
                        "root h = 1173"]


def test_every_fault_is_named_at_once():
    problems = check(DS, {"base": [GOOD, [3, 1171, 1]], "root": [[5, 1171, 256]] * 2})
    assert [p.split(":")[0] for p in problems] == [
        "base", "the sides differ on 1 of 3 D, the first -23"]


def test_shapes_split_at_the_largest_odd_prime():
    # -999983 is prime; -3 * 65537 has q = 65537 > 443; -994840 = -8*5*7*11*17*19
    # has q = 19; -8 has no odd prime
    assert [shape(D) for D in (-23, -999983, -3 * 65537, -994840, -8, -4 * 7 * 11)] == [
        "prime", "prime", "q>sqrt", "q<sqrt", "q<sqrt", "q<sqrt"]


def _main(monkeypatch, capsys, passes):
    monkeypatch.setattr(dirichlet_replay, "record", lambda *args: DS)
    monkeypatch.setattr(dirichlet_replay, "replay", lambda Ds, sides, steps: (
        {s: [[0.002, 0.001, 0.001]] * 2 for s in passes}, passes))
    code = dirichlet_replay.main(["--base", "."])
    return code, capsys.readouterr().out.splitlines()


def test_main_exits_1_naming_each_fault(monkeypatch, capsys):
    code, out = _main(monkeypatch, capsys, {"base": [GOOD, GOOD], "root": [GOOD, GOOD]})
    assert code == 0 and out[-1] == "h: identical on both sides in every pass"
    assert "| 1e5 | prime | 1 | 1.00 / 1.00 | 1.00 / 1.00 | 1.000 |" in out
    moved = [3, 1171, 255]
    for root, named in (([GOOD, moved], "root: h differs between its own passes"),
                        ([moved, moved], "the sides differ on 1 of 3 D")):
        code, out = _main(monkeypatch, capsys, {"base": [GOOD, GOOD], "root": root})
        assert code == 1 and any(line.startswith(f"h: {named}") for line in out), out
        assert "h: identical on both sides in every pass" not in out
