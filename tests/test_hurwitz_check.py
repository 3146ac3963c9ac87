"""tools/hurwitz_check.py: both sides over the production counts, and its exit code."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import hurwitz_check  # noqa: E402

from iqtuples import classno  # noqa: E402
from iqtuples.classno import ClassNumberResult  # noqa: E402

N = 100009  # 4N is a square mod 9, 25 and 49


def test_the_sides_balance_at_100009(capsys):
    assert hurwitz_check.main([str(N)]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith(f"N = {N}: sum of H = ") and ", equal (" in line
    left = line.split("sum of H = ")[1].split(",")[0]
    assert line.split("min(d, N/d) = ")[1].startswith(f"{left}, ")


def test_one_count_off_by_one_exits_1(monkeypatch, capsys):
    forms = classno.class_number_forms
    off = -4 * N  # t = 0, f = 1

    def counted(D, with_forms=False):
        res = forms(D, with_forms)
        return ClassNumberResult(D, res.h + 1, res.method) if D == off else res

    monkeypatch.setattr(classno, "class_number_forms", counted)
    assert hurwitz_check.main(["1", str(N)]) == 1
    first, second = capsys.readouterr().out.splitlines()
    assert first.startswith("N = 1: ") and ", equal (" in first
    assert second.startswith(f"N = {N}: ") and ", DIFFER (" in second
