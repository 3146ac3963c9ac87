"""tools/bench_pairs.py's summary of paired benchmark runs."""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402
from bench_pairs import layer_rows, quartiles, schedule, summarise  # noqa: E402


def test_lower_is_better():
    parent = [10.0, 12.0, 11.0, 13.0, 14.0]
    change = [9.0, 12.0, 10.0, 14.0, 8.0]
    s = summarise(parent, change, "lower", 0.25)
    assert s["parent"] == (12.0, 11.0, 13.0)  # median, then the inclusive quartiles
    assert s["change"] == (10.0, 9.0, 12.0)
    assert s["wins"] == 3  # pairs 1, 3 and 5; a tie (pair 2) is no win
    assert s["ratio"] == pytest.approx(10 / 12 - 1)
    assert s["gap_iqr"] == pytest.approx((12 - 10) / (13 - 11))


def test_higher_is_better_flips_wins_and_gap():
    parent = [10.0, 12.0, 11.0, 13.0, 14.0]
    change = [9.0, 12.0, 10.0, 14.0, 8.0]
    s = summarise(parent, change, "higher", 0.25)
    assert s["wins"] == 1  # pair 4 alone
    assert s["gap_iqr"] == pytest.approx(-(12 - 10) / (13 - 11))


def test_quartiles_interpolate_between_values():
    s = summarise([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], "lower", 0.25)
    assert s["parent"] == (2.5, 1.75, 3.25)
    assert s["wins"] == 0 and s["gap_iqr"] == 0


def test_zero_iqr():
    assert summarise([5.0, 5.0, 5.0], [5.0, 5.0, 5.0], "lower", 0.25)["gap_iqr"] == 0
    assert summarise([5.0, 5.0, 5.0], [4.0, 4.0, 4.0], "lower", 0.25)["gap_iqr"] == math.inf
    assert summarise([5.0, 5.0, 5.0], [4.0, 4.0, 4.0], "higher", 0.25)["gap_iqr"] == -math.inf


def test_rejects_unpaired_or_unknown():
    with pytest.raises(ValueError):
        summarise([1.0, 2.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        summarise([1.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        summarise([1.0, 2.0], [1.0, 2.0], "smaller", 0.25)


def test_schedule_runs_consecutive_seeds_from_the_first():
    assert schedule(11, 4) == [(11, ("change", "parent")), (12, ("parent", "change")),
                               (13, ("change", "parent")), (14, ("parent", "change"))]
    assert [seed for seed, _ in schedule(1, 10)] == list(range(1, 11))


def test_odd_pairs_run_the_change_first_whatever_the_first_seed():
    # the first pair runs the change first even from an even seed
    assert schedule(2, 3) == [(2, ("change", "parent")), (3, ("parent", "change")),
                              (4, ("change", "parent"))]


def test_verdict_gain_needs_nine_tenths_and_a_gap_past_the_iqr():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    change = [p - 3 for p in parent]  # wins 10/10, gap 3 over IQR 2
    assert summarise(parent, change, "lower", 0.25)["verdict"] == "gain"
    assert summarise(parent, change[:9] + [15.0], "lower", 0.25)["verdict"] == "gain"  # 9/10
    nine_less = change[:8] + [15.0, 15.0]  # 8/10
    assert summarise(parent, nine_less, "lower", 0.25)["wins"] == 8
    assert summarise(parent, nine_less, "lower", 0.25)["verdict"] == ""
    close = [p - 0.5 for p in parent]  # wins 10/10, gap 0.5 over IQR 2
    assert summarise(parent, close, "lower", 0.25)["verdict"] == ""
    assert summarise(change, parent, "higher", 0.25)["verdict"] == "gain"


def test_verdict_worse_past_the_bound():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    assert summarise(parent, [p * 1.3 for p in parent], "lower", 0.25)["verdict"] == "worse"
    assert summarise(parent, [p * 1.2 for p in parent], "lower", 0.25)["verdict"] == ""
    assert summarise(parent, [p * 1.2 for p in parent], "lower", 0.1)["verdict"] == "worse"
    assert summarise(parent, [p * 0.7 for p in parent], "higher", 0.25)["verdict"] == "worse"
    assert summarise(parent, [p * 0.8 for p in parent], "higher", 0.25)["verdict"] == ""


def test_runs_write_no_bytecode(monkeypatch, tmp_path):
    seen = []

    class Done:
        returncode = 0
        stdout = '{"correct": true, "failed": 0, "metrics": {"wall_s": {"value": 1.0}}}\n'
        stderr = ""

    def run(cmd, **kwargs):
        seen.append(kwargs)
        return Done()

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.run_once(tmp_path, "sweep", 3, 30) == {"wall_s": 1.0}
    assert seen[0]["env"]["PYTHONDONTWRITEBYTECODE"] == "1" and seen[0]["cwd"] == tmp_path


def test_quartiles_of_one_value_are_that_value():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (2.5, 1.75, 3.25)


def test_layer_rows_give_medians_quartiles_and_the_change_without_a_verdict():
    metrics = [{"name": "classno.self_s", "unit": "s", "better": "lower"},
               {"name": "arith.factorize.calls", "unit": "count", "better": "lower"},
               {"name": "cli.self_s", "unit": "s", "better": "lower"}]
    parent = [{"classno.self_s": x, "arith.factorize.calls": 0} for x in (0.2, 0.1, 0.4, 0.3)]
    change = [{"classno.self_s": x, "arith.factorize.calls": 0} for x in (0.1, 0.15, 0.05, 0.2)]
    rows = layer_rows("certify", metrics, parent, change)
    assert rows[0] == ("| workload | metric | unit | parent median [q1–q3] | change median [q1–q3] "
                       "| median change |")
    assert rows[1] == "|---|---|---|---|---|---|"
    assert rows[2] == "| `certify` | `classno.self_s` | s | 0.25 [0.175–0.325] | 0.125 [0.0875–0.1625] | -50.0% |"
    assert rows[3] == "| `certify` | `arith.factorize.calls` | count | 0 [0–0] | 0 [0–0] |  |"  # no ratio of 0
    assert rows[4] == "| `certify` | `cli.self_s` | s | — | — |  |"  # reported by no run
    assert len(rows) == 5 and not any("gain" in r or "worse" in r for r in rows)


def test_trace_runs_one_traced_run_per_side_per_pair(monkeypatch, capsys, tmp_path):
    calls = []

    def run_once(checkout, workload, seed, seconds, trace=False):
        calls.append((checkout, seed, trace))
        side = 1.0 if checkout == tmp_path.resolve() else 0.8
        return {"classno.self_s": side} if trace else {m: side for m in
                                                       ("wall_s", "item_p50_ms", "item_p90_ms",
                                                        "setup_s", "peak_rss_mb")}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--base", str(tmp_path), "--workload", "certify", "--pairs", "3",
                             "--first-seed", "5", "--trace"]) == 0
    warm, untraced, traced = calls[:2], calls[2:8], calls[8:]  # one unread run per side first
    assert warm == [(ROOT, 5, False), (tmp_path.resolve(), 5, False)]
    assert [c[2] for c in untraced] == [False] * 6 and [c[2] for c in traced] == [True] * 6
    assert [c[:2] for c in traced] == [c[:2] for c in untraced]  # the same seeds in the same order
    out = capsys.readouterr().out
    assert "| `certify` | `classno.self_s` | s | 1 [1–1] | 0.8 [0.8–0.8] | -20.0% |" in out
    calls.clear()
    assert bench_pairs.main(["--base", str(tmp_path), "--workload", "certify", "--pairs", "2"]) == 0
    assert [c[2] for c in calls] == [False] * 6 and "classno.self_s" not in capsys.readouterr().out


def test_a_traced_run_asks_run_py_for_the_trace(monkeypatch, tmp_path):
    seen = []

    class Done:
        returncode = 0
        stdout = '{"correct": true, "failed": 0, "metrics": {"classno.self_s": {"value": 0.2}}}\n'
        stderr = ""

    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda cmd, **kw: seen.append(cmd) or Done())
    assert bench_pairs.run_once(tmp_path, "certify", 1, 30, trace=True) == {"classno.self_s": 0.2}
    bench_pairs.run_once(tmp_path, "certify", 1, 30)
    assert seen[0][-2:] == ["--trace", "1"] and seen[1][-2:] == ["--trace", "0"]


def _rusage_stub(monkeypatch, steps):
    """getrusage(RUSAGE_CHILDREN) growing by the next of steps (minflt, utime, stime) at each even call."""
    totals, calls = [0, 0.0, 0.0], []

    def getrusage(who):
        assert who == bench_pairs.resource.RUSAGE_CHILDREN
        if len(calls) % 2:  # an "after": the run in between added its step
            for i, x in enumerate(steps[len(calls) // 2]):
                totals[i] += x
        calls.append(who)
        return SimpleNamespace(ru_minflt=totals[0], ru_utime=totals[1], ru_stime=totals[2])

    monkeypatch.setattr(bench_pairs.resource, "getrusage", getrusage)


def test_each_result_holds_its_own_runs_child_rusage(monkeypatch, tmp_path):
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, workload, seed, seconds, trace=False: {"wall_s": float(seed)})
    # pair 1 runs the change first, pair 2 the parent
    _rusage_stub(monkeypatch, [(100, 0.5, 0.25), (300, 1.5, 0.5), (7, 0.75, 0.125), (9, 2.0, 1.0)])
    got = list(bench_pairs.paired_runs({"parent": tmp_path, "change": ROOT}, "sweep", 1, 2, 30))
    assert got == [
        (1, {"parent": {"wall_s": 1.0, "ru_minflt": 300, "ru_utime": 1.5, "ru_stime": 0.5},
             "change": {"wall_s": 1.0, "ru_minflt": 100, "ru_utime": 0.5, "ru_stime": 0.25}}),
        (2, {"parent": {"wall_s": 2.0, "ru_minflt": 7, "ru_utime": 0.75, "ru_stime": 0.125},
             "change": {"wall_s": 2.0, "ru_minflt": 9, "ru_utime": 2.0, "ru_stime": 1.0}}),
    ]


def test_pair_lines_and_a_table_show_the_child_rusage_without_a_verdict(monkeypatch, capsys, tmp_path):
    metrics = ("wall_s", "item_p50_ms", "item_p90_ms", "setup_s", "peak_rss_mb")

    def run_once(checkout, workload, seed, seconds, trace=False):
        return {m: 1.0 if checkout == tmp_path.resolve() else 0.5 for m in metrics}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    # change, parent; parent, change; change, parent
    _rusage_stub(monkeypatch, [(30000, 0.5, 0.125), (10000, 1.0, 0.25), (12000, 1.25, 0.25),
                               (32000, 0.5, 0.125), (34000, 0.75, 0.125), (11000, 1.0, 0.25)])
    assert bench_pairs.main(["--base", str(tmp_path), "--workload", "sweep", "--pairs", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("pair 1: wall_s 1.000 -> 0.500, ")
    assert lines[0].endswith(", ru_minflt 10000 -> 30000, ru_utime 1.000 -> 0.500, ru_stime 0.250 -> 0.125")
    table = lines[lines.index("child processes, per run:") + 2:]
    assert table == [
        "| workload | metric | unit | parent median [q1–q3] | change median [q1–q3] | median change |",
        "|---|---|---|---|---|---|",
        "| `sweep` | `ru_minflt` | faults | 11000 [10500–11500] | 32000 [31000–33000] | +190.9% |",
        "| `sweep` | `ru_utime` | s | 1 [1–1.125] | 0.5 [0.5–0.625] | -50.0% |",
        "| `sweep` | `ru_stime` | s | 0.25 [0.25–0.25] | 0.125 [0.125–0.125] | -50.0% |",
    ]


def test_three_sides_rotate():
    sides = ("change", "parent", "inert")
    assert schedule(1, 4, sides) == [(1, ("change", "parent", "inert")), (2, ("parent", "inert", "change")),
                                     (3, ("inert", "change", "parent")), (4, ("change", "parent", "inert"))]


def test_an_inert_side_with_the_same_verdict_reads_layout():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    change = [p - 3 for p in parent]
    s = summarise(parent, change, "lower", 0.25, inert=[p - 3.5 for p in parent])
    assert s["verdict"] == "layout" and s["inert"] == (8.5, 7.5, 9.5)
    assert summarise(parent, change, "lower", 0.25, inert=parent)["verdict"] == "gain"
    worse = [p * 1.3 for p in parent]
    assert summarise(parent, worse, "lower", 0.25, inert=worse)["verdict"] == "layout"
    assert summarise(parent, worse, "lower", 0.25, inert=change)["verdict"] == "worse"  # a gain is not worse
    assert summarise(parent, parent, "lower", 0.25, inert=change)["verdict"] == ""  # nothing to explain


def test_inert_runs_a_third_side_and_adds_its_median(monkeypatch, capsys, tmp_path):
    base, inert = tmp_path / "parent", tmp_path / "inert"
    metrics = ("wall_s", "item_p50_ms", "item_p90_ms", "setup_s", "peak_rss_mb")
    # the change and the inert side both run at half the parent's wall_s;
    # only the change halves item_p50_ms
    value = {base.resolve(): {m: 1.0 for m in metrics}, ROOT: dict.fromkeys(metrics, 0.5),
             inert.resolve(): {**dict.fromkeys(metrics, 1.0), "wall_s": 0.5}}
    calls = []

    def run_once(checkout, workload, seed, seconds, trace=False):
        calls.append((checkout, seed))
        return dict(value[checkout])

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    _rusage_stub(monkeypatch, [(1000 * i, 0.5, 0.125) for i in range(1, 10)])
    assert bench_pairs.main(["--base", str(base), "--workload", "sweep", "--pairs", "3",
                             "--inert", str(inert)]) == 0
    order = [ROOT, base.resolve(), inert.resolve()]
    assert calls == [(c, 1) for c in order] * 2 + [(c, 2) for c in order[1:] + order[:1]] \
        + [(c, 3) for c in order[2:] + order[:2]]  # one unread run per side first
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("pair 1: wall_s 1.000 -> 0.500 (inert 0.500), ")
    assert lines[0].endswith(", ru_minflt 2000 -> 1000 (inert 3000), ru_utime 0.500 -> 0.500 (inert 0.500), "
                             "ru_stime 0.125 -> 0.125 (inert 0.125)")
    head = lines.index("| workload | metric | parent median [q1–q3] | change median [q1–q3] "
                       "| inert median [q1–q3] | median change | change won | gap / parent IQR | verdict |")
    assert lines[head + 1] == "|---|---|---|---|---|---|---|---|---|"
    assert lines[head + 2] == ("| `sweep` | `wall_s` | 1.000 [1.000–1.000] | 0.500 [0.500–0.500] "
                               "| 0.500 [0.500–0.500] | -50.0% | 3/3 | +inf | layout |")
    assert lines[head + 3] == ("| `sweep` | `item_p50_ms` | 1.000 [1.000–1.000] | 0.500 [0.500–0.500] "
                               "| 1.000 [1.000–1.000] | -50.0% | 3/3 | +inf | gain |")
    table = lines[lines.index("child processes, per run:") + 2:]
    assert table[:2] == ["| workload | metric | unit | parent median [q1–q3] | change median [q1–q3] "
                         "| inert median [q1–q3] | median change |", "|---|---|---|---|---|---|---|"]
    # parent runs 2000, 4000, 9000; change 1000, 6000, 8000; inert 3000, 5000, 7000
    assert table[2] == ("| `sweep` | `ru_minflt` | faults | 4000 [3000–6500] | 6000 [3500–7000] "
                        "| 5000 [4000–6000] | +50.0% |")


def test_a_first_run_per_side_before_pair_1_is_not_counted(monkeypatch, capsys, tmp_path):
    # each side's first run reads 100 on every metric; no pair line, table
    # or verdict shows it, and pair 1 runs after both of them
    metrics = ("wall_s", "item_p50_ms", "item_p90_ms", "setup_s", "peak_rss_mb")
    calls = []

    def run_once(checkout, workload, seed, seconds, trace=False):
        calls.append((checkout, seed))
        return dict.fromkeys(metrics, 100.0 if len(calls) <= 2 else 1.0)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    _rusage_stub(monkeypatch, [(1000, 0.5, 0.125)] * 4)
    assert bench_pairs.main(["--base", str(tmp_path), "--workload", "certify", "--pairs", "2",
                             "--first-seed", "4"]) == 0
    assert calls == [(ROOT, 4), (tmp_path.resolve(), 4), (ROOT, 4), (tmp_path.resolve(), 4),
                     (tmp_path.resolve(), 5), (ROOT, 5)]
    out = capsys.readouterr().out
    assert "100.000" not in out
    assert "| `certify` | `setup_s` | 1.000 [1.000–1.000] | 1.000 [1.000–1.000] | +0.0% | 0/2 |" in out


@pytest.mark.parametrize("pairs", ["1", "0", "-3", "two"])
def test_fewer_than_two_pairs_are_refused_before_any_run(monkeypatch, capsys, tmp_path, pairs):
    def run_once(*args, **kwargs):
        raise AssertionError("ran with too few pairs")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    with pytest.raises(SystemExit) as e:
        bench_pairs.main(["--base", str(tmp_path), "--workload", "certify", "--pairs", pairs])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "argument --pairs" in err
