"""The count helper: the child process that counts a share of verify_tuple's members.

Its answers must equal the counts made in this process, and whatever ends
a session (exit, a killed helper, SIGINT, a closed stdout) must leave no
helper behind and nothing hanging.
"""

import logging
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from iqtuples import arith, classno, counthelper, families
from iqtuples.errors import HypothesisRejection
from iqtuples.families import pi_tuple, quadruple, quintuple, verify_tuple

SRC = str(Path(__file__).resolve().parent.parent / "src")
NOT_SHARED = 10**30  # HELPER_FROM past every D: every count made in this process


def _grid():
    """Quadruples, quintuples and one pi-tuple, each with two or more members past HELPER_FROM."""
    built = [quintuple(5, 2), quintuple(3, 5), quintuple(3, 6),
             pi_tuple(3, 13, 5, "lenient")]  # 7 members from 4.97*10^8 on
    for p in (7, 11, 13):
        try:
            built.append(quadruple(3, p, 6))
        except HypothesisRejection:
            pass
    return built


def _records(tuples) -> list[str]:
    return [families.to_json_line(verify_tuple(t)) for t in tuples]


def _in_process(monkeypatch) -> list[str]:
    """The grid's records with every count made in this process, from empty memos."""
    with monkeypatch.context() as m:
        m.setattr(classno, "HELPER_FROM", NOT_SHARED)
        classno._h_memo.clear()
        records = _records(_grid())
    classno._h_memo.clear()
    assert counthelper._helper is None  # nothing was shared, so nothing was forked
    return records


def _helper_counts(caplog) -> int:
    return sum(r.getMessage().endswith("counted by the helper") for r in caplog.records)


def _children(pid: int) -> set[int]:
    with open(f"/proc/{pid}/task/{pid}/children") as f:
        return {int(c) for c in f.read().split()}


def _gone(pid: int, within: float = 5.0) -> bool:
    end = time.monotonic() + within
    while time.monotonic() < end:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.01)
    return False


class TestSameRecords:
    def test_helper_equals_in_process(self, monkeypatch, caplog):
        want = _in_process(monkeypatch)
        with caplog.at_level(logging.INFO, logger="iqtuples"):
            assert _records(_grid()) == want
        assert isinstance(counthelper._helper, counthelper._Helper)
        assert _helper_counts(caplog) >= len(_grid())  # some of each tuple's
        # every fresh D past the threshold was remembered, by either process
        for t in _grid():
            for m in t.members:
                s = m.squarefree_part
                D = s if s % 4 == 1 else 4 * s
                assert -D < classno.HELPER_FROM or D in classno._h_memo

    def test_more_members_than_in_flight(self, caplog):
        # the pi-tuple's fresh D outnumber _IN_FLIGHT plus the one this process takes
        t = pi_tuple(3, 13, 5, "lenient")
        large = [m for m in t.members if -4 * abs(m.squarefree_part) <= -classno.HELPER_FROM]
        assert len(large) > counthelper._IN_FLIGHT + 1
        with caplog.at_level(logging.INFO, logger="iqtuples"):
            verify_tuple(t)
        assert t.all_divisible is True
        assert counthelper._helper.owed == 0
        assert 0 < _helper_counts(caplog) < len(large)  # both processes counted

    def test_budget_and_memo_rules_hold(self, monkeypatch):
        # the member at offset 1 (|D| = 132153477627) is past this budget: it is
        # neither shared nor counted, and is marked as the in-process path marks it
        want = None
        for threshold in (NOT_SHARED, classno.HELPER_FROM):
            monkeypatch.setattr(classno, "HELPER_FROM", threshold)
            classno._h_memo.clear()
            with arith.limits(sf_budget=132153477626):
                t = verify_tuple(quintuple(5, 2))
            assert -132153477627 not in classno._h_memo
            got = families.to_json_line(t)
            want = want or got
            assert got == want
        assert [m.status for m in t.members].count(families.STATUS_BUDGET) == 1

    def test_small_tuples_fork_nothing(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked for a tuple below HELPER_FROM")

        monkeypatch.setattr(os, "fork", no_fork)
        for t in (quadruple(3, 3, 2), quintuple(3, 2), quintuple(3, 3)):
            verify_tuple(t)  # 4|d| < HELPER_FROM for each
        assert counthelper._helper is None


class TestLifecycle:
    def test_reaped_by_stop(self):
        verify_tuple(quintuple(5, 2))
        pid = counthelper._helper.pid
        assert os.waitpid(pid, os.WNOHANG) == (0, 0)  # alive, and this process's child
        fds = os.listdir(f"/proc/{pid}/fd")  # stderr and its two pipe ends, no stdin or stdout
        assert len(fds) == 3 and "2" in fds and "0" not in fds and "1" not in fds
        counthelper._stop_helper()
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
        assert counthelper._helper is False

    def test_reaped_at_exit(self):
        # atexit runs last registered first, so classno's handler runs before this check
        script = (
            "import atexit, os\n"
            "from iqtuples import counthelper, families\n"
            "pid = []\n"
            "def check():\n"
            "    try:\n"
            "        os.waitpid(pid[0], os.WNOHANG)\n"
            "        print('not reaped')\n"
            "    except ChildProcessError:\n"
            "        print('reaped')\n"
            "atexit.register(check)\n"
            "families.verify_tuple(families.quintuple(5, 2))\n"
            "pid.append(counthelper._helper.pid)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
        assert (out.returncode, out.stdout, out.stderr) == (0, "reaped\n", "")

    def test_helper_logs_at_the_level_of_each_request(self):
        # the helper keeps the handlers of the fork, and takes the level with each D
        script = (
            "import logging, sys\n"
            "from iqtuples import counthelper, families\n"
            "logging.basicConfig(stream=sys.stderr, format='%(process)d %(message)s')\n"
            "logging.getLogger('iqtuples').setLevel(logging.WARNING)\n"
            "families.verify_tuple(families.quintuple(5, 2))\n"
            "logging.getLogger('iqtuples').setLevel(logging.INFO)\n"
            "families.verify_tuple(families.quintuple(3, 6))\n"
            "print(counthelper._helper.pid)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
        pid = out.stdout.strip()
        counted = [line.split()[3] for line in out.stderr.splitlines()
                   if line.startswith(f"{pid} form count") and "sieved" in line]
        shared = {D for t in (quintuple(5, 2), quintuple(3, 6)) for D in (
            m.squarefree_part * (1 if m.squarefree_part % 4 == 1 else 4) for m in t.members)}
        assert counted and all(int(D.rstrip(":")) in shared for D in counted)
        assert not any(str(D) in " ".join(counted) for D in (-132153477627, -132153477592))

    def test_killed_helper_counts_locally_without_respawn(self, monkeypatch, caplog):
        want = _in_process(monkeypatch)
        grid = _grid()
        verify_tuple(grid[0])  # forks the helper
        pid = counthelper._helper.pid
        os.kill(pid, signal.SIGKILL)

        def no_fork():
            raise AssertionError("a helper was forked again")

        monkeypatch.setattr(os, "fork", no_fork)
        with caplog.at_level(logging.WARNING, logger="iqtuples"):
            got = [families.to_json_line(grid[0])] + _records(grid[1:])
        assert got == want
        assert counthelper._helper is False
        assert [r.getMessage() for r in caplog.records] == [
            f"form count helper {pid} has gone; counting in this process"]
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    def test_killed_while_owing(self, monkeypatch):
        want = _in_process(monkeypatch)
        send = counthelper._Helper.send

        def send_then_kill(helper, D):
            send(helper, D)
            os.kill(helper.pid, signal.SIGKILL)

        monkeypatch.setattr(counthelper._Helper, "send", send_then_kill)
        assert _records(_grid()) == want
        assert counthelper._helper is False

    def test_interrupt_stops_the_helper(self, monkeypatch):
        # a KeyboardInterrupt while the helper owes answers kills and reaps it
        t = pi_tuple(3, 13, 5, "lenient")

        def interrupted(D, with_forms=False):
            raise KeyboardInterrupt

        monkeypatch.setattr(classno, "class_number_forms", interrupted)
        counthelper._running_helper(1000)
        pid = counthelper._helper.pid
        with pytest.raises(KeyboardInterrupt):
            verify_tuple(t)
        assert counthelper._helper is False
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    @pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                        reason="reads a process's children from /proc")
    def test_sigint_to_the_group_prints_no_helper_traceback(self):
        argv = [sys.executable, "-m", "iqtuples", "tuples", "-n", "3", "-m", "1000", "-k", "9",
                "--mode", "lenient", "--verify"]
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                text=True, env=dict(os.environ, PYTHONPATH=SRC),
                                start_new_session=True)
        try:
            end = time.monotonic() + 30
            helpers = set()
            while not helpers and proc.poll() is None and time.monotonic() < end:
                helpers = _children(proc.pid)
                time.sleep(0.002)
            assert helpers, "no helper was seen"
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert "_serve" not in err and err.count("Traceback") <= 1
        assert all(_gone(pid) for pid in helpers)

    def test_closed_stdout_returns_promptly(self):
        cmd = (f"{sys.executable} -m iqtuples tuples -n 3 -m 200 -k 9 --mode lenient --verify"
               " | head -c 1")
        t0 = time.monotonic()
        out = subprocess.run(cmd, shell=True, capture_output=True, timeout=60,
                             env=dict(os.environ, PYTHONPATH=SRC))
        assert out.stdout == b"p"  # of "pi_tuple n=3 ..."
        assert time.monotonic() - t0 < 20

    def test_forked_child_forgets_the_helper(self):
        verify_tuple(quintuple(5, 2))
        helper = counthelper._helper
        pid = os.fork()
        if pid == 0:  # the child may not use, nor keep open, its parent's helper pipes
            ok = counthelper._helper is None
            for fd in (helper.to, helper.back):
                try:
                    os.fstat(fd)
                    ok = False
                except OSError:
                    pass
            os._exit(0 if ok else 1)
        assert os.waitpid(pid, 0)[1] == 0
        assert counthelper._helper is helper

    def test_no_fork_while_another_thread_lives(self):
        import threading

        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            t = verify_tuple(quintuple(5, 2))
        finally:
            stop.set()
            thread.join()
        assert counthelper._helper is None and t.all_divisible is True
