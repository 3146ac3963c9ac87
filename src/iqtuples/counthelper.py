"""The count helper: a child process that counts a share of a list's form counts.

classno.count_ahead hands count_shared the D it counts ahead, two or more,
largest |D| first. The helper is forked once per process, on the first
such list, after numpy is imported and classno's tables cover the largest
D, so it starts with them, shared copy-on-write. It reads one D per line on
a pipe and answers "D h", h = classno._reduced_count(D), while this process
counts the rest by classno.class_number_forms; both answers go into
classno's memo. The helper ignores SIGINT, keeps no file descriptor but its
two pipe ends and stderr, and leaves by os._exit at EOF on its pipe; this
process reaps it at exit. Where no helper can run (no os.fork, another live
thread, or a helper that has died), nothing is counted here and every
count is made by class_number_forms when it is asked for. classno imports
this module on the first list it shares, so no other command compiles it.
"""

from __future__ import annotations

import logging
import os
import sys
from math import isqrt

from . import arith, classno

log = logging.getLogger(__name__)

# D handed to the helper and not yet answered, at most: one it counts and
# one it reads next, so that it does not wait for this process between two
# counts, while neither pipe can fill.
_IN_FLIGHT = 2


class _Helper:
    """This process's end of the count helper: its pid, its two pipe ends, the D it owes."""

    def __init__(self, pid: int, to: int, back: int):
        self.pid, self.to, self.back = pid, to, back
        self.owed = 0
        self.unread = b""  # the start of an answer line not yet whole

    def send(self, D: int) -> None:
        os.write(self.to, b"%d %d\n" % (D, classno.log.getEffectiveLevel()))
        self.owed += 1

    def collect(self, wait: bool) -> None:
        """Remember every answer come so far, waiting for one if wait; EOFError once the helper has gone."""
        os.set_blocking(self.back, wait)
        try:
            data = os.read(self.back, 1 << 12)
        except BlockingIOError:  # none has come
            return
        if not data:
            raise EOFError
        *lines, self.unread = (self.unread + data).split(b"\n")
        for line in lines:
            D, h = map(int, line.split())
            self.owed -= 1
            log.info("form count %d: h = %d, counted by the helper", D, h)
            arith._remember(classno._h_memo, D, h)


_helper: _Helper | bool | None = None  # None until forked; False once none may run here


def _serve(requests: int, answers: int) -> None:
    """The helper's life: each "D level" line read from requests is answered "D h" on answers.

    h is classno._reduced_count(D), logged at the level classno's logger
    has in the process that sent D, through the handlers it had at the
    fork. The helper ignores SIGINT (the fork blocked it until then), keeps
    no file descriptor but its pipe ends and stderr, and leaves by
    os._exit: at EOF, or on any exception, silently, as its parent then
    counts alone.
    """
    import signal

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        lo = 0
        for fd in sorted({2, requests, answers}):
            os.closerange(lo, fd)
            lo = fd + 1
        os.closerange(lo, os.sysconf("SC_OPEN_MAX"))
        logging.raiseExceptions = False  # a handler whose file was closed here drops its record
        for line in os.fdopen(requests, "rb"):
            D, level = map(int, line.split())
            if level != classno.log.level:
                classno.log.setLevel(level)
            os.write(answers, b"%d %d\n" % (D, classno._reduced_count(D)))
    except BaseException:
        os._exit(1)
    os._exit(0)


def _fork_helper() -> _Helper | None:
    """Fork the count helper; None if the fork fails.

    stderr is flushed first, so the helper cannot write this process's
    buffered bytes again, and SIGINT is blocked across the fork until the
    helper ignores it. gc.freeze() moves every object made so far out of
    the collector's reach before the fork, so that the helper's collections
    do not write into the pages it shares with this process; this process
    unfreezes them right after, unless it had frozen objects of its own.
    """
    import gc
    import signal

    requests, to = os.pipe()
    back, answers = os.pipe()
    try:
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # no stderr, or a closed one
        pass
    thawed = not gc.get_freeze_count()
    gc.freeze()
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        pid = os.fork()
        if pid == 0:
            _serve(requests, answers)
    except OSError:
        pid = None
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        if thawed:
            gc.unfreeze()
    os.close(requests)
    os.close(answers)
    if pid is None:
        os.close(to)
        os.close(back)
        return None
    return _Helper(pid, to, back)


def _running_helper(a_max: int) -> _Helper | None:
    """The count helper, forked now if it has not been; None where none may run.

    None without os.fork, while another thread is alive (a fork copies
    only the calling thread, whatever locks the others hold), and once a
    helper has gone or a fork has failed: it is not forked again. The fork
    comes after classno._sieve covers a_max, which imports numpy, so the
    helper starts with the tables it needs, shared with this process. The
    helper is reaped at exit (_stop_helper).
    """
    global _helper
    if _helper is None:
        import threading

        if not hasattr(os, "fork") or threading.active_count() > 1:
            return None
        import atexit

        classno._sieve(a_max)
        _helper = _fork_helper() or False
        if _helper:
            atexit.register(_stop_helper)
    return _helper or None


def _stop_helper() -> None:
    """End and reap the count helper, if this process has one; none is forked here again.

    Closing its requests pipe ends it at its next read. One still owing
    answers, which then nobody reads, is killed first.
    """
    import signal

    global _helper
    helper, _helper = _helper, False
    if not isinstance(helper, _Helper):
        return
    os.close(helper.to)
    os.close(helper.back)
    try:
        if helper.owed:
            os.kill(helper.pid, signal.SIGKILL)
        os.waitpid(helper.pid, 0)
    except (ChildProcessError, ProcessLookupError):  # reaped already, where SIGCHLD is ignored
        pass


def _forget_helper() -> None:
    """In a child forked from this process: close the inherited helper pipes; the child may fork its own."""
    global _helper
    if isinstance(_helper, _Helper):
        os.close(_helper.to)
        os.close(_helper.back)
    _helper = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def count_shared(discs: list[int]) -> None:
    """Count discs, two or more D largest |D| first, on two cores, each h into classno's memo.

    When a helper runs (_running_helper), it is handed the next D while it
    owes fewer than _IN_FLIGHT and at least one is left for this process,
    which counts the next by classno.class_number_forms and then remembers
    any answers come. Otherwise nothing is counted here. If the helper has
    gone (EOF or a broken pipe), it is reaped with a warning, and the D it
    owed are left for class_number_forms. On any other exception the helper
    is stopped, and the exception raised.
    """
    helper = _running_helper(isqrt(-discs[0] // 3))
    if helper is None:
        return
    try:
        i = 0
        while i < len(discs) or helper.owed:
            while helper.owed < _IN_FLIGHT and len(discs) - i > 1:
                helper.send(discs[i])
                i += 1
            if i < len(discs):
                classno.class_number_forms(discs[i])
                i += 1
                helper.collect(wait=False)
            else:
                helper.collect(wait=True)
    except (EOFError, BrokenPipeError):
        log.warning("form count helper %d has gone; counting in this process", helper.pid)
        _stop_helper()
    except BaseException:
        _stop_helper()
        raise
