"""Run a workload in a child process and leave no process behind.

A workload starts worker processes, gcc and Python's multiprocessing
resource tracker.  The tracker outlives its parent by a moment and,
once orphaned, may never be reaped.  ``supervise`` runs the workload in
a child with a session of its own, makes this process the subreaper of
everything the child starts, and on every way out (exit, failure,
timeout, signal) stops and reaps the whole session before returning.
A child that has to be stopped first gets SIGTERM, on which it closes
its service; shared-memory segments of a child that was killed anyway
are unlinked here.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

#: set in the child's environment: run the workload, not the supervisor
INNER_ENV = "PERFBENCH_INNER"
#: a run (including the first, which builds every artifact) ends by then
TIMEOUT_S = 840.0
#: how long stragglers get to end on their own before they are killed
GRACE_S = 5.0
_PR_SET_CHILD_SUBREAPER = 36
#: ``repro.serve.shm.SEGMENT_PREFIX``; a segment's name continues with
#: the hex pid of the process that created it and an ``x``
_SEGMENT_PREFIX = "reproshm"


class _Stopped(Exception):
    """Raised in the supervisor by SIGTERM, SIGINT or SIGHUP."""


def _raise_stopped(signum, frame):
    raise _Stopped(signal.Signals(signum).name)


def _become_subreaper() -> None:
    """Orphans of the child are re-parented here, so they can be reaped."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _members(sid: int) -> list[tuple[int, str]]:
    """(pid, state) of every process in session ``sid``, zombies too."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            found.append((int(entry), fields[0]))
    return found


def _reap() -> None:
    """Collect every child of this process that has ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _stop_session(sid: int) -> list[int]:
    """Wait ``GRACE_S`` for the session to empty, then kill what is left
    and wait for that too.  Returns the pids that could not be stopped."""
    killed_at = None
    deadline = time.monotonic() + GRACE_S
    while True:
        _reap()
        alive = [pid for pid, _ in _members(sid)]
        if not alive:
            return []
        now = time.monotonic()
        if killed_at is None and now >= deadline:
            for pid, state in _members(sid):
                if state != "Z":
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            killed_at = now
        elif killed_at is not None and now - killed_at > GRACE_S:
            return alive
        time.sleep(0.02)


def _stop_child(child: subprocess.Popen) -> None:
    """SIGTERM, then after ``GRACE_S`` SIGKILL to the child's session."""
    if child.poll() is not None:
        return
    child.terminate()
    try:
        child.wait(timeout=GRACE_S)
    except subprocess.TimeoutExpired:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()


def _unlink_segments(pid: int) -> int:
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return 0
    gone = 0
    for path in shm.glob(f"{_SEGMENT_PREFIX}-{pid:x}x*"):
        path.unlink(missing_ok=True)
        gone += 1
    return gone


def supervise(script: str, argv: list[str]) -> int:
    """Run ``script argv`` as the workload child; return its exit code
    (1 when it was killed or timed out)."""
    _become_subreaper()
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _raise_stopped)
    env = dict(os.environ, **{INNER_ENV: "1"})
    child = subprocess.Popen([sys.executable, script, *argv], env=env,
                             start_new_session=True)
    code = 1
    try:
        code = child.wait(timeout=TIMEOUT_S)
        if code < 0:
            print(f"perfbench: run ended by signal {-code}", file=sys.stderr)
            code = 1
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {TIMEOUT_S:g} s, stopped",
              file=sys.stderr)
    except _Stopped as exc:
        print(f"perfbench: stopped by {exc}", file=sys.stderr)
    finally:
        for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
            signal.signal(signum, signal.SIG_IGN)
        _stop_child(child)
        left = _stop_session(child.pid)
        swept = _unlink_segments(child.pid)
    if swept:
        print(f"perfbench: unlinked {swept} shared-memory segments the run "
              f"left", file=sys.stderr)
        code = code or 1
    if left:
        print(f"perfbench: processes {left} did not stop", file=sys.stderr)
        return 1
    return code
