"""Every process a benchmark run starts ends before the run does.

``remote_wide`` runs its server in a child process, and the server starts a
worker and a ``multiprocessing`` resource tracker of its own; the tracker
is made to outlive the process that started it.  The entry point makes
itself the reaper of whatever its children leave behind (Linux
``PR_SET_CHILD_SUBREAPER``): a process orphaned below it is re-parented to
it rather than to init, and ``reap_children`` waits for each one before the
run exits.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from typing import List

#: ``prctl`` option from ``linux/prctl.h``.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Re-parent orphaned descendants to this process; False where the
    platform does not allow it."""
    import ctypes

    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return False
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    return prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def running_children() -> List[int]:
    """Pids of this process's children that have not exited (``/proc``)."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                state, ppid = handle.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue
        if int(ppid) == me and state not in ("Z", "X"):
            pids.append(int(entry))
    return pids


def stop_resource_tracker() -> None:
    """End this process's ``multiprocessing`` resource tracker, if it started
    one, and wait for it."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def reap_children(grace: float = 20.0) -> int:
    """Wait until every child, adopted ones included, has ended; kill those
    still running after ``grace`` seconds.  Returns how many were killed."""
    stop_resource_tracker()
    deadline = time.monotonic() + grace
    killed = set()
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return len(killed)
        if pid:
            continue
        if time.monotonic() >= deadline:
            for pid in running_children():
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed.add(pid)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)
