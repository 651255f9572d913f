"""Isolation before a workload and the leak gate after it."""

from __future__ import annotations

import multiprocessing
import os
import resource
import shutil
import signal
from multiprocessing import resource_tracker
from typing import Dict, List, Set


def scrub_env() -> List[str]:
    """Drop every ``PMTEST_*`` variable so the program runs on this
    commit's defaults; returns the names removed."""
    names = sorted(name for name in os.environ if name.startswith("PMTEST_"))
    for name in names:
        del os.environ[name]
    return names


def place_on_cpus() -> Dict[str, List[int]]:
    """Caller on the first allowed CPU, every forked child on the rest.

    The sandbox kernel leaves a freshly forked worker on its parent's
    CPU for seconds at a time, so whether caller and workers really run
    in parallel changes from one minute to the next, and with it every
    pool figure by 10 to 15 %.  An idle multi-core host spreads them by
    itself; this does it explicitly, the way ``taskset`` would.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return {"caller": allowed, "children": allowed}
    children = set(allowed[1:])
    os.register_at_fork(
        after_in_child=lambda: os.sched_setaffinity(0, children))
    os.sched_setaffinity(0, {allowed[0]})
    return {"caller": allowed[:1], "children": allowed[1:]}


def child_pids() -> List[int]:
    """Direct children of this process, from ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we were listing
        # Fields after the parenthesised command name: state, ppid, ...
        fields = stat[stat.rindex(b")") + 2:].split()
        if int(fields[1]) == me and fields[0] != b"Z":
            pids.append(int(entry))
    return pids


def stop_children() -> List[int]:
    """Leave no process behind: returns the pids that had to be killed.

    A child still running after teardown is a leak; it is killed and
    reaped here so that it cannot serve a later run.  The standard
    library's shared-memory resource tracker is not one: the process
    backend starts it once and nothing stops it.  Left alone it ends
    only when it sees this process's end of its pipe close, that is,
    some time *after* this process has exited, so it is stopped and
    waited for here, once no stray worker holds the pipe open.
    """
    tracker = resource_tracker._resource_tracker
    strays = [pid for pid in child_pids() if pid != tracker._pid]
    for pid in strays:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass  # gone, or already reaped by its owner
    tracker._stop()
    return strays


def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(key):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def children_hwm_mb() -> float:
    """Summed resident high-water mark of the live direct children.

    A forked worker's pages shared with the parent are counted in both.
    """
    return sum(_status_kb(pid, "VmHWM:") for pid in child_pids()) / 1024.0


def parent_maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a process has used so far."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        stat = handle.read()
    fields = stat[stat.rindex(b")") + 2:].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def shm_segments() -> Set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class LeakGate:
    """Snapshot taken before a workload; ``check`` lists what it leaked."""

    def __init__(self, rundir: str) -> None:
        self.rundir = rundir
        self._shm_before = shm_segments()

    def check(self, strays: List[int], daemon_exit: Dict[int, int],
              daemon_stderr: str = "") -> List[str]:
        """Called after ``stop_children``, which found ``strays``."""
        leaks = []
        if strays:
            leaks.append(f"children alive after teardown, killed: {strays}")
        # Joins finished multiprocessing children as a side effect.
        alive = multiprocessing.active_children()
        if alive:
            leaks.append(f"multiprocessing children alive: {alive}")
        pids = child_pids()
        if pids:
            leaks.append(f"child pids still alive: {pids}")
        new_shm = shm_segments() - self._shm_before
        if new_shm:
            leaks.append(f"new /dev/shm segments: {sorted(new_shm)}")
        left = os.listdir(self.rundir)
        if left:
            leaks.append(f"files left in {self.rundir}: {sorted(left)}")
        for pid, code in daemon_exit.items():
            if code != 0:
                leaks.append(f"daemon {pid} exited {code} on SIGTERM: "
                             f"{daemon_stderr[-2000:]}")
        return leaks


def remove_rundir(rundir: str) -> None:
    shutil.rmtree(rundir, ignore_errors=True)
