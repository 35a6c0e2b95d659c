"""Resident memory of this process and every process it started (the
Ray head processes and workers), read from /proc — psutil is not a
dependency of the package."""

from __future__ import annotations

import os
import signal
import threading
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _ppids() -> dict[int, int]:
    out = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may contain spaces: fields follow the last ')'
        out[int(entry)] = int(stat[stat.rindex(")") + 2:].split()[1])
    return out


def descendants(root: int | None = None) -> list[int]:
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for pid, ppid in _ppids().items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def cpu_seconds(pids: list[int]) -> dict[int, float]:
    """User + system CPU seconds each process has used so far, all its
    threads included; processes that are gone are left out."""
    tick = os.sysconf("SC_CLK_TCK")
    out = {}
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        out[pid] = (int(fields[11]) + int(fields[12])) / tick
    return out


def tree_cpu_seconds() -> dict[int, float]:
    """``cpu_seconds`` of this process and all its descendants."""
    return cpu_seconds([os.getpid()] + descendants())


def cpu_used(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds used between two ``tree_cpu_seconds`` readings; a
    process that started in between counts from zero."""
    return sum(v - before.get(pid, 0.0) for pid, v in after.items())


def rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0


class PeakRss:
    """Samples, every ``interval`` seconds while active, the summed RSS
    of this process and its descendants; keeps the peaks in MB."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.peak_total_mb = 0.0
        self.peak_self_mb = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _sample(self) -> None:
        me = rss_bytes(os.getpid())
        total = me + sum(rss_bytes(p) for p in descendants())
        self.peak_self_mb = max(self.peak_self_mb, me / 2**20)
        self.peak_total_mb = max(self.peak_total_mb, total / 2**20)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "PeakRss":
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


def is_running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def stop_processes(pids: list[int], timeout: float = 30.0) -> list[int]:
    """Wait until every pid in ``pids`` has ended; SIGKILL the ones still
    running after ``timeout``.  Returns the pids that had to be killed.
    Takes a pid list rather than walking the tree, because a process
    whose parent exits first is re-parented away from this one."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _collect_zombies()
        if not any(is_running(p) for p in pids):
            return []
        time.sleep(0.2)
    killed = [p for p in pids if is_running(p)]
    for pid in killed:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    end = time.monotonic() + 10.0
    while any(is_running(p) for p in killed) and time.monotonic() < end:
        _collect_zombies()
        time.sleep(0.1)
    return killed


def _collect_zombies() -> None:
    try:
        while os.waitpid(-1, os.WNOHANG)[0] > 0:
            pass
    except ChildProcessError:
        pass
