"""The benchmark's process tree, read from ``/proc`` (psutil is not
available): summed-RSS sampling for ``peak_rss_mb`` and the wait that
makes sure every process a Ray session started has ended."""

from __future__ import annotations

import os
import signal
import threading
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat(pid: int):
    """``(ppid, starttime, state, rss_bytes)`` of ``pid``, or None if it
    is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            data = f.read()
    except OSError:
        return None
    # fields after "(comm)": state ppid ... starttime(19) vsize rss(21)
    rest = data[data.rindex(b")") + 2:].split()
    return int(rest[1]), int(rest[19]), rest[0].decode(), int(rest[21]) * _PAGE


def tree(root: int | None = None) -> dict[int, tuple[int, int]]:
    """``{pid: (starttime, rss_bytes)}`` for ``root`` (default: this
    process) and all its live descendants."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    info = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        st = _stat(int(name))
        if st is None or st[2] == "Z":
            continue
        info[int(name)] = st
        children.setdefault(st[0], []).append(int(name))
    out = {}
    todo = [root]
    while todo:
        pid = todo.pop()
        if pid in info:
            out[pid] = (info[pid][1], info[pid][3])
        todo.extend(children.get(pid, ()))
    return out


def descendants() -> dict[int, int]:
    """``{pid: starttime}`` of every live descendant of this process."""
    me = os.getpid()
    return {pid: st for pid, (st, _rss) in tree().items() if pid != me}


def _alive(pid: int, starttime: int) -> bool:
    st = _stat(pid)
    return st is not None and st[1] == starttime and st[2] != "Z"


def reap(procs: dict[int, int], timeout: float = 20.0) -> list[int]:
    """Wait until every process in ``procs`` (``{pid: starttime}``) has
    ended; after ``timeout`` seconds SIGKILL the rest and wait again.
    Returns the pids that had to be killed."""
    killed: list[int] = []
    deadline = time.monotonic() + timeout
    while True:
        for pid in list(procs):
            try:  # reap our own exited children
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        live = [p for p, st in procs.items() if _alive(p, st)]
        if not live:
            return killed
        if time.monotonic() > deadline:
            if killed:  # already killed once: give up waiting
                return killed
            for pid in live:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = live
            deadline = time.monotonic() + 10.0
        time.sleep(0.05)


class RssSampler:
    """Background thread summing the RSS of this process and all its
    descendants every ``interval`` seconds; ``peak_mb`` is the largest
    sum seen between ``start`` and ``stop``."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _sample(self) -> None:
        total = sum(rss for _st, rss in tree().values())
        self.peak_bytes = max(self.peak_bytes, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def start(self) -> "RssSampler":
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> float:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._sample()
        return self.peak_mb

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / 2**20
