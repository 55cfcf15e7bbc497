"""Lifetime of every process the benchmark starts.

Each child starts in its own session, so its process group holds the
child and everything it forks (the daemon's pool worker included).
Stopping a daemon means: ask it to shut down, wait, then kill its
whole process group and wait until no member is left. At exit
:meth:`Children.reap_all` kills every group the run created and
reports any process that was still running, so a survivor is counted
as a failed operation instead of being left behind.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time


class Interrupted(BaseException):
    """SIGTERM or SIGINT arrived; unwinds through every ``finally``."""

    def __init__(self, signum: int):
        super().__init__(signum)
        self.signum = signum


class DaemonFailed(RuntimeError):
    """A daemon exited or never answered before its deadline."""


def install_signal_handlers() -> None:
    def handler(signum, _frame):
        raise Interrupted(signum)

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, handler)


def ignore_signals() -> None:
    """Let teardown finish even if the signal is sent again."""
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_IGN)


def _proc_entries() -> list[tuple[int, str, int]]:
    """``(pid, state, pgid)`` of every visible process."""
    entries = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                raw = handle.read()
        except OSError:
            continue
        # The command name may hold spaces or parentheses; the fixed
        # fields start after the last ')'.
        fields = raw[raw.rfind(")") + 2:].split()
        entries.append((int(name), fields[0], int(fields[2])))
    return entries


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    return [
        pid for pid, state, group in _proc_entries()
        if group == pgid and state not in ("Z", "X")
    ]


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the peak resident sizes (``VmHWM``) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class Children:
    """Every child process of one benchmark run."""

    def __init__(self):
        self.procs: list[subprocess.Popen] = []

    def spawn(self, argv: list[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, start_new_session=True, **kwargs)
        self.procs.append(proc)
        return proc

    def kill_group(self, proc: subprocess.Popen,
                   timeout: float = 10.0) -> int:
        """SIGKILL ``proc``'s whole group, reap ``proc`` and wait until
        no member remains. Returns how many members were still alive."""
        alive = group_members(proc.pid)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + timeout
        while group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        return len(alive)

    def stop(self, proc: subprocess.Popen, shutdown=None,
             timeout: float = 10.0) -> int:
        """Orderly stop: ``shutdown()`` (if given), wait up to
        ``timeout``, then kill the group. Returns the number of group
        members that had to be killed."""
        if shutdown is not None and proc.poll() is None:
            try:
                shutdown()
            except Exception:
                pass  # the group kill below stops it either way
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        return self.kill_group(proc)

    def reap_all(self) -> int:
        """Kill every group this run created; returns the number of
        processes that were still running (each one a failure)."""
        survivors = 0
        for proc in self.procs:
            survivors += self.kill_group(proc, timeout=5.0)
        return survivors
