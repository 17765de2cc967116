"""Run one CLI process and collect its wall time, CPU time and peak memory.

The child is waited for with ``os.wait4`` so its own rusage comes back.  A
watchdog kills a child that outlives its time limit; it only ever signals
a process that has not been reaped yet, so it can never hit a recycled pid.
"""

from __future__ import annotations

import os
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence


@dataclass(frozen=True)
class JobResult:
    wall_s: float
    cpu_s: float          # user + system time of the child
    maxrss_kb: int
    exit_code: int        # negative: killed by that signal
    timed_out: bool
    stdout: bytes
    stderr: bytes


def run_process(argv: Sequence[str], cwd: Path, env: Mapping[str, str],
                timeout_s: float) -> JobResult:
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(list(argv), cwd=cwd, env=dict(env), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        lock = threading.Lock()
        state = {"exited": False, "killed": False}

        def expire():
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        watchdog = threading.Timer(max(timeout_s, 0.0), expire)
        watchdog.start()
        try:
            # Wait without reaping, so the pid stays ours while the watchdog
            # may still fire; then reap it together with its rusage.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                state["exited"] = True
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            with lock:
                if not state["exited"]:
                    state["exited"] = True
                    os.kill(proc.pid, signal.SIGKILL)
            try:
                os.waitpid(proc.pid, 0)
            except ChildProcessError:  # already reaped by wait4
                pass
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return JobResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                         proc.returncode, state["killed"], out.read(), err.read())
