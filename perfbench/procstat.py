"""CPU and steal-time readings taken from ``/proc``, outside the program.

Everything here reads kernel counters only; nothing asks the measured
processes anything, so the readings cost the cluster nothing.
"""

from __future__ import annotations

import os
import platform
import threading
import time

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_cpu_s(path: str) -> float:
    """utime + stime of a ``/proc/.../stat`` file, in seconds."""
    with open(path) as f:
        text = f.read()
    # the command name may hold spaces; fields restart after its ')'
    fields = text[text.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def process_cpu_s(pid: int) -> float:
    """CPU seconds of every thread of process ``pid`` so far."""
    return _stat_cpu_s(f"/proc/{pid}/stat")


def thread_cpu_s(tid: int) -> float:
    """CPU seconds of one thread of this process so far."""
    return _stat_cpu_s(f"/proc/self/task/{tid}/stat")


def steal_s() -> float:
    """Host-wide steal time so far, summed over CPUs, in seconds."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / _TICK if len(fields) > 8 else 0.0


def native_thread_id(name: str) -> int:
    """Kernel thread id of this process's thread called ``name``."""
    for thread in threading.enumerate():
        if thread.name == name and thread.native_id is not None:
            return thread.native_id
    raise LookupError(f"no thread named {name!r}")


def host_record(seed: int) -> dict:
    """Host fingerprint printed with every result."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
    }


class CpuMeter:
    """CPU time of this process, its client loop thread and each agent
    process over one window. ``agents`` maps a label to a pid."""

    def __init__(self, loop_tid: int, agents: dict[str, int]) -> None:
        self.loop_tid = loop_tid
        self.agents = agents

    def sample(self) -> dict:
        return {
            "wall": time.perf_counter(),
            "client": time.process_time(),
            "loop": thread_cpu_s(self.loop_tid),
            "steal": steal_s(),
            "agents": {k: process_cpu_s(p) for k, p in self.agents.items()},
        }

    @staticmethod
    def delta(a: dict, b: dict) -> dict:
        """CPU seconds spent between samples ``a`` and ``b``."""
        return {
            "wall": b["wall"] - a["wall"],
            "client": b["client"] - a["client"],
            "loop": b["loop"] - a["loop"],
            "steal": b["steal"] - a["steal"],
            "agents": {k: b["agents"][k] - a["agents"][k] for k in a["agents"]},
        }
