"""Host weather, process-tree memory and process clean-up (Linux /proc).

Weather fields make a noisy measurement window identifiable from the
output alone: the CPU count used, the load average, a first-touch
bandwidth probe (fresh pages faulted in; a healthy host does well over
1 GB/s, a host that is paging lazily or contended does far less), a
pure-Python CPU probe, and the share of CPU time stolen by the
hypervisor during the measured loop.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np


def cpus() -> int:
    """Processing units available, as ``nproc`` counts them: the
    affinity mask, capped by ``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT``."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        v = os.environ.get(var, "").split(",")[0].strip()
        if v.isdigit() and int(v) > 0:
            n = min(n, int(v))
    return n


def first_touch_gbps(mb: int = 256) -> float:
    t0 = time.perf_counter()
    a = np.ones(mb << 17)  # mb MiB of float64
    dt = time.perf_counter() - t0
    del a
    return (mb / 1024) / dt


def _mem_available_mb() -> float:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024
    return float("nan")


def cpu_probe_ms(reps: int = 5) -> float:
    """Best of ``reps`` timings of a fixed pure-Python loop: rises when
    the hypervisor or a co-tenant takes the core away."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        sum(i * i for i in range(200_000))
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    with open("/proc/stat") as f:
        vals = [int(v) for v in f.readline().split()[1:]]
    return (vals[7] if len(vals) > 7 else 0), sum(vals)


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU time the hypervisor stole between two cpu_ticks()."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def weather() -> dict:
    return {
        "cpus": cpus(),
        "cpus_affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "first_touch_gbps": first_touch_gbps(),
        "cpu_probe_ms": cpu_probe_ms(),
        "mem_available_mb": _mem_available_mb(),
    }


def descendants(pid: int | None = None) -> list[int]:
    """All live descendants of ``pid`` (default: this process)."""
    pid = pid or os.getpid()
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces: fields resume after ')'
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] == "Z":
            continue
        children.setdefault(int(fields[1]), []).append(int(d))
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def tree_cpu_s() -> dict[int, float]:
    """pid -> CPU seconds (user + system, own and reaped children) of this
    process and each descendant. Time the hypervisor steals is not in it."""
    tick = os.sysconf("SC_CLK_TCK")
    out = {}
    for pid in [os.getpid(), *descendants()]:
        try:
            with open(f"/proc/{pid}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        out[pid] = sum(int(v) for v in fields[11:15]) / tick
    return out


def cpu_used_s(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds the process tree used between two tree_cpu_s()."""
    return sum(v - before.get(pid, 0.0) for pid, v in after.items())


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reset_peak_rss() -> None:
    """Restart peak-RSS accounting of this process and its tree."""
    for pid in [os.getpid(), *descendants()]:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass


def peak_rss_mb() -> float:
    """Sum of per-process peak RSS over the main process and its process tree
    (Ray's raylet, GCS and workers) since :func:`reset_peak_rss`."""
    return sum(_hwm_kb(p) for p in [os.getpid(), *descendants()]) / 1024


def reap_children(timeout: float = 60.0) -> list[int]:
    """Wait until every descendant has exited; kill what outlives
    ``timeout``. Returns the pids that had to be killed."""
    deadline = time.time() + timeout
    while descendants() and time.time() < deadline:
        time.sleep(0.2)
    killed = descendants()
    for pid in killed:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    while descendants() and time.time() < deadline + 10:
        time.sleep(0.2)
    return killed
