"""CPU and memory of this process's tree, read from ``/proc``.

The tree is this process plus everything it started: the local Ray daemons
and all Ray worker processes.  CPU time is ``utime + stime`` per process;
memory is the summed PSS from ``/proc/<pid>/smaps_rollup``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    # comm may hold spaces; everything after the closing ')' is positional
    return raw[raw.rindex(")") + 2 :].split()


def tree_pids(root: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        f = _stat_fields(int(name))
        if f is not None:
            children.setdefault(int(f[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, ()))
    return out


def _cpu_ticks(pid: int) -> Optional[tuple]:
    f = _stat_fields(pid)
    # stat fields 14, 15 and 22: utime, stime, starttime (tells pid reuse apart)
    return None if f is None else ((pid, f[19]), int(f[11]) + int(f[12]))


def pss_mb(pids: List[int]) -> float:
    kb = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return kb / 1024.0


class Sampler:
    """Background sampler of this process's tree.

    ``cpu_s()`` is the CPU time the tree used since the sampler started:
    per process, its last sampled ``utime + stime`` minus its value at the
    start (0 for processes born later).  Ray reaps exited workers without
    crediting their time to a parent, so sampling every ``interval`` is
    what keeps a worker that exits mid-call counted (up to its last
    interval).  ``peak_mb`` is the highest summed PSS seen; ``probes``
    holds the values of an optional ``probe`` (e.g. free Ray CPUs)."""

    def __init__(self, interval: float = 0.1, probe: Optional[Callable[[], float]] = None):
        self.interval = interval
        self.probe = probe
        self.peak_mb = 0.0
        self.probes: List[float] = []
        self._base: Dict[tuple, int] = {}
        self._last: Dict[tuple, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._root = os.getpid()

    def _sample_cpu(self) -> List[int]:
        pids = tree_pids(self._root)
        with self._lock:
            for p in pids:
                t = _cpu_ticks(p)
                if t is not None:
                    self._last[t[0]] = t[1]
        return pids

    def cpu_s(self) -> float:
        self._sample_cpu()
        with self._lock:
            ticks = sum(v - self._base.get(k, 0) for k, v in self._last.items())
        return ticks / _TICK

    def _loop(self) -> None:
        while not self._stop.is_set():
            pids = self._sample_cpu()
            self.peak_mb = max(self.peak_mb, pss_mb(pids))
            if self.probe is not None:
                try:
                    self.probes.append(self.probe())
                except Exception:  # a failed probe only loses one sample
                    pass
            self._stop.wait(self.interval)

    def __enter__(self) -> "Sampler":
        self._sample_cpu()
        self._base = dict(self._last)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self.cpu_total = self.cpu_s()
        self.new_procs = len(set(self._last) - set(self._base))


def cpu_stat() -> List[int]:
    """The machine-wide ``cpu`` line of /proc/stat (user .. steal ticks)."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of machine CPU time stolen by the hypervisor in between."""
    d = [a - b for a, b in zip(after, before)]
    return d[7] / sum(d) if sum(d) else 0.0


def host_speed_s() -> float:
    """Seconds for a fixed pure-Python loop (median of 3): a probe of how
    fast this host runs single-threaded code right now."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t)
    return sorted(times)[1]


def host_facts() -> Dict:
    import duckdb
    import pyarrow
    import ray

    try:
        nproc = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        nproc = None
    return {
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "nproc": nproc,
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_before": os.getloadavg(),
        "host_speed_s_before": host_speed_s(),
        "python": sys.version.split()[0],
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "duckdb": duckdb.__version__,
    }
