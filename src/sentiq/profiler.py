"""Background resource sampling for pipeline runs.

A daemon thread wakes every ``interval`` seconds and records three channels:

* ``cpu_pct`` — this process's CPU percent since the previous sample, from
  OS process-time accounting deltas (can exceed 100 on multiple cores);
* ``ram_pct`` — system-wide RAM in use, percent of physical memory;
* ``mem_pct`` — this process's resident set size, percent of physical memory.

``stop`` returns a report with min/avg/max per channel plus the raw samples
for plotting or CSV export; its ``to_dict`` gives ``None`` for each channel of
a session that ended before its first sample. Sampling only reads OS
counters, so its own footprint is negligible at sane intervals.

CPU comes from ``time.process_time`` on every platform. Memory comes from
``/proc/meminfo`` and ``/proc/self/statm`` where they exist (Linux); other
platforms need the optional ``psutil`` package (``pip install sentiq[psutil]``).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .corpus import write_csv
from .errors import ProfilerError

MEMINFO = Path("/proc/meminfo")
STATM = Path("/proc/self/statm")

MemoryReader = Callable[[], tuple[float, float]]


@dataclass(frozen=True)
class ResourceSample:
    """One reading; ``t`` is seconds since the profiler started."""

    t: float
    cpu_pct: float
    ram_pct: float
    mem_pct: float


@dataclass(frozen=True)
class ChannelStats:
    min: float
    avg: float
    max: float


@dataclass(frozen=True)
class ResourceReport:
    """Summary of one profiling session."""

    cpu: ChannelStats
    ram: ChannelStats
    mem: ChannelStats
    sample_count: int
    wall_seconds: float
    interval: float
    samples: tuple[ResourceSample, ...]

    def to_dict(self) -> dict:
        return {
            "cpu_pct": vars(self.cpu).copy() if self.sample_count else None,
            "ram_pct": vars(self.ram).copy() if self.sample_count else None,
            "mem_pct": vars(self.mem).copy() if self.sample_count else None,
            "sample_count": self.sample_count,
            "wall_seconds": self.wall_seconds,
            "interval": self.interval,
        }

    def write_samples_csv(self, path: str | Path) -> None:
        rows = (
            (f"{s.t:.3f}", f"{s.cpu_pct:.2f}", f"{s.ram_pct:.2f}", f"{s.mem_pct:.2f}")
            for s in self.samples
        )
        write_csv(path, ("t", "cpu_pct", "ram_pct", "mem_pct"), rows)


def _proc_reader() -> MemoryReader:
    """``(ram_pct, mem_pct)`` from /proc: ``MemAvailable`` and resident pages over ``MemTotal``."""
    page_size = os.sysconf("SC_PAGE_SIZE")

    def read() -> tuple[float, float]:
        kib = {}
        with open(MEMINFO, "rb") as f:
            for line in f:
                key, _, rest = line.partition(b":")
                if key in (b"MemTotal", b"MemAvailable"):
                    kib[key] = int(rest.split()[0])
                    if len(kib) == 2:
                        break
        total = kib[b"MemTotal"] * 1024
        with open(STATM, "rb") as f:
            resident = int(f.read().split()[1]) * page_size
        return (1.0 - kib[b"MemAvailable"] * 1024 / total) * 100.0, resident / total * 100.0

    return read


def _psutil_reader() -> MemoryReader:
    """The same two channels through psutil, for platforms without /proc."""
    try:
        import psutil
    except ImportError as exc:
        missing = " or ".join(str(path) for path in (MEMINFO, STATM) if not path.exists())
        raise ProfilerError(
            f"resource sampling unavailable: no {missing}, and psutil is not installed ({exc})"
        ) from None
    process = psutil.Process()

    def read() -> tuple[float, float]:
        vm = psutil.virtual_memory()
        return vm.percent, process.memory_info().rss / vm.total * 100.0

    return read


class ProfilerHandle:
    """Live profiling session; create with :func:`start`, finish with :func:`stop`."""

    def __init__(self, interval: float):
        self._read_memory = _proc_reader() if MEMINFO.exists() and STATM.exists() else _psutil_reader()
        try:
            self._read_memory()
        except Exception as exc:
            raise ProfilerError(f"resource sampling unavailable on this platform: {exc!r}") from exc
        self.interval = interval
        self.samples: list[ResourceSample] = []
        self._stop_event = threading.Event()
        self._t0 = time.monotonic()
        prime = (self._t0, time.process_time())  # the first sample's CPU delta starts here
        self._thread = threading.Thread(
            target=self._run, args=prime, name="sentiq-profiler", daemon=True
        )
        self._thread.start()

    def _run(self, last_wall: float, last_cpu: float) -> None:
        while not self._stop_event.wait(self.interval):
            wall, cpu_time = time.monotonic(), time.process_time()
            cpu = (cpu_time - last_cpu) / (wall - last_wall) * 100.0 if wall > last_wall else 0.0
            last_wall, last_cpu = wall, cpu_time
            try:
                ram, mem = self._read_memory()
            except Exception:  # pragma: no cover - process teardown race
                continue
            self.samples.append(ResourceSample(wall - self._t0, cpu, ram, mem))


def _stats(values: Sequence[float]) -> ChannelStats:
    if not values:
        return ChannelStats(0.0, 0.0, 0.0)
    lo, hi = min(values), max(values)
    # Clamp: float summation can nudge the mean a hair outside the
    # envelope (e.g. identical samples), and min <= avg <= max must hold.
    avg = min(max(sum(values) / len(values), lo), hi)
    return ChannelStats(lo, avg, hi)


def start(interval: float = 1.0) -> ProfilerHandle:
    """Start a sampling session; the first sample lands within one interval."""
    if not interval > 0:
        raise ProfilerError(f"interval must be positive, got {interval}")
    # stop joins the sampler with a timeout of interval + 5 s, and threading
    # raises OverflowError for a timeout above TIMEOUT_MAX.
    longest = threading.TIMEOUT_MAX - 5.0
    if not interval <= longest:
        raise ProfilerError(f"interval must be at most {longest:.0f} seconds, got {interval}")
    return ProfilerHandle(interval)


def stop(handle: ProfilerHandle) -> ResourceReport:
    """Stop a session and summarize it; stopping twice is an error."""
    if handle._stop_event.is_set():
        raise ProfilerError("profiler already stopped")
    handle._stop_event.set()
    handle._thread.join(timeout=handle.interval + 5.0)
    wall = time.monotonic() - handle._t0
    samples = tuple(handle.samples)
    return ResourceReport(
        cpu=_stats([s.cpu_pct for s in samples]),
        ram=_stats([s.ram_pct for s in samples]),
        mem=_stats([s.mem_pct for s in samples]),
        sample_count=len(samples),
        wall_seconds=wall,
        interval=handle.interval,
        samples=samples,
    )
