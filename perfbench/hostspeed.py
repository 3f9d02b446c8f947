"""How fast the host runs Python right now, and times corrected for it.

The benchmark shares its CPUs with other tenants, whose load slows this
process for seconds to minutes at a time, by up to half. Run-to-run spread
from that source swamps the differences the benchmark exists to show.

Two kinds of load reach this process. The hypervisor takes its virtual CPU
away for a while (steal); the process's CPU time leaves that out, so spans
of this process are measured in CPU time (the program is CPU-bound: with
little steal, CPU time and wall time of a pass agree within 1%). And the
CPU runs slower while other tenants share its core and caches; CPU time
grows with that, by up to 1.8 times.

For the second, ``SpeedProbe`` interrupts the process every ``INTERVAL``
seconds (SIGALRM, main thread) and times, in CPU time, one fixed unit of
pure-Python work: Fraction arithmetic, a small heap of events dumped to
JSON lines, and a JSON parse and scan, the kinds of work a cell does. Any
span of the run can then be expressed at a fixed reference speed: its CPU
time, minus the probe units that ran inside it, times a factor that the
median unit time inside it sets. That is about the time the span would
have taken on a host where the unit takes ``REFERENCE_UNIT_S``, whatever
the load was during this run or any other. The work being measured never
enters the probe, so a change that makes viewsync faster or slower moves
the corrected time by the same factor as the raw one.

The probe feels the host's load more than a cell does: when the unit takes
1.8 times as long, a cell takes about 1.6 times as long. Fitting
log(cell time) against log(unit time) over 3 s windows of a 150 s run, for
cells of each workload, gave slopes of 0.68-0.79, so the factor is
(REFERENCE_UNIT_S / unit time) ** SENSITIVITY. With the slope, the spread
of corrected cell times between windows fell from 0.05-0.09 to 0.04-0.05
(IQR over median); raw, it was 0.16-0.22.
"""

from __future__ import annotations

import heapq
import json
import os
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

INTERVAL = 0.05
# Near the unit's CPU time in quiet stretches of a 2-core x86-64 host
# (Python 3.11). It only sets the scale of corrected times; every run and
# every tree uses the same.
REFERENCE_UNIT_S = 0.0008
SENSITIVITY = 0.75  # fitted slope of log(cell time) on log(unit time); see above
MIN_UNITS = 20  # intervals with fewer probes inside borrow their neighbours'

_RECORDS = json.dumps(
    [
        {"t": f"{i}/3", "kind": ("send", "deliver")[i % 2], "to": i % 10, "view": i // 20,
         "sig": [i, i + 1]}
        for i in range(120)
    ]
)


def _unit() -> tuple:
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(i, 7)
    heap: list = []
    for i in range(60):
        heapq.heappush(heap, (Fraction(i * 37 % 61, 3), i))
    lines = []
    while heap:
        t, i = heapq.heappop(heap)
        lines.append(json.dumps({"t": str(t), "i": i}, separators=(",", ":")))
    views: dict = {}
    for r in json.loads(_RECORDS):
        if r["kind"] == "deliver":
            views.setdefault(r["view"], set()).add(r["to"])
    return s, len(lines), len(views)


class Span(NamedTuple):
    """A stretch of the run on both clocks, and the steal of all CPUs during it."""

    start: float  # perf_counter
    end: float
    cpu_start: float  # process_time
    cpu_end: float
    steal: float = 0.0


def host_steal() -> float:
    """Seconds the hypervisor has taken from all virtual CPUs so far; 0 where unknown."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def timed(fn):
    """fn()'s result and its Span."""
    t0, c0, s0 = time.perf_counter(), time.process_time(), host_steal()
    out = fn()
    return out, Span(t0, time.perf_counter(), c0, time.process_time(), host_steal() - s0)


def factor_of(median_unit: float) -> float:
    """How much faster the reference host is than one where the unit takes median_unit."""
    return (REFERENCE_UNIT_S / median_unit) ** SENSITIVITY


class SpeedProbe:
    """Samples the probe unit's CPU time while started; a context manager."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter at each unit's start
        self.cpu: list[float] = []  # process_time at each unit's start
        self.durations: list[float] = []  # CPU seconds of each unit
        self._previous = None

    def _handler(self, _signum, _frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        _unit()
        self.starts.append(t0)
        self.cpu.append(c0)
        self.durations.append(time.process_time() - c0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _window(self, start: float, end: float) -> tuple[int, int]:
        return bisect_left(self.starts, start), bisect_right(self.starts, end)

    def median_unit(self, start: float, end: float) -> float:
        """Median unit time during [start, end], widened to at least MIN_UNITS probes."""
        lo, hi = self._window(start, end)
        if hi - lo < MIN_UNITS:
            pad = (MIN_UNITS - (hi - lo) + 1) // 2
            lo, hi = max(0, lo - pad), min(len(self.durations), hi + pad)
        return statistics.median(self.durations[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """How much faster the reference host is than this one during [start, end]."""
        return factor_of(self.median_unit(start, end))

    def corrected(self, span: Span) -> float:
        """CPU seconds of a span of this process, without the probes, at reference speed.

        A long span is cut into stretches of MIN_UNITS probes, each corrected
        at its own speed, since the host's speed changes within seconds.
        """
        lo, hi = self._window(span.start, span.end)
        cuts = range(lo + MIN_UNITS, hi - MIN_UNITS + 1, MIN_UNITS)
        walls = [span.start, *(self.starts[i] for i in cuts), span.end]
        cpus = [span.cpu_start, *(self.cpu[i] for i in cuts), span.cpu_end]
        total = 0.0
        for k in range(len(walls) - 1):
            # A probe starting exactly at a cut belongs to the stretch after it.
            i = bisect_left(self.starts, walls[k])
            j = (bisect_left if k + 2 < len(walls) else bisect_right)(self.starts, walls[k + 1])
            busy = cpus[k + 1] - cpus[k] - sum(self.durations[i:j])
            total += busy * self.factor(walls[k], walls[k + 1])
        return total


class WorkerSampler:
    """Samples the speed inside a process pool's workers instead of this process.

    A probe here would compete with the workers for the cores, and the
    workers may run on other cores than this process, so while entered this
    process's probe is stopped and ``module.name`` (the function the pool's
    workers call for each task) is rebound. In a worker forked while
    entered, the first call starts a SpeedProbe, and every call ends by
    appending the probe units taken so far to a file of that worker under
    ``directory``. On exit the files are read into ``durations`` and removed.
    The rebinding reaches the workers because the pool forks them (the
    default start method on Linux); workers started otherwise send nothing.
    """

    def __init__(self, module, name: str, directory: Path) -> None:
        self.module, self.name, self.directory = module, name, Path(directory)
        self.durations: list[float] = []
        self._parent = os.getpid()
        self._saved = None
        self._probe: SpeedProbe | None = None
        self._flushed = 0

    def _files(self):
        return self.directory.glob(f"units-{self._parent}-*.txt")

    def _flush(self) -> None:
        new = self._probe.durations[self._flushed:]
        self._flushed += len(new)
        if new:
            path = self.directory / f"units-{self._parent}-{os.getpid()}.txt"
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("".join(f"{d!r}\n" for d in new))

    def __enter__(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        for path in self._files():
            path.unlink()
        fn = self._saved = getattr(self.module, self.name)

        def sampled(*args, **kwargs):
            if os.getpid() == self._parent:
                return fn(*args, **kwargs)
            if self._probe is None:
                self._probe = SpeedProbe().__enter__()
            try:
                return fn(*args, **kwargs)
            finally:
                self._flush()

        setattr(self.module, self.name, sampled)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.name, self._saved)
        for path in sorted(self._files()):
            self.durations += [float(x) for x in path.read_text(encoding="utf-8").split()]
            path.unlink()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
