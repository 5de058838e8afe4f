"""Machine-speed calibration of the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by tens of
percent within seconds: on a 2-CPU virtual machine, the speed samples below
ranged from 2,100 to 6,500 units per second within 20 seconds, and whole
passes of one workload took from 11 to 17 CPU seconds.  A run of half a
minute cannot average that out.

So while a `Calibration` runs, a profiling timer interrupts the process
every INTERVAL_S of CPU time, and the signal handler times a fixed unit of
pure-Python work (breadth-first searches over a fixed grid, with the
tuples, dicts, deques and ints lkcds itself uses) for SAMPLE_S.  This needs
no thread, and it samples the speed inside long calls as well as between
them.  A timed interval is then reported at the reference speed: its CPU
time, less the time the handler spent inside it, times the mean speed
sampled during it (or, for a short interval, just before and after it),
over REF_SPEED.  CPU time is read from the thread clock: while a process
timer is armed, Linux updates the process clock only once per tick.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from collections import deque
from typing import List, Tuple

REF_SPEED = 4500.0  # calibration units per CPU second on the reference machine
INTERVAL_S = 0.25  # CPU time between speed samples
SAMPLE_S = 0.02  # CPU time one speed sample takes


def _grid(rows: int, cols: int) -> tuple:
    adj: List[List[int]] = [[] for _ in range(rows * cols)]
    for v in range(rows * cols):
        if v % cols + 1 < cols:
            adj[v].append(v + 1)
            adj[v + 1].append(v)
        if v + cols < rows * cols:
            adj[v].append(v + cols)
            adj[v + cols].append(v)
    return tuple(tuple(row) for row in adj)


_GRID = _grid(12, 12)


def _unit() -> int:
    total = 0
    for source in (0, 37, 71, 143):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            d = dist[u] + 1
            for w in _GRID[u]:
                if w not in dist:
                    dist[w] = d
                    queue.append(w)
        total += sum(dist.values())
    return total


def measure_speed() -> float:
    """Calibration units per CPU second, over about SAMPLE_S."""
    start = time.thread_time()
    units = 0
    while True:
        _unit()
        units += 1
        elapsed = time.thread_time() - start
        if elapsed >= SAMPLE_S:
            return units / elapsed


class Calibration:
    """Speed samples taken on a CPU-time timer, and intervals scaled by them."""

    def __init__(self) -> None:
        self.times: List[float] = []  # CPU time at the middle of each sample
        self.speeds: List[float] = []
        self.spent = 0.0  # CPU time spent sampling so far
        self.sample()

    def sample(self) -> None:
        start = time.thread_time()
        speed = measure_speed()
        end = time.thread_time()
        self.times.append((start + end) / 2)
        self.speeds.append(speed)
        self.spent += end - start

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self) -> Tuple[float, float]:
        """The CPU clock and the sampling time spent, at one instant."""
        while True:
            spent = self.spent
            now = time.thread_time()
            if spent == self.spent:  # no sample ran in between
                return now, spent

    def interval(self, begin: Tuple[float, float]) -> Tuple[float, float, float]:
        """(start, end, own CPU seconds) of the interval since `begin`."""
        now, spent = self.mark()
        return begin[0], now, (now - begin[0]) - (spent - begin[1])

    def scale(self, span: Tuple[float, float, float]) -> float:
        """Own seconds of an interval at REF_SPEED; call once sampling is over."""
        start, end, seconds = span
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        inside = self.speeds[lo:hi]
        if inside:
            speed = statistics.fmean(inside)
        else:
            speed = statistics.fmean(self.speeds[max(lo - 1, 0):lo + 1])
        return seconds * speed / REF_SPEED
