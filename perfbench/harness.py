"""Measurement primitives shared by the workloads.

Nothing here knows about Datalog: latency summaries (median and the tail
rule), failure accounting, the open-loop request generator, timing a fresh
process, peak memory and the calibration loop.  ``test_harness.py`` pins each of them.
"""

from __future__ import annotations

import ctypes
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: a tail percentile must leave at least this many samples beyond it
TAIL_MIN_BEYOND = 10
#: the percentiles a tail is chosen from, highest first
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)
#: best-of rounds of the calibration loop
CALIBRATION_ROUNDS = 3
#: seconds a fresh process may take before it counts as hung
FRESH_PROCESS_TIMEOUT = 60.0
#: prctl(2) option that sets the calling thread's timer slack, in nanoseconds
_PR_SET_TIMERSLACK = 29


def tail(values: Sequence[float], cap: float = TAIL_PERCENTILES[0]) -> Tuple[float, float]:
    """``(percentile, value)``: the highest percentile, up to ``cap``, with ten samples beyond it.

    The percentile is the highest of :data:`TAIL_PERCENTILES`, no higher
    than ``cap``, that leaves at least :data:`TAIL_MIN_BEYOND` of the ``n`` samples
    strictly above its rank ``ceil(n * p / 100)``; its value is the sample at
    that rank.  Each workload fixes ``cap`` at the rung this rule picks for
    its seed-state sample count, so a change that completes more queries in
    the same window is still compared at the same percentile.
    """
    percentile, _, (value,) = kind_tail([values], cap)
    return percentile, value


def kind_tail(groups: Sequence[Sequence[float]], cap: float) -> Tuple[float, float, List[float]]:
    """``(percentile, value, per-group values)``: the geometric mean of each group's tail.

    A closed loop that cycles through a few kinds of query has a latency
    distribution with one mode per kind, so a percentile of all samples
    together is the median of whichever kind is slowest.  Here every group
    (one kind's latencies) gets its own tail at one percentile, and the
    groups count equally.  The percentile follows :func:`tail`'s rule, with
    the samples beyond each group's tail counted together.
    """
    for percentile in TAIL_PERCENTILES:
        if percentile > cap:
            continue
        ranks = [math.ceil(len(group) * percentile / 100.0 - 1e-9) for group in groups]
        beyond = sum(len(group) - rank for group, rank in zip(groups, ranks))
        if min(ranks) >= 1 and beyond >= TAIL_MIN_BEYOND:
            values = [sorted(group)[rank - 1] for group, rank in zip(groups, ranks)]
            return percentile, math.exp(sum(math.log(value) for value in values) / len(values)), values
    counts = [len(group) for group in groups]
    raise ValueError(f"no tail percentile leaves {TAIL_MIN_BEYOND} of {counts} samples beyond it")


def latency_summary(seconds: Sequence[float], cap: float) -> Dict[str, Optional[float]]:
    """Median and tail (see :func:`tail`) of latencies given in seconds, reported in milliseconds.

    The tail is ``None`` when too few samples leave ten beyond any percentile.
    """
    try:
        percentile, value = tail(seconds, cap)
    except ValueError:
        percentile, value = None, None
    return {
        "p50_ms": statistics.median(seconds) * 1e3,
        "tail_ms": None if value is None else value * 1e3,
        "tail_percentile": percentile,
        "samples": len(seconds),
    }


@dataclass
class Tally:
    """Attempted operations and failed ones, by reason.

    Errors, timeouts, refused or shed writes and wrong answers all count as
    failed.  A check that is not itself an operation (say, the reopened
    store's contents) is attempted like one, so ``failed <= attempted``.
    """

    attempted: int = 0
    failures: Counter = field(default_factory=Counter)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.failures[reason] += count

    def check(self, ok: bool, reason: str) -> bool:
        """Attempt one check; a false ``ok`` fails it under ``reason``."""
        self.attempt()
        if not ok:
            self.fail(reason)
        return ok

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failures.update(other.failures)


@dataclass
class OpenLoopResult:
    """What one open-loop stream did: latencies from due time, and its lateness."""

    #: seconds from each completed request's due time to its completion
    latencies: List[float]
    #: seconds each issued request started after its due time
    lateness: List[float]
    #: requests due inside the window that were never issued
    unissued: int
    #: seconds from the window's start to the last completion
    elapsed: float

    def lateness_summary(self) -> Dict[str, float]:
        if not self.lateness:
            return {"median_ms": 0.0, "max_ms": 0.0}
        return {
            "median_ms": statistics.median(self.lateness) * 1e3,
            "max_ms": max(self.lateness) * 1e3,
        }


class OpenLoop:
    """Issues requests on a fixed schedule from one thread.

    Request ``i`` is due at ``start + i / rate``.  The generator sleeps until
    a request is due, issues it, and times it from its due time, so a stall
    shows up as latency of every request queued behind it rather than as
    reduced load.  Every request due inside the window is issued, however
    late; a generator still behind ``grace`` seconds after the window closes
    stops and reports the rest as unissued, which marks the run invalid.

    ``issue(i)`` returns ``True`` for a completed request; a failed one
    (``False``) is counted by the caller and gets no latency sample.
    """

    def __init__(
        self,
        rate: float,
        seconds: float,
        *,
        grace: float = 1.0,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.rate = rate
        self.seconds = seconds
        self.grace = grace
        self.clock = clock
        self.sleep = sleep

    def due_count(self) -> int:
        return int(math.floor(self.rate * self.seconds))

    def run(self, issue: Callable[[int], bool], start: Optional[float] = None) -> OpenLoopResult:
        clock = self.clock
        start = clock() if start is None else start
        cutoff = start + self.seconds + self.grace
        total = self.due_count()
        latencies: List[float] = []
        lateness: List[float] = []
        finished = start
        for index in range(total):
            due = start + index / self.rate
            now = clock()
            if now < due:
                self.sleep(due - now)
                now = clock()
            if now > cutoff:
                return OpenLoopResult(latencies, lateness, total - index, finished - start)
            lateness.append(max(0.0, now - due))
            ok = issue(index)
            finished = clock()
            if ok:
                latencies.append(finished - due)
        return OpenLoopResult(latencies, lateness, 0, finished - start)


def tighten_timer_slack() -> bool:
    """Ask Linux to wake this process's sleeps within 1 us instead of the default 50 us.

    Threads started afterwards inherit it, so an open-loop generator issues
    requests closer to their due times.  Returns ``False`` where unsupported.
    """
    if not sys.platform.startswith("linux"):
        return False
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_TIMERSLACK, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_seconds() -> float:
    """Best-of-:data:`CALIBRATION_ROUNDS` time of a fixed pure-Python loop.

    Recorded beside every run so drift of the machine's speed is visible.
    It is never used to normalize a metric.
    """
    best = math.inf
    for _ in range(CALIBRATION_ROUNDS):
        started = time.perf_counter()
        total = 0
        for value in range(400_000):
            total += value * value % 7
        best = min(best, time.perf_counter() - started)
    return best


def fresh_process_seconds(code: str, cwd: str) -> float:
    """The seconds a fresh interpreter running ``code`` reports on its last line of output.

    The child runs with bytecode writing off (``-B``), so it leaves no
    ``__pycache__`` behind; it still reads any bytecode that exists, so a
    caller that times compiling from source must hand it source without one.
    """
    done = subprocess.run(
        [sys.executable, "-B", "-c", code],
        cwd=cwd, capture_output=True, text=True, timeout=FRESH_PROCESS_TIMEOUT, check=True,
    )
    return float(done.stdout.split()[-1])
