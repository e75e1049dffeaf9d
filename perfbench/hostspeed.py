"""How fast the host runs right now, sampled from a helper process.

On a shared host the same code runs up to a quarter faster or slower
from one minute to the next.  The benchmark divides the times it reports
by a *slowdown factor*: the median duration of :func:`reference_loop`
over a run, divided by :data:`REFERENCE_LOOP_NS`.

The loop runs in a helper interpreter of its own (``python3 -I -S``
running this file), never in the benchmark's process.  The helper
imports nothing of the simulator and shares no state with it, so a
slowdown the simulator causes in its own process — a busy background
thread holding the GIL, a profile or trace hook left installed — slows
the cells but not the loop, and shows in the reported figures instead of
cancelling itself out.  Only the host's own speed reaches the factor.

The two CPUs of a shared VM do not slow down together, so before each
sample the helper is pinned to the CPU the benchmark's thread last ran
on (Linux only); unpinned, its loop tracked the benchmark's speed
poorly on the reference host.  The benchmark's own process is never
pinned, so a thread the program starts is free to run on another CPU.

The protocol is one line each way: the benchmark writes an empty line,
the helper runs the loop once and answers with its duration in ns.
"""

from __future__ import annotations

import atexit
import os
import statistics
import subprocess
import sys
import time
from typing import Optional

#: Median duration of :func:`reference_loop` in the helper on the
#: reference host (an idle 2-CPU Intel Xeon VM, Python 3.11).
REFERENCE_LOOP_NS = 1_500_000
#: A reference loop runs between cells at most this often.
REFERENCE_EVERY_NS = 100_000_000


def reference_loop() -> int:
    """Fixed pure-Python work whose duration tracks the host's speed."""
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


def current_cpu() -> Optional[int]:
    """The CPU the calling thread last ran on (Linux), else None."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        with open("/proc/thread-self/stat") as fh:
            stat = fh.read()
    except OSError:
        return None
    # fields after the parenthesised command name; "processor" is 39th
    return int(stat.rsplit(")", 1)[1].split()[36])


class Helper:
    """The helper process that times :func:`reference_loop` on request."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", __file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        #: the CPU the helper is pinned to, if any
        self.cpu: Optional[int] = None

    def time_loop(self) -> int:
        """ns one reference loop took in the helper, on the CPU the
        calling thread last ran on."""
        cpu = current_cpu()
        if cpu is not None and cpu != self.cpu:
            os.sched_setaffinity(self.proc.pid, {cpu})
            self.cpu = cpu
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"host-speed helper exited ({self.proc.poll()})")
        return int(line)

    def close(self) -> None:
        """Stop the helper and wait until it has ended."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


_helper: Optional[Helper] = None


def start() -> None:
    """Start the process-wide helper unless it runs already."""
    global _helper
    if _helper is None:
        _helper = Helper()


def stop() -> None:
    """Stop the process-wide helper, if one runs."""
    global _helper
    if _helper is not None:
        helper, _helper = _helper, None
        helper.close()


atexit.register(stop)


class HostSpeed:
    """Samples of the host's speed over one measured stretch.

    Between cells, at most every :data:`REFERENCE_EVERY_NS`, the
    benchmark asks the helper for one reference loop.  The round trip
    happens outside every timed cell and is taken off the loop's wall
    clock (:attr:`spent_ns`).
    """

    def __init__(self) -> None:
        #: reference loop durations, ns, as the helper measured them
        self.samples: list[int] = []
        #: ns the round trips to the helper took so far
        self.spent_ns = 0
        self._due = 0

    def sample(self, *, force: bool = False) -> None:
        start_ns = time.perf_counter_ns()
        if start_ns < self._due and not force:
            return
        start()
        self.samples.append(_helper.time_loop())
        end_ns = time.perf_counter_ns()
        self.spent_ns += end_ns - start_ns
        self._due = end_ns + REFERENCE_EVERY_NS

    @property
    def factor(self) -> float:
        """Slowdown against the reference host (2.0 = half as fast)."""
        return statistics.median(self.samples) / REFERENCE_LOOP_NS


def serve() -> None:
    """The helper's side: one reference loop per request line."""
    for _ in sys.stdin.buffer:
        start_ns = time.perf_counter_ns()
        reference_loop()
        sys.stdout.write(f"{time.perf_counter_ns() - start_ns}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
