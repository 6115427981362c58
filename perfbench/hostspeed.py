"""Host-speed sampling: scale measured times to a nominal host.

The benchmark's host is shared, and its speed drifts in phases of one
to five seconds; the program's ops slow down and speed up with it.
``HostSpeed`` times a fixed reference loop and scales each op's time by
the loop's nominal time over its time measured around the op.

The loop runs in a child process of its own (``python3 hostspeed.py``),
on the benchmark's CPU, and only at moments when no thread of the
benchmark can run: the benchmark first waits until each of its other
threads is asleep, then blocks on the child's answer. Nothing the
program holds (its heap, its allocator state, its garbage) or does
after a response (a server thread's post-send work) reaches the loop.
What the program leaves in the CPU's caches can; perfbench/README.md
records a check that adding 256 MiB of copies to every other GET did
not move the loop.

Samples are taken between ops and, on a workload whose process has no
other threads, on a process-CPU interval timer (``SIGPROF``) during
the ops as well. An op's time, less the sampler's own time inside it,
is scaled by the loop's nominal time over the mean of the samples
taken during the op or within ``PAD`` seconds of it.
"""

from __future__ import annotations

import bisect
import os
import signal
import struct
import subprocess
import sys
import threading
import time

__all__ = ["HostSpeed"]

#: Seconds between samples (process CPU on the timer, wall between ops).
INTERVAL = 0.02
#: A short op is normalised by the samples this close to it.
PAD = 0.1
#: Longest wait for the benchmark's other threads to fall asleep.
QUIET_TIMEOUT = 0.05
#: The reference loop's seconds on the nominal host (about its median
#: on the development host when that host ran at its usual speed).
NOMINAL = 200e-6


def reference_loop() -> None:
    """Dict updates and ``str()`` of 1000 integers: interpreter work."""
    table = {}
    for i in range(1000):
        table[i & 63] = table.get(i & 63, 0) + i
        str(i)


def _serve() -> None:
    """Child side: per byte read from stdin, time the loop once and
    write its wall seconds to stdout as a double."""
    for _ in range(20):  # the first runs are slower
        reference_loop()
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    while stdin.read(1):
        t0 = time.perf_counter()
        reference_loop()
        stdout.write(struct.pack("d", time.perf_counter() - t0))
        stdout.flush()


def _other_threads_asleep() -> bool:
    """True when no thread of this process but the caller is runnable."""
    me = str(threading.get_native_id())
    for tid in os.listdir("/proc/self/task"):
        if tid == me:
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:  # the thread ended
            continue
        # The state follows the command name, which is in parentheses.
        state = stat.rindex(b")") + 2
        if stat[state : state + 1] == b"R":
            return False
    return True


class HostSpeed:
    """Samples the reference loop in a child process.

    With ``in_ops`` a ``SIGPROF`` timer also samples during ops; use it
    only when the benchmark process has no other threads.
    """

    def __init__(self, in_ops: bool):
        self.in_ops = in_ops
        #: Wall start and loop seconds of each sample.
        self.starts = []
        self.times = []
        #: Wall and CPU seconds this process spent sampling so far.
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._last = 0.0
        self._child = None
        self._previous = None
        self._sampling = False

    def __enter__(self) -> "HostSpeed":
        # Started after the benchmark pinned itself, so the child runs
        # on the same CPU.
        self._child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
        )
        self.sample()  # so even a short phase has a sample
        if self.in_ops:
            self._previous = signal.signal(signal.SIGPROF, self._on_timer)
            signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.in_ops:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, self._previous)
        self._child.stdin.close()
        self._child.stdout.close()
        self._child.wait(10)

    def _on_timer(self, signum, frame) -> None:
        # A handler can run again inside itself.
        if not self._sampling:
            self.sample()

    def sample(self) -> None:
        """Wait until the other threads sleep, then time the loop."""
        self._sampling = True
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            deadline = t0 + QUIET_TIMEOUT
            while (not _other_threads_asleep()
                   and time.perf_counter() < deadline):
                time.sleep(0.0001)
            self.starts.append(time.perf_counter())
            self._child.stdin.write(b"s")
            answer = b""
            while len(answer) < 8:
                chunk = self._child.stdout.read(8 - len(answer))
                if not chunk:
                    raise RuntimeError("the reference-loop process ended")
                answer += chunk
            self.times.append(struct.unpack("d", answer)[0])
            self._last = time.perf_counter()
            self.spent_wall += self._last - t0
            self.spent_cpu += time.process_time() - c0
        finally:
            self._sampling = False

    def between_ops(self) -> None:
        """Sample if ``INTERVAL`` has passed since the last sample."""
        if time.perf_counter() - self._last >= INTERVAL:
            self.sample()

    def mark(self):
        """Clock readings plus the sampler's spend, at an op boundary."""
        return (time.perf_counter(), time.process_time(), self.spent_wall,
                self.spent_cpu)

    def normalise(self, begin, end):
        """(wall, CPU) seconds between two marks, sampler time removed,
        scaled to the nominal host."""
        wall = (end[0] - begin[0]) - (end[2] - begin[2])
        cpu = (end[1] - begin[1]) - (end[3] - begin[3])
        scale = NOMINAL / self.loop_time(begin[0], end[0])
        return wall * scale, cpu * scale

    def loop_time(self, start: float, stop: float) -> float:
        """Mean loop seconds of the samples in ``[start - PAD,
        stop + PAD]``, else of the nearest sample."""
        lo = bisect.bisect_left(self.starts, start - PAD)
        hi = bisect.bisect_right(self.starts, stop + PAD)
        if lo == hi:
            after = min(lo, len(self.starts) - 1)
            before = max(lo - 1, 0)
            lo = min((before, after),
                     key=lambda i: min(abs(self.starts[i] - start),
                                       abs(self.starts[i] - stop)))
            hi = lo + 1
        return sum(self.times[lo:hi]) / (hi - lo)

    def median_loop(self) -> float:
        ordered = sorted(self.times)
        return ordered[len(ordered) // 2]


if __name__ == "__main__":
    _serve()
