"""Host speed meter: turns wall time into reference seconds.

On a shared host the speed of the same code moves by up to 1.9x, in
phases of seconds to minutes, and the whole interpreter slows alike:
2-second medians of ``enumeration.build(6)`` and of a fixed pure-Python
loop rise and fall together, their ratio steady within 3% while each
moves by 40%.  A run of tens of seconds lies inside one such phase, so
no statistic over a run's own wall times takes the phase out.

The meter does.  While a pass runs, a ``SIGALRM`` handler runs a fixed
probe of pure-Python tuple work every ``INTERVAL_S`` seconds and keeps
its start and end.  The probe belongs to the benchmark, so nothing a
change to the program does moves it.  An interval of wall time is then
converted as

    reference seconds = (wall - probe time inside it) * mean(PROBE_REF_S / probe_i)

over the probes that ran inside it, widened by ``WINDOW_S`` on each
side so that a short operation still has probes around it.  That is
the time the interval's work takes on the reference machine's
undisturbed core, where one probe takes ``PROBE_REF_S``.  A program
change that makes the work slower or faster moves this figure exactly as
it moves the wall time; a host phase does not.
"""

from __future__ import annotations

import bisect
import signal
import time

# one probe on an undisturbed core of the reference machine (2.1 GHz
# Xeon guest, CPython 3.11.7); only a scale, so that values read in seconds
PROBE_REF_S = 0.00045
INTERVAL_S = 0.05
WINDOW_S = 0.25


def _probe_tuples():
    """A fixed list of img tuples: rotations and reflections of 1..8
    with some points dropped, made without ``random`` so it never moves."""
    out = []
    for k in range(24):
        img = [(x * (3 if k % 2 else 5) + k) % 8 + 1 for x in range(8)]
        out.append(tuple(0 if (x + k) % 5 == 0 else v for x, v in enumerate(img)))
    return out


_TUPLES = _probe_tuples()


def probe():
    """Fixed pure-Python work: products and inverses of partial maps on
    tuples, as the program's kernels do."""
    acc = 0
    for a in _TUPLES:
        for b in _TUPLES[:14]:
            c = tuple(b[v - 1] if v else 0 for v in a)
            inv = [0] * 8
            for x, v in enumerate(c, start=1):
                if v:
                    inv[v - 1] = x
            acc += sum(inv)
    return acc


class Meter:
    """Runs the probe on a timer and converts wall intervals."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.probes = []  # (start, end) in time.monotonic() seconds
        self.busy = []  # every probe run, warm-up included
        self._starts = ([], [])  # start times of both, built on first use

    def _run(self, record=True):
        self.busy.append((time.monotonic(), None))
        probe()
        span = (self.busy[-1][0], time.monotonic())
        self.busy[-1] = span
        if record:
            self.probes.append(span)

    def _tick(self, signum, frame):
        if not self.busy or self.busy[-1][1] is not None:  # not inside a probe
            self._run()

    def start(self):
        for _ in range(8):  # let the interpreter specialise the probe's code
            self._run(record=False)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def sample(self, count=10):
        """Probe ``count`` times now, so an interval just ended has probes
        after it even when the process is about to exit."""
        for _ in range(count):
            self._run()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def convert(self, t0, t1):
        """(reference seconds, wall seconds without probes, mean slowdown)
        of the interval from ``t0`` to ``t1``; ``t0`` may precede ``start``.
        Probes run in order and never overlap, so both lists are sorted."""
        if len(self._starts[0]) != len(self.busy):
            self._starts = ([s for s, _ in self.busy], [s for s, _ in self.probes])
        starts, probe_starts = self._starts
        lo = bisect.bisect_left(starts, t0 - 1.0)  # no probe takes a second
        hi = bisect.bisect_left(starts, t1)
        busy = sum(max(0.0, min(e, t1) - max(s, t0)) for s, e in self.busy[lo:hi])
        wall = t1 - t0 - busy
        lo = bisect.bisect_left(probe_starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(probe_starts, t1 + WINDOW_S)
        near = [e - s for s, e in self.probes[lo:hi]]
        if not near:
            raise RuntimeError("no host speed probe ran near the interval")
        speed = sum(PROBE_REF_S / d for d in near) / len(near)
        return wall * speed, wall, 1 / speed
