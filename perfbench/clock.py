"""Timing corrected for the machine's speed at the moment.

On the 2-CPU virtual machine this benchmark was written on, a fixed
pure-Python loop takes from 6.6 to 10.3 ms from one second to the next,
in CPU time as much as in wall time, and one exact n = 10 Kantorovich
solve repeated in one process varies by 40% between its quartiles.  No
amount of repetition inside a 20-second run averages that away.  So the
benchmark samples the machine's speed all through the run: every TICK_S
a SIGALRM handler times a short reference loop, and one more sample is
taken right before and right after each timed interval (a child process
samples itself, see below).  An interval is reported in nominal seconds:

    nominal = measured * nominal loop time / mean(loop times in and around it)

where `measured` leaves out the time spent in the handler.  The nominal
loop times are the loops' typical times on that machine, so nominal
seconds are close to measured ones.

The loop should do the workload's kind of arithmetic.  Timing repeated
n = 10 solves against each loop, the quartile spread fell from 0.47 to
0.07 with the Fraction loop and to 0.11 with the integer loop; for the
numpy identity battery it fell from 0.15 to 0.07 with the integer loop
and only to 0.14 with the Fraction loop.

The loops are benchmark code and never call ngd: a change to ngd moves a
nominal time by the same share as the measured one.  Measured times are
kept in the run record too.
"""

from __future__ import annotations

import json
import signal
import statistics
import sys
import time
from fractions import Fraction

TICK_S = 0.05


def _int_loop():
    s = 0
    for i in range(4000):
        s += i * i
    return s


def _fraction_loop():
    x = Fraction(0)
    for i in range(1, 60):
        x = Fraction(i, 7) + Fraction(3, i) * Fraction(5, i + 2)
    return x


# kind -> (loop, its nominal time in seconds)
REFERENCES = {"int": (_int_loop, 0.00035), "fraction": (_fraction_loop,
                                                       0.00059)}


def reference_s(kind: str) -> float:
    loop = REFERENCES[kind][0]
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


class Clock:
    """Use as a context manager: the timer runs only inside it.  Wrap each
    timed interval in `t = start()` ... `stop(t)`."""

    def __init__(self, kind: str):
        self.kind = kind
        self.nominal = REFERENCES[kind][1]
        self.refs = []    # reference-loop times, in the order taken
        self.busy = 0.0   # seconds spent in the handler
        self._old = None

    def _tick(self, signum=None, frame=None):
        d = reference_s(self.kind)
        self.refs.append(d)
        self.busy += d

    def _sample(self):
        """One reference sample taken from ordinary code, with the timer's
        signal held back so that the two cannot interleave."""
        signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGALRM])
        try:
            self._tick()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGALRM])

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def start(self):
        self._sample()
        return len(self.refs) - 1, self.busy, time.perf_counter()

    def stop(self, token):
        """(measured, nominal) seconds since `start`."""
        t1 = time.perf_counter()
        k0, busy0, t0 = token
        measured = t1 - t0 - (self.busy - busy0)
        self._sample()
        return measured, measured * self.nominal / statistics.fmean(
            self.refs[k0:])


# A child process is timed by its parent, but its speed is sampled by the
# child itself, right after its timed work: the parent is asleep while the
# child runs, and a CPU waking from sleep runs the reference loop slowly.
# Timing repeated set-up children against each loop, the Fraction loop
# left their spread as it was, where the integer loop widened it by half.
# perf_counter is CLOCK_MONOTONIC, so the two processes' stamps compare.

CHILD_REFS = 10
CHILD_TAG = "perfbench-clock"


def child_report(work_end: float) -> None:
    """In the child, after the timed work: time CHILD_REFS reference loops
    and print the stamps and times on stderr for the parent."""
    refs = [reference_s("fraction") for _ in range(CHILD_REFS)]
    print(CHILD_TAG, json.dumps({"end": work_end, "refs": refs,
                                 "done": time.perf_counter()}),
          file=sys.stderr, flush=True)


def child_nominal(spawned: float, exited, stderr: str) -> float:
    """Nominal seconds of a child's work: from `spawned` to the end of its
    work, or to `exited` less the time it spent on child_report."""
    lines = [ln for ln in stderr.splitlines() if ln.startswith(CHILD_TAG)]
    if not lines:
        raise ValueError("the child printed no clock report")
    d = json.loads(lines[-1].split(" ", 1)[1])
    if exited is None:
        measured = d["end"] - spawned
    else:
        measured = exited - spawned - (d["done"] - d["end"])
    return measured * REFERENCES["fraction"][1] / statistics.median(d["refs"])
