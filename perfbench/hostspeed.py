"""Host-speed probe: times a fixed unit of pure-Python work on one CPU.

The benchmark runs on a few CPUs of a shared host whose speed drifts by a
fifth or more over minutes as other tenants load it; a run's timings drift
with it, whatever the program does.  This process, pinned to the server's
CPU, wakes every :data:`INTERVAL_S`, runs :func:`unit` and prints one line
``<perf_counter> <cpu_ms>``: the CPU time the unit took.  That time grows
when the core is shared or clocked down, not when the probe only waits for
the CPU, and the unit touches no code of the program under test.  The probe
exits when its stdin closes.

Usage: ``python3 perfbench/hostspeed.py <cpu>`` (``-1``: no pin).
"""

from __future__ import annotations

import os
import select
import sys
import time

#: Seconds between samples; one unit takes a few ms, so the probe takes
#: about 2% of the CPU it shares with the server.
INTERVAL_S = 0.2
UNIT_STEPS = 40_000


def unit() -> int:
    total = 0
    for step in range(UNIT_STEPS):
        total += step * step % 7
    return total


def main(argv) -> int:
    cpu = int(argv[0])
    if cpu >= 0 and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})
    while True:
        start = time.thread_time()
        unit()
        spent = time.thread_time() - start
        sys.stdout.write(f"{time.perf_counter():.6f} {spent * 1e3:.6f}\n")
        sys.stdout.flush()
        readable, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if readable and not sys.stdin.readline():
            return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
