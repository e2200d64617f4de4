"""Machine-speed calibration for the benchmark's timed calls.

A shared VM runs a process at speeds up to about 1.8x apart, and the share
of time it spends slow drifts from minute to minute, so raw wall times of
the same code spread far between runs.  `calibrate()` times a fixed
pure-Python loop that uses none of the program's code; `slowdown(cal)` is
how many times slower the machine ran than the reference (REFERENCE_S, a
round figure near the loop's 4.3 ms at the fast speed of a 2-vCPU Xeon VM
with Python 3.11).  A call's wall time divided by the slowdown measured
around it is its time at the reference speed.  A change to the program
moves the call's time and not the loop's, so it shows in full in the
normalised figures.
"""

import gc
import time

REFERENCE_S = 0.005   # seconds the loop takes at the reference speed
LOOP_N = 4000


def calibrate() -> float:
    """Seconds of one run of the fixed loop: dict updates, string
    formatting, float arithmetic and sorting, as the program's layers do.
    The collector is off during the loop, so the heap the program left
    behind does not change its time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts = {}
        acc = 0.0
        parts = []
        for i in range(LOOP_N):
            key = f"k{i % 257}:{i * 7919 % 1009}"
            counts[key] = counts.get(key, 0) + 1
            acc += (i * 0.5) ** 0.5 / (1.0 + (i % 13))
            parts.append(f"{acc:.3f}")
            if len(parts) > 64:
                parts.sort()
                parts = parts[32:]
        " ".join(parts).split()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def slowdown(cal_seconds: float) -> float:
    """How many times slower than the reference the machine ran."""
    return cal_seconds / REFERENCE_S
