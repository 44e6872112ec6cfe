"""The machine-speed reference that end-to-end times are scaled by.

On a shared machine the speed of one core drifts by up to 2x over tens of
seconds, because of other tenants, and that drift, not the program, then
decides which run looks faster.  The benchmark runs this fixed kernel of
pure-Python work (tuple keys, dict updates, integer arithmetic modulo a
prime, like the polynomial code) between every two timed operations and
scales each operation's time by NOMINAL_S / (the kernel's time around
it), smoothed over neighbouring operations.  The scaled time reads as
seconds on a machine where the kernel takes NOMINAL_S; the measured
seconds are kept next to it.
"""

import statistics
import time

NOMINAL_S = 0.005
ITERATIONS = 20000
WINDOW = 7  # operations whose speed factors are smoothed by their median


def reference_seconds() -> float:
    t0 = time.perf_counter()
    acc = {}
    for i in range(ITERATIONS):
        key = (i % 97, i % 13)
        acc[key] = (acc.get(key, 0) + i * 31) % 32003
    return time.perf_counter() - t0


def scale(reference_before: float, reference_after: float) -> float:
    """Factor turning seconds measured between the two kernel runs into nominal seconds."""
    return NOMINAL_S / ((reference_before + reference_after) / 2)


def apply(passes):
    """Add scaled times to the operations of a run, in place.

    An operation's factor is the median of the `scale` factors of the
    WINDOW operations centred on it, which damps the jitter of a single
    5 ms kernel run.  "t" and "call" are "t_raw" and "call_raw" times the
    factor; a pass's "wall" is the sum of its operations' "call".
    """
    ops = [op for p in passes for op in p["ops"]]
    factors = [op["speed"] for op in ops]
    half = WINDOW // 2
    for i, op in enumerate(ops):
        f = statistics.median(factors[max(0, i - half):i + half + 1])
        op["t"], op["call"] = op["t_raw"] * f, op["call_raw"] * f
    for p in passes:
        p["wall"] = sum(op["call"] for op in p["ops"])
        p["wall_raw"] = sum(op["call_raw"] for op in p["ops"])
