"""A fixed pure-Python loop that measures how fast the machine runs right now.

The benchmark's host shares its cores, and its speed drifts by tens of
percent over seconds. Timing this loop just before and just after each job
and dividing the job's time by it cancels that drift; multiplying by
REFERENCE_S, close to the loop's quickest time on the baseline machine (a
2-vCPU VM, CPython 3.11), turns the ratio back into seconds at that
machine's full speed.

The loop builds, hashes and counts small tuples, as the program's inner
loops do. A variant that also probed a table larger than a core's private
cache tracked the BDD workloads no better and the cube workload worse.
"""
from __future__ import annotations

import gc
import time

REFERENCE_S = 0.005
_ROUNDS = 16000


def calibrate() -> float:
    """Seconds one run of the loop takes now: the median of three runs."""
    gc.collect()  # garbage left by the previous job is not the machine's speed
    gc.disable()
    try:
        return sorted(_loop() for _ in range(3))[1]
    finally:
        gc.enable()


def _loop() -> float:
    start = time.perf_counter()
    counts: dict = {}
    for i in range(_ROUNDS):
        key = (i & 63, (i >> 6) & 63, i % 3)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start
