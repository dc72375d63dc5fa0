"""The host's speed, measured by a fixed pure-Python kernel.

On a shared machine the same work takes up to about 1.5 times as long from
one minute to the next, and the CPU time moves with the wall time.  So the
benchmark times this kernel in the measuring interpreter around its rounds
and reports every time metric in reference seconds: the measured seconds
times ``REFERENCE_S / kernel median``, which is what the time would have
been on a host where the kernel takes REFERENCE_S.  The kernel uses no
iwagrowth code, so a change to the program cannot move it.  Its mix of
schoolbook big-integer products and dict, string and tuple work follows the
two kinds of work the workloads do.  The raw times are kept in the result
files.
"""

from __future__ import annotations

import statistics
import time

# Median kernel time on the machine the reference figures in README.md were
# taken on (2 vCPUs, CPython 3.11.7).
REFERENCE_S = 0.035
# Kernel runs per sample.
RUNS = 3

_A = [3**k + 7 * k for k in range(220)]
_WORDS = [f"w{k}" for k in range(64)]


def kernel() -> float:
    """Seconds taken by one run of the fixed kernel."""
    t0 = time.perf_counter()
    out = [0] * (2 * len(_A) - 1)
    for i, x in enumerate(_A):
        for j, y in enumerate(_A):
            out[i + j] += x * y
    counts: dict[str, int] = {}
    for r in range(300):
        for k, w in enumerate(_WORDS):
            key = str((w, r & 7, k & 3))
            counts[key] = counts.get(key, 0) + (out[k] & 3)
    if len(counts) != 64 * 8:
        raise AssertionError("speed kernel miscounted")
    return time.perf_counter() - t0


class Speed:
    """Kernel samples taken during one run, in order."""

    def __init__(self):
        self.marks: list[list[float]] = []

    def sample(self) -> None:
        self.marks.append([kernel() for _ in range(RUNS)])

    def factor(self, j: int) -> float:
        """Reference seconds per measured second between samples j and j+1
        (sample j alone when it is the last)."""
        runs = self.marks[j] + (self.marks[j + 1] if j + 1 < len(self.marks) else [])
        return REFERENCE_S / statistics.median(runs)
