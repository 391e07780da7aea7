"""A fixed unit of CPU work that tells how fast the host runs right now.

The benchmark's timed metrics are reported in *reference seconds*: the
measured seconds scaled by how long the calibration unit took in the
same run, relative to ``REFERENCE_S``.  A host that runs everything
twice as slowly for a while (a shared machine under load) then reports
the same figures, while a change to the program still moves them,
because the unit uses only the standard library and never the program.

The unit mixes the two kinds of work a ranking does: interpreter-bound
Python (dict and tuple churn, small-int arithmetic, calls) and big-int
modular exponentiation at 48 and 1024 bits.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Seconds the unit is defined to take on the reference host; a host
#: on which the unit takes exactly this long reports raw seconds.
REFERENCE_S = 0.04

_M48 = (1 << 48) - 59
_E48 = 0xB5E3_91A2_7C4F
_M1024 = (1 << 1024) - 105
_E1024 = int("9E3779B97F4A7C15" * 8, 16)


def _mix(state: int, value: int) -> int:
    return (state * 31 + value) & 0xFFFF_FFFF


def unit() -> int:
    """Run the calibration unit once; the result only defeats elision."""
    table: dict = {}
    state = 1
    for i in range(9000):
        key = (i * 2654435761) & 511
        pair = (key, i & 7)
        table[pair] = table.get(pair, 0) + 1
        state = _mix(state, key)
    for value in table.values():
        state = _mix(state, value)
    x = state | 3
    for _ in range(700):
        x = pow(x, _E48, _M48)
    y = x | 5
    for _ in range(8):
        y = pow(y, _E1024, _M1024)
    return state ^ x ^ (y & 0xFFFF)


class Calibration:
    """Wall and CPU samples of the unit taken through one run."""

    def __init__(self) -> None:
        self.wall: List[float] = []
        self.cpu: List[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            unit()
            self.cpu.append(time.process_time() - cpu0)
            self.wall.append(time.perf_counter() - wall0)

    def wall_scale(self) -> float:
        """Reference seconds per measured wall-clock second."""
        return REFERENCE_S / statistics.median(self.wall)

    def cpu_scale(self) -> float:
        """Reference seconds per measured CPU second."""
        return REFERENCE_S / statistics.median(self.cpu)
