"""Host-speed calibration for CPU-bound timings.

On a shared VM the host's CPU speed changes from one second to the next: on
a 2-vCPU VM the loop below took from 15 to 55 ms, and a 20 s run of the
simulator sweep could run 40% slower than the next. That swamps any change
in the program. So each CPU-bound call is bracketed by two runs of a fixed
pure-Python loop that mixes the program's kinds of work (big-int multiply
and mask, bytes translation, heap and dict operations), and its duration is
divided by the host's slowness: the mean of the two loop times over
`CAL_REF_S`. The result is the call's duration at the reference speed, in
"reference seconds". The loop belongs to the benchmark, so a change to relbc
cannot make it faster or slower; it runs only while relbc is idle.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter

# The loop's time at the reference speed: the fast state of a 2-vCPU VM
# (2 cores, 300 MiB LLC) under Python 3.11.7.
CAL_REF_S = 0.016

_A = (1 << 2047) // 3
_B = (1 << 2046) // 7
_MASK = int.from_bytes(b"\x01" * 256, "little")
_TO_SLOTS = bytes.maketrans(b"01", b"\x00\x01")


def calibrate(rounds: int = 2000) -> float:
    """Seconds the fixed calibration loop takes now."""
    t0 = perf_counter()
    heap: list = []
    seen = {}
    for i in range(rounds):
        v = ((_A + i) * _B) & _MASK
        s = bin(v)[2:258].encode().translate(_TO_SLOTS)
        heappush(heap, (s[:8], i))
        seen[i & 63] = s
        if len(heap) > 32:
            heappop(heap)
    return perf_counter() - t0


class HostSpeed:
    """Times calls and reports the host's slowness around each.

    Consecutive calls share the calibration between them. A call timed
    inside another timed call is not calibrated (slowness 1.0), so the
    outer timing contains no calibration loops.
    """

    def __init__(self):
        self._last: float | None = None
        self._depth = 0
        self.slowness: list[float] = []

    def reset(self) -> None:
        """Forget the last calibration, after untimed work of unknown length."""
        self._last = None

    def timed(self, fn):
        """Run fn(); return (result, seconds, slowness). Reference seconds
        are seconds / slowness; slowness > 1 means a slower host."""
        if self._depth:
            t0 = perf_counter()
            result = fn()
            return result, perf_counter() - t0, 1.0
        before = self._last if self._last is not None else calibrate()
        self._depth += 1
        try:
            t0 = perf_counter()
            result = fn()
            seconds = perf_counter() - t0
        finally:
            self._depth -= 1
        self._last = calibrate()
        slowness = (before + self._last) / 2 / CAL_REF_S
        self.slowness.append(slowness)
        return result, seconds, slowness
