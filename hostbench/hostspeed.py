"""How fast the host runs plain Python right now.

On a shared host the same deterministic pass runs at different speeds
from minute to minute, because neighbours slow the core it runs on; the
process's CPU time grows with its wall time, so no clock inside the
process hides the slowdown.  The benchmark therefore times a fixed
reference kernel beside the program and scales its host times to the
speed at which the kernel takes :data:`REFERENCE_KERNEL_S`.  The kernel
uses nothing from the simulator, so a change to the program moves the
scaled figures and a change of the host's speed does not.
"""

from __future__ import annotations

import time

#: Fastest time of :func:`kernel` on the 2-vCPU VM (Python 3.11) the
#: benchmark was defined on.  Scaled figures read as that VM, unloaded,
#: would show them; only the ratio between runs matters.
REFERENCE_KERNEL_S = 0.0080

#: ``kernel()``'s result; a different one means the kernel changed and
#: :data:`REFERENCE_KERNEL_S` no longer describes it.
KERNEL_HITS = 6_578

_FRAMES = 512
_PAGES = 1_536
_STEPS = 20_000


class _Counters:
    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0


def kernel() -> int:
    """A clock-replacement cache over a fixed pseudo-random page stream.

    The same kinds of work as the simulator's scalar path (dict lookups,
    list updates, attribute counters, integer arithmetic) in plain
    Python.  Returns the hit count, which is always :data:`KERNEL_HITS`.
    """
    frames = [-1] * _FRAMES
    referenced = [False] * _FRAMES
    where: dict[int, int] = {}
    counters = _Counters()
    hand = 0
    key = 1
    for _ in range(_STEPS):
        key = (key * 1_103_515_245 + 12_345) & 0x7FFF_FFFF
        page = (key >> 8) % _PAGES
        slot = where.get(page)
        if slot is not None:
            referenced[slot] = True
            counters.hits += 1
            continue
        counters.misses += 1
        while referenced[hand]:
            referenced[hand] = False
            hand = (hand + 1) % _FRAMES
        if frames[hand] >= 0:
            del where[frames[hand]]
        frames[hand] = page
        where[page] = hand
        referenced[hand] = True
        hand = (hand + 1) % _FRAMES
    return counters.hits


def time_kernel(clock=time.perf_counter) -> float:
    """Wall seconds of one :func:`kernel` call."""
    start = clock()
    hits = kernel()
    elapsed = clock() - start
    if hits != KERNEL_HITS:
        raise RuntimeError(f"reference kernel returned {hits}, not {KERNEL_HITS}")
    return elapsed


def scaled_rate(rate: float, kernel_s: float) -> float:
    """``rate`` measured while the kernel took ``kernel_s``, at reference speed."""
    return rate * kernel_s / REFERENCE_KERNEL_S


def scaled_seconds(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at reference speed."""
    return seconds * REFERENCE_KERNEL_S / kernel_s
