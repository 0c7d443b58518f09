"""Eq. 1: classify a remaining reuse distance into short / medium / long.

::

    T(RRD) = short-reuse,   if RRD <  sizeof(Tier1)
             medium-reuse,  if sizeof(Tier1) <= RRD < sizeof(Tier2)
             long-reuse,    if RRD >= sizeof(Tier2)

Sizes are in *pages* (reuse distance counts unique pages).  Following the
paper's Figure 7, whose vertical lines sit at "GPU memory capacity" and
"GPU+CPU memory capacities", ``sizeof(Tier2)`` is interpreted as the
cumulative capacity reachable at Tier-2, i.e. Tier-1 + Tier-2 frames.

The classes double as tier destinations: short-reuse pages stay in Tier-1,
medium-reuse pages go to Tier-2, long-reuse pages bypass to Tier-3.
"""

from __future__ import annotations

import enum

from repro.errors import ConfigError


class ReuseClass(enum.Enum):
    """The three RRD equivalence classes of Eq. 1 (== target tiers)."""

    SHORT = 1  # retain in Tier-1
    MEDIUM = 2  # place in Tier-2 (host memory)
    LONG = 3  # bypass to Tier-3 (discard clean / write dirty to SSD)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return {1: "short-reuse", 2: "medium-reuse", 3: "long-reuse"}[self.value]


_SHORT = ReuseClass.SHORT
_MEDIUM = ReuseClass.MEDIUM
_LONG = ReuseClass.LONG


class RRDClassifier:
    """Maps an RRD (in unique pages) to a :class:`ReuseClass` per Eq. 1."""

    def __init__(self, tier1_frames: int, tier2_frames: int) -> None:
        if tier1_frames <= 0:
            raise ConfigError(f"tier1_frames must be positive, got {tier1_frames}")
        if tier2_frames < 0:
            raise ConfigError(f"tier2_frames must be non-negative, got {tier2_frames}")
        self.tier1_frames = tier1_frames
        self.tier2_frames = tier2_frames
        #: Eq. 1 boundary between short and medium.
        self.short_bound = tier1_frames
        #: Eq. 1 boundary between medium and long (cumulative capacity).
        self.medium_bound = tier1_frames + tier2_frames

    def classify(self, rrd: float | None) -> ReuseClass:
        """Classify ``rrd``; ``None`` (no predicted reuse) is long-reuse."""
        if rrd is None:
            return _LONG
        if rrd < 0:
            raise ValueError(f"negative RRD: {rrd}")
        if rrd < self.short_bound:
            return _SHORT
        if rrd < self.medium_bound:
            return _MEDIUM
        return _LONG
