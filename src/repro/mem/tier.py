"""A memory tier: a fixed-size pool of page frames.

Both Tier-1 (GPU memory) and Tier-2 (host memory) are instances of this
class; only their capacities and eviction machinery differ.  A tier tracks
*which* pages are resident, not their contents — the simulation is
trace-driven and never materialises page data.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import CapacityError, PageStateError


class Tier:
    """Fixed-capacity set of resident pages.

    Args:
        name: human-readable label ("Tier-1", "Tier-2", ...).
        capacity: number of 64 KB page frames in this tier.  A capacity of
            zero is legal and models the absence of the tier (BaM's missing
            Tier-2, for instance).
    """

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 0:
            raise CapacityError(f"{name}: negative capacity {capacity}")
        self.name = name
        self.capacity = capacity
        self._resident: set[int] = set()

    def __len__(self) -> int:
        return len(self._resident)

    def __contains__(self, page: int) -> bool:
        return page in self._resident

    def __iter__(self) -> Iterator[int]:
        return iter(self._resident)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tier({self.name!r}, {len(self)}/{self.capacity})"

    @property
    def full(self) -> bool:
        return len(self._resident) >= self.capacity

    @property
    def free_frames(self) -> int:
        return self.capacity - len(self._resident)

    def insert(self, page: int) -> None:
        """Place ``page`` into a free frame.

        Raises:
            CapacityError: if the tier is full — callers must evict first.
            PageStateError: if the page is already resident here.
        """
        resident = self._resident
        if page in resident:
            raise PageStateError(f"page {page} already resident in {self.name}")
        if len(resident) >= self.capacity:
            raise CapacityError(
                f"{self.name} is full ({self.capacity} frames); evict before insert"
            )
        resident.add(page)

    def remove(self, page: int) -> None:
        """Release the frame holding ``page``.

        Raises:
            PageStateError: if the page is not resident here.
        """
        try:
            self._resident.remove(page)
        except KeyError:
            raise PageStateError(f"page {page} not resident in {self.name}") from None
