"""SIMT front end: warps and per-warp access coalescing.

Workload generators emit :class:`WarpAccess` records — the (up to) 32
per-lane page references a warp issues in one memory instruction.  As on
real hardware (and as the paper's VTD counter assumes: "a counter that is
updated on each coalesced access (across threads of a warp)", section
2.1.3), lanes touching the same 64 KB page coalesce into a single page
access before reaching the memory hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TraceError

from repro.sim.transfer import WARP_SIZE


@dataclass(frozen=True)
class WarpAccess:
    """One warp-wide memory instruction.

    Attributes:
        pages: per-lane page ids (1..32 entries; lanes masked off by
            divergence simply do not appear).
        write: whether the instruction is a store (dirties its pages).
    """

    pages: tuple[int, ...]
    write: bool = False

    def __post_init__(self) -> None:
        if not self.pages:
            raise TraceError("a warp access needs at least one active lane")
        if len(self.pages) > WARP_SIZE:
            raise TraceError(
                f"a warp has at most {WARP_SIZE} lanes, got {len(self.pages)}"
            )
        if min(self.pages) < 0:
            raise TraceError(f"negative page id in warp access: {self.pages}")

    @property
    def lanes(self) -> int:
        """Number of active lanes."""
        return len(self.pages)


def coalesce(warp: WarpAccess) -> list[int]:
    """Unique pages of a warp access, in first-lane order.

    Each returned page becomes one coalesced access: one VTD clock tick,
    one hierarchy lookup, at most one fault.
    """
    seen: set[int] = set()
    unique: list[int] = []
    for page in warp.pages:
        if page not in seen:
            seen.add(page)
            unique.append(page)
    return unique


def warp_of(pages: list[int] | tuple[int, ...], write: bool = False) -> WarpAccess:
    """Convenience constructor used heavily by workload generators."""
    return WarpAccess(pages=tuple(pages), write=write)
