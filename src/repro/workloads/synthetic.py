"""Synthetic access-pattern building blocks and the zipf microbenchmark.

The zipf generator reproduces the section 2.3 microbenchmark: "all GPU
threads repeatedly generate page addresses drawn from a zipf distribution
[36].  The skewness of the distribution is varied from 0 to 1 — controlling
how many unique pages are requested (higher skew implies fewer distinct
pages)" (Figure 6(b)).
"""

from __future__ import annotations

import random
from collections.abc import Iterator

import numpy as np

from repro.errors import TraceError
from repro.sim.gpu import WarpAccess
from repro.sim.transfer import WARP_SIZE
from repro.workloads.trace import Workload


def zipf_weights(num_pages: int, skew: float) -> np.ndarray:
    """Normalised zipf(``skew``) probabilities over ``num_pages`` ranks.

    ``skew=0`` degenerates to uniform; ``skew=1`` is classic zipf.
    """
    if num_pages <= 0:
        raise TraceError(f"num_pages must be positive, got {num_pages}")
    if skew < 0:
        raise TraceError(f"skew must be non-negative, got {skew}")
    ranks = np.arange(1, num_pages + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    return weights / weights.sum()


class ZipfAccessGenerator(Workload):
    """Warps of lanes drawing page addresses from a zipf distribution."""

    name = "zipf"
    description = "Microbenchmark: warp lanes draw zipf-distributed pages"

    def __init__(
        self,
        footprint_pages: int,
        num_warps: int,
        skew: float,
        lanes: int = WARP_SIZE,
        write_fraction: float = 0.0,
        seed: int = 0,
    ) -> None:
        super().__init__(footprint_pages, seed)
        if num_warps <= 0:
            raise TraceError(f"num_warps must be positive, got {num_warps}")
        if not 1 <= lanes <= WARP_SIZE:
            raise TraceError(f"lanes must be in 1..{WARP_SIZE}, got {lanes}")
        if not 0.0 <= write_fraction <= 1.0:
            raise TraceError(f"write_fraction must be in [0, 1]: {write_fraction}")
        self.num_warps = num_warps
        self.skew = skew
        self.lanes = lanes
        self.write_fraction = write_fraction

    def generate(self) -> Iterator[WarpAccess]:
        rng = np.random.default_rng(self.seed)
        weights = zipf_weights(self.footprint_pages, self.skew)
        # Page ranks are shuffled so "popular" pages are scattered in the
        # address space, as graph/hash workloads exhibit.
        page_of_rank = rng.permutation(self.footprint_pages)
        draws = rng.choice(
            self.footprint_pages, size=(self.num_warps, self.lanes), p=weights
        )
        writes = rng.random(self.num_warps) < self.write_fraction
        for row, is_write in zip(draws, writes):
            yield WarpAccess(
                pages=tuple(int(page_of_rank[r]) for r in row), write=bool(is_write)
            )


class StreamingWorkload(Workload):
    """Pure sequential streaming (STREAM-like): every page touched once.

    The zero-reuse baseline: no tiering policy can help, so all runtimes
    should collapse to BaM-like behaviour (modulo dirty-page parking).
    Useful as a control in tests and sensitivity studies.
    """

    name = "Streaming"
    description = "Sequential single-pass stream (no reuse; control workload)"

    def __init__(
        self, footprint_pages: int, write_fraction: float = 0.5, seed: int = 0
    ) -> None:
        super().__init__(footprint_pages, seed)
        if not 0.0 <= write_fraction <= 1.0:
            raise TraceError(f"write_fraction must be in [0, 1]: {write_fraction}")
        self.write_fraction = write_fraction

    def generate(self) -> Iterator[WarpAccess]:
        write_every = (
            int(1 / self.write_fraction) if self.write_fraction > 0 else 0
        )
        for i in range(0, self.footprint_pages, 2):
            pages = tuple(
                p for p in (i, i + 1) if p < self.footprint_pages
            )
            write = bool(write_every) and (i // 2) % write_every == 0
            yield WarpAccess(pages=pages, write=write)


class KeyValueWorkload(Workload):
    """A KV store under zipf-skewed point lookups with periodic compaction.

    Serving systems show exactly the mix GMT targets: a hot set with
    short/medium reuse distances (the zipf head) over a long tail that is
    effectively streaming, punctuated by compaction sweeps that touch
    everything in order.  Not part of the paper's suite — provided for
    users evaluating GMT-style tiering on serving workloads.
    """

    name = "KeyValue"
    description = "Zipf-skewed KV lookups with periodic compaction sweeps"

    def __init__(
        self,
        footprint_pages: int,
        lookups: int | None = None,
        skew: float = 0.9,
        compaction_every: int = 4000,
        seed: int = 0,
    ) -> None:
        super().__init__(footprint_pages, seed)
        if skew < 0:
            raise TraceError(f"skew must be non-negative, got {skew}")
        if compaction_every < 1:
            raise TraceError(f"compaction_every must be >= 1: {compaction_every}")
        self.lookups = lookups if lookups is not None else footprint_pages * 4
        if self.lookups < 1:
            raise TraceError(f"lookups must be >= 1: {self.lookups}")
        self.skew = skew
        self.compaction_every = compaction_every

    def generate(self) -> Iterator[WarpAccess]:
        rng = np.random.default_rng(self.seed)
        weights = zipf_weights(self.footprint_pages, self.skew)
        page_of_rank = rng.permutation(self.footprint_pages)
        looked_up = page_of_rank[
            rng.choice(self.footprint_pages, size=self.lookups, p=weights)
        ]
        writes = rng.random(self.lookups) < 0.1  # updates
        # One compaction interval at a time: its lookups become Python
        # values in one tolist() call, without holding the whole trace.
        every = self.compaction_every
        for start in range(0, self.lookups, every):
            end = start + every
            for page, write in zip(
                looked_up[start:end].tolist(), writes[start:end].tolist()
            ):
                yield WarpAccess(pages=(page,), write=write)
            if end <= self.lookups:
                # Compaction: read-modify-write sweep over the whole store.
                for page in range(0, self.footprint_pages, 2):
                    pages = tuple(
                        p for p in (page, page + 1) if p < self.footprint_pages
                    )
                    yield WarpAccess(pages=pages, write=True)


def sweep(start: int, count: int, reverse: bool = False) -> Iterator[int]:
    """Sequential page-id sweep over [start, start+count), optionally
    reversed — the building block of every streaming kernel."""
    if count < 0:
        raise TraceError(f"negative sweep length: {count}")
    pages = range(start + count - 1, start - 1, -1) if reverse else range(start, start + count)
    yield from pages


def strided_sample(
    start: int, count: int, fraction: float, rng: random.Random
) -> list[int]:
    """A reproducible pseudo-random subset of a page range.

    Used by frontier-driven workloads (SSSP) where each round touches a
    data-dependent subset of the vertex/edge space.
    """
    if not 0.0 <= fraction <= 1.0:
        raise TraceError(f"fraction must be in [0, 1]: {fraction}")
    take = int(count * fraction)
    if take <= 0:
        return []
    picks = rng.sample(range(start, start + count), take)
    picks.sort()
    return picks
