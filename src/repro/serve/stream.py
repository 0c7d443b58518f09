"""Tenant identity and page-id namespacing.

A *tenant* is one workload stream admitted to a shared GMT hierarchy.
Tenants must never alias pages — two tenants reading "page 7" of their
own datasets touch different physical data — so every tenant's page ids
are namespaced into a disjoint range: tenant ``i`` owns pages
``[i << NAMESPACE_BITS, (i + 1) << NAMESPACE_BITS)``.  The owner of any
page is then a single shift (:func:`owner_of_page`), cheap enough for
quota checks on the eviction path.

Tenant 0's namespace is the identity mapping, which is what makes a
1-tenant serve run bit-for-bit reproduce the single-stream runtime (the
trace it replays is literally the same).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigError
from repro.sim.gpu import WarpAccess
from repro.workloads.trace import Workload

#: Bits reserved for the per-tenant page index.  Every workload footprint
#: in this codebase is far below 2**32 pages (that would be 256 TiB of
#: 64 KB pages), so tenants can never collide.
NAMESPACE_BITS = 32

#: Upper bound on tenant count implied by Python ints being unbounded is
#: none; this is a sanity cap so a typo'd tenant list fails loudly.  It
#: sits above the open-loop capacity experiment's 10k-tenant populations
#: with headroom.
MAX_TENANTS = 16384


def namespace_base(index: int) -> int:
    """First page id of tenant ``index``'s namespace."""
    return index << NAMESPACE_BITS


def owner_of_page(page: int) -> int:
    """Tenant index owning ``page`` (inverse of the namespacing)."""
    return page >> NAMESPACE_BITS


@dataclass(frozen=True)
class TenantSpec:
    """Declarative description of one tenant's stream.

    Attributes:
        name: display name ("bfs", "pagerank-1", ...).
        workload: registry name of the workload to replay.
        weight: scheduling weight (weighted-fair discipline) and default
            quota share.
        arrival: number of scheduler-emitted warps before this stream
            joins (FIFO-arrival ordering; 0 = present from the start).
        slo_p50_ns / slo_p99_ns: optional latency targets for the
            tenant's modelled miss-latency percentiles; drives the
            per-tenant SLO gauges and the served-table violation marks
            (None = no target).
        tier1_policy / tier2_policy: eviction policy managing this
            tenant's frames at each tier, from the
            :mod:`repro.policyzoo` registry ("clock", "s3fifo", "mglru",
            "lfu", "mru", "lhd", ...).  None (the default) keeps the
            tenant on the server-wide policy — when every tenant leaves
            both unset, the server runs one shared structure per tier
            exactly as before the zoo existed.
    """

    name: str
    workload: str
    weight: float = 1.0
    arrival: int = 0
    slo_p50_ns: float | None = None
    slo_p99_ns: float | None = None
    tier1_policy: str | None = None
    tier2_policy: str | None = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigError(f"tenant {self.name!r}: weight must be positive")
        if self.arrival < 0:
            raise ConfigError(f"tenant {self.name!r}: arrival must be >= 0")
        for attr in ("slo_p50_ns", "slo_p99_ns"):
            target = getattr(self, attr)
            if target is not None and target <= 0:
                raise ConfigError(f"tenant {self.name!r}: {attr} must be positive")
        for attr in ("tier1_policy", "tier2_policy"):
            name = getattr(self, attr)
            if name is not None:
                from repro.policyzoo.registry import validate_policy_name

                validate_policy_name(name)


class TenantStream:
    """A tenant's workload with its pages mapped into the tenant namespace.

    Re-iterable, like the wrapped :class:`~repro.workloads.trace.Workload`:
    every ``iter()`` regenerates the same namespaced trace, so the same
    stream can be replayed both inside a served mix and solo (for the
    slowdown baseline).  Regeneration is not free — a consumer that
    needs the trace more than once (the open-loop server cycles each
    tenant's stream) should iterate once and keep the warps.
    """

    def __init__(self, index: int, spec: TenantSpec, workload: Workload) -> None:
        if not 0 <= index < MAX_TENANTS:
            raise ConfigError(f"tenant index {index} out of range [0, {MAX_TENANTS})")
        self.index = index
        self.spec = spec
        self.workload = workload
        self.name = spec.name
        self.weight = spec.weight
        self.arrival = spec.arrival

    @property
    def footprint_pages(self) -> int:
        return self.workload.footprint_pages

    def __iter__(self) -> Iterator[WarpAccess]:
        base = namespace_base(self.index)
        if base == 0:
            # Tenant 0 is the identity namespace: pass the workload's own
            # WarpAccess objects through untouched (exact single-stream
            # reproduction, and no per-warp rebuild cost).
            yield from self.workload
            return
        for warp in self.workload:
            yield WarpAccess(
                pages=tuple(base + page for page in warp.pages), write=warp.write
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TenantStream({self.index}, {self.name!r}, "
            f"{self.footprint_pages} pages, w={self.weight})"
        )


class TenantPopulation:
    """Generate a service-scale tenant population (1k–10k tenants).

    Real serving fleets are zipf-shaped: a few heavy tenants own most of
    the data and traffic, a long tail of small tenants owns the rest.
    The population ranks tenants 1..N and draws three correlated
    zipf-skewed attributes per rank:

    - **footprint** — dataset size in pages, scaled into
      ``[min_footprint, max_footprint]``;
    - **weight** — scheduling weight (heavy tenants get proportionally
      more of the machine, like paid tiers);
    - **popularity** — the probability an open-loop arrival targets the
      tenant (:meth:`arrival_weights`), the knob that concentrates load
      on the head of the distribution.

    Ranks are shuffled by ``seed`` so tenant index does not encode size,
    and every derived quantity is deterministic in ``(tenants, seed)`` —
    the same population always builds byte-identical streams.

    Args:
        tenants: population size (1 .. :data:`MAX_TENANTS`).
        seed: base RNG seed; tenant ``i``'s workload generates with
            ``seed + i``.
        workload: registry name of the per-tenant workload (default
            ``"keyvalue"``, the cheap synthetic serving workload).
        skew: zipf exponent shaping footprints/weights/popularity
            (0 = uniform fleet).
        min_footprint / max_footprint: per-tenant dataset bounds, pages.
        slo_p50_ns / slo_p99_ns: optional fleet-wide latency SLOs
            stamped on every spec.
    """

    def __init__(
        self,
        tenants: int,
        seed: int = 0,
        workload: str = "keyvalue",
        skew: float = 1.1,
        min_footprint: int = 4,
        max_footprint: int = 64,
        slo_p50_ns: float | None = None,
        slo_p99_ns: float | None = None,
    ) -> None:
        if not 1 <= tenants <= MAX_TENANTS:
            raise ConfigError(
                f"population size {tenants} out of range [1, {MAX_TENANTS}]"
            )
        if skew < 0:
            raise ConfigError(f"population skew must be >= 0, got {skew}")
        if not 1 <= min_footprint <= max_footprint:
            raise ConfigError(
                f"footprint bounds must satisfy 1 <= min <= max, got "
                f"[{min_footprint}, {max_footprint}]"
            )
        self.tenants = tenants
        self.seed = seed
        self.workload = workload
        self.skew = skew
        self.min_footprint = min_footprint
        self.max_footprint = max_footprint
        self.slo_p50_ns = slo_p50_ns
        self.slo_p99_ns = slo_p99_ns
        import random

        # Rank r (0 = heaviest) carries zipf mass (r+1)^-skew; the
        # shuffle decouples tenant index from rank.
        rng = random.Random(seed)
        ranks = list(range(tenants))
        rng.shuffle(ranks)
        self._rank_of = ranks
        self._mass = [(r + 1) ** -skew for r in range(tenants)]

    def _scaled(self, index: int, lo: float, hi: float) -> float:
        """Rank mass mapped linearly into [lo, hi] (rank 0 -> hi)."""
        top = self._mass[0]
        bottom = self._mass[-1]
        mass = self._mass[self._rank_of[index]]
        if top == bottom:
            return hi
        return lo + (hi - lo) * (mass - bottom) / (top - bottom)

    def specs(self) -> list[TenantSpec]:
        """One :class:`TenantSpec` per tenant, deterministic in the seed."""
        width = len(str(self.tenants - 1))
        return [
            TenantSpec(
                name=f"t{i:0{width}d}",
                workload=self.workload,
                weight=round(self._scaled(i, 1.0, 8.0), 4),
                slo_p50_ns=self.slo_p50_ns,
                slo_p99_ns=self.slo_p99_ns,
            )
            for i in range(self.tenants)
        ]

    def footprints(self) -> list[int]:
        """Per-tenant dataset sizes in pages (zipf-scaled into bounds)."""
        return [
            max(
                self.min_footprint,
                int(self._scaled(i, self.min_footprint, self.max_footprint)),
            )
            for i in range(self.tenants)
        ]

    def arrival_weights(self) -> list[float]:
        """Relative probability an arrival targets each tenant."""
        return [self._mass[self._rank_of[i]] for i in range(self.tenants)]

    def build(self) -> list[TenantStream]:
        """Materialise the namespaced :class:`TenantStream` list."""
        from repro.workloads.registry import make_workload

        specs = self.specs()
        footprints = self.footprints()
        return [
            TenantStream(
                i, spec, make_workload(spec.workload, footprints[i], seed=self.seed + i)
            )
            for i, spec in enumerate(specs)
        ]
