"""The GMT runtime: GPU-orchestrated 3-tier demand paging (paper section 2).

One :class:`GMTRuntime` replays a workload's coalesced page-access stream
through the hierarchy:

- **hit path**: page resident in Tier-1 -> touch its clock bit, done.
- **miss path** (Figure 2): look up Tier-2 (costs ~50 ns; a miss there is
  a "wasteful lookup", Figure 10(a)); fetch from Tier-2 over PCIe via the
  configured transfer engine, or from the SSD through the GPU-resident
  NVMe queues.  The up-path always bypasses Tier-2, as in BaM ("we bypass
  host memory in the 'up'-path", section 2).
- **eviction pipeline**: when Tier-1 is full, clock nominates a victim and
  the policy decides — retain (short-reuse, bounded rounds), place into
  Tier-2 (evicting/bypassing per policy when Tier-2 is full), or bypass to
  Tier-3 (discard clean, write back dirty).

All orchestration costs are charged to the GPU-side cost model with the
GPU's fault-level parallelism — that is what "GPU-orchestrated" means for
performance, and what the HMM baseline lacks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterable

from repro.core.config import GMTConfig
from repro.core.events import EventKind, RuntimeEventLog
from repro.core.placement import PlacementDecision
from repro.core.policies import PlacementPolicy, make_policy
from repro.core.stats import RuntimeStats
from repro.errors import SimulationError
from repro.mem.page import PageLocation, PageState
from repro.mem.page_table import PageTable
from repro.mem.tier import Tier
from repro.mem.tier2_order import Tier2Clock, Tier2Fifo  # noqa: F401 (re-export)
from repro.obs.lifecycle import LifecycleKind
from repro.policyzoo.registry import make_eviction_policy
from repro.reuse.vtd import VirtualTimestampClock
from repro.sim.cost import CostBreakdown, CostModel
from repro.sim.gpu import WarpAccess, coalesce
from repro.sim.nvme import NvmeSSD
from repro.sim.pcie import PCIeLink
from repro.sim.transfer import make_engine

# Enum members bound once: loading ``PageLocation.TIER1`` through the enum
# class costs several times a module-global load, and the miss path tests
# these on every access.
_TIER1 = PageLocation.TIER1
_TIER2 = PageLocation.TIER2
_TIER3 = PageLocation.TIER3
_RETAIN = PlacementDecision.RETAIN_TIER1
_PLACE_T2 = PlacementDecision.PLACE_TIER2


@dataclass
class RunResult:
    """Outcome of replaying one trace through a runtime."""

    runtime_name: str
    stats: RuntimeStats
    breakdown: CostBreakdown
    page_size: int

    @property
    def elapsed_ns(self) -> float:
        return self.breakdown.elapsed_ns

    @property
    def ssd_io_bytes(self) -> int:
        return self.stats.io_bytes(self.page_size)

    def speedup_over(self, other: "RunResult") -> float:
        """``other.elapsed / self.elapsed`` — >1 means self is faster."""
        if self.elapsed_ns <= 0:
            raise SimulationError("cannot compute speedup: zero elapsed time")
        if other.elapsed_ns <= 0:
            raise SimulationError(
                "cannot compute speedup: baseline has zero elapsed time"
            )
        return other.elapsed_ns / self.elapsed_ns


class GMTRuntime:
    """GPU-orchestrated 3-tier (GPU memory / host memory / SSD) runtime.

    Args:
        config: the geometry, policy and platform to run.
        policy_factory: optional override constructing a custom
            :class:`~repro.core.policies.PlacementPolicy` from
            ``(config, stats, vts, rng)`` — used by the Belady-style
            oracle and by experiments with bespoke policies.
    """

    name = "GMT"
    #: Replay engine identity ("scalar" here; the SoA batch engine,
    #: :mod:`repro.core.vector`, overrides with "vector").  Distinct from
    #: :attr:`engine`, which is the Tier-1<->Tier-2 *transfer* engine.
    engine_name = "scalar"
    #: Why this engine was selected.  The factory
    #: (:func:`repro.core.factory.make_runtime`) stamps the resolution
    #: reason on each instance; this class default covers direct
    #: construction.
    engine_reason = "scalar reference loop (constructed directly)"
    #: Who services faults — exported as a telemetry label; the
    #: CPU-orchestrated baselines override this with ``"host"``.
    orchestration = "gpu"
    #: Extra constant labels a runtime variant wants on its metrics.
    obs_extra_labels: dict[str, str] = {}

    def __init__(self, config: GMTConfig, policy_factory=None) -> None:
        self.config = config
        platform = config.platform
        self.stats = self._make_stats()
        self.page_table = PageTable()
        self.vts = VirtualTimestampClock()
        self.rng = random.Random(config.seed)

        self.tier1 = Tier("Tier-1", config.tier1_frames)
        self.tier2 = Tier("Tier-2", config.tier2_frames)
        self.t1_clock = make_eviction_policy(
            config.tier1_eviction, config.tier1_frames, tier=1
        )

        if policy_factory is None:
            policy_factory = make_policy
        self.policy: PlacementPolicy = policy_factory(
            config, self.stats, self.vts, self.rng
        )
        if config.tier2_frames > 0:
            t2_eviction = config.tier2_eviction
            if t2_eviction is None:
                # Historical derivation: GMT-TierOrder runs a clock over
                # Tier-2, every other placement policy a plain FIFO.
                t2_eviction = "clock" if self.policy.tier2_uses_clock else "fifo"
            self._t2_order = make_eviction_policy(
                t2_eviction, config.tier2_frames, tier=2
            )
        else:
            self._t2_order = Tier2Fifo()

        self.engine = make_engine(config.transfer_engine)
        #: Amortised critical-path cost of one Tier-1<->Tier-2 page move:
        #: demand misses arrive in bursts across warps, so engine overheads
        #: (pinning, DMA descriptors) spread over a nominal batch.
        batch = config.transfer_batch_pages
        self._t2_move_ns = (
            self.engine.transfer_time_ns(batch, page_size=config.page_size) / batch
        )

        self.pcie = PCIeLink(bandwidth=platform.pcie_bandwidth)
        self.ssd = NvmeSSD(
            read_latency_ns=platform.ssd_read_latency_ns,
            write_latency_ns=platform.ssd_write_latency_ns,
            read_bandwidth=platform.ssd_read_bandwidth,
            write_bandwidth=platform.ssd_write_bandwidth,
            queue_depth=platform.nvme_queue_depth,
        )
        self.cost = CostModel(fault_concurrency=platform.gpu_fault_concurrency)
        #: Extra critical-path cost charged to every Tier-1 miss.  Zero for
        #: GPU-orchestrated runtimes; the HMM baseline sets it to the host
        #: software stack's per-fault overhead.
        self._extra_fault_ns = 0.0
        #: Optional event recorder (see :mod:`repro.core.events`).
        self._events: RuntimeEventLog | None = None
        #: Optional telemetry (see :mod:`repro.obs`).  None is the
        #: null-sink fast path: each emission point costs one attribute
        #: check and nothing else.
        self._obs = None
        #: Optional page-lifecycle flight recorder (see
        #: :mod:`repro.obs.lifecycle`).  Same discipline: None is the
        #: default and each emission site costs one attribute check.
        self._flight = None
        #: Optional phase profiler (see :mod:`repro.prof`).  None is the
        #: default; when off the hot path is the *original unwrapped*
        #: methods — attach instruments them, detach restores them, so
        #: disabled profiling costs literally nothing.
        self._prof = None
        #: Scratch: the cause/prediction behind the eviction currently in
        #: flight (set by ``_ensure_tier1_frame``, read by the placement
        #: leaves so DEMOTE/BYPASS events carry the policy's reasoning).
        self._fx_cause = ""
        self._fx_predicted: str | None = None
        #: Queueing time model, built lazily (subclasses adjust the
        #: orchestration parameters it reads after construction).
        self._queueing = None
        self._queueing_on = config.time_model == "queueing"
        #: Scratch flags describing the last eviction's side effects, for
        #: the queueing model's critical-path sequencing.
        self._fx_writeback = False
        self._fx_t2_place = False
        self._fx_t2_evict = False
        #: Periodic conformance checking: when set, ``access`` runs
        #: :meth:`check_invariants` plus the stats-identity audit every
        #: this many coalesced accesses (None = never, the hot-path
        #: default — one attribute check per access, like telemetry).
        self._check_every: int | None = None
        self.name = f"GMT-{self.policy.name}"

    def engine_resolution(self) -> tuple[str, str]:
        """The replay engine the next ``run`` will use, with the reason.

        The scalar runtime always runs scalar; the vector mixin
        overrides this with the live capability negotiation (attached
        instruments can demote a vector runtime back to the scalar
        loop).  This is the surface the CLIs print (``engine=...
        (reason=...)``) and the exporters embed in headers.
        """
        return self.engine_name, self.engine_reason

    def _make_stats(self) -> RuntimeStats:
        """Counter storage for this run.  The multi-tenant serving layer
        (:mod:`repro.serve`) overrides this with a stats object that also
        mirrors increments into per-tenant slices."""
        return RuntimeStats()

    # ------------------------------------------------------------------
    # queueing time model (optional, config.time_model == "queueing")
    # ------------------------------------------------------------------
    def _queueing_model(self):
        """Build (once) and return the queueing model, or None."""
        if self.config.time_model != "queueing":
            return None
        if self._queueing is None:
            from repro.sim.queueing import QueueingModel

            self._queueing = QueueingModel(
                platform=self.config.platform,
                page_size=self.config.page_size,
                fault_concurrency=self.cost.fault_concurrency,
                extra_fault_ns=self._extra_fault_ns,
                t2_move_ns=self._t2_move_ns,
                ssd_read_bandwidth=self.ssd.read_bandwidth,
                ssd_write_bandwidth=self.ssd.write_bandwidth,
            )
        return self._queueing

    # ------------------------------------------------------------------
    # event tracing (optional)
    # ------------------------------------------------------------------
    def attach_event_log(self, capacity: int | None = None) -> RuntimeEventLog:
        """Start recording pipeline events; returns the (new) log."""
        self._events = RuntimeEventLog(capacity=capacity)
        return self._events

    def detach_event_log(self) -> None:
        self._events = None

    # ------------------------------------------------------------------
    # telemetry (optional, see repro.obs)
    # ------------------------------------------------------------------
    def obs_labels(self) -> dict[str, str]:
        """Constant labels describing this runtime for exported metrics."""
        labels = {
            "runtime": self.name,
            "policy": self.policy.name,
            "orchestration": self.orchestration,
            "tiers": "3" if self.tier2.capacity > 0 else "2",
        }
        labels.update(self.obs_extra_labels)
        return labels

    def attach_telemetry(self, telemetry=None):
        """Wire a :class:`~repro.obs.telemetry.Telemetry` (a fresh one if
        None) into the runtime's emission points; returns it."""
        if telemetry is None:
            from repro.obs.telemetry import Telemetry

            telemetry = Telemetry()
        self._obs = telemetry.attach(self)
        return telemetry

    def detach_telemetry(self) -> None:
        """Return to the null-sink fast path (telemetry keeps its data)."""
        if self._obs is not None:
            self._obs.detach()
            self._obs = None

    # ------------------------------------------------------------------
    # page-lifecycle flight recorder (optional, see repro.obs.lifecycle)
    # ------------------------------------------------------------------
    def attach_flight_recorder(self, capacity: int | None = 100_000, recorder=None):
        """Start recording page-lifecycle events; returns the recorder.

        Standalone alternative to ``attach_telemetry(Telemetry(lifecycle=...))``
        when only the lifecycle log is wanted.  Bounded drop-oldest ring;
        detach with :meth:`detach_flight_recorder`.
        """
        if recorder is None:
            from repro.obs.lifecycle import LifecycleRecorder

            recorder = LifecycleRecorder(capacity=capacity)
        if recorder.clock is None:
            cost = self.cost
            recorder.clock = lambda: cost.compute_ns + cost.fault_latency_ns
        self._flight = recorder
        return recorder

    def detach_flight_recorder(self) -> None:
        """Stop lifecycle recording (the recorder keeps its events)."""
        self._flight = None

    # ------------------------------------------------------------------
    # phase profiling (optional, see repro.prof)
    # ------------------------------------------------------------------
    def attach_profiler(self, profiler=None):
        """Instrument the phase boundaries with a
        :class:`~repro.prof.PhaseProfiler` (a fresh one if None); returns
        the profiler.  Detach with :meth:`detach_profiler`."""
        if profiler is None:
            from repro.prof import PhaseProfiler

            profiler = PhaseProfiler()
        profiler.attach(self)
        return profiler

    def detach_profiler(self) -> None:
        """Restore the unwrapped hot path (the profiler keeps its data)."""
        if self._prof is not None:
            self._prof.detach()

    # ------------------------------------------------------------------
    # periodic conformance checking (optional, see repro.check)
    # ------------------------------------------------------------------
    def enable_periodic_checks(self, every: int | None = 10_000) -> None:
        """Audit the runtime every ``every`` coalesced accesses.

        Each audit runs :meth:`check_invariants` (structural: capacities,
        no page resident in two tiers, page-table/membership agreement)
        plus the stats-identity catalogue
        (:func:`repro.check.identities.assert_conformant`).  ``None``
        disables and restores the null-sink fast path.
        """
        if every is not None and every < 1:
            raise SimulationError(f"check interval must be >= 1, got {every}")
        self._check_every = every

    def _periodic_check(self) -> None:
        from repro.check.identities import assert_conformant

        assert_conformant(self)

    # ------------------------------------------------------------------
    # access path
    # ------------------------------------------------------------------
    def run(self, trace: Iterable[WarpAccess]) -> RunResult:
        """Replay a trace of warp accesses and return the run's result."""
        for warp in trace:
            self.access_warp(warp)
        if self._obs is not None:
            # Flush the final partial snapshot window; without this the
            # tail of the replay drops out of telemetry.windows().
            self._obs.finish()
        return self.result()

    def access_warp(self, warp: WarpAccess) -> None:
        """Issue one warp memory instruction (coalesced per 64 KB page)."""
        self.stats.warp_instructions += 1
        pages = warp.pages
        if len(pages) == 1:
            # One active lane: nothing to coalesce.
            self.access(pages[0], warp.write)
            return
        for page in coalesce(warp):
            self.access(page, write=warp.write)

    def access(self, page: int, write: bool = False) -> None:
        """One coalesced access to ``page``."""
        stats = self.stats
        if (
            self._check_every is not None
            and stats.coalesced_accesses
            and stats.coalesced_accesses % self._check_every == 0
        ):
            # Audit between accesses: the previous access fully settled,
            # this one has not touched any counter yet.
            self._periodic_check()
        state = self.page_table.lookup(page)
        vtd = self.vts.observe_access(state)
        self.policy.on_access(state, vtd)
        stats.coalesced_accesses += 1
        platform = self.config.platform
        self.cost.add_compute(platform.gpu_access_ns)

        queueing = self._queueing_model() if self._queueing_on else None
        obs = self._obs
        if obs is not None:
            obs.tick(stats.coalesced_accesses)
        events = self._events

        if state.location is _TIER1:
            if queueing is not None:
                queueing.on_hit()
            if events is not None:
                events.emit(EventKind.T1_HIT, page, self.vts.now)
            stats.t1_hits += 1
            self.t1_clock.touch(page)
            if write:
                state.mark_dirty()
            if state.prefetched:
                # First demand access to a prefetched page: account the
                # hit and run the deferred fill bookkeeping (Markov
                # resolution happens at demand time, not prefetch time).
                state.prefetched = False
                stats.prefetch_hits += 1
                self.policy.on_tier1_fill(state, from_tier2=False)
            return

        # ---- demand miss --------------------------------------------------
        if events is not None:
            events.emit(EventKind.MISS, page, self.vts.now)
        stats.t1_misses += 1
        fault_ns = self._extra_fault_ns
        from_tier2 = False
        has_tier2 = self.tier2.capacity > 0
        if has_tier2:
            if events is not None:
                events.emit(EventKind.T2_LOOKUP, page, self.vts.now)
            stats.t2_lookups += 1
            fault_ns += platform.tier2_lookup_ns
            if state.location is _TIER2:
                from_tier2 = True
            else:
                stats.t2_wasteful_lookups += 1
            if obs is not None:
                obs.span("t2-lookup", "tier2", platform.tier2_lookup_ns,
                         page=page, hit=from_tier2)

        flight = self._flight
        if from_tier2:
            if events is not None:
                events.emit(EventKind.T2_HIT, page, self.vts.now)
            stats.t2_hits += 1
            stats.t2_fetches += 1
            self.tier2.remove(page)
            self._t2_order.remove(page)
            self.pcie.record_h2d(self.config.page_size)
            stall_ns = self._promotion_stall_ns(page)
            if stall_ns > 0.0:
                # Migration governor: the promotion itself cannot be
                # refused (the faulting warp needs the page, and exclusive
                # tiering forbids a host copy), so it queues behind the
                # throttle instead.
                stats.promotions_throttled += 1
            fetch_ns = platform.host_fetch_latency_ns + self._t2_move_ns + stall_ns
            fault_ns += fetch_ns
            if obs is not None:
                obs.span("t2-fetch", "tier2", fetch_ns, page=page)
            if flight is not None:
                flight.emit(
                    LifecycleKind.PROMOTE, page, stats.coalesced_accesses,
                    "T2", "T1", "demand-miss", latency_ns=fetch_ns,
                )
        else:
            # Up-path bypasses Tier-2: SSD -> GPU memory directly.
            if events is not None:
                events.emit(EventKind.SSD_READ, page, self.vts.now)
            self.ssd.record_read(self.config.page_size)
            stats.ssd_page_reads += 1
            state.dirty = False  # fresh copy of the SSD contents
            fault_ns += platform.ssd_read_latency_ns
            if obs is not None:
                obs.span("ssd-read", "ssd", platform.ssd_read_latency_ns, page=page)
            if flight is not None:
                flight.emit(
                    LifecycleKind.ADMIT, page, stats.coalesced_accesses,
                    "T3", "T1", "demand-miss",
                    latency_ns=platform.ssd_read_latency_ns,
                )

        eviction_ns = self._ensure_tier1_frame()
        async_evictions = self.config.async_evictions
        if not async_evictions:
            # Demand-miss path waits for the frame to be freed; with
            # background orchestration (paper section 5, future work) the
            # eviction work overlaps with other faults instead.
            fault_ns += eviction_ns

        if queueing is not None:
            if async_evictions:
                if self._fx_writeback:
                    queueing.on_background_io(self.config.page_size, write=True)
                if self._fx_t2_place:
                    queueing.on_background_pcie(self.config.page_size)
                sync_writeback = sync_place = sync_evict = False
            else:
                sync_writeback = self._fx_writeback
                sync_place = self._fx_t2_place
                sync_evict = self._fx_t2_evict
            queueing.on_miss(
                tier2_lookup=has_tier2,
                tier2_hit=from_tier2,
                writeback=sync_writeback,
                tier2_place=sync_place,
                tier2_evict=sync_evict,
            )

        if events is not None:
            events.emit(EventKind.T1_FILL, page, self.vts.now)
        self.tier1.insert(page)
        self.t1_clock.insert(page, referenced=True)
        state.location = _TIER1
        state.prefetched = False
        if write:
            state.dirty = True
        self.policy.on_tier1_fill(state, from_tier2=from_tier2)
        self.cost.add_fault_latency(fault_ns)
        if obs is not None:
            obs.on_miss(page, fault_ns, "tier2" if from_tier2 else "ssd")

        if self.config.prefetch_degree and not from_tier2:
            self._prefetch_after(page)

    # ------------------------------------------------------------------
    # prefetching (optional)
    # ------------------------------------------------------------------
    def _prefetch_after(self, page: int) -> None:
        """Pull the next sequential pages in with the demand miss.

        Prefetches ride alongside the demand read (SSD bandwidth is
        accounted; the demand miss does not wait), enter the clock with
        their reference bit clear so unused ones are evicted first, and
        defer policy fill bookkeeping to their first demand access.

        The window never crosses ``config.footprint_pages``: pages past
        the workload's address space do not exist, so reading them would
        fabricate page-table entries and phantom SSD traffic.
        """
        stop = page + 1 + self.config.prefetch_degree
        if self.config.footprint_pages is not None:
            stop = min(stop, self.config.footprint_pages)
        for candidate in range(page + 1, stop):
            state = self.page_table.lookup(candidate)
            if state.location is not _TIER3:
                continue
            self.stats.prefetches_issued += 1
            if self._events is not None:
                self._events.emit(EventKind.PREFETCH, candidate, self.vts.now)
            if self._obs is not None:
                self._obs.instant("prefetch", "ssd", page=candidate)
            if self._flight is not None:
                self._flight.emit(
                    LifecycleKind.ADMIT, candidate, self.stats.coalesced_accesses,
                    "T3", "T1", "prefetch",
                )
            self.ssd.record_read(self.config.page_size)
            self.stats.ssd_page_reads += 1
            queueing = self._queueing_model()
            if queueing is not None:
                queueing.on_background_io(self.config.page_size)
            eviction_ns = self._ensure_tier1_frame()
            if not self.config.async_evictions:
                self.cost.add_fault_latency(eviction_ns)
            if queueing is not None:
                # The eviction making room for this prefetch happens off
                # every demand miss's critical path, but its traffic still
                # occupies the shared links: dirty victims write to the
                # SSD, Tier-2 placements cross PCIe.
                if self._fx_writeback:
                    queueing.on_background_io(self.config.page_size, write=True)
                if self._fx_t2_place:
                    queueing.on_background_pcie(self.config.page_size)
            self.tier1.insert(candidate)
            self.t1_clock.insert(candidate, referenced=False)
            state.location = _TIER1
            state.dirty = False
            state.prefetched = True

    # ------------------------------------------------------------------
    # eviction pipeline
    # ------------------------------------------------------------------
    def _tier1_needs_eviction(self) -> bool:
        """Whether the next Tier-1 fill must first free a frame.

        The base runtime evicts only when the tier is physically full;
        the serving layer also evicts when the filling tenant has reached
        its Tier-1 frame quota.
        """
        return self.tier1.full

    def _next_tier1_victim(self) -> int:
        """Nominate the next Tier-1 eviction candidate (clock sweep).

        Hook for quota-aware victim selection: the serving layer restricts
        the sweep to an over-budget tenant's own pages.
        """
        return self.t1_clock.select_victim()

    def _ensure_tier1_frame(self) -> float:
        """Free one Tier-1 frame if needed; returns critical-path ns spent."""
        # Reset the eviction scratch unconditionally, *before* the
        # no-eviction early return: both the side-effect flags read by the
        # queueing model and the cause/prediction stamps read by the
        # lifecycle leaves must describe *this* call, never a previous
        # eviction's (demand, prefetch and quota paths all land here).
        self._fx_writeback = False
        self._fx_t2_place = False
        self._fx_t2_evict = False
        self._fx_cause = ""
        self._fx_predicted = None
        if not self._tier1_needs_eviction():
            return 0.0

        policy = self.policy
        stats = self.stats
        events = self._events
        retries = 0
        overridden = False
        while True:
            victim = self._next_tier1_victim()
            vstate = self.page_table.lookup(victim)
            plan = policy.choose(vstate)
            if plan.decision is not _RETAIN:
                break
            if retries >= self.config.max_clock_retries:
                # Progress guarantee: a retained victim must eventually go
                # somewhere; the nearest tier below is host memory.
                stats.retention_overrides += 1
                overridden = True
                plan = _force_tier2(plan)
                break
            stats.clock_retentions += 1
            if events is not None:
                events.emit(EventKind.RETAIN, victim, self.vts.now)
            if self._flight is not None:
                self._flight.emit(
                    LifecycleKind.RETAIN, victim, stats.coalesced_accesses,
                    "T1", "T1", "short-reuse-second-chance",
                    predicted=plan.predicted_name,
                )
            self.t1_clock.insert(victim, referenced=True)
            retries += 1

        if events is not None:
            events.emit(EventKind.EVICT_T1, victim, self.vts.now)
        self.tier1.remove(victim)
        vstate.location = _TIER3  # provisional; updated below
        stats.t1_evictions += 1
        if vstate.prefetched:
            vstate.prefetched = False
            stats.prefetch_wasted += 1
        policy.on_evicted(vstate, plan)
        forced = plan.forced_tier2
        if forced:
            stats.forced_t2_placements += 1

        # Stamp the decision's reasoning for the lifecycle leaves below.
        # Unconditional (not gated on the flight recorder) so the scratch
        # is always trustworthy — conformance audits read it too.
        predicted = self._fx_predicted = plan.predicted_name
        if forced:
            self._fx_cause = "heuristic-forced-tier2"
        elif overridden:
            self._fx_cause = "retention-override"
        elif plan.from_fallback:
            self._fx_cause = "cold-fallback"
        elif predicted is not None:
            self._fx_cause = f"predicted-{predicted}"
        else:
            self._fx_cause = "policy-static"

        if plan.decision is _PLACE_T2 and self.tier2.capacity > 0:
            allow_eviction = policy.tier2_evicts_on_full and not forced
            ns = self._place_in_tier2(vstate, allow_eviction)
        else:
            ns = self._bypass_to_tier3(vstate)
        obs = self._obs
        if obs is not None:
            obs.span("evict", "evict", ns, victim=victim,
                     decision=plan.decision.name, retries=retries)
        return ns

    def _place_in_tier2(self, state: PageState, allow_eviction: bool = True) -> float:
        """Move an evicted Tier-1 page into host memory.

        ``allow_eviction=False`` implements the free-slot-only placement of
        heuristic-forced (section 2.2) insertions: a page force-placed
        despite a Tier-3 prediction must not displace a resident — every
        Tier-2 resident was placed with at least as strong a claim.
        """
        stats = self.stats
        if not self._admit_tier2(state):
            # Migration admission control (the serving layer's per-tenant
            # Tier-2 quotas): the page is denied a host-memory frame and
            # takes the Tier-3 bypass path instead.
            stats.t2_quota_denials += 1
            self._fx_cause = "t2-quota-denied"
            return self._bypass_to_tier3(state)
        if not self._admit_demotion(state):
            # Migration governor: the tenant is out of migration tokens,
            # so the demotion skips the host tier (no Tier-2 frame, no
            # PCIe writeback pressure) and bypasses straight to Tier-3.
            stats.demotions_throttled += 1
            self._fx_cause = "migration-throttled"
            return self._bypass_to_tier3(state)
        ns = 0.0
        if self.tier2.full:
            if not allow_eviction:
                stats.t2_full_bypasses += 1
                self._fx_cause = "t2-full-bypass"
                return self._bypass_to_tier3(state)
            ns += self._evict_from_tier2()

        page = state.page
        if self._events is not None:
            self._events.emit(EventKind.PLACE_T2, page, self.vts.now)
        self._fx_t2_place = True
        self.tier2.insert(page)
        # Demoted pages arrive cold regardless of the policy's default.
        self._t2_order.insert(page, referenced=False)
        state.location = _TIER2
        stats.t2_placements += 1
        self.pcie.record_d2h(self.config.page_size)
        move_ns = self._t2_move_ns
        ns += move_ns
        obs = self._obs
        if obs is not None:
            obs.span("place-t2", "tier2", move_ns, page=page)
        if self._flight is not None:
            self._flight.emit(
                LifecycleKind.DEMOTE, page, stats.coalesced_accesses,
                "T1", "T2", self._fx_cause, predicted=self._fx_predicted,
                dirty=state.dirty, latency_ns=move_ns,
            )
        return ns

    def _admit_tier2(self, state: PageState) -> bool:
        """Whether ``state`` may consume a Tier-2 frame (admission hook).

        Always true for the base runtime; the serving layer denies
        placement when the page's tenant is over its Tier-2 quota.
        """
        return True

    def _admit_demotion(self, state: PageState) -> bool:
        """Whether the migration governor admits this Tier-1->Tier-2
        demotion (rate-limit hook).

        Always true for the base runtime; the serving layer spends a
        token from the owning tenant's bucket when a
        :class:`~repro.policyzoo.governor.MigrationGovernor` is active.
        """
        return True

    def _promotion_stall_ns(self, page: int) -> float:
        """Extra fault latency the migration governor charges a
        Tier-2->Tier-1 promotion (0.0 = unthrottled, the base default)."""
        return 0.0

    def _select_tier2_victim(self) -> int:
        """Nominate the Tier-2 eviction victim (FIFO/clock order hook)."""
        return self._t2_order.select_victim()

    def _evict_from_tier2(self) -> float:
        """Make room in Tier-2 (FIFO, or clock under GMT-TierOrder)."""
        victim = self._select_tier2_victim()
        if self._events is not None:
            self._events.emit(EventKind.T2_EVICT, victim, self.vts.now)
        self._fx_t2_evict = True
        self.tier2.remove(victim)
        vstate = self.page_table.lookup(victim)
        vstate.location = _TIER3
        self.stats.t2_evictions += 1
        eviction_ns = self.config.platform.tier2_eviction_ns
        obs = self._obs
        if obs is not None:
            obs.span("t2-evict", "tier2", eviction_ns, page=victim)
        if self._flight is not None:
            self._flight.emit(
                LifecycleKind.T2_EVICT, victim, self.stats.coalesced_accesses,
                "T2", "T3", "tier2-capacity", dirty=vstate.dirty,
                latency_ns=eviction_ns,
            )
        # Running the Tier-2 replacement mechanism is itself GPU work over
        # host-resident metadata (section 2.1.1's third drawback).
        writeback_ns = self._writeback_if_dirty(vstate)
        if writeback_ns == 0.0:
            self.stats.t2_clean_evictions += 1
        return eviction_ns + writeback_ns

    def _bypass_to_tier3(self, state: PageState) -> float:
        """Evict without a Tier-2 copy: discard clean, write back dirty."""
        events = self._events
        if events is not None:
            events.emit(EventKind.BYPASS_T3, state.page, self.vts.now)
        state.location = _TIER3
        if self._flight is not None:
            dirty = state.dirty
            self._flight.emit(
                LifecycleKind.BYPASS, state.page, self.stats.coalesced_accesses,
                "T1", "T3", self._fx_cause, predicted=self._fx_predicted,
                dirty=dirty,
                detail="writeback-dirty" if dirty else "discard-clean",
            )
        ns = self._writeback_if_dirty(state)
        if ns == 0.0:
            if events is not None:
                events.emit(EventKind.DISCARD, state.page, self.vts.now)
            self.stats.clean_discards += 1
        return ns

    def _writeback_if_dirty(self, state: PageState) -> float:
        if not state.dirty:
            return 0.0
        page = state.page
        if self._events is not None:
            self._events.emit(EventKind.WRITEBACK, page, self.vts.now)
        self._fx_writeback = True
        self.ssd.record_write(self.config.page_size)
        self.stats.ssd_page_writes += 1
        state.writeback()
        write_ns = self.config.platform.ssd_write_latency_ns
        obs = self._obs
        if obs is not None:
            obs.span("writeback", "ssd", write_ns, page=page)
        if self._flight is not None:
            self._flight.emit(
                LifecycleKind.WRITEBACK, page, self.stats.coalesced_accesses,
                "-", "T3", "dirty-writeback", latency_ns=write_ns,
            )
        return write_ns

    # ------------------------------------------------------------------
    def result(self) -> RunResult:
        """Snapshot the run outcome (can be called repeatedly)."""
        breakdown = self.cost.breakdown(
            pcie_busy_ns=self.pcie.busy_time_ns(),
            ssd_busy_ns=self.ssd.busy_time_ns(),
        )
        if self._queueing is not None:
            breakdown = replace(breakdown, measured_ns=self._queueing.makespan_ns)
        return RunResult(
            runtime_name=self.name,
            stats=self.stats,
            breakdown=breakdown,
            page_size=self.config.page_size,
        )

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Structural invariants; used by tests and property checks."""
        if len(self.tier1) > self.tier1.capacity:
            raise SimulationError("Tier-1 over capacity")
        if len(self.tier2) > self.tier2.capacity:
            raise SimulationError("Tier-2 over capacity")
        t1_pages = set(self.tier1)
        t2_pages = set(self.tier2)
        if t1_pages & t2_pages:
            raise SimulationError(
                f"pages duplicated across tiers: {sorted(t1_pages & t2_pages)[:5]}"
            )
        for page in t1_pages | t2_pages:
            if self.page_table.peek(page) is None:
                raise SimulationError(
                    f"page {page} resident in a tier but unknown to the page table"
                )
        for state in self.page_table:
            in_t1 = state.page in t1_pages
            in_t2 = state.page in t2_pages
            expected = _TIER1 if in_t1 else _TIER2 if in_t2 else _TIER3
            if state.location is not expected:
                raise SimulationError(
                    f"page {state.page}: location {state.location} but "
                    f"membership says {expected}"
                )


def _force_tier2(plan):
    """Rewrite a RETAIN plan whose retry budget ran out into a Tier-2 plan."""
    return replace(plan, decision=PlacementDecision.PLACE_TIER2)
