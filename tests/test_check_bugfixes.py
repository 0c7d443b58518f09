"""Regression tests for accounting bugs in the runtime's bookkeeping.
Each test fails on the pre-fix code:

1. dirty writebacks (and Tier-2 placements) caused by *prefetch-triggered*
   evictions never reached the queueing time model — the write link's
   busy time undercounted real SSD traffic;
2. the eviction-cause scratch (``_fx_cause`` & friends) was only stamped
   with the flight recorder attached and only reset on the demand path,
   so stale values could leak into later consumers;
3. the sequential prefetcher read past the workload footprint,
   fabricating page-table entries and phantom SSD reads for pages that
   do not exist;
4. a throttled promotion's PROMOTE lifecycle event reported the plain
   fetch latency, without the migration governor's stall that the fault
   was charged.
"""

import pytest

from repro.check.identities import audit_runtime
from repro.core.config import GMTConfig
from repro.core.runtime import GMTRuntime
from repro.errors import ConfigError
from repro.obs.lifecycle import LifecycleKind
from repro.units import SEC


def make_config(**overrides):
    base = dict(
        tier1_frames=8,
        tier2_frames=16,
        policy="tier-order",
        sample_target=50,
        sample_batch=10,
    )
    base.update(overrides)
    return GMTConfig(**base)


class TestPrefetchEvictionQueueing:
    """Bug 1: prefetch-triggered eviction side effects and the time model."""

    def drive(self, runtime):
        """Dirty strided writes: prefetch fills keep evicting dirty pages."""
        for page in range(0, 120, 3):
            runtime.access(page, write=True)

    def instrument(self, runtime):
        """Count writebacks that happen *inside* the prefetch path."""
        original = runtime._prefetch_after
        seen = {"writes": 0, "t2_places": 0}

        def wrapped(page):
            writes = runtime.stats.ssd_page_writes
            places = runtime.stats.t2_placements
            original(page)
            seen["writes"] += runtime.stats.ssd_page_writes - writes
            seen["t2_places"] += runtime.stats.t2_placements - places

        runtime._prefetch_after = wrapped
        return seen

    def test_prefetch_writebacks_reach_the_write_link(self):
        config = make_config(
            tier2_frames=0, prefetch_degree=2, time_model="queueing"
        )
        runtime = GMTRuntime(config)
        seen = self.instrument(runtime)
        self.drive(runtime)

        # The scenario must actually exercise the bug: dirty pages were
        # written back while filling frames for prefetched pages.
        assert seen["writes"] > 0

        model = runtime._queueing
        wire = config.page_size / model._ssd_write.bandwidth * SEC
        expected = runtime.stats.ssd_page_writes * wire
        assert model.ssd_write_busy_ns == pytest.approx(expected, rel=1e-9)

    def test_prefetch_t2_placements_reach_the_pcie_link(self):
        config = make_config(
            tier1_frames=4, tier2_frames=32, policy="tier-order",
            prefetch_degree=2, time_model="queueing",
        )
        runtime = GMTRuntime(config)
        seen = self.instrument(runtime)
        self.drive(runtime)
        assert seen["t2_places"] > 0

        model = runtime._queueing
        wire = config.page_size / model._pcie.bandwidth * SEC
        expected = (
            runtime.stats.t2_hits + runtime.stats.t2_placements
        ) * wire
        assert model.pcie_busy_ns == pytest.approx(expected, rel=1e-9)

    def test_full_audit_clean_under_prefetch_and_queueing(self):
        config = make_config(prefetch_degree=2, time_model="queueing")
        runtime = GMTRuntime(config)
        self.drive(runtime)
        assert runtime.stats.prefetches_issued > 0
        assert audit_runtime(runtime) == []


class TestEvictionScratchReset:
    """Bug 2: the per-eviction scratch must never carry stale state."""

    POISON = dict(
        _fx_cause="stale-poison",
        _fx_predicted="stale",
        _fx_writeback=True,
        _fx_t2_place=True,
        _fx_t2_evict=True,
    )

    def poison(self, runtime):
        for name, value in self.POISON.items():
            setattr(runtime, name, value)

    def assert_clean(self, runtime):
        assert runtime._fx_cause == ""
        assert runtime._fx_predicted is None
        assert runtime._fx_writeback is False
        assert runtime._fx_t2_place is False
        assert runtime._fx_t2_evict is False

    def test_no_eviction_miss_clears_scratch(self):
        runtime = GMTRuntime(make_config())
        self.poison(runtime)
        runtime.access(0)  # Tier-1 has free frames: no eviction at all
        self.assert_clean(runtime)

    def test_ensure_tier1_frame_resets_even_on_early_return(self):
        runtime = GMTRuntime(make_config())
        self.poison(runtime)
        assert runtime._ensure_tier1_frame() == 0.0  # tier not full
        self.assert_clean(runtime)

    def test_prefetch_evictions_stamp_fresh_causes(self):
        # Behavioral: with the flight recorder attached, every DEMOTE /
        # WRITEBACK event must carry a cause stamped by *its own*
        # eviction — never the poison, never a previous decision.
        runtime = GMTRuntime(make_config(tier1_frames=4, prefetch_degree=2))
        recorder = runtime.attach_flight_recorder()
        self.poison(runtime)
        for page in range(0, 60, 3):
            runtime.access(page, write=True)
        demotions = recorder.events(kind=LifecycleKind.DEMOTE)
        assert demotions
        for event in demotions:
            assert event.cause != "stale-poison"
            assert event.cause != ""

    def test_scratch_stamped_without_flight_recorder(self):
        # The conformance auditor may consult the scratch after a run, so
        # stamping must not depend on observability being attached.
        runtime = GMTRuntime(make_config(tier1_frames=4))
        for page in range(12):
            runtime.access(page, write=True)
        assert runtime.stats.t1_evictions > 0
        assert runtime._fx_cause != ""


class TestPrefetchFootprintClamp:
    """Bug 3: the prefetch window must never cross the footprint."""

    def test_window_clamped_at_the_boundary(self):
        runtime = GMTRuntime(
            make_config(prefetch_degree=4, footprint_pages=12)
        )
        runtime.access(10)  # window 11..14 must clamp to {11}
        assert runtime.stats.prefetches_issued == 1
        assert runtime.stats.ssd_page_reads == 2  # demand + one prefetch

    def test_last_page_prefetches_nothing(self):
        runtime = GMTRuntime(
            make_config(prefetch_degree=4, footprint_pages=12)
        )
        runtime.access(11)
        assert runtime.stats.prefetches_issued == 0

    def test_no_page_past_the_bound_enters_the_page_table(self):
        runtime = GMTRuntime(
            make_config(prefetch_degree=4, footprint_pages=12)
        )
        for page in range(12):
            runtime.access(page)
        pages = [state.page for state in runtime.page_table]
        assert pages and max(pages) < 12
        assert audit_runtime(runtime) == []

    def test_unbounded_config_keeps_old_behaviour(self):
        runtime = GMTRuntime(make_config(prefetch_degree=4))
        runtime.access(10)
        assert runtime.stats.prefetches_issued == 4

    def test_footprint_validation(self):
        with pytest.raises(ConfigError):
            make_config(footprint_pages=0)
        with pytest.raises(ConfigError):
            make_config(footprint_pages=-3)

    def test_harness_threads_footprint_through(self):
        from repro.experiments.harness import (
            _with_footprint_bound,
            default_config,
            get_workload,
        )

        config = default_config(8192, prefetch_degree=2)
        workload = get_workload("hotspot", config, seed=0)
        bounded = _with_footprint_bound(config, workload)
        assert bounded.footprint_pages == workload.footprint_pages

        plain = default_config(8192)
        assert _with_footprint_bound(plain, workload) is plain


class StalledPromotionRuntime(GMTRuntime):
    """A runtime whose migration governor charges every promotion a
    constant stall."""

    STALL_NS = 4096.0

    def _promotion_stall_ns(self, page: int) -> float:
        return self.STALL_NS


class TestPromoteLatencyIncludesStall:
    """Bug 4: a throttled promotion's PROMOTE event dropped the stall the
    fault was charged."""

    def drive(self, runtime):
        # 24 pages cycling through 8 Tier-1 + 16 Tier-2 frames: after the
        # first lap every miss is a Tier-2 hit, i.e. a promotion.
        for _ in range(3):
            for page in range(24):
                runtime.access(page)

    def test_each_promote_latency_equals_its_charged_fetch(self):
        stalled = StalledPromotionRuntime(make_config())
        plain = GMTRuntime(make_config())
        recorder = stalled.attach_flight_recorder(capacity=None)
        self.drive(stalled)
        self.drive(plain)
        promotes = recorder.events(kind=LifecycleKind.PROMOTE)
        assert promotes
        assert stalled.stats.promotions_throttled == len(promotes)
        # The stall is charged to the faults on top of the plain fetch ...
        extra = stalled.cost.fault_latency_ns - plain.cost.fault_latency_ns
        assert extra == pytest.approx(stalled.STALL_NS * len(promotes))
        # ... and each PROMOTE event reports the whole charged fetch.
        platform = stalled.config.platform
        fetch_ns = platform.host_fetch_latency_ns + stalled._t2_move_ns
        for event in promotes:
            assert event.latency_ns == fetch_ns + stalled.STALL_NS
