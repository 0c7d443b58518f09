"""Vector replay engine: byte-identity with the scalar runtime.

The contract under test (docs/performance.md): ``engine="vector"`` is a
pure speed choice — every counter, the elapsed time, the confusion
matrix, and the final page-table state must match the scalar runtime
bit for bit, on any trace, under any policy.  The property tests drive
randomized warp streams through both engines; the unit tests pin the
factory surface, the clock port, the float-accumulation identity, the
instrument fallback, and the dense-page-id capacity guard.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ENGINE_NAMES, GMTConfig, make_runtime, resolve_engine
from repro.core.runtime import GMTRuntime
from repro.core.vector import (
    VectorClock,
    VectorEngineMixin,
    VectorPageStore,
    VectorReplayEngine,
    clear_trace_cache,
    materialize_trace,
    vector_variant,
)
from repro.errors import ConfigError, SimulationError
from repro.experiments.harness import build_runtime, default_config
from repro.mem.clock_replacement import ClockReplacement
from repro.sim.cost import sequential_float_sum
from repro.sim.gpu import WarpAccess

N_PAGES = 48  # footprint; tier1=8 frames forces heavy eviction traffic


def small_config(**overrides):
    return GMTConfig(tier1_frames=8, tier2_frames=16, **overrides)


def make_trace(warps):
    """[(pages_tuple, write), ...] -> re-iterable WarpAccess list."""
    return [WarpAccess(pages=tuple(pages), write=write) for pages, write in warps]


def run_pair(config, trace):
    scalar = make_runtime(config, engine="scalar")
    vector = make_runtime(config, engine="vector")
    return scalar, scalar.run(trace), vector, vector.run(trace)


def assert_results_identical(r_s, r_v):
    for counter in type(r_s.stats).counter_names():
        lhs = getattr(r_s.stats, counter)
        rhs = getattr(r_v.stats, counter)
        assert lhs == rhs, f"{counter}: scalar={lhs} vector={rhs}"
    assert r_s.elapsed_ns == r_v.elapsed_ns
    assert r_s.stats.confusion == r_v.stats.confusion


def page_table_snapshot(runtime, n_pages):
    rows = []
    for page in range(n_pages):
        state = runtime.page_table.peek(page)
        if state is None:
            rows.append(None)
            continue
        rows.append(
            (
                state.location,
                state.dirty,
                state.prefetched,
                state.last_access_ts,
                state.last_eviction_ts,
                state.access_count,
                state.eviction_count,
            )
        )
    return rows


def assert_engines_agree(config, trace):
    scalar, r_s, vector, r_v = run_pair(config, trace)
    assert_results_identical(r_s, r_v)
    assert page_table_snapshot(scalar, N_PAGES) == page_table_snapshot(
        vector, N_PAGES
    )


# ----------------------------------------------------------------------
# property: random traces, both engines, identical everything
# ----------------------------------------------------------------------
warp_st = st.tuples(
    st.lists(st.integers(0, N_PAGES - 1), min_size=1, max_size=4),
    st.booleans(),
)
trace_st = st.lists(warp_st, min_size=0, max_size=150)


class TestEngineParityProperties:
    @settings(max_examples=25, deadline=None)
    @given(warps=trace_st, policy=st.sampled_from(["reuse", "tier-order", "random"]))
    def test_random_traces_are_byte_identical(self, warps, policy):
        config = small_config(policy=policy)
        assert_engines_agree(config, make_trace(warps))

    @settings(max_examples=15, deadline=None)
    @given(warps=trace_st, degree=st.sampled_from([1, 4]))
    def test_prefetch_traces_are_byte_identical(self, warps, degree):
        config = small_config(prefetch_degree=degree)
        assert_engines_agree(config, make_trace(warps))

    @settings(max_examples=10, deadline=None)
    @given(warps=trace_st)
    def test_zoo_policy_falls_back_but_stays_identical(self, warps):
        # No vector twin for s3fifo: the vector runtime must silently
        # replay scalar and still match.
        config = small_config(tier1_eviction="s3fifo")
        assert_engines_agree(config, make_trace(warps))

    @settings(max_examples=10, deadline=None)
    @given(warps=trace_st)
    def test_hit_heavy_traces_are_byte_identical(self, warps):
        # Footprint fits Tier-1: after compulsory misses everything is a
        # hit, exercising the batch-retire path almost exclusively.
        config = GMTConfig(tier1_frames=64, tier2_frames=64)
        trace = [
            WarpAccess(pages=tuple(p % 16 for p in pages), write=write)
            for pages, write in [(w[0], w[1]) for w in warps]
        ]
        assert_engines_agree(config, trace)


# ----------------------------------------------------------------------
# property: the VectorClock is a literal ClockReplacement port
# ----------------------------------------------------------------------
clock_ops_st = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 15)), max_size=200
)


class TestVectorClockParity:
    @settings(max_examples=50, deadline=None)
    @given(ops=clock_ops_st)
    def test_op_sequences_match_scalar_clock(self, ops):
        store = VectorPageStore()
        vec = VectorClock(4, store)
        ref = ClockReplacement(4)
        for code, page in ops:
            if code == 0:
                if page not in ref and not ref.full:
                    ref.insert(page)
                    vec.insert(page)
            elif code == 1:
                if page in ref:
                    ref.touch(page)
                    vec.touch(page)
            elif code == 2:
                if page in ref:
                    ref.give_second_chance(page)
                    vec.give_second_chance(page)
            elif len(ref):
                assert ref.peek_victim() == vec.peek_victim()
                assert ref.select_victim() == vec.select_victim()
            assert len(ref) == len(vec)
            assert ref.full == vec.full
            assert ref.pages() == vec.pages()

    def test_touch_many_matches_repeated_touch(self):
        store = VectorPageStore()
        vec = VectorClock(8, store)
        ref = ClockReplacement(8)
        for page in range(8):
            vec.insert(page, referenced=False)
            ref.insert(page, referenced=False)
        batch = np.array([1, 3, 3, 5], dtype=np.int64)
        vec.touch_many(batch)
        for page in batch:
            ref.touch(int(page))
        victims = [ref.select_victim() for _ in range(8)]
        assert victims == [vec.select_victim() for _ in range(8)]


# ----------------------------------------------------------------------
# property: sequential float accumulation identity
# ----------------------------------------------------------------------
class TestSequentialFloatSum:
    @settings(max_examples=100, deadline=None)
    @given(
        base=st.floats(0, 1e12, allow_nan=False),
        step=st.floats(0, 1e6, allow_nan=False),
        count=st.integers(0, 500),
    )
    def test_matches_python_loop_bit_for_bit(self, base, step, count):
        expected = base
        for _ in range(count):
            expected += step
        assert sequential_float_sum(base, step, count) == expected


# ----------------------------------------------------------------------
# factory / engine-selection surface
# ----------------------------------------------------------------------
class TestEngineSelection:
    def test_engine_names(self):
        assert set(ENGINE_NAMES) == {"scalar", "vector", "auto"}

    def test_bad_engine_rejected(self):
        with pytest.raises(ConfigError):
            resolve_engine("simd", small_config())
        with pytest.raises(ConfigError):
            small_config(engine="simd")

    def test_explicit_engine_wins(self):
        config = small_config(engine="scalar")
        assert resolve_engine("vector", config) == "vector"
        assert resolve_engine(None, config) == "scalar"

    def test_auto_picks_vector_when_uninstrumented(self):
        assert resolve_engine("auto", small_config()) == "vector"

    def test_auto_demotes_on_instruments_and_zoo_policies(self):
        config = small_config()
        assert resolve_engine("auto", config, recorder=True) == "scalar"
        assert resolve_engine("auto", config, checks=True) == "scalar"
        zoo = small_config(tier1_eviction="mglru")
        assert resolve_engine("auto", zoo) == "scalar"

    def test_make_runtime_engine_classes(self):
        scalar = make_runtime(small_config(), engine="scalar")
        vector = make_runtime(small_config(), engine="vector")
        assert type(scalar) is GMTRuntime
        assert scalar.engine_name == "scalar"
        assert isinstance(vector, VectorReplayEngine)
        assert vector.engine_name == "vector"

    def test_vector_variant_is_memoized(self):
        from repro.baselines.bam import BamRuntime

        assert vector_variant(GMTRuntime) is VectorReplayEngine
        assert vector_variant(VectorReplayEngine) is VectorReplayEngine
        variant = vector_variant(BamRuntime)
        assert variant is vector_variant(BamRuntime)
        assert issubclass(variant, VectorEngineMixin)
        assert issubclass(variant, BamRuntime)

    def test_harness_build_runtime_routes_engine(self):
        config = default_config(scale=8192)
        runtime = build_runtime("reuse", config, engine="vector")
        assert runtime.engine_name == "vector"


# ----------------------------------------------------------------------
# instrument fallback, trace cache, capacity guard
# ----------------------------------------------------------------------
class TestFallbacksAndGuards:
    def test_instrumented_vector_runtime_replays_scalar_and_matches(self):
        trace = make_trace([((p % N_PAGES, (p * 7) % N_PAGES), p % 3 == 0)
                            for p in range(300)])
        config = small_config()
        r_s = make_runtime(config, engine="scalar").run(trace)
        vector = make_runtime(config, engine="vector")
        vector.enable_periodic_checks(every=100)
        assert not vector._vector_ready()
        r_v = vector.run(trace)
        assert_results_identical(r_s, r_v)

    def test_trace_cache_materializes_once(self):
        from repro.workloads import make_workload

        clear_trace_cache()
        workload = make_workload("hotspot", default_config(scale=8192))
        arrays = materialize_trace(workload)
        assert materialize_trace(workload) is arrays
        assert arrays.n_warps > 0
        assert arrays.pages.dtype == np.int64
        clear_trace_cache()

    def test_dense_capacity_guard(self):
        store = VectorPageStore()
        with pytest.raises(SimulationError):
            store.ensure(VectorPageStore.MAX_PAGES + 1)

    def test_vector_desync_injection_is_detected(self):
        from repro.check.differential import run_conformance

        report = run_conformance(
            "hotspot",
            scale=8192,
            inject="vector-desync",
            engine="vector",
            metamorphic=False,
            serve=False,
        )
        assert not report.ok
        assert report.violations

    def test_vector_desync_injection_needs_vector_engine(self):
        from repro.check.differential import run_conformance

        with pytest.raises(ConfigError):
            run_conformance(
                "hotspot",
                scale=8192,
                inject="vector-desync",
                engine="scalar",
                metamorphic=False,
                serve=False,
            )


# ----------------------------------------------------------------------
# the page store's columns and the batch probe's residency column
# ----------------------------------------------------------------------
class TestPageStoreColumns:
    def test_views_alias_the_buffers_across_growth(self):
        store = VectorPageStore(initial=4)
        store.last_access[2] = 7
        store.t1_frame_view[3] = 5
        assert store.last_access_view[2] == 7
        assert store.t1_frame[3] == 5
        store.ensure(100)
        assert store.size >= 100
        assert store.last_access[2] == 7 and store.t1_frame[3] == 5
        assert store.last_access_view[99] == -1 and store.t1_frame[99] == -1
        assert store.access_count[99] == 0 and not store.dirty[99]
        store.dirty_view[50] = True
        assert store.dirty[50] == 1

    def test_prefetch_column_only_when_prefetching(self):
        assert VectorPageStore().prefetched is None
        store = VectorPageStore(prefetch=True)
        store.prefetched_view[1] = True
        assert store.prefetched[1] == 1

    def test_clock_keeps_the_residency_column_exact(self):
        store = VectorPageStore()
        clock = VectorClock(2, store)
        clock.insert(5)
        clock.insert(9, referenced=False)
        assert sorted(np.flatnonzero(store.t1_frame_view >= 0).tolist()) == [5, 9]
        assert clock.select_victim() == 9
        assert store.t1_frame[9] == -1 and store.t1_frame[5] >= 0
        clock.remove(5)
        assert not (store.t1_frame_view >= 0).any()

    def test_state_fields_route_to_columns_or_slots(self):
        runtime = make_runtime(small_config(), engine="vector")
        runtime.run(make_trace([((p % N_PAGES,), p % 2 == 0) for p in range(200)]))
        store = runtime._vstore
        for state in runtime.page_table:
            assert state.dirty == bool(store.dirty[state.page])
            assert state.access_count == store.access_count[state.page]
            assert state.last_access_ts == store.last_access[state.page]
            resident = state.page in runtime.tier1
            assert (store.t1_frame[state.page] >= 0) == resident
        assert not hasattr(next(iter(runtime.page_table)), "__dict__")

    def test_check_invariants_compares_the_column_with_tier1(self):
        runtime = make_runtime(small_config(), engine="vector")
        runtime.run(make_trace([((p % N_PAGES,), False) for p in range(100)]))
        runtime.check_invariants()
        page = next(iter(runtime.tier1))
        runtime._vstore.t1_frame[page] = -1
        with pytest.raises(SimulationError, match="t1_frame"):
            runtime.check_invariants()
