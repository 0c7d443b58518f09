"""Phase profiler: attribution exactness, attach/detach hygiene, zero
cost when disabled, sampled-mode statistics, and the gmt-prof CLI."""

import json
import random
import sys
import tracemalloc

import pytest

import repro.prof
from repro.core.config import GMTConfig
from repro.core.runtime import GMTRuntime
from repro.errors import ConfigError, SimulationError
from repro.prof import (
    PHASES,
    PhaseProfiler,
    ThroughputMeter,
    collapsed_lines,
    diff_profiles,
    format_top,
    load_profile,
    main,
    profile,
    profile_replay,
)


class FakeClock:
    """Settable clock for deterministic exact-mode attribution."""

    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def make_config(**kwargs):
    return GMTConfig(
        tier1_frames=kwargs.pop("tier1", 16),
        tier2_frames=kwargs.pop("tier2", 64),
        policy=kwargs.pop("policy", "reuse"),
        sample_target=200,
        sample_batch=40,
        **kwargs,
    )


def random_pages(n=2000, universe=512, seed=11):
    rng = random.Random(seed)
    return [rng.randrange(universe) for _ in range(n)]


class TestThroughputMeter:
    def test_overall_rate(self):
        clk = FakeClock()
        meter = ThroughputMeter(interval=10, clock=clk)
        meter.start(0)
        clk.t = 2.0
        meter.tick(100)
        assert meter.overall() == pytest.approx(50.0)

    def test_recent_rate_uses_tail_samples(self):
        clk = FakeClock()
        meter = ThroughputMeter(interval=10, clock=clk)
        meter.start(0)
        clk.t = 1.0
        meter.tick(10)  # 10/s
        clk.t = 1.1
        meter.tick(30)  # then 200/s
        assert meter.rate(window=1) == pytest.approx(200.0, rel=1e-6)

    def test_sub_interval_ticks_are_coalesced(self):
        meter = ThroughputMeter(interval=100, clock=FakeClock())
        meter.start(0)
        for position in range(0, 90, 10):
            meter.tick(position)
        assert len(meter.samples) == 1

    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigError):
            ThroughputMeter(interval=0)


class TestExactAttribution:
    def test_exclusive_times_are_exact_with_fake_clock(self):
        clk = FakeClock()
        prof = PhaseProfiler(mode="exact", clock=clk)
        prof.enter("access")  # t=0
        clk.t = 1.0
        prof.enter("page-table")
        clk.t = 3.0
        prof.exit()
        clk.t = 6.0
        prof.exit()
        doc = prof.report()
        assert doc["phases"]["access"]["self_s"] == pytest.approx(4.0)
        assert doc["phases"]["page-table"]["self_s"] == pytest.approx(2.0)
        assert doc["stacks"] == pytest.approx(
            {"access": 4.0, "access;page-table": 2.0}
        )

    def test_reentry_accumulates(self):
        clk = FakeClock()
        prof = PhaseProfiler(mode="exact", clock=clk)
        for start in (0.0, 10.0):
            clk.t = start
            prof.enter("eviction")
            clk.t = start + 2.0
            prof.exit()
        doc = prof.report()
        assert doc["phases"]["eviction"]["self_s"] == pytest.approx(4.0)
        assert doc["phases"]["eviction"]["calls"] == 2

    def test_gap_between_phases_is_unattributed(self):
        clk = FakeClock()
        prof = PhaseProfiler(mode="exact", clock=clk)
        prof.enter("access")
        clk.t = 1.0
        prof.exit()
        clk.t = 5.0  # 4s outside any phase
        prof.enter("access")
        clk.t = 6.0
        prof.exit()
        prof.wall_s = 6.0
        assert prof.attributed_s == pytest.approx(2.0)
        assert prof.coverage == pytest.approx(2.0 / 6.0)

    def test_drain_cap_bounds_event_buffer(self):
        clk = FakeClock()
        prof = PhaseProfiler(mode="exact", clock=clk)
        prof._drain_at = 64
        for i in range(1000):
            clk.t = float(i)
            prof.enter("access")
            clk.t = float(i) + 0.5
            prof.exit()
        assert len(prof._events) < 64
        assert prof.report()["phases"]["access"]["calls"] == 1000


class TestAttachDetach:
    def test_exact_detach_restores_methods(self):
        runtime = GMTRuntime(make_config())
        baseline_access = runtime.access_warp
        prof = PhaseProfiler(mode="exact")
        prof.attach(runtime)
        assert "access_warp" in vars(runtime)
        assert runtime._prof is prof
        prof.detach()
        assert "access_warp" not in vars(runtime)
        assert runtime.access_warp == baseline_access
        assert runtime._prof is None

    def test_sampled_attach_never_touches_methods(self):
        runtime = GMTRuntime(make_config())
        prof = PhaseProfiler()
        prof.attach(runtime)
        try:
            assert "access_warp" not in vars(runtime)
            assert "lookup" not in vars(runtime.page_table)
            assert runtime._prof is prof
        finally:
            prof.detach()
        assert runtime._prof is None
        assert prof._sampler is None

    def test_sampled_attach_shortens_the_switch_interval_until_detach(self):
        # The sampler needs the interpreter lock every ``interval``; with
        # the default 5 ms switch interval it would sample ~5 ms apart.
        before = sys.getswitchinterval()
        prof = PhaseProfiler(interval=0.002)
        prof.attach(GMTRuntime(make_config()))
        try:
            assert sys.getswitchinterval() == pytest.approx(0.002 / 10)
        finally:
            prof.detach()
        assert sys.getswitchinterval() == before

    def test_double_attach_rejected_both_sides(self):
        runtime = GMTRuntime(make_config())
        prof = PhaseProfiler()
        prof.attach(runtime)
        try:
            with pytest.raises(ConfigError):
                prof.attach(GMTRuntime(make_config()))
            with pytest.raises(ConfigError):
                PhaseProfiler().attach(runtime)
        finally:
            prof.detach()

    def test_runtime_attach_profiler_helper(self):
        runtime = GMTRuntime(make_config())
        prof = runtime.attach_profiler()
        assert isinstance(prof, PhaseProfiler)
        assert runtime._prof is prof
        runtime.detach_profiler()
        assert runtime._prof is None
        runtime.detach_profiler()  # idempotent

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_profiling_does_not_change_results(self, mode):
        pages = random_pages()
        bare = GMTRuntime(make_config())
        for page in pages:
            bare.access(page)
        profiled = GMTRuntime(make_config())
        prof = PhaseProfiler(mode=mode)
        prof.attach(profiled)
        try:
            for page in pages:
                profiled.access(page)
        finally:
            prof.detach()
        assert profiled.stats.t1_hits == bare.stats.t1_hits
        assert profiled.stats.t1_evictions == bare.stats.t1_evictions
        assert profiled.result().elapsed_ns == bare.result().elapsed_ns

    def test_bad_mode_and_interval_rejected(self):
        with pytest.raises(ConfigError):
            PhaseProfiler(mode="statistical")
        with pytest.raises(ConfigError):
            PhaseProfiler(interval=0.0)


class TestReplayProfiling:
    def _workload(self, n=3000):
        pages = random_pages(n=n)
        from repro.sim.gpu import WarpAccess

        def gen():
            for page in pages:
                yield WarpAccess(pages=(page,), write=False)

        return gen()

    def test_exact_replay_attributes_most_of_wall(self):
        runtime = GMTRuntime(make_config())
        prof = PhaseProfiler(mode="exact")
        prof, result = profile_replay(runtime, self._workload(), profiler=prof)
        assert prof.accesses == 3000
        assert prof.wall_s > 0
        assert prof.coverage > 0.9
        assert result.stats.coalesced_accesses == 3000
        assert set(prof.report()["phases"]) <= set(PHASES)

    def test_sampled_replay_produces_samples(self):
        runtime = GMTRuntime(make_config())
        prof = PhaseProfiler(interval=1e-4)
        prof, _result = profile_replay(runtime, self._workload(8000), profiler=prof)
        doc = prof.report()
        assert doc["mode"] == "sampled"
        assert prof.accesses == 8000
        # Statistical: every matched sample charges its interval, so on a
        # replay this long attribution should dominate the wall.
        assert doc["phases"], "sampler never landed in a known phase"
        assert set(doc["phases"]) <= set(PHASES)
        assert prof.attributed_s <= prof.wall_s * 1.1

    def test_profile_context_manager(self):
        runtime = GMTRuntime(make_config())
        with profile(runtime) as prof:
            for page in random_pages(n=500):
                runtime.access(page)
        assert runtime._prof is None
        assert prof.wall_s > 0
        assert prof.accesses == 500


class TestZeroCostWhenDisabled:
    def test_disabled_runtime_allocates_nothing_in_prof_module(self):
        runtime = GMTRuntime(make_config())
        pages = random_pages(n=1500)
        for page in pages[:200]:  # warm up steady state
            runtime.access(page)
        tracemalloc.start()
        try:
            for page in pages[200:]:
                runtime.access(page)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        snapshot = snapshot.filter_traces(
            [tracemalloc.Filter(True, repro.prof.__file__)]
        )
        assert snapshot.statistics("filename") == []


class TestReporting:
    def _doc(self, **phases):
        total = sum(phases.values())
        return {
            "version": 1,
            "mode": "exact",
            "wall_s": total,
            "accesses": 1000,
            "accesses_per_sec": 1000 / total if total else 0.0,
            "attributed_s": total,
            "coverage": 1.0,
            "phases": {
                name: {"self_s": s, "calls": 10} for name, s in phases.items()
            },
            "stacks": {name: s for name, s in phases.items()},
        }

    def test_format_top_orders_by_self_time(self):
        text = format_top(self._doc(access=0.1, eviction=0.5))
        eviction_at = text.index("eviction")
        access_at = text.index("access", text.index("% wall"))
        assert eviction_at < access_at
        assert "100.0% attributed" in text

    def test_collapsed_lines_integer_microseconds(self):
        lines = collapsed_lines({"stacks": {"dispatch;access": 0.001234}})
        assert lines == ["dispatch;access 1234"]

    def test_collapsed_drops_zero_rows(self):
        assert collapsed_lines({"stacks": {"dispatch": 1e-9}}) == []

    def test_diff_reports_throughput_and_deltas(self):
        before = self._doc(access=0.4, eviction=0.4)
        after = self._doc(access=0.1, eviction=0.4)
        after["accesses_per_sec"] = 2000.0
        text = diff_profiles(before, after)
        assert "accesses/s" in text
        assert "access" in text and "eviction" in text

    def test_load_profile_rejects_non_profile(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(SimulationError):
            load_profile(str(path))


class TestCLI:
    def test_replay_writes_profile_and_collapsed(self, tmp_path, capsys):
        out = tmp_path / "prof.json"
        folded = tmp_path / "prof.folded"
        rc = main(
            [
                "hotspot",
                "--runtime",
                "reuse",
                "--scale",
                "256",
                "--exact",
                "--json-out",
                str(out),
                "--collapsed-out",
                str(folded),
                "--min-coverage",
                "0.8",
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "exact"
        assert doc["coverage"] > 0.8
        assert folded.read_text().strip()
        assert "phase profile" in capsys.readouterr().out

    def test_min_coverage_failure_exits_nonzero(self, tmp_path, capsys):
        rc = main(["hotspot", "--scale", "256", "--min-coverage", "1.0"])
        captured = capsys.readouterr()
        if rc == 0:  # a fully-attributed run can legitimately pass
            assert "attributed" in captured.out
        else:
            assert "below required" in captured.err

    def test_compare_mode(self, tmp_path, capsys):
        docs = []
        for seed in (0, 1):
            out = tmp_path / f"p{seed}.json"
            assert (
                main(
                    [
                        "hotspot",
                        "--scale",
                        "256",
                        "--exact",
                        "--seed",
                        str(seed),
                        "--json-out",
                        str(out),
                    ]
                )
                == 0
            )
            docs.append(out)
        capsys.readouterr()
        rc = main(["--compare", str(docs[0]), str(docs[1])])
        assert rc == 0
        assert "profile diff" in capsys.readouterr().out

    def test_workload_required_without_compare(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_runtime_rejected(self):
        with pytest.raises(SystemExit):
            main(["hotspot", "--runtime", "nope"])
