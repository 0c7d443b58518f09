"""Unit tests for the open-loop arrival processes (repro.serve.arrivals)."""

import pytest

from repro.errors import ConfigError
from repro.serve.arrivals import (
    ARRIVAL_PROCESS_NAMES,
    BurstyArrivals,
    PoissonArrivals,
    make_arrival_process,
)

SECOND_NS = 1_000_000_000


class TestPoisson:
    def test_same_seed_same_times(self):
        a = PoissonArrivals(2000.0, seed=7).times(500)
        b = PoissonArrivals(2000.0, seed=7).times(500)
        assert a == b

    def test_times_reentrant(self):
        """times() restarts its RNG: two calls on one instance agree."""
        proc = PoissonArrivals(2000.0, seed=3)
        assert proc.times(200) == proc.times(200)

    def test_prefix_stability(self):
        """The first k arrivals do not depend on how many are asked for."""
        proc = PoissonArrivals(1000.0, seed=5)
        assert proc.times(300)[:100] == proc.times(100)

    def test_different_seeds_differ(self):
        assert PoissonArrivals(2000.0, seed=0).times(100) != (
            PoissonArrivals(2000.0, seed=1).times(100)
        )

    def test_sorted_and_nonnegative(self):
        times = PoissonArrivals(5000.0, seed=2).times(1000)
        assert times == sorted(times)
        assert all(t >= 0 for t in times)

    def test_mean_rate_roughly_honoured(self):
        rate = 4000.0
        times = PoissonArrivals(rate, seed=11).times(4000)
        span_s = times[-1] / SECOND_NS
        observed = len(times) / span_s
        assert observed == pytest.approx(rate, rel=0.1)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigError):
            PoissonArrivals(0.0)
        with pytest.raises(ConfigError):
            PoissonArrivals(-5.0)


class TestBursty:
    def test_same_seed_same_times(self):
        a = BurstyArrivals(2000.0, seed=9).times(500)
        b = BurstyArrivals(2000.0, seed=9).times(500)
        assert a == b

    def test_sorted_and_nonnegative(self):
        times = BurstyArrivals(2000.0, seed=4).times(1000)
        assert times == sorted(times)
        assert all(t >= 0 for t in times)

    def test_burstier_than_poisson(self):
        """The MMPP's squared coefficient of variation of inter-arrival
        gaps exceeds the Poisson process's (which is ~1)."""

        def scv(times):
            gaps = [b - a for a, b in zip(times, times[1:])]
            mean = sum(gaps) / len(gaps)
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            return var / (mean * mean)

        poisson = PoissonArrivals(2000.0, seed=6).times(3000)
        bursty = BurstyArrivals(2000.0, seed=6, burst_factor=16.0).times(3000)
        assert scv(bursty) > scv(poisson)


    @pytest.mark.parametrize(
        "mean_dwell_s, count",
        [
            (20e-6, 10_000),  # dwell << gap: every gap crosses many states
            (0.05, 100_000),  # dwell >> gap: many arrivals per state
        ],
    )
    def test_long_run_rate_is_the_dwell_weighted_mean(self, mean_dwell_s, count):
        """Time spent in a state a gap crosses stays in the timestamps:
        the long-run rate is the time-weighted mean of the two rates."""
        base, factor, fraction = 1000.0, 2.0, 0.5
        times = BurstyArrivals(
            base,
            seed=5,
            burst_factor=factor,
            burst_fraction=fraction,
            mean_dwell_s=mean_dwell_s,
        ).times(count)
        rate = count / (times[-1] / 1e9)
        expected = base * (1.0 - fraction) + base * factor * fraction
        assert rate == pytest.approx(expected, rel=0.05)


class TestFactory:
    def test_registry_names(self):
        assert set(ARRIVAL_PROCESS_NAMES) == {"poisson", "bursty"}
        for name in ARRIVAL_PROCESS_NAMES:
            proc = make_arrival_process(name, 1000.0, seed=1)
            assert proc.times(10) == proc.times(10)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            make_arrival_process("uniform", 1000.0)
