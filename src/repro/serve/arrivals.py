"""Open-loop arrival processes on the simulated-nanosecond clock.

Closed-loop serving (the historical ``gmt-serve`` mode) replays each
tenant's stream as fast as the machine drains it — throughput is an
*output*.  Open-loop serving inverts that: requests arrive on their own
clock whether or not the machine keeps up, which is what exposes
capacity cliffs (queues grow without bound past saturation) and makes
"tenants per GPU at a p99 target" a measurable number.

Two processes, both seeded and deterministic (``random.Random``, no
global state):

- :class:`PoissonArrivals` — memoryless arrivals at a constant mean
  rate; the standard open-loop load model.
- :class:`BurstyArrivals` — a two-state Markov-modulated Poisson process
  (MMPP): a *calm* state at the base rate and a *burst* state at
  ``burst_factor`` times the base rate, with exponentially distributed
  dwell times.  The long-run rate is the time-weighted mean of the two
  states' rates, ``rate * (1 + burst_fraction * (burst_factor - 1))``,
  and the bursts stress admission control the way real serving traffic
  does.

Timestamps are integer nanoseconds on the same simulated axis the cost
models use, so arrival gaps compose with modelled service times without
unit juggling.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.errors import ConfigError
from repro.units import SEC

#: Process names accepted by :func:`make_arrival_process` and the CLI.
ARRIVAL_PROCESS_NAMES = ("poisson", "bursty")


class ArrivalProcess:
    """Base: a seeded generator of non-decreasing integer-ns timestamps."""

    name = "abstract"

    def __init__(self, rate_per_s: float, seed: int = 0) -> None:
        if rate_per_s <= 0:
            raise ConfigError(f"arrival rate must be positive, got {rate_per_s}")
        self.rate_per_s = rate_per_s
        self.seed = seed

    def _gaps(self, rng: random.Random) -> Iterator[float]:
        raise NotImplementedError

    def times(self, count: int) -> list[int]:
        """The first ``count`` arrival timestamps (ns), non-decreasing.

        A fresh seeded generator every call: the same process object
        always yields the same schedule (determinism is what makes
        capacity tables reproducible and cacheable).
        """
        if count < 0:
            raise ConfigError(f"arrival count must be >= 0, got {count}")
        rng = random.Random(self.seed)
        gaps = self._gaps(rng)
        out: list[int] = []
        now = 0.0
        for _ in range(count):
            now += next(gaps)
            out.append(int(now))
        return out


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: exponential inter-arrival gaps at a fixed rate."""

    name = "poisson"

    def _gaps(self, rng: random.Random) -> Iterator[float]:
        mean_gap_ns = SEC / self.rate_per_s
        while True:
            yield rng.expovariate(1.0) * mean_gap_ns


class BurstyArrivals(ArrivalProcess):
    """Two-state MMPP: calm at the base rate, bursts at a multiple of it.

    Args:
        rate_per_s: the calm-state arrival rate.
        seed: RNG seed (deterministic schedule per seed).
        burst_factor: rate multiplier while bursting (> 1).
        burst_fraction: long-run fraction of time spent bursting, in
            (0, 1); with ``mean_dwell_s`` it fixes both states' mean
            exponential dwell times.
        mean_dwell_s: mean *burst* dwell time in seconds; the calm dwell
            is derived so the long-run burst fraction comes out right.
    """

    name = "bursty"

    def __init__(
        self,
        rate_per_s: float,
        seed: int = 0,
        burst_factor: float = 8.0,
        burst_fraction: float = 0.1,
        mean_dwell_s: float = 0.05,
    ) -> None:
        super().__init__(rate_per_s, seed)
        if burst_factor <= 1.0:
            raise ConfigError(f"burst_factor must be > 1, got {burst_factor}")
        if not 0.0 < burst_fraction < 1.0:
            raise ConfigError(
                f"burst_fraction must be in (0, 1), got {burst_fraction}"
            )
        if mean_dwell_s <= 0:
            raise ConfigError(f"mean_dwell_s must be positive, got {mean_dwell_s}")
        self.burst_factor = burst_factor
        self.burst_fraction = burst_fraction
        self.mean_dwell_s = mean_dwell_s

    def _gaps(self, rng: random.Random) -> Iterator[float]:
        burst_dwell_ns = self.mean_dwell_s * SEC
        calm_dwell_ns = burst_dwell_ns * (1.0 - self.burst_fraction) / self.burst_fraction
        calm_gap_ns = SEC / self.rate_per_s
        burst_gap_ns = calm_gap_ns / self.burst_factor
        bursting = False
        state_left_ns = rng.expovariate(1.0) * calm_dwell_ns
        while True:
            gap = rng.expovariate(1.0) * (burst_gap_ns if bursting else calm_gap_ns)
            # Consume dwell time; cross as many state boundaries as the
            # gap spans (a long calm gap can straddle a whole burst).  The
            # dwell a crossing uses up is real time and stays in the gap.
            crossed = 0.0
            while gap >= state_left_ns:
                gap -= state_left_ns
                crossed += state_left_ns
                bursting = not bursting
                mean_dwell = burst_dwell_ns if bursting else calm_dwell_ns
                state_left_ns = rng.expovariate(1.0) * mean_dwell
                # Remaining gap rescales to the new state's rate.
                gap *= burst_gap_ns / calm_gap_ns if bursting else calm_gap_ns / burst_gap_ns
            state_left_ns -= gap
            yield crossed + gap


def make_arrival_process(
    name: str, rate_per_s: float, seed: int = 0, **kwargs
) -> ArrivalProcess:
    """Instantiate an arrival process by registry name."""
    if name == "poisson":
        return PoissonArrivals(rate_per_s, seed=seed, **kwargs)
    if name == "bursty":
        return BurstyArrivals(rate_per_s, seed=seed, **kwargs)
    raise ConfigError(
        f"unknown arrival process {name!r}; "
        f"expected one of {ARRIVAL_PROCESS_NAMES}"
    )
