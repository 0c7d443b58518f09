"""Serving-plane bookkeeping: stream cycling and the quota switch.

- The open-loop server generates each tenant's stream once and cycles
  it; the warps it serves must be exactly what re-iterating the
  tenant's :class:`TenantStream` yields, across several wraps and for a
  request longer than the stream.
- :attr:`TierQuotas.enabled` is a plain attribute read on every
  access; it must still follow :attr:`QuotaConfig.enabled`.
"""

import pytest

from repro.core.config import GMTConfig
from repro.errors import ConfigError
from repro.serve import OpenLoopConfig, OpenLoopServer, TenantSpec, TenantStream
from repro.serve.quota import QUOTA_MODES, QuotaConfig, TierQuotas
from repro.workloads.synthetic import KeyValueWorkload


def stream(index, lookups):
    return TenantStream(
        index,
        TenantSpec(name=f"t{index}", workload="keyvalue"),
        KeyValueWorkload(6, lookups=lookups, seed=index + 7),
    )


class TestStreamCycling:
    def serve_logged(self, streams, **loop_kwargs):
        server = OpenLoopServer(
            GMTConfig(tier1_frames=8, tier2_frames=16),
            streams,
            OpenLoopConfig(arrival_rate_per_s=1e6, seed=3, **loop_kwargs),
        )
        runtime = server.runtime
        served = {s.index: [] for s in streams}
        access_warp = runtime.access_warp

        def logged(warp):
            served[runtime.current_tenant].append(warp)
            access_warp(warp)

        runtime.access_warp = logged
        result = server.run()
        return served, result

    def test_cycle_matches_reiterating_the_stream(self):
        # Requests of 11 warps over streams of 5 and 4 warps: every
        # request is longer than its stream, and each served tenant
        # wraps its stream at least three times.
        streams = [stream(0, lookups=5), stream(1, lookups=4)]
        served, result = self.serve_logged(
            streams, requests=12, request_warps=11, epoch=3
        )
        assert result.completed == result.admitted
        for s in streams:
            warps = served[s.index]
            assert len(warps) >= 3 * len(list(s)) + 1
            expected = []
            while len(expected) < len(warps):
                expected.extend(iter(s))  # a fresh generation per wrap
            assert warps == expected[: len(warps)]

    def test_empty_stream_is_a_config_error(self):
        class Empty(TenantStream):
            def __iter__(self):
                return iter(())

        empty = Empty(0, TenantSpec(name="t0", workload="keyvalue"),
                      KeyValueWorkload(6, lookups=1))
        with pytest.raises(ConfigError, match="empty stream"):
            self.serve_logged([empty], requests=1)


class TestQuotaEnabled:
    @pytest.mark.parametrize("mode", QUOTA_MODES)
    def test_enabled_tracks_the_config(self, mode):
        config = QuotaConfig(mode=mode)
        quotas = TierQuotas(config, 64, 128, weights=[1.0, 2.0])
        assert quotas.enabled is config.enabled
        assert quotas.enabled == (mode != "none")

