"""The benchmark's three workloads.

Each case splits one pass into *set-up* (config, workload build, trace
materialization, runtime or population construction) and the *timed
region* (the replay or the serve loop), and reports the simulated
outputs the correctness gate compares across passes.

- ``replay-hit``: ``keyvalue`` at oversubscription 0.15 under GMT-Reuse
  with windowed telemetry attached.  The working set fits in Tier-1, so
  the vector engine's bulk-hit path and the batch observer chain do the
  work; trace materialization dominates set-up.
- ``replay-miss``: ``hotspot`` at the paper's 2x oversubscription under
  GMT-Reuse, no telemetry.  Tier-1 thrashes, so the reuse policy,
  eviction, victim selection and the device model do the work and the
  vector engine sits in its scalar-burst fallback.
- ``serve-openloop-1k``: the ``capacity`` experiment's knee, 1,024 zipf
  tenants of ``keyvalue`` under Poisson arrivals with a backlog cap.  The
  serve loop, per-tenant stats mirroring, per-tenant trace generation
  and the clock read do the work on the scalar engine.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.check.identities import assert_conformant
from repro.core.config import PAPER_OVERSUBSCRIPTION
from repro.core.vector import materialize_trace
from repro.experiments.harness import build_runtime, default_config
from repro.obs import Telemetry
from repro.serve import OpenLoopConfig, OpenLoopServer, TenantPopulation
from repro.workloads.registry import make_workload

from layers import layer_metrics, wrap_runtime, wrap_server


def fingerprint(outputs: dict) -> str:
    """Digest of a pass's simulated outputs (exact float reprs)."""
    text = json.dumps(outputs, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _stats_outputs(stats) -> dict:
    outputs = dict(stats.as_dict())
    outputs["confusion"] = sorted(f"{p}->{a}:{n}" for (p, a), n in stats.confusion.items())
    return outputs


@dataclass
class Prepared:
    """What set-up produced for one seed, shared by that set-up's passes."""

    config: object
    seed: int
    workload: object = None
    population: object = None
    warps: int = 0
    trace_gen_s: float = 0.0


@dataclass
class Outcome:
    """One finished pass: what it simulated and what the gate reads."""

    engine: tuple[str, str]
    accesses: int
    outputs: dict
    summary: dict = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        return fingerprint(self.outputs)


class ReplayCase:
    """Replay one materialized workload through GMT-Reuse, engine ``auto``."""

    def __init__(
        self,
        name: str,
        app: str,
        scale: int,
        oversubscription: float,
        telemetry: bool,
        replays_per_setup: int,
        workload_kwargs: dict | None = None,
    ) -> None:
        self.name = name
        self.app = app
        self.scale = scale
        self.oversubscription = oversubscription
        self.telemetry = telemetry
        self.replays_per_setup = replays_per_setup
        self.workload_kwargs = workload_kwargs or {}

    def prepare(self, seed: int, rec=None) -> Prepared:
        config = default_config(self.scale)
        workload = make_workload(
            self.app, config, self.oversubscription, seed=seed, **self.workload_kwargs
        )
        if rec is None:
            trace = materialize_trace(workload)
            return Prepared(config, seed, workload=workload, warps=trace.n_warps)
        span = rec.open("workloads.trace_gen")
        trace = materialize_trace(workload)
        rec.close(span)
        return Prepared(
            config,
            seed,
            workload=workload,
            warps=trace.n_warps,
            trace_gen_s=rec.ends[span] - rec.starts[span],
        )

    def build(self, prepared: Prepared):
        runtime = build_runtime("reuse", prepared.config, engine="auto")
        if self.telemetry:
            runtime.attach_telemetry(Telemetry())
        return runtime

    def execute(self, runtime, prepared: Prepared):
        # The workload's flat trace is cached by set-up, so the vector
        # engine replays it without regenerating the stream.
        return runtime.run(prepared.workload)

    def finish(self, runtime, result) -> Outcome:
        assert_conformant(runtime)
        stats = result.stats
        outputs = _stats_outputs(stats)
        outputs["elapsed_ns"] = result.elapsed_ns
        outputs["ssd_io_bytes"] = result.ssd_io_bytes
        windows = len(runtime._obs.windows()) if runtime._obs is not None else 0
        outputs["windows"] = windows
        return Outcome(
            engine=runtime.engine_resolution(),
            accesses=stats.coalesced_accesses,
            outputs=outputs,
            summary={
                "elapsed_ms": result.elapsed_ns / 1e6,
                "t1_hits": stats.t1_hits,
                "t1_misses": stats.t1_misses,
                "ssd_reads": stats.ssd_page_reads,
                "ssd_writes": stats.ssd_page_writes,
                "windows": windows,
            },
        )

    def trace(self, rec, runtime) -> None:
        wrap_runtime(rec, runtime)

    def layers(self, rec, tracked, runtime, result, prepared, wall_s, untraced_wall_s):
        obs = runtime._obs
        return layer_metrics(
            rec,
            result.stats,
            warps=prepared.warps,
            elapsed_ns=result.elapsed_ns,
            windows=len(obs.windows()) if obs is not None else 0,
            wall_s=wall_s,
            untraced_wall_s=untraced_wall_s,
            setup_trace_gen_s=prepared.trace_gen_s,
        )

    def character(self, outcome: Outcome, layers: dict | None) -> list[str]:
        """Why this pass no longer loads the layer the workload is for."""
        raise NotImplementedError


class ReplayHitCase(ReplayCase):
    #: Lower limit on the share of accesses retired in vector batches.
    MIN_BATCHED_SHARE = 0.95

    def character(self, outcome, layers):
        problems = []
        if outcome.engine[0] != "vector":
            problems.append(f"engine resolved to {outcome.engine[0]} ({outcome.engine[1]})")
        if layers is not None and layers["core.batched_share"] < self.MIN_BATCHED_SHARE:
            problems.append(
                f"core.batched_share {layers['core.batched_share']:.4f} "
                f"< {self.MIN_BATCHED_SHARE}"
            )
        return problems


class ReplayMissCase(ReplayCase):
    #: Upper limit on the Tier-1 hit rate of a thrashing replay.
    MAX_T1_HIT_RATE = 0.01

    def character(self, outcome, layers):
        rate = outcome.outputs["t1_hit_rate"]
        if rate > self.MAX_T1_HIT_RATE:
            return [f"mem.t1_hit_rate {rate:.4f} > {self.MAX_T1_HIT_RATE}"]
        return []


class ServeCase:
    """One open-loop run of a zipf tenant fleet over a shared hierarchy."""

    replays_per_setup = 1

    def __init__(
        self,
        name: str,
        scale: int,
        tenants: int,
        requests: int,
        arrival_rate_per_s: float,
        max_backlog: int,
    ) -> None:
        self.name = name
        self.scale = scale
        self.tenants = tenants
        self.requests = requests
        self.arrival_rate_per_s = arrival_rate_per_s
        self.max_backlog = max_backlog

    def prepare(self, seed: int, rec=None) -> Prepared:
        config = default_config(self.scale)
        population = TenantPopulation(self.tenants, seed=seed)
        return Prepared(config, seed, population=population)

    def build(self, prepared: Prepared):
        loop = OpenLoopConfig(
            requests=self.requests,
            arrival_rate_per_s=self.arrival_rate_per_s,
            seed=prepared.seed,
            max_backlog=self.max_backlog,
        )
        return OpenLoopServer(prepared.config, prepared.population, loop)

    def execute(self, server, prepared: Prepared):
        return server.run()

    def finish(self, server, result) -> Outcome:
        runtime = server.runtime
        assert_conformant(runtime)
        stats = runtime.stats
        outputs = _stats_outputs(stats)
        outputs.update(
            arrived=result.arrived,
            admitted=result.admitted,
            shed=result.shed,
            completed=result.completed,
            makespan_ns=result.makespan_ns,
            p50_ns=result.p50_ns,
            p99_ns=result.p99_ns,
            pressure_windows=result.pressure_windows,
            pressure_findings=result.pressure_findings,
            tenant_completed=fingerprint(result.tenant_completed),
            tenant_shed=fingerprint(result.tenant_shed),
        )
        return Outcome(
            engine=server.engine_resolution(),
            accesses=stats.coalesced_accesses,
            outputs=outputs,
            summary={
                "makespan_ms": result.makespan_ns / 1e6,
                "req_p99_sim_ms": (result.p99_ns or 0.0) / 1e6,
                "admitted": result.admitted,
                "shed": result.shed,
                "shed_rate": result.shed_rate,
                "t1_hits": stats.t1_hits,
                "t1_misses": stats.t1_misses,
            },
        )

    def trace(self, rec, server):
        return wrap_server(rec, server)

    def layers(self, rec, tracked, server, result, prepared, wall_s, untraced_wall_s):
        return layer_metrics(
            rec,
            server.runtime.stats,
            warps=rec.counts()["workloads.trace_gen"],
            elapsed_ns=result.makespan_ns,
            windows=result.pressure_windows,
            wall_s=wall_s,
            untraced_wall_s=untraced_wall_s,
            tracker=tracked,
            shed_rate=result.shed_rate,
            req_p99_ns=result.p99_ns,
        )

    def character(self, outcome, layers):
        problems = []
        if not outcome.outputs["admitted"]:
            problems.append("no request admitted")
        if not outcome.outputs["shed"]:
            problems.append("no request shed")
        return problems


#: The gmt-bench geometry (scale 4096) except ``replay-miss``, which runs
#: at scale 1024 so one pass takes about a second.
CASES = {
    "replay-hit": ReplayHitCase(
        "replay-hit", "keyvalue", scale=4096, oversubscription=0.15,
        telemetry=True, replays_per_setup=40,
        workload_kwargs={"lookups": 600_000},
    ),
    "replay-miss": ReplayMissCase(
        "replay-miss", "hotspot", scale=1024,
        oversubscription=PAPER_OVERSUBSCRIPTION,
        telemetry=False, replays_per_setup=1,
    ),
    "serve-openloop-1k": ServeCase(
        "serve-openloop-1k", scale=4096, tenants=1024, requests=4096,
        arrival_rate_per_s=65536.0, max_backlog=256,
    ),
}
