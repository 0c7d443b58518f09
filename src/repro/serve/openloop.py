"""Open-loop service simulation: arrivals, admission control, epoch drain.

:class:`OpenLoopServer` is the service-shaped counterpart of
:class:`~repro.serve.server.TenantServer`.  Instead of replaying each
tenant's whole stream as fast as the machine drains it (closed loop),
requests *arrive* on the simulated clock — generated by a seeded
:mod:`~repro.serve.arrivals` process and routed to tenants by their
popularity — and the machine either keeps up or falls behind.  That
inversion is what produces capacity numbers: past saturation the backlog
grows without bound and request latency (completion − arrival) explodes,
so "tenants per GPU under a p99 SLO" becomes measurable.

The pieces:

- **arrivals** — one global arrival process; each arrival is routed to a
  tenant drawn from the population's zipf popularity weights (seeded,
  deterministic).  A request is a fixed number of warps pulled from the
  tenant's cycling workload stream, so footprint shapes locality while
  request size stays uniform.  Each tenant's stream is generated once,
  on its first request, and cycled from then on.
- **admission control** — a TierBPF-flavoured load shedder.  Every
  ``pressure_window`` coalesced accesses the server synthesises a
  counter-delta window and feeds the stream to the
  :class:`~repro.obs.anomaly.AnomalyDetector` (the PR-4 rules: thrash,
  bypass storm, latency spike).  A new finding opens a shed window for
  ``shed_cooldown_ns``; arrivals during it — and arrivals beyond the
  ``max_backlog`` queue cap — are rejected.  ``requests_shed`` /
  ``requests_admitted`` land in :class:`~repro.core.stats.RuntimeStats`
  (charged to the owning tenant's slice), surface as obs gauges, and
  are held to the ``admission-conservation`` identity:
  ``requests_arrived == requests_admitted + requests_shed``.
- **epoch-batched drain** — scheduling decisions pick the backlogged
  tenant with the smallest issued-bytes virtual time (the same
  monotonic-clock weighted-fair arithmetic as the closed-loop
  scheduler) and serve up to ``epoch`` warps before deciding again, so
  10k-tenant runs pay the decision cost per batch, not per warp.
- **clock** — simulated time is the runtime's modelled elapsed time plus
  the accumulated idle skew (when every queue is empty the clock jumps
  to the next arrival instead of spinning).
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field

from repro.analysis.report import render_table
from repro.core.config import GMTConfig
from repro.core.runtime import RunResult
from repro.errors import ConfigError
from repro.obs.anomaly import AnomalyDetector
from repro.obs.digest import LatencyDigest
from repro.serve.arrivals import ARRIVAL_PROCESS_NAMES, make_arrival_process
from repro.serve.quota import QuotaConfig
from repro.serve.runtime import TenantAwareRuntime
from repro.serve.scheduler import warp_bytes
from repro.serve.stream import TenantPopulation, TenantStream
from repro.units import format_time

#: Counter deltas the synthesized pressure windows carry (the subset the
#: anomaly rules read; latency needs telemetry and stays zero without it).
_WINDOW_COUNTERS = ("t1_evictions", "t2_placements")


@dataclass(frozen=True)
class OpenLoopConfig:
    """Knobs of one open-loop run.

    Attributes:
        requests: total arrivals the process generates.
        arrival_process: :data:`~repro.serve.arrivals.ARRIVAL_PROCESS_NAMES`.
        arrival_rate_per_s: mean arrival rate (requests per simulated
            second).
        request_warps: warps served per request (uniform request size).
        epoch: warps per scheduling decision (batched drain).
        seed: seeds the arrival process and tenant routing.
        max_backlog: admission cap on total queued requests (None = no
            cap).
        shed_cooldown_ns: how long admission keeps shedding after a
            pressure anomaly fires.
        pressure_window: coalesced accesses per synthesized detector
            window.
    """

    requests: int = 1024
    arrival_process: str = "poisson"
    arrival_rate_per_s: float = 2000.0
    request_warps: int = 8
    epoch: int = 8
    seed: int = 0
    max_backlog: int | None = None
    shed_cooldown_ns: float = 2_000_000.0
    pressure_window: int = 2048

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ConfigError(f"requests must be >= 1, got {self.requests}")
        if self.arrival_process not in ARRIVAL_PROCESS_NAMES:
            raise ConfigError(
                f"unknown arrival process {self.arrival_process!r}; "
                f"expected one of {ARRIVAL_PROCESS_NAMES}"
            )
        if self.arrival_rate_per_s <= 0:
            raise ConfigError(
                f"arrival_rate_per_s must be positive, got {self.arrival_rate_per_s}"
            )
        if self.request_warps < 1:
            raise ConfigError(f"request_warps must be >= 1, got {self.request_warps}")
        if self.epoch < 1:
            raise ConfigError(f"epoch must be >= 1, got {self.epoch}")
        if self.max_backlog is not None and self.max_backlog < 1:
            raise ConfigError(f"max_backlog must be >= 1, got {self.max_backlog}")
        if self.shed_cooldown_ns < 0:
            raise ConfigError("shed_cooldown_ns must be >= 0")
        if self.pressure_window < 1:
            raise ConfigError(f"pressure_window must be >= 1, got {self.pressure_window}")


class AdmissionController:
    """Pressure-triggered load shedding plus a backlog cap.

    The controller never looks at wall-clock state: its inputs are the
    runtime's own counters (sliced into windows) and the simulated
    clock, so decisions — and therefore the whole run — stay
    deterministic.
    """

    def __init__(
        self,
        loop: OpenLoopConfig,
        detector: AnomalyDetector | None = None,
    ) -> None:
        self.loop = loop
        self.detector = detector or AnomalyDetector()
        self.windows: list[dict] = []
        self.findings = 0
        self.shed_until_ns = 0.0
        self._last_position = 0
        self._last_counters: dict[str, int] = {}

    def observe(self, stats, now_ns: float) -> None:
        """Cut a pressure window if enough accesses elapsed; maybe shed."""
        position = stats.coalesced_accesses
        if position - self._last_position < self.loop.pressure_window:
            return
        window = {
            "window": len(self.windows),
            "position": position,
            "span": position - self._last_position,
            "gmt_virtual_time_ns": now_ns,
        }
        for name in _WINDOW_COUNTERS:
            value = getattr(stats, name)
            window[f"gmt_{name}"] = value - self._last_counters.get(name, 0)
            self._last_counters[name] = value
        self._last_position = position
        self.windows.append(window)
        anomalies = self.detector.scan(self.windows)
        if len(anomalies) > self.findings:
            self.findings = len(anomalies)
            self.shed_until_ns = now_ns + self.loop.shed_cooldown_ns

    def admit(self, now_ns: float, backlog: int) -> bool:
        """Admission decision for one arrival at ``now_ns``."""
        if now_ns < self.shed_until_ns:
            return False
        cap = self.loop.max_backlog
        if cap is not None and backlog >= cap:
            return False
        return True


@dataclass
class _Request:
    tenant: int
    arrival_ns: float
    remaining: int


@dataclass
class OpenLoopResult:
    """Outcome of one open-loop run."""

    loop: OpenLoopConfig
    result: RunResult
    tenants: int
    arrived: int
    admitted: int
    shed: int
    completed: int
    #: Makespan: simulated time when the last admitted request drained.
    makespan_ns: float
    #: Global request-latency digest (completion − arrival, admitted
    #: requests only) plus one digest per tenant.
    latency: LatencyDigest = field(default_factory=LatencyDigest)
    tenant_latency: list[LatencyDigest] = field(default_factory=list)
    tenant_names: list[str] = field(default_factory=list)
    tenant_completed: list[int] = field(default_factory=list)
    tenant_shed: list[int] = field(default_factory=list)
    #: Fleet-wide SLO targets the population was built with (None = none).
    slo_p50_ns: float | None = None
    slo_p99_ns: float | None = None
    pressure_windows: int = 0
    pressure_findings: int = 0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.arrived if self.arrived else 0.0

    @property
    def p50_ns(self) -> float | None:
        return self.latency.p50 if self.latency.count else None

    @property
    def p99_ns(self) -> float | None:
        return self.latency.p99 if self.latency.count else None

    def slo_violating_tenants(self) -> int:
        """Tenants whose measured request p99 exceeds the fleet SLO."""
        if self.slo_p99_ns is None:
            return 0
        return sum(
            1
            for digest in self.tenant_latency
            if digest.count and digest.p99 > self.slo_p99_ns
        )

    def to_table(self, top: int = 8) -> str:
        """Fleet summary plus the ``top`` busiest tenants."""
        headers = ["tenant", "completed", "shed", "req p50", "req p99"]
        busiest = sorted(
            range(self.tenants),
            key=lambda i: (-self.tenant_completed[i], i),
        )[:top]
        rows: list[list[object]] = []
        for i in busiest:
            digest = self.tenant_latency[i]
            rows.append(
                [
                    self.tenant_names[i],
                    self.tenant_completed[i],
                    self.tenant_shed[i],
                    format_time(digest.p50) if digest.count else "-",
                    format_time(digest.p99) if digest.count else "-",
                ]
            )
        title = (
            f"open-loop serve: {self.tenants} tenants, "
            f"{self.arrived} arrivals ({self.loop.arrival_process} @ "
            f"{self.loop.arrival_rate_per_s:g}/s), epoch {self.loop.epoch}"
        )
        text = render_table(headers, rows, title=title)
        p50 = "-" if self.p50_ns is None else format_time(self.p50_ns)
        p99 = "-" if self.p99_ns is None else format_time(self.p99_ns)
        text += (
            f"\n  admitted {self.admitted} / shed {self.shed} "
            f"(shed rate {self.shed_rate:.1%}), completed {self.completed}"
            f"\n  request latency p50 {p50} / p99 {p99}, "
            f"makespan {format_time(self.makespan_ns)}"
            f"\n  pressure: {self.pressure_windows} windows, "
            f"{self.pressure_findings} anomaly finding(s)"
        )
        if self.slo_p99_ns is not None:
            text += (
                f"\n  SLO p99 {format_time(self.slo_p99_ns)}: "
                f"{self.slo_violating_tenants()}/{self.tenants} tenants violating"
            )
        return text


class OpenLoopServer:
    """Serve an open-loop request stream over one shared hierarchy.

    Args:
        config: the shared hierarchy's geometry/policy/platform.
        population: the tenant fleet (:class:`TenantPopulation`), or a
            prebuilt list of :class:`TenantStream` (then
            ``arrival_weights`` defaults to the streams' scheduling
            weights).
        loop: the open-loop knobs (:class:`OpenLoopConfig`).
        quota: per-tenant tier budgets forwarded to the runtime.
        detector: pressure detector override (thresholds from PR 4's
            anomaly rules by default).
    """

    def __init__(
        self,
        config: GMTConfig,
        population: TenantPopulation | list[TenantStream],
        loop: OpenLoopConfig | None = None,
        quota: QuotaConfig | None = None,
        detector: AnomalyDetector | None = None,
    ) -> None:
        self.config = config
        self.loop = loop or OpenLoopConfig()
        if isinstance(population, TenantPopulation):
            self.population = population
            self.streams = population.build()
            self._arrival_weights = population.arrival_weights()
        else:
            if not population:
                raise ConfigError("OpenLoopServer needs at least one tenant stream")
            self.population = None
            self.streams = list(population)
            self._arrival_weights = [s.weight for s in self.streams]
        indices = [s.index for s in self.streams]
        if indices != list(range(len(self.streams))):
            raise ConfigError("tenant stream indices must be 0..N-1 in order")
        self.quota = quota or QuotaConfig()
        self.runtime = TenantAwareRuntime(
            config,
            tenant_names=[s.name for s in self.streams],
            quota=self.quota,
            weights=[s.weight for s in self.streams],
        )
        self.admission = AdmissionController(self.loop, detector)

    def attach_telemetry(self, telemetry=None):
        """Attach tenant-labelling telemetry to the shared runtime."""
        return self.runtime.attach_telemetry(telemetry)

    def engine_resolution(self) -> tuple[str, str]:
        """Always scalar, like the closed-loop shared runtime."""
        return (
            "scalar",
            "shared multi-tenant hierarchy switches tenant context per access",
        )

    # -- the serving loop ------------------------------------------------
    def _arrival_schedule(self) -> list[tuple[int, int]]:
        """The full ``(arrival_ns, tenant)`` schedule, seeded."""
        process = make_arrival_process(
            self.loop.arrival_process,
            self.loop.arrival_rate_per_s,
            seed=self.loop.seed,
        )
        times = process.times(self.loop.requests)
        rng = random.Random(self.loop.seed + 1)
        tenants = rng.choices(
            range(len(self.streams)), weights=self._arrival_weights, k=len(times)
        )
        return list(zip(times, tenants))

    def _elapsed_now(self) -> float:
        runtime = self.runtime
        if runtime._queueing is not None:
            return runtime._queueing.makespan_ns
        return runtime.cost.breakdown(
            pcie_busy_ns=runtime.pcie.busy_time_ns(),
            ssd_busy_ns=runtime.ssd.busy_time_ns(),
        ).elapsed_ns

    def run(self) -> OpenLoopResult:
        runtime = self.runtime
        loop = self.loop
        page_size = self.config.page_size
        arrivals = self._arrival_schedule()
        n = len(self.streams)
        weights = [s.weight for s in self.streams]

        #: Per-tenant warp cycles, each generated on the tenant's first
        #: request — requests sample the tenant's access pattern, they do
        #: not replay the whole dataset each time.  An entry pairs a warp
        #: with its weighted-fair virtual-time cost.
        cycles: list[list | None] = [None] * n
        cursors = [0] * n
        access_warp = runtime.access_warp

        queues: list[deque[_Request]] = [deque() for _ in range(n)]
        backlog = 0
        #: Weighted-fair pick among backlogged tenants: min-heap of
        #: (virtual_time, tenant); same monotonic-clock arithmetic as
        #: the closed-loop scheduler.
        heap: list[tuple[float, int]] = []
        queued = [False] * n
        vt = [0.0] * n
        clock = 0.0

        latency = LatencyDigest()
        tenant_latency = [LatencyDigest() for _ in range(n)]
        tenant_completed = [0] * n
        tenant_shed = [0] * n

        skew = 0.0  # idle time the modelled clock never sees
        now = 0.0
        next_arrival = 0
        completed = admitted = shed = 0
        makespan = 0.0

        def enqueue(tenant: int, request: _Request) -> None:
            nonlocal backlog
            queues[tenant].append(request)
            backlog += 1
            if not queued[tenant]:
                queued[tenant] = True
                seed = max(clock, heap[0][0]) if heap else clock
                vt[tenant] = max(vt[tenant], seed)
                heapq.heappush(heap, (vt[tenant], tenant))

        def ingest(until_ns: float) -> None:
            nonlocal next_arrival, admitted, shed
            while next_arrival < len(arrivals) and arrivals[next_arrival][0] <= until_ns:
                at, tenant = arrivals[next_arrival]
                next_arrival += 1
                runtime.begin_tenant(tenant)
                runtime.stats.requests_arrived += 1
                if self.admission.admit(float(at), backlog):
                    runtime.stats.requests_admitted += 1
                    admitted += 1
                    enqueue(tenant, _Request(tenant, float(at), loop.request_warps))
                else:
                    runtime.stats.requests_shed += 1
                    shed += 1
                    tenant_shed[tenant] += 1

        while next_arrival < len(arrivals) or backlog:
            ingest(now)
            if not backlog:
                if next_arrival >= len(arrivals):
                    break
                # Idle: jump the clock to the next arrival.
                jump = arrivals[next_arrival][0] - now
                if jump > 0:
                    skew += jump
                    now += jump
                continue
            popped_vt, tenant = heapq.heappop(heap)
            clock = max(clock, popped_vt)
            request = queues[tenant][0]
            runtime.begin_tenant(tenant)
            cycle = cycles[tenant]
            if cycle is None:
                weight = weights[tenant]
                cycle = cycles[tenant] = [
                    (warp, warp_bytes(warp, page_size) / weight)
                    for warp in self.streams[tenant]
                ]
                if not cycle:
                    raise ConfigError(
                        f"tenant {self.streams[tenant].name!r} has an empty stream"
                    )
            served = min(loop.epoch, request.remaining)
            request.remaining -= served
            position = cursors[tenant]
            tenant_vt = vt[tenant]
            for _ in range(served):
                warp, cost = cycle[position]
                position += 1
                if position == len(cycle):
                    position = 0
                access_warp(warp)
                tenant_vt += cost
            cursors[tenant] = position
            vt[tenant] = tenant_vt
            now = self._elapsed_now() + skew
            if not request.remaining:
                queues[tenant].popleft()
                backlog -= 1
                runtime.stats.requests_completed += 1
                completed += 1
                tenant_completed[tenant] += 1
                wait = max(0.0, now - request.arrival_ns)
                latency.observe(wait)
                tenant_latency[tenant].observe(wait)
                makespan = now
            if queues[tenant]:
                heapq.heappush(heap, (vt[tenant], tenant))
            else:
                queued[tenant] = False
            self.admission.observe(runtime.stats, now)

        runtime.begin_tenant(None)
        if runtime._obs is not None:
            runtime._obs.finish()
        result = runtime.result()
        slo_p50 = slo_p99 = None
        if self.population is not None:
            slo_p50 = self.population.slo_p50_ns
            slo_p99 = self.population.slo_p99_ns
        return OpenLoopResult(
            loop=loop,
            result=result,
            tenants=n,
            arrived=len(arrivals),
            admitted=admitted,
            shed=shed,
            completed=completed,
            makespan_ns=makespan,
            latency=latency,
            tenant_latency=tenant_latency,
            tenant_names=[s.name for s in self.streams],
            tenant_completed=tenant_completed,
            tenant_shed=tenant_shed,
            slo_p50_ns=slo_p50,
            slo_p99_ns=slo_p99,
            pressure_windows=len(self.admission.windows),
            pressure_findings=self.admission.findings,
        )
