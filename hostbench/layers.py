"""Tracing sites of each simulator layer and the per-layer metrics.

Every site is a method called on an object the benchmark can reach from
the runtime or server it built, so each layer is timed from outside by
wrapping the call on that object.  The list covers the phase boundaries
of ``repro.prof`` (dispatch, access, page table, reuse policy, victim
selection, eviction, write-back, prefetch, device model, telemetry) plus
the reuse internals (VTD clock, sampler, Markov predictor), the cost
model and the serving loop's boundaries.

Span names are ``<layer>.<part>``; a layer's metrics aggregate the self
time (span time minus child spans) of its span names.
"""

from __future__ import annotations

from collections import defaultdict, deque

#: ``(name, unit, better)`` of every metric a traced run reports.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("workloads.trace_gen_s", "s", "lower"),
    ("workloads.warps", "count", "lower"),
    ("core.run_self_s", "s", "lower"),
    ("core.dispatch_self_s", "s", "lower"),
    ("core.access_self_s", "s", "lower"),
    ("core.eviction_self_s", "s", "lower"),
    ("core.access_calls", "count", "lower"),
    ("core.batched_share", "ratio", "higher"),
    ("reuse.policy_self_s", "s", "lower"),
    ("reuse.vts_s", "s", "lower"),
    ("reuse.sampler_s", "s", "lower"),
    ("reuse.markov_s", "s", "lower"),
    ("reuse.calls", "count", "lower"),
    ("reuse.prediction_accuracy", "ratio", "higher"),
    ("reuse.fallback_share", "ratio", "lower"),
    ("mem.page_table_s", "s", "lower"),
    ("mem.victim_select_s", "s", "lower"),
    ("mem.victim_select_calls", "count", "lower"),
    ("mem.t1_hit_rate", "ratio", "higher"),
    ("mem.t2_hit_rate", "ratio", "higher"),
    ("sim.device_s", "s", "lower"),
    ("sim.cost_model_s", "s", "lower"),
    ("sim.ssd_ios_per_kacc", "ios/kacc", "lower"),
    ("sim.elapsed_ms", "ms", "lower"),
    ("obs.telemetry_s", "s", "lower"),
    ("obs.telemetry_calls", "count", "lower"),
    ("obs.windows", "count", "higher"),
    ("serve.loop_self_s", "s", "lower"),
    ("serve.clock_s", "s", "lower"),
    ("serve.admission_s", "s", "lower"),
    ("serve.tenant_switch_s", "s", "lower"),
    ("serve.stats_mirror_s", "s", "lower"),
    ("serve.decisions", "count", "lower"),
    ("serve.warps_per_decision", "warps", "higher"),
    ("serve.shed_rate", "ratio", "lower"),
    ("serve.req_p99_sim_ms", "ms", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

#: Layer of each span name's prefix, for the self-time summary.
LAYERS = ("workloads", "core", "reuse", "mem", "sim", "obs", "serve")


def wrap_runtime(rec, runtime, dispatch_enter=None) -> None:
    """Wrap the layer boundaries of one runtime (replay or shared serve)."""
    rec.wrap(runtime, "run", "core.run")
    rec.wrap(runtime, "access_warp", "core.dispatch", enter=dispatch_enter)
    rec.wrap(runtime, "access", "core.access")
    rec.wrap(runtime, "_prefetch_after", "core.prefetch")
    for attr in ("_ensure_tier1_frame", "_evict_from_tier2", "_writeback_if_dirty"):
        rec.wrap(runtime, attr, "core.eviction")

    rec.wrap(runtime.page_table, "lookup", "mem.page_table")
    for selector in (runtime.t1_clock, runtime._t2_order):
        rec.wrap(selector, "select_victim", "mem.victim_select")
        rec.wrap(selector, "select_victim_where", "mem.victim_select")

    rec.wrap(runtime.vts, "observe_access", "reuse.vts")
    rec.wrap(runtime.vts, "remaining_vtd_since", "reuse.vts")
    policy = runtime.policy
    for attr in ("on_access", "choose", "on_tier1_fill", "on_evicted"):
        rec.wrap(policy, attr, "reuse.policy")
    sampler = getattr(policy, "sampler", None)
    if sampler is not None:
        rec.wrap(sampler, "observe", "reuse.sampler")
        rec.wrap(sampler, "predict_rrd", "reuse.sampler")
    predictor = getattr(policy, "predictor", None)
    if predictor is not None:
        for attr in ("predict", "record_transition", "confidence"):
            rec.wrap(predictor, attr, "reuse.markov")

    rec.wrap(runtime.ssd, "record_read", "sim.device")
    rec.wrap(runtime.ssd, "record_write", "sim.device")
    rec.wrap(runtime.pcie, "record_h2d", "sim.device")
    rec.wrap(runtime.pcie, "record_d2h", "sim.device")
    if runtime.config.time_model == "queueing":
        queueing = runtime._queueing_model()
        for attr in ("on_hit", "on_hits", "on_miss", "on_background_io", "on_background_pcie"):
            rec.wrap(queueing, attr, "sim.device")
    rec.wrap(runtime.cost, "breakdown", "sim.cost_model")

    obs = runtime._obs
    if obs is not None:
        for attr in ("tick", "span", "instant", "on_miss"):
            rec.wrap(obs, attr, "obs.telemetry")

        def wrap_chain(args, chain):
            if chain is not None:
                rec.wrap(chain, "limit", "obs.telemetry")
                rec.wrap(chain, "on_hits", "obs.telemetry")

        rec.wrap(obs, "batch_observer", "obs.telemetry", leave=wrap_chain)
    if runtime._flight is not None:
        rec.wrap(runtime._flight, "emit", "obs.telemetry")


class _TracedStream:
    """A tenant stream whose every warp is generated inside a span."""

    def __init__(self, stream, rec) -> None:
        self._stream = stream
        self._rec = rec

    def __getattr__(self, attr):
        return getattr(self._stream, attr)

    def __iter__(self):
        rec = self._rec
        it = iter(self._stream)
        while True:
            i = rec.open("workloads.trace_gen")
            try:
                warp = next(it)
            except StopIteration:
                return
            finally:
                rec.close(i)
            yield warp


class RequestTracker:
    """Stamp serving spans with the id of the request they work for.

    A request's id is its arrival index.  Ingest spans (tenant switch,
    counter mirroring, admission) take the id of the arrival being
    admitted; service spans take the id of the tenant's oldest queued
    request, which is the one the server drains first.  A *decision* is
    a tenant switch followed by served warps.
    """

    def __init__(self, rec, runtime, request_warps: int) -> None:
        self.rec = rec
        self.runtime = runtime
        self.request_warps = request_warps
        self.queues: dict[int, deque] = defaultdict(deque)
        self.served: dict[int, int] = defaultdict(int)
        self.arrivals = 0
        self.decisions = 0
        self.warps = 0
        self._switched = False

    def on_switch(self, args) -> None:
        self.rec.defer_id()
        self._switched = True

    def on_admit(self, args) -> None:
        self.rec.set_id(self.arrivals)
        self.arrivals += 1

    def after_admit(self, args, admitted) -> None:
        if admitted:
            self.queues[self.runtime.current_tenant].append(self.rec.current_id)

    def on_dispatch(self, args) -> None:
        tenant = self.runtime.current_tenant
        if self._switched:
            self.decisions += 1
            self._switched = False
        self.warps += 1
        queue = self.queues[tenant]
        self.rec.set_id(queue[0] if queue else None)
        self.served[tenant] += 1
        if queue and self.served[tenant] == self.request_warps:
            queue.popleft()
            self.served[tenant] = 0


def wrap_server(rec, server) -> RequestTracker:
    """Wrap an open-loop server's loop boundaries and its shared runtime.

    ``SplitStats.__setattr__`` (the per-tenant counter mirroring) is a
    class attribute, so it is wrapped on the class and restored with
    everything else when the traced pass ends.
    """
    runtime = server.runtime
    tracker = RequestTracker(rec, runtime, server.loop.request_warps)
    rec.wrap(server, "run", "serve.loop")
    rec.wrap(server, "_elapsed_now", "serve.clock")
    rec.wrap(server.admission, "admit", "serve.admission",
             enter=tracker.on_admit, leave=tracker.after_admit)
    rec.wrap(server.admission, "observe", "serve.admission")
    rec.wrap(runtime, "begin_tenant", "serve.tenant_switch", enter=tracker.on_switch)
    stats_cls = type(runtime.stats)
    if "__setattr__" in vars(stats_cls):
        rec.wrap(stats_cls, "__setattr__", "serve.stats_mirror")
    rec.substitute(server, "streams", [_TracedStream(s, rec) for s in server.streams])
    wrap_runtime(rec, runtime, dispatch_enter=tracker.on_dispatch)
    return tracker


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    rec,
    stats,
    *,
    warps: int,
    elapsed_ns: float,
    windows: int,
    wall_s: float,
    untraced_wall_s: float,
    setup_trace_gen_s: float = 0.0,
    tracker: RequestTracker | None = None,
    shed_rate: float = 0.0,
    req_p99_ns: float | None = None,
) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``rec`` holds its spans)."""
    self_s = defaultdict(float, rec.self_times())
    calls = rec.counts()
    accesses = stats.coalesced_accesses
    predictions = stats.predictions_made + stats.fallback_placements
    metrics = {
        "workloads.trace_gen_s": setup_trace_gen_s + self_s["workloads.trace_gen"],
        "workloads.warps": warps,
        "core.run_self_s": self_s["core.run"],
        "core.dispatch_self_s": self_s["core.dispatch"],
        "core.access_self_s": self_s["core.access"] + self_s["core.prefetch"],
        "core.eviction_self_s": self_s["core.eviction"],
        "core.access_calls": calls["core.access"],
        "core.batched_share": 1.0 - _ratio(calls["core.access"], accesses),
        "reuse.policy_self_s": self_s["reuse.policy"],
        "reuse.vts_s": self_s["reuse.vts"],
        "reuse.sampler_s": self_s["reuse.sampler"],
        "reuse.markov_s": self_s["reuse.markov"],
        "reuse.calls": calls["reuse.policy"],
        "reuse.prediction_accuracy": stats.prediction_accuracy,
        "reuse.fallback_share": _ratio(stats.fallback_placements, predictions),
        "mem.page_table_s": self_s["mem.page_table"],
        "mem.victim_select_s": self_s["mem.victim_select"],
        "mem.victim_select_calls": calls["mem.victim_select"],
        "mem.t1_hit_rate": stats.t1_hit_rate,
        "mem.t2_hit_rate": stats.t2_hit_rate,
        "sim.device_s": self_s["sim.device"],
        "sim.cost_model_s": self_s["sim.cost_model"],
        "sim.ssd_ios_per_kacc": _ratio(stats.ssd_page_ios * 1000.0, accesses),
        "sim.elapsed_ms": elapsed_ns / 1e6,
        "obs.telemetry_s": self_s["obs.telemetry"],
        "obs.telemetry_calls": calls["obs.telemetry"],
        "obs.windows": windows,
        "serve.loop_self_s": self_s["serve.loop"],
        "serve.clock_s": self_s["serve.clock"],
        "serve.admission_s": self_s["serve.admission"],
        "serve.tenant_switch_s": self_s["serve.tenant_switch"],
        "serve.stats_mirror_s": self_s["serve.stats_mirror"],
        "serve.decisions": tracker.decisions if tracker else 0,
        "serve.warps_per_decision": (
            _ratio(tracker.warps, tracker.decisions) if tracker else 0.0
        ),
        "serve.shed_rate": shed_rate,
        "serve.req_p99_sim_ms": (req_p99_ns or 0.0) / 1e6,
        "trace.coverage": _ratio(rec.attributed_s(), wall_s),
        "trace.overhead": _ratio(wall_s, untraced_wall_s),
        "trace.spans": len(rec.names),
    }
    return {name: float(metrics[name]) for name, _, _ in PER_LAYER}


def layer_self_times(rec) -> dict[str, float]:
    """Self seconds per layer (span-name prefix) of one traced pass."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in rec.self_times().items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + seconds
    return out
