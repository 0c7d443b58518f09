"""Tenant-aware runtime: a :class:`GMTRuntime` serving N streams at once.

Three things distinguish a served runtime from the single-stream one:

- **per-tenant accounting** — :class:`SplitStats` charges the counter
  deltas accrued while a tenant was active to that tenant's private
  :class:`~repro.core.stats.RuntimeStats` slice at every tenant switch,
  so the shared run yields both the aggregate numbers and an exact
  per-tenant decomposition (including the cost of evictions a tenant's
  miss inflicted on others, charged to the tenant that caused the work);
- **quota enforcement** — the victim-selection and admission hooks of the
  base eviction pipeline are overridden to honour
  :class:`~repro.serve.quota.TierQuotas`: a tenant at its Tier-1 budget
  evicts its own pages first, over-budget tenants are preferred victims
  when a tier is physically full, and Tier-2 placement is denied to
  tenants over their host-memory budget (migration admission control);
- **tenant-labelled telemetry** — when telemetry is attached, every span
  and miss event carries a ``tenant=<name>`` argument so Perfetto renders
  per-tenant lanes and per-tenant metric registries export distinct
  Prometheus series.

With quotas disabled and a single tenant, every hook degenerates to the
base behaviour and the runtime reproduces the single-stream numbers
exactly (asserted in tests).
"""

from __future__ import annotations

from operator import attrgetter

from repro.core.config import GMTConfig
from repro.core.runtime import GMTRuntime
from repro.core.stats import RuntimeStats
from repro.errors import ConfigError
from repro.mem.page import PageState
from repro.obs.digest import LatencyDigest
from repro.policyzoo.governor import GovernorConfig, MigrationGovernor
from repro.policyzoo.partition import PartitionedPolicy
from repro.policyzoo.registry import make_eviction_policy
from repro.serve.quota import OwnedTier, QuotaConfig, TierQuotas
from repro.serve.stream import owner_of_page

_COUNTER_NAMES = RuntimeStats.counter_names()
_snapshot = attrgetter(*_COUNTER_NAMES)


class SplitStats(RuntimeStats):
    """RuntimeStats whose counters are also charged to per-tenant slices.

    The hot path keeps its plain ``stats.t1_hits += 1`` writes.  The
    serving loop names the active tenant with :meth:`split_into`; each
    call snapshots every counter and adds the delta accrued since the
    previous call to the outgoing tenant's slice.  Slices are therefore
    exact at every switch and after the run's final ``split_into(None)``;
    a read of the active tenant's slice in the middle of a scheduling
    decision lags the aggregate by at most that decision's work.  The
    ``confusion`` dict is mutated in place rather than counted, so
    :meth:`record_prediction_outcome` mirrors it explicitly.
    """

    _split_target: RuntimeStats | None = None
    _split_base: tuple = ()

    # Counter writes go straight to the instance.  Naming the slot
    # wrapper explicitly keeps CPython's C-level setattr for the class,
    # so writes stay as cheap as on RuntimeStats, while the host
    # benchmark (hostbench/layers.py) still finds a class attribute to
    # wrap for its ``serve.stats_mirror`` span.
    __setattr__ = object.__setattr__

    def split_into(self, target: RuntimeStats | None) -> None:
        """Charge the counters accrued since the last switch to the
        outgoing slice, then charge later ones to ``target`` (None:
        to no slice)."""
        now = _snapshot(self)
        current = self._split_target
        if current is not None and now != self._split_base:
            for name, value, base in zip(_COUNTER_NAMES, now, self._split_base):
                if value != base:
                    setattr(current, name, getattr(current, name) + value - base)
        self._split_target = target
        self._split_base = now

    def record_prediction_outcome(self, predicted: str, actual: str) -> None:
        super().record_prediction_outcome(predicted, actual)
        target = self._split_target
        if target is not None:
            key = (predicted, actual)
            target.confusion[key] = target.confusion.get(key, 0) + 1


class _TenantObsShim:
    """Wraps an attached Telemetry to stamp emissions with the tenant.

    Spans gain a ``tenant=<name>`` argument (distinct Perfetto lanes, see
    :func:`repro.obs.export.chrome_trace_events`); the metrics registry
    and windowing passes straight through.
    """

    __slots__ = ("_obs", "_runtime")

    def __init__(self, obs, runtime: "TenantAwareRuntime") -> None:
        self._obs = obs
        self._runtime = runtime

    def _tenant(self) -> str | None:
        return self._runtime.current_tenant_label()

    def span(self, name: str, cat: str, dur_ns: float, **args) -> None:
        tenant = self._tenant()
        if tenant is not None:
            args["tenant"] = tenant
        self._obs.span(name, cat, dur_ns, **args)

    def instant(self, name: str, cat: str, **args) -> None:
        tenant = self._tenant()
        if tenant is not None:
            args["tenant"] = tenant
        self._obs.instant(name, cat, **args)

    def on_miss(self, page: int, fault_ns: float, source: str) -> None:
        tenant = self._tenant()
        if tenant is None:
            self._obs.on_miss(page, fault_ns, source)
            return
        self._obs.fault_latency.observe(fault_ns)
        self._obs.latency_digest.observe(fault_ns)
        self._runtime.tenant_digests[self._runtime._current].observe(fault_ns)
        self._obs.tracer.record(
            "miss", "access", self._obs.now_ns, fault_ns,
            page=page, src=source, tenant=tenant,
        )

    def tick(self, position: int) -> None:
        self._obs.tick(position)

    def finish(self) -> None:
        self._obs.finish()

    def detach(self) -> None:
        self._obs.detach()


class TenantAwareRuntime(GMTRuntime):
    """Shared GMT hierarchy multiplexing several tenant streams.

    Args:
        config: the shared hierarchy's geometry/policy/platform.
        tenant_names: display names, one per tenant (their length fixes
            the tenant count).
        quota: per-tenant tier budgets (default: no quotas).
        weights: scheduling weights, used as default quota shares.
        policy_factory: forwarded to :class:`GMTRuntime`.
        tier1_policies / tier2_policies: per-tenant eviction policy
            names (``repro.policyzoo`` registry), one entry per tenant;
            ``None`` entries fall back to the shared default for that
            tier.  Passing ``None`` for the whole list keeps the
            pre-zoo shared structure for that tier (byte-identical).
        governor: token-bucket migration admission control
            (:class:`~repro.policyzoo.governor.GovernorConfig`); None
            disables throttling.
    """

    orchestration = "gpu"

    def __init__(
        self,
        config: GMTConfig,
        tenant_names: list[str],
        quota: QuotaConfig | None = None,
        weights: list[float] | None = None,
        policy_factory=None,
        tier1_policies: list[str | None] | None = None,
        tier2_policies: list[str | None] | None = None,
        governor: GovernorConfig | None = None,
    ) -> None:
        if not tenant_names:
            raise ConfigError("TenantAwareRuntime needs at least one tenant")
        if weights is not None and len(weights) != len(tenant_names):
            raise ConfigError("weights must name every tenant")
        for label, policies in (
            ("tier1_policies", tier1_policies),
            ("tier2_policies", tier2_policies),
        ):
            if policies is not None and len(policies) != len(tenant_names):
                raise ConfigError(f"{label} must name every tenant")
        super().__init__(config, policy_factory)
        self.tenant_names = list(tenant_names)
        # Swap in owner-aware tiers (both are empty at this point).
        self.tier1 = OwnedTier("Tier-1", config.tier1_frames, owner_of_page)
        self.tier2 = OwnedTier("Tier-2", config.tier2_frames, owner_of_page)
        # Per-tenant eviction policies: replace the shared replacement
        # structures (still empty here) with one-partition-per-tenant
        # composites.  Each sub-policy gets the full tier capacity —
        # budgets stay the quota layer's job.
        if tier1_policies is not None:
            names = [name or config.tier1_eviction for name in tier1_policies]
            self.t1_clock = PartitionedPolicy(
                [
                    make_eviction_policy(name, config.tier1_frames, tier=1)
                    for name in names
                ],
                owner_of_page,
                names=names,
            )
            self.tier1_policy_names = tuple(names)
        else:
            self.tier1_policy_names = (config.tier1_eviction,) * len(tenant_names)
        if tier2_policies is not None and config.tier2_frames > 0:
            default = config.tier2_eviction or (
                "clock" if self.policy.tier2_uses_clock else "fifo"
            )
            names = [name or default for name in tier2_policies]
            self._t2_order = PartitionedPolicy(
                [
                    make_eviction_policy(name, config.tier2_frames, tier=2)
                    for name in names
                ],
                owner_of_page,
                names=names,
            )
            self.tier2_policy_names = tuple(names)
        else:
            shared = config.tier2_eviction or (
                "clock" if self.policy.tier2_uses_clock else "fifo"
            )
            self.tier2_policy_names = (shared,) * len(tenant_names)
        self.governor = (
            None
            if governor is None
            else MigrationGovernor(governor, len(tenant_names))
        )
        self.quotas = TierQuotas(
            quota or QuotaConfig(),
            tier1_capacity=config.tier1_frames,
            tier2_capacity=config.tier2_frames,
            weights=weights or [1.0] * len(tenant_names),
        )
        self.tenant_stats = [RuntimeStats() for _ in tenant_names]
        #: Per-tenant streaming latency digests, fed by the telemetry
        #: shim on every serviced miss (empty until telemetry attaches —
        #: the unobserved hot path never touches them).
        self.tenant_digests = [LatencyDigest() for _ in tenant_names]
        self._current: int | None = None
        self.obs_extra_labels = dict(self.obs_extra_labels)
        self.obs_extra_labels["tenants"] = str(len(tenant_names))

    # -- stats ----------------------------------------------------------
    def _make_stats(self) -> RuntimeStats:
        return SplitStats()

    # -- tenant switching (driven by the server, per warp) --------------
    def begin_tenant(self, index: int | None) -> None:
        """All subsequent work is issued by (and charged to) ``index``.

        The previous tenant's slice is brought up to date first;
        ``begin_tenant(None)`` is the final flush of a serving loop.
        """
        self._current = index
        if index is None:
            self.stats.split_into(None)
        else:
            self.stats.split_into(self.tenant_stats[index])
            self.quotas.note_active(index, self.stats.coalesced_accesses)

    def finish_tenant(self, index: int) -> None:
        """Mark ``index``'s stream drained (dynamic quotas reclaim it)."""
        self.quotas.note_finished(index)

    @property
    def current_tenant(self) -> int | None:
        return self._current

    def current_tenant_label(self) -> str | None:
        if self._current is None:
            return None
        return self.tenant_names[self._current]

    # -- quota-aware eviction hooks -------------------------------------
    def _tier1_needs_eviction(self) -> bool:
        if self.tier1.full:
            return True
        tenant = self._current
        if tenant is None or not self.quotas.enabled:
            return False
        if (
            self.tier1.owner_count(tenant) >= self.quotas.tier1_budget(tenant)
            and self.tier1.owner_count(tenant) > 0
        ):
            # The filling tenant is at its frame budget: it must free one
            # of its own frames even though the tier has physical room.
            self.stats.quota_evictions += 1
            return True
        return False

    def _next_tier1_victim(self) -> int:
        tenant = self._current
        if tenant is not None and self.quotas.enabled:
            if (
                self.tier1.owner_count(tenant) >= self.quotas.tier1_budget(tenant)
                and self.tier1.owner_count(tenant) > 0
            ):
                victim = self.t1_clock.select_victim_where(
                    lambda p: owner_of_page(p) == tenant
                )
                if victim is not None:
                    return victim
            if self.tier1.full:
                over = self.quotas.over_budget_tier1(self.tier1)
                over.discard(tenant)
                if over:
                    victim = self.t1_clock.select_victim_where(
                        lambda p: owner_of_page(p) in over
                    )
                    if victim is not None:
                        return victim
        return self.t1_clock.select_victim()

    def _admit_tier2(self, state: PageState) -> bool:
        if not self.quotas.enabled or self.tier2.capacity == 0:
            return True
        owner = owner_of_page(state.page)
        return self.tier2.owner_count(owner) < self.quotas.tier2_budget(owner)

    # -- migration governor (TierBPF-style admission control) ------------
    def _admit_demotion(self, state: PageState) -> bool:
        if self.governor is None:
            return True
        # Migrations are charged to the page's owner — the tenant whose
        # data is moving over the interconnect — on the runtime's
        # logical clock (deterministic under the replay engine).
        return self.governor.try_take(
            owner_of_page(state.page), self.stats.coalesced_accesses
        )

    def _promotion_stall_ns(self, page: int) -> float:
        if self.governor is None:
            return 0.0
        if self.governor.try_take(
            owner_of_page(page), self.stats.coalesced_accesses
        ):
            return 0.0
        return self.governor.config.promotion_stall_ns

    def _select_tier2_victim(self) -> int:
        if self.quotas.enabled:
            over = self.quotas.over_budget_tier2(self.tier2)
            if over:
                victim = self._t2_order.select_victim_where(
                    lambda p: owner_of_page(p) in over
                )
                if victim is not None:
                    return victim
        return self._t2_order.select_victim()

    # -- telemetry -------------------------------------------------------
    def attach_telemetry(self, telemetry=None):
        telemetry = super().attach_telemetry(telemetry)
        # Re-wrap the runtime-side sink so spans carry the tenant label.
        self._obs = _TenantObsShim(self._obs, self)
        if telemetry.lifecycle is not None:
            telemetry.lifecycle.tenant_source = self.current_tenant_label
        return telemetry

    def attach_flight_recorder(self, capacity: int | None = 100_000, recorder=None):
        recorder = super().attach_flight_recorder(capacity, recorder)
        # Lifecycle events carry the issuing tenant (per-tenant lanes).
        recorder.tenant_source = self.current_tenant_label
        return recorder
