"""Multi-tenant serving layer: concurrent workload streams over one GMT.

The paper evaluates GMT one application at a time; this package models
the production question — many concurrent workloads contending for one
Tier-1/Tier-2/Tier-3 hierarchy — on the simulated-time axis:

- :mod:`repro.serve.stream` — tenant identity and page-id namespacing
  (tenants never alias pages), plus :class:`TenantPopulation` for
  service-scale zipf-skewed fleets;
- :mod:`repro.serve.scheduler` — interleaving disciplines (round-robin,
  weighted-fair by issued bytes, FIFO-arrival) merging the streams into
  one trace the existing runtime replays, with epoch-batched decisions
  and an auditable admissions log;
- :mod:`repro.serve.arrivals` — seeded open-loop arrival processes
  (Poisson, bursty/MMPP) on the simulated-ns clock;
- :mod:`repro.serve.quota` — per-tenant Tier-1/Tier-2 frame budgets
  (static caps, or dynamic with idle reclaim) enforced through the
  runtime's victim-selection and admission hooks;
- :mod:`repro.serve.runtime` — the tenant-aware runtime: per-tenant
  counter slices charged at tenant switches (:class:`SplitStats`),
  quota-steered eviction, and ``tenant=``-labelled telemetry;
- :mod:`repro.serve.server` — the closed-loop front door:
  :class:`TenantServer` replays a mix and reports per-tenant results,
  slowdowns vs solo runs, and Jain-fairness summaries;
- :mod:`repro.serve.openloop` — the open-loop service simulator:
  :class:`OpenLoopServer` drives Poisson/bursty request arrivals through
  pressure-triggered admission control and epoch-batched weighted-fair
  drain, reporting request-latency percentiles and shed rates.

Per-tenant eviction policies (:mod:`repro.policyzoo`) plug in through
``TenantSpec(tier1_policy=..., tier2_policy=...)`` or the server-wide
``TenantServer(tier1_policy=..., tier2_policy=...)`` defaults, and a
:class:`~repro.policyzoo.governor.GovernorConfig` passed as
``governor=`` rate-limits each tenant's tier migrations.

CLI: ``gmt-serve --tenants bfs,pagerank --policy reuse`` (or
``python -m repro.serve``); open-loop mode via ``gmt-serve
--open-loop 1000 --arrival-rate 2000``.
"""

from repro.policyzoo import (
    EVICTION_POLICY_NAMES,
    GovernorConfig,
    MigrationGovernor,
    PartitionedPolicy,
)
from repro.serve.arrivals import (
    ARRIVAL_PROCESS_NAMES,
    ArrivalProcess,
    BurstyArrivals,
    PoissonArrivals,
    make_arrival_process,
)
from repro.serve.openloop import (
    AdmissionController,
    OpenLoopConfig,
    OpenLoopResult,
    OpenLoopServer,
)
from repro.serve.quota import QUOTA_MODES, OwnedTier, QuotaConfig, TierQuotas, split_frames
from repro.serve.runtime import SplitStats, TenantAwareRuntime
from repro.serve.scheduler import (
    SCHEDULER_NAMES,
    Admission,
    FifoScheduler,
    RoundRobinScheduler,
    WeightedFairScheduler,
    make_scheduler,
    merge_streams,
)
from repro.serve.server import (
    ServeResult,
    TenantResult,
    TenantServer,
    build_tenants,
)
from repro.serve.stream import (
    NAMESPACE_BITS,
    TenantPopulation,
    TenantSpec,
    TenantStream,
    namespace_base,
    owner_of_page,
)

__all__ = [
    "ARRIVAL_PROCESS_NAMES",
    "EVICTION_POLICY_NAMES",
    "NAMESPACE_BITS",
    "QUOTA_MODES",
    "SCHEDULER_NAMES",
    "Admission",
    "AdmissionController",
    "ArrivalProcess",
    "BurstyArrivals",
    "FifoScheduler",
    "GovernorConfig",
    "MigrationGovernor",
    "OpenLoopConfig",
    "OpenLoopResult",
    "OpenLoopServer",
    "OwnedTier",
    "PartitionedPolicy",
    "PoissonArrivals",
    "QuotaConfig",
    "RoundRobinScheduler",
    "ServeResult",
    "SplitStats",
    "TenantAwareRuntime",
    "TenantPopulation",
    "TenantResult",
    "TenantServer",
    "TenantSpec",
    "TenantStream",
    "TierQuotas",
    "WeightedFairScheduler",
    "build_tenants",
    "make_arrival_process",
    "make_scheduler",
    "merge_streams",
    "namespace_base",
    "owner_of_page",
    "split_frames",
]
