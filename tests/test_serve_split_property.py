"""Property test: per-tenant slices charged at tenant switches.

``SplitStats`` charges each tenant's slice with the counter delta accrued
since the previous switch.  Over random sequences of tenant switches
(including "no tenant"), plain counter writes and prediction outcomes,
the slices must equal a reference that mirrors every single write into
the then-active tenant, after every switch; and the slices plus the
writes made with no tenant active must add up to the aggregate
(``audit_split``).
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.check.identities import audit_split
from repro.core.config import GMTConfig
from repro.core.stats import RuntimeStats
from repro.serve import TenantAwareRuntime

COUNTERS = RuntimeStats.counter_names()
TENANTS = 3
TIERS = ("tier1", "tier2", "tier3")

operations = st.lists(
    st.one_of(
        st.tuples(st.just("switch"), st.one_of(st.none(), st.integers(0, TENANTS - 1))),
        st.tuples(st.just("bump"), st.sampled_from(COUNTERS), st.integers(1, 5)),
        st.tuples(st.just("predict"), st.sampled_from(TIERS), st.sampled_from(TIERS)),
    ),
    max_size=80,
)


def counters(stats):
    return [getattr(stats, name) for name in COUNTERS]


def assert_slices_match(runtime, reference, reference_confusion, unattributed):
    for index, expected in enumerate(reference):
        assert counters(runtime.tenant_stats[index]) == expected
        assert runtime.tenant_stats[index].confusion == reference_confusion[index]
    nobody = RuntimeStats(**dict(zip(COUNTERS, unattributed)))
    assert audit_split(runtime.stats, [*runtime.tenant_stats, nobody]) == []


@settings(max_examples=200, deadline=None)
@given(ops=operations)
def test_slices_equal_a_per_write_mirror_after_every_switch(ops):
    runtime = TenantAwareRuntime(
        GMTConfig(tier1_frames=8, tier2_frames=16),
        tenant_names=[f"t{i}" for i in range(TENANTS)],
    )
    stats = runtime.stats
    reference = [[0] * len(COUNTERS) for _ in range(TENANTS)]
    reference_confusion = [{} for _ in range(TENANTS)]
    unattributed = [0] * len(COUNTERS)
    current = None
    for op in ops + [("switch", None)]:
        if op[0] == "switch":
            runtime.begin_tenant(op[1])
            current = op[1]
            assert_slices_match(runtime, reference, reference_confusion, unattributed)
            continue
        before = counters(stats)
        if op[0] == "bump":
            _, name, amount = op
            setattr(stats, name, getattr(stats, name) + amount)
        else:
            _, predicted, actual = op
            stats.record_prediction_outcome(predicted, actual)
            if current is not None:
                confusion = reference_confusion[current]
                confusion[(predicted, actual)] = confusion.get((predicted, actual), 0) + 1
        bucket = unattributed if current is None else reference[current]
        for k, (old, new) in enumerate(zip(before, counters(stats))):
            bucket[k] += new - old
