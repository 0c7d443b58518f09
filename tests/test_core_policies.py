"""Unit tests for the three placement policies."""

import random
from dataclasses import replace

import pytest

from repro.core.config import GMTConfig
from repro.core.placement import PlacementDecision
from repro.core.policies import (
    PlacementPlan,
    RandomPolicy,
    ReusePolicy,
    TierOrderPolicy,
    make_policy,
)
from repro.core.stats import RuntimeStats
from repro.errors import ConfigError
from repro.mem.page import PageState
from repro.reuse.classifier import ReuseClass
from repro.reuse.vtd import VirtualTimestampClock


@pytest.fixture
def config():
    return GMTConfig(
        tier1_frames=8,
        tier2_frames=32,
        sample_target=40,
        sample_batch=10,
        tier3_bias_window=8,
    )


def build_reuse(config):
    stats = RuntimeStats()
    vts = VirtualTimestampClock()
    policy = ReusePolicy(config, stats, vts, random.Random(0))
    return policy, stats, vts


class TestMakePolicy:
    def test_each_kind(self, config):
        stats, vts, rng = RuntimeStats(), VirtualTimestampClock(), random.Random(0)
        assert isinstance(
            make_policy(config.with_policy("tier-order"), stats, vts, rng),
            TierOrderPolicy,
        )
        assert isinstance(
            make_policy(config.with_policy("random"), stats, vts, rng), RandomPolicy
        )
        assert isinstance(make_policy(config, stats, vts, rng), ReusePolicy)


class TestTierOrderPolicy:
    def test_always_places_tier2(self, config):
        policy = TierOrderPolicy(config, RuntimeStats())
        plan = policy.choose(PageState(page=1))
        assert plan.decision is PlacementDecision.PLACE_TIER2
        assert policy.tier2_uses_clock
        assert policy.tier2_evicts_on_full


class TestRandomPolicy:
    def test_mixes_tier2_and_tier3(self, config):
        policy = RandomPolicy(config, RuntimeStats(), random.Random(1))
        decisions = {policy.choose(PageState(page=p)).decision for p in range(50)}
        assert decisions == {
            PlacementDecision.PLACE_TIER2,
            PlacementDecision.BYPASS_TIER3,
        }

    def test_probability_extremes(self, config):
        always = RandomPolicy(config, RuntimeStats(), random.Random(1), 1.0)
        never = RandomPolicy(config, RuntimeStats(), random.Random(1), 0.0)
        for p in range(20):
            assert always.choose(PageState(page=p)).decision is PlacementDecision.PLACE_TIER2
            assert never.choose(PageState(page=p)).decision is PlacementDecision.BYPASS_TIER3

    def test_invalid_probability(self, config):
        with pytest.raises(ConfigError):
            RandomPolicy(config, RuntimeStats(), random.Random(0), 1.5)

    def test_deterministic_under_seed(self, config):
        a = RandomPolicy(config, RuntimeStats(), random.Random(7))
        b = RandomPolicy(config, RuntimeStats(), random.Random(7))
        for p in range(30):
            assert a.choose(PageState(page=p)).decision == b.choose(PageState(page=p)).decision


class TestReusePolicyColdPath:
    def test_no_history_falls_back_to_tier2(self, config):
        policy, stats, _ = build_reuse(config)
        plan = policy.choose(PageState(page=1))
        assert plan.from_fallback
        assert plan.decision is PlacementDecision.PLACE_TIER2
        assert stats.fallback_placements == 1

    def test_cold_fill_resolves_nothing(self, config):
        policy, stats, vts = build_reuse(config)
        state = PageState(page=1)
        vts.observe_access(state)
        policy.on_tier1_fill(state)  # no prior eviction
        assert stats.resolved_predictions == 0


class TestReusePolicyLearning:
    def _train(self, policy, vts, state, gap, rounds=6):
        """Simulate eviction -> (gap ticks) -> return cycles."""
        for _ in range(rounds):
            plan = policy.choose(state)
            policy.on_evicted(state, plan)
            for _ in range(gap):
                vts.tick()
            vts.observe_access(state)
            policy.on_tier1_fill(state)
        return policy.choose(state)

    def _prime_sampler(self, policy, footprint=20, repeats=4):
        """Give the sampler a ~identity VTD->RD relation."""
        now = 0
        last = {}
        for _ in range(repeats):
            for page in range(1000, 1000 + footprint):
                now += 1
                vtd = now - last.get(page, now)
                vtd = vtd if page in last else None
                last[page] = now
                policy.sampler.observe(page, vtd)

    def test_learns_medium_class(self, config):
        policy, stats, vts = build_reuse(config)
        self._prime_sampler(policy)
        assert policy.sampler.model is not None
        state = PageState(page=1)
        vts.observe_access(state)
        # Gap of 16 ticks -> RRD ~16, between tier1 (8) and tier1+2 (40).
        plan = self._train(policy, vts, state, gap=16)
        assert plan.predicted_class is ReuseClass.MEDIUM
        assert plan.decision is PlacementDecision.PLACE_TIER2

    def test_learns_short_class_retains(self, config):
        policy, stats, vts = build_reuse(config)
        self._prime_sampler(policy)
        state = PageState(page=2)
        vts.observe_access(state)
        plan = self._train(policy, vts, state, gap=2)  # RRD ~2 < 8
        assert plan.predicted_class is ReuseClass.SHORT
        assert plan.decision is PlacementDecision.RETAIN_TIER1

    def test_learns_long_class_bypasses(self, config):
        policy, stats, vts = build_reuse(config)
        self._prime_sampler(policy, footprint=60)
        state = PageState(page=3)
        vts.observe_access(state)
        plan = self._train(policy, vts, state, gap=100)  # RRD >= 40
        assert plan.predicted_class is ReuseClass.LONG
        assert plan.decision is PlacementDecision.BYPASS_TIER3

    def test_accuracy_bookkeeping(self, config):
        policy, stats, vts = build_reuse(config)
        self._prime_sampler(policy)
        state = PageState(page=4)
        vts.observe_access(state)
        self._train(policy, vts, state, gap=16, rounds=8)
        assert stats.resolved_predictions > 0
        assert stats.prediction_accuracy > 0.5

    def test_heuristic_forces_tier2_under_long_bias(self, config):
        policy, stats, vts = build_reuse(config)
        self._prime_sampler(policy, footprint=60)
        # Build LONG history on one page, then saturate the window.
        state = PageState(page=5)
        vts.observe_access(state)
        plan = None
        for _ in range(config.tier3_bias_window + 8):
            plan = self._train(policy, vts, state, gap=100, rounds=1)
        assert plan.forced_tier2
        assert plan.decision is PlacementDecision.PLACE_TIER2


class TestSharedPlans:
    """``ReusePolicy.choose`` hands out one shared, immutable plan per
    outcome, each equal to the plan it used to construct per call."""

    def _policy_predicting(self, config, predicted):
        policy, _, _ = build_reuse(config)
        policy.predictor.record_transition(ReuseClass.MEDIUM, predicted)
        state = PageState(page=1)
        state.policy_state[ReusePolicy._LAST_CORRECT] = ReuseClass.MEDIUM
        return policy, state

    def test_fallback_plan(self, config):
        policy, _, _ = build_reuse(config)
        first = policy.choose(PageState(page=1))
        assert first == PlacementPlan(
            decision=PlacementDecision.PLACE_TIER2, from_fallback=True
        )
        assert first is policy.choose(PageState(page=2))
        assert first.predicted_name is None

    @pytest.mark.parametrize("predicted", list(ReuseClass))
    def test_one_plan_per_predicted_class(self, config, predicted):
        policy, state = self._policy_predicting(
            replace(config, tier3_bias_enabled=False), predicted
        )
        plan = policy.choose(state)
        assert plan == PlacementPlan(
            decision=PlacementDecision.for_class(predicted), predicted_class=predicted
        )
        assert plan is policy.choose(state)
        assert plan.predicted_name == predicted.name.lower()

    def test_heuristic_forced_plan(self, config):
        policy, state = self._policy_predicting(config, ReuseClass.LONG)
        for _ in range(config.tier3_bias_window):
            policy.heuristic.record(ReuseClass.LONG)
        plan = policy.choose(state)
        assert plan == PlacementPlan(
            decision=PlacementDecision.PLACE_TIER2,
            predicted_class=ReuseClass.LONG,
            forced_tier2=True,
        )
        assert plan is policy.choose(state)
        assert plan.predicted_name == "long"

    def test_plans_are_shared_across_policy_instances(self, config):
        a, state_a = self._policy_predicting(config, ReuseClass.SHORT)
        b, state_b = self._policy_predicting(config, ReuseClass.SHORT)
        assert a.choose(state_a) is b.choose(state_b)
