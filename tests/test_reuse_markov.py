"""Unit tests for the 3-state Markov-chain tier predictor (Fig. 5)."""

from repro.reuse.classifier import ReuseClass
from repro.reuse.markov import MarkovTierPredictor

S, M, L = ReuseClass.SHORT, ReuseClass.MEDIUM, ReuseClass.LONG


class TestMarkovTierPredictor:
    def test_no_history_predicts_none(self):
        p = MarkovTierPredictor()
        assert p.predict(None) is None

    def test_state_without_outgoing_weight_predicts_none(self):
        p = MarkovTierPredictor()
        p.record_transition(M, L)
        assert p.predict(S) is None  # S row is empty

    def test_learns_constant_pattern(self):
        # Figure 4(b): same tier at every eviction -> self-loop dominates.
        p = MarkovTierPredictor()
        for _ in range(5):
            p.record_transition(M, M)
        assert p.predict(M) is M

    def test_learns_alternating_pattern(self):
        # Figure 4(c): tiers alternate M <-> L; a 1-level history cannot
        # capture this, the 2-level transition weights can.
        p = MarkovTierPredictor()
        for _ in range(5):
            p.record_transition(M, L)
            p.record_transition(L, M)
        assert p.predict(M) is L
        assert p.predict(L) is M

    def test_majority_wins(self):
        p = MarkovTierPredictor()
        for _ in range(3):
            p.record_transition(S, M)
        p.record_transition(S, L)
        assert p.predict(S) is M

    def test_tie_breaks_toward_nearer_tier(self):
        p = MarkovTierPredictor()
        p.record_transition(S, M)
        p.record_transition(S, L)
        assert p.predict(S) is M

    def test_updates_counter(self):
        p = MarkovTierPredictor()
        p.record_transition(S, S)
        p.record_transition(M, L)
        assert p.updates == 2

    def test_weight_accessor(self):
        p = MarkovTierPredictor()
        p.record_transition(M, L)
        p.record_transition(M, L)
        assert p.weight(M, L) == 2
        assert p.weight(L, M) == 0

    def test_snapshot(self):
        p = MarkovTierPredictor()
        p.record_transition(M, L)
        snap = p.snapshot()
        assert snap["MEDIUM"]["LONG"] == 1
        assert snap["SHORT"]["SHORT"] == 0
        # Snapshot is a copy.
        snap["MEDIUM"]["LONG"] = 99
        assert p.weight(M, L) == 1


# ----------------------------------------------------------------------
# property: the cached-argmax predictor matches a recomputing reference
# ----------------------------------------------------------------------
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_ORDER = (S, M, L)


class RecomputingMarkov:
    """Reference: recompute every answer from the raw weight matrix."""

    def __init__(self):
        self.w = {s: {t: 0 for t in _ORDER} for s in _ORDER}

    def record_transition(self, prev2, prev1):
        self.w[prev2][prev1] += 1

    def predict(self, last):
        if last is None:
            return None
        best, best_weight = None, 0
        for state in _ORDER:  # first maximum wins: the nearer tier
            if self.w[last][state] > best_weight:
                best, best_weight = state, self.w[last][state]
        return best

    def confidence(self, last):
        if last is None:
            return 0.0
        total = sum(self.w[last].values())
        return max(self.w[last].values()) / total if total else 0.0

    def snapshot(self):
        return {s.name: {t.name: n for t, n in row.items()} for s, row in self.w.items()}


class TestCachedArgmaxMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        transitions=st.lists(
            st.tuples(st.sampled_from(_ORDER), st.sampled_from(_ORDER)), max_size=60
        )
    )
    def test_every_answer_matches_after_every_transition(self, transitions):
        fast, ref = MarkovTierPredictor(), RecomputingMarkov()
        for prev2, prev1 in transitions:
            fast.record_transition(prev2, prev1)
            ref.record_transition(prev2, prev1)
            for last in (None,) + _ORDER:
                assert fast.predict(last) is ref.predict(last)
                assert fast.confidence(last) == ref.confidence(last)
            for src in _ORDER:
                for dst in _ORDER:
                    assert fast.weight(src, dst) == ref.w[src][dst]
        assert fast.snapshot() == ref.snapshot()
        assert fast.updates == len(transitions)

    def test_tie_reached_from_behind_moves_to_the_nearer_tier(self):
        p = MarkovTierPredictor()
        p.record_transition(M, L)
        assert p.predict(M) is L
        p.record_transition(M, S)  # S ties L and is nearer
        assert p.predict(M) is S
        p.record_transition(M, L)  # L pulls ahead
        assert p.predict(M) is L
