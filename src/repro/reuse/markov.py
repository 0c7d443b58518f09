"""The 3-state Markov-chain tier predictor (paper Fig. 5).

Paper section 2.1.3, step 2: "a simple 2-level history suffices ... We keep
track of the tiers that a page should have been placed in 'correctly' upon
its 2 prior evictions from GPU memory, and use this to implement a 3-state
Markov chain.  Each state in this chain represents the 'correct' tier that
this page should have been placed in, upon its prior eviction. ... we can
use this to update the transition weight between the 2nd last and
immediately prior eviction states.  This update is done whenever the page
is brought into GPU memory.  When the page next comes up for eviction, we
can simply look at its last 'correct' tier (state), compare the 3
transition weights coming out of this state, and use that to decide which
tier we should next place this page in."

The transition-weight matrix is shared across pages (that is what lets the
predictor generalise from pages with history to the rest), while the
2-deep "correct tier" history is per page — "Maintaining this state takes
negligible space for each page".
"""

from __future__ import annotations

from repro.reuse.classifier import ReuseClass

_STATES = (ReuseClass.SHORT, ReuseClass.MEDIUM, ReuseClass.LONG)


class MarkovTierPredictor:
    """Shared 3x3 transition weights + per-page 2-level history.

    Per-page history is stored by the caller (the runtime keeps it in
    ``PageState.policy_state``); this class owns only the weight matrix and
    the decision rules, so it is trivially testable.

    The matrix is integer-indexed lists (row/column ``ReuseClass`` value
    - 1, read through the member's plain ``_value_`` slot), and each row's
    winning transition is cached as weights change, so :meth:`predict` —
    called on every eviction — is a single index.
    """

    def __init__(self) -> None:
        self._weights: list[list[int]] = [[0, 0, 0] for _ in _STATES]
        #: Per row: the argmax state (None while the row is all zero).
        self._best: list[ReuseClass | None] = [None, None, None]
        #: Per row: the sum of its weights.
        self._totals: list[int] = [0, 0, 0]
        self._updates = 0

    @property
    def updates(self) -> int:
        """Number of recorded transitions (how much history exists)."""
        return self._updates

    def record_transition(self, prev2: ReuseClass, prev1: ReuseClass) -> None:
        """Bump W(prev2 -> prev1), the weight between a page's second-last
        and last correct tiers.  Called when a page returns to Tier-1 and
        its previous eviction's correct tier becomes known."""
        src = prev2._value_ - 1
        dst = prev1._value_ - 1
        row = self._weights[src]
        weight = row[dst] + 1
        row[dst] = weight
        self._totals[src] += 1
        self._updates += 1
        # Only W(src -> dst) grew, so the row's winner is the old one or
        # dst.  Ties go to the nearer tier (the lower index).
        best = self._best[src]
        if best is None:
            self._best[src] = prev1
        else:
            b = best._value_ - 1
            if weight > row[b] or (weight == row[b] and dst < b):
                self._best[src] = prev1

    def weight(self, src: ReuseClass, dst: ReuseClass) -> int:
        """W(src -> dst); exposed for tests and introspection."""
        return self._weights[src._value_ - 1][dst._value_ - 1]

    def predict(self, last_correct: ReuseClass | None) -> ReuseClass | None:
        """Predict the next correct tier from a page's last correct tier.

        Returns ``None`` when no usable history exists — either the page has
        no resolved prior eviction, or the outgoing weights from its state
        are all zero.  The caller then falls back (the paper proceeds "with
        a default strategy" in the cold phase).

        Ties are broken toward the *nearer* tier (SHORT < MEDIUM < LONG),
        biasing toward keeping data close to the GPU.
        """
        if last_correct is None:
            return None
        return self._best[last_correct._value_ - 1]

    def confidence(self, last_correct: ReuseClass | None) -> float:
        """Weight share of the winning transition out of ``last_correct``'s
        state — how lopsided the row behind a prediction is (1.0 = the
        history always went one way; ~1/3 = a coin toss across tiers).
        Exported to the telemetry confidence histogram."""
        if last_correct is None:
            return 0.0
        src = last_correct._value_ - 1
        total = self._totals[src]
        if total == 0:
            return 0.0
        return max(self._weights[src]) / total

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Readable copy of the weight matrix (for reports/debugging)."""
        return {
            src.name: {dst.name: w for dst, w in zip(_STATES, row)}
            for src, row in zip(_STATES, self._weights)
        }


class LastTierPredictor:
    """1-level history ablation: predict the last correct tier again.

    The paper argues a 2-level history is needed because patterns like
    PageRank's *alternate* (Figure 4(c)); this predictor exists so the
    ablation benchmarks can quantify that claim.  It implements the same
    interface as :class:`MarkovTierPredictor`.
    """

    def __init__(self) -> None:
        self._updates = 0

    @property
    def updates(self) -> int:
        return self._updates

    def record_transition(self, prev2: ReuseClass, prev1: ReuseClass) -> None:
        self._updates += 1

    def weight(self, src: ReuseClass, dst: ReuseClass) -> int:
        return 0

    def predict(self, last_correct: ReuseClass | None) -> ReuseClass | None:
        return last_correct

    def confidence(self, last_correct: ReuseClass | None) -> float:
        """Last-tier repeats are asserted with full confidence."""
        return 0.0 if last_correct is None else 1.0

    def snapshot(self) -> dict[str, dict[str, int]]:
        """No weights to report; kept for interface parity."""
        return {}
