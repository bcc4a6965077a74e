"""Tests for the adaptive strategies (adjusting and online correlation)."""

import numpy as np
import pytest
from adjusting_reference import ReferenceAdjustingStrategy

from repro.core import SpesConfig
from repro.core.adaptive import AdjustingStrategy, OnlineCorrelationTracker
from repro.core.categories import FunctionCategory
from repro.core.predictive import PredictiveValues
from repro.core.state import FunctionState


def regular_state(median=30.0, std=2.0, wts=None):
    return FunctionState(
        function_id="f",
        category=FunctionCategory.REGULAR,
        predictive=PredictiveValues.from_discrete([int(median)]),
        offline_wt_median=median,
        offline_wt_std=std,
        online_waiting_times=list(wts or []),
    )


class TestAdjusting:
    def test_no_update_with_too_few_waiting_times(self):
        strategy = AdjustingStrategy(SpesConfig(adjusting_min_new_wts=5))
        state = regular_state(wts=[60, 61])
        strategy.maybe_update(state)
        assert not state.adjusted

    def test_no_update_when_drift_within_tolerance(self):
        strategy = AdjustingStrategy(SpesConfig(adjusting_min_new_wts=3))
        state = regular_state(median=30, std=5, wts=[31, 32, 29, 30, 33])
        strategy.maybe_update(state)
        assert not state.adjusted
        assert state.predictive.discrete == (30,)

    def test_predictive_value_blended_on_large_drift(self):
        strategy = AdjustingStrategy(SpesConfig(adjusting_min_new_wts=3))
        state = regular_state(median=30, std=2, wts=[60, 61, 60, 59, 60])
        strategy.maybe_update(state)
        assert state.adjusted
        # The blended value (old 30, new 60) should appear among predictions.
        assert 45 in state.predictive.discrete
        assert "f" in strategy.adjusted_functions

    def test_window_predictions_shifted(self):
        strategy = AdjustingStrategy(SpesConfig(adjusting_min_new_wts=3))
        state = FunctionState(
            function_id="f",
            category=FunctionCategory.DENSE,
            predictive=PredictiveValues.from_range(2, 5),
            offline_wt_median=3,
            offline_wt_std=1,
            online_waiting_times=[20, 22, 21, 20, 19],
        )
        strategy.maybe_update(state)
        assert state.adjusted
        low, high = state.predictive.window
        assert low > 2

    def test_unknown_function_promoted_to_newly_possible(self):
        strategy = AdjustingStrategy(SpesConfig(adjusting_min_new_wts=3))
        state = FunctionState(
            function_id="f",
            category=FunctionCategory.UNKNOWN,
            online_waiting_times=[120, 120, 120, 5],
            seen_in_training=False,
        )
        strategy.maybe_update(state)
        assert state.category is FunctionCategory.NEWLY_POSSIBLE
        assert not state.predictive.is_empty
        assert "f" in strategy.promoted_functions

    def test_unknown_without_repeats_not_promoted(self):
        strategy = AdjustingStrategy(SpesConfig(adjusting_min_new_wts=3))
        state = FunctionState(
            function_id="f",
            category=FunctionCategory.UNKNOWN,
            online_waiting_times=[10, 20, 30, 40],
            seen_in_training=False,
        )
        strategy.maybe_update(state)
        assert state.category is FunctionCategory.UNKNOWN


class TestAdjustingMatchesReference:
    """Running-median adjusting against the ``statistics.median`` oracle.

    The dict and indexed SPES twins share :class:`AdjustingStrategy`, so the
    policy equivalence harness cannot see a drift here; this replays random
    invocation streams through both strategies instead.
    """

    @staticmethod
    def make_state(rng, category, prefill):
        if category is FunctionCategory.DENSE:
            low = int(rng.integers(1, 20))
            predictive = PredictiveValues.from_range(low, low + int(rng.integers(0, 10)))
        elif category is FunctionCategory.UNKNOWN:
            predictive = PredictiveValues.none()
        else:
            predictive = PredictiveValues.from_discrete(rng.integers(1, 40, size=2).tolist())
        return FunctionState(
            function_id="f",
            category=category,
            predictive=predictive,
            offline_wt_median=float(rng.choice([0.0, 3.0, 12.5, 30.0])),
            offline_wt_std=float(rng.choice([0.0, 0.5, 2.0, 8.0])),
            online_waiting_times=list(prefill),
            seen_in_training=category is not FunctionCategory.UNKNOWN,
        )

    @staticmethod
    def assert_same(state, reference):
        assert state.predictive == reference.predictive
        assert state.offline_wt_median == reference.offline_wt_median
        assert state.offline_wt_std == reference.offline_wt_std
        assert state.adjusted == reference.adjusted
        assert state == reference

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize(
        "category",
        [
            FunctionCategory.REGULAR,
            FunctionCategory.APPRO_REGULAR,
            FunctionCategory.DENSE,
            FunctionCategory.POSSIBLE,
            FunctionCategory.UNKNOWN,
        ],
    )
    def test_random_invocation_streams(self, seed, category):
        rng = np.random.default_rng(seed)
        config = SpesConfig(adjusting_min_new_wts=int(rng.integers(1, 6)))
        prefill = rng.integers(1, 50, size=int(rng.integers(0, 4))).tolist()
        state, reference = (
            self.make_state(np.random.default_rng(seed + 1000), category, prefill)
            for _ in range(2)
        )
        strategy = AdjustingStrategy(config)
        oracle = ReferenceAdjustingStrategy(config)
        self.assert_same(state, reference)

        minute = int(rng.integers(0, 10))
        scale = int(rng.integers(2, 40))
        for step in range(120):
            if step == 60:
                scale = int(rng.integers(2, 80))  # a drift halfway through
            kind = rng.random()
            if kind < 0.15:
                gap = 0  # same minute: no waiting time
            elif kind < 0.3:
                gap = 1  # adjacent minute: no waiting time
            else:
                gap = 2 + int(rng.integers(0, scale))
            minute += gap
            cold = bool(rng.random() < 0.5)
            if rng.random() < 0.05:
                # Waiting times appended behind the sorted view's back.
                extra = int(rng.integers(1, 60))
                state.online_waiting_times.append(extra)
                reference.online_waiting_times.append(extra)
            assert state.record_invocation(minute, cold) == reference.record_invocation(
                minute, cold
            )
            assert strategy.maybe_update(state) == oracle.maybe_update(reference)
            self.assert_same(state, reference)
            assert state.sorted_waiting_times == sorted(state.online_waiting_times)
        assert strategy.adjusted_functions == oracle.adjusted_functions
        assert strategy.promoted_functions == oracle.promoted_functions

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 7, 8])
    def test_even_and_odd_counts(self, count):
        config = SpesConfig(adjusting_min_new_wts=1)
        wts = [50 + 3 * value for value in range(count)][::-1]
        state = regular_state(median=10, std=1, wts=wts)
        reference = regular_state(median=10, std=1, wts=wts)
        assert AdjustingStrategy(config).maybe_update(state)
        assert ReferenceAdjustingStrategy(config).maybe_update(reference)
        self.assert_same(state, reference)


class TestOnlineCorrelation:
    def make_tracker(self, **config_kwargs):
        defaults = dict(
            online_corr_max_candidates=5,
            online_corr_min_observations=2,
            online_corr_drop_margin=0.3,
            online_corr_futility_fires=10,
        )
        defaults.update(config_kwargs)
        return OnlineCorrelationTracker(SpesConfig(**defaults))

    def test_register_and_prewarm(self):
        tracker = self.make_tracker()
        tracker.register_target("target", ["cand1", "cand2"])
        assert tracker.is_tracked("target")
        assert tracker.on_candidate_invoked("cand1", 5) == ["target"]

    def test_unknown_candidate_ignored(self):
        tracker = self.make_tracker()
        tracker.register_target("target", ["cand1"])
        assert tracker.on_candidate_invoked("other", 5) == []

    def test_candidate_limit_respected(self):
        tracker = self.make_tracker(online_corr_max_candidates=2)
        tracker.register_target("target", ["a", "b", "c", "d"])
        assert len(tracker.active_candidates("target")) == 2

    def test_cor_tracking_and_pruning(self):
        tracker = self.make_tracker()
        tracker.register_target("target", ["good", "bad"])
        # "good" fires right before each target invocation, "bad" never does.
        for minute in (10, 30, 50):
            tracker.on_candidate_invoked("good", minute)
            tracker.on_target_invoked("target", minute + 2)
        assert tracker.candidate_cor("target", "good") == 1.0
        assert tracker.candidate_cor("target", "bad") == 0.0
        assert tracker.active_candidates("target") == {"good"}

    def test_futility_pruning_without_target_invocations(self):
        tracker = self.make_tracker(online_corr_futility_fires=3)
        tracker.register_target("target", ["noisy"])
        prewarms = [tracker.on_candidate_invoked("noisy", minute) for minute in range(6)]
        # The first few fires pre-warm the target, later ones are pruned.
        assert prewarms[0] == ["target"]
        assert prewarms[-1] == []

    def test_no_registration_without_candidates(self):
        tracker = self.make_tracker()
        tracker.register_target("target", [])
        assert not tracker.is_tracked("target")
