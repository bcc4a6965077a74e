"""The latency feedback loop: window maintenance, engine wiring, consumers.

Three layers under test:

* :class:`~repro.simulation.events.LatencyWindow` and the tracker's rolling
  window bookkeeping (accumulate, expire, NaN-free means);
* the ``event`` engine's feedback wiring — the window reaches exactly the
  policies that override ``on_feedback`` (dict policies through the
  adapter included), once per minute, and a no-op override leaves every
  registry policy's fingerprint and latency samples untouched;
* :class:`~repro.baselines.latency_aware.LatencyAwareKeepAlivePolicy`, the
  first consumer — including the PR's acceptance bar: it must beat the fixed
  keep-alive on p99 cold-start latency on a continuous-drift scenario.
"""

import dataclasses

import numpy as np
import pytest

from harness import POLICY_PAIRS, listening, random_cluster, simulate_column
from reference_engine import ORACLE
from repro.baselines import FixedKeepAlivePolicy, LatencyAwareKeepAlivePolicy
from repro.scenarios import build_scenario
from repro.simulation import (
    CpuConfig,
    EventConfig,
    EventTracker,
    LatencyWindow,
    ProvisioningPolicy,
    RunSpec,
    Simulator,
    simulate_policy,
)
from repro.simulation.policy_base import listens_to_feedback
from repro.simulation.spec import ENGINE_IMPLEMENTATIONS
from repro.traces import AzureTraceGenerator, GeneratorProfile, split_trace


@pytest.fixture(scope="module")
def split():
    trace = AzureTraceGenerator(GeneratorProfile.small(seed=13)).generate()
    return split_trace(trace, training_days=2.0)


def window(tracker, minute, invoked, counts, cold):
    """Drive one observed minute and return the advanced window."""
    invoked = np.asarray(invoked, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    cold_mask = np.zeros(invoked.size, dtype=bool)
    cold_mask[: len(cold)] = cold
    tracker.observe_minute(minute, invoked, counts, cold_mask, None)
    return tracker.feedback_window(minute)


class TestLatencyWindow:
    def _tracker(self, split, **config):
        return EventTracker(
            split.simulation,
            EventConfig(derive_profiles=False, **config),
            feedback=True,
        )

    def test_all_warm_window_is_zero_and_nan_free(self, split):
        tracker = self._tracker(split)
        tracker.observe_minute(
            0,
            np.array([0, 1], dtype=np.int64),
            np.array([3, 1], dtype=np.int64),
            np.zeros(2, dtype=bool),
            None,
        )
        snapshot = tracker.feedback_window(0)
        assert snapshot.total_events == 0
        assert snapshot.cold_events.sum() == 0
        means = snapshot.mean_wait_ms()
        assert not np.isnan(means).any()
        assert (means == 0.0).all()

    def test_cold_initiation_lands_in_the_window(self, split):
        tracker = self._tracker(split)
        snapshot = window(tracker, 0, [0], [1], [True])
        assert snapshot.cold_events[0] == 1
        assert snapshot.total_wait_ms[0] == pytest.approx(
            EventConfig().default_profile.cold_start_ms
        )
        assert snapshot.mean_wait_ms()[0] == pytest.approx(
            EventConfig().default_profile.cold_start_ms
        )

    def test_window_expires_old_minutes(self, split):
        tracker = self._tracker(split, feedback_window_minutes=5)
        window(tracker, 0, [0], [1], [True])
        # Advance 5 empty minutes: the minute-0 chunk must roll out.
        for minute in range(1, 5):
            assert tracker.feedback_window(minute).cold_events[0] == 1
        snapshot = tracker.feedback_window(5)
        assert snapshot.cold_events[0] == 0
        assert snapshot.total_wait_ms[0] == 0.0

    def test_window_accumulates_across_minutes(self, split):
        tracker = self._tracker(split, feedback_window_minutes=60)
        window(tracker, 0, [0], [1], [True])
        snapshot = window(tracker, 1, [0], [1], [True])
        assert snapshot.cold_events[0] == 2
        assert snapshot.minute == 1
        assert snapshot.window_minutes == 60

    def test_snapshot_is_isolated_from_later_minutes(self, split):
        tracker = self._tracker(split)
        early = window(tracker, 0, [0], [1], [True])
        window(tracker, 1, [0], [1], [True])
        assert early.cold_events[0] == 1  # not mutated retroactively

    def test_plain_event_tracker_refuses_feedback(self, split):
        tracker = EventTracker(split.simulation, EventConfig())
        with pytest.raises(RuntimeError, match="not configured for feedback"):
            tracker.feedback_window(0)

    def test_feedback_window_must_be_positive(self):
        with pytest.raises(ValueError, match="feedback_window_minutes"):
            EventConfig(feedback_window_minutes=0)


class TestFeedbackEngineWiring:
    def test_event_feedback_is_not_an_engine(self):
        assert ENGINE_IMPLEMENTATIONS == ("vectorized", "event")
        with pytest.raises(ValueError, match="unknown engine 'event-feedback'"):
            RunSpec(engine="event-feedback")

    def test_listening_means_overriding_the_hook(self):
        assert not listens_to_feedback(FixedKeepAlivePolicy(10))
        assert listens_to_feedback(LatencyAwareKeepAlivePolicy())
        assert listens_to_feedback(listening(FixedKeepAlivePolicy(10)))

    def test_default_hook_costs_no_window(self, split, monkeypatch):
        def refuse(*args):
            raise AssertionError("window built for a policy that does not listen")

        monkeypatch.setattr(EventTracker, "feedback_window", refuse)
        monkeypatch.setattr(EventTracker, "_accumulate_window", refuse)
        simulate_policy(
            FixedKeepAlivePolicy(10), split.simulation, warmup_minutes=0, engine="event"
        )

    def test_feedback_run_carries_a_latency_block(self, split):
        result = simulate_policy(
            LatencyAwareKeepAlivePolicy(),
            split.simulation,
            split.training,
            warmup_minutes=60,
            engine="event",
        )
        assert result.latency is not None
        assert result.latency.cold_start_events == result.total_cold_starts

    def test_feedback_hook_sees_every_minute(self, split):
        minutes = []

        class Probe(FixedKeepAlivePolicy):
            def on_feedback(self, minute, latency_window):
                assert isinstance(latency_window, LatencyWindow)
                minutes.append(minute)

        simulate_policy(Probe(10), split.simulation, warmup_minutes=0, engine="event")
        assert minutes == list(range(split.simulation.duration_minutes))

    def test_minute_granular_engines_never_fire_the_hook(self, split):
        fired = []

        class Probe(FixedKeepAlivePolicy):
            def on_feedback(self, minute, latency_window):
                fired.append(minute)

        for engine in ("vectorized", ORACLE):
            simulate_column(
                Probe(10), split.simulation, warmup_minutes=0, engine=engine
            )
        assert fired == []

    @pytest.mark.parametrize(
        "engine, expected_windows", [("event", 1), ("vectorized", 0), (ORACLE, 0)]
    )
    def test_dict_policy_override_gets_one_window_per_minute(
        self, split, engine, expected_windows
    ):
        """A third-party dict policy listens through the adapter."""
        minutes = []

        class ThirdParty(ProvisioningPolicy):
            name = "third-party"

            def on_minute(self, minute, invocations):
                return set(invocations)

            def on_feedback(self, minute, latency_window):
                assert isinstance(latency_window, LatencyWindow)
                minutes.append(minute)

        simulate_column(
            ThirdParty(), split.simulation, warmup_minutes=0, engine=engine
        )
        duration = split.simulation.duration_minutes
        assert minutes == list(range(duration)) * expected_windows

    def test_event_config_accepted_by_event_engine_only(self, split):
        with pytest.raises(ValueError, match="event engine"):
            Simulator(split.simulation, events=EventConfig(), engine="vectorized")
        Simulator(split.simulation, events=EventConfig(), engine="event")


def assert_same_latency(first, second):
    """Every field of two :class:`LatencyStats`, arrays sample by sample."""
    for field in dataclasses.fields(first):
        a, b = getattr(first, field.name), getattr(second, field.name)
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=field.name)
        elif isinstance(a, dict):
            assert a.keys() == b.keys(), field.name
            for key in a:
                np.testing.assert_array_equal(a[key], b[key], err_msg=key)
        else:
            assert a == b, field.name


class TestNoOpHookEquivalence:
    """A no-op ``on_feedback`` override leaves every registry policy alone.

    The override switches the window bookkeeping on; fingerprints *and*
    latency samples must still equal the plain ``event`` run's, so the
    bookkeeping can touch neither minute-granular state nor the jitter
    stream.  Pinned pair by pair, with and without capacity pressure, so a
    regression names the exact policy the feedback plumbing perturbed.
    """

    def _pair(self, factory, split, **options):
        return [
            simulate_policy(
                policy,
                split.simulation,
                split.training,
                warmup_minutes=120,
                engine="event",
                **options,
            )
            for policy in (factory(), listening(factory()))
        ]

    @pytest.mark.parametrize("dict_factory, indexed_factory", POLICY_PAIRS)
    def test_listening_no_op_changes_nothing(
        self, split, dict_factory, indexed_factory
    ):
        plain, listened = self._pair(indexed_factory, split)
        assert plain.deterministic_fingerprint() == listened.deterministic_fingerprint()
        assert_same_latency(plain.latency, listened.latency)

    def test_no_op_equivalence_holds_under_capacity_pressure(self, split):
        plain, listened = self._pair(
            lambda: FixedKeepAlivePolicy(10),
            split,
            cluster=random_cluster(3, split),
            events=EventConfig(cpu=CpuConfig(cores_per_node=2, scheduler="srtf")),
        )
        assert plain.deterministic_fingerprint() == listened.deterministic_fingerprint()
        assert_same_latency(plain.latency, listened.latency)


class TestLatencyAwareKeepAlive:
    def _window(self, cold_events, total_wait_ms, minute=0, horizon=60):
        return LatencyWindow(
            minute=minute,
            window_minutes=horizon,
            cold_events=np.asarray(cold_events, dtype=np.int64),
            total_wait_ms=np.asarray(total_wait_ms, dtype=float),
        )

    def _bound(self, split, **kwargs):
        policy = LatencyAwareKeepAlivePolicy(**kwargs)
        policy.prepare(split.simulation.records(), None)
        policy.bind_index(split.simulation.invocation_index())
        return policy

    def test_extends_expensive_and_shrinks_cheap(self, split):
        policy = self._bound(split, base_keep_alive_minutes=10, cost_exponent=1.0)
        n = split.simulation.invocation_index().n_functions
        cold = np.zeros(n, dtype=np.int64)
        wait = np.zeros(n, dtype=float)
        # One event each; the event-weighted pivot is (1000+100+550)/3 = 550,
        # so function 2 sits exactly at the pivot.
        cold[0], wait[0] = 1, 1000.0
        cold[1], wait[1] = 1, 100.0
        cold[2], wait[2] = 1, 550.0
        policy.on_feedback(0, self._window(cold, wait))
        horizons = policy.keep_alive_minutes
        assert horizons[0] > 10  # expensive: extended
        assert horizons[1] < 10  # cheap: shrunk
        assert horizons[2] == 10  # at the pivot: base preserved
        assert horizons[3] == 10  # unobserved: untouched

    def test_horizons_are_clamped(self, split):
        policy = self._bound(
            split,
            base_keep_alive_minutes=10,
            min_keep_alive_minutes=2,
            max_keep_alive_minutes=30,
            cost_exponent=3.0,
        )
        n = split.simulation.invocation_index().n_functions
        cold = np.zeros(n, dtype=np.int64)
        wait = np.zeros(n, dtype=float)
        cold[0], wait[0] = 1, 10_000.0
        cold[1], wait[1] = 100, 100.0
        policy.on_feedback(0, self._window(cold, wait))
        horizons = policy.keep_alive_minutes
        assert horizons[0] == 30 and horizons[1] == 2

    def test_all_warm_window_changes_nothing(self, split):
        policy = self._bound(split)
        n = split.simulation.invocation_index().n_functions
        before = policy.keep_alive_minutes
        policy.on_feedback(0, self._window(np.zeros(n), np.zeros(n)))
        np.testing.assert_array_equal(before, policy.keep_alive_minutes)

    def test_zero_cost_window_keeps_horizons_nan_free(self, split):
        """Cold events with all-zero waits (cold_start_scale=0) carry no
        cost signal: the relative pivot is 0 and the policy must keep its
        horizons rather than divide by it."""
        policy = self._bound(split)
        n = split.simulation.invocation_index().n_functions
        cold = np.zeros(n, dtype=np.int64)
        cold[:3] = 2
        policy.on_feedback(0, self._window(cold, np.zeros(n)))
        assert (policy.keep_alive_minutes == 10).all()

    def test_fixed_reference_pivot_is_honoured(self, split):
        policy = self._bound(
            split, cost_exponent=1.0, reference_cold_start_ms=100.0
        )
        n = split.simulation.invocation_index().n_functions
        cold = np.zeros(n, dtype=np.int64)
        wait = np.zeros(n, dtype=float)
        cold[0], wait[0] = 1, 200.0  # 2x the fixed pivot
        policy.on_feedback(0, self._window(cold, wait))
        assert policy.keep_alive_minutes[0] == 20

    def test_reset_restores_base_horizons(self, split):
        policy = self._bound(split)
        n = split.simulation.invocation_index().n_functions
        cold = np.zeros(n, dtype=np.int64)
        wait = np.zeros(n, dtype=float)
        cold[0], wait[0] = 1, 5000.0
        policy.on_feedback(0, self._window(cold, wait))
        policy.reset()
        assert (policy.keep_alive_minutes == 10).all()

    def test_degrades_to_fixed_keepalive_off_the_event_engine(self, split):
        fixed = simulate_policy(
            FixedKeepAlivePolicy(10),
            split.simulation,
            split.training,
            warmup_minutes=120,
        )
        latency_aware = simulate_policy(
            LatencyAwareKeepAlivePolicy(base_keep_alive_minutes=10),
            split.simulation,
            split.training,
            warmup_minutes=120,
        )
        # Same decisions, different policy name: compare the per-function
        # statistics rather than the (name-hashing) fingerprint.
        assert {
            f: (s.invocations, s.cold_starts, s.wasted_memory_time)
            for f, s in fixed.per_function.items()
        } == {
            f: (s.invocations, s.cold_starts, s.wasted_memory_time)
            for f, s in latency_aware.per_function.items()
        }

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            LatencyAwareKeepAlivePolicy(base_keep_alive_minutes=0)
        with pytest.raises(ValueError):
            LatencyAwareKeepAlivePolicy(
                min_keep_alive_minutes=10, max_keep_alive_minutes=5
            )
        with pytest.raises(ValueError):
            LatencyAwareKeepAlivePolicy(cost_exponent=0.0)
        with pytest.raises(ValueError):
            LatencyAwareKeepAlivePolicy(reference_cold_start_ms=-1.0)


class TestClosedLoopOutcomes:
    """The loop, closed end to end on a continuous-drift scenario."""

    SHAPE = dict(seed=7, n_functions=40, days=3.0, training_days=2.0)

    def _run(self, policy, workload, engine):
        return simulate_policy(
            policy,
            workload.split.simulation,
            workload.split.training,
            warmup_minutes=0,
            engine=engine,
            events=workload.events if engine == "event" else None,
        )

    def test_feedback_actually_changes_latency_aware_decisions(self):
        workload = build_scenario("seasonal-mix", **self.SHAPE)
        open_loop = self._run(
            LatencyAwareKeepAlivePolicy(), workload, engine="vectorized"
        )
        closed_loop = self._run(
            LatencyAwareKeepAlivePolicy(), workload, engine="event"
        )
        assert (
            open_loop.deterministic_fingerprint()
            != closed_loop.deterministic_fingerprint()
        )

    def test_closed_loop_runs_are_deterministic(self):
        workload = build_scenario("seasonal-mix", **self.SHAPE)
        first = self._run(LatencyAwareKeepAlivePolicy(), workload, engine="event")
        second = self._run(LatencyAwareKeepAlivePolicy(), workload, engine="event")
        assert (
            first.deterministic_fingerprint() == second.deterministic_fingerprint()
        )
        np.testing.assert_array_equal(
            first.latency.cold_wait_ms, second.latency.cold_wait_ms
        )

    def test_latency_aware_beats_fixed_on_p99_under_continuous_drift(self):
        """The PR's acceptance criterion, pinned on seasonal-mix.

        Under streaming evaluation (no training window) on the event
        engine, the latency-aware policy's pooled p99 cold-start wait must
        be strictly below the fixed keep-alive's at the same base horizon.
        """
        from repro.experiments import ExperimentConfig, ExperimentSuite

        config = ExperimentConfig(
            n_functions=self.SHAPE["n_functions"],
            seed=self.SHAPE["seed"],
            duration_days=self.SHAPE["days"],
            training_days=self.SHAPE["training_days"],
            warmup_minutes=0,
        )
        outcome = ExperimentSuite(
            config=config,
            seeds=(self.SHAPE["seed"],),
            policies=("fixed-10min", "latency-keepalive"),
            scenario="seasonal-mix",
            engine="event",
            streaming=True,
        ).run()
        stats = {
            policy: outcome.merged_latency(policy)
            for policy in ("fixed-10min", "latency-keepalive")
        }
        assert (
            stats["latency-keepalive"].p99_ms
            < stats["fixed-10min"].p99_ms
        )
        # ... and not by trading the whole distribution away: p95 too.
        assert (
            stats["latency-keepalive"].p95_ms
            < stats["fixed-10min"].p95_ms
        )
