"""Known answers for SPES's eviction-deadline calendar on hand-built traces.

``SpesPolicy`` evicts a function at its *eviction deadline*, scheduled
whenever the function is invoked, loaded or held.  Each test below sets up
one eviction reason, steps the policy minute by minute and checks the exact
minutes after which the function is resident.  The dict-stepping oracle
(``DictSpesPolicy``), which re-checks every resident function every minute,
is stepped alongside and must declare the same resident set every minute.
"""

from __future__ import annotations

import numpy as np
from dict_policies import DictSpesPolicy

from repro.core import SpesConfig, SpesPolicy
from repro.core.categories import FunctionCategory
from repro.core.predictive import PredictiveValues
from repro.traces import FunctionRecord, Trace, TriggerType
from repro.traces.schema import TraceMetadata


def _step(invocations, duration, setup=None, links=None, config=None):
    """Resident sets after every minute, from the policy and from its oracle.

    ``invocations`` maps each function id to its invoked minutes; ``setup``
    edits the prepared per-function states (before the policy binds), and
    ``links`` installs offline correlated links ``predictor -> [(target, lag)]``.
    """
    records = [
        FunctionRecord(function_id, "app", "owner", TriggerType.HTTP)
        for function_id in invocations
    ]
    counts = {}
    for function_id, minutes in invocations.items():
        series = np.zeros(duration, dtype=np.int64)
        series[list(minutes)] = 1
        counts[function_id] = series
    trace = Trace(records, counts, TraceMetadata(name="calendar", duration_minutes=duration))

    policy = SpesPolicy(config)
    oracle = DictSpesPolicy(config)
    for each in (policy, oracle):
        each.prepare(trace.records(), None)
        if setup is not None:
            for function_id, state in each.states.items():
                setup(function_id, state)
        if links is not None:
            each._predictor_index = links
    policy.bind_index(trace.invocation_index())

    resident = []
    for minute, step in enumerate(trace.invocation_index().minute_invocations()):
        declared = policy.on_minute(minute, step)
        assert declared == oracle.on_minute(minute, step), minute
        resident.append(declared)
    return resident


def _resident_minutes(resident, function_id):
    return [minute for minute, ids in enumerate(resident) if function_id in ids]


class TestEvictionDeadline:
    def test_idle_boundary_is_exactly_theta_givenup(self):
        def setup(function_id, state):
            state.theta_givenup = 3

        resident = _step({"f": [0]}, 8, setup)
        # Idle for 3 minutes at the end of minute 3: released then (>=).
        assert _resident_minutes(resident, "f") == [0, 1, 2]

    def test_never_invoked_function_counts_idle_from_minute_minus_one(self):
        def setup(function_id, state):
            state.theta_givenup = 3

        # Loaded at minute 0 by a link whose hold ends with the next minute:
        # never invoked, it has been idle since minute -1, so three idle
        # minutes are reached at the end of minute 2.
        config = SpesConfig(theta_prewarm=0)
        resident = _step(
            {"p": [0], "t": []}, 6, setup, links={"p": [("t", 0)]}, config=config
        )
        assert _resident_minutes(resident, "t") == [0, 1]

    def test_correlated_link_hold(self):
        # lag 4, theta_prewarm 2: loaded at 10 + 2, held while next < 17.
        resident = _step({"p": [10], "t": []}, 25, links={"p": [("t", 4)]})
        assert _resident_minutes(resident, "t") == [12, 13, 14, 15]

    def test_online_correlation_hold(self):
        def setup(function_id, state):
            if function_id == "cand":
                state.category = FunctionCategory.REGULAR

        resident = _step({"target": [0], "cand": [5]}, 15, setup)
        # The unseen target's own give-up (1 minute) releases it after minute
        # 0; the candidate firing at 5 holds it while next < 5 + 3 + 1.
        assert _resident_minutes(resident, "target") == [0, 5, 6, 7]

    def test_prediction_window_keeps_the_function_resident(self):
        def setup(function_id, state):
            state.theta_givenup = 2
            state.predictive = PredictiveValues.from_discrete([1])

        # Window (1 - 2, 1 + 2) relative to the last invocation: the idle
        # deadline at minute 2 lands inside it, so minute 3 releases it.  The
        # window starts before the invocation, so no pre-warm hold exists.
        resident = _step({"f": [0]}, 8, setup)
        assert _resident_minutes(resident, "f") == [0, 1, 2]

    def test_prediction_prewarm_reloads_before_the_predicted_minute(self):
        def setup(function_id, state):
            state.predictive = PredictiveValues.from_discrete([10])

        # Released after its 1-minute give-up, pre-warmed at 0 + 10 - 2 and
        # held while next <= 10 + 2.
        resident = _step({"f": [0]}, 20, setup)
        assert _resident_minutes(resident, "f") == [0, 8, 9, 10, 11]

    def test_always_warm_function_is_never_evicted(self):
        def setup(function_id, state):
            state.category = FunctionCategory.ALWAYS_WARM

        resident = _step({"f": [3]}, 40, setup)
        assert _resident_minutes(resident, "f") == list(range(3, 40))

    def test_hold_raised_after_the_deadline_was_scheduled(self):
        def setup(function_id, state):
            if function_id == "f":
                state.theta_givenup = 3

        # f's deadline is minute 3 when it is invoked at 0; the link fired at
        # 2 holds it while next < 2 + 0 + 2 + 1, so the minute-3 calendar
        # entry is stale and minute 4 releases it.
        resident = _step({"f": [0], "p": [2]}, 10, setup, links={"p": [("f", 0)]})
        assert _resident_minutes(resident, "f") == [0, 1, 2, 3]

    def test_invocation_moves_the_deadline(self):
        def setup(function_id, state):
            state.theta_givenup = 3

        # Invoked at 0 (deadline 3) and again at 2: the stale minute-3 entry
        # must not release it; the new deadline is 5.
        resident = _step({"f": [0, 2]}, 10, setup)
        assert _resident_minutes(resident, "f") == [0, 1, 2, 3, 4]
