"""Tests for the per-function online state."""

from repro.core.categories import FunctionCategory
from repro.core.state import FunctionState


def make_state(**kwargs):
    defaults = dict(function_id="f", category=FunctionCategory.REGULAR)
    defaults.update(kwargs)
    return FunctionState(**defaults)


class TestRecordInvocation:
    def test_first_invocation_produces_no_waiting_time(self):
        state = make_state()
        assert state.record_invocation(10, cold=True) is None
        assert state.invocation_count == 1
        assert state.cold_start_count == 1

    def test_gap_produces_waiting_time(self):
        state = make_state()
        state.record_invocation(10, cold=True)
        wt = state.record_invocation(15, cold=False)
        assert wt == 4
        assert state.online_waiting_times == [4]

    def test_consecutive_invocations_produce_no_waiting_time(self):
        state = make_state()
        state.record_invocation(10, cold=True)
        assert state.record_invocation(11, cold=False) is None
        assert state.online_waiting_times == []

    def test_cold_start_rate(self):
        state = make_state()
        state.record_invocation(0, cold=True)
        state.record_invocation(5, cold=False)
        assert state.cold_start_rate == 0.5


class TestSortedWaitingTimes:
    def test_record_invocation_keeps_the_view_sorted(self):
        state = make_state()
        for minute in (0, 10, 12, 13, 40, 45, 45, 46, 60):
            state.record_invocation(minute, cold=False)
        assert state.online_waiting_times == [9, 1, 26, 4, 13]
        assert state.sorted_waiting_times == [1, 4, 9, 13, 26]

    def test_prefilled_list_is_sorted_at_construction(self):
        state = make_state(online_waiting_times=[31, 32, 29, 30, 33])
        assert state.sorted_waiting_times == [29, 30, 31, 32, 33]
        state.record_invocation(0, cold=True)
        state.record_invocation(29, cold=False)
        assert state.online_waiting_times == [31, 32, 29, 30, 33, 28]
        assert state.sorted_waiting_times == [28, 29, 30, 31, 32, 33]

    def test_direct_appends_resync_the_view(self):
        state = make_state()
        state.record_invocation(0, cold=True)
        state.record_invocation(5, cold=False)
        state.online_waiting_times.append(2)
        state.online_waiting_times.append(7)
        assert state.sorted_waiting_times == [2, 4, 7]
        # An insort after an out-of-band append must not miss the appended value.
        state.online_waiting_times.append(1)
        state.record_invocation(9, cold=False)
        assert state.online_waiting_times == [4, 2, 7, 1, 3]
        assert state.sorted_waiting_times == [1, 2, 3, 4, 7]

    def test_view_does_not_affect_equality(self):
        state = make_state(online_waiting_times=[3, 1, 2])
        other = make_state(online_waiting_times=[3, 1])
        other.online_waiting_times.append(2)  # its view is stale until read
        assert state == other
        assert "sorted" not in repr(state)
