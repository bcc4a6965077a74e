"""Tests for the memory accountant, charged minute by minute.

``MinuteAccountant`` is the reference loop's accountant: the shipped
:class:`~repro.simulation.MemoryAccountant` plus its per-minute
``observe_minute``.
"""

import numpy as np
import pytest

from reference_engine import MinuteAccountant
from repro.simulation import MemoryAccountant


class TestMemoryAccountant:
    def test_rejects_non_positive_duration(self):
        with pytest.raises(ValueError):
            MemoryAccountant(0)

    def test_usage_and_idle_series(self):
        accountant = MinuteAccountant(3)
        accountant.observe_minute(0, {"a", "b"}, {"a": 1})
        accountant.observe_minute(1, {"a"}, {})
        accountant.observe_minute(2, set(), {})
        np.testing.assert_array_equal(accountant.usage_series, [2, 1, 0])
        np.testing.assert_array_equal(accountant.idle_series, [1, 1, 0])

    def test_wasted_memory_time_total_and_per_function(self):
        accountant = MinuteAccountant(3)
        accountant.observe_minute(0, {"a", "b"}, {"a": 1})
        accountant.observe_minute(1, {"a", "b"}, {"b": 2})
        accountant.observe_minute(2, {"b"}, {})
        assert accountant.wasted_memory_time == 3
        assert accountant.wmt_per_function == {"a": 1, "b": 2}

    def test_emcr(self):
        accountant = MinuteAccountant(2)
        accountant.observe_minute(0, {"a", "b"}, {"a": 1})
        accountant.observe_minute(1, {"a", "b"}, {"a": 1, "b": 1})
        # 3 active instance-minutes out of 4 loaded instance-minutes.
        assert accountant.effective_memory_consumption_ratio == pytest.approx(0.75)

    def test_emcr_zero_when_nothing_loaded(self):
        accountant = MinuteAccountant(2)
        accountant.observe_minute(0, set(), {})
        assert accountant.effective_memory_consumption_ratio == 0.0

    def test_average_and_peak_memory(self):
        accountant = MinuteAccountant(2)
        accountant.observe_minute(0, {"a"}, {"a": 1})
        accountant.observe_minute(1, {"a", "b", "c"}, {})
        assert accountant.average_memory_usage == pytest.approx(2.0)
        assert accountant.peak_memory_usage == 3

    def test_out_of_range_minute_rejected(self):
        accountant = MinuteAccountant(1)
        with pytest.raises(IndexError):
            accountant.observe_minute(5, set(), {})

    def test_invoked_but_unlisted_function_not_charged(self):
        accountant = MinuteAccountant(1)
        # A function invoked but not in the loaded set contributes nothing.
        accountant.observe_minute(0, {"a"}, {"a": 1, "ghost": 1})
        assert accountant.wasted_memory_time == 0
        assert accountant.usage_series[0] == 1
