"""Unit tests for the intra-node CPU scheduling disciplines."""

import numpy as np
import pytest
from scheduling_reference import reference_schedule

from repro.simulation.scheduling import (
    QUANTUM_S,
    CpuConfig,
    FifoScheduler,
    InvocationScheduler,
    LasScheduler,
    RoundRobinScheduler,
    SrtfScheduler,
    get_scheduler,
    register_scheduler,
    scheduler_names,
)

A = np.asarray


def _one_pool(scheduler, arrival, service, cores):
    """Schedule every job on one shared pool."""
    return scheduler.schedule(arrival, service, cores, np.zeros(len(arrival), dtype=np.int64))


def _check_invariants(arrival, service, completion):
    arrival = A(arrival, dtype=float)
    service = A(service, dtype=float)
    assert completion.shape == arrival.shape
    assert np.all(completion >= arrival + service - 1e-6)
    assert np.all(np.isfinite(completion))


ALL_SCHEDULERS = ("fifo", "rr", "srtf", "las")


# --------------------------------------------------------------------- #
# Shared contract
# --------------------------------------------------------------------- #
class TestSchedulerContract:
    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_empty_input(self, name):
        done = _one_pool(get_scheduler(name), A([], dtype=float), A([], dtype=float), 2)
        assert done.size == 0

    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_single_job_runs_immediately(self, name):
        done = _one_pool(get_scheduler(name), A([3.0]), A([2.0]), 1)
        assert done == pytest.approx([5.0])

    @pytest.mark.parametrize("name", ("rr", "srtf", "las"))
    def test_zero_service_completes_at_arrival_preemptive(self, name):
        # The preemptive disciplines dispatch zero-service jobs instantly
        # even while a long job holds the core.
        arrival = A([0.0, 0.0, 1.0])
        service = A([5.0, 0.0, 0.0])
        done = _one_pool(get_scheduler(name), arrival, service, 1)
        _check_invariants(arrival, service, done)
        assert done[1] == pytest.approx(0.0)
        assert done[2] == pytest.approx(1.0)

    def test_zero_service_queues_under_fifo(self):
        # fifo is non-preemptive: a zero-service job still waits its turn.
        done = _one_pool(FifoScheduler(), A([0.0, 0.5]), A([5.0, 0.0]), 1)
        assert done[1] == pytest.approx(5.0)
        # ...but completes at arrival when the queue ahead of it is empty.
        done = _one_pool(FifoScheduler(), A([0.0, 1.0]), A([0.0, 2.0]), 1)
        assert done[0] == pytest.approx(0.0)

    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_no_contention_when_cores_cover_jobs(self, name):
        arrival = A([0.0, 0.5, 1.0, 7.0])
        service = A([2.0, 1.0, 3.0, 0.25])
        done = _one_pool(get_scheduler(name), arrival, service, 4)
        assert done == pytest.approx(arrival + service)

    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_unsorted_arrivals_and_conservation(self, name):
        rng = np.random.default_rng(7)
        arrival = rng.uniform(0.0, 60.0, size=40)
        service = rng.uniform(0.0, 2.0, size=40)
        service[::7] = 0.0
        done = _one_pool(get_scheduler(name), arrival, service, 3)
        _check_invariants(arrival, service, done)
        # Work conservation: the pool cannot finish everything faster than
        # the total demand spread over the cores allows.
        assert done.max() >= arrival.min() + service.sum() / 3 - 1e-6

    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_deterministic(self, name):
        rng = np.random.default_rng(11)
        arrival = rng.uniform(0.0, 10.0, size=25)
        service = rng.uniform(0.0, 1.0, size=25)
        scheduler = get_scheduler(name)
        first = _one_pool(scheduler, arrival, service, 2)
        second = _one_pool(scheduler, arrival.copy(), service.copy(), 2)
        assert np.array_equal(first, second)


# --------------------------------------------------------------------- #
# Batched pools against the one-pool-per-call reference
# --------------------------------------------------------------------- #
def _random_call(rng, n_pools):
    """Events of ``n_pools`` labelled pools, some of them left empty."""
    labels = rng.choice(np.arange(-5, 10 * n_pools), size=n_pools, replace=False)
    used = labels[rng.random(n_pools) < 0.8]
    if used.size == 0:
        used = labels[:1]
    n = int(rng.integers(0, 80))
    pool = rng.choice(used, size=n)
    # Rounded arrivals make ties (within and across pools) common; a dense
    # or a sparse window sets how much contention the call sees.
    span = rng.choice([2.0, 10.0, 60.0])
    arrival = np.round(rng.uniform(0.0, span, size=n), int(rng.integers(0, 3)))
    service = rng.exponential(rng.choice([0.05, 0.3, 2.0]), size=n)
    service[rng.random(n) < 0.05] = 0.0
    return arrival, service, pool


class TestBatchedPools:
    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_matches_reference_bit_for_bit(self, name):
        rng = np.random.default_rng(sum(map(ord, name)))
        scheduler = get_scheduler(name)
        for _ in range(150):
            cores = int(rng.integers(1, 5))
            arrival, service, pool = _random_call(rng, int(rng.integers(1, 31)))
            done = scheduler.schedule(arrival, service, cores, pool)
            expected = reference_schedule(name, arrival, service, cores, pool)
            np.testing.assert_array_equal(done.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_pools_are_independent(self, name):
        rng = np.random.default_rng(5)
        scheduler = get_scheduler(name)
        arrival = np.round(rng.uniform(0.0, 5.0, size=40), 1)
        service = rng.exponential(0.5, size=40)
        alone = scheduler.schedule(arrival, service, 2, np.full(40, 3))
        # Other pools with interleaved (and tied) arrivals join the call; the
        # pool's own jobs keep their relative order, which breaks their ties.
        slots = np.sort(rng.choice(100, size=40, replace=False))
        rest = np.setdiff1d(np.arange(100), slots)
        arrival_all, service_all = np.empty(100), np.empty(100)
        pool = rng.choice([-1, 0, 7], size=100)
        arrival_all[slots], service_all[slots], pool[slots] = arrival, service, 3
        arrival_all[rest] = np.round(rng.uniform(0.0, 5.0, size=60), 1)
        service_all[rest] = rng.exponential(0.5, size=60)
        joined = scheduler.schedule(arrival_all, service_all, 2, pool)[slots]
        np.testing.assert_array_equal(joined.view(np.int64), alone.view(np.int64))


    def test_rejects_pool_labels_too_far_apart_for_one_sort(self):
        # Labels 2**53 apart would collide once converted to the float sort key.
        with pytest.raises(ValueError, match="span"):
            get_scheduler("fifo").schedule(
                A([0.0, 1.0]), A([1.0, 1.0]), 1, A([0, 2**53], dtype=np.int64)
            )


# --------------------------------------------------------------------- #
# Discipline-specific behaviour
# --------------------------------------------------------------------- #
class TestFifo:
    def test_orders_by_arrival(self):
        # Second arrival must wait for the first despite being much shorter.
        done = _one_pool(FifoScheduler(), A([0.0, 0.1]), A([10.0, 0.1]), 1)
        assert done == pytest.approx([10.0, 10.1])

    def test_multi_core_earliest_free(self):
        # Two cores: jobs 0 and 1 start immediately; job 2 takes whichever
        # core frees first (job 1's, at t=1).
        done = _one_pool(FifoScheduler(), A([0.0, 0.0, 0.0]), A([4.0, 1.0, 2.0]), 2)
        assert done == pytest.approx([4.0, 1.0, 3.0])

    def test_non_preemptive_convoy(self):
        # The defining fifo pathology: a long job convoys the shorts behind it.
        arrival = A([0.0, 0.5, 0.6])
        service = A([30.0, 0.1, 0.1])
        done = _one_pool(FifoScheduler(), arrival, service, 1)
        assert done[1] >= 30.0 and done[2] >= 30.1


class TestSrtf:
    def test_short_job_preempts_long(self):
        # The long job starts alone; the short arrival takes the core and the
        # long job resumes after it, finishing late by the short's service.
        done = _one_pool(SrtfScheduler(), A([0.0, 1.0]), A([10.0, 1.0]), 1)
        assert done[1] == pytest.approx(2.0)
        assert done[0] == pytest.approx(11.0)

    def test_beats_fifo_on_mean_sojourn(self):
        rng = np.random.default_rng(3)
        arrival = np.sort(rng.uniform(0.0, 30.0, size=60))
        service = rng.exponential(1.5, size=60)
        fifo = _one_pool(FifoScheduler(), arrival, service, 2)
        srtf = _one_pool(SrtfScheduler(), arrival, service, 2)
        assert (srtf - arrival).mean() <= (fifo - arrival).mean() + 1e-9


class TestRoundRobin:
    def test_quantum_sharing_interleaves(self):
        # Two equal jobs on one core finish within a quantum of each other,
        # where fifo would separate them by a full service time.
        service = A([10 * QUANTUM_S, 10 * QUANTUM_S])
        done = _one_pool(RoundRobinScheduler(), A([0.0, 0.0]), service, 1)
        assert abs(done[0] - done[1]) <= QUANTUM_S + 1e-9
        assert done.max() == pytest.approx(20 * QUANTUM_S)


class TestLas:
    def test_fresh_arrival_runs_first(self):
        # By the time the short job arrives the long one has attained a lot
        # of CPU, so least-attained-service schedules the newcomer promptly.
        done = _one_pool(LasScheduler(), A([0.0, 5.0]), A([10.0, 0.2]), 1)
        assert done[1] <= 5.0 + 0.2 + 2 * QUANTUM_S + 1e-9


# --------------------------------------------------------------------- #
# Registry and configuration
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_builtin_names(self):
        assert set(ALL_SCHEDULERS) <= set(scheduler_names())

    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="fifo"):
            get_scheduler("lottery")

    def test_register_roundtrip(self):
        class EchoScheduler(InvocationScheduler):
            name = "test-echo"

            def schedule(self, arrival_s, service_s, cores, pool):
                return arrival_s + service_s

        try:
            register_scheduler(EchoScheduler())
            assert get_scheduler("test-echo").name == "test-echo"
            assert CpuConfig(cores_per_node=1, scheduler="test-echo")
        finally:
            from repro.simulation import scheduling

            scheduling._SCHEDULERS.pop("test-echo", None)


class TestCpuConfig:
    def test_defaults(self):
        config = CpuConfig(cores_per_node=2)
        assert config.scheduler == "fifo"

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError, match="cores_per_node"):
            CpuConfig(cores_per_node=0)

    @pytest.mark.parametrize("cores", [2.5, 2.0, True, "2", None])
    def test_rejects_non_integer_cores(self, cores):
        with pytest.raises(ValueError, match="cores_per_node"):
            CpuConfig(cores_per_node=cores)

    def test_accepts_numpy_integer_cores(self):
        assert CpuConfig(cores_per_node=np.int64(3)).cores_per_node == 3

    def test_suite_rejects_non_integer_cores_at_construction(self):
        from repro.experiments.suite import ExperimentSuite

        with pytest.raises(ValueError, match="cores_per_node"):
            ExperimentSuite(cores=2.5, engine="event")

    def test_rejects_unknown_scheduler(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            CpuConfig(cores_per_node=2, scheduler="lottery")
