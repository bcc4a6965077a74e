"""Intra-node CPU scheduling for the event engine.

The event layer (:mod:`repro.simulation.events`) models *queueing for
provisioning*: cold invocations wait for their function's container to come
up.  This module adds the next stage of the pipeline — *queueing for CPU*.
Each node exposes a finite pool of cores, and every invocation that survives
provisioning must be scheduled onto a core before it can execute.  The pool
is driven by a pluggable :class:`InvocationScheduler`; four textbook
disciplines ship in the registry:

``fifo``
    Non-preemptive first-come-first-served over ``M`` cores.  An invocation
    grabs the earliest-free core and runs to completion.
``rr``
    Round-robin: jobs take turns in fixed quanta (:data:`QUANTUM_S`); a job
    that exhausts its quantum rejoins the tail of the ready queue.
``srtf``
    Shortest-remaining-time-first, fully preemptive: at every instant the
    ``M`` jobs with the least remaining service hold the cores.  Exact
    (event-driven), not quantum-approximated.
``las``
    Least-attained-service: the jobs that have received the least CPU so far
    run next, approximated with the same quantum as ``rr``.  Favours short
    jobs without knowing service times in advance.

The contract is deliberately tiny: a scheduler receives per-invocation
arrival and service times (seconds) plus an integer *pool* label per
invocation, and returns completion times.  Invocations in different pools
never contend; the event tracker labels each ``(minute, node)`` pair as its
own pool and hands many minutes' events to one call.  Pools are
*memoryless across minutes* — the minute-granular engines assume executions
complete within their minute, and the CPU layer inherits that assumption
rather than leaking backlog across the observer boundary (which would
desynchronise the fingerprinted minute aggregates).

Every discipline handles all the pools of a call in one pass: one stable
sort by ``(pool, arrival)``, then an exact loop over plain Python lists, one
pool at a time.  ``fifo`` and ``srtf`` first drop the jobs that provably
never contend (see :func:`_contended`): such a job starts on arrival and
completes at exactly ``arrival + service``, the same float the loop would
compute, so only the remaining jobs pay for the loop.  ``rr`` and ``las``
split each job's service into quanta, so even an uncontended job completes
at a sum of slices rather than ``arrival + service``; they run every job
through their loop.  The one-pool-per-call loops these passes replace are
kept in ``tests/simulation/scheduling_reference.py`` as the oracle the
tests compare against bit for bit.

Determinism: schedulers are pure functions of their inputs (no RNG), so the
only randomness in the CPU layer is the arrival jitter drawn by
:class:`~repro.simulation.events.EventTracker` from its own seeded stream.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

__all__ = [
    "QUANTUM_S",
    "CpuConfig",
    "InvocationScheduler",
    "FifoScheduler",
    "RoundRobinScheduler",
    "SrtfScheduler",
    "LasScheduler",
    "register_scheduler",
    "get_scheduler",
    "scheduler_names",
]

#: Time slice, in seconds, used by the quantum-based disciplines (``rr`` and
#: ``las``).  50 ms matches the order of magnitude of real CFS slices and is
#: short relative to the default 100 ms execution profile, so sharing is
#: visible without making the simulation loop pathological.
QUANTUM_S = 0.05

_EPS = 1e-9

#: Least gap, in seconds, by which a job must clear the busy period before it
#: and the arrival after it to skip the exact loop.  Far above ``_EPS`` (the
#: loops' own admission/completion slack) and above the rounding error of the
#: vectorized busy-period bound on any realistic call.
_CLEAR_MARGIN_S = 1e-6

#: Pool labels of one call must span less than this, the first integer a
#: float64 cannot hold exactly together with its successor.
_MAX_POOL_SPAN = 2**53

#: The exact loop of one discipline: arrivals and services sorted by
#: ``(pool, arrival)``, the bounds of each pool's run of jobs and the core
#: count in; completions out, in the same order.
_PoolLoop = Callable[[List[float], List[float], List[int], int], List[float]]


class InvocationScheduler:
    """Base class for intra-node CPU scheduling disciplines.

    Subclasses implement :meth:`schedule`; instances are stateless and
    shared via the module registry, so ``schedule`` must not keep state
    between calls.
    """

    #: Registry key; subclasses override.
    name = "base"

    def schedule(
        self,
        arrival_s: np.ndarray,
        service_s: np.ndarray,
        cores: int,
        pool: np.ndarray,
    ) -> np.ndarray:
        """Return per-invocation completion times.

        Parameters
        ----------
        arrival_s:
            Time (seconds) each invocation becomes ready to run, i.e. after
            any provisioning wait.  Not necessarily sorted.
        service_s:
            CPU service demand of each invocation, in seconds (``>= 0``).
        cores:
            Number of cores in every pool (``>= 1``).
        pool:
            Integer label of the core pool each invocation queues for.
            Invocations with different labels never contend, so the result
            equals scheduling each pool on its own; labels need not be
            sorted or contiguous, but must span less than ``2**53``.

        Returns
        -------
        numpy.ndarray
            ``completion_s[i] >= arrival_s[i] + service_s[i]`` for every
            invocation; the difference beyond service time is CPU queueing
            delay under this discipline.
        """

        raise NotImplementedError


def _batched(
    arrival_s: np.ndarray,
    service_s: np.ndarray,
    cores: int,
    pool: np.ndarray,
    loop: _PoolLoop,
    *,
    zero_service_queues: bool,
    skip_uncontended: bool,
) -> np.ndarray:
    """Schedule every pool of one call with ``loop``.

    ``zero_service_queues`` keeps jobs of (near-)zero service in the loop
    (non-preemptive ``fifo``, where they wait their turn); otherwise they
    complete on arrival.  ``skip_uncontended`` completes the jobs
    :func:`_contended` clears at ``arrival + service`` without the loop,
    which is exact only for disciplines that run an uncontended job in one
    dispatch.
    """
    n = arrival_s.size
    completion = np.empty(n, dtype=np.float64)
    if n == 0:
        return completion
    # One stable sort by (pool, arrival): complex numbers sort by real part,
    # then imaginary part, and pool offsets below 2**53 are exact as floats.
    offset = pool - pool.min()
    if offset.max() >= _MAX_POOL_SPAN:
        raise ValueError(f"pool labels must span less than 2**53, got {offset.max()}")
    key = np.empty(n, dtype=np.complex128)
    key.real = offset
    key.imag = arrival_s
    order = np.argsort(key, kind="stable")
    arrival = arrival_s[order]
    service = service_s[order]
    labels = pool[order]
    done = arrival + service
    queued = np.ones(n, dtype=bool) if zero_service_queues else service > _EPS
    if skip_uncontended:
        jobs = np.flatnonzero(queued)
        queued[jobs] = _contended(arrival[jobs], service[jobs], labels[jobs])
    jobs = np.flatnonzero(queued)
    if jobs.size:
        queued_labels = labels[jobs]
        cuts = np.flatnonzero(queued_labels[1:] != queued_labels[:-1]) + 1
        done[jobs] = loop(
            arrival[jobs].tolist(),
            service[jobs].tolist(),
            [0, *cuts.tolist(), jobs.size],
            cores,
        )
    completion[order] = done
    return completion


def _contended(
    arrival: np.ndarray, service: np.ndarray, pool: np.ndarray
) -> np.ndarray:
    """Mask of the jobs that may have to share a core.

    Inputs are sorted by ``(pool, arrival)``.  A pool of ``M`` work-conserving
    cores empties no later than a single core fed the same jobs, so a job
    whose single-core predecessor busy period ends before it arrives finds
    every core idle and starts on arrival; if it also completes before the
    next arrival of its pool, the pool is idle again by then and the job
    changes nothing any other job sees.  Both tests hold by at least
    ``_CLEAR_MARGIN_S`` (or the rounding bound below, if larger) for a job
    to be cleared.

    The single-core busy-period end follows the Lindley recursion
    ``end_j = max(end_{j-1}, a_j) + s_j`` with each pool idle at ``t = 0``,
    evaluated for all pools at once in closed form:
    ``end_j = W_j + max_{k <= j} (a_k - W_{k-1})`` over the pool's jobs,
    ``W`` the running service sum, via one ``cumsum`` and one running
    ``maximum.accumulate`` segmented by lifting each pool above the last.
    """
    n = arrival.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(pool[1:], pool[:-1], out=first[1:])
    work = np.cumsum(service)
    before = np.empty(n)
    before[0] = 0.0
    before[1:] = work[:-1]
    lead = arrival - before
    # The pool's idle start at t = 0 joins its first term.
    lead[first] = np.maximum(arrival[first], 0.0) - before[first]
    width = max(arrival.max(), 0.0) - min(arrival.min(), 0.0) + work[-1] + 1.0
    lift = (np.cumsum(first) - 1) * width
    busy_end = work + (np.maximum.accumulate(lead + lift) - lift)
    prev_end = np.empty(n)
    prev_end[1:] = busy_end[:-1]
    prev_end[first] = 0.0
    next_arrival = np.empty(n)
    next_arrival[:-1] = arrival[1:]
    next_arrival[-1] = np.inf
    next_arrival[:-1][first[1:]] = np.inf
    # Sequential sums carry at most ~n ulps of their magnitude; widen the
    # margin on calls big enough for that to approach it.
    rounding = 8 * np.finfo(np.float64).eps * (n * width + lift[-1] + width)
    margin = max(_CLEAR_MARGIN_S, rounding)
    clear = (prev_end < arrival - margin) & (arrival + service < next_arrival - margin)
    return ~clear


def _fifo_pools(
    arrival: List[float], service: List[float], bounds: List[int], cores: int
) -> List[float]:
    """Non-preemptive fifo: each job takes its pool's earliest-free core."""
    done = []
    for lo, hi in zip(bounds, bounds[1:]):
        free = [0.0] * cores  # a heap of the cores' free times
        for a, s in zip(arrival[lo:hi], service[lo:hi]):
            core_free = free[0]
            finish = (core_free if core_free > a else a) + s
            heapq.heapreplace(free, finish)
            done.append(finish)
    return done


def _srtf_pools(
    arrival: List[float], service: List[float], bounds: List[int], cores: int
) -> List[float]:
    """Exact preemptive srtf; every job has service above ``_EPS``.

    The run set is the ``cores`` jobs of least ``[remaining, job]`` (jobs are
    numbered in admission order).  A running job's key only shrinks, so only
    an arrival can displace it; a completion frees a core for the least
    waiting job.
    """
    done = [0.0] * len(arrival)
    for lo, hi in zip(bounds, bounds[1:]):
        waiting: List[List] = []  # heap of [remaining, job]
        running: List[List] = []
        t = 0.0
        admitted = lo
        unfinished = hi - lo
        while unfinished:
            if not running and not waiting and arrival[admitted] > t:
                t = arrival[admitted]
            horizon = t + _EPS
            arrived = admitted < hi and arrival[admitted] <= horizon
            while admitted < hi and arrival[admitted] <= horizon:
                heapq.heappush(waiting, [service[admitted], admitted])
                admitted += 1
            while waiting and len(running) < cores:
                running.append(heapq.heappop(waiting))
            while arrived and waiting:
                worst = max(running)
                if worst < waiting[0]:
                    break
                running.remove(worst)
                running.append(heapq.heapreplace(waiting, worst))

            # Dispatch until the next completion or arrival, whichever is first.
            step = min(running)[0]
            if admitted < hi:
                until_arrival = arrival[admitted] - t
                if until_arrival < step:
                    step = max(until_arrival, 0.0)
            if step <= _EPS:
                # Next arrival is (numerically) simultaneous: admit it first.
                t = arrival[admitted]
                continue

            t += step
            still = []
            for job in running:
                job[0] -= step
                if job[0] <= _EPS:
                    done[job[1]] = t
                    unfinished -= 1
                else:
                    still.append(job)
            running = still
    return done


def _sliced_pools(
    arrival: List[float],
    service: List[float],
    bounds: List[int],
    cores: int,
    least_attained: bool,
) -> List[float]:
    """Quantum-sliced rr (``least_attained=False``) or las.

    Every dispatch lasts at most :data:`QUANTUM_S` and is followed by a
    fresh priority sort: rr runs the least recently dispatched jobs (a
    fresh arrival joins the tail), las the jobs of least attained service,
    ties in admission order.  Every job has service above ``_EPS``.
    """
    n = len(arrival)
    remaining = list(service)
    attained = [0.0] * n
    last_run = [0] * n  # dispatch stamp; unique, so rr needs no tie-break
    done = [0.0] * n
    if least_attained:
        def key(j: int) -> Tuple[float, int]:
            return attained[j], j
    else:
        key = last_run.__getitem__
    stamp = 0
    for lo, hi in zip(bounds, bounds[1:]):
        active: List[int] = []
        t = 0.0
        admitted = lo
        unfinished = hi - lo
        while unfinished:
            if not active:
                t = max(t, arrival[admitted])
            while admitted < hi and arrival[admitted] <= t + _EPS:
                last_run[admitted] = stamp
                stamp += 1
                active.append(admitted)
                admitted += 1
            active.sort(key=key)
            run = active[:cores]

            step = min(remaining[j] for j in run)
            if QUANTUM_S < step:
                step = QUANTUM_S
            if admitted < hi:
                until_arrival = arrival[admitted] - t
                if until_arrival < step:
                    step = max(until_arrival, 0.0)
            if step <= _EPS:
                t = arrival[admitted]
                continue

            t += step
            for j in run:
                remaining[j] -= step
                attained[j] += step
                last_run[j] = stamp
                stamp += 1
                if remaining[j] <= _EPS:
                    done[j] = t
                    unfinished -= 1
            active = [j for j in active if remaining[j] > _EPS]
    return done


_rr_pools = functools.partial(_sliced_pools, least_attained=False)
_las_pools = functools.partial(_sliced_pools, least_attained=True)


class FifoScheduler(InvocationScheduler):
    """Non-preemptive first-come-first-served over ``M`` cores."""

    name = "fifo"

    def schedule(
        self, arrival_s: np.ndarray, service_s: np.ndarray, cores: int, pool: np.ndarray
    ) -> np.ndarray:
        return _batched(
            arrival_s, service_s, cores, pool, _fifo_pools,
            zero_service_queues=True, skip_uncontended=True,
        )


class RoundRobinScheduler(InvocationScheduler):
    """Quantum-based round-robin (:data:`QUANTUM_S` time slices)."""

    name = "rr"

    def schedule(
        self, arrival_s: np.ndarray, service_s: np.ndarray, cores: int, pool: np.ndarray
    ) -> np.ndarray:
        return _batched(
            arrival_s, service_s, cores, pool, _rr_pools,
            zero_service_queues=False, skip_uncontended=False,
        )


class SrtfScheduler(InvocationScheduler):
    """Preemptive shortest-remaining-time-first (exact, event-driven)."""

    name = "srtf"

    def schedule(
        self, arrival_s: np.ndarray, service_s: np.ndarray, cores: int, pool: np.ndarray
    ) -> np.ndarray:
        return _batched(
            arrival_s, service_s, cores, pool, _srtf_pools,
            zero_service_queues=False, skip_uncontended=True,
        )


class LasScheduler(InvocationScheduler):
    """Least-attained-service, quantum-approximated."""

    name = "las"

    def schedule(
        self, arrival_s: np.ndarray, service_s: np.ndarray, cores: int, pool: np.ndarray
    ) -> np.ndarray:
        return _batched(
            arrival_s, service_s, cores, pool, _las_pools,
            zero_service_queues=False, skip_uncontended=False,
        )


_SCHEDULERS: Dict[str, InvocationScheduler] = {}


def register_scheduler(scheduler: InvocationScheduler) -> InvocationScheduler:
    """Add ``scheduler`` to the registry under its :attr:`name`."""

    _SCHEDULERS[scheduler.name] = scheduler
    return scheduler


def get_scheduler(name: str) -> InvocationScheduler:
    """Look up a scheduler by registry name.

    Raises
    ------
    KeyError
        If ``name`` is not registered; the message lists valid names.
    """

    try:
        return _SCHEDULERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; registered: {', '.join(scheduler_names())}"
        ) from None


def scheduler_names() -> Tuple[str, ...]:
    """Sorted tuple of registered scheduler names."""

    return tuple(sorted(_SCHEDULERS))


register_scheduler(FifoScheduler())
register_scheduler(RoundRobinScheduler())
register_scheduler(SrtfScheduler())
register_scheduler(LasScheduler())


@dataclass(frozen=True)
class CpuConfig:
    """Finite-core configuration for the event engine's CPU layer.

    Attributes
    ----------
    cores_per_node:
        Number of cores in each node's pool.  With a cluster configured the
        pool is per node (placement decides which functions contend); without
        one, every function shares a single node-wide pool.
    scheduler:
        Registry name of the :class:`InvocationScheduler` driving the pool
        (``fifo``, ``rr``, ``srtf``, or ``las``).

    Leaving :attr:`~repro.simulation.events.EventConfig.cpu` as ``None``
    models infinitely many cores: no CPU queueing, no extra RNG draws, and
    byte-identical results to the pre-CPU event layer.
    """

    cores_per_node: int
    scheduler: str = "fifo"

    def __post_init__(self) -> None:
        # ``bool`` is an ``int`` subclass, but ``True`` is not a core count.
        if isinstance(self.cores_per_node, bool) or not isinstance(
            self.cores_per_node, (int, np.integer)
        ):
            raise ValueError(
                "cores_per_node must be an integer, got "
                f"{self.cores_per_node!r} ({type(self.cores_per_node).__name__})"
            )
        if self.cores_per_node < 1:
            raise ValueError(
                f"cores_per_node must be >= 1, got {self.cores_per_node}"
            )
        if self.scheduler not in _SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"registered: {', '.join(scheduler_names())}"
            )
