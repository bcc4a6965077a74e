"""Reference oracle for the batched CPU schedulers.

These are the original one-pool-per-call implementations of the four
disciplines, kept verbatim as the oracle the batched
``repro.simulation.scheduling`` passes must reproduce bit for bit: each
function takes the arrival/service arrays of *one* pool (one node's
events in one minute) and returns their completion times.
:func:`reference_schedule` applies them pool by pool, which is exactly how
the event tracker used to call them.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.simulation.scheduling import QUANTUM_S

_EPS = 1e-9


def fifo_schedule(arrival_s: np.ndarray, service_s: np.ndarray, cores: int) -> np.ndarray:
    """Non-preemptive first-come-first-served over ``M`` cores."""
    n = arrival_s.size
    completion = np.empty(n, dtype=np.float64)
    if n == 0:
        return completion
    order = np.argsort(arrival_s, kind="stable")
    free = [0.0] * cores
    heapq.heapify(free)
    for i in order:
        core_free = heapq.heappop(free)
        start = core_free if core_free > arrival_s[i] else arrival_s[i]
        done = start + service_s[i]
        completion[i] = done
        heapq.heappush(free, done)
    return completion


def _preemptive_schedule(
    arrival_s: np.ndarray,
    service_s: np.ndarray,
    cores: int,
    discipline: str,
    quantum: float | None,
) -> np.ndarray:
    """Shared event loop for the preemptive disciplines.

    ``discipline`` selects the priority key of each ready job (lower runs
    first, ties broken by admission order):

    - ``"srtf"``: remaining service.
    - ``"las"``: attained service.
    - ``"rr"``: time of last scheduling decision (least-recently-run first),
      which with a quantum reproduces round-robin turn taking.

    ``quantum`` bounds each dispatch; ``None`` runs until the next arrival
    or completion (only sound for ``srtf``, whose priorities are stable
    while a job runs).
    """

    n = arrival_s.size
    completion = np.empty(n, dtype=np.float64)
    if n == 0:
        return completion

    # Zero-service jobs complete the instant they arrive; keeping them out of
    # the loop avoids zero-length dispatch steps.
    runnable = service_s > _EPS
    completion[~runnable] = arrival_s[~runnable] + service_s[~runnable]

    order = np.argsort(arrival_s, kind="stable")
    order = order[runnable[order]]
    n_jobs = order.size
    if n_jobs == 0:
        return completion

    remaining = service_s.astype(np.float64).copy()
    attained = np.zeros(n, dtype=np.float64)
    priority = np.zeros(n, dtype=np.float64)
    seq = np.zeros(n, dtype=np.int64)

    active: list[int] = []
    t = 0.0
    next_arrival = 0  # index into ``order``
    finished = 0
    stamp = 0  # monotonically increasing admission / dispatch counter

    while finished < n_jobs:
        if not active:
            job = int(order[next_arrival])
            t = max(t, float(arrival_s[job]))
        # Admit everything that has arrived by ``t``.
        while next_arrival < n_jobs and arrival_s[order[next_arrival]] <= t + _EPS:
            job = int(order[next_arrival])
            seq[job] = stamp
            priority[job] = float(stamp)  # rr: new arrivals join the tail
            stamp += 1
            active.append(job)
            next_arrival += 1

        if discipline == "srtf":
            key = remaining
        elif discipline == "las":
            key = attained
        else:  # rr
            key = priority
        active.sort(key=lambda j: (key[j], seq[j]))
        run = active[:cores]

        # Length of this dispatch: bounded by the shortest remaining service
        # in the run set, the quantum, and the next arrival (which may
        # preempt under srtf / reorder the queue under rr/las).
        step = min(float(remaining[j]) for j in run)
        if quantum is not None and quantum < step:
            step = quantum
        if next_arrival < n_jobs:
            until_arrival = float(arrival_s[order[next_arrival]]) - t
            if until_arrival < step:
                step = max(until_arrival, 0.0)
        if step <= _EPS:
            # Next arrival is (numerically) simultaneous: admit it and
            # re-evaluate the run set before burning CPU time.
            t = float(arrival_s[order[next_arrival]])
            continue

        t += step
        for j in run:
            remaining[j] -= step
            attained[j] += step
            priority[j] = float(stamp)  # rr: just ran -> back of the queue
            stamp += 1
            if remaining[j] <= _EPS:
                completion[j] = t
                finished += 1
        active = [j for j in active if remaining[j] > _EPS]

    return completion


def pool_schedule(
    discipline: str, arrival_s: np.ndarray, service_s: np.ndarray, cores: int
) -> np.ndarray:
    """Completion times of one pool under ``discipline``."""
    if discipline == "fifo":
        return fifo_schedule(arrival_s, service_s, cores)
    quantum = None if discipline == "srtf" else QUANTUM_S
    return _preemptive_schedule(arrival_s, service_s, cores, discipline, quantum)


def reference_schedule(
    discipline: str,
    arrival_s: np.ndarray,
    service_s: np.ndarray,
    cores: int,
    pool: np.ndarray,
) -> np.ndarray:
    """The batched contract, answered one pool at a time by the oracle."""
    completion = np.empty(arrival_s.size, dtype=np.float64)
    for label in np.unique(pool):
        members = pool == label
        completion[members] = pool_schedule(
            discipline, arrival_s[members], service_s[members], cores
        )
    return completion
