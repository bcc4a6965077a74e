"""Defuse: dependency-guided function scheduling (Shen et al., ICDCS'21).

Defuse mines inter-function dependencies from invocation histories and uses
them to pre-warm functions that are about to be triggered by their
predecessors.  Functions without useful dependencies fall back to a
histogram-based keep-alive (and, for the long tail without a usable
histogram, to a fixed keep-alive), which is why the paper observes that more
than 32% of functions end up on the fixed fallback.

The reproduction models the two dependency flavours described in the paper:

* *strong* dependencies -- the successor follows the predecessor within a
  short lag for a large fraction of the predecessor's invocations;
* *weak* dependencies -- the pair frequently co-occurs inside a longer
  window, with a lower confidence requirement.

Both kinds cause the successor to be pre-warmed whenever the predecessor is
invoked; strong dependencies use a tighter pre-warm window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.baselines.hybrid import HybridFunctionPolicy
from repro.simulation.vector_policy import NEVER_MINUTE
from repro.traces.schema import FunctionRecord
from repro.traces.trace import InvocationIndex, Trace

#: Stands in for "no successor minute after this fire" in dependency mining.
_NO_LATER_MINUTE = np.iinfo(np.int64).max


@dataclass(frozen=True)
class Dependency:
    """A mined directed dependency ``predecessor -> successor``."""

    predecessor: str
    successor: str
    confidence: float
    lag_window: int
    strong: bool


def mine_dependencies(
    training: Trace,
    candidate_groups: Mapping[str, Sequence[str]],
    strong_lag: int = 2,
    weak_lag: int = 10,
    strong_confidence: float = 0.8,
    weak_confidence: float = 0.5,
    min_support: int = 3,
) -> List[Dependency]:
    """Mine directed dependencies between functions sharing a group (application).

    Parameters
    ----------
    training:
        Training trace to mine from.
    candidate_groups:
        Mapping from group id to the function ids it contains; only pairs
        within the same group are considered, which keeps mining tractable
        (the original system also scopes mining to related functions).
    strong_lag / weak_lag:
        Maximum lag (minutes) for strong / weak dependencies.
    strong_confidence / weak_confidence:
        Minimum fraction of predecessor invocations followed by the successor
        within the lag window.
    min_support:
        Minimum number of predecessor invocations required before a pair is
        considered at all.
    """
    dependencies: List[Dependency] = []
    for members in candidate_groups.values():
        members = [fid for fid in members if fid in training]
        if len(members) < 2:
            continue
        minutes = [training.row(fid)[0] for fid in members]
        # A never-invoked predecessor has no support to divide by.
        predecessors = [
            i for i, pred in enumerate(minutes) if pred.size >= max(min_support, 1)
        ]
        if not predecessors:
            continue
        # Every predecessor invocation at minute m opens the windows
        # [m + 1, m + strong_lag] and [m + 1, m + weak_lag]; both hit when
        # the first successor minute after m is close enough, so one
        # searchsorted of all predecessors' minutes per successor serves
        # both lags, and the hits are summed per predecessor segment.  The
        # weak window counts strong hits too, also when it is the shorter.
        pred_minutes = np.concatenate([minutes[i] for i in predecessors])
        sizes = [minutes[i].size for i in predecessors]
        segments = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        weak_reach = max(strong_lag, weak_lag)

        strong_hits = np.zeros((len(predecessors), len(members)), dtype=np.int64)
        weak_hits = np.zeros_like(strong_hits)
        for j, succ_minutes in enumerate(minutes):
            if succ_minutes.size == 0:
                continue
            # A sentinel past every minute: a fire with no later successor
            # minute gets a gap no window reaches.
            padded = np.append(succ_minutes, _NO_LATER_MINUTE)
            gap = padded[padded.searchsorted(pred_minutes, side="right")] - pred_minutes
            strong_hits[:, j] = np.add.reduceat(gap <= strong_lag, segments, dtype=np.int64)
            weak_hits[:, j] = np.add.reduceat(gap <= weak_reach, segments, dtype=np.int64)

        for row, i in enumerate(predecessors):
            predecessor = members[i]
            support = sizes[row]
            for j, successor in enumerate(members):
                if successor == predecessor or minutes[j].size == 0:
                    continue
                strong_conf = int(strong_hits[row, j]) / support
                weak_conf = int(weak_hits[row, j]) / support
                if strong_conf >= strong_confidence:
                    dependencies.append(
                        Dependency(predecessor, successor, strong_conf, strong_lag, True)
                    )
                elif weak_conf >= weak_confidence:
                    dependencies.append(
                        Dependency(predecessor, successor, weak_conf, weak_lag, False)
                    )
    return dependencies


class DefusePolicy(HybridFunctionPolicy):
    """Dependency-guided scheduling on top of a per-function histogram keep-alive.

    The offline phase seeds the histograms through the hybrid base, then runs
    :func:`mine_dependencies` over app-scoped candidate groups.  Binding
    compiles the mined set into one list of ``(successor position, pre-warm
    lag)`` edges per predecessor position; a minute then costs the hybrid
    base's decision plus a Python loop over the invoked predecessors'
    edges, raising each successor's horizon to ``minute + lag`` by scalar
    ``max``, and one ``horizon > minute`` comparison OR-ed into the
    residency mask: extend, expire, union.

    Not ``shard_safe`` despite the per-function histogram base: mined
    dependencies pre-warm *other* functions, which a partition can separate
    from their predecessors.

    Parameters
    ----------
    strong_lag, weak_lag:
        Pre-warm windows (minutes) applied to strong and weak successors.
    strong_confidence, weak_confidence, min_support:
        Dependency-mining thresholds (see :func:`mine_dependencies`).
    uncertain_keep_alive_minutes:
        Fallback keep-alive for functions without a representative histogram.
        Defuse's fallback is the fixed keep-alive policy, so the default is
        the paper's 10-minute window rather than the hybrid policy's
        histogram range.
    """

    name = "defuse"
    shard_safe = False

    def __init__(
        self,
        histogram_range_minutes: int = 240,
        head_percentile: float = 5.0,
        tail_percentile: float = 99.0,
        uncertain_keep_alive_minutes: int = 10,
        min_samples: int = 10,
        strong_lag: int = 2,
        weak_lag: int = 10,
        strong_confidence: float = 0.8,
        weak_confidence: float = 0.5,
        min_support: int = 3,
    ) -> None:
        super().__init__(
            histogram_range_minutes=histogram_range_minutes,
            head_percentile=head_percentile,
            tail_percentile=tail_percentile,
            uncertain_keep_alive_minutes=uncertain_keep_alive_minutes,
            min_samples=min_samples,
        )
        self.strong_lag = strong_lag
        self.weak_lag = weak_lag
        self.strong_confidence = strong_confidence
        self.weak_confidence = weak_confidence
        self.min_support = min_support
        self._mined: List[Dependency] = []

    # ------------------------------------------------------------------ #
    def prepare(
        self,
        functions: Sequence[FunctionRecord],
        training: Trace | None = None,
    ) -> None:
        super().prepare(functions, training)
        self._mined = []
        if training is None:
            return
        groups: Dict[str, List[str]] = {}
        for record in functions:
            groups.setdefault(record.app_id, []).append(record.function_id)
        self._mined = mine_dependencies(
            training,
            groups,
            strong_lag=self.strong_lag,
            weak_lag=self.weak_lag,
            strong_confidence=self.strong_confidence,
            weak_confidence=self.weak_confidence,
            min_support=self.min_support,
        )

    @property
    def dependencies(self) -> List[Dependency]:
        """All mined dependencies (for inspection and tests)."""
        return list(self._mined)

    # ------------------------------------------------------------------ #
    def on_bind(self, index: InvocationIndex) -> None:
        super().on_bind(index)
        by_predecessor: Dict[int, List[tuple[int, int]]] = {}
        for dependency in self._mined:
            predecessor = index.index_of.get(dependency.predecessor)
            successor = index.index_of.get(dependency.successor)
            if predecessor is None or successor is None:
                # Mined against metadata the simulated trace doesn't carry;
                # a training/simulation split of one trace never produces
                # such ids.
                continue
            by_predecessor.setdefault(predecessor, []).append(
                (successor, dependency.lag_window)
            )
        # Each function position's outgoing edges, in mining order.
        self._successors: List[Sequence[tuple[int, int]]] = [
            by_predecessor.get(position, ()) for position in range(index.n_functions)
        ]
        self._has_dependencies = bool(by_predecessor)
        self._prewarm_until = np.full(index.n_functions, NEVER_MINUTE, dtype=np.int64)

    def reset(self) -> None:
        super().reset()
        if self.is_bound:
            self._prewarm_until.fill(NEVER_MINUTE)

    # ------------------------------------------------------------------ #
    def on_minute_indexed(
        self, minute: int, invoked: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        mask = super().on_minute_indexed(minute, invoked, counts)
        if self._has_dependencies:
            successors = self._successors
            until = self._prewarm_until
            for predecessor in invoked.tolist():
                for successor, lag in successors[predecessor]:
                    horizon = minute + lag
                    if horizon > until[successor]:
                        until[successor] = horizon
            # A horizon of `minute` is already expired; strictly-later
            # horizons pre-warm.
            mask |= until > minute
        return mask
