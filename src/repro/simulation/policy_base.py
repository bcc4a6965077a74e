"""Abstract provisioning-policy interface shared by SPES and all baselines.

A policy's job is simple to state: at the end of every simulated minute it
declares which function instances should stay (or become) resident in memory
for the following minute.  The simulator charges a cold start whenever a
function is invoked while not resident, and one minute of wasted memory time
for every resident-but-idle instance-minute.
"""

from __future__ import annotations

import abc
from typing import Mapping, Sequence, Set

from repro.traces.schema import FunctionRecord
from repro.traces.trace import Trace


class ProvisioningPolicy(abc.ABC):
    """Base class for function-provisioning policies.

    Lifecycle:

    1. :meth:`prepare` is called once with the static function metadata and
       (optionally) the training trace, before the simulation starts.  This is
       the offline phase where SPES categorizes functions and where the hybrid
       histogram policies build their idle-time histograms.
    2. :meth:`on_minute` is called once per simulated minute with the
       invocations observed during that minute.  It returns the set of
       function ids that should be resident at the start of the *next* minute.
    3. :meth:`on_feedback` is called — only under the ``event`` engine,
       and only when the policy overrides it — once per minute *before*
       :meth:`on_minute`, streaming the rolling cold-start-latency window
       into the policy.  A policy that does not override the hook never
       gets a window, so it runs exactly as it would without the loop.

    Policies are stateful; a fresh instance (or a call to :meth:`reset`)
    should be used for each simulation run.
    """

    #: Human-readable policy name used in result tables.
    name: str = "policy"

    #: Whether the policy's decisions are *function-local*: running it over a
    #: subset of the function population produces, for those functions, the
    #: exact decisions of the full-population run.  This is the contract the
    #: sharded execution mode (:mod:`repro.simulation.sharding`) relies on —
    #: policies with cross-function state (correlation links, application
    #: grouping, a global capacity budget, latency feedback) must leave this
    #: False, and sharded runs fall back to unsharded execution for them.
    shard_safe: bool = False

    def prepare(
        self,
        functions: Sequence[FunctionRecord],
        training: Trace | None = None,
    ) -> None:
        """Offline phase: observe metadata and (optionally) the training trace.

        The default implementation records the function metadata and does no
        modelling; subclasses override to build their predictive state.
        """
        self._functions = {record.function_id: record for record in functions}

    @property
    def known_functions(self) -> Mapping[str, FunctionRecord]:
        """Function metadata provided at :meth:`prepare` time."""
        return getattr(self, "_functions", {})

    @abc.abstractmethod
    def on_minute(self, minute: int, invocations: Mapping[str, int]) -> Set[str]:
        """Decide the resident set for the start of the next minute.

        Parameters
        ----------
        minute:
            Index of the simulated minute (relative to the simulation window).
        invocations:
            ``{function_id: count}`` for functions invoked during this minute.
            Functions not present were not invoked.

        Returns
        -------
        set of str
            Ids of the functions that should be resident at the start of the
            next minute.  Invoked functions that are *not* returned are
            evicted immediately after serving their request.
        """

    def on_feedback(self, minute: int, latency_window) -> None:
        """Observe the rolling cold-start-latency window (``event`` engine only).

        Parameters
        ----------
        minute:
            The simulated minute that just completed.
        latency_window:
            A :class:`~repro.simulation.events.LatencyWindow`: per-function
            cold-event counts and summed waits over the trailing feedback
            window, in the bound trace's function-index space.  The window is
            a read-only snapshot; policies must not mutate its arrays.

        The hook fires when overridden (see :func:`listens_to_feedback`); an
        override that ignores the window leaves every decision unchanged, as
        the equivalence tests assert for every registered policy.
        Latency-aware policies override it to adapt their keep-alive state
        between minutes.
        """

    def reset(self) -> None:
        """Clear any per-run state.  Subclasses with online state override this."""


def listens_to_feedback(policy: ProvisioningPolicy) -> bool:
    """Whether ``policy``'s class overrides :meth:`ProvisioningPolicy.on_feedback`."""
    return type(policy).on_feedback is not ProvisioningPolicy.on_feedback
