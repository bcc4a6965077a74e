"""Dict-stepping twins of the degenerate bounds, kept as the equivalence oracle.

``repro.simulation.NoKeepAlivePolicy`` and ``AlwaysWarmPolicy`` are
index-native.  These are the dict implementations they replaced, verbatim
apart from the class names; the engine drives them through the
``DictPolicyAdapter``.  Each pair must produce identical fingerprints.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Set

from repro.simulation.policy_base import ProvisioningPolicy
from repro.traces.schema import FunctionRecord
from repro.traces.trace import Trace


class DictNoKeepAlivePolicy(ProvisioningPolicy):
    """Never keeps anything warm (every invocation is cold)."""

    name = "no-keepalive"
    shard_safe = True

    def on_minute(self, minute: int, invocations: Mapping[str, int]) -> Set[str]:
        return set()


class DictAlwaysWarmPolicy(ProvisioningPolicy):
    """Keeps every known function warm at all times."""

    name = "always-warm"

    def __init__(self, function_ids: Iterable[str] | None = None) -> None:
        self._explicit_ids = set(function_ids) if function_ids is not None else None

    @property
    def shard_safe(self) -> bool:  # type: ignore[override]
        return self._explicit_ids is None

    def prepare(
        self,
        functions: Sequence[FunctionRecord],
        training: Trace | None = None,
    ) -> None:
        super().prepare(functions, training)
        if self._explicit_ids is None:
            self._resident = {record.function_id for record in functions}
        else:
            self._resident = set(self._explicit_ids)

    def on_minute(self, minute: int, invocations: Mapping[str, int]) -> Set[str]:
        resident = set(getattr(self, "_resident", set()))
        resident.update(invocations)
        self._resident = resident
        return set(resident)
