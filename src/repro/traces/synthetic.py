"""Synthetic Azure-like workload generation.

The real Azure Functions 2019 trace is ~1.9 GB and cannot be downloaded in an
offline environment, so the benchmarks in this repository run on a synthetic
trace whose *marginal statistics* match the characteristics the paper reports:

* heavy-tailed invocation counts (most functions rarely invoked, Fig. 3);
* the trigger-type mix of Fig. 5;
* ~68% of timer functions (quasi-)periodic, ~45% of HTTP functions Poisson;
* temporal locality for a slice of infrequently invoked functions (Fig. 6);
* application/user grouping with chained ("correlated") functions;
* concept drift for a fraction of functions (Fig. 4);
* a small population of functions that only appear in the simulation window
  ("unseen") or never at all.

Every policy under evaluation consumes only per-minute counts plus
trigger/app/user labels, so exercising them on this generator covers exactly
the same code paths as the real trace would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.traces import archetypes
from repro.traces.schema import (
    MINUTES_PER_DAY,
    FunctionRecord,
    TraceMetadata,
    TriggerType,
)
from repro.traces.trace import Trace


@dataclass
class GeneratorProfile:
    """Tunable knobs of the synthetic workload generator.

    The default profile produces a laptop-scale trace (hundreds of functions,
    14 days) in a few seconds; ``paper_scale`` returns a profile close to the
    published trace's population mix (tens of thousands of functions), which
    is only practical for long-running experiments.

    Attributes
    ----------
    n_functions:
        Total number of functions to generate.
    duration_days:
        Trace length in days (the Azure trace covers 14 days).
    archetype_mix:
        Fraction of functions drawn from each archetype.  Values are
        normalized, so they need not sum to exactly one.
    functions_per_app_mean:
        Mean number of functions per application (geometric distribution).
    apps_per_owner_mean:
        Mean number of applications per owner (geometric distribution).
    app_archetype_affinity:
        Probability that a function adopts its application's archetype theme
        rather than an independent draw.  Real applications group functions
        serving one service, so activity levels within an app are similar --
        this is what makes application-grained provisioning a meaningful but
        imperfect heuristic.
    chained_fraction_within_app:
        Probability that a non-first function of a multi-function application
        is chained to (triggered by) another function of the same app.
    chain_lag_range:
        Inclusive range of the lag (in minutes) between a parent invocation
        and its chained child.
    timer_miss_probability:
        Probability that an individual timer firing is dropped (delays,
        concurrency limits) for periodic functions.
    timer_noise_fraction_range:
        Spurious extra invocations overlaid on periodic / quasi-periodic
        functions, expressed as a fraction of the function's own firing rate
        (other events occasionally invoking a mostly-regular function,
        §IV-A2).
    unseen_fraction:
        Fraction of functions whose invocations are confined to the last
        ``unseen_window_days`` days, so they are "unseen" during a 12-day
        training window.
    unseen_window_days:
        Width of the window (counted from the end of the trace) that holds
        all invocations of unseen functions.
    never_invoked_fraction:
        Fraction of functions registered in the platform but never invoked.
    drifting_fraction:
        Fraction of the periodic/dense population whose behaviour shifts
        mid-trace (concept drift).
    seed:
        Base random seed.
    """

    n_functions: int = 400
    duration_days: float = 14.0
    archetype_mix: Dict[str, float] = field(
        default_factory=lambda: {
            # Frequent functions dominate the invocation volume but are a
            # minority of the population, mirroring the heavy tail of Fig. 3.
            "always_warm": 0.02,
            "periodic": 0.13,
            "quasi_periodic": 0.07,
            "dense_poisson": 0.10,
            # Infrequent functions dominate the population.
            "bursty": 0.12,
            "pulsed": 0.15,
            "chained": 0.08,
            "rare_possible": 0.13,
            "rare_unknown": 0.20,
        }
    )
    functions_per_app_mean: float = 3.3
    apps_per_owner_mean: float = 1.65
    app_archetype_affinity: float = 0.85
    chained_fraction_within_app: float = 0.35
    chain_lag_range: tuple[int, int] = (1, 4)
    timer_miss_probability: float = 0.03
    timer_noise_fraction_range: tuple[float, float] = (0.03, 0.12)
    unseen_fraction: float = 0.02
    unseen_window_days: float = 2.0
    never_invoked_fraction: float = 0.01
    drifting_fraction: float = 0.06
    seed: int = 2024

    def __post_init__(self) -> None:
        if self.n_functions < 1:
            raise ValueError("n_functions must be >= 1")
        if self.duration_days <= 0:
            raise ValueError("duration_days must be positive")
        if not self.archetype_mix:
            raise ValueError("archetype_mix must not be empty")
        if any(weight < 0 for weight in self.archetype_mix.values()):
            raise ValueError("archetype_mix weights must be non-negative")
        if sum(self.archetype_mix.values()) <= 0:
            raise ValueError("archetype_mix weights must sum to a positive value")
        for fraction_name in ("unseen_fraction", "never_invoked_fraction", "drifting_fraction"):
            value = getattr(self, fraction_name)
            if not 0 <= value < 1:
                raise ValueError(f"{fraction_name} must be in [0, 1)")
        if not 0 <= self.app_archetype_affinity <= 1:
            raise ValueError("app_archetype_affinity must be in [0, 1]")
        if not 0 <= self.timer_miss_probability < 1:
            raise ValueError("timer_miss_probability must be in [0, 1)")
        low_noise, high_noise = self.timer_noise_fraction_range
        if low_noise < 0 or high_noise < low_noise:
            raise ValueError("timer_noise_fraction_range must satisfy 0 <= low <= high")
        if self.unseen_window_days <= 0 or self.unseen_window_days >= self.duration_days:
            raise ValueError("unseen_window_days must be in (0, duration_days)")

    @property
    def duration_minutes(self) -> int:
        """Trace length in minutes."""
        return int(round(self.duration_days * MINUTES_PER_DAY))

    @classmethod
    def small(cls, seed: int = 2024) -> "GeneratorProfile":
        """A fast profile for unit tests (tens of functions, 3 days)."""
        return cls(n_functions=60, duration_days=3.0, unseen_window_days=0.5, seed=seed)

    @classmethod
    def default(cls, seed: int = 2024) -> "GeneratorProfile":
        """The default benchmark profile (400 functions, 14 days)."""
        return cls(seed=seed)

    @classmethod
    def large(cls, seed: int = 2024) -> "GeneratorProfile":
        """A larger profile for longer experiments (2,000 functions, 14 days)."""
        return cls(n_functions=2000, seed=seed)

    @classmethod
    def paper_scale(cls, seed: int = 2024) -> "GeneratorProfile":
        """A profile approaching the published trace's population (slow)."""
        return cls(n_functions=83137, seed=seed)


# Trigger assigned to each archetype, mirroring the trigger/pattern pairing the
# paper describes (timers -> periodic, HTTP -> Poisson/bursty, queues -> dense,
# orchestration -> chained workflows, storage/event -> pulsed or rare).
_ARCHETYPE_TRIGGERS: Dict[str, List[TriggerType]] = {
    "always_warm": [TriggerType.TIMER, TriggerType.HTTP],
    "periodic": [TriggerType.TIMER],
    "quasi_periodic": [TriggerType.TIMER, TriggerType.QUEUE],
    "dense_poisson": [TriggerType.HTTP, TriggerType.QUEUE],
    "bursty": [TriggerType.HTTP, TriggerType.STORAGE],
    "pulsed": [TriggerType.EVENT, TriggerType.STORAGE, TriggerType.HTTP],
    "chained": [TriggerType.ORCHESTRATION, TriggerType.QUEUE],
    "rare_possible": [TriggerType.HTTP, TriggerType.OTHERS],
    "rare_unknown": [TriggerType.HTTP, TriggerType.OTHERS, TriggerType.COMBINATION],
}


class AzureTraceGenerator:
    """Generate a synthetic trace with Azure-like invocation statistics.

    Parameters
    ----------
    profile:
        Generator configuration; :meth:`GeneratorProfile.default` if omitted.

    Examples
    --------
    >>> generator = AzureTraceGenerator(GeneratorProfile.small(seed=7))
    >>> trace = generator.generate()
    >>> trace.duration_days
    3.0
    """

    def __init__(self, profile: GeneratorProfile | None = None) -> None:
        self.profile = profile or GeneratorProfile.default()

    # ------------------------------------------------------------------ #
    def generate(self) -> Trace:
        """Generate the synthetic trace described by the profile."""
        profile = self.profile
        rng = np.random.default_rng(profile.seed)
        duration = profile.duration_minutes

        app_of, owner_of = self._draw_topology(rng, profile.n_functions)
        archetype_names = self._draw_archetypes(rng, app_of)

        records: List[FunctionRecord] = []
        counts: Dict[str, np.ndarray] = {}
        app_members: Dict[str, List[str]] = {}

        n_unseen = int(round(profile.unseen_fraction * profile.n_functions))
        n_never = int(round(profile.never_invoked_fraction * profile.n_functions))
        unseen_ids = set(range(n_unseen))
        never_ids = set(range(n_unseen, n_unseen + n_never))
        unseen_start = duration - int(round(profile.unseen_window_days * MINUTES_PER_DAY))

        for index, archetype in enumerate(archetype_names):
            function_id = f"func-{index:05d}"
            app_id = app_of[index]
            owner_id = owner_of[index]
            trigger = self._trigger_for(rng, archetype)
            effective_archetype = archetype

            if index in never_ids:
                series = np.zeros(duration, dtype=np.int64)
                effective_archetype = "never_invoked"
            elif index in unseen_ids:
                window = duration - unseen_start
                inner = self._series_for(rng, archetype, window)
                series = np.zeros(duration, dtype=np.int64)
                series[unseen_start:] = inner
                effective_archetype = f"unseen_{archetype}"
            else:
                series = self._series_for(rng, archetype, duration)
                if archetype in ("periodic", "dense_poisson") and rng.random() < (
                    profile.drifting_fraction
                    / max(
                        profile.archetype_mix.get("periodic", 0.0)
                        + profile.archetype_mix.get("dense_poisson", 0.0),
                        1e-9,
                    )
                ):
                    series = archetypes.generate_drifting(
                        rng,
                        duration,
                        first_period=int(rng.integers(15, 90)),
                        second_rate=float(rng.uniform(0.2, 0.8)),
                    )
                    effective_archetype = "drifting"

            record = FunctionRecord(
                function_id=function_id,
                app_id=app_id,
                owner_id=owner_id,
                trigger=trigger,
                archetype=effective_archetype,
            )
            records.append(record)
            counts[function_id] = series
            app_members.setdefault(app_id, []).append(function_id)

        self._chain_within_apps(rng, records, counts, app_members)

        metadata = TraceMetadata(
            name=f"synthetic-azure-{profile.n_functions}f-{profile.duration_days:g}d",
            duration_minutes=duration,
            seed=profile.seed,
            extra={"profile": profile.__class__.__name__, "n_functions": profile.n_functions},
        )
        return Trace(records, counts, metadata)

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _draw_archetypes(self, rng: np.random.Generator, app_of: List[str]) -> List[str]:
        """Assign an archetype to each function, biased toward its app's theme.

        Each application draws a "theme" archetype from the configured mix;
        every member function adopts the theme with probability
        ``app_archetype_affinity`` and draws independently otherwise.  This
        keeps the population mix close to the configured proportions while
        making activity levels within an application similar, as they are in
        real deployments.
        """
        profile = self.profile
        names = list(profile.archetype_mix)
        weights = np.array([profile.archetype_mix[name] for name in names], dtype=float)
        weights = weights / weights.sum()

        app_theme: Dict[str, str] = {}
        archetypes_of: List[str] = []
        for app_id in app_of:
            theme = app_theme.get(app_id)
            if theme is None:
                theme = str(rng.choice(names, p=weights))
                app_theme[app_id] = theme
            if rng.random() < profile.app_archetype_affinity:
                archetypes_of.append(theme)
            else:
                archetypes_of.append(str(rng.choice(names, p=weights)))
        return archetypes_of

    def _draw_topology(
        self, rng: np.random.Generator, n_functions: int
    ) -> tuple[List[str], List[str]]:
        """Assign every function to an application and an owner."""
        profile = self.profile
        app_of: List[str] = []
        owner_of: List[str] = []
        app_index = 0
        owner_index = 0
        apps_left_for_owner = 0
        functions_left_for_app = 0
        for _ in range(n_functions):
            if functions_left_for_app == 0:
                if apps_left_for_owner == 0:
                    owner_index += 1
                    apps_left_for_owner = self._geometric(rng, profile.apps_per_owner_mean)
                app_index += 1
                apps_left_for_owner -= 1
                functions_left_for_app = self._geometric(
                    rng, profile.functions_per_app_mean
                )
            functions_left_for_app -= 1
            app_of.append(f"app-{app_index:05d}")
            owner_of.append(f"owner-{owner_index:05d}")
        return app_of, owner_of

    @staticmethod
    def _geometric(rng: np.random.Generator, mean: float) -> int:
        """Draw a >=1 geometric size with the requested mean."""
        if mean <= 1:
            return 1
        probability = 1.0 / mean
        return int(rng.geometric(probability))

    def _trigger_for(self, rng: np.random.Generator, archetype: str) -> TriggerType:
        candidates = _ARCHETYPE_TRIGGERS.get(archetype, [TriggerType.HTTP])
        return candidates[int(rng.integers(0, len(candidates)))]

    def _series_for(
        self, rng: np.random.Generator, archetype: str, duration: int
    ) -> np.ndarray:
        """Materialize the invocation series for one function."""
        if archetype == "always_warm":
            return archetypes.generate_always_warm(rng, duration)
        low_noise, high_noise = self.profile.timer_noise_fraction_range
        if archetype == "periodic":
            period = int(
                rng.choice(
                    [5, 10, 15, 30, 60, 120, 240, 360, 720, 1440],
                    p=[0.08, 0.10, 0.10, 0.14, 0.16, 0.12, 0.10, 0.08, 0.06, 0.06],
                )
            )
            noise_rate = float(rng.uniform(low_noise, high_noise)) / period
            return archetypes.generate_periodic(
                rng,
                duration,
                period=period,
                miss_probability=self.profile.timer_miss_probability,
                extra_noise_rate=noise_rate,
            )
        if archetype == "quasi_periodic":
            base = int(rng.integers(3, 30))
            spread = int(rng.integers(1, 4))
            periods = tuple(range(base, base + spread + 1))
            noise_rate = float(rng.uniform(low_noise, high_noise)) / float(np.mean(periods))
            return archetypes.generate_quasi_periodic(
                rng,
                duration,
                periods=periods,
                extra_noise_rate=noise_rate,
            )
        if archetype == "dense_poisson":
            rate = float(rng.uniform(0.2, 1.5))
            return archetypes.generate_dense_poisson(rng, duration, rate_per_minute=rate)
        if archetype == "bursty":
            burst_count = max(2, int(duration / MINUTES_PER_DAY * rng.uniform(0.3, 0.8)))
            # Bursts separated by several hours to a day, matching the
            # temporal-locality clusters of Fig. 6.
            gap = int(rng.integers(360, 1200))
            return archetypes.generate_bursty(
                rng, duration, burst_count=burst_count, min_gap=gap
            )
        if archetype == "pulsed":
            pulse_count = max(3, int(duration / MINUTES_PER_DAY * rng.uniform(0.5, 1.2)))
            gap = int(rng.integers(400, 1400))
            return archetypes.generate_pulsed(
                rng, duration, pulse_count=pulse_count, min_gap=gap
            )
        if archetype == "chained":
            # Placeholder: chained children are re-generated from their parent
            # in _chain_within_apps; until then give them sparse noise.
            return archetypes.generate_rare(rng, duration, invocation_count=2)
        if archetype == "rare_possible":
            gap = int(rng.choice([180, 360, 720, 1440]))
            count = int(rng.integers(3, 8))
            return archetypes.generate_rare(
                rng, duration, invocation_count=count, repeated_gap=gap
            )
        if archetype == "rare_unknown":
            count = int(rng.integers(1, 5))
            return archetypes.generate_rare(rng, duration, invocation_count=count)
        raise ValueError(f"unknown archetype: {archetype}")

    def _chain_within_apps(
        self,
        rng: np.random.Generator,
        records: List[FunctionRecord],
        counts: Dict[str, np.ndarray],
        app_members: Dict[str, List[str]],
    ) -> None:
        """Rewrite 'chained' functions (and some app siblings) as children of a parent."""
        profile = self.profile
        by_id = {record.function_id: record for record in records}
        low, high = profile.chain_lag_range
        for members in app_members.values():
            if len(members) < 2:
                continue
            parent_id = max(members, key=lambda fid: int(counts[fid].sum()))
            parent_series = counts[parent_id]
            if parent_series.sum() == 0:
                continue
            for function_id in members:
                if function_id == parent_id:
                    continue
                record = by_id[function_id]
                is_chained_archetype = (
                    record.archetype is not None and "chained" in record.archetype
                )
                if not is_chained_archetype and rng.random() >= profile.chained_fraction_within_app:
                    continue
                if record.archetype is not None and record.archetype.startswith("unseen"):
                    continue
                if record.archetype == "never_invoked":
                    continue
                lag = int(rng.integers(low, high + 1))
                counts[function_id] = archetypes.generate_chained(
                    rng, parent_series, lag=lag, trigger_probability=float(rng.uniform(0.8, 1.0))
                )


def generate_default_trace(seed: int = 2024, n_functions: int = 400) -> Trace:
    """Convenience helper: generate the default benchmark trace."""
    profile = GeneratorProfile(n_functions=n_functions, seed=seed)
    return AzureTraceGenerator(profile).generate()
