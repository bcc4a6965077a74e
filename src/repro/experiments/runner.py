"""Experiment orchestration: workload, split, policy suite and result caching."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Mapping

from repro.core import IndexedSpesPolicy, SpesConfig
from repro.experiments.parallel import ParallelRunner, PolicySpec, default_policy_specs
from repro.simulation import ProvisioningPolicy, SimulationResult, Simulator
from repro.simulation.spec import RunSpec
from repro.traces import AzureTraceGenerator, GeneratorProfile, Trace, TraceSplit, split_trace


@dataclass
class ExperimentConfig:
    """Configuration of one reproduction experiment.

    Attributes
    ----------
    n_functions:
        Number of functions in the synthetic workload.
    seed:
        Workload seed.
    duration_days:
        Total trace length (the Azure trace spans 14 days).
    training_days:
        Days used for offline pattern modelling (12 in the paper).
    warmup_minutes:
        Minutes of history replayed through each policy before metrics start.
    include_lcs:
        Whether to include the extra LCS comparator (not in the paper's set).
    spes_config:
        SPES configuration used for the main SPES run.
    """

    n_functions: int = 400
    seed: int = 2024
    duration_days: float = 14.0
    training_days: float = 12.0
    warmup_minutes: int = 1440
    include_lcs: bool = False
    spes_config: SpesConfig = field(default_factory=SpesConfig)

    def generator_profile(self) -> GeneratorProfile:
        """Profile of the synthetic workload generator for this experiment."""
        return GeneratorProfile(
            n_functions=self.n_functions,
            duration_days=self.duration_days,
            # Keep the unseen-function window inside short experiment traces.
            unseen_window_days=min(2.0, self.duration_days / 4.0),
            seed=self.seed,
        )


class ExperimentRunner:
    """Builds the workload once and simulates any number of policies over it.

    Parameters
    ----------
    config:
        Experiment configuration (defaults reproduce the benchmark setup).
    trace:
        Optional pre-built trace (e.g. the real Azure trace); when omitted a
        synthetic trace is generated from the configuration.
    split:
        Optional pre-built train/simulation split (e.g. a
        :class:`~repro.scenarios.ScenarioWorkload`'s); takes precedence over
        ``trace`` and the configuration's ``training_days``.
    workers:
        Number of worker processes used to fan out baseline and SPES-variant
        simulations (0 or 1 = serial, the default).  The main SPES run always
        executes in-process so its prepared policy instance stays available
        for category-level analyses.
    cache_dir:
        Optional directory for the on-disk result cache shared by all
        simulations fanned out through the parallel runner.
    memory_mode:
        Memory accounting mode for every simulation (``"unit"`` default,
        ``"mb"`` weighs instances by measured footprints; see
        :mod:`repro.simulation.memory`).
    spec:
        A ready-made :class:`~repro.simulation.spec.RunSpec` instead of the
        ``memory_mode`` shim (mutually exclusive with it); one validated
        object describes every simulation this runner executes.
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        trace: Trace | None = None,
        workers: int = 0,
        cache_dir: str | Path | None = None,
        memory_mode: str | None = None,
        split: TraceSplit | None = None,
        spec: RunSpec | None = None,
    ) -> None:
        self.config = config or ExperimentConfig()
        if spec is None:
            spec = RunSpec.build(
                warmup_minutes=self.config.warmup_minutes,
                memory_mode=memory_mode,
            )
        elif memory_mode is not None:
            raise ValueError(
                "pass either spec= or the individual run knobs, not both"
            )
        else:
            spec.validate()
        self.spec = spec
        self.workers = workers
        self.cache_dir = cache_dir
        self.memory_mode = spec.memory_mode
        self._trace = trace
        self._split = split
        self._results: Dict[str, SimulationResult] = {}
        self._result_specs: Dict[str, PolicySpec] = {}
        self._spes_policy: IndexedSpesPolicy | None = None
        self._parallel: ParallelRunner | None = None

    # ------------------------------------------------------------------ #
    # Workload
    # ------------------------------------------------------------------ #
    @property
    def trace(self) -> Trace:
        """The full 14-day workload (generated lazily)."""
        if self._trace is None:
            self._trace = AzureTraceGenerator(self.config.generator_profile()).generate()
        return self._trace

    @property
    def split(self) -> TraceSplit:
        """Training / simulation split of the workload."""
        if self._split is None:
            self._split = split_trace(self.trace, training_days=self.config.training_days)
        return self._split

    # ------------------------------------------------------------------ #
    # Policy suite
    # ------------------------------------------------------------------ #
    def spes_policy(self) -> IndexedSpesPolicy:
        """The SPES policy instance used for the cached main run."""
        if self._spes_policy is None:
            self._spes_policy = IndexedSpesPolicy(self.config.spes_config)
        return self._spes_policy

    def baseline_factories(self) -> Dict[str, Callable[[], ProvisioningPolicy]]:
        """Factories for every baseline policy of the paper's comparison.

        Derived from :meth:`baseline_specs` so the suite is defined in one
        place; kept for callers that want ready-to-run policy instances.
        """
        return {name: spec.build for name, spec in self.baseline_specs().items()}

    def baseline_specs(self) -> Dict[str, PolicySpec]:
        """The baseline suite as picklable :class:`PolicySpec`\\ s.

        Used by the parallel execution path; equivalent to
        :meth:`baseline_factories` (including the FaaSCache capacity rule).
        """
        spes_result = self.run_spes()
        capacity = max(1, int(spes_result.peak_memory_usage))
        return default_policy_specs(
            include_lcs=self.config.include_lcs, faascache_capacity=capacity
        )

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def parallel_runner(self) -> ParallelRunner:
        """The :class:`ParallelRunner` over this experiment's trace split."""
        if self._parallel is None:
            self._parallel = ParallelRunner(
                traces={"main": self.split},
                workers=self.workers,
                cache_dir=self.cache_dir,
                spec=self.spec,
            )
        return self._parallel

    def run_specs(self, specs: Mapping[str, PolicySpec]) -> Dict[str, SimulationResult]:
        """Simulate several policy specs, fanning out across workers when enabled.

        Results are memoized under the spec names, so repeated calls (and
        mixed calls with :meth:`simulate`) never re-simulate a policy.
        Reusing a name that is already bound to a *different* spec — or to a
        :meth:`simulate` result whose spec is unknown — is rejected rather
        than silently served from the other policy's memoized result.
        """
        missing: Dict[str, PolicySpec] = {}
        for name, spec in specs.items():
            if name in self._results:
                known = self._result_specs.get(name)
                if known != spec:
                    raise ValueError(
                        f"result name {name!r} is already bound to "
                        + ("a different policy spec" if known is not None
                           else "a result with no recorded spec")
                        + "; pick a distinct name"
                    )
            else:
                missing[name] = spec
        if missing:
            runner = self.parallel_runner()
            computed = runner.run_policies(missing, trace_key="main", base_seed=self.config.seed)
            self._results.update(computed)
            self._result_specs.update(missing)
        return {name: self._results[name] for name in specs}

    def run_spes_variants(
        self, variants: Mapping[str, SpesConfig]
    ) -> Dict[str, SimulationResult]:
        """Simulate several SPES configurations (sweeps, ablations) as one batch.

        With ``workers > 1`` the whole batch fans out across the process pool;
        otherwise the cells run serially through the same code path, so both
        modes produce identical results and share the on-disk cache.  Each
        result is memoized under its variant key.
        """
        return self.run_specs(
            {key: PolicySpec.of("spes", config=config) for key, config in variants.items()}
        )

    def simulate(self, policy: ProvisioningPolicy, cache_key: str | None = None) -> SimulationResult:
        """Simulate one policy over the experiment's simulation window."""
        if cache_key is not None and cache_key in self._results:
            return self._results[cache_key]
        simulator = Simulator(
            simulation_trace=self.split.simulation,
            training_trace=self.split.training,
            spec=self.spec,
        )
        result = simulator.run(policy)
        if cache_key is not None:
            self._results[cache_key] = result
        return result

    def run_spes(self) -> SimulationResult:
        """Run (or return the cached) main SPES simulation."""
        if "spes" not in self._results:
            self._results["spes"] = self.simulate(self.spes_policy())
            # The main run's spec is known, so run_specs({"spes": ...}) with
            # the same configuration is recognized instead of rejected.
            self._result_specs["spes"] = PolicySpec.of(
                "spes", config=self.config.spes_config
            )
        return self._results["spes"]

    def run_baselines(self) -> Dict[str, SimulationResult]:
        """Run (or return cached) simulations of every baseline.

        Serial and parallel modes share one code path (:meth:`run_specs` over
        :meth:`baseline_specs`): with ``workers > 1`` the baselines fan out
        across the process pool (after the in-process SPES run that fixes the
        FaaSCache capacity), and in both modes results are memoized per
        policy name and persisted to ``cache_dir`` when configured.
        """
        return self.run_specs(self.baseline_specs())

    def run_all(self) -> Dict[str, SimulationResult]:
        """Run SPES and every baseline; returns ``{policy_name: result}``."""
        results = {"spes": self.run_spes()}
        results.update(self.run_baselines())
        return results

    def run_spes_variant(self, config: SpesConfig, cache_key: str | None = None) -> SimulationResult:
        """Run a SPES variant with a different configuration (sweeps, ablations)."""
        if cache_key is not None and cache_key in self._results:
            return self._results[cache_key]
        result = self.simulate(IndexedSpesPolicy(config), cache_key=cache_key)
        if cache_key is not None:
            self._result_specs[cache_key] = PolicySpec.of("spes", config=config)
        return result
