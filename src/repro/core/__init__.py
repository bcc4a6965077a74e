"""SPES core: differentiated serverless function provisioning.

This package implements the paper's primary contribution:

* :mod:`repro.core.config` -- every tunable threshold of SPES, including the
  ablation switches used in RQ4.
* :mod:`repro.core.sequences` -- waiting-time (WT), active-time (AT) and
  active-number (AN) extraction from per-minute invocation series.
* :mod:`repro.core.slacking` -- the slacking rules that absorb accidental
  fluctuations before the "regular" check (trim boundary WTs, merge adjacent
  small WTs toward the mode).
* :mod:`repro.core.categories` -- the function categories of Table I plus the
  supplementary assignments of §IV-B.
* :mod:`repro.core.classifier` -- deterministic categorization (§IV-A).
* :mod:`repro.core.correlation` -- the co-occurrence kernel over sorted
  minute arrays: T-lagged overlap counts and window hits, and the
  co-occurrence rate (COR) built on them (§III-B2, §IV-B2).
* :mod:`repro.core.predictive` -- per-category predictive values (§IV-D).
* :mod:`repro.core.indeterminate` -- forgetting and the pulsed / correlated /
  possible assignment with validation (§IV-B).
* :mod:`repro.core.offline` -- the full offline categorization pipeline.
* :mod:`repro.core.state` -- per-function online state (Algorithm 1's FState).
* :mod:`repro.core.adaptive` -- the adjusting and online-correlation adaptive
  strategies (§IV-C).
* :mod:`repro.core.policy` -- :class:`SpesPolicy`, the online provision
  algorithm (Algorithm 1) packaged as an index-native
  :class:`~repro.simulation.vector_policy.VectorizedPolicy`.
"""

from repro.core.categories import FunctionCategory
from repro.core.config import SpesConfig
from repro.core.sequences import InvocationSummary, extract_sequences
from repro.core.predictive import PredictiveValues
from repro.core.classifier import DeterministicClassifier
from repro.core.correlation import best_lagged_cor, co_occurrence_rate
from repro.core.offline import CategorizationResult, OfflineCategorizer
from repro.core.policy import SpesPolicy

__all__ = [
    "FunctionCategory",
    "SpesConfig",
    "InvocationSummary",
    "extract_sequences",
    "PredictiveValues",
    "DeterministicClassifier",
    "co_occurrence_rate",
    "best_lagged_cor",
    "CategorizationResult",
    "OfflineCategorizer",
    "SpesPolicy",
]
