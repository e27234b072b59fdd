"""Stopping times of noisy bounded-confidence opinion dynamics.

Agents average the opinions of everyone within a confidence radius and
get kicked by bounded zero-mean noise each step.  This package measures
when (and whether) all pairwise distances first drop below the radius:
ensembles of exact-replay trajectories, censoring-aware survival
statistics, and the random-walk / projected-recursion reductions that
explain the three qualitative regimes (integrable, heavy-tailed, and
defective stopping laws).
"""

from .config import (
    ConfigError,
    EnsembleSettings,
    ExperimentConfig,
    config_fingerprint,
    dump_config,
    load_config,
    loads_config,
)
from .engine import (
    BatchResult,
    TrajectoryRecord,
    run_batch,
)
from .ensemble import (
    EnsembleError,
    EnsembleResult,
    EnsembleSummary,
    SurvivalCurve,
    TailFit,
    censored_mean,
    censored_mean_growth,
    events_from_samples,
    fit_tail,
    auto_tail_window,
    hit_fraction,
    run_ensemble,
    summarize,
)
from .enumeration import EnumerationTooLarge, exact_stopping_law, survival_points
from .model import (
    InitialCondition,
    ModelConfig,
    hk_step,
    is_quasi_synchronized,
    max_pairwise_distance,
    neighbor_set,
    validate_model_config,
)
from .neighbors import NeighborIndex
from .noise import NoiseSpec, validate_noise_spec
from .presets import PRESET_NAMES, preset, preset_variants
from .projected import (
    AuditResult,
    MapSpec,
    ProjectedSystemSpec,
    declared_coefficient,
    hitting_time_td,
    project_to_ball,
    sampled_audit,
)
from .walks import (
    ClusterWalkSpec,
    HittingSample,
    RecurrenceProfile,
    StretchedWalkSpec,
    WalkSpec,
    cluster_gap_walk,
    first_passage_below,
    recurrence_profile,
    stretched_first_passage,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
