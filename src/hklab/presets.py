"""Named desk-scale experiment configurations.

Each preset instantiates one studied regime at a scale a single core
finishes in minutes, with ensemble sizes and horizons chosen so the
qualitative behavior (integrable vs heavy-tailed vs defective stopping
laws, walk recurrence vs transience) is visible above sampling noise.

Two presets come in dimension variants sharing one name: use
``preset(name, variant)``, with the keys from ``preset_variants(name)``.
Cluster starts keep the separation above sqrt(2)*epsilon + 2*delta, so
the groups begin genuinely disconnected and stay internally coherent
(member spread never exceeds 2*delta <= epsilon).
"""

from __future__ import annotations

from dataclasses import replace

from .config import EnsembleSettings, ExperimentConfig
from .model import InitialCondition, ModelConfig
from .noise import NoiseSpec
from .projected import MapSpec, ProjectedSystemSpec
from .walks import SIMPLE_STEP, WalkSpec

PRESET_NAMES = (
    "thm1_bounded",
    "thm2a_d1",
    "thm2a_d2",
    "thm2b_d3",
    "lemma1_alpha_gt1",
    "corollary1",
    "lemma2_walk",
    "lemma4_recurrence",
)


def _hk(n, d, epsilon, noise, initial, space_mode, ensemble, label):
    return ExperimentConfig(
        scenario="hk",
        ensemble=ensemble,
        model=ModelConfig(
            n=n, d=d, epsilon=epsilon, space_mode=space_mode, noise=noise, initial=initial
        ),
        label=label,
    )


def _thm1(d: int) -> ExperimentConfig:
    # Bounded state space: T is integrable for any start, so every run
    # hits well inside the horizon and the tail decays geometrically.
    return _hk(
        n=10,
        d=d,
        epsilon=0.5,
        noise=NoiseSpec("uniform_ball", 0.25),
        initial=InitialCondition(kind="uniform_box", seed=0),
        space_mode="bounded",
        ensemble=EnsembleSettings(
            runs=1000,
            horizons=(100_000, 200_000),
            base_seed=100 + d,
            extra_after_hit=1000,
        ),
        label=f"thm1_bounded[d{d}]",
    )


def _thm2a(d: int) -> ExperimentConfig:
    # Unbounded, two separated clusters: the gap performs a zero-mean
    # walk, recurrent in d <= 2, so T is finite a.s. but heavy-tailed.
    # The d=2 instance uses smaller groups and a closer start so the
    # log-slow recurrence still yields plenty of hits at desk scale.
    n1 = 5 if d == 1 else 2
    sep = 5.0 if d == 1 else 3.0
    return _hk(
        n=2 * n1,
        d=d,
        epsilon=0.5,
        noise=NoiseSpec("uniform_cube", 0.25),
        initial=InitialCondition(kind="two_cluster", sizes=(n1, n1), separation_eps=sep),
        space_mode="unbounded",
        ensemble=EnsembleSettings(
            runs=1000,
            horizons=(1_000, 10_000, 100_000, 1_000_000),
            base_seed=200 + d,
            extra_after_hit=1000,
        ),
        label=f"thm2a_d{d}",
    )


def _thm2b() -> ExperimentConfig:
    # d = 3: the gap walk is transient, so a fraction of runs never
    # synchronize and the hit fraction plateaus between the horizons.
    return _hk(
        n=4,
        d=3,
        epsilon=0.5,
        noise=NoiseSpec("uniform_ball", 0.25),
        initial=InitialCondition(kind="two_cluster", sizes=(2, 2), separation_eps=10.0),
        space_mode="unbounded",
        ensemble=EnsembleSettings(
            runs=1000,
            horizons=(10_000, 100_000),
            base_seed=203,
        ),
        label="thm2b_d3",
    )


def _lemma1() -> ExperimentConfig:
    # Contraction-toward-target map with alpha > 1: the distance to the
    # target ball still shrinks at rate alpha only away from it, and
    # full-support noise makes the hitting time integrable.
    return ExperimentConfig(
        scenario="projected",
        ensemble=EnsembleSettings(runs=1000, horizons=(10_000,), base_seed=301),
        projected=ProjectedSystemSpec(
            dim=1,
            r=1.0,
            r0=0.5,
            map=MapSpec(family="target_stretch", alpha=1.2),
            noise=NoiseSpec("uniform_ball", 0.25),
        ),
        label="lemma1_alpha_gt1",
    )


def _corollary1() -> ExperimentConfig:
    # alpha = 1 instance: the flattened averaging map is nonexpansive
    # toward the target set, covering the equality case.
    return ExperimentConfig(
        scenario="projected",
        ensemble=EnsembleSettings(runs=1000, horizons=(10_000,), base_seed=302),
        projected=ProjectedSystemSpec(
            dim=5,
            r=1.0,
            r0=0.5,
            map=MapSpec(family="hk_mean", epsilon=0.5, n=5, d=1),
            noise=NoiseSpec("uniform_ball", 0.25),
        ),
        label="corollary1",
    )


def _lemma2() -> ExperimentConfig:
    # Simple +-1 walk from the origin, stopped on reaching <= 0: finite
    # a.s. with infinite mean, the prototype for the cluster gap.
    return ExperimentConfig(
        scenario="walk",
        ensemble=EnsembleSettings(runs=1000, horizons=(10_000, 1_000_000), base_seed=401),
        walk=WalkSpec(dim=1, step=SIMPLE_STEP),
        walk_kind="first_passage",
        threshold=0.0,
        label="lemma2_walk",
    )


def _lemma4(dim: int) -> ExperimentConfig:
    # Visit counts to the unit ball: growing without bound in d=1,
    # stabilizing in d=3.  Steps are +-1 per coordinate, so d=3 visits
    # reduce to returns to the origin by a parity argument.
    delta = 1.0 if dim == 1 else float(dim) ** 0.5
    return ExperimentConfig(
        scenario="walk",
        ensemble=EnsembleSettings(
            runs=1000, horizons=(100, 1_000, 10_000, 100_000), base_seed=402
        ),
        walk=WalkSpec(dim=dim, step=NoiseSpec("rademacher_axes", delta)),
        walk_kind="recurrence",
        ball_radius=1.0,
        label=f"lemma4_recurrence[d{dim}]",
    )


_FAMILIES = {
    "thm1_bounded": {"d1": lambda: _thm1(1), "d2": lambda: _thm1(2), "d3": lambda: _thm1(3)},
    "thm2a_d1": {"": lambda: _thm2a(1)},
    "thm2a_d2": {"": lambda: _thm2a(2)},
    "thm2b_d3": {"": _thm2b},
    "lemma1_alpha_gt1": {"": _lemma1},
    "corollary1": {"": _corollary1},
    "lemma2_walk": {"": _lemma2},
    "lemma4_recurrence": {"d1": lambda: _lemma4(1), "d3": lambda: _lemma4(3)},
}


def preset_variants(name: str) -> tuple[str, ...]:
    if name not in _FAMILIES:
        raise KeyError(f"unknown preset {name!r}; options are {PRESET_NAMES}")
    return tuple(_FAMILIES[name])


def preset(name: str, variant: str | None = None) -> ExperimentConfig:
    """The named configuration; multi-variant presets take a variant key."""
    variants = preset_variants(name)
    if variant is None:
        variant = variants[0]
    if variant not in variants:
        raise KeyError(f"unknown variant {variant!r} for preset {name}; options are {variants}")
    return _FAMILIES[name][variant]()


def scaled_preset(cfg: ExperimentConfig, runs: int | None = None, horizon: int | None = None):
    """A cheaper copy for smoke tests; acceptance uses presets as-is."""
    ens = cfg.ensemble
    horizons = ens.horizons if horizon is None else tuple(
        h for h in ens.horizons if h < horizon
    ) + (horizon,)
    return replace(
        cfg,
        ensemble=replace(ens, runs=runs or ens.runs, horizons=horizons),
    )
