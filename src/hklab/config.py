"""Experiment configuration: YAML load, validation, canonical round-trip.

One config file describes one experiment: a scenario payload (``hk``
dynamics ensemble, ``projected`` recursion, or ``walk`` oracle), the
ensemble settings, and nothing else.  Loading re-validates every module
invariant and reports all violations at once, each tagged with the
offending key.  Every number, a list element included, passes one check
(_Section._checked): booleans and strings are refused, and so is a
fraction where an integer is needed.  Each reader returns its typed
default when a key is absent or bad, and any recorded problem raises
ConfigError, so no value read after a problem is ever used; model
validation skips the checks of a key already reported bad, so that
default draws no problem of its own.
``dump_config(load_config(p))`` parses back to an identical config, and
the sha256 fingerprint of the canonical form is stamped into every
output file so mixed artifacts are detectable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace

import yaml

from .model import InitialCondition, ModelConfig, validate_model_config
from .noise import NoiseSpec
from .projected import MapSpec, ProjectedSystemSpec, validate_projected_spec
from .walks import SIMPLE_STEP, StretchedWalkSpec, WalkSpec, validate_walk_spec

SCENARIOS = ("hk", "projected", "walk")

WALK_KINDS = ("first_passage", "stretched", "recurrence")

DEFAULT_RUNS = 1000
DEFAULT_HORIZON = 100_000
DEFAULT_NOISE_FAMILY = "uniform_ball"


class ConfigError(ValueError):
    """Parse or validation failure; ``problems`` lists every violation."""

    def __init__(self, message: str, problems=(), kind: str = "validation"):
        super().__init__(message)
        self.problems = list(problems)
        self.kind = kind

    def report(self) -> str:
        lines = [str(self)]
        lines += [f"  - {p}" for p in self.problems]
        return "\n".join(lines)


@dataclass(frozen=True)
class EnsembleSettings:
    """How many runs, how far, and under which seed they advance."""

    runs: int = DEFAULT_RUNS
    horizons: tuple[int, ...] = (DEFAULT_HORIZON,)
    base_seed: int = 0
    workers: int = 1
    extra_after_hit: int = 0

    @property
    def horizon(self) -> int:
        """The longest horizon; shorter ones are read off the same runs."""
        return max(self.horizons)


@dataclass(frozen=True)
class ExperimentConfig:
    """Exactly one scenario payload plus ensemble settings."""

    scenario: str
    ensemble: EnsembleSettings
    model: ModelConfig | None = None
    projected: ProjectedSystemSpec | None = None
    walk: WalkSpec | StretchedWalkSpec | None = None
    walk_kind: str = "first_passage"
    threshold: float = 0.0
    ball_radius: float = 1.0
    label: str = ""


# ---------------------------------------------------------------------------
# Parsing helpers: every reader appends key-tagged problems instead of raising
# ---------------------------------------------------------------------------


class _Section:
    """A mapping with typed, key-tagged field access."""

    def __init__(self, data: dict, prefix: str, problems: list[str], bad: set[str] | None = None):
        self.data = dict(data)
        self.prefix = prefix
        self.problems = problems
        # Tagged keys with a recorded problem, shared with nested sections.
        self.bad: set[str] = set() if bad is None else bad
        self.seen: set[str] = set()

    def _tag(self, key: str) -> str:
        return f"{self.prefix}{key}"

    def problem(self, key: str, text: str) -> None:
        self.bad.add(self._tag(key))
        self.problems.append(f"{self._tag(key)}: {text}")

    def take(self, key: str, default=None):
        self.seen.add(key)
        return self.data.get(key, default)

    def _checked(self, key: str, raw, integer: bool):
        """raw as an int (integer) or a float, or None after recording why not."""
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            self.problem(key, f"expected a number, got {raw!r}")
            return None
        if not integer:
            return float(raw)
        if isinstance(raw, float) and not raw.is_integer():
            self.problem(key, f"expected an integer, got {raw!r}")
            return None
        return int(raw)

    def number(self, key: str, default=None, required: bool = False, integer: bool = False):
        self.seen.add(key)
        if key not in self.data:
            if required:
                self.problem(key, "required key is missing")
            return default
        value = self._checked(key, self.data[key], integer)
        return default if value is None else value

    def numbers(self, key: str, default: tuple = (), integer: bool = False, rows: bool = False):
        """The list under key as a tuple, each element checked as number()
        checks a scalar; with rows, a list of equal-length such lists."""
        raw = self.take(key, default)
        lists = raw if rows and isinstance(raw, (list, tuple)) else [raw]
        if not all(isinstance(items, (list, tuple)) for items in lists):
            what = "lists of numbers" if rows else "numbers"
            self.problem(key, f"expected a list of {what}, got {raw!r}")
            return default
        if len({len(items) for items in lists}) > 1:
            self.problem(key, f"rows differ in length, got {raw!r}")
            return default
        out = [tuple(self._checked(key, v, integer) for v in items) for items in lists]
        if any(None in items for items in out):
            return default
        return tuple(out) if rows else out[0]

    def text(self, key: str, default=None, required: bool = False):
        self.seen.add(key)
        if key not in self.data:
            if required:
                self.problem(key, "required key is missing")
            return default
        raw = self.data[key]
        if not isinstance(raw, str):
            self.problem(key, f"expected a string, got {raw!r}")
            return default
        return raw

    def flag(self, key: str, default: bool = False) -> bool:
        self.seen.add(key)
        raw = self.data.get(key, default)
        if not isinstance(raw, bool):
            self.problem(key, f"expected true/false, got {raw!r}")
            return default
        return raw

    def section(self, key: str) -> "_Section | None":
        self.seen.add(key)
        if key not in self.data:
            return None
        raw = self.data[key]
        if not isinstance(raw, dict):
            self.problem(key, f"expected a mapping, got {raw!r}")
            return None
        return _Section(raw, f"{self._tag(key)}.", self.problems, self.bad)

    def reject_unknown(self) -> None:
        for key in sorted(set(self.data) - self.seen):
            self.problem(key, "unknown key")


def _read_noise(
    sec: _Section, problems: list[str], top_delta, default: NoiseSpec | None = None
) -> NoiseSpec | None:
    """Noise from a nested section, honoring the top-level delta shorthand.

    default gives the family and delta of keys left out (a walk step);
    without it the family is DEFAULT_NOISE_FAMILY and delta is required.
    """
    family = default.family if default else DEFAULT_NOISE_FAMILY
    delta = None
    if sec is not None:
        family = sec.text("family", family)
        delta = sec.number("delta")
        sec.reject_unknown()
        if delta is not None and top_delta is not None:
            problems.append("delta and noise.delta both set; keep exactly one")
            return None
    if delta is None:
        delta = top_delta if default is None else default.delta
    if delta is None:
        problems.append("noise.delta: required key is missing")
        return None
    return NoiseSpec(family=family, delta=delta)


def _read_initial(sec: _Section | None) -> InitialCondition:
    if sec is None:
        return InitialCondition(kind="uniform_box")
    initial = InitialCondition(
        kind=sec.text("kind", "uniform_box"),
        values=sec.numbers("values", rows=True),
        seed=sec.number("seed", 0, integer=True),
        separation_eps=sec.number("separation_eps", 0.0),
        sizes=sec.numbers("sizes", (0, 0), integer=True),
    )
    sec.reject_unknown()
    if len(initial.sizes) != 2:
        # validate_model_config unpacks the pair, so keep a pair.
        sec.problem("sizes", f"expected exactly two sizes, got {len(initial.sizes)}")
        return replace(initial, sizes=(0, 0))
    return initial


def _read_horizons(sec: _Section, problems: list[str]) -> tuple[int, ...]:
    if isinstance(sec.take("horizon"), (list, tuple)):
        out = sec.numbers("horizon", (DEFAULT_HORIZON,), integer=True)
    else:
        out = (sec.number("horizon", DEFAULT_HORIZON, integer=True),)
    if not out:
        problems.append("ensemble.horizon: needs at least one horizon")
        return (DEFAULT_HORIZON,)
    if any(h < 1 for h in out):
        problems.append(f"ensemble.horizon: horizons must be >= 1, got {list(out)}")
    if any(b <= a for a, b in zip(out, out[1:])):
        problems.append(f"ensemble.horizon: horizons must be strictly increasing, got {list(out)}")
    return out


def _read_ensemble(sec: _Section | None, problems: list[str]) -> EnsembleSettings:
    if sec is None:
        return EnsembleSettings()
    ens = EnsembleSettings(
        runs=sec.number("runs", DEFAULT_RUNS, integer=True),
        horizons=_read_horizons(sec, problems),
        base_seed=sec.number("base_seed", 0, integer=True),
        workers=sec.number("workers", 1, integer=True),
        extra_after_hit=sec.number("extra_after_hit", 0, integer=True),
    )
    sec.reject_unknown()
    if ens.runs < 1:
        problems.append(f"ensemble.runs: need at least one run, got {ens.runs}")
    if ens.workers < 1:
        problems.append(f"ensemble.workers: need at least one worker, got {ens.workers}")
    if ens.extra_after_hit < 0:
        problems.append(f"ensemble.extra_after_hit: must be >= 0, got {ens.extra_after_hit}")
    if not 0 <= ens.base_seed < 2**64:
        problems.append(f"ensemble.base_seed: must fit in 64 bits, got {ens.base_seed}")
    return ens


def _read_hk(root: _Section, problems: list[str]) -> ModelConfig | None:
    n = root.number("n", required=True, integer=True)
    d = root.number("d", required=True, integer=True)
    epsilon = root.number("epsilon", required=True)
    space_mode = root.text("space_mode", required=True)
    top_delta = root.number("delta")
    noise = _read_noise(root.section("noise"), problems, top_delta)
    initial = _read_initial(root.section("initial"))
    allow_large = root.flag("allow_large_delta")
    if None in (n, d, epsilon, space_mode) or noise is None:
        return None
    cfg = ModelConfig(
        n=n,
        d=d,
        epsilon=epsilon,
        space_mode=space_mode,
        noise=noise,
        initial=initial,
        allow_large_delta=allow_large,
    )
    problems.extend(validate_model_config(cfg, skip=root.bad))
    return cfg


def _read_map(sec: _Section | None, problems: list[str]) -> MapSpec | None:
    if sec is None:
        problems.append("map: required section is missing")
        return None
    family = sec.text("family", required=True)
    alpha = sec.number("alpha", 1.0)
    epsilon = sec.number("epsilon", 0.0)
    n = sec.number("n", 0, integer=True)
    d = sec.number("d", 0, integer=True)
    sec.reject_unknown()
    if family is None:
        return None
    return MapSpec(family=family, alpha=alpha, epsilon=epsilon, n=n, d=d)


def _read_projected(root: _Section, problems: list[str]) -> ProjectedSystemSpec | None:
    dim = root.number("dim", required=True, integer=True)
    r = root.number("r", required=True)
    r0 = root.number("r0", required=True)
    mp = _read_map(root.section("map"), problems)
    top_delta = root.number("delta")
    noise = _read_noise(root.section("noise"), problems, top_delta)
    start = root.numbers("start")
    if None in (dim, r, r0) or mp is None or noise is None:
        return None
    spec = ProjectedSystemSpec(dim=dim, r=r, r0=r0, map=mp, noise=noise, start=start)
    problems.extend(validate_projected_spec(spec))
    return spec


def _read_walk(root: _Section, problems: list[str]):
    kind = root.text("kind", "first_passage")
    if kind not in WALK_KINDS:
        problems.append(f"kind: unknown walk kind {kind!r}; options are {WALK_KINDS}")
        kind = "first_passage"
    noise = _read_noise(root.section("noise"), problems, None, default=SIMPLE_STEP)
    threshold = root.number("threshold", 0.0)
    ball_radius = root.number("ball_radius", 1.0)
    spec = None
    if kind == "stretched":
        beta = root.number("beta", required=True)
        bound_m = root.number("bound_m", required=True)
        if None not in (beta, bound_m):
            spec = StretchedWalkSpec(beta=beta, bound_m=bound_m, step=noise)
    else:
        dim = root.number("dim", required=True, integer=True)
        start = root.numbers("start")
        if dim is not None:
            spec = WalkSpec(dim=dim, step=noise, start=start)
    if spec is not None:
        problems.extend(validate_walk_spec(spec))
    if kind == "first_passage" and threshold > 0.0:
        problems.append(f"threshold: first-passage level must be <= 0, got {threshold}")
    if kind == "recurrence" and ball_radius <= 0.0:
        problems.append(f"ball_radius: must be positive, got {ball_radius}")
    return spec, kind, threshold, ball_radius


def config_from_dict(data, source: str = "<config>") -> ExperimentConfig:
    """Build and validate a config from a parsed mapping.

    Raises ConfigError carrying every violation found, not just the
    first; each message starts with the offending key.
    """
    if not isinstance(data, dict):
        raise ConfigError(
            f"{source}: top level must be a mapping, got {type(data).__name__}",
            kind="parse",
        )
    problems: list[str] = []
    root = _Section(data, "", problems)
    scenario = root.text("scenario", "hk")
    label = root.text("label", "")
    ensemble = _read_ensemble(root.section("ensemble"), problems)

    model = projected = walk = None
    walk_kind = "first_passage"
    threshold, ball_radius = 0.0, 1.0
    if scenario == "hk":
        model = _read_hk(root, problems)
    elif scenario == "projected":
        projected = _read_projected(root, problems)
    elif scenario == "walk":
        walk, walk_kind, threshold, ball_radius = _read_walk(root, problems)
    else:
        problems.append(f"scenario: unknown scenario {scenario!r}; options are {SCENARIOS}")
    root.reject_unknown()

    if problems:
        raise ConfigError(f"{source}: {len(problems)} problem(s)", problems=problems)
    return ExperimentConfig(
        scenario=scenario,
        ensemble=ensemble,
        model=model,
        projected=projected,
        walk=walk,
        walk_kind=walk_kind,
        threshold=threshold,
        ball_radius=ball_radius,
        label=label,
    )


def loads_config(text: str, source: str = "<string>") -> ExperimentConfig:
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ConfigError(f"{source}: not parseable as YAML: {err}", kind="parse") from err
    return config_from_dict(data, source)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"{path}: cannot read config: {err}", kind="parse") from err
    return loads_config(text, source=str(path))


# ---------------------------------------------------------------------------
# Canonical serialization and fingerprint
# ---------------------------------------------------------------------------


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-data form; load(dump(cfg)) == cfg."""
    out: dict = {"scenario": cfg.scenario}
    if cfg.label:
        out["label"] = cfg.label
    if cfg.scenario == "hk" and cfg.model is not None:
        m = cfg.model
        out.update(n=m.n, d=m.d, epsilon=m.epsilon, space_mode=m.space_mode)
        out["noise"] = asdict(m.noise)
        init = {"kind": m.initial.kind}
        if m.initial.kind == "explicit":
            init["values"] = [list(row) for row in m.initial.values]
        if m.initial.kind == "uniform_box":
            init["seed"] = m.initial.seed
        if m.initial.kind == "two_cluster":
            init["separation_eps"] = m.initial.separation_eps
            init["sizes"] = list(m.initial.sizes)
        out["initial"] = init
        if m.allow_large_delta:
            out["allow_large_delta"] = True
    elif cfg.scenario == "projected" and cfg.projected is not None:
        p = cfg.projected
        out.update(dim=p.dim, r=p.r, r0=p.r0)
        mp = {"family": p.map.family}
        if p.map.family in ("linear_scale", "target_stretch"):
            mp["alpha"] = p.map.alpha
        if p.map.family == "hk_mean":
            mp.update(epsilon=p.map.epsilon, n=p.map.n, d=p.map.d)
        out["map"] = mp
        out["noise"] = asdict(p.noise)
        if p.start:
            out["start"] = list(p.start)
    elif cfg.scenario == "walk" and cfg.walk is not None:
        out["kind"] = cfg.walk_kind
        w = cfg.walk
        if isinstance(w, StretchedWalkSpec):
            out.update(beta=w.beta, bound_m=w.bound_m)
        else:
            out["dim"] = w.dim
            if w.start:
                out["start"] = list(w.start)
        out["noise"] = asdict(w.step)
        if cfg.walk_kind == "first_passage" and cfg.threshold != 0.0:
            out["threshold"] = cfg.threshold
        if cfg.walk_kind == "recurrence":
            out["ball_radius"] = cfg.ball_radius
    ens = {
        "runs": cfg.ensemble.runs,
        "horizon": (
            cfg.ensemble.horizons[0]
            if len(cfg.ensemble.horizons) == 1
            else list(cfg.ensemble.horizons)
        ),
        "base_seed": cfg.ensemble.base_seed,
    }
    if cfg.ensemble.workers != 1:
        ens["workers"] = cfg.ensemble.workers
    if cfg.ensemble.extra_after_hit:
        ens["extra_after_hit"] = cfg.ensemble.extra_after_hit
    out["ensemble"] = ens
    return out


def dump_config(cfg: ExperimentConfig) -> str:
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=False, default_flow_style=False)


def config_fingerprint(cfg: ExperimentConfig) -> str:
    """sha256 over the canonical JSON form; stamped into every output."""
    blob = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
