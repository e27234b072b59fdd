"""Trajectory simulation and stopping-time measurement.

A run is quasi-synchronized at the first t >= 0 with d_V(t) <= epsilon
(largest pairwise distance at most the confidence radius).  The engine
reports each run as a walks.HittingSample: t_hit = min(T, horizon), an
explicit censoring flag, and d_V at that step as end_value.  It can
optionally keep stepping past the hit to audit that the condition is
absorbing when delta <= epsilon / 2.

Ensembles are advanced in lockstep: one (A, n, d) tensor holds all
still-active runs and retired runs are compacted away.  Because every
noise draw is a pure function of (base_seed, run_index, t, agent), and
every per-run reduction has a fixed order, a run's trajectory is
bit-identical no matter which other runs share the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    BOX_HI,
    BOX_LO,
    ModelConfig,
    hk_step,
    neighbor_sums,
    pairwise_sq_dists,
    sq_norm_last,
)
from .neighbors import NeighborIndex, max_sq_dist, resolve_mode
from .noise import noise_block, uniforms_per_draw
from .prng import run_keys
from .walks import HittingSample, _chunk_steps, _samples

# Abort threshold for runaway unbounded states.
MAGNITUDE_GUARD = 1e12

# Lockstep batches are worthwhile only for small per-run systems.
_LOCKSTEP_MAX_N = 128

# Steps per chunk stay below this even when few runs remain.
_CHUNK_STEPS = 4096

# Batches wider than this are advanced in independent slices; per-run
# streams make the split invisible in the results.
_RUN_SLICE = 8192


class _StepBuffers:
    """Preallocated per-chunk workspaces; steps reuse them in place.

    The batched update allocates ~5 MB of temporaries per step without
    these, which dominates runtime for long horizons.  d2 holds the
    model.pairwise_sq_dists distances of the current states: they give
    both the sync check and the next step's adjacency.  Every operation
    writes through ``out=`` into the same arrays the allocating form
    would produce, so results are bit-identical.
    """

    def __init__(self, a: int, n: int, d: int):
        self.d2 = np.empty((a, n, n))
        self.adj = np.empty((a, n, n))
        self.deg = np.empty((a, n))
        self.new = np.empty((a, n, d))

    def distances(self, states: np.ndarray) -> np.ndarray:
        """Fill d2 from states; returns each run's largest squared distance."""
        pairwise_sq_dists(states, out=self.d2)
        return self.d2.reshape(self.d2.shape[0], -1).max(axis=1)


@dataclass
class TrajectoryRecord:
    """Opt-in strided diagnostics for a single run."""

    stride: int
    times: np.ndarray
    d_v: np.ndarray
    cluster_gap: np.ndarray | None = None
    snapshot_times: np.ndarray | None = None
    snapshots: np.ndarray | None = None


@dataclass
class BatchResult:
    samples: list[HittingSample]
    absorb_ok: np.ndarray | None = None
    record: TrajectoryRecord | None = None


def cluster_gap(states: np.ndarray, n1: int) -> float:
    """Distance between the centroids of rows [:n1] and rows [n1:]."""
    if n1 < 1 or n1 >= states.shape[0]:
        raise ValueError(f"cluster split {n1} leaves an empty side for n={states.shape[0]}")
    diff = states[:n1].mean(axis=0) - states[n1:].mean(axis=0)
    return float(np.sqrt(sq_norm_last(diff)))


def _gap_partition(cfg: ModelConfig) -> int | None:
    if cfg.initial.kind == "two_cluster":
        return cfg.initial.sizes[0]
    return None


class _Recorder:
    """Strided d_V / gap / snapshot series for a single-run batch."""

    def __init__(self, cfg: ModelConfig, stride: int, snapshot_stride: int):
        self.stride = stride
        self.snapshot_stride = snapshot_stride
        self.n1 = _gap_partition(cfg)
        self.times: list[int] = []
        self.d_v: list[float] = []
        self.gaps: list[float] = []
        self.snap_times: list[int] = []
        self.snaps: list[np.ndarray] = []

    def observe(self, t: int, states: np.ndarray, dv2: float, final: bool) -> None:
        if self.stride and (t % self.stride == 0 or final):
            if not self.times or self.times[-1] != t:
                self.times.append(t)
                self.d_v.append(float(np.sqrt(dv2)))
                if self.n1 is not None:
                    self.gaps.append(cluster_gap(states, self.n1))
        if self.snapshot_stride and (t % self.snapshot_stride == 0 or final):
            if not self.snap_times or self.snap_times[-1] != t:
                self.snap_times.append(t)
                self.snaps.append(states.copy())

    def build(self) -> TrajectoryRecord:
        return TrajectoryRecord(
            stride=self.stride,
            times=np.asarray(self.times, dtype=np.int64),
            d_v=np.asarray(self.d_v, dtype=np.float64),
            cluster_gap=np.asarray(self.gaps) if self.gaps else None,
            snapshot_times=np.asarray(self.snap_times, dtype=np.int64) if self.snap_times else None,
            snapshots=np.stack(self.snaps) if self.snaps else None,
        )


def run_batch(
    cfg: ModelConfig,
    base_seed: int,
    run_indices,
    horizon: int,
    extra_after_hit: int = 0,
    record_stride: int = 0,
    snapshot_stride: int = 0,
    guard: float = MAGNITUDE_GUARD,
) -> BatchResult:
    """Advance a batch of runs to completion.

    Every run stops at min(T, horizon); with extra_after_hit > 0, hit
    runs continue for that many further steps (past the horizon if
    need be) and absorb_ok[k] reports whether d_V stayed <= epsilon
    throughout run k's continuation window.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    run_indices = np.asarray(run_indices, dtype=np.int64)
    a0 = run_indices.shape[0]
    if a0 == 0:
        return BatchResult(samples=[])
    n, d = cfg.n, cfg.d
    eps2 = cfg.epsilon * cfg.epsilon
    bounded = cfg.space_mode == "bounded"
    recorder = None
    if (record_stride or snapshot_stride) and a0 == 1:
        recorder = _Recorder(cfg, record_stride, snapshot_stride)

    x0 = cfg.initial.build(n, d, cfg.epsilon)
    use_lockstep = n <= _LOCKSTEP_MAX_N
    if not use_lockstep:
        outcomes = [
            _run_single_large(cfg, base_seed, int(r), horizon, extra_after_hit, recorder, guard)
            for r in run_indices
        ]
        hit, t_hit, d_v, absorb = (np.array(col) for col in zip(*outcomes))
        return BatchResult(
            samples=_samples(run_indices, hit, t_hit, d_v, horizon, base_seed),
            absorb_ok=absorb if extra_after_hit else None,
            record=recorder.build() if recorder else None,
        )

    if a0 > _RUN_SLICE:
        samples = []
        absorbs = []
        for lo in range(0, a0, _RUN_SLICE):
            part = run_batch(
                cfg,
                base_seed,
                run_indices[lo : lo + _RUN_SLICE],
                horizon,
                extra_after_hit=extra_after_hit,
                guard=guard,
            )
            samples.extend(part.samples)
            if part.absorb_ok is not None:
                absorbs.append(part.absorb_ok)
        absorb = np.concatenate(absorbs) if absorbs else None
        return BatchResult(samples=samples, absorb_ok=absorb, record=None)

    keys = run_keys(base_seed, run_indices)
    states = np.tile(x0, (a0, 1, 1))

    hit_all = np.zeros(a0, dtype=bool)
    t_hit_all = np.full(a0, horizon, dtype=np.int64)
    dve_all = np.full(a0, np.nan)
    absorb_all = np.ones(a0, dtype=bool)

    live = np.arange(a0)
    buf = _StepBuffers(a0, n, d)
    dv2 = buf.distances(states)
    hit0 = dv2 <= eps2
    hit_all[hit0] = True
    t_hit_all[hit0] = 0
    dve_all[hit0] = np.sqrt(dv2[hit0])
    deadline = np.where(hit0, extra_after_hit, horizon).astype(np.int64)
    if recorder:
        recorder.observe(0, states[0], float(dv2[0]), final=bool(deadline[0] == 0))

    w = uniforms_per_draw(cfg.noise.family, d)
    t = 0
    while True:
        keep = deadline > t
        if not keep.all():
            states = states[keep]
            d2_kept = buf.d2[keep]
            deadline = deadline[keep]
            live = live[keep]
            keys = keys[keep]
            buf = _StepBuffers(live.shape[0], n, d)
            buf.d2[...] = d2_kept
        a = live.shape[0]
        if a == 0:
            break
        b = min(_CHUNK_STEPS, _chunk_steps(a, n, w, int(deadline.max()) - t))
        ts = np.arange(t + 1, t + b + 1, dtype=np.int64)
        xi = noise_block(cfg.noise, keys, ts, n, d)
        hit_live = hit_all[live]
        for k in range(b):
            tk = t + k + 1
            running = tk <= deadline
            # Adjacency comes from the previous step's distances in buf.d2.
            neighbor_sums(buf.d2, states, cfg.epsilon, out=buf.new, adj=buf.adj, deg=buf.deg)
            buf.new /= buf.deg[..., None]
            buf.new += xi[:, k]
            if bounded:
                np.clip(buf.new, BOX_LO, BOX_HI, out=buf.new)
            if running.all():
                states, buf.new = buf.new, states
            else:
                states = np.where(running[:, None, None], buf.new, states)
            dv2 = buf.distances(states)
            synced = dv2 <= eps2
            newly = running & ~hit_live & synced
            if newly.any():
                idx = live[newly]
                hit_all[idx] = True
                hit_live = hit_live | newly
                t_hit_all[idx] = tk
                dve_all[idx] = np.sqrt(dv2[newly])
                deadline = np.where(newly, tk + extra_after_hit, deadline)
            if extra_after_hit:
                viol = running & hit_live & ~newly & ~synced
                if viol.any():
                    absorb_all[live[viol]] = False
            if tk == horizon:
                censoring = running & ~hit_live
                if censoring.any():
                    dve_all[live[censoring]] = np.sqrt(dv2[censoring])
            if recorder and running[0]:
                recorder.observe(tk, states[0], float(dv2[0]), final=bool(deadline[0] == tk))
        t += b
        if not bounded and np.abs(states).max() > guard:
            worst = int(live[np.argmax(np.abs(states).max(axis=(1, 2)))])
            raise RuntimeError(
                f"state magnitude exceeded guard {guard:g} by t={t} "
                f"(run_index={int(run_indices[worst])}); aborting"
            )

    return BatchResult(
        samples=_samples(run_indices, hit_all, t_hit_all, dve_all, horizon, base_seed),
        absorb_ok=absorb_all if extra_after_hit else None,
        record=recorder.build() if recorder else None,
    )


def _dv2_large(states: np.ndarray, eps2: float):
    """(is_hit, dv2_or_None) with an O(n d) prune before the O(n^2) scan.

    If some coordinate range alone exceeds epsilon the pair realizing
    it is at least that far apart, so the run cannot be synchronized.
    The prune's square is the very term pairwise_sq_dists adds for that
    pair, and adding nonnegative terms never rounds below one of them,
    so it never contradicts the exact maximum.  Only near-synchronized
    snapshots reach neighbors.max_sq_dist, which scans just the rows
    whose distance to the far corner of the bounding box could exceed
    the best distance found so far.
    """
    lo = states.min(axis=0)
    hi = states.max(axis=0)
    rng = hi - lo
    if np.max(rng * rng) > eps2:
        return False, None
    d2max = max_sq_dist(states)
    return d2max <= eps2, d2max


def _run_single_large(cfg, base_seed, run_index, horizon, extra_after_hit, recorder, guard):
    """Per-step grid-indexed path for systems too large to batch.

    Returns (hit, t_hit, d_V at t_hit, absorb_ok) of the one run.
    """
    n, d = cfg.n, cfg.d
    eps2 = cfg.epsilon * cfg.epsilon
    mode = resolve_mode("auto", n, d)
    states = cfg.initial.build(n, d, cfg.epsilon)
    key = run_keys(base_seed, [run_index])

    hit, t_hit, dve = False, horizon, np.nan
    synced, d2m = _dv2_large(states, eps2)
    if synced:
        hit, t_hit, dve = True, 0, float(np.sqrt(d2m))
    deadline = extra_after_hit if synced else horizon
    if recorder:
        recorder.observe(0, states, d2m if d2m is not None else np.nan, final=deadline == 0)
    absorb_ok = True
    t = 0
    while t < deadline:
        t += 1
        xi = noise_block(cfg.noise, key, [t], n, d)[0, 0]
        index = NeighborIndex(states, cfg.epsilon, mode=mode)
        states = hk_step(states, xi, cfg.epsilon, cfg.space_mode, index=index)
        if cfg.space_mode == "unbounded" and np.abs(states).max() > guard:
            raise RuntimeError(
                f"state magnitude exceeded guard {guard:g} at t={t} "
                f"(run_index={run_index}); aborting"
            )
        synced, d2m = _dv2_large(states, eps2)
        if not hit and synced:
            hit, t_hit, dve = True, t, float(np.sqrt(d2m))
            deadline = t + extra_after_hit
        elif hit and not synced:
            absorb_ok = False
        if not hit and t == horizon:
            if d2m is None:
                d2m = max_sq_dist(states)
            dve = float(np.sqrt(d2m))
        if recorder:
            recorder.observe(t, states, d2m if d2m is not None else np.nan, final=t == deadline)
    return hit, t_hit, dve, absorb_ok


def run_trajectory(
    cfg: ModelConfig,
    horizon: int,
    base_seed: int = 0,
    run_index: int = 0,
    extra_after_hit: int = 0,
    record_stride: int = 0,
    snapshot_stride: int = 0,
):
    """One run; returns (HittingSample, TrajectoryRecord or None)."""
    res = run_batch(
        cfg,
        base_seed,
        [run_index],
        horizon,
        extra_after_hit=extra_after_hit,
        record_stride=record_stride,
        snapshot_stride=snapshot_stride,
    )
    return res.samples[0], res.record


def check_absorbing(
    cfg: ModelConfig,
    base_seed: int,
    run_index: int,
    t_hit: int,
    extra_steps: int = 1000,
) -> bool:
    """Continue a hit run's own noise stream and verify d_V stays <= epsilon.

    Refuses when delta > epsilon/2 (the absorbing property is then not
    guaranteed) unless the config carries allow_large_delta.
    """
    if cfg.delta > cfg.epsilon / 2.0 and not cfg.allow_large_delta:
        raise ValueError(
            "delta > epsilon/2: absorbing check is meaningless without allow_large_delta"
        )
    horizon = max(t_hit, 1)
    res = run_batch(cfg, base_seed, [run_index], horizon, extra_after_hit=extra_steps)
    sample = res.samples[0]
    if not sample.hit or sample.t_hit != t_hit:
        raise ValueError(
            f"run {run_index} hits at {sample.t_hit} (hit={sample.hit}), not at claimed {t_hit}"
        )
    return bool(res.absorb_ok[0])
