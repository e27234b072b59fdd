"""Trajectory simulation and stopping-time measurement.

A run is quasi-synchronized at the first t >= 0 with d_V(t) <= epsilon
(largest pairwise distance at most the confidence radius).  The engine
reports a batch's runs as one walks.Samples, whose rows read as
walks.HittingSample: t_hit = min(T, horizon), an explicit censoring
flag, and d_V at that step as end_value.  It can optionally keep
stepping past the hit to audit that the condition is absorbing when
delta <= epsilon / 2.

One chunked loop advances exactly the runs of one batch (ensemble.py
sizes batches): noise, hit, deadline, audit and horizon bookkeeping,
recorder, magnitude guard and compaction.  Only a step's two calls
(neighbor means, d_V) and the steps per noise chunk differ with n, as
two kernels: _Lockstep (n <= _LOCKSTEP_MAX_N) holds all live runs in one
runs-last (n, d, A) tensor, with (n, n, A) buffers of n^2 A doubles;
_Indexed steps each run alone, one draw at a time, through a
NeighborIndex built each step.  Both add each agent's neighbors in
ascending agent order, so they take the same steps bit for bit.  Every
noise draw is a pure function of (base_seed, run_index, t, agent) and
every per-run reduction has a fixed order, so a run's trajectory is
bit-identical no matter which other runs share the batch.

Each pass of the loop takes one dense step or, once every running run
of a lockstep batch is synchronized, a segment of one or more steps:
each step's mean is then the total over agents, so _Lockstep.segment,
the one synchronized step, takes its steps without distances and their
d_V in one batched call.  A pass keeps its steps up to the first at
which a running run changes status, then applies that change in one
block, so the states are those of the step-by-step loop, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import walks
from .model import BOX_HI, BOX_LO, ModelConfig, pairwise_sq_dists, runs_last_sums
from .neighbors import NeighborIndex, max_sq_dist
from .noise import noise_block, uniforms_per_draw
from .prng import run_keys
from .walks import Samples, _chunk_steps, _samples

# Abort threshold for runaway unbounded states.
MAGNITUDE_GUARD = 1e12

# Lockstep batches are worthwhile only for small per-run systems.
_LOCKSTEP_MAX_N = 128

# Lockstep steps per chunk stay below this even when few runs remain.
_CHUNK_STEPS = 4096

# The buffers of one lockstep segment hold at most this share of the
# noise chunk budget, walks._CHUNK_ELEMS (2 MB of its 16 MB by default).
# Larger segments left the cache and ran slower on the thm1_bounded shapes.
_SEGMENT_SHARE = 8


@dataclass
class TrajectoryRecord:
    """Snapshots (steps, n, d) of one run at every stride-th step and its last.

    Its d_V series is model.max_pairwise_distance of each snapshot.
    """

    times: np.ndarray
    snapshots: np.ndarray


@dataclass
class BatchResult:
    samples: Samples
    absorb_ok: np.ndarray | None = None
    record: TrajectoryRecord | None = None


def _clip_to_box(x: np.ndarray) -> np.ndarray:
    """np.clip(x, BOX_LO, BOX_HI, out=x) bit for bit, at half its per-call cost."""
    np.maximum(x, BOX_LO, out=x)
    return np.minimum(x, BOX_HI, out=x)


class _Recorder:
    """Snapshots of a single-run batch, fed one block of steps at a time."""

    def __init__(self, stride: int):
        self.stride = stride
        self.times: list[int] = []
        self.snaps: list[np.ndarray] = []

    def observe(self, ts: np.ndarray, states: np.ndarray, deadline: int) -> None:
        """Keep the states (S, n, d, 1) of steps ts the run takes at its stride or last step."""
        keep = (ts <= deadline) & ((ts % self.stride == 0) | (ts == deadline))
        self.times.extend(ts[keep].tolist())
        self.snaps.extend(states[keep, :, :, 0])

    def build(self) -> TrajectoryRecord:
        return TrajectoryRecord(np.asarray(self.times, dtype=np.int64), np.stack(self.snaps))


class _Lockstep:
    """Step kernel of n <= _LOCKSTEP_MAX_N: all live runs in one batch.

    Distances go into a runs-last (n, n, A) buffer through its (A, n, n)
    view, and a step's neighbor sums take their adjacency from the
    previous step's distances there.  Its d_V is always exact.  From a
    synchronized batch, segment() advances one or more steps by the
    total over agents and takes their d_V in one call; that leaves the
    distance buffer stale, and the next mean() refreshes it.
    """

    def __init__(self, cfg: ModelConfig, a: int):
        n = cfg.n
        self.epsilon = cfg.epsilon
        self.chunk_steps = _CHUNK_STEPS
        self.d2, self.prod, self.deg = np.empty((n, n, a)), np.empty((n, n, a)), np.empty((n, a))
        self.seg = None
        self.stale = False

    def compact(self, keep) -> None:
        self.d2 = np.compress(keep, self.d2, axis=2)
        n, _, a = self.d2.shape
        self.prod, self.deg = np.empty((n, n, a)), np.empty((n, a))
        self.seg = None

    def segment_steps(self, states: np.ndarray) -> int:
        """Steps segment() may take at once; 0 where the total is not the kernel's sum.

        With every pair a neighbor, the total over agents is
        runs_last_sums with an all-ones adjacency, bit for bit, as long
        as the reduce adds the outer agent axis one slice at a time:
        that needs a contiguous inner axis of length > 1.  Over a lone
        contiguous axis (d = 1, one run) it would add pairwise.  A
        segment's buffers, its states and two (n - 1, A) distance
        buffers per step, hold at most walks._CHUNK_ELEMS //
        _SEGMENT_SHARE doubles.
        """
        n, d, a = states.shape
        if d * a == 1 or not states.flags.c_contiguous:
            return 0
        return max(1, walks._CHUNK_ELEMS // _SEGMENT_SHARE // (a * (n * d + 2 * (n - 1))))

    def segment(self, states, noise, running, bounded: bool):
        """States and d_V^2 of the steps of noise from a synchronized batch.

        noise (S, n, d, A) holds the draws of S steps and running (S, A)
        flags the runs that step at each; a run that does not keeps its
        state, as in the dense loop.  Every step takes the total over
        agents, which is the dense kernel's mean as long as every
        running run stays synchronized: the caller keeps the steps up to
        the first at which one leaves.  Returns the states, a (S, n, d,
        A) view of a buffer the next segment overwrites, and d_V^2 (S,
        A); the distance buffer is left stale.

        d_V^2 is the largest pairwise_sq_dists entry over pairs i < j,
        one call per agent i over all steps: entry [j, i] equals [i, j]
        bit for bit and the diagonal is 0, so it is the dense kernel's
        maximum with half its terms.
        """
        steps, n, d, a = noise.shape
        self.stale = True
        if self.seg is None or self.seg[0].shape[0] < steps:
            shapes = ((n, d, a), (n - 1, a), (n - 1, a))
            self.seg = tuple(np.empty((steps,) + shape) for shape in shapes)
        seg, pair, tmp = (buf[:steps] for buf in self.seg)
        prev = states
        for j in range(steps):
            new = seg[j]
            np.divide(np.add.reduce(prev, axis=0), n, out=new)
            new += noise[j]
            if bounded:
                _clip_to_box(new)
            if not running[j].all():
                np.copyto(new, prev, where=~running[j])
            prev = new
        x = seg.transpose(0, 3, 1, 2)
        dv2 = np.zeros((steps, a))
        for i in range(n - 1):
            # (S, A, 1, n - 1 - i) views of the runs-last pair buffers.
            out, scratch = (buf[:, i:].transpose(0, 2, 1)[:, :, None, :] for buf in (pair, tmp))
            pairwise_sq_dists(x[..., i : i + 1, :], x[..., i + 1 :, :], out=out, tmp=scratch)
            np.maximum(dv2, pair[:, i:].max(axis=1), out=dv2)
        return seg, dv2

    def sq_dv(self, states: np.ndarray, exact: bool) -> np.ndarray:
        runs = (2, 0, 1)
        out, tmp = self.d2.transpose(runs), self.prod.transpose(runs)
        pairwise_sq_dists(states.transpose(runs), out=out, tmp=tmp)
        return self.d2.max(axis=(0, 1))

    def mean(self, states: np.ndarray, out: np.ndarray) -> np.ndarray:
        if self.stale:
            self.sq_dv(states, exact=False)
            self.stale = False
        out, deg = runs_last_sums(states, self.d2, self.epsilon, out=out, prod=self.prod, deg=self.deg)
        out /= deg[:, None]
        return out


class _Indexed:
    """Step kernel of n > _LOCKSTEP_MAX_N: each run alone, through an index.

    Each step builds one NeighborIndex (grid or brute, as "auto" picks)
    per run over a contiguous copy of its states; its sums are the
    lockstep kernel's, on blocks of candidates.  Noise is drawn one
    step at a time: a grid step costs far more than its draw, and longer
    chunks would only hold more noise in memory.  It keeps no per-run
    buffer, so compaction has nothing to drop.
    """

    chunk_steps = 1

    def __init__(self, cfg: ModelConfig, a: int):
        self.epsilon = cfg.epsilon
        self.eps2 = cfg.epsilon * cfg.epsilon

    def compact(self, keep) -> None:
        pass

    def segment_steps(self, states: np.ndarray) -> int:
        return 0

    def sq_dv(self, states: np.ndarray, exact: bool) -> np.ndarray:
        """d_V^2 per run, or NaN where an O(n d) prune shows d_V > epsilon.

        If some coordinate range alone exceeds epsilon the pair
        realizing it is at least that far apart, so the run cannot be
        synchronized.  The prune's square is the very term
        pairwise_sq_dists adds for that pair, and adding nonnegative
        terms never rounds below one of them, so it never contradicts
        the exact maximum.  Only near-synchronized runs, and every run
        when exact d_V is asked for, reach neighbors.max_sq_dist.
        """
        rng = states.max(axis=0) - states.min(axis=0)
        far = (rng * rng).max(axis=0) > self.eps2
        out = np.full(states.shape[2], np.nan)
        for k in np.flatnonzero(exact | ~far):
            out[k] = max_sq_dist(np.ascontiguousarray(states[:, :, k]))
        return out

    def mean(self, states: np.ndarray, out: np.ndarray) -> np.ndarray:
        # NeighborIndex is read from this module at call time, so it can
        # be rebound from outside (hkbench/tracing.py does).
        for k in range(states.shape[2]):
            x = np.ascontiguousarray(states[:, :, k])
            sums, deg = NeighborIndex(x, self.epsilon).neighbor_sums()
            np.divide(sums, deg[:, None], out=out[:, :, k])
        return out


def run_batch(
    cfg: ModelConfig,
    base_seed: int,
    run_indices,
    horizon: int,
    extra_after_hit: int = 0,
    snapshot_stride: int = 0,
) -> BatchResult:
    """Advance one batch of runs to completion.

    Every run stops at min(T, horizon); with extra_after_hit > 0, hit
    runs continue for that many further steps (past the horizon if
    need be) and absorb_ok[k] reports whether d_V stayed <= epsilon
    throughout run k's continuation window.  All A runs form one batch,
    whose lockstep buffers hold n^2 A doubles each, so callers bound A
    (run_ensemble does).  Each pass of the step loop takes a dense step
    or a synchronized segment, then applies status changes in one block.
    snapshot_stride records a single run.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    run_indices = np.asarray(run_indices, dtype=np.int64)
    a0 = run_indices.shape[0]
    if snapshot_stride and a0 > 1:
        raise ValueError(f"snapshot_stride records a single run, got {a0} runs")
    if a0 == 0:
        return BatchResult(samples=_samples([], [], [], [], horizon, base_seed))
    n, d = cfg.n, cfg.d
    eps2 = cfg.epsilon * cfg.epsilon
    bounded = cfg.space_mode == "bounded"
    recorder = _Recorder(snapshot_stride) if snapshot_stride else None

    keys = run_keys(base_seed, run_indices)
    # Runs on the last axis: every elementwise op and every reduction of
    # the step runs over the contiguous run axis.
    x0 = cfg.initial.build(n, d, cfg.epsilon)
    states = np.repeat(x0[:, :, None], a0, axis=2)
    new = np.empty(states.shape)
    kernel = (_Indexed if n > _LOCKSTEP_MAX_N else _Lockstep)(cfg, a0)

    hit_all = np.zeros(a0, dtype=bool)
    t_hit_all = np.full(a0, horizon, dtype=np.int64)
    dve_all = np.full(a0, np.nan)
    absorb_all = np.ones(a0, dtype=bool)

    live = np.arange(a0)
    dv2 = kernel.sq_dv(states, exact=False)
    # Whether each live run's current state is synchronized; carried
    # across chunks and compaction, since an audited run can leave.
    synced = hit0 = dv2 <= eps2
    hit_all[hit0] = True
    t_hit_all[hit0] = 0
    dve_all[hit0] = np.sqrt(dv2[hit0])
    deadline = np.where(hit0, extra_after_hit, horizon).astype(np.int64)
    if recorder:
        recorder.observe(np.zeros(1, dtype=np.int64), states[None], deadline[0])

    w = uniforms_per_draw(cfg.noise.family, d)
    t = 0
    while True:
        keep = deadline > t
        if not keep.any():
            break
        if not keep.all():
            states = np.compress(keep, states, axis=2)
            deadline = deadline[keep]
            live = live[keep]
            keys = keys[keep]
            synced = synced[keep]
            kernel.compact(keep)
            new = np.empty(states.shape)
        b = min(kernel.chunk_steps, _chunk_steps(live.shape[0], n, w, int(deadline.max()) - t))
        ts = np.arange(t + 1, t + b + 1, dtype=np.int64)
        # (B, n, d, A) view of the (A, B, n, d) draws; no copy is made.
        xi = noise_block(cfg.noise, keys, ts, n, d).transpose(1, 2, 3, 0)
        hit_live = hit_all[live]
        k = 0
        while k < b:
            tk = t + k + 1
            running = tk <= deadline
            all_running = running.all()
            all_synced = synced.all() if all_running else (synced | ~running).all()
            steps = min(b - k, kernel.segment_steps(states)) if all_synced else 0
            if steps:
                # Every running run is synchronized, so it has hit: its
                # only status change left is leaving synchronization.
                seg_running = ts[k : k + steps, None] <= deadline
                seg, seg_dv2 = kernel.segment(states, xi[k : k + steps], seg_running, bounded)
                left = (seg_running & (seg_dv2 > eps2)).any(axis=1)
                # Steps after the first that leaves synchronization did not
                # take the dense kernel's mean; they are dropped.
                if left.any():
                    steps = int(np.argmax(left)) + 1
                tk += steps - 1
                running, dv2 = seg_running[steps - 1], seg_dv2[steps - 1]
                states = seg[steps - 1].copy()
            else:
                steps = 1
                new = kernel.mean(states, new)
                new += xi[k]
                if bounded:
                    _clip_to_box(new)
                if all_running:
                    states, new = new, states
                else:
                    states = np.where(running, new, states)
                # A run censored at the horizon needs its exact d_V there.
                dv2 = kernel.sq_dv(states, exact=tk == horizon and not hit_live.all())
            # One status block at the last kept step tk: a running run first
            # synchronizes (newly) or, once hit, leaves synchronization
            # during its audit (viol); newly is a subset of synced.
            synced = dv2 <= eps2
            change = running & (synced != hit_live)
            if change.any():
                newly = change & synced
                viol = change & hit_live
                if newly.any():
                    idx = live[newly]
                    hit_all[idx] = True
                    hit_live = hit_live | newly
                    t_hit_all[idx] = tk
                    dve_all[idx] = np.sqrt(dv2[newly])
                    deadline = np.where(newly, tk + extra_after_hit, deadline)
                if viol.any():
                    absorb_all[live[viol]] = False
            if tk == horizon:
                censoring = running & ~hit_live
                if censoring.any():
                    dve_all[live[censoring]] = np.sqrt(dv2[censoring])
            if recorder:
                block = states[None] if steps == 1 else seg[:steps]
                recorder.observe(ts[k : k + steps], block, deadline[0])
            k += steps
        t += b
        # Free this chunk's draws before the next chunk's are drawn.
        del xi
        if not bounded and np.abs(states).max() > MAGNITUDE_GUARD:
            worst = int(live[np.argmax(np.abs(states).max(axis=(0, 1)))])
            raise RuntimeError(
                f"state magnitude exceeded guard {MAGNITUDE_GUARD:g} by t={t} "
                f"(run_index={int(run_indices[worst])}); aborting"
            )

    return BatchResult(
        samples=_samples(run_indices, hit_all, t_hit_all, dve_all, horizon, base_seed),
        absorb_ok=absorb_all if extra_after_hit else None,
        record=recorder.build() if recorder else None,
    )
