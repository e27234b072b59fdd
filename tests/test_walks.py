"""Walk oracles: first passage, stretched recursion, recurrence, gap walk."""

import tracemalloc

import numpy as np
import pytest

import hklab.walks as walks
from hklab.engine import run_batch
from hklab.model import InitialCondition, ModelConfig, sq_norm_last
from hklab.noise import NoiseSpec, noise_block
from hklab.projected import MapSpec, ProjectedSystemSpec, hitting_time_td, trajectory
from hklab.prng import run_keys
from hklab.walks import (
    SIMPLE_STEP,
    ClusterWalkSpec,
    StretchedWalkSpec,
    WalkSpec,
    cluster_gap_walk,
    first_passage_below,
    recurrence_profile,
    stretched_first_passage,
    validate_walk_spec,
)


def test_simple_step_is_unit_signs():
    xi = noise_block(SIMPLE_STEP, run_keys(0, np.arange(4)), [1, 2, 3], 1, 1)
    assert set(np.unique(xi)) == {-1.0, 1.0}


def test_first_passage_first_step_probability():
    # From 0 with +-1 steps, T = 1 exactly when the first step is -1.
    spec = WalkSpec(dim=1)
    samples = first_passage_below(spec, 0.0, base_seed=2, run_indices=np.arange(4000), horizon=4)
    frac = np.mean([s.hit and s.t_hit == 1 for s in samples])
    assert abs(frac - 0.5) < 3 * 0.5 / np.sqrt(4000)


def test_first_passage_matches_manual_replay():
    spec = WalkSpec(dim=1)
    horizon = 300
    idx = np.arange(40)
    samples = first_passage_below(spec, 0.0, base_seed=9, run_indices=idx, horizon=horizon)
    steps = noise_block(SIMPLE_STEP, run_keys(9, idx), np.arange(1, horizon + 1), 1, 1)[:, :, 0, 0]
    path = np.cumsum(steps, axis=1)
    for k, s in enumerate(samples):
        below = np.flatnonzero(path[k] <= 0.0)
        if below.size:
            assert s.hit and s.t_hit == below[0] + 1
            assert s.end_value == path[k, below[0]]
        else:
            assert not s.hit and s.t_hit == horizon
            assert s.end_value == path[k, -1]


def test_first_passage_crossing_values():
    # A +-1 walk cannot jump the level: a first hit after step one must
    # land exactly on 0, and only a first-step hit can land on -1.
    samples = first_passage_below(WalkSpec(dim=1), 0.0, 3, np.arange(500), 64)
    for s in samples:
        if s.hit:
            assert s.end_value == (-1.0 if s.t_hit == 1 else 0.0)


def test_first_passage_validation():
    with pytest.raises(ValueError, match="dim 1"):
        first_passage_below(WalkSpec(dim=2), 0.0, 0, [0], 10)
    with pytest.raises(ValueError, match="b must be <= 0"):
        first_passage_below(WalkSpec(dim=1), 0.5, 0, [0], 10)
    with pytest.raises(ValueError, match="horizon"):
        first_passage_below(WalkSpec(dim=1), 0.0, 0, [0], 0)


def test_stretched_beta_one_reduces_to_plain_walk():
    # With beta = 1 and a slack clip bound the recursion is the plain
    # walk, so the two oracles must agree sample by sample.
    idx = np.arange(200)
    plain = first_passage_below(WalkSpec(dim=1), 0.0, 5, idx, 200)
    stretched = stretched_first_passage(StretchedWalkSpec(beta=1.0, bound_m=2.0), 5, idx, 200)
    for p, s in zip(plain, stretched):
        assert (p.hit, p.t_hit, p.end_value) == (s.hit, s.t_hit, s.end_value)


def test_stretched_escape_is_flagged_not_iterated():
    # beta=2, M=1: once S*(beta-1) > M the run can never return; it is
    # censored with end_value inf instead of overflowing.
    samples = stretched_first_passage(
        StretchedWalkSpec(beta=2.0, bound_m=1.0), 11, np.arange(2000), 50
    )
    hits = [s for s in samples if s.hit]
    escapes = [s for s in samples if not s.hit]
    assert escapes and hits
    assert all(np.isinf(s.end_value) for s in escapes)
    assert all(s.end_value <= 0.0 for s in hits)
    # First-step hit probability is P{xi <= 0} = 1/2.
    frac1 = np.mean([s.hit and s.t_hit == 1 for s in samples])
    assert abs(frac1 - 0.5) < 3 * 0.5 / np.sqrt(2000)


def test_stretched_validation():
    assert validate_walk_spec(StretchedWalkSpec(beta=0.0, bound_m=1.0))
    assert validate_walk_spec(StretchedWalkSpec(beta=1.0, bound_m=0.0))
    assert validate_walk_spec("nonsense")


def test_recurrence_counts_dim1_grow_dim3_stabilize():
    idx = np.arange(256)
    one = recurrence_profile(WalkSpec(dim=1), 1.0, [100, 1_000, 10_000], 7, idx)
    # Recurrent walk: visit counts keep growing like sqrt(h).
    assert one.mean_visits[1] > 1.5 * one.mean_visits[0]
    assert one.mean_visits[2] > 2.0 * one.mean_visits[1]
    assert np.all(np.diff(one.visits, axis=1) >= 0)
    three = recurrence_profile(
        WalkSpec(dim=3, step=NoiseSpec("rademacher_axes", np.sqrt(3.0))), 1.0,
        [100, 1_000, 10_000], 7, idx,
    )
    # Transient walk: almost all visits happen early.
    assert three.mean_visits[2] < 1.2 * three.mean_visits[1]
    assert three.mean_visits[2] < one.mean_visits[2]
    # Diffusive endpoint scaling ||U(h)||/sqrt(h) stays order one.
    assert 0.5 < one.scaled_end_norm[2] < 1.5


def test_recurrence_horizon_zero_counts_start():
    prof = recurrence_profile(WalkSpec(dim=1), 1.0, [0, 16], 0, np.arange(8))
    np.testing.assert_array_equal(prof.visits[:, 0], np.ones(8))
    assert np.isnan(prof.scaled_end_norm[0])
    assert prof.mean_visits[1] >= 1.0


def test_cluster_gap_path_shapes_and_bound():
    # The gap steps y(t) of one run's first 50 steps.
    spec = ClusterWalkSpec(n1=2, n2=3, noise=NoiseSpec("uniform_ball", 0.25), dim=2)
    xi = noise_block(spec.noise, run_keys(3, [0]), np.arange(1, 51), 5, 2)
    y = walks._cluster_y(xi, spec.n1)[0]
    assert y.shape == (50, 2)
    # Each group mean has norm <= delta, so the difference stays <= 2*delta.
    norms = np.sqrt(np.sum(y * y, axis=1))
    assert np.all(norms <= 0.5)


def test_cluster_gap_endpoints_symmetric():
    # Z(400) of 2000 runs: the sum of each run's first 400 gap steps.
    spec = ClusterWalkSpec(n1=2, n2=2, noise=NoiseSpec("uniform_cube", 0.25), dim=1)
    xi = noise_block(spec.noise, run_keys(6, np.arange(2000)), np.arange(1, 401), 4, 1)
    z = walks._cluster_y(xi, spec.n1).sum(axis=1)[:, 0]
    # Z(t) is a sum of symmetric terms: mean 0, balanced signs.
    sd = z.std() / np.sqrt(z.size)
    assert abs(z.mean()) < 4 * sd
    assert abs(np.mean(z > 0) - 0.5) < 4 * 0.5 / np.sqrt(z.size)


def test_cluster_gap_walk_matches_manual_qmin():
    spec = ClusterWalkSpec(n1=2, n2=2, noise=NoiseSpec("uniform_cube", 0.25), dim=1)
    gap0, thr, horizon = 2.5, 0.5, 400
    idx = np.arange(30)
    samples = cluster_gap_walk(spec, [gap0], 8, idx, horizon, threshold=thr)
    xi = noise_block(spec.noise, run_keys(8, idx), np.arange(1, horizon + 1), 4, 1)
    y = xi[:, :, :2, 0].mean(axis=2) - xi[:, :, 2:, 0].mean(axis=2)
    z = np.concatenate([np.zeros((30, 1)), np.cumsum(y, axis=1)], axis=1)
    qmin = gap0 + z[:, :-1] + xi[:, :, :2, 0].min(axis=2) - xi[:, :, 2:, 0].max(axis=2)
    for k, s in enumerate(samples):
        below = np.flatnonzero(qmin[k] <= thr)
        if below.size:
            assert s.hit and s.t_hit == below[0] + 1
            assert s.end_value == qmin[k, below[0]]
        else:
            assert not s.hit


@pytest.mark.parametrize("dim, sizes", [(1, range(1, 8)), (2, range(1, 17)), (3, range(1, 17))])
def test_cluster_y_equals_strided_means(dim, sizes):
    # The gap walk's ordered slice sums equal numpy's strided means bit
    # for bit for every group size of these ranges, which cover every
    # preset; at dim 1 numpy sums 8 or more agents pairwise and differs.
    rng = np.random.default_rng(dim)
    for n1 in sizes:
        for n2 in (1, n1, 16 if dim > 1 else 7):
            xi = rng.random((20, 30, n1 + n2, dim)) - 0.5
            want = xi[..., :n1, :].mean(axis=-2) - xi[..., n1:, :].mean(axis=-2)
            np.testing.assert_array_equal(walks._cluster_y(xi, n1), want)


def test_sq_norm_into_equals_sq_norm_last():
    # The walks' in-place squared norms add coordinates in sq_norm_last's
    # order, so they are its values bit for bit.
    rng = np.random.default_rng(6)
    for dim in (1, 2, 3, 5):
        x = rng.random((7, 11, dim)) - 0.5
        want = sq_norm_last(x)
        np.testing.assert_array_equal(walks._sq_norm_into(x.copy()), want)


def test_group_extremes_equal_strided_reductions():
    # Q_min's group minimum and maximum, folded one agent slice at a time,
    # equal numpy's reductions over the agent axis: min and max are exact.
    xi = np.random.default_rng(4).random((20, 30, 12, 1)) - 0.5
    for lo, hi in ((0, 1), (0, 5), (5, 12), (3, 12)):
        lo_hi = xi[:, :, lo:hi, :]
        np.testing.assert_array_equal(walks._over_agents(np.minimum, xi, lo, hi), lo_hi.min(axis=2))
        np.testing.assert_array_equal(walks._over_agents(np.maximum, xi, lo, hi), lo_hi.max(axis=2))


def test_hitting_driver_holds_one_noise_chunk_at_a_time(monkeypatch):
    # The censored-hitting driver draws and advances a chunk one tile of
    # runs at a time and frees each tile's draws before it draws the next:
    # a gap walk of many chunks peaks below three tiles of uniforms (one
    # tile, the ball transform's scratch and the group means), far below
    # one chunk (16 MB at the default budget).
    ball = ClusterWalkSpec(n1=2, n2=2, noise=NoiseSpec("uniform_ball", 0.25), dim=3)
    cube = ClusterWalkSpec(n1=5, n2=5, noise=NoiseSpec("uniform_cube", 0.25), dim=1)
    walks_by_budget = {
        200_000: lambda: cluster_gap_walk(
            ball, [3.0, 0.0, 0.0], 3, np.arange(100), 20_000, radius=0.5
        ),
        walks._CHUNK_ELEMS: lambda: cluster_gap_walk(
            cube, [2.5], 3, np.arange(200), 10_000, threshold=0.5
        ),
    }
    for budget, walk in walks_by_budget.items():
        monkeypatch.setattr(walks, "_CHUNK_ELEMS", budget)
        walk()
        tracemalloc.start()
        try:
            walk()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * walks._TILE_ELEMS * 8 < budget * 8, budget


def _bytes_held_at_each_draw(monkeypatch, call):
    """Traced bytes still allocated by call each time it draws a noise chunk."""
    held = []
    draw = walks._steps_block

    def recorded(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return draw(*args)

    monkeypatch.setattr(walks, "_steps_block", recorded)
    tracemalloc.start()
    try:
        call()
    finally:
        tracemalloc.stop()
    return held


_BALL = NoiseSpec("uniform_ball", 0.25)
_TRAJECTORY_SPEC = ProjectedSystemSpec(
    dim=3, r=1.0, r0=0.5, map=MapSpec("identity"), noise=_BALL
)


@pytest.mark.parametrize(
    "call, preallocated",
    [
        (
            lambda: cluster_gap_walk(
                ClusterWalkSpec(2, 2, _BALL, 3), [3.0, 0.0, 0.0], 3, np.arange(100), 400, radius=0.5
            ),
            0,
        ),
        (lambda: trajectory(_TRAJECTORY_SPEC, 3, 0, 20_000), 20_001 * 3 * 8),
    ],
    ids=["cluster_gap_walk", "trajectory"],
)
def test_chunk_loops_free_each_chunk_before_the_next(monkeypatch, call, preallocated):
    # Every chunked loop drops a chunk's draws before drawing the next, so
    # what it holds at a draw is its preallocated output and small state,
    # well under half a chunk, never a chunk of draws.
    monkeypatch.setattr(walks, "_CHUNK_ELEMS", 20_000)
    held = _bytes_held_at_each_draw(monkeypatch, call)
    assert len(held) >= 3
    assert max(held) < preallocated + 20_000 * 8 // 2


def test_cluster_walk_bounds_simulation_hit_times():
    # First-contact coupling: on shared streams the simulated group
    # cannot quasi-synchronize before the gap walk first dips to the
    # contact threshold, so T_sim >= T_Q run by run.
    noise = NoiseSpec("uniform_cube", 0.25)
    cfg = ModelConfig(
        n=4,
        d=1,
        epsilon=0.5,
        space_mode="unbounded",
        noise=noise,
        initial=InitialCondition("two_cluster", separation_eps=5.0, sizes=(2, 2)),
    )
    horizon = 2000
    idx = np.arange(64)
    sim = run_batch(cfg, 31, idx, horizon)
    walk = cluster_gap_walk(
        ClusterWalkSpec(n1=2, n2=2, noise=noise, dim=1),
        [2.5],
        31,
        idx,
        horizon,
        threshold=0.5,
    )
    sim_hits = 0
    for s, q in zip(sim.samples, walk):
        if s.hit:
            sim_hits += 1
            assert q.hit and q.t_hit <= s.t_hit
    assert sim_hits > 10  # the comparison must actually exercise hits


def test_cluster_gap_walk_ball_variant():
    spec = ClusterWalkSpec(n1=2, n2=2, noise=NoiseSpec("uniform_ball", 0.25), dim=3)
    samples = cluster_gap_walk(
        spec, [1.0, 0.0, 0.0], 0, np.arange(32), 500, radius=0.75
    )
    for s in samples:
        if s.hit:
            assert s.end_value <= 0.75
        else:
            assert s.end_value > 0.75


def test_cluster_gap_walk_validation():
    spec = ClusterWalkSpec(n1=2, n2=2, noise=SIMPLE_STEP, dim=2)
    with pytest.raises(ValueError, match="scalar"):
        cluster_gap_walk(spec, [1.0, 0.0], 0, [0], 10)
    with pytest.raises(ValueError, match="coordinates"):
        cluster_gap_walk(spec, [1.0], 0, [0], 10, radius=0.5)
    bad = ClusterWalkSpec(n1=0, n2=2, noise=SIMPLE_STEP, dim=1)
    with pytest.raises(ValueError, match="group sizes"):
        cluster_gap_walk(bad, [1.0], 0, [0], 10)


def test_hitting_sample_t_end():
    samples = first_passage_below(WalkSpec(dim=1), 0.0, 0, np.arange(20), 16)
    for s in samples:
        assert s.t_end == (s.t_hit if s.hit else 16)


def test_oracles_invariant_to_chunk_boundaries(monkeypatch):
    # No sample may depend on the chunk lengths or on which runs share a
    # call.  Exact steps (+-1 walk steps; group means of axis signs over
    # power-of-two groups) round the same in any order; uniform noise
    # does not, so a sum that restarts at a chunk boundary shows in the
    # end values.  The stretched and projected recursions step one at a
    # time.
    idx = np.arange(64)
    signs = NoiseSpec("rademacher_axes", 1.0)
    gap1 = ClusterWalkSpec(n1=2, n2=4, noise=signs, dim=1)
    gap2 = ClusterWalkSpec(n1=2, n2=2, noise=NoiseSpec("rademacher_axes", np.sqrt(2.0)), dim=2)
    proj = ProjectedSystemSpec(dim=1, r=16.0, r0=1.0, map=MapSpec("identity"), noise=signs)
    cube = ClusterWalkSpec(n1=3, n2=2, noise=NoiseSpec("uniform_cube", 0.5), dim=1)
    ball = ClusterWalkSpec(n1=2, n2=3, noise=NoiseSpec("uniform_ball", 0.5), dim=3)
    walk = WalkSpec(dim=2, step=NoiseSpec("uniform_cube", 1.0))
    hitting = {
        "first passage": lambda runs: first_passage_below(WalkSpec(dim=1), -2.0, 4, runs, 300),
        "stretched": lambda runs: stretched_first_passage(
            StretchedWalkSpec(beta=1.5, bound_m=1.0), 4, runs, 300
        ),
        "gap signs": lambda runs: cluster_gap_walk(gap1, [3.0], 4, runs, 300, threshold=0.5),
        "gap signs ball": lambda runs: cluster_gap_walk(gap2, [3.0, 0.0], 4, runs, 300, radius=1.0),
        "projected": lambda runs: hitting_time_td(proj, 4, runs, 300),
        "gap cube": lambda runs: cluster_gap_walk(cube, [2.0], 6, runs, 400, threshold=0.25),
        "gap ball": lambda runs: cluster_gap_walk(ball, [1.5, 0.0, 0.0], 6, runs, 400, radius=0.5),
    }

    def recurrence(runs):
        # The profile's one float is a mean over runs, so each run's end
        # norm comes from a call of its own; visit counts from the batch.
        ends = [recurrence_profile(walk, 1.0, [50, 300], 6, [r]).scaled_end_norm for r in runs]
        visits = recurrence_profile(walk, 1.0, [50, 300], 6, runs).visits
        return [v.tolist() + e.tolist() for v, e in zip(visits, ends)]

    calls = {
        name: lambda runs, f=f: [(s.run_index, s.hit, s.t_hit, s.end_value) for s in f(runs)]
        for name, f in hitting.items()
    }
    calls["recurrence"] = recurrence

    whole = {name: call(idx) for name, call in calls.items()}
    for name in hitting:
        hits = [hit for _, hit, _, _ in whole[name]]
        assert any(hits) and not all(hits), name
    # One-step chunks, then chunks of a few steps that split every sum;
    # each drawn by tiles of one run, and as one tile.
    for budget in (5, 2000):
        monkeypatch.setattr(walks, "_CHUNK_ELEMS", budget)
        for tile in (1, 10**9):
            monkeypatch.setattr(walks, "_TILE_ELEMS", tile)
            assert {name: call(idx) for name, call in calls.items()} == whole, (budget, tile)
    # Under the last budget a lone run's chunks are 64 times longer.
    for name, call in calls.items():
        solo = [row for k in range(idx.size) for row in call(idx[k : k + 1])]
        assert solo == whole[name], name


def test_recursions_draw_each_chunk_in_one_call(monkeypatch):
    # The stretched and projected recursions step one at a time, so they
    # take a chunk as one tile: each call draws the chunk after the one
    # before, for every run still going, though chunks outgrow a tile.  A
    # walk draws its chunks by tiles, in more calls.
    monkeypatch.setattr(walks, "_TILE_ELEMS", 64)
    calls = []
    steps_block = walks._steps_block

    def counting(step, keys, t0, nsteps, n, d):
        calls.append((t0, nsteps, keys.shape[0]))
        return steps_block(step, keys, t0, nsteps, n, d)

    monkeypatch.setattr(walks, "_steps_block", counting)
    idx = np.arange(200)
    proj = ProjectedSystemSpec(
        dim=2, r=4.0, r0=0.1, map=MapSpec("identity"), noise=NoiseSpec("uniform_ball", 1.0)
    )
    stretched = StretchedWalkSpec(beta=1.0, bound_m=1.0)
    for call in (
        lambda: stretched_first_passage(stretched, 7, idx, 5000),
        lambda: hitting_time_td(proj, 7, idx, 5000),
    ):
        calls.clear()
        call()
        chunk_ends = [t0 + nsteps for t0, nsteps, _ in calls]
        assert [t0 for t0, _, _ in calls] == [0] + chunk_ends[:-1]
        assert max(nsteps * runs for _, nsteps, runs in calls) > walks._TILE_ELEMS
    calls.clear()
    first_passage_below(WalkSpec(dim=1), -1e9, 7, idx, 5000)
    assert len(calls) > len({t0 for t0, _, _ in calls})


def test_hitting_draws_at_most_twice_the_steps_used(monkeypatch):
    # Chunks double from one step, so a run stopping at step T is drawn
    # through step 2T - 1 at most; the horizon stays below the budget cap.
    drawn = []
    steps_block = walks._steps_block

    def counting(step, keys, t0, nsteps, n, d):
        drawn.append(keys.shape[0] * nsteps)
        return steps_block(step, keys, t0, nsteps, n, d)

    monkeypatch.setattr(walks, "_steps_block", counting)
    proj = ProjectedSystemSpec(
        dim=2, r=4.0, r0=1.0, map=MapSpec("identity"), noise=NoiseSpec("uniform_ball", 1.0)
    )
    idx = np.arange(200)
    calls = (
        lambda: first_passage_below(WalkSpec(dim=1), 0.0, 7, idx, 2000),
        lambda: hitting_time_td(proj, 7, idx, 2000),
    )
    for call in calls:
        drawn.clear()
        samples = call()
        assert 0 < sum(drawn) <= 2 * sum(s.t_end for s in samples)
