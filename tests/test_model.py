"""Single-step dynamics, synchronization predicate, and config validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hklab.model import (
    BOX_HI,
    BOX_LO,
    InitialCondition,
    ModelConfig,
    hk_step,
    is_quasi_synchronized,
    max_pairwise_distance,
    neighbor_set,
    pairwise_sq_dists,
    runs_last_sums,
    sq_norm_last,
    validate_model_config,
)
from hklab.noise import NoiseSpec

finite_states = arrays(
    np.float64,
    st.tuples(st.integers(2, 6), st.integers(1, 3)),
    elements=st.floats(-1.0, 1.0, allow_nan=False),
)


def test_neighbor_set_nonstrict_and_self():
    x = np.array([[0.0], [1.0], [2.5]])
    # Threshold is non-strict: the pair at distance exactly 1 is connected.
    np.testing.assert_array_equal(neighbor_set(x, 0, 1.0), [0, 1])
    np.testing.assert_array_equal(neighbor_set(x, 1, 1.0), [0, 1])
    np.testing.assert_array_equal(neighbor_set(x, 2, 1.0), [2])
    np.testing.assert_array_equal(neighbor_set(x, 2, 0.1), [2])


def test_max_pairwise_distance_simple():
    x = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    assert max_pairwise_distance(x) == 5.0
    assert max_pairwise_distance(x[:1]) == 0.0


def test_quasi_sync_boundary_is_inclusive():
    x = np.array([[0.0], [1.0]])
    assert is_quasi_synchronized(x, 1.0)
    assert not is_quasi_synchronized(x, np.nextafter(1.0, 0.0))


def test_hk_step_full_graph_is_common_mean():
    x = np.array([[0.1], [0.2], [0.3]])
    out = hk_step(x, np.zeros_like(x), epsilon=10.0, space_mode="unbounded")
    np.testing.assert_allclose(out, np.full((3, 1), 0.2))


def test_hk_step_isolated_agent_keeps_state():
    x = np.array([[0.0], [0.05], [5.0]])
    out = hk_step(x, np.zeros_like(x), epsilon=0.1, space_mode="unbounded")
    np.testing.assert_allclose(out[2], [5.0])
    np.testing.assert_allclose(out[0], [0.025])
    np.testing.assert_allclose(out[1], [0.025])


def test_hk_step_averages_then_adds_noise():
    x = np.array([[0.0], [1.0]])
    noise = np.array([[0.25], [-0.25]])
    out = hk_step(x, noise, epsilon=2.0, space_mode="unbounded")
    np.testing.assert_allclose(out, [[0.75], [0.25]])


def test_hk_step_clamps_only_in_bounded_mode():
    x = np.array([[0.9], [1.0]])
    noise = np.array([[0.5], [0.5]])
    assert hk_step(x, noise, 1.0, "unbounded")[0, 0] == pytest.approx(1.45)
    out = hk_step(x, noise, 1.0, "bounded")
    np.testing.assert_array_equal(out, [[1.0], [1.0]])
    low = hk_step(-x, -noise, 1.0, "bounded")
    np.testing.assert_array_equal(low, [[-1.0], [-1.0]])


def test_hk_step_rejects_mismatched_shapes_and_modes():
    x = np.zeros((3, 2))
    with pytest.raises(ValueError, match="noise shape"):
        hk_step(x, np.zeros((3, 1)), 1.0)
    with pytest.raises(ValueError, match="space_mode"):
        hk_step(x, np.zeros((3, 2)), 1.0, "torus")


@given(finite_states)
@settings(max_examples=50, deadline=None)
def test_step_stays_in_box_in_bounded_mode(x):
    out = hk_step(x, np.zeros_like(x), 0.5, "bounded")
    assert np.all(out >= BOX_LO) and np.all(out <= BOX_HI)


@given(
    arrays(
        np.float64,
        st.one_of(
            st.tuples(st.integers(2, 6), st.integers(1, 5)),
            st.tuples(st.integers(1, 3), st.integers(2, 6), st.integers(1, 5)),
        ),
        elements=st.floats(-1.0, 1.0, allow_nan=False),
    )
)
@settings(max_examples=100, deadline=None)
def test_pairwise_sq_dists_consistency(x):
    # Every entry, batched or not, is bitwise the squared norm of the row
    # difference, whose coordinates are added in order.
    d2 = pairwise_sq_dists(x)
    assert np.all(d2 == np.swapaxes(d2, -1, -2))
    assert np.all(np.diagonal(d2, axis1=-2, axis2=-1) == 0.0)
    np.testing.assert_array_equal(d2, sq_norm_last(x[..., :, None, :] - x[..., None, :, :]))
    np.testing.assert_array_equal(pairwise_sq_dists(x[..., :1, :], x), d2[..., :1, :])
    rows = x.reshape(-1, *x.shape[-2:])[0]
    in_order = 0.0
    for c in rows[0] - rows[-1]:
        in_order += c * c
    assert d2.reshape(-1, *d2.shape[-2:])[0, 0, -1] == in_order


@given(
    st.sampled_from([1, 2, 37]),
    st.sampled_from([2, 8, 9, 64, 128]),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 2.0),
    st.floats(-1e3, 1e3),
)
@settings(max_examples=60, deadline=None)
def test_runs_last_sums_add_neighbors_in_ascending_order(a, n, d, seed, epsilon, shift):
    # Non-dyadic states, so every addition rounds and any other order of
    # the neighbor terms would show.  The reference adds agent j's row
    # for j = 0, 1, ..., n-1 into one accumulator; numpy's pairwise sum
    # over a contiguous axis, or a BLAS matmul, would not match it.
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, d, a)) + shift
    # Distances as the lockstep batch forms them: into given runs-last
    # buffers through (A, n, d) and (A, n, n) views.  Per run they equal
    # the plain call, which allocates its own result.
    d2, tmp = np.empty((n, n, a)), np.empty((n, n, a))
    pairwise_sq_dists(x.transpose(2, 0, 1), out=d2.transpose(2, 0, 1), tmp=tmp.transpose(2, 0, 1))
    for r in range(a):
        np.testing.assert_array_equal(d2[:, :, r], pairwise_sq_dists(x[:, :, r]))
    adj = d2 <= epsilon * epsilon
    ref = np.zeros((n, d, a))
    for j in range(n):
        ref = ref + np.where(adj[j][:, None, :], x[j][None], 0.0)
    sums, deg = runs_last_sums(x, d2.copy(), epsilon)
    np.testing.assert_array_equal(sums, ref)
    np.testing.assert_array_equal(deg, adj.sum(axis=0))
    # A rectangular (C, K, A) block, as the neighbor index forms it: K
    # agents over C ascending candidate rows that hold all their
    # neighbors, with other rows between them, and K A > 1.
    rng = np.random.default_rng(seed)
    rows = rng.choice(n, int(rng.integers(2 if a == 1 else 1, n + 1)), replace=False)
    cand = np.flatnonzero(adj[:, rows].any(axis=(1, 2)) | (rng.random(n) < 0.3))
    part, part_deg = runs_last_sums(x[cand], d2[cand][:, rows], epsilon)
    np.testing.assert_array_equal(part, sums[rows])
    np.testing.assert_array_equal(part_deg, deg[rows])


@given(finite_states)
@settings(max_examples=50, deadline=None)
def test_noiseless_step_shrinks_spread(x):
    # With zero noise the convex neighbor means cannot widen the group.
    out = hk_step(x, np.zeros_like(x), 0.7, "unbounded")
    assert max_pairwise_distance(out) <= max_pairwise_distance(x) + 1e-12


# ---------------------------------------------------------------------------
# Initial conditions
# ---------------------------------------------------------------------------


def test_explicit_initial_roundtrip_and_shape_check():
    rows = ((0.0, 0.5), (-0.5, 0.25))
    init = InitialCondition("explicit", values=rows)
    x = init.build(2, 2, 1.0)
    np.testing.assert_array_equal(x, np.asarray(rows))
    with pytest.raises(ValueError, match="shape"):
        init.build(3, 2, 1.0)


def test_uniform_box_initial_deterministic_and_in_range():
    init = InitialCondition("uniform_box", seed=4)
    a = init.build(6, 2, 1.0)
    b = init.build(6, 2, 1.0)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (6, 2)
    assert np.all(np.abs(a) <= 1.0)
    c = InitialCondition("uniform_box", seed=5).build(6, 2, 1.0)
    assert not np.array_equal(a, c)


def test_two_cluster_initial_geometry():
    init = InitialCondition("two_cluster", separation_eps=5.0, sizes=(2, 3))
    x = init.build(5, 3, 0.5)
    # Centroids sit at +-separation/2 along the first axis only.
    np.testing.assert_array_equal(x[:2, 0], [1.25, 1.25])
    np.testing.assert_array_equal(x[2:, 0], [-1.25, -1.25, -1.25])
    np.testing.assert_array_equal(x[:, 1:], np.zeros((5, 2)))
    with pytest.raises(ValueError, match="sizes"):
        init.build(4, 3, 0.5)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def _cfg(**kw):
    base = dict(
        n=4,
        d=2,
        epsilon=0.5,
        space_mode="bounded",
        noise=NoiseSpec("uniform_ball", 0.25),
        initial=InitialCondition("uniform_box", seed=0),
    )
    base.update(kw)
    return ModelConfig(**base)


def test_validate_accepts_reference_config():
    assert validate_model_config(_cfg()) == []


def test_validate_rejects_small_systems_and_bad_epsilon():
    assert any("at least 2 agents" in p for p in validate_model_config(_cfg(n=1)))
    assert any("dimension" in p for p in validate_model_config(_cfg(d=0)))
    assert any("epsilon must be positive" in p for p in validate_model_config(_cfg(epsilon=0.0)))
    assert any("space_mode" in p for p in validate_model_config(_cfg(space_mode="torus")))


def test_validate_epsilon_diameter_bound_only_in_bounded_mode():
    msgs = validate_model_config(_cfg(epsilon=3.0, d=1))
    assert any("epsilon exceeds 2*sqrt(d)" in p for p in msgs)
    assert validate_model_config(_cfg(epsilon=3.0, d=1, space_mode="unbounded")) == []


def test_validate_delta_against_epsilon():
    msgs = validate_model_config(_cfg(noise=NoiseSpec("uniform_ball", 0.3)))
    assert any("delta exceeds epsilon/2" in p for p in msgs)
    assert validate_model_config(_cfg(noise=NoiseSpec("uniform_ball", 0.3), allow_large_delta=True)) == []


def test_validate_explicit_initial_in_box():
    init = InitialCondition("explicit", values=((1.5, 0.0), (0.0, 0.0), (0.0, 0.1), (0.1, 0.0)))
    msgs = validate_model_config(_cfg(initial=init))
    assert any("outside [-1, 1]" in p for p in msgs)
    assert validate_model_config(_cfg(initial=init, space_mode="unbounded")) == []


def test_validate_two_cluster_separation():
    # separation must exceed sqrt(2)*epsilon + 2*delta so the clusters
    # start disconnected and cannot touch after a single noise kick.
    ok = InitialCondition("two_cluster", separation_eps=5.0, sizes=(2, 2))
    cfg = _cfg(space_mode="unbounded", initial=ok)
    assert validate_model_config(cfg) == []
    tight = InitialCondition("two_cluster", separation_eps=2.0, sizes=(2, 2))
    msgs = validate_model_config(_cfg(space_mode="unbounded", initial=tight))
    assert any("must exceed sqrt(2)*epsilon" in p for p in msgs)


def test_validate_collects_multiple_problems():
    cfg = _cfg(n=1, epsilon=-1.0, noise=NoiseSpec("gauss", 0.0))
    msgs = validate_model_config(cfg)
    assert len(msgs) >= 3


def test_delta_property_mirrors_noise():
    cfg = _cfg(noise=NoiseSpec("uniform_cube", 0.125))
    assert cfg.delta == 0.125
