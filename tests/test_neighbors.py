"""Grid index vs brute-force scan: membership and sums must be bit-equal."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hklab.neighbors as neighbors
from hklab.model import hk_step, pairwise_sq_dists, runs_last_sums
from hklab.neighbors import NeighborIndex, max_sq_dist, resolve_mode

random_clouds = arrays(
    np.float64,
    st.tuples(st.integers(2, 40), st.integers(1, 3)),
    elements=st.floats(-2.0, 2.0, allow_nan=False, width=32),
)


def _assert_same_membership(states, epsilon):
    brute = NeighborIndex(states, epsilon, mode="brute")
    grid = NeighborIndex(states, epsilon, mode="grid")
    for i in range(states.shape[0]):
        np.testing.assert_array_equal(brute.query(i), grid.query(i))
    _, deg_b = brute.neighbor_sums()
    _, deg_g = grid.neighbor_sums()
    np.testing.assert_array_equal(deg_b, deg_g)


@given(random_clouds, st.sampled_from([0.1, 0.3, 1.0]))
@example(np.array([[1.0, 0.0], [-1.50331497e-26, 0.0]]), 1.0)
@settings(max_examples=60, deadline=None)
def test_grid_matches_brute_random(states, epsilon):
    _assert_same_membership(states, epsilon)


@pytest.mark.parametrize("magnitude", [0.0, 1.0, 1e4, 1e8, 1e12])
@pytest.mark.parametrize("epsilon", [1.0, 0.1, 0.05, 3.7])
def test_grid_matches_brute_when_rounding_closes_a_two_cell_gap(magnitude, epsilon):
    # a - b is epsilon to a few ulps, a on a multiple of epsilon: b is often
    # two cells of side epsilon below a, while a - b rounds to epsilon or
    # below, so brute force counts them as neighbors.  The gap is on the
    # pencil axis, where the grid looks only one pencil either side.
    rng = np.random.default_rng(7)
    for _ in range(40):
        a = np.floor(rng.uniform(-magnitude, magnitude) / epsilon) * epsilon
        a += rng.integers(-3, 4) * np.abs(np.spacing(a))
        b = a - epsilon
        b += rng.integers(-3, 4) * np.abs(np.spacing(b))
        states = np.array([[a, 0.5], [b, 0.5], [epsilon, 0.0], [-1e-26, 0.0]])
        _assert_same_membership(states, epsilon)


def test_grid_matches_brute_on_exact_threshold_lattice():
    # Points at integer multiples of epsilon: many pairs sit exactly on
    # the non-strict threshold and exactly on cell boundaries.
    eps = 0.25
    g = np.arange(-3, 4, dtype=np.float64) * eps
    states = np.array(np.meshgrid(g, g)).reshape(2, -1).T
    _assert_same_membership(states, eps)


def test_grid_matches_brute_negative_coordinates():
    # floor() cells must bucket negative coordinates consistently.
    states = np.array([[-0.5, -0.5], [-0.25, -0.25], [0.0, 0.0], [0.25, 0.25]])
    _assert_same_membership(states, 0.25)


@st.composite
def grid_cases(draw):
    """(states, epsilon) that stress the grid's blocks and ranges."""
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 4))
    eps = draw(st.sampled_from([0.25, 0.5, 0.1]))
    kind = draw(st.sampled_from(["uniform", "clustered", "lattice", "wide"]))
    shift = draw(st.sampled_from([0.0, 0.3, -7.25, 1e4, 1e8, -1e8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        x = rng.uniform(-1.0, 1.0, (n, d))
    elif kind == "clustered":
        x = rng.uniform(-1.0, 1.0, (3, d))[rng.integers(0, 3, n)] + rng.normal(0, eps, (n, d))
    else:
        # Multiples of epsilon: pairs exactly at the threshold and agents
        # exactly on cell boundaries.  "wide" puts three such groups
        # 2^40 cells apart on every axis, so a linear cell key (product
        # of the axes' extents) would overflow int64 from d = 2 on.
        x = rng.integers(-3, 4, (n, d)) * eps
        if kind == "wide":
            x += rng.choice([-(2.0**40), 0.0, 2.0**40], (n, d)) * eps
            shift = 0.0
    return x + shift, eps


def _wide_case():
    """Three groups 2^40 cells apart per axis in d = 3: the product of the
    axes' cell extents is about 2^123, far past int64, yet each group has
    close pairs."""
    rng = np.random.default_rng(3)
    far = rng.choice([-(2.0**40), 0.0, 2.0**40], (60, 3))
    return (far + rng.integers(-2, 3, (60, 3))) * 0.5, 0.5


@given(grid_cases())
@example(_wide_case())
@settings(max_examples=150, deadline=None)
def test_grid_blocks_match_brute(case):
    # Both modes equal the lockstep kernel over all agents, bit for bit:
    # on most cases additions round, so any other order would show.
    # Floating-point errors raise: the padding row must overflow nothing.
    states, eps = case
    n = states.shape[0]
    saved = neighbors._BLOCK, neighbors._CHUNK_ELEMS
    with np.errstate(all="raise"):
        members = [NeighborIndex(states, eps, mode="brute").query(i) for i in range(n)]
        d2 = pairwise_sq_dists(states)[:, :, None]
        ref, ref_deg = runs_last_sums(states[:, :, None], d2, eps)
        try:
            # Blocks of 1-3 agents end inside cells and straddle cell edges;
            # one-entry chunks cut the blocks into chunks of two or three.
            cases = itertools.product((1, 2, 3, saved[0]), (1, saved[1]), ("brute", "grid"))
            for block, chunk, mode in cases:
                neighbors._BLOCK, neighbors._CHUNK_ELEMS = block, chunk
                index = NeighborIndex(states, eps, mode=mode)
                for i in range(n):
                    np.testing.assert_array_equal(index.query(i), members[i])
                sums, deg = index.neighbor_sums()
                np.testing.assert_array_equal(sums, ref[:, :, 0])
                np.testing.assert_array_equal(deg, ref_deg[:, 0])
        finally:
            neighbors._BLOCK, neighbors._CHUNK_ELEMS = saved


@st.composite
def pruned_scan_states(draw):
    """States that stress the bounding-box prune of max_sq_dist."""
    n = draw(st.integers(1, 300))
    d = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["box", "lattice", "circle", "corners"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "box":
        # Clamped to the box: many coordinates sit exactly on its faces.
        x = np.clip(rng.uniform(-1.5, 1.5, (n, d)), -1.0, 1.0)
    elif kind == "lattice":
        # Few lattice values: many rows tie for the largest distance.
        x = rng.integers(-2, 3, (n, d)) * draw(st.sampled_from([0.25, 0.1, 1 / 3]))
    elif kind == "corners":
        # Box corners moved inward by a few ulps: bounds and distances of
        # different rows tie or differ in their last bits.
        x = rng.choice([-1.0, 1.0], (n, d)) * (1.0 - rng.integers(0, 4, (n, d)) * 2.0**-53)
    else:
        # Points on a circle: most rows' bounds exceed the true maximum.
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        x = np.zeros((n, d))
        x[:, 0] = np.cos(theta)
        if d > 1:
            x[:, 1] = np.sin(theta)
    shift = draw(st.sampled_from([0.0, 0.3, -7.25, 1e4, 1e8, -1e8]))
    return x + shift


@given(pruned_scan_states(), st.integers(1, 7))
@settings(max_examples=150, deadline=None)
def test_max_sq_dist_equals_full_scan(states, block_rows):
    full = float(pairwise_sq_dists(states).max())
    assert max_sq_dist(states) == full
    # Blocks of a few rows: the surviving rows span several blocks.
    saved = neighbors._BRUTE_BLOCK_ELEMS
    neighbors._BRUTE_BLOCK_ELEMS = block_rows * states.shape[0]
    try:
        assert max_sq_dist(states) == full
    finally:
        neighbors._BRUTE_BLOCK_ELEMS = saved


def test_query_always_contains_self_and_is_sorted():
    rng = np.random.default_rng(0)
    states = rng.uniform(-1, 1, size=(30, 2))
    for mode in ("brute", "grid"):
        idx = NeighborIndex(states, 0.3, mode=mode)
        for i in range(30):
            q = idx.query(i)
            assert i in q
            assert np.all(np.diff(q) > 0)


def test_neighbor_sums_agree_to_rounding():
    rng = np.random.default_rng(1)
    states = rng.uniform(-1, 1, size=(50, 2))
    sums_b, deg_b = NeighborIndex(states, 0.4, mode="brute").neighbor_sums()
    sums_g, deg_g = NeighborIndex(states, 0.4, mode="grid").neighbor_sums()
    np.testing.assert_array_equal(deg_b, deg_g)
    # Both modes add each agent's neighbors in ascending agent order.
    np.testing.assert_array_equal(sums_b, sums_g)


def test_hk_step_with_grid_index_matches_dense_membership():
    rng = np.random.default_rng(2)
    states = rng.uniform(-1, 1, size=(40, 2))
    noise = rng.uniform(-0.01, 0.01, size=(40, 2))
    # The engine's indexed kernel forms its step from the grid's sums.
    sums, deg = NeighborIndex(states, 0.3, mode="grid").neighbor_sums()
    via_index = np.clip(sums / deg[:, None] + noise, -1.0, 1.0)
    dense = hk_step(states, noise, 0.3, "bounded")
    np.testing.assert_array_equal(via_index, dense)


def test_stale_index_detected():
    states = np.zeros((4, 2))
    idx = NeighborIndex(states, 0.5, mode="grid")
    states[0, 0] = 0.75
    with pytest.raises(RuntimeError, match="stale"):
        idx.query(0)
    with pytest.raises(RuntimeError, match="stale"):
        idx.neighbor_sums()


def test_resolve_mode():
    assert resolve_mode("brute", 100, 2) == "brute"
    assert resolve_mode("grid", 100, 2) == "grid"
    # auto: grid only pays off when 3^d stays below n.
    assert resolve_mode("auto", 100, 2) == "grid"
    assert resolve_mode("auto", 8, 2) == "brute"
    assert resolve_mode("auto", 100, 5) == "brute"
    with pytest.raises(ValueError, match="unknown index mode"):
        resolve_mode("octree", 10, 2)


def test_constructor_validation():
    with pytest.raises(ValueError, match="epsilon must be positive"):
        NeighborIndex(np.zeros((3, 1)), 0.0)
    with pytest.raises(ValueError, match="must be \\(n, d\\)"):
        NeighborIndex(np.zeros(3), 0.5)
    with pytest.raises(ValueError, match="stencil"):
        NeighborIndex(np.zeros((3, 40)), 0.5, mode="grid")
    # Cells past int64 would wrap (an agent then missed even itself).
    with pytest.raises(ValueError, match="2\\^62"):
        NeighborIndex(np.full((3, 2), 1e8), 1e-12, mode="grid")
    with pytest.raises(ValueError, match="2\\^62"):
        NeighborIndex(np.array([[0.0], [np.nan]]), 0.5, mode="grid")
