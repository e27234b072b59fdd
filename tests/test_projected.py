"""Projected recursions: projection facts, map coefficients, hitting times."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hklab.model import sq_norm_last
from hklab.noise import NoiseSpec
from hklab.projected import (
    MapSpec,
    ProjectedSystemSpec,
    apply_map,
    declared_coefficient,
    hitting_time_td,
    project_to_ball,
    sampled_audit,
    trajectory,
    validate_projected_spec,
)

points = arrays(
    np.float64,
    st.tuples(st.integers(1, 8), st.integers(1, 4)),
    elements=st.floats(-3.0, 3.0, allow_nan=False),
)


@given(points)
@settings(max_examples=60, deadline=None)
def test_projection_idempotent_and_bounded(x):
    p = project_to_ball(x, 1.0)
    assert np.all(sq_norm_last(p) <= 1.0)
    np.testing.assert_array_equal(project_to_ball(p, 1.0), p)


def test_projection_inside_is_bitwise_identity():
    x = np.array([[0.3, -0.4], [0.0, 0.0], [0.6, 0.8]])
    p = project_to_ball(x, 1.0)
    np.testing.assert_array_equal(p, x)
    assert p is not x  # caller may mutate the result freely


def test_projection_outside_is_radial():
    p = project_to_ball(np.array([3.0, 4.0]), 1.0)
    np.testing.assert_allclose(p, [0.6, 0.8])


@given(points, points)
@settings(max_examples=40, deadline=None)
def test_projection_nonexpansive(x, y):
    if x.shape != y.shape:
        return
    px, py = project_to_ball(x, 1.0), project_to_ball(y, 1.0)
    before = np.sqrt(sq_norm_last(x - y))
    after = np.sqrt(sq_norm_last(px - py))
    assert np.all(after <= before + 1e-12)


def test_apply_map_families():
    x = np.array([[1.0, 0.0], [0.2, 0.0]])
    np.testing.assert_array_equal(apply_map(MapSpec("identity"), x, 0.5), x)
    np.testing.assert_allclose(apply_map(MapSpec("linear_scale", alpha=0.5), x, 0.5), 0.5 * x)
    # target_stretch fixes the target ball pointwise and stretches the
    # excess distance by alpha.
    stretched = apply_map(MapSpec("target_stretch", alpha=2.0), x, 0.5)
    np.testing.assert_allclose(stretched[0], [1.5, 0.0])
    np.testing.assert_allclose(stretched[1], [0.2, 0.0])


def test_hk_mean_map_averages_components():
    spec = MapSpec("hk_mean", epsilon=10.0, n=2, d=1)
    out = apply_map(spec, np.array([[0.2, 0.8]]), 0.5)
    np.testing.assert_allclose(out, [[0.5, 0.5]])
    # Disconnected components keep their own means.
    tight = MapSpec("hk_mean", epsilon=0.1, n=2, d=1)
    out = apply_map(tight, np.array([[0.2, 0.8]]), 0.5)
    np.testing.assert_allclose(out, [[0.2, 0.8]])


def test_declared_coefficients():
    assert declared_coefficient(MapSpec("identity")) == 1.0
    assert declared_coefficient(MapSpec("linear_scale", alpha=0.7)) == 0.7
    assert declared_coefficient(MapSpec("linear_scale", alpha=1.2)) == np.inf
    assert declared_coefficient(MapSpec("target_stretch", alpha=1.2)) == 1.2
    assert declared_coefficient(MapSpec("hk_mean", epsilon=1.0, n=2, d=1)) == 1.0


def _spec(map_spec, dim=1, r=1.0, r0=0.5, delta=0.25, family="uniform_ball", start=()):
    return ProjectedSystemSpec(
        dim=dim, r=r, r0=r0, map=map_spec, noise=NoiseSpec(family, delta), start=start
    )


def test_validate_projected_spec():
    assert validate_projected_spec(_spec(MapSpec("target_stretch", alpha=1.2))) == []
    bad = _spec(MapSpec("spiral"), r0=2.0)
    msgs = validate_projected_spec(bad)
    assert any("unknown map family" in m for m in msgs)
    assert any("0 < r0 < r" in m for m in msgs)
    mism = _spec(MapSpec("hk_mean", epsilon=1.0, n=3, d=2), dim=5)
    assert any("needs dim 6" in m for m in validate_projected_spec(mism))
    far = _spec(MapSpec("identity"), start=(2.0,))
    assert any("outer ball" in m for m in validate_projected_spec(far))


def test_projected_audit_contractive_maps_pass():
    for m in (MapSpec("identity"), MapSpec("linear_scale", alpha=0.8)):
        res = sampled_audit(_spec(m, dim=2), points=20_000)
        assert res.violations == 0
        assert res.checked == 20_000
        assert res.max_ratio <= res.coefficient * (1.0 + 1e-9)


def test_projected_audit_target_stretch_is_tight():
    res = sampled_audit(_spec(MapSpec("target_stretch", alpha=1.2), dim=2), points=20_000)
    assert res.violations == 0
    assert res.max_ratio == pytest.approx(1.2, rel=1e-9)


def test_projected_audit_literal_expansion_unauditable():
    # linear_scale with alpha > 1 admits no finite coefficient near the
    # target boundary; the audit reports that instead of pretending.
    res = sampled_audit(_spec(MapSpec("linear_scale", alpha=1.2), dim=2), points=5_000)
    assert res.coefficient == np.inf
    assert res.checked == 0 and res.violations == 0
    assert res.max_ratio > 1.2


def test_projected_audit_hk_mean():
    spec = _spec(MapSpec("hk_mean", epsilon=0.5, n=5, d=1), dim=5, delta=0.2)
    res = sampled_audit(spec, points=20_000)
    assert res.violations == 0
    assert res.max_ratio <= 1.0 + 1e-9


def test_hitting_time_ignores_start_and_hits_fast_when_contractive():
    # Strong contraction: f(S) lands at the origin, so T_D = 1 whenever
    # the first noise kick stays inside the target.
    spec = _spec(MapSpec("linear_scale", alpha=0.0), dim=1, delta=0.25)
    samples = hitting_time_td(spec, base_seed=0, run_indices=np.arange(64), horizon=10)
    assert all(s.hit and s.t_hit == 1 for s in samples)
    assert all(s.end_value <= 0.25 for s in samples)


def test_hitting_time_start_not_inspected():
    # Start inside the target still needs t >= 1 to count as a hit.
    spec = _spec(MapSpec("identity"), dim=1, delta=0.01, start=(0.1,))
    samples = hitting_time_td(spec, base_seed=0, run_indices=[0], horizon=5)
    assert samples[0].hit and samples[0].t_hit == 1


def test_hitting_time_censors():
    # Identity map from the outer rim with tiny noise cannot cover the
    # distance within the horizon.
    spec = _spec(MapSpec("identity"), dim=1, delta=0.001)
    samples = hitting_time_td(spec, base_seed=0, run_indices=np.arange(8), horizon=20)
    assert all((not s.hit) and s.t_hit == 20 for s in samples)
    assert all(s.end_value > 0.5 for s in samples)


def test_hitting_time_batch_matches_solo():
    spec = _spec(MapSpec("target_stretch", alpha=1.2), dim=1)
    batch = hitting_time_td(spec, 3, np.arange(12), 500)
    for i in (0, 5, 11):
        solo = hitting_time_td(spec, 3, [i], 500)[0]
        ref = batch[i]
        assert (solo.run_index, solo.hit, solo.t_hit, solo.end_value) == (
            ref.run_index,
            ref.hit,
            ref.t_hit,
            ref.end_value,
        )


def test_trajectory_matches_hitting_time():
    spec = _spec(MapSpec("target_stretch", alpha=1.2), dim=2)
    path = trajectory(spec, base_seed=7, run_index=4, horizon=400)
    assert path.shape == (401, 2)
    np.testing.assert_array_equal(path[0], [1.0, 0.0])
    norms = np.sqrt(sq_norm_last(path))
    assert np.all(norms <= 1.0)
    sample = hitting_time_td(spec, 7, [4], 400)[0]
    crossings = np.flatnonzero(norms[1:] <= 0.5) + 1
    if sample.hit:
        assert crossings[0] == sample.t_hit
        assert norms[sample.t_hit] == pytest.approx(sample.end_value)
    else:
        assert crossings.size == 0


def test_hitting_time_rejects_bad_spec():
    with pytest.raises(ValueError, match="0 < r0 < r"):
        hitting_time_td(_spec(MapSpec("identity"), r0=2.0), 0, [0], 10)
    with pytest.raises(ValueError, match="horizon"):
        hitting_time_td(_spec(MapSpec("identity")), 0, [0], 0)
