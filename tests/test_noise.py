"""Noise family properties: bounds, symmetry, and addressable draws.

NOISE_GOLDEN below was generated once and frozen, as tests/test_prng.py
freezes its uniforms: every published sample depends on these bits, so
a transform may be rewritten for speed only if it reproduces them.
"""

import numpy as np
import pytest

from hklab import noise
from hklab.noise import (
    FAMILIES,
    NoiseSpec,
    noise_block,
    sample_noise,
    uniforms_per_draw,
    validate_noise_spec,
)
from hklab.prng import run_keys

# noise_block(NoiseSpec(family, 0.3), run_keys(2026, [0, 5]), [1, 2], 2, d),
# flattened to one row per draw.  rademacher_axes rows are signs.
NOISE_GOLDEN = {
    ("uniform_ball", 1): [
        [-0.04758260215884249],
        [-0.08077104406479405],
        [-0.13364403691271584],
        [-0.11637745238507435],
        [0.0915526574239195],
        [-0.2711417008072598],
        [0.24346591449522492],
        [-0.2881833686021749],
    ],
    ("uniform_ball", 2): [
        [-0.11944352742721691, 0.002832737791682816],
        [-0.014212818722456794, -0.15501389938776716],
        [-0.06904490135171235, 0.18795215527135373],
        [-0.17125424521239999, -0.07473432419078581],
        [0.16382449171706456, -0.02504661934915135],
        [-0.0821977894002778, 0.2731044372760822],
        [0.11615966842449954, -0.2440219370877909],
        [-0.2887169967537454, -0.05565524563013118],
    ],
    ("uniform_ball", 3): [
        [-0.03147860355315592, 0.2591673683183541, -0.14479358964170275],
        [-0.09968241157679343, 0.03554855471854288, -0.1914964974988887],
        [0.07069194054227987, 0.23361307577828808, 0.035993233323813593],
        [-0.05671351220193203, -0.24372845454684455, -0.007975433511366677],
        [0.025383322838133444, -0.017530377479237427, -0.05859351343444499],
        [0.09570383115818026, -0.23499448207979892, -0.15244425554503507],
        [0.10308081562629426, 0.18771677261442166, 0.18311832001437037],
        [-0.05312937032227887, -0.03132010788719218, -0.2222967869642881],
    ],
    ("uniform_ball", 5): [
        [-0.08113269775208472, 0.2208572263403698, 0.0050918035617099015, -0.08771028951490939, -0.07961187401104629],
        [-0.15883374564251385, 0.12825590789455826, -0.04148584970488373, 0.04264542960730491, -0.14290371091960338],
        [-0.1410625058397112, -0.0790051216841059, 0.10896874903313356, -0.14742725615490315, 0.1382308394081956],
        [0.016580848224086595, -0.08180499009245822, -0.05010646208758061, -0.1398286956687597, -0.10866933691838475],
        [0.008357559005035455, -0.01755710708712837, -0.23849637277016147, 0.03850254355202709, 0.15760817129111354],
        [0.03287725545989601, 0.15025847948433946, 0.011186741066606571, -0.08061237895815215, 0.04144043933588872],
        [-0.18463930786784372, 0.05399661097645074, -0.10797734875219074, 0.04827818947931786, -0.05067648694534971],
        [0.11150084594855762, 0.1309065857970252, -0.05750064775883516, 0.005221725300736906, -0.08117354889076647],
    ],
    ("uniform_cube", 1): [
        [0.21783923148018342],
        [0.29328461841908],
        [-0.21156416978901668],
        [-0.0022642987884380905],
        [0.14482197812354614],
        [-0.1413632704195222],
        [0.08120739717038383],
        [0.28551255942186987],
    ],
    ("uniform_cube", 2): [
        [0.15403559778810377, 0.2073835425018405],
        [-0.18844071226088277, -0.031606466438623776],
        [-0.14959845911391578, -0.001601101027937063],
        [-0.14484007304992585, 0.08059809990944156],
        [0.10240460279600927, -0.09995892712435182],
        [-0.1793549908647021, 0.12881814455273544],
        [0.05742230122168762, 0.2018878668811313],
        [-0.08265702455575946, -0.07772630703596942],
    ],
    ("uniform_cube", 3): [
        [-0.12214663037856847, -0.0013072935150304776, -0.11826142442658658],
        [0.06580807300533031, 0.08156164406592331, -0.0799387126898158],
        [0.16815873270055043, -0.06719299637211823, -0.018886239382598174],
        [0.0897995554995542, 0.022686177625818704, -0.038823973832636666],
        [0.04688511261650993, 0.16484075303923562, -0.0674891779394367],
        [-0.06346326394300769, -0.07048434867218935, 0.1398823871423211],
        [-0.1694798296007887, 0.11109705726531699, 0.10792514178774532],
        [-0.00882444524420628, 0.010499046167847165, 0.15956041011998995],
    ],
    ("uniform_cube", 5): [
        [0.0631773778313236, -0.06192026059298321, -0.043206305968347375, 0.004682675694389821, 0.13025519425371523],
        [-0.05204747118619785, -0.014629218120257872, 0.0695584365893204, 0.017572637626779825, -0.030072920817478865],
        [-0.029009526077742098, -0.07963081945171795, -0.03412959501013417, 0.07361037761691092, 0.01507594504071083],
        [-0.01227537181785382, 0.05731852005826368, -0.0986153357776953, 0.06427037313197737, 0.021803119888269773],
        [-0.05459694171513324, 0.10835243116598961, 0.08669161263020658, 0.02320837032412182, -0.13127851151238507],
        [0.08605541052024485, 0.08359845535620236, -0.006835385894066043, 0.008132526191826972, 0.12359496222174926],
        [-0.07628127962694492, -0.08852778473236975, 0.07297079300117684, -0.08220103117280234, 0.08816527821516779],
        [-0.11393797151197954, 0.022747985384333258, 0.037758971169758765, 0.00313117766667681, -0.01215021864730445],
    ],
    ("rademacher_axes", 1): [
        [1],
        [1],
        [-1],
        [-1],
        [1],
        [-1],
        [1],
        [1],
    ],
    ("rademacher_axes", 2): [
        [1, 1],
        [-1, -1],
        [-1, -1],
        [-1, 1],
        [1, -1],
        [-1, 1],
        [1, 1],
        [-1, -1],
    ],
    ("rademacher_axes", 3): [
        [-1, -1, -1],
        [1, 1, -1],
        [1, -1, -1],
        [1, 1, -1],
        [1, 1, -1],
        [-1, -1, 1],
        [-1, 1, 1],
        [-1, 1, 1],
    ],
    ("rademacher_axes", 5): [
        [1, -1, -1, 1, 1],
        [-1, -1, 1, 1, -1],
        [-1, -1, -1, 1, 1],
        [-1, 1, -1, 1, 1],
        [-1, 1, 1, 1, -1],
        [1, 1, -1, 1, 1],
        [-1, -1, 1, -1, 1],
        [-1, 1, 1, 1, -1],
    ],
}



def _block(spec, d, runs=64, steps=8, n=5, seed=11):
    keys = run_keys(seed, np.arange(runs))
    return noise_block(spec, keys, np.arange(1, steps + 1), n, d)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_norm_bounded_by_delta(family, d):
    spec = NoiseSpec(family, 0.37)
    xi = _block(spec, d)
    norms = np.sqrt(np.sum(xi * xi, axis=-1))
    assert np.all(norms <= spec.delta * (1.0 + 1e-15))
    # The exact bound is part of the contract for the ball family, which
    # carries an explicit ulp rescale.
    if family == "uniform_ball":
        assert np.all(norms <= spec.delta)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rademacher_values(d):
    spec = NoiseSpec("rademacher_axes", 1.0)
    xi = _block(spec, d)
    c = 1.0 / np.sqrt(d)
    assert set(np.unique(xi)) == {-c, c}


@pytest.mark.parametrize("d", [1, 2, 4])
def test_cube_coordinates_in_range(d):
    spec = NoiseSpec("uniform_cube", 0.5)
    xi = _block(spec, d)
    c = 0.5 / np.sqrt(d)
    assert np.all(np.abs(xi) <= c)
    # Coordinates should actually spread over the interval.
    assert xi.max() > 0.8 * c and xi.min() < -0.8 * c


def test_ball_fills_interior_and_reaches_boundary():
    spec = NoiseSpec("uniform_ball", 1.0, requires_symmetry=True)
    xi = _block(spec, 3, runs=256)
    norms = np.sqrt(np.sum(xi * xi, axis=-1)).ravel()
    assert norms.max() > 0.99
    # Uniform on the ball is not concentrated on the sphere.
    assert np.mean(norms < 0.5) > 0.05


@pytest.mark.parametrize("family", FAMILIES)
def test_empirical_mean_near_zero(family):
    spec = NoiseSpec(family, 1.0)
    xi = _block(spec, 2, runs=512, steps=8, n=8)
    mean = xi.reshape(-1, 2).mean(axis=0)
    # ~32k draws, per-coordinate sd <= 1; 5 sigma of the sample mean.
    assert np.all(np.abs(mean) < 5.0 / np.sqrt(xi.size / 2))


def test_uniforms_per_draw_counts():
    assert uniforms_per_draw("uniform_ball", 1) == 3
    assert uniforms_per_draw("uniform_ball", 2) == 3
    assert uniforms_per_draw("uniform_ball", 3) == 5
    assert uniforms_per_draw("uniform_ball", 4) == 5
    for d in (1, 2, 3, 7):
        assert uniforms_per_draw("uniform_cube", d) == d
        assert uniforms_per_draw("rademacher_axes", d) == d
    with pytest.raises(ValueError, match="unknown noise family"):
        uniforms_per_draw("gaussian", 2)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_noise_block_golden(family, d):
    spec = NoiseSpec(family, 0.3)
    got = noise_block(spec, run_keys(2026, [0, 5]), [1, 2], 2, d)
    assert got.shape == (2, 2, 2, d) and got.flags.c_contiguous
    want = np.array(NOISE_GOLDEN[(family, d)], dtype=np.float64)
    if family == "rademacher_axes":
        c = spec.delta / np.sqrt(d)
        want = np.where(want < 0, -c, c)
    np.testing.assert_array_equal(got.reshape(-1, d), want)


@pytest.mark.parametrize("family", FAMILIES)
def test_single_draw_matches_block(family):
    # sample_noise must reproduce exactly the row that noise_block places
    # at (run, step, agent), independent of batching.  The block holds
    # more draws than one block of the ball transform, so a one-draw
    # slice and a multi-block array must agree.
    spec = NoiseSpec(family, 0.25)
    n = 4
    runs, steps = 3, 1 + noise._BALL_BLOCK // (3 * n)
    keys = run_keys(17, np.arange(runs))
    for d in (1, 2, 3, 5):
        block = noise_block(spec, keys, np.arange(1, steps + 1), n, d)
        assert block.shape == (runs, steps, n, d) and block.flags.c_contiguous
        for run in (0, 2):
            for t in (1, steps // 2, steps):
                for i in (0, 3):
                    got = sample_noise(spec, 17, run, t, i, n, d)
                    np.testing.assert_array_equal(got, block[run, t - 1, i])


def test_single_draw_deterministic():
    spec = NoiseSpec("uniform_ball", 0.25)
    a = sample_noise(spec, 5, 9, 3, 1, 4, 2)
    b = sample_noise(spec, 5, 9, 3, 1, 4, 2)
    np.testing.assert_array_equal(a, b)


def test_draws_differ_across_agents_steps_runs():
    spec = NoiseSpec("uniform_cube", 0.25)
    base = sample_noise(spec, 5, 0, 1, 0, 4, 2)
    assert not np.array_equal(base, sample_noise(spec, 5, 0, 1, 1, 4, 2))
    assert not np.array_equal(base, sample_noise(spec, 5, 0, 2, 0, 4, 2))
    assert not np.array_equal(base, sample_noise(spec, 5, 1, 1, 0, 4, 2))


def test_sample_noise_rejects_bad_indices():
    spec = NoiseSpec("uniform_cube", 0.25)
    with pytest.raises(ValueError, match="indexed from t = 1"):
        sample_noise(spec, 0, 0, 0, 0, 4, 2)
    with pytest.raises(ValueError, match="agent index"):
        sample_noise(spec, 0, 0, 1, 4, 4, 2)


def test_validate_accepts_builtin_symmetric_families():
    for family in FAMILIES:
        assert validate_noise_spec(NoiseSpec(family, 0.1, requires_symmetry=True)) == []


def test_validate_rejects_unknown_family_and_bad_delta():
    assert any("unknown noise family" in p for p in validate_noise_spec(NoiseSpec("gauss", 0.1)))
    assert any("positive and finite" in p for p in validate_noise_spec(NoiseSpec("uniform_ball", 0.0)))
    assert any("positive and finite" in p for p in validate_noise_spec(NoiseSpec("uniform_ball", np.inf)))


def test_validate_absorbing_constraint():
    spec = NoiseSpec("uniform_ball", 0.3)
    msgs = validate_noise_spec(spec, epsilon=0.5)
    assert any("delta exceeds epsilon/2" in p for p in msgs)
    assert validate_noise_spec(spec, epsilon=0.5, allow_large_delta=True) == []
    assert validate_noise_spec(spec, epsilon=0.6) == []
