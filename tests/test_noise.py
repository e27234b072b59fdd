"""Noise family properties: bounds, symmetry, and addressable draws.

NOISE_GOLDEN below was generated once and frozen, as tests/test_prng.py
freezes its uniforms: every published sample depends on these bits, so
a transform may be rewritten for speed only if it reproduces them.  The
uniform_ball and uniform_cube rows were last re-frozen when steps were
packed into the Philox stream and uniform_ball took exact
low-dimensional directions for d <= 3.  The rademacher_axes rows were
re-frozen when signs came to read one bit of the stream each instead of
one uniform.
"""

import tracemalloc

import numpy as np
import pytest

from hklab import noise
from hklab.noise import (
    FAMILIES,
    NoiseSpec,
    noise_block,
    uniforms_per_draw,
    validate_noise_spec,
)
from hklab.prng import run_keys, uniforms_at

# noise_block(NoiseSpec(family, 0.3), run_keys(2026, [0, 5]), [1, 2], 2, d),
# flattened to one row per draw.  rademacher_axes rows are signs.
NOISE_GOLDEN = {
    ("uniform_ball", 1): [
        [0.29664230920954],
        [-0.1276508532519041],
        [-0.14886785060578095],
        [-0.20699146299671697],
        [0.07931836479023889],
        [-0.24108818355310815],
        [0.29275627971093493],
        [-0.09503920121827836],
    ],
    ("uniform_ball", 2): [
        [-0.19454563692770072, 0.22615191335749793],
        [-0.18376975345936297, -0.06726019394155935],
        [-0.1270003216544191, -0.16891202882390696],
        [-0.135358788239913, -0.20922580468297278],
        [0.008360401967954087, 0.15403120825341174],
        [-0.23786866824876451, -0.12547888958502806],
        [0.195500479206188, 0.22272504696021805],
        [0.05737251767707962, -0.1588085469390004],
    ],
    ("uniform_ball", 3): [
        [0.06494613487214308, -0.032833656285111965, 0.14077171574136635],
        [-0.14399106944452408, -0.22256883179461687, 0.0020008327803272335],
        [0.022249942502423646, -0.18318662179058767, -0.09850035333901924],
        [-0.20119771422271462, 0.018467354435000385, -0.007056142347473409],
        [-0.04553146207819037, 0.12997511836536202, 0.2180545502149144],
        [0.021332889053236402, -0.059049964159213264, -0.19463415687176333],
        [-0.21131833908358, 0.14594189563138613, 0.1144109084201578],
        [-0.2760123634488821, -0.01867819779543254, -0.0485876784536999],
    ],
    ("uniform_ball", 5): [
        [-0.07943030239155481, -0.008744587632484166, -0.08807049032958336, 0.23974309687154888, 0.005527212193929387],
        [-0.10923408409407173, -0.01552935284413173, -0.20038427705419629, 0.1618073494232424, -0.052338449662973005],
        [-0.14193432579917875, 0.041959719910801774, 0.1235985368700256, 0.13580274791731983, -0.16617463947507607],
        [0.21069587801650846, -0.015669316402105237, -0.039779928840146264, -0.19911170269706174, 0.026338669930536827],
        [-0.16216962180991062, -0.09797100381288672, 0.006433989076008201, -0.013516175612619665, -0.1836042145973804],
        [0.09595226450691181, -0.17164386054158856, 0.01907172459945738, 0.08716324703423413, 0.006489302157475022],
        [0.14632201974976566, 0.07499335861121442, -0.073583545900766, -0.08977030874660755, -0.10060620356280696],
        [0.07971658433071904, 0.08276083139948857, -0.014666158980702056, 0.09956392320205487, 0.1845248369724898],
    ],
    ("uniform_cube", 1): [
        [0.2475709455289387],
        [0.03671430147050592],
        [0.21783923148018342],
        [0.29328461841908],
        [0.0370119183657609],
        [0.05096498371717706],
        [0.14482197812354614],
        [-0.1413632704195222],
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
        [-0.15386119726859623, -0.025806571782343246, -0.12214663037856847],
        [-0.0013072935150304776, -0.11826142442658658, 0.06580807300533031],
        [0.08156164406592331, -0.0799387126898158, -0.05577910115551718],
        [0.006045308326687343, 0.16815873270055043, -0.06719299637211823],
        [-0.14644273681335285, 0.10517957458876209, 0.04688511261650993],
        [0.16484075303923562, -0.0674891779394367, -0.06346326394300769],
        [-0.07048434867218935, 0.1398823871423211, 0.1119183906575516],
        [0.02996187725264607, -0.1694798296007887, 0.11109705726531699],
    ],
    ("uniform_cube", 5): [
        [-0.09160490546058735, 0.050974714159129214, 0.0631773778313236, -0.06192026059298321, -0.043206305968347375],
        [0.004682675694389821, 0.13025519425371523, -0.05204747118619785, -0.014629218120257872, 0.0695584365893204],
        [0.017572637626779825, -0.030072920817478865, 0.006030884607229781, 0.11567544743699873, -0.029009526077742098],
        [-0.07963081945171795, -0.03412959501013417, 0.07361037761691092, 0.01507594504071083, -0.01227537181785382],
        [-0.052276892441733475, -0.04915843286944688, -0.05459694171513324, 0.10835243116598961, 0.08669161263020658],
        [0.02320837032412182, -0.13127851151238507, 0.08605541052024485, 0.08359845535620236, -0.006835385894066043],
        [0.008132526191826972, 0.12359496222174926, 0.08885093735731484, -0.003708481624096982, -0.07628127962694492],
        [-0.08852778473236975, 0.07297079300117684, -0.08220103117280234, 0.08816527821516779, -0.11393797151197954],
    ],
    ("rademacher_axes", 1): [
        [-1],
        [1],
        [1],
        [-1],
        [-1],
        [1],
        [-1],
        [1],
    ],
    ("rademacher_axes", 2): [
        [1, -1],
        [-1, 1],
        [-1, -1],
        [1, -1],
        [-1, 1],
        [-1, 1],
        [1, -1],
        [-1, -1],
    ],
    ("rademacher_axes", 3): [
        [-1, 1, -1],
        [-1, 1, -1],
        [1, 1, -1],
        [1, 1, -1],
        [-1, 1, 1],
        [-1, -1, -1],
        [1, 1, 1],
        [-1, 1, -1],
    ],
    ("rademacher_axes", 5): [
        [1, -1, 1, 1, -1],
        [1, 1, -1, -1, -1],
        [-1, -1, -1, -1, -1],
        [-1, -1, 1, 1, -1],
        [-1, -1, 1, 1, 1],
        [-1, 1, -1, -1, 1],
        [1, -1, 1, 1, -1],
        [-1, 1, 1, -1, 1],
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
    spec = NoiseSpec("uniform_ball", 1.0)
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
    assert uniforms_per_draw("uniform_ball", 1) == 2
    assert uniforms_per_draw("uniform_ball", 2) == 2
    assert uniforms_per_draw("uniform_ball", 3) == 3
    assert uniforms_per_draw("uniform_ball", 4) == 5
    assert uniforms_per_draw("uniform_ball", 5) == 7
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
    # Transforming one agent's slice of a step's stream units must
    # reproduce exactly the row that noise_block places at (run, step,
    # agent), independent of batching.  The block holds more draws than
    # one block of the ball transform, so a one-draw slice and a
    # multi-block array must agree.
    spec = NoiseSpec(family, 0.25)
    n = 4
    runs, steps = 3, 1 + noise._BALL_BLOCK // (3 * n)
    keys = run_keys(17, np.arange(runs))
    for d in (1, 2, 3, 5):
        w = uniforms_per_draw(family, d)
        block = noise_block(spec, keys, np.arange(1, steps + 1), n, d)
        assert block.shape == (runs, steps, n, d) and block.flags.c_contiguous
        for run in (0, 2):
            for t in (1, steps // 2, steps):
                units = noise._stream_units(spec, keys[run : run + 1], [t], n * w)[0, 0]
                for i in (0, 3):
                    got = noise._uniforms_to_noise(spec, units[i * w : (i + 1) * w].copy(), d)
                    np.testing.assert_array_equal(got, block[run, t - 1, i])


def test_single_draw_deterministic():
    spec = NoiseSpec("uniform_ball", 0.25)
    a = noise_block(spec, run_keys(5, [9]), [3], 4, 2)[0, 0, 1]
    b = noise_block(spec, run_keys(5, [9]), [3], 4, 2)[0, 0, 1]
    np.testing.assert_array_equal(a, b)


def test_draws_differ_across_agents_steps_runs():
    spec = NoiseSpec("uniform_cube", 0.25)
    # Rows [run, step - 1, agent] of runs 0, 1 and steps 1, 2.
    block = noise_block(spec, run_keys(5, [0, 1]), [1, 2], 4, 2)
    base = block[0, 0, 0]
    assert not np.array_equal(base, block[0, 0, 1])
    assert not np.array_equal(base, block[0, 1, 0])
    assert not np.array_equal(base, block[1, 0, 0])


def test_sample_noise_rejects_bad_indices():
    # Step 0 holds the initial conditions; no noise is drawn for it.
    spec = NoiseSpec("uniform_cube", 0.25)
    keys = run_keys(0, [0])
    with pytest.raises(ValueError, match="indexed from t = 1"):
        noise_block(spec, keys, [0, 1], 4, 2)
    assert noise_block(spec, keys, [], 4, 2).shape == (1, 0, 4, 2)


def test_validate_accepts_builtin_symmetric_families():
    for family in FAMILIES:
        assert validate_noise_spec(NoiseSpec(family, 0.1)) == []


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


# ---------------------------------------------------------------------------
# uniform_ball draws: the law of the radius and of the direction
# ---------------------------------------------------------------------------


def _ball_draws(d, runs=256, steps=16, n=8, delta=1.0):
    """uniform_ball draws of an ensemble, one row per draw."""
    return _block(NoiseSpec("uniform_ball", delta), d, runs, steps, n, seed=23).reshape(-1, d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ball_radius_ks(d):
    # ||v|| / delta has CDF r^d.  Kolmogorov-Smirnov statistic against
    # the 0.1% critical value, 1.95 / sqrt(N).
    r = np.sort(np.sqrt(np.sum(_ball_draws(d, delta=0.3) ** 2, axis=-1)) / 0.3)
    cdf = r**d
    m = r.size
    ks = max(np.max(np.arange(1, m + 1) / m - cdf), np.max(cdf - np.arange(m) / m))
    assert ks < 1.95 / np.sqrt(m)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ball_direction_moments(d):
    # E[x_i] = 0, E[x_i^2 / r^2] = 1/d and E[x_i x_j] = 0 for i != j.
    # Every averaged quantity is bounded by 1, so 5 / sqrt(N) is at least
    # 5 standard errors.
    x = _ball_draws(d)
    tol = 5.0 / np.sqrt(x.shape[0])
    r2 = np.sum(x * x, axis=-1, keepdims=True)
    np.testing.assert_array_less(np.abs(x.mean(axis=0)), tol)
    np.testing.assert_array_less(np.abs((x * x / r2).mean(axis=0) - 1.0 / d), tol)
    for i in range(d):
        for j in range(i):
            assert abs(np.mean(x[:, i] * x[:, j])) < tol


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ball_norm_bound_exact_near_one(d):
    # Radius uniforms within 63 ulps of 1 put every draw on the boundary,
    # where rounding in the direction and scale overshoots delta unless
    # the transform rescales; ||v||, squares added in coordinate order,
    # must still not exceed delta.
    w = uniforms_per_draw("uniform_ball", d)
    for delta in (0.1, 0.25, 0.3, 1.0 / 3.0, 0.37, 0.7, 1.0, 2.5):
        u = uniforms_at(run_keys(41, np.arange(50)), np.arange(1, 41), 100 * w)
        u = u.reshape(-1, w)
        u[:, -1] = 1.0 - (1 + np.arange(u.shape[0]) % 63) * 2.0**-53
        u[:64, :-1] = np.array([0.0, 0.25, 0.5, 1.0 - 2.0**-53]).repeat(16)[:, None]
        v = noise._uniforms_to_noise(NoiseSpec("uniform_ball", delta), u, d)
        norms = np.sqrt(np.sum(v * v, axis=-1))
        assert np.all(norms <= delta)
        assert norms.min() > delta * (1.0 - 1e-14)


def test_ball_d1_sign_independent_of_radius():
    # At d = 1 the sign and the radius come from different uniforms: in
    # each quarter of the radius range about half of the draws are
    # positive, within 5 binomial standard errors.
    x = _ball_draws(1)[:, 0]
    r = np.abs(x)
    for lo in (0.0, 0.25, 0.5, 0.75):
        sel = x[(r >= lo) & (r < lo + 0.25)]
        assert sel.size > 1000
        assert abs(np.mean(sel > 0) - 0.5) < 5.0 * 0.5 / np.sqrt(sel.size)


# _uniforms_to_noise on the uniforms (k * 7 + j * 3) % 11 / 11 of row k,
# column j, then a row of zeros and a row of 1 - 2^-53, at delta = 0.3:
# the Box-Muller transform of d >= 4, frozen before the d <= 3 draws
# changed and unchanged since.
BOX_MULLER_GOLDEN = {
    4: [
        [-0.0, 0.0, 0.06843137575603235, -0.14984381143088774],
        [0.21290071524837142, -0.1368229817013552, -0.10815071376913724, 0.031755914792812936],
        [-0.0886815850622903, -0.026039262810055717, 0.1798976478440263, 0.11561319815372624],
        [0.0, 0.0, 0.0, 0.0],
        [0.21213203435596426, -2.403684584161826e-16, 0.21213203435596426, -2.403684584161826e-16],
    ],
    5: [
        [-0.0, 0.0, 0.11101197277384853, -0.24308231320965434, -0.06084391091366715],
        [0.1235171221776734, -0.07937963443572385, -0.06274504484703601, 0.018423607467695745, 0.1663977819054817],
        [-0.10703398079811678, -0.03142801240698348, 0.21712694209783218, 0.13953901277816447, -0.0870297486946264],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.17320508075688773, -1.9626002445968139e-16, 0.17320508075688773, -1.9626002445968139e-16, 0.17320508075688773],
    ],
}


@pytest.mark.parametrize("d", [4, 5])
def test_box_muller_transform_unchanged(d):
    w = uniforms_per_draw("uniform_ball", d)
    rows = [[(k * 7 + j * 3) % 11 / 11.0 for j in range(w)] for k in range(3)]
    u = np.array(rows + [[0.0] * w, [1.0 - 2.0**-53] * w])
    got = noise._uniforms_to_noise(NoiseSpec("uniform_ball", 0.3), u, d)
    np.testing.assert_array_equal(got, np.array(BOX_MULLER_GOLDEN[d]))


@pytest.mark.parametrize("d", [4, 5])
def test_box_muller_norm_bound_exact_near_one(d):
    # Radius uniforms within 63 ulps of 1 put every draw on the boundary.
    # The Box-Muller path bounds the squared norm added evens first, then
    # odds, each in ascending coordinate order, and only in that order
    # must it not exceed delta^2; squares added here in that order.
    w = uniforms_per_draw("uniform_ball", d)
    for delta in (0.1, 0.25, 0.3, 1.0 / 3.0, 0.37, 0.7, 1.0, 2.5):
        u = uniforms_at(run_keys(43, np.arange(50)), np.arange(1, 41), 100 * w)
        u = u.reshape(-1, w)
        u[:, -1] = 1.0 - (1 + np.arange(u.shape[0]) % 63) * 2.0**-53
        v = noise._uniforms_to_noise(NoiseSpec("uniform_ball", delta), u, d)
        sq = v * v
        even = sq[:, 0].copy()
        for k in range(2, d, 2):
            even += sq[:, k]
        odd = sq[:, 1].copy()
        for k in range(3, d, 2):
            odd += sq[:, k]
        s2 = even + odd
        assert np.all(s2 <= delta * delta)
        assert np.sqrt(s2.min()) > delta * (1.0 - 1e-14)


@pytest.mark.parametrize("n, d", [(1, 3), (5, 1), (1, 5), (3, 1)])
def test_sign_draws_invariant_to_step_chunks(n, d):
    # With n * d = 3 or 5 sign bits per step, steps straddle the stream's
    # 64-bit words; chunks of any length and start give the same draws as
    # one block, and so does a block of one run and one step.
    spec = NoiseSpec("rademacher_axes", 0.5)
    keys = run_keys(12, np.arange(5))
    ts = np.arange(1, 150)
    whole = noise_block(spec, keys, ts, n, d)
    for cuts in ((0, 1, 21, 22, 149), (0, 13, 64, 85, 149)):
        parts = [noise_block(spec, keys, ts[lo:hi], n, d) for lo, hi in zip(cuts, cuts[1:])]
        np.testing.assert_array_equal(np.concatenate(parts, axis=1), whole)
    for run, t, i in ((0, 1, 0), (4, 21, n - 1), (2, 149, n // 2)):
        single = noise_block(spec, keys[run : run + 1], [t], n, d)[0, 0, i]
        np.testing.assert_array_equal(single, whole[run, t - 1, i])


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_noise_block_memory_peak(family, d):
    # The uniform transforms write their draws into the uniform block: the
    # traced peak is the block itself, plus for uniform_ball the planar
    # scratch of one 8192-draw block (its uniforms, its draws, and a few
    # vectors of norms), plus an allowance for interpreter objects.  A
    # separate result array, (draws, d) doubles, would exceed it.  Signs
    # hold their result beside a bit block of one byte per bit, an eighth
    # of the result, and numpy's buffer for casting bits to doubles; a
    # second full-size array would exceed that too.
    spec = NoiseSpec(family, 0.3)
    keys, ts, n = run_keys(3, np.arange(100)), np.arange(1, 201), 4
    w = uniforms_per_draw(family, d)
    draws = keys.size * ts.size * n
    held, scratch = draws * w * 8, 0
    if family == "uniform_ball":
        scratch = (w + 2 * d + 2) * min(draws, noise._BALL_BLOCK) * 8
    if family == "rademacher_axes":
        held, scratch = draws * d * 8 + draws * w, np.getbufsize() * (8 + 1)
    assert draws * d * 8 > scratch + (32 << 10)
    noise_block(spec, keys, ts, n, d)
    tracemalloc.start()
    try:
        noise_block(spec, keys, ts, n, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= held + scratch + (32 << 10)
