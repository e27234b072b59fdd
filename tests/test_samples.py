"""The columnar sample record and the samples.csv writer.

Every producer returns walks.Samples: one column per run field plus the
shared horizon and base_seed.  It still reads as a sequence of
HittingSample rows, and those rows must be the per-run tuples a list of
samples used to hold: Python ints, bools and floats, equal to what each
run reports alone.  samples.csv is written from the columns and must be
byte-identical to a row-by-row writer.
"""

import numpy as np
import pytest

import hklab.cli as cli
import hklab.engine as engine
from hklab import walks
from hklab.config import dump_config
from hklab.engine import run_batch
from hklab.ensemble import events_from_samples, run_ensemble
from hklab.model import InitialCondition, ModelConfig
from hklab.noise import NoiseSpec
from hklab.output import FINGERPRINT_PREFIX, SAMPLE_COLUMNS
from hklab.presets import PRESET_NAMES, preset, preset_variants, scaled_preset
from hklab.projected import hitting_time_td
from hklab.walks import (
    ClusterWalkSpec,
    Samples,
    StretchedWalkSpec,
    WalkSpec,
    cluster_gap_walk,
    first_passage_below,
    stretched_first_passage,
)

RUNS = 12


def _row(s):
    return (s.run_index, s.hit, s.t_hit, s.horizon, s.end_value, s.base_seed)


def _bounded_cfg():
    return ModelConfig(
        n=4,
        d=2,
        epsilon=0.5,
        space_mode="bounded",
        noise=NoiseSpec("uniform_ball", 0.25),
        initial=InitialCondition("uniform_box", seed=3),
    )


def _gap_spec(dim):
    return ClusterWalkSpec(n1=2, n2=2, noise=NoiseSpec("uniform_cube", 0.25), dim=dim)


def _engine(runs):
    return run_batch(_bounded_cfg(), 4, runs, 40, extra_after_hit=30).samples


def _ensemble(runs):
    return run_ensemble(_bounded_cfg(), len(runs), 40, 4, extra_after_hit=30).samples


def _projected():
    cfg = scaled_preset(preset("lemma1_alpha_gt1"), runs=RUNS, horizon=400)
    return cfg.projected


# Each producer maps run indices to samples; horizons leave some runs censored.
PRODUCERS = {
    "engine": _engine,
    "engine_indexed": _engine,
    "ensemble": _ensemble,
    "gap_threshold": lambda runs: cluster_gap_walk(_gap_spec(1), [1.0], 6, runs, 200, 0.5),
    "gap_radius": lambda runs: cluster_gap_walk(_gap_spec(2), [1.0, 0.0], 6, runs, 200, radius=0.5),
    "first_passage": lambda runs: first_passage_below(WalkSpec(dim=1), -3.0, 8, runs, 30),
    "stretched": lambda runs: stretched_first_passage(
        StretchedWalkSpec(beta=2.0, bound_m=1.0), 9, runs, 50
    ),
    "projected": lambda runs: hitting_time_td(_projected(), 10, runs, 60),
}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_rows_from_columns_equal_per_run_tuples(monkeypatch, name):
    if name == "engine_indexed":
        monkeypatch.setattr(engine, "_LOCKSTEP_MAX_N", 1)
    if name == "ensemble":
        # Batches of 5 runs, concatenated by the ensemble.
        monkeypatch.setattr(walks, "_CHUNK_ELEMS", 5 * 16)
    produce = PRODUCERS[name]
    samples = produce(np.arange(RUNS))
    assert isinstance(samples, Samples) and len(samples) == RUNS
    rows = list(samples)
    assert 0 < sum(s.hit for s in rows) < RUNS
    for i, s in enumerate(rows):
        assert [type(v) for v in _row(s)[:3]] == [int, bool, int]
        assert type(s.end_value) is float
        assert _row(s) == _row(samples[i])
        assert _row(s) == (
            int(samples.run_index[i]),
            bool(samples.hit[i]),
            int(samples.t_hit[i]),
            samples.horizon,
            float(samples.end_value[i]),
            samples.base_seed,
        )
        # A censored run's t_hit is its horizon.
        assert s.t_end == s.t_hit
    if name != "ensemble":
        solo = [produce([i])[0] for i in range(RUNS)]
        assert [_row(s) for s in rows] == [_row(s) for s in solo]
        assert samples == solo and solo == samples


def test_samples_sequence_behaviour():
    samples = first_passage_below(WalkSpec(dim=1), -2.0, 3, np.arange(6), 20)
    rows = list(samples)
    assert isinstance(samples[1:4], Samples) and list(samples[1:4]) == rows[1:4]
    assert samples[-1] == rows[-1]
    again = Samples.concat([samples[:2], samples[2:5], samples[5:]])
    np.testing.assert_array_equal(again.end_value, samples.end_value)
    assert again == samples
    assert samples != rows[:-1] and samples != rows[::-1]
    assert (samples == 3) is False
    t_end, hit = events_from_samples(samples, 10)
    np.testing.assert_array_equal(t_end, [r.t_hit if r.hit and r.t_hit <= 10 else 10 for r in rows])
    np.testing.assert_array_equal(hit, [r.hit and r.t_hit <= 10 for r in rows])
    empty = run_batch(_bounded_cfg(), 0, [], 10).samples
    assert isinstance(empty, Samples) and len(empty) == 0 and empty == []


# ---------------------------------------------------------------------------
# samples.csv against a row-by-row writer
# ---------------------------------------------------------------------------


def _reference_write(path, samples, fingerprint):
    """samples.csv one sample row at a time, the way it used to be written."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{FINGERPRINT_PREFIX}{fingerprint}\n")
        fh.write(",".join(SAMPLE_COLUMNS) + "\n")
        fh.writelines(
            f"{int(s.run_index)},{int(s.hit)},{int(s.t_end)},{int(not s.hit)},"
            f"{float(s.end_value)!r}\n"
            for s in samples
        )


def _hitting_presets():
    for name in PRESET_NAMES:
        for variant in preset_variants(name):
            cfg = preset(name, variant)
            if not (cfg.scenario == "walk" and cfg.walk_kind == "recurrence"):
                yield f"{name}[{variant}]", cfg


@pytest.mark.parametrize("label", sorted(dict(_hitting_presets())))
def test_samples_csv_matches_row_writer_for_every_preset(tmp_path, monkeypatch, label):
    # `hklab run` on the preset at reduced scale; its samples.csv must be
    # byte for byte what the row writer makes of the same samples.
    written = []
    real = cli.write_samples

    def capture(path, samples, fingerprint):
        written.append((samples, fingerprint))
        real(path, samples, fingerprint)

    monkeypatch.setattr(cli, "write_samples", capture)
    small = scaled_preset(dict(_hitting_presets())[label], runs=40, horizon=300)
    path = tmp_path / "cfg.yaml"
    path.write_text(dump_config(small))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out), "--workers", "1"]) == cli.EXIT_OK
    (samples, fingerprint), = written
    assert isinstance(samples, Samples) and len(samples) == 40
    _reference_write(tmp_path / "reference.csv", samples, fingerprint)
    assert (out / "samples.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_writer_keeps_each_end_value_repr(tmp_path):
    # Values formatted once per bit pattern: 0.0 and -0.0 keep their own
    # repr, and repeated values and infinities format like the rows do.
    values = [0.0, -0.0, 0.1, 0.1, np.inf, 1e-300, 0.30000000000000004, 0.0]
    # Even runs hit at step i, odd ones are censored at the horizon 9.
    i = np.arange(len(values))
    samples = Samples(i, i % 2 == 0, np.where(i % 2 == 0, i, 9), np.array(values), 9, 1)
    cli.write_samples(tmp_path / "a.csv", samples, "ff")
    _reference_write(tmp_path / "b.csv", samples, "ff")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert b",-0.0\n" in (tmp_path / "a.csv").read_bytes()
