"""Config parsing, presets, output files, and the command-line surface."""

import numpy as np
import pytest
import yaml

import hklab.ensemble as ensemble
from hklab.cli import EXIT_OK, EXIT_PARSE, EXIT_RESOURCE, EXIT_RUNTIME, EXIT_VALIDATION, main
from hklab.config import (
    ConfigError,
    EnsembleSettings,
    ExperimentConfig,
    config_fingerprint,
    config_from_dict,
    config_to_dict,
    dump_config,
    loads_config,
)
from hklab.engine import run_batch
from hklab.model import InitialCondition, ModelConfig
from hklab.noise import NoiseSpec
from hklab.output import (
    FINGERPRINT_PREFIX,
    read_samples,
    read_summary,
    read_survival,
    write_samples,
)
from hklab.presets import PRESET_NAMES, preset, preset_variants, scaled_preset
from hklab.walks import (
    SIMPLE_STEP,
    Samples,
    StretchedWalkSpec,
    WalkSpec,
    first_passage_below,
)

MINIMAL_HK = {
    "scenario": "hk",
    "n": 4,
    "d": 1,
    "epsilon": 0.5,
    "space_mode": "bounded",
    "delta": 0.25,
    "initial": {"kind": "uniform_box", "seed": 3},
}


def _tiny_run_cfg(**ens):
    settings = dict(runs=8, horizons=(2000,), base_seed=5, extra_after_hit=50)
    settings.update(ens)
    return ExperimentConfig(
        scenario="hk",
        ensemble=EnsembleSettings(**settings),
        model=ModelConfig(
            n=4,
            d=1,
            epsilon=0.5,
            space_mode="bounded",
            noise=NoiseSpec("uniform_ball", 0.25),
            initial=InitialCondition("uniform_box", seed=3),
        ),
        label="tiny",
    )


def _enum_cfg(horizon=3):
    return ExperimentConfig(
        scenario="hk",
        ensemble=EnsembleSettings(runs=10, horizons=(horizon,), base_seed=0),
        model=ModelConfig(
            n=2,
            d=1,
            epsilon=1.0,
            space_mode="bounded",
            noise=NoiseSpec("rademacher_axes", 0.5),
            initial=InitialCondition("explicit", values=((-1.0,), (1.0,))),
        ),
    )


# ---------------------------------------------------------------------------
# Parsing and defaults
# ---------------------------------------------------------------------------


def test_minimal_config_defaults():
    cfg = config_from_dict(MINIMAL_HK)
    assert cfg.scenario == "hk"
    assert cfg.ensemble.runs == 1000
    assert cfg.ensemble.horizons == (100_000,)
    assert cfg.ensemble.horizon == 100_000
    assert cfg.ensemble.workers == 1
    assert cfg.model.noise == NoiseSpec("uniform_ball", 0.25)
    assert cfg.model.space_mode == "bounded"


def test_delta_shorthand_and_nested_conflict():
    nested = dict(MINIMAL_HK)
    del nested["delta"]
    nested["noise"] = {"family": "uniform_cube", "delta": 0.25}
    cfg = config_from_dict(nested)
    assert cfg.model.noise == NoiseSpec("uniform_cube", 0.25)
    both = dict(nested)
    both["delta"] = 0.25
    with pytest.raises(ConfigError) as err:
        config_from_dict(both)
    assert any("delta" in p for p in err.value.problems)


def test_unknown_keys_rejected_with_paths():
    data = dict(MINIMAL_HK)
    data["epsilonn"] = 0.5
    data["initial"] = {"kind": "uniform_box", "seeed": 3}
    with pytest.raises(ConfigError) as err:
        config_from_dict(data)
    joined = "\n".join(err.value.problems)
    assert "epsilonn" in joined
    assert "initial.seeed" in joined
    assert err.value.kind == "validation"


def test_horizon_list_must_ascend():
    data = dict(MINIMAL_HK)
    data["ensemble"] = {"runs": 10, "horizon": [100, 100, 50]}
    with pytest.raises(ConfigError) as err:
        config_from_dict(data)
    assert any("horizon" in p and "increasing" in p for p in err.value.problems)
    data["ensemble"] = {"runs": 10, "horizon": [100, 500, 1000]}
    cfg = config_from_dict(data)
    assert cfg.ensemble.horizons == (100, 500, 1000)
    assert cfg.ensemble.horizon == 1000


def test_model_validation_problems_surface():
    data = dict(MINIMAL_HK)
    data["delta"] = 0.4  # > epsilon/2
    with pytest.raises(ConfigError) as err:
        config_from_dict(data)
    assert any("delta exceeds epsilon/2" in p for p in err.value.problems)


def _hk_with(**keys):
    return {**MINIMAL_HK, **keys}


@pytest.mark.parametrize(
    "data, problem",
    [
        (
            _hk_with(
                space_mode="unbounded",
                initial={"kind": "two_cluster", "separation_eps": 5.0, "sizes": [2.7, "2"]},
            ),
            "initial.sizes: expected an integer, got 2.7",
        ),
        (
            _hk_with(initial={"kind": "explicit", "values": [[True], ["0.5"], [0.0], [0.1]]}),
            "initial.values: expected a number, got True",
        ),
        (
            _hk_with(initial={"kind": "explicit", "values": [[0.1], [0.2, 0.3], [0.0], [0.1]]}),
            "initial.values: rows differ in length",
        ),
        (_hk_with(initial={"kind": ""}), "unknown initial kind: ''"),
        (_hk_with(ensemble={"runs": float("inf")}), "ensemble.runs: expected an integer, got inf"),
        (
            {"scenario": "walk", "kind": "recurrence", "dim": 2, "start": ["1", False]},
            "start: expected a number, got '1'",
        ),
        (
            {"scenario": "walk", "dim": 1, "noise": {"requires_symmetry": True}},
            "noise.requires_symmetry: unknown key",
        ),
    ],
    ids=["sizes", "value_types", "ragged_values", "empty_kind", "inf_runs", "start", "symmetry"],
)
def test_bad_values_give_key_tagged_problems(tmp_path, capsys, data, problem):
    # List elements pass the same number check as scalar keys, and every
    # problem names its key, so the YAML file fails validation (exit 3).
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    assert f"  - {problem}" in capsys.readouterr().err


def test_bad_value_draws_no_model_problem():
    # A bad value's reader reports it under its key and hands on a
    # placeholder default; the model checks that read that key are
    # skipped, so the default draws no problem of its own.  Checks of
    # other keys still run: a large delta needs a wider separation.
    base = config_to_dict(preset("thm2a_d2"))
    two_cluster = base["initial"]
    explicit = {"kind": "explicit", "values": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, "a"]]}
    cases = [
        (
            {"initial": {**two_cluster, "sizes": [2.7, "2"]}},
            [
                "initial.sizes: expected an integer, got 2.7",
                "initial.sizes: expected a number, got '2'",
            ],
        ),
        ({"initial": explicit}, ["initial.values: expected a number, got 'a'"]),
        (
            {"initial": {**two_cluster, "sizes": [1, 1, 2]}},
            ["initial.sizes: expected exactly two sizes, got 3"],
        ),
        (
            {"initial": {**two_cluster, "separation_eps": "far"}},
            ["initial.separation_eps: expected a number, got 'far'"],
        ),
        (
            {"allow_large_delta": "yes", "noise": {"family": "uniform_cube", "delta": 0.4}},
            [
                "allow_large_delta: expected true/false, got 'yes'",
                "two_cluster separation 1.5 must exceed sqrt(2)*epsilon + 2*delta"
                " = 1.5071067811865477",
            ],
        ),
    ]
    for keys, problems in cases:
        with pytest.raises(ConfigError) as err:
            config_from_dict({**base, **keys})
        assert err.value.problems == problems


def test_config_error_report_format():
    err = ConfigError("2 problems in cfg", problems=["a: bad", "b: worse"])
    assert err.report() == "2 problems in cfg\n  - a: bad\n  - b: worse"


def test_yaml_parse_error_kind():
    with pytest.raises(ConfigError) as err:
        loads_config("scenario: [unclosed")
    assert err.value.kind == "parse"


def test_non_mapping_rejected():
    with pytest.raises(ConfigError):
        loads_config("- just\n- a list\n")


# ---------------------------------------------------------------------------
# Round-trips and fingerprints
# ---------------------------------------------------------------------------


def test_all_presets_roundtrip_through_yaml():
    for name in PRESET_NAMES:
        for variant in preset_variants(name):
            cfg = preset(name, variant)
            text = dump_config(cfg)
            back = loads_config(text)
            assert config_to_dict(back) == config_to_dict(cfg), (name, variant)
            assert config_fingerprint(back) == config_fingerprint(cfg)


def test_walk_noise_roundtrips_through_yaml():
    # A walk step dumps every noise key, and loading reads it back
    # through the same reader as hk noise.
    cube = NoiseSpec("uniform_cube", 0.5)
    walks = (
        ("first_passage", WalkSpec(dim=1, step=cube)),
        ("recurrence", WalkSpec(dim=2, step=cube, start=(0.5, -0.5))),
        ("stretched", StretchedWalkSpec(beta=1.5, bound_m=2.0, step=cube)),
        ("first_passage", WalkSpec(dim=1)),
    )
    for kind, spec in walks:
        cfg = ExperimentConfig(
            scenario="walk", ensemble=EnsembleSettings(runs=4), walk=spec, walk_kind=kind
        )
        back = loads_config(dump_config(cfg))
        assert back.walk == spec, kind
        assert config_to_dict(back) == config_to_dict(cfg)
    # Keys left out of a walk's noise section take the simple +-1 step's.
    only_family = {"scenario": "walk", "dim": 1, "noise": {"family": "uniform_cube"}}
    assert config_from_dict(only_family).walk.step == NoiseSpec("uniform_cube", 1.0)
    assert config_from_dict({"scenario": "walk", "dim": 1}).walk.step == SIMPLE_STEP


def test_preset_fingerprints_are_pinned():
    # Every artifact carries the fingerprint of the canonical form, so a
    # refactor of the config layer must not move it.
    assert {
        (name, variant): config_fingerprint(preset(name, variant))
        for name in PRESET_NAMES
        for variant in preset_variants(name)
    } == {
        ("thm1_bounded", "d1"): "2b5f9fba0ae9d63372bba0d56319ee8f9853c6f9fe8beecbaa467da28f5c348f",
        ("thm1_bounded", "d2"): "84c64bf9946ccaff81d5a94224480896242db077c144839aa8cc01312fe7b68c",
        ("thm1_bounded", "d3"): "2b836696a0cef35ae1b2d2dea1bd1847aa5c057cd8c24fdfb4b7086ec1bc4243",
        ("thm2a_d1", ""): "f8a610a5c3b409a341c2f6e24826227513e2f89fdb2ab1188859155f6ac740d5",
        ("thm2a_d2", ""): "8bcfaf38d9e0c61cbbdcb0fee1b1e26f866296f564ee71784b2c4a0af0a94dea",
        ("thm2b_d3", ""): "62a6ccb4e54b7eeeedffd7240c360d9a26afe2ce2eacbed5784d90e9d1f71700",
        ("lemma1_alpha_gt1", ""): "ba1dbf5a8eeb8d50af01a4b03e1abe0e69248913321f6d272cfff25dbb84da75",
        ("corollary1", ""): "821a32238f3136134d4c3e02a35880d6b73cce1f0a6ad0b62f75e11220187ef3",
        ("lemma2_walk", ""): "b17d93bcc08ec6f0054a9472a5b8e18c406e4764dffcf97978e64d3bbe49646b",
        ("lemma4_recurrence", "d1"): "4d78385d38874ff1c3da0d89c061d2511b94490e7225f7ed3bc882207c8f1b63",
        ("lemma4_recurrence", "d3"): "488af14518a366c8d80c243a4f56c05b46da09bbc8cbfbed2399a75bf1844775",
    }


def test_fingerprint_sensitivity():
    base = config_from_dict(MINIMAL_HK)
    bumped = dict(MINIMAL_HK)
    bumped["epsilon"] = 0.6
    relabeled = dict(MINIMAL_HK)
    relabeled["label"] = "renamed"
    assert config_fingerprint(base) != config_fingerprint(config_from_dict(bumped))
    assert config_fingerprint(base) != config_fingerprint(config_from_dict(relabeled))
    assert config_fingerprint(base) == config_fingerprint(config_from_dict(dict(MINIMAL_HK)))


def test_scaled_preset_shrinks_budget():
    cfg = preset("lemma2_walk")
    small = scaled_preset(cfg, runs=16, horizon=500)
    assert small.ensemble.runs == 16
    assert small.ensemble.horizons == (500,)
    assert small.ensemble.horizon == 500


def test_preset_names_and_variants():
    assert len(PRESET_NAMES) == 8
    assert preset_variants("thm1_bounded") == ("d1", "d2", "d3")
    assert preset_variants("lemma4_recurrence") == ("d1", "d3")
    with pytest.raises(KeyError, match="unknown preset"):
        preset("thm9")
    with pytest.raises(KeyError, match="unknown variant"):
        preset("thm1_bounded", "d9")


def test_preset_two_cluster_pins():
    d1 = preset("thm2a_d1")
    assert d1.model.initial.kind == "two_cluster"
    assert d1.model.initial.separation_eps == 5.0
    assert d1.model.space_mode == "unbounded"
    assert d1.ensemble.horizons == (1_000, 10_000, 100_000, 1_000_000)
    d3 = preset("thm2b_d3")
    assert d3.model.initial.separation_eps == 10.0
    assert d3.model.d == 3
    assert d3.ensemble.horizons == (10_000, 100_000)
    for cfg in (d1, d3):
        sep = cfg.model.initial.separation_eps * cfg.model.epsilon
        assert sep > np.sqrt(2.0) * cfg.model.epsilon + 2.0 * cfg.model.delta


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def test_sample_file_roundtrip_exact(tmp_path):
    cfg = _tiny_run_cfg()
    hk = run_batch(cfg.model, 5, np.arange(6), 2000).samples
    walk = first_passage_below(WalkSpec(dim=1), 0.0, 3, np.arange(6), 16)
    path = tmp_path / "samples.csv"
    for samples in (hk, walk):
        write_samples(path, samples, "f" * 64)
        fingerprint, rows = read_samples(path)
        assert fingerprint == "f" * 64
        assert len(rows) == 6
        for row, s in zip(rows, samples):
            assert row["run_index"] == s.run_index
            assert row["hit"] == s.hit
            assert row["t_hit_or_horizon"] == s.t_end
            assert row["censored"] == (not s.hit)
            assert row["d_v_end"] == s.end_value  # repr round-trip is exact


def test_sample_file_exact_bytes(tmp_path):
    # Censored rows and an infinite end value format like the others:
    # ints in decimal, floats by repr.
    samples = Samples(
        np.array([0, 1, 2, 3]),
        np.array([True, False, False, True]),
        np.array([7, 100, 50, 0]),
        np.array([0.1, 0.1 + 0.2, np.inf, 1e-5]),
        100,
        5,
    )
    path = tmp_path / "samples.csv"
    write_samples(path, samples, "ab12")
    assert path.read_bytes() == (
        b"# config_fingerprint=ab12\n"
        b"run_index,hit,t_hit_or_horizon,censored,d_v_end\n"
        b"0,1,7,0,0.1\n"
        b"1,0,100,1,0.30000000000000004\n"
        b"2,0,50,1,inf\n"
        b"3,1,0,0,1e-05\n"
    )


def test_read_samples_rejects_untagged(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("run_index,hit\n0,1\n")
    with pytest.raises(ValueError, match="fingerprint"):
        read_samples(path)


def test_read_samples_rejects_wrong_columns(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text(FINGERPRINT_PREFIX + "ab\nrun_index,hit\n0,1\n")
    with pytest.raises(ValueError, match="columns"):
        read_samples(path)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _write_cfg(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(dump_config(cfg))
    return str(path)


def test_cli_validate_ok(tmp_path, capsys):
    path = _write_cfg(tmp_path, _tiny_run_cfg())
    assert main(["validate", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("OK scenario=hk")
    assert "fingerprint=" in out


def test_cli_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("scenario: [unclosed\n")
    assert main(["validate", str(path)]) == EXIT_PARSE
    assert "broken.yaml" in capsys.readouterr().err


def test_cli_validate_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("scenario: teleport\n")
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    assert "scenario" in capsys.readouterr().err


def test_cli_missing_file_is_parse_error(tmp_path, capsys):
    # An unreadable config is an input problem, reported like a parse
    # failure rather than a mid-run crash.
    assert main(["validate", str(tmp_path / "nope.yaml")]) == EXIT_PARSE
    assert "cannot read config" in capsys.readouterr().err


def test_cli_run_writes_outputs(tmp_path, capsys):
    cfg = _tiny_run_cfg()
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "tiny: hit_fraction=" in stdout

    fingerprint, rows = read_samples(out / "samples.csv")
    assert fingerprint == config_fingerprint(cfg)
    assert len(rows) == 8
    fp2, (t, s, n_at_risk) = read_survival(out / "survival.csv")
    assert fp2 == fingerprint
    assert t[0] == 0 and s[0] == 1.0
    summary = read_summary(out / "summary.json")
    assert summary["tool"] == "hklab"
    assert summary["config_fingerprint"] == fingerprint
    assert summary["runs"] == 8
    assert summary["absorb_violations"] == 0
    assert not summary["incomplete"]


def test_cli_run_with_failed_chunk_writes_incomplete_artifacts(tmp_path, monkeypatch, capsys):
    real = ensemble.run_batch

    def failing(cfg, base_seed, idxs, horizon, **kwargs):
        if 0 in idxs:
            raise RuntimeError("chunk failed")
        return real(cfg, base_seed, idxs, horizon, **kwargs)

    monkeypatch.setattr(ensemble, "run_batch", failing)
    path = _write_cfg(tmp_path, _tiny_run_cfg())
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out), "--workers", "2"]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert "INCOMPLETE" in captured.out
    assert "runs 0-3 missing: chunk failed" in captured.err
    _, rows = read_samples(out / "samples.csv")
    assert [row["run_index"] for row in rows] == [4, 5, 6, 7]
    summary = read_summary(out / "summary.json")
    assert summary["incomplete"] and summary["runs"] == 4


def test_cli_rerun_is_byte_identical(tmp_path):
    path = _write_cfg(tmp_path, _tiny_run_cfg())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", path, "--out", str(out1)]) == EXIT_OK
    assert main(["run", path, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
    assert (out1 / "survival.csv").read_bytes() == (out2 / "survival.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_cli_worker_override_keeps_outputs_identical(tmp_path):
    path = _write_cfg(tmp_path, _tiny_run_cfg())
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["run", path, "--out", str(out1), "--workers", "1"]) == EXIT_OK
    assert main(["run", path, "--out", str(out2), "--workers", "2"]) == EXIT_OK
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()


def test_cli_env_workers(tmp_path, monkeypatch, capsys):
    path = _write_cfg(tmp_path, _tiny_run_cfg())
    out = tmp_path / "envout"
    monkeypatch.setenv("HKLAB_WORKERS", "not-a-number")
    assert main(["run", path, "--out", str(out)]) == EXIT_PARSE
    assert "HKLAB_WORKERS" in capsys.readouterr().err
    monkeypatch.setenv("HKLAB_WORKERS", "2")
    assert main(["run", path, "--out", str(out)]) == EXIT_OK


def test_cli_workers_flag_must_be_positive(tmp_path, capsys):
    # As for ensemble.workers and HKLAB_WORKERS, a count below 1 is refused.
    path = _write_cfg(tmp_path, _tiny_run_cfg())
    for bad in ("0", "-3", "two"):
        with pytest.raises(SystemExit) as exit_:
            main(["run", path, "--out", str(tmp_path / "out"), "--workers", bad])
        assert exit_.value.code == EXIT_PARSE
        assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_walk_and_projected(tmp_path):
    walk = scaled_preset(preset("lemma2_walk"), runs=16, horizon=500)
    proj = scaled_preset(preset("lemma1_alpha_gt1"), runs=16, horizon=2000)
    for cfg, name in ((walk, "walk"), (proj, "proj")):
        path = _write_cfg(tmp_path, cfg, f"{name}.yaml")
        out = tmp_path / name
        assert main(["run", path, "--out", str(out)]) == EXIT_OK
        summary = read_summary(out / "summary.json")
        assert summary["runs"] == 16
        assert "absorb_violations" not in summary
    proj_summary = read_summary(tmp_path / "proj" / "summary.json")
    assert proj_summary["hit_fraction"] == 1.0


def test_cli_run_recurrence_writes_summary_only(tmp_path):
    cfg = scaled_preset(preset("lemma4_recurrence", "d1"), runs=32, horizon=2000)
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "rec"
    assert main(["run", path, "--out", str(out)]) == EXIT_OK
    summary = read_summary(out / "summary.json")
    assert summary["kind"] == "recurrence"
    assert summary["profile"]["horizons"] == [100, 1000, 2000]
    visits = summary["profile"]["mean_visits"]
    assert visits == sorted(visits)
    assert not (out / "samples.csv").exists()
    assert not (out / "survival.csv").exists()


def test_cli_summary_key_order(tmp_path):
    # summary.json opens with one provenance header, and its keys keep
    # their order, so blocks appended later do not reshuffle the file.
    header = ["tool", "tool_version", "config_fingerprint", "label", "scenario"]
    hitting = header + [
        "runs",
        "horizon",
        "base_seed",
        "hit_fraction",
        "censored_mean",
        "tail_fit",
        "horizons",
        "plateau",
        "incomplete",
    ]
    recurrence = header + ["kind", "runs", "ball_radius", "base_seed", "profile", "incomplete"]
    runs = (
        (_tiny_run_cfg(), hitting + ["absorb_violations"]),
        (scaled_preset(preset("lemma2_walk"), runs=16, horizon=500), hitting),
        (scaled_preset(preset("lemma1_alpha_gt1"), runs=16, horizon=2000), hitting),
        (scaled_preset(preset("lemma4_recurrence", "d1"), runs=8, horizon=200), recurrence),
    )
    for k, (cfg, keys) in enumerate(runs):
        out = tmp_path / f"run{k}"
        assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
        summary = read_summary(out / "summary.json")
        assert list(summary) == keys, cfg.label
        if "tail_fit" in summary:
            assert list(summary["tail_fit"]) == [
                "window",
                "n_points",
                "semilog_slope",
                "semilog_r2",
                "loglog_slope",
                "loglog_r2",
                "degenerate",
                "hint",
            ], cfg.label


def test_cli_preset_emit_config_roundtrips(tmp_path, capsys):
    assert main(["preset", "thm1_bounded", "--variant", "d2", "--emit-config"]) == EXIT_OK
    text = capsys.readouterr().out
    cfg = loads_config(text)
    assert config_fingerprint(cfg) == config_fingerprint(preset("thm1_bounded", "d2"))


def test_cli_preset_listing_and_bad_variant(capsys):
    assert main(["preset", "thm2b_d3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "thm2b_d3" in out and "fingerprint=" in out
    assert main(["preset", "thm1_bounded", "--variant", "d7"]) == EXIT_VALIDATION
    assert "unknown variant" in capsys.readouterr().err


def test_cli_enumerate_exact_law(tmp_path, capsys):
    path = _write_cfg(tmp_path, _enum_cfg(horizon=3))
    assert main(["enumerate", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "1/4" in out and "5/16" in out and "11/64" in out and "17/64" in out


def test_cli_enumerate_refuses_large(tmp_path, capsys):
    path = _write_cfg(tmp_path, _enum_cfg(horizon=100_000))
    assert main(["enumerate", path]) == EXIT_RESOURCE
    assert "2^200000" in capsys.readouterr().err


def test_cli_enumerate_needs_sign_noise(tmp_path, capsys):
    path = _write_cfg(tmp_path, _tiny_run_cfg())
    assert main(["enumerate", path]) == EXIT_VALIDATION
    assert "rademacher_axes" in capsys.readouterr().err
