"""End-to-end command tests: pipeline wiring, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from pgkrig import cli, dataio, testbed
from pgkrig.rendering import parse_pgm
from pgkrig.testbed import ScenarioSpec
from pgkrig.training import RunConfig, TrainConfig

SCENARIO_YAML = """\
nx: 8
ny: 6
cell_km: 2.0
t_hours: 60
wind_speed_ms: 2.0
wind_direction_deg: 30.0
kappa_km2_h: 0.5
decay_per_h: 0.3
background_rate: 0.3
station_count: 30
layout_seed: 3
sources:
  - {x_km: 4.0, y_km: 5.0, rate_per_h: 8.0}
  - {x_km: 11.0, y_km: 8.0, rate_per_h: 6.0, schedule: diurnal}
aod:
  cloud_fraction: 0.2
"""

CONFIG_YAML = """\
model: {hidden_dim: 10, tcn_layers: 2, readout_hidden: 10}
train: {epochs: 3, window: 12, batches_per_epoch: 4, val_partitions: 2}
graph: {threshold_km: 8.0}
"""

STATIONS = 30
HOURS = 60
CELLS = 48

SIM_FILES = ("nodes.csv", "stations.csv", "wind.csv", "emissions.csv",
             "aod.csv", "truth.csv", "station_truth.csv", "grid.csv",
             "grid_inputs.csv")


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def dir_digest(path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One simulated dataset plus a briefly trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    scen = root / "scen.yaml"
    scen.write_text(SCENARIO_YAML, encoding="utf-8")
    cfg = root / "cfg.yaml"
    cfg.write_text(CONFIG_YAML, encoding="utf-8")
    data = root / "data"
    assert run_cli("simulate", "--scenario", scen, "--out", data, "--seed", 3) == 0
    ckpt = root / "model.ckpt"
    assert run_cli("train", "--config", cfg, "--data", data,
                   "--out", ckpt, "--seed", 1) == 0
    return root, scen, cfg, data, ckpt


# -- simulate ----------------------------------------------------------


def test_simulate_writes_expected_files(pipeline):
    _, _, _, data, _ = pipeline
    for name in SIM_FILES:
        assert (data / name).exists(), name


def test_simulate_row_counts(pipeline):
    _, _, _, data, _ = pipeline
    for name, count in (("stations.csv", STATIONS * HOURS),
                        ("wind.csv", STATIONS * HOURS),
                        ("aod.csv", STATIONS * HOURS),
                        ("station_truth.csv", STATIONS * HOURS),
                        ("truth.csv", CELLS * HOURS),
                        ("nodes.csv", STATIONS)):
        lines = (data / name).read_text().strip().splitlines()
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == count, name


def test_simulate_headers_carry_version(pipeline):
    _, _, _, data, _ = pipeline
    for name in SIM_FILES:
        first = (data / name).read_text().splitlines()[0]
        assert first.startswith(f"# format: {dataio.SCHEMA_VERSION} "), name


def test_simulate_same_seed_byte_identical(pipeline, tmp_path):
    _, scen, _, data, _ = pipeline
    again = tmp_path / "again"
    assert run_cli("simulate", "--scenario", scen, "--out", again, "--seed", 3) == 0
    assert dir_digest(again) == dir_digest(data)


def test_simulate_seed_changes_outputs(pipeline, tmp_path):
    _, scen, _, data, _ = pipeline
    other = tmp_path / "other"
    assert run_cli("simulate", "--scenario", scen, "--out", other, "--seed", 4) == 0
    assert dir_digest(other) != dir_digest(data)


def test_simulate_aod_missing_preset_all_masked(tmp_path):
    out = tmp_path / "masked"
    assert run_cli("simulate", "--scenario", "aod-missing", "--out", out) == 0
    _, _, valid = dataio.read_aod(out / "aod.csv")
    assert np.all(valid == 0.0)


def test_simulate_station_truth_is_the_truth_at_the_stations(pipeline):
    _, _, _, data, _ = pipeline
    ids, station_truth = dataio.read_values(data / "station_truth.csv", "pm25")
    _, truth = dataio.read_values(data / "truth.csv", "pm25")
    positions = dataio.read_nodes(data / "nodes.csv").positions
    cells = dataio.read_grid_nodes(data / "grid.csv").positions()
    at = [int(np.flatnonzero((cells == p).all(axis=1))[0]) for p in positions[ids]]
    assert station_truth.tobytes() == truth[:, at].tobytes()
    assert (data / "station_truth.csv").read_bytes() == (data / "stations.csv").read_bytes()


def test_simulate_unknown_preset_is_data_error(tmp_path, capsys):
    assert run_cli("simulate", "--scenario", "nope", "--out", tmp_path / "x") == 2
    assert "preset" in capsys.readouterr().err


def test_scenario_file_with_unknown_field(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("nx: 4\nny: 4\nwarp_speed: 9\n", encoding="utf-8")
    assert run_cli("simulate", "--scenario", bad, "--out", tmp_path / "x") == 2


@pytest.mark.parametrize("line, key", [
    ("nx: 4.5", "nx"), ("t_hours: 12.5", "t_hours"), ("station_count: 3.5", "station_count"),
    ("layout_seed: 1.5", "layout_seed"), ("wind_speed_ms: fast", "wind_speed_ms"),
    ("sources: [{x_km: a, y_km: 1.0, rate_per_h: 2.0}]", "x_km"),
    ("aod: {invert: 'no'}", "invert"),
])
def test_scenario_file_with_mistyped_value(tmp_path, capsys, line, key):
    bad = tmp_path / "bad.yaml"
    bad.write_text(f"nx: 4\nny: 4\nt_hours: 12\nstation_count: 3\n{line}\n",
                   encoding="utf-8")
    assert run_cli("simulate", "--scenario", bad, "--out", tmp_path / "x") == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("key", [
    "cell_km", "wind_speed_ms", "wind_direction_deg", "kappa_km2_h", "decay_per_h",
    "background_rate", "initial_value",
    "sources.x_km", "sources.y_km", "sources.rate_per_h",
    "aod.cloud_fraction", "aod.gain_a", "aod.offset_b",
])
def test_scenario_file_with_nonfinite_value(tmp_path, capsys, monkeypatch, key):
    def integrate(*args, **kwargs):
        raise AssertionError("a non-finite scenario reached the simulator")

    monkeypatch.setattr(testbed, "run_scenario", integrate)
    section, _, name = key.rpartition(".")
    source = {"x_km": 1.0, "y_km": 1.0, "rate_per_h": 2.0}
    for value in (".nan", ".inf", "-.inf", "1" + "0" * 400):
        if section == "sources":
            entry = ", ".join(f"{k}: {value if k == name else v}" for k, v in source.items())
            line = f"sources: [{{{entry}}}]"
        else:
            line = f"aod: {{{name}: {value}}}" if section else f"{name}: {value}"
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"nx: 4\nny: 4\nt_hours: 4\nstation_count: 3\n{line}\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("simulate", "--scenario", bad, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"{name} must be finite" in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("key", ["substeps_per_hour", "observation_noise_sigma",
                                 "aod.noise_sigma"])
def test_scenario_file_with_a_removed_key_is_data_error(tmp_path, capsys, key):
    """The substep count is derived from the rates, and neither the
    stations nor the proxy are noisy: none of them can be set."""
    section, _, name = key.rpartition(".")
    line = f"  {name}: 0.5" if section else f"{name}: 1"  # the file ends in its aod mapping
    bad = tmp_path / "bad.yaml"
    bad.write_text(f"{SCENARIO_YAML}{line}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("simulate", "--scenario", bad, "--out", out) == 2
    err = capsys.readouterr().err
    section = f"scenario.{section}" if section else "scenario"
    assert err == f"error: section {section!r}: unknown keys [{name!r}]\n"
    assert not out.exists()


def test_scenario_file_with_negative_layout_seed(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(SCENARIO_YAML.replace("layout_seed: 3", "layout_seed: -4"),
                   encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("simulate", "--scenario", bad, "--out", out) == 2
    err = capsys.readouterr().err
    assert "layout_seed must be >= 0, got -4" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("nx: 1", "grid must be at least 2x2, got 1x4"),
    ("cell_km: 0", "cell_km must be positive, got 0"),
    ("t_hours: 0", "t_hours must be >= 1, got 0"),
    ("wind_regime: gusty", "unknown wind regime 'gusty', expected one of "
                           "('constant', 'rotating', 'reversing')"),
    ("kappa_km2_h: -1", "kappa, decay and background_rate must be >= 0"),
    ("station_count: 0", "station_count must be in [1, 16], got 0"),
    ("boundary: periodic", "unknown boundary mode 'periodic', expected one of ('open', 'closed')"),
])
def test_scenario_file_out_of_range_value_is_refused_in_one_line(tmp_path, capsys, line,
                                                                 message):
    bad = tmp_path / "bad.yaml"
    bad.write_text(f"nx: 4\nny: 4\nt_hours: 4\nstation_count: 3\n{line}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("simulate", "--scenario", bad, "--out", out) == 2
    assert capsys.readouterr().err == f"error: section 'scenario': {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("wind_speed_ms: 1.0e6", "need 2e+06 substeps per hour, more than the 1000 allowed"),
    ("decay_per_h: 1.0e308", "need 1.11e+308 substeps per hour, more than the 1000 allowed"),
    ("cell_km: 1.0e-200", "cell_km 1e-200 is too small: its square is 0"),
])
def test_scenario_file_that_cannot_be_stepped_exits_at_once(tmp_path, capsys, line, message):
    bad = tmp_path / "bad.yaml"
    bad.write_text(f"nx: 4\nny: 4\nt_hours: 4\nstation_count: 3\n{line}\n", encoding="utf-8")
    out = tmp_path / "out"
    start = time.perf_counter()
    assert run_cli("simulate", "--scenario", bad, "--out", out) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_scenario_file_not_utf8_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"nx: 4\xff\n")
    assert run_cli("simulate", "--scenario", bad, "--out", tmp_path / "x") == 2
    err = capsys.readouterr().err
    assert "utf-8" in err and "Traceback" not in err


# -- YAML 1.2 floats ---------------------------------------------------


def _config_with_learning_rate(root, text):
    cfg = root / f"lr-{text}.yaml"
    cfg.write_text(CONFIG_YAML.replace("val_partitions: 2}",
                                       f"val_partitions: 2, learning_rate: {text}}}"),
                   encoding="utf-8")
    return cfg


def test_config_float_with_unsigned_exponent_trains_as_dotted(pipeline, tmp_path):
    _, _, _, data, _ = pipeline
    digests = {}
    for text in ("1e-3", "1.0e-3", "3e-3"):
        ckpt = tmp_path / f"{text}.ckpt"
        assert run_cli("train", "--config", _config_with_learning_rate(tmp_path, text),
                       "--data", data, "--out", ckpt, "--seed", 1) == 0
        digests[text] = hashlib.sha256(ckpt.read_bytes()).hexdigest()
    assert digests["1e-3"] == digests["1.0e-3"] != digests["3e-3"]


def test_config_number_with_trailing_text_is_data_error(pipeline, tmp_path, capsys):
    _, _, _, data, _ = pipeline
    assert run_cli("train", "--config", _config_with_learning_rate(tmp_path, "1e-3x"),
                   "--data", data, "--out", tmp_path / "x.ckpt") == 2
    err = capsys.readouterr().err
    assert "learning_rate must be float, got '1e-3x'" in err and "Traceback" not in err


def test_scenario_float_with_unsigned_exponent_places_the_source(tmp_path):
    scen = tmp_path / "far.yaml"
    scen.write_text("nx: 4\nny: 4\nt_hours: 4\nstation_count: 3\nbackground_rate: 0.0\n"
                    "sources: [{x_km: 1.0e308, y_km: 1.0, rate_per_h: 2.0}]\n",
                    encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("simulate", "--scenario", scen, "--out", out) == 0
    _, emissions = dataio.read_grid_inputs(out / "grid_inputs.csv")
    # x clamps to the last column, and y = 1 km lies in the first row
    assert np.all(emissions[:, 3] == 2.0)
    assert np.count_nonzero(emissions) == emissions.shape[0]


def test_scenario_syntax_error_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("nx: [4\n", encoding="utf-8")
    assert run_cli("simulate", "--scenario", bad, "--out", tmp_path / "x") == 2
    err = capsys.readouterr().err
    assert f"{bad}: invalid scenario syntax" in err and "Traceback" not in err


@pytest.fixture
def int_digit_limit():
    """CPython's default 4300-digit cap on int(str), whatever the environment sets."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_scenario_integer_past_the_digit_limit_is_data_error(tmp_path, capsys, int_digit_limit):
    bad = tmp_path / "bad.yaml"
    bad.write_text("nx: 4\nny: 4\nt_hours: 4\nstation_count: 3\ncell_km: 1" + "0" * 5000 + "\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("simulate", "--scenario", bad, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: invalid scenario syntax: Exceeds the limit (4300 digits)")
    assert "Traceback" not in err and not out.exists()


def test_config_integer_past_the_digit_limit_is_data_error(tmp_path, capsys, monkeypatch,
                                                           int_digit_limit):
    def read(*args, **kwargs):
        raise AssertionError("a faulty config reached the data directory")

    monkeypatch.setattr(cli, "_read_stations", read)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("train: {epochs: 1" + "0" * 5000 + "}\n", encoding="utf-8")
    assert run_cli("train", "--config", cfg, "--data", tmp_path,
                   "--out", tmp_path / "x.ckpt") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: invalid config syntax: Exceeds the limit (4300 digits)")
    assert not (tmp_path / "x.ckpt").exists()


def test_scenario_from_dict_round_trip():
    spec = dataio.from_mapping(ScenarioSpec, {
        "nx": 4, "ny": 5, "t_hours": 12, "station_count": 10,
        "sources": [{"x_km": 1.0, "y_km": 2.0, "rate_per_h": 3.0}],
        "aod": {"cloud_fraction": 0.5},
    }, "scenario")
    assert (spec.nx, spec.ny, spec.t_hours) == (4, 5, 12)
    assert spec.sources[0].rate_per_h == 3.0
    assert spec.aod.cloud_fraction == 0.5


def test_scenario_from_dict_rejects_bad_shapes():
    for data, message in (({"sources": {"x_km": 1.0}}, "sources must be a list of mappings"),
                          ({"sources": [[1.0]]}, "'scenario.sources\\[0\\]' must be a mapping"),
                          ({"sources": [{"x_km": 1.0}]},
                           "'scenario.sources\\[0\\]': missing keys \\['rate_per_h', 'y_km'\\]"),
                          ({"aod": [1, 2]}, "'scenario.aod' must be a mapping"),
                          ([1, 2], "'scenario' must be a mapping")):
        with pytest.raises(dataio.SchemaError, match=message):
            dataio.from_mapping(ScenarioSpec, data, "scenario")


# -- train -------------------------------------------------------------


def test_train_checkpoint_reloads_with_meta(pipeline):
    _, _, _, _, ckpt = pipeline
    loaded = dataio.load_checkpoint(ckpt)
    assert loaded.meta["threshold_km"] == 8.0
    assert loaded.meta["seed"] == 1
    assert loaded.model.config.hidden_dim == 10


def test_train_checkpoint_meta_holds_every_train_and_loss_setting(pipeline):
    _, _, cfg, _, ckpt = pipeline
    run = dataio.from_mapping(RunConfig, dataio.load_config(cfg), "config")
    settings = {**asdict(replace(run.train, seed=1)), **asdict(run.loss)}
    assert set(settings) == {f.name for f in fields(TrainConfig)} | {"lambda1", "lambda2"}
    meta = dataio.load_checkpoint(ckpt).meta
    assert {key: meta.get(key) for key in settings} == settings
    assert (meta["epochs"], meta["val_partitions"], meta["lambda2"]) == (3, 2, 0.1)


def test_train_writes_metrics_log(pipeline):
    _, _, _, _, ckpt = pipeline
    lines = (ckpt.parent / (ckpt.name + ".log.csv")).read_text().splitlines()
    assert lines[1] == "epoch,train_loss,val_mae,val_rmse,val_r2"
    assert len(lines) == 2 + 3  # version, header, one row per epoch


def test_train_same_seed_byte_identical(pipeline, tmp_path):
    _, _, cfg, data, ckpt = pipeline
    again = tmp_path / "again.ckpt"
    assert run_cli("train", "--config", cfg, "--data", data,
                   "--out", again, "--seed", 1) == 0
    assert again.read_bytes() == ckpt.read_bytes()


def test_train_seed_changes_checkpoint(pipeline, tmp_path):
    _, _, cfg, data, ckpt = pipeline
    other = tmp_path / "other.ckpt"
    assert run_cli("train", "--config", cfg, "--data", data,
                   "--out", other, "--seed", 2) == 0
    assert other.read_bytes() != ckpt.read_bytes()


def test_train_unknown_graph_key_is_data_error(pipeline, tmp_path, capsys):
    _, _, _, data, _ = pipeline
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("graph: {threshold_km: 8.0, wormholes: 1}\n"
                   "train: {epochs: 1, window: 12}\n", encoding="utf-8")
    assert run_cli("train", "--config", cfg, "--data", data,
                   "--out", tmp_path / "x.ckpt") == 2
    assert "wormholes" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("split", "seed", "abc"), ("split", "holdout_fraction", "abc"),
    pytest.param("split", "holdout_fraction", [0.3], id="split-holdout_fraction-list"),
    ("graph", "threshold_km", "abc"),
    ("model", "hidden_dim", 2.5), ("model", "tcn_layers", 2.0),
    ("train", "epochs", 1.5), ("train", "window", 24.5), ("train", "val_partitions", 1.5),
    ("train", "seed", 1.5), ("split", "seed", 1.5), ("train", "epochs", True),
    ("model", "two_weight_propagation", 3),
])
def test_train_mistyped_config_value_is_data_error(pipeline, tmp_path, capsys,
                                                   section, key, value):
    _, _, _, data, _ = pipeline
    config = {"train": {"epochs": 1, "window": 12}}
    config.setdefault(section, {})[key] = value
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(json.dumps(config), encoding="utf-8")  # JSON is YAML
    assert run_cli("train", "--config", cfg, "--data", data,
                   "--out", tmp_path / "x.ckpt") == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("meta, key", [
    ({"threshold_km": "abc"}, "threshold_km"), ({"threshold_km": None}, "threshold_km"),
    ({"threshold_km": True}, "threshold_km"), ({"threshold_km": -8.0}, "threshold_km"),
    ([8.0], "meta"), ({"threshold_km": float("inf")}, "threshold_km must be finite"),
    ({"threshold_km": float("nan")}, "threshold_km must be finite"),
])
def test_infer_with_malformed_checkpoint_meta_is_data_error(pipeline, tmp_path, capsys,
                                                            meta, key):
    _, _, _, data, ckpt = pipeline
    loaded = dataio.load_checkpoint(ckpt)
    bad = tmp_path / "bad.ckpt"
    dataio.save_checkpoint(bad, loaded.model, loaded.norm_mean, loaded.norm_std, meta)
    assert run_cli("infer", "--ckpt", bad, "--data", data, "--targets", "0",
                   "--out", tmp_path / "preds.csv") == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


def _edited_checkpoint(ckpt, edit, out):
    """A copy of checkpoint `ckpt` at `out` whose JSON header went through `edit`."""
    raw = ckpt.read_bytes()
    start = raw.index(b"\n") + 1
    end = raw.index(b"\n", start)
    header = json.loads(raw[start:end])
    edit(header)
    out.write_bytes(raw[:start] + json.dumps(header, sort_keys=True, separators=(",", ":"))
                    .encode("utf-8") + raw[end:])
    return out


def test_infer_with_checkpoint_config_carrying_final_softplus_is_data_error(
        pipeline, tmp_path, capsys):
    _, _, _, data, ckpt = pipeline
    old = _edited_checkpoint(ckpt, lambda header: header["config"].update(final_softplus=False),
                             tmp_path / "old.ckpt")
    assert run_cli("infer", "--ckpt", old, "--data", data, "--targets", "0",
                   "--out", tmp_path / "preds.csv") == 2
    err = capsys.readouterr().err
    assert "final_softplus" in err and "Traceback" not in err
    assert not (tmp_path / "preds.csv").exists()


@pytest.mark.parametrize("edit", [
    lambda header: header["arrays"][0].update(shape=[2 ** 70]),
    lambda header: header["config"].update(tcn_layers=400000),
    lambda header: header["arrays"][0].update(shape=[True]),
    lambda header: header["arrays"][0].update(shape=None),
    lambda header: header["arrays"].append(dict(header["arrays"][0])),
], ids=["huge_shape", "tcn_layers", "bool_shape", "null_shape", "listed_twice"])
def test_infer_with_malformed_checkpoint_header_is_data_error(pipeline, tmp_path, capsys,
                                                              edit):
    _, _, _, data, ckpt = pipeline
    bad = _edited_checkpoint(ckpt, edit, tmp_path / "bad.ckpt")
    assert run_cli("infer", "--ckpt", bad, "--data", data, "--targets", "0",
                   "--out", tmp_path / "preds.csv") == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("simulate", "--scenario", "s1-advection", "--out", "x"),
    ("train", "--data", "x", "--out", "x.ckpt"),
    ("sweep", "--data", "x", "--values", "0"),
    ("infer", "--ckpt", "x.ckpt", "--targets", "0", "--out", "x.csv"),
    ("eval", "--pred", "x.csv", "--truth", "x.csv"),
    ("render", "--field", "x.csv", "--grid", "g.csv", "--out", "x.pgm"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("seed", ["-1", "abc"])
def test_seed_flag_takes_a_non_negative_integer(tmp_path, monkeypatch, capsys, argv, seed):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "--seed", seed) == 1
    err = capsys.readouterr().err
    assert f"--seed: {seed!r} is not a non-negative integer" in err
    assert "Traceback" not in err and not any(tmp_path.iterdir())


@pytest.mark.parametrize("section", ["train", "split"])
def test_negative_config_seed_is_data_error(pipeline, tmp_path, capsys, section):
    _, _, _, data, _ = pipeline
    config = {"train": {"epochs": 1}}
    config.setdefault(section, {})["seed"] = -2
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(json.dumps(config), encoding="utf-8")  # JSON is YAML
    assert run_cli("train", "--config", cfg, "--data", data,
                   "--out", tmp_path / "x.ckpt") == 2
    err = capsys.readouterr().err
    assert "seed -2 is negative" in err and "Traceback" not in err
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("line, message", [
    ("train: {learning_rate: .inf}", "'config.train': learning_rate must be finite, got inf"),
    ("train: {learning_rate: .nan}", "'config.train': learning_rate must be finite, got nan"),
    ("train: {mask_ratio: 1.5}", "'config.train': mask_ratio 1.5 not in (0, 1)"),
    ("split: {holdout_fraction: -.inf}",
     "'config.split': holdout_fraction must be finite, got -inf"),
    ("model: {hidden_dim: 0}", "'config.model': hidden_dim must be >= 1, got 0"),
    ("loss: {lambda1: -1.0}", "'config.loss': lambda1 must be finite and >= 0, got -1.0"),
    ("graph: {threshold_km: -5}", "'config.graph': threshold_km -5 must be positive"),
    ("graph: {threshold_km: 0}", "'config.graph': threshold_km 0 must be positive"),
    ("graph: {threshold_km: .nan}", "'config.graph': threshold_km must be finite, got nan"),
    ("train: {mask_jitter: 0.7}", "'config.train': mask_jitter 0.7 not in [0, 0.5)"),
    ("train: {epochs: -1}", "'config.train': epochs -1 is negative"),
    ("train: {window: 0}", "'config.train': window 0 must be positive"),
    ("train: {learning_rate: 0}", "'config.train': learning_rate 0 must be positive"),
    ("train: {batches_per_epoch: 0}", "'config.train': batches_per_epoch 0 must be >= 1"),
    ("train: {patience: 0}", "'config.train': patience 0 must be >= 1"),
    ("train: {val_partitions: 0}", "'config.train': val_partitions 0 must be >= 1"),
])
def test_train_config_fault_names_its_section_before_reading_data(tmp_path, capsys,
                                                                   monkeypatch, line, message):
    def read(*args, **kwargs):
        raise AssertionError("a faulty config reached the data directory")

    monkeypatch.setattr(cli, "_read_stations", read)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"{line}\n", encoding="utf-8")
    assert run_cli("train", "--config", cfg, "--data", tmp_path,
                   "--out", tmp_path / "x.ckpt") == 2
    assert capsys.readouterr().err == f"error: section {message}\n"


@pytest.mark.parametrize("key, value", [
    ("train_fraction", "0.7"), ("val_fraction", "0.15"), ("train_hours", "[0, 168]"),
    ("val_hours", "[168, 204]"), ("test_hours", "[204, 240]")])
def test_train_config_with_a_removed_split_key_is_data_error(tmp_path, capsys, monkeypatch,
                                                             key, value):
    """The hours are always carved 70/15/15, so no split key can set them."""
    def read(*args, **kwargs):
        raise AssertionError("a faulty config reached the data directory")

    monkeypatch.setattr(cli, "_read_stations", read)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"split: {{holdout_fraction: 0.3, {key}: {value}}}\n", encoding="utf-8")
    assert run_cli("train", "--config", cfg, "--data", tmp_path,
                   "--out", tmp_path / "x.ckpt") == 2
    assert capsys.readouterr().err == f"error: section 'config.split': unknown keys ['{key}']\n"


def test_train_numeric_failure_is_one_line(pipeline, tmp_path, capsys):
    """A learning rate that overflows the weights exits 3 with one message,
    and no numpy warning comes before it."""
    _, _, _, data, _ = pipeline
    cfg = tmp_path / "huge_step.yaml"
    cfg.write_text("train: {epochs: 1, batches_per_epoch: 2, window: 24, "
                   "learning_rate: 1.0e300}\ngraph: {threshold_km: 8.0}\n", encoding="utf-8")
    assert run_cli("train", "--config", cfg, "--data", data,
                   "--out", tmp_path / "x.ckpt") == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and len(err.splitlines()) == 1, err
    assert not (tmp_path / "x.ckpt").exists()


def test_train_model_too_large_for_memory_is_data_error(pipeline, tmp_path, capsys):
    # numpy refuses the first parameter's allocation at once
    _, _, _, data, _ = pipeline
    cfg = tmp_path / "huge.yaml"
    cfg.write_text("model: {hidden_dim: 1000000000000}\n", encoding="utf-8")
    assert run_cli("train", "--config", cfg, "--data", data,
                   "--out", tmp_path / "x.ckpt") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
    assert not (tmp_path / "x.ckpt").exists()


def test_train_without_data_dir_or_env_is_usage_error(pipeline, monkeypatch):
    _, _, cfg, _, _ = pipeline
    monkeypatch.delenv(cli.DATA_DIR_ENV, raising=False)
    assert run_cli("train", "--config", cfg, "--out", "x.ckpt") == 1


def test_data_dir_env_fallback(pipeline, tmp_path, monkeypatch):
    _, _, _, data, ckpt = pipeline
    monkeypatch.setenv(cli.DATA_DIR_ENV, str(data))
    out = tmp_path / "env_preds.csv"
    assert run_cli("infer", "--ckpt", ckpt, "--targets", "5", "--out", out) == 0
    ids, _ = dataio.read_values(out, "pm25")
    assert ids.tolist() == [5]


def test_train_checks_output_directories_before_reading(pipeline, tmp_path, capsys):
    _, _, cfg, _, _ = pipeline
    missing, ckpt, folder = tmp_path / "missing", tmp_path / "m.ckpt", tmp_path / "folder"
    folder.mkdir()
    for outputs, fault in (
            (("--out", missing / "m.ckpt"), f"{missing / 'm.ckpt'}: no such directory {missing}"),
            (("--out", ckpt, "--log", missing / "log.csv"),
             f"{missing / 'log.csv'}: no such directory {missing}"),
            (("--out", folder), f"{folder}: is a directory")):
        # no data directory either: the outputs are checked first
        assert run_cli("train", "--config", cfg, "--data", tmp_path / "no-data", *outputs) == 2
        assert fault in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [folder] and not any(folder.iterdir())


# -- infer -------------------------------------------------------------


def test_infer_station_mode_shapes(pipeline, tmp_path):
    _, _, _, data, ckpt = pipeline
    out = tmp_path / "preds.csv"
    assert run_cli("infer", "--ckpt", ckpt, "--data", data,
                   "--targets", "0,7,19", "--out", out) == 0
    ids, values = dataio.read_values(out, "pm25")
    assert ids.tolist() == [0, 7, 19]
    assert values.shape == (HOURS, 3)
    assert np.all(np.isfinite(values))


def test_infer_ignores_target_station_values(pipeline, tmp_path):
    """Tampering with the targets' own series cannot move predictions."""
    _, _, _, data, ckpt = pipeline
    out_a = tmp_path / "a.csv"
    assert run_cli("infer", "--ckpt", ckpt, "--data", data,
                   "--targets", "0,7", "--out", out_a) == 0

    tampered = tmp_path / "tampered"
    tampered.mkdir()
    for name in SIM_FILES:
        (tampered / name).write_bytes((data / name).read_bytes())
    ids, pm25 = dataio.read_values(data / "stations.csv", "pm25")
    pm25 = pm25.copy()
    pm25[:, [0, 7]] += 1234.5
    dataio.write_values(tampered / "stations.csv", pm25, "pm25")
    out_b = tmp_path / "b.csv"
    assert run_cli("infer", "--ckpt", ckpt, "--data", tampered,
                   "--targets", "0,7", "--out", out_b) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    # Dropping the target series entirely is equally valid input.
    keep = np.setdiff1d(ids, [0, 7])
    dataio.write_values(tampered / "stations.csv", pm25[:, keep], "pm25",
                        node_ids=keep)
    out_c = tmp_path / "c.csv"
    assert run_cli("infer", "--ckpt", ckpt, "--data", tampered,
                   "--targets", "0,7", "--out", out_c) == 0
    assert out_a.read_bytes() == out_c.read_bytes()


def test_infer_missing_nontarget_series_is_data_error(pipeline, tmp_path, capsys):
    _, _, _, data, ckpt = pipeline
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in SIM_FILES:
        (broken / name).write_bytes((data / name).read_bytes())
    ids, pm25 = dataio.read_values(data / "stations.csv", "pm25")
    keep = np.setdiff1d(ids, [3])
    dataio.write_values(broken / "stations.csv", pm25[:, keep], "pm25",
                        node_ids=keep)
    assert run_cli("infer", "--ckpt", ckpt, "--data", broken,
                   "--targets", "0", "--out", tmp_path / "x.csv") == 2
    assert "[3]" in capsys.readouterr().err


def _break(data, path, fault):
    """Rewrite one station input of a copy of `data` to hold one fault."""
    if fault == "missing":
        path.unlink()
    elif path.name == "nodes.csv":  # short: the last node is missing
        dataio.write_nodes(path, dataio.read_nodes(data / path.name).positions[:-1])
    elif fault == "bad_id":
        ids, pm25 = dataio.read_values(data / path.name, "pm25")
        dataio.write_values(path, pm25, "pm25", node_ids=np.where(ids == 29, 99, ids))
    else:  # short: the last node's series is missing; short_hours: the last hour
        cut = (slice(None), slice(None, -1)) if fault == "short" else slice(None, -1)
        if path.name == "wind.csv":
            dataio.write_wind(path, dataio.read_wind(data / path.name)[1][cut])
        elif path.name == "aod.csv":
            _, values, valid = dataio.read_aod(data / path.name)
            dataio.write_aod(path, values[cut], valid[cut])
        else:
            column = "emission" if path.name == "emissions.csv" else "pm25"
            dataio.write_values(path, dataio.read_values(data / path.name, column)[1][cut],
                                column)


# (file, fault, the message of train, infer --targets and infer --grid alike)
STATION_FAULTS = [
    ("wind.csv", "short", "wind.csv: nodes [29] have no series"),
    ("emissions.csv", "short", "emissions.csv: nodes [29] have no series"),
    ("aod.csv", "short", "aod.csv: nodes [29] have no series"),
    ("stations.csv", "short", "stations.csv: nodes [29] have no series"),
    ("stations.csv", "bad_id", "stations.csv: node ids outside 0..29"),
    ("wind.csv", "short_hours", "emissions.csv: 60 hours but wind.csv has 59"),
    ("emissions.csv", "short_hours", "emissions.csv: 59 hours but wind.csv has 60"),
    ("aod.csv", "short_hours", "aod.csv: 59 hours but wind.csv has 60"),
    ("stations.csv", "short_hours", "stations.csv: 59 hours but wind.csv has 60"),
    ("nodes.csv", "short", "nodes.csv: lists 29 nodes, but wind.csv and emissions.csv "
                           "hold series for ids 0..29"),
    ("nodes.csv", "missing", "nodes.csv: [Errno 2] No such file"),
    ("wind.csv", "missing", "wind.csv: [Errno 2] No such file"),
    ("emissions.csv", "missing", "emissions.csv: [Errno 2] No such file"),
    ("stations.csv", "missing", "stations.csv: [Errno 2] No such file"),
]


def _copy_data(data, tmp_path):
    broken = tmp_path / "broken"
    broken.mkdir()
    for file in SIM_FILES:
        (broken / file).write_bytes((data / file).read_bytes())
    return broken


@pytest.mark.parametrize("name, fault, message", STATION_FAULTS,
                         ids=[f"{name}-{fault}" for name, fault, _ in STATION_FAULTS])
def test_one_faulty_station_input_names_it(pipeline, tmp_path, capsys, name, fault,
                                           message):
    """train, infer --targets and infer --grid each exit 2 with one message."""
    _, _, cfg, data, ckpt = pipeline
    broken = _copy_data(data, tmp_path)
    _break(data, broken / name, fault)
    commands = [["train", "--config", cfg, "--out", tmp_path / "x.ckpt"]]
    if name != "aod.csv":  # inference reads no AOD
        commands += [["infer", "--ckpt", ckpt, "--targets", "0", "--out", tmp_path / "x.csv"],
                     ["infer", "--ckpt", ckpt, "--grid", "--out", tmp_path / "x.csv"]]
    for argv in commands:
        assert run_cli(*argv, "--data", broken) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    assert not (tmp_path / "x.ckpt").exists() and not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("cut, message", [
    (slice(None, -1), "grid_inputs.csv: 59 hours but wind.csv has 60"),
    ((slice(None), slice(None, -1)), "grid_inputs.csv: 47 cells but grid.csv has 48"),
], ids=["short_hours", "short_cells"])
def test_infer_grid_names_a_mismatched_grid_inputs_csv(pipeline, tmp_path, capsys, cut,
                                                       message):
    _, _, _, data, ckpt = pipeline
    broken = _copy_data(data, tmp_path)
    wind, emissions = dataio.read_grid_inputs(data / "grid_inputs.csv")
    dataio.write_grid_inputs(broken / "grid_inputs.csv", wind[cut], emissions[cut])
    assert run_cli("infer", "--ckpt", ckpt, "--data", broken, "--grid",
                   "--out", tmp_path / "x.csv") == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def _rewrite(path, edit) -> None:
    """Replace the table at `path` by `edit` of its lines."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def _header_only(lines):
    return [line for line in lines if line.startswith("#")] + [
        next(line for line in lines if not line.startswith("#"))]


# (the file broken, how, the message)
TABLE_REFUSALS = [
    ("stations.csv", lambda lines: [lines[0], "\n", *lines[1:]], "blank line before header"),
    ("nodes.csv", _header_only, "no node rows"),
    ("stations.csv", _header_only, "no data rows"),
    ("grid.csv", lambda lines: [line.replace("nx=8", "nx=0") for line in lines],
     "degenerate grid"),
    ("grid_inputs.csv", lambda lines: [line for line in lines if line.split(",")[1:2] != ["0"]],
     "cell_ids must be dense 0..46"),
    ("stations.csv", lambda lines: lines[:-STATIONS], "covers 59 hours but predictions cover 60"),
]


@pytest.mark.parametrize("name, edit, message", TABLE_REFUSALS,
                         ids=["blank_before_header", "nodes_without_rows", "series_without_rows",
                              "grid_nx_0", "grid_inputs_sparse_ids", "truth_short_of_pred"])
def test_malformed_table_is_refused_in_one_line(pipeline, tmp_path, capsys, name, edit,
                                                message):
    _, _, _, data, ckpt = pipeline
    broken = _copy_data(data, tmp_path)
    _rewrite(broken / name, edit)
    out = tmp_path / "x.csv"
    if name == "stations.csv":
        argv = ["eval", "--pred", data / "station_truth.csv", "--truth", broken / name]
    else:
        argv = ["infer", "--ckpt", ckpt, "--data", broken, "--out", out,
                *(["--targets", "0"] if name == "nodes.csv" else ["--grid"])]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {broken / name}") and message in err, err
    assert len(err.splitlines()) == 1 and not out.exists()


@pytest.mark.parametrize("mode", [("--targets", "0"), ("--grid",)])
def test_infer_checks_output_directory_before_reading(tmp_path, capsys, mode):
    out = tmp_path / "missing" / "pred.csv"
    assert run_cli("infer", "--ckpt", tmp_path / "no.ckpt", "--data", tmp_path / "no-data",
                   *mode, "--out", out) == 2
    assert f"{out}: no such directory {out.parent}" in capsys.readouterr().err


def test_infer_grid_mode_shapes(pipeline, tmp_path):
    _, _, _, data, ckpt = pipeline
    out = tmp_path / "field.csv"
    assert run_cli("infer", "--ckpt", ckpt, "--data", data,
                   "--grid", "--out", out) == 0
    ids, values = dataio.read_values(out, "pm25")
    assert ids.tolist() == list(range(CELLS))
    assert values.shape == (HOURS, CELLS)
    assert np.all(np.isfinite(values))


@pytest.mark.parametrize("mode", [("--targets", "0"), ("--grid",)])
def test_infer_on_checkpoint_without_threshold_is_data_error(pipeline, tmp_path, capsys, mode):
    # the edge cutoff is part of what the model learned: no default stands in
    _, _, _, data, ckpt = pipeline
    loaded = dataio.load_checkpoint(ckpt)
    old = tmp_path / "old.ckpt"
    dataio.save_checkpoint(old, loaded.model, loaded.norm_mean, loaded.norm_std,
                           {k: v for k, v in loaded.meta.items() if k != "threshold_km"})
    out = tmp_path / "preds.csv"
    assert run_cli("infer", "--ckpt", old, "--data", data, *mode, "--out", out) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {old}: meta has no threshold_km, the edge cutoff "
                   "the model was trained with\n")
    assert not out.exists()


def test_infer_takes_no_threshold_flag(pipeline, tmp_path, capsys):
    _, _, _, data, ckpt = pipeline
    out = tmp_path / "preds.csv"
    assert run_cli("infer", "--ckpt", ckpt, "--data", data, "--targets", "0",
                   "--out", out, "--threshold-km", 20.0) == 1
    assert "unrecognized arguments: --threshold-km 20.0" in capsys.readouterr().err
    assert not out.exists()


def test_infer_needs_exactly_one_mode(pipeline, tmp_path):
    _, _, _, data, ckpt = pipeline
    out = tmp_path / "x.csv"
    assert run_cli("infer", "--ckpt", ckpt, "--data", data, "--out", out) == 1
    assert run_cli("infer", "--ckpt", ckpt, "--data", data,
                   "--targets", "0", "--grid", "--out", out) == 1


def test_infer_bad_targets_are_usage_errors(pipeline, tmp_path):
    _, _, _, data, ckpt = pipeline
    out = tmp_path / "x.csv"
    assert run_cli("infer", "--ckpt", ckpt, "--data", data,
                   "--targets", "0,abc", "--out", out) == 1
    assert run_cli("infer", "--ckpt", ckpt, "--data", data,
                   "--targets", ",", "--out", out) == 1


def test_infer_oversized_target_id_is_usage_error(pipeline, tmp_path, capsys):
    _, _, _, data, ckpt = pipeline
    out = tmp_path / "x.csv"
    assert run_cli("infer", "--ckpt", ckpt, "--data", data,
                   "--targets", "100000000000000000000000", "--out", out) == 1
    err = capsys.readouterr().err
    assert "--targets" in err and "Traceback" not in err
    assert not out.exists()


def test_infer_corrupt_checkpoint_is_data_error(pipeline, tmp_path):
    _, _, _, data, _ = pipeline
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint")
    assert run_cli("infer", "--ckpt", bad, "--data", data,
                   "--targets", "0", "--out", tmp_path / "x.csv") == 2


# -- eval --------------------------------------------------------------


def test_eval_pred_equals_truth_gives_zero_mae(pipeline, capsys):
    _, _, _, data, _ = pipeline
    assert run_cli("eval", "--pred", data / "station_truth.csv",
                   "--truth", data / "station_truth.csv") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "node_id,mae,rmse,r2"
    pooled = lines[-1].split(",")
    assert pooled[0] == "-1"
    assert float(pooled[1]) == 0.0
    assert float(pooled[3]) == 1.0


def test_eval_subset_and_range(pipeline, tmp_path, capsys):
    """Predictions at a node subset score against matching truth columns."""
    _, _, _, data, _ = pipeline
    ids, truth = dataio.read_values(data / "station_truth.csv", "pm25")
    pred = truth[:, [4, 9]] + 1.0
    pred_path = tmp_path / "pred.csv"
    dataio.write_values(pred_path, pred, "pm25", node_ids=np.array([4, 9]))
    out = tmp_path / "report.csv"
    assert run_cli("eval", "--pred", pred_path, "--truth",
                   data / "station_truth.csv", "--from", 10, "--to", 20,
                   "--out", out) == 0
    lines = out.read_text().splitlines()
    rows = [l.split(",") for l in lines[2:]]
    assert [r[0] for r in rows] == ["4", "9", "-1"]
    for row in rows:
        assert abs(float(row[1]) - 1.0) < 1e-12  # constant +1 error
        assert abs(float(row[2]) - 1.0) < 1e-12
    capsys.readouterr()


def test_eval_unknown_pred_node_is_data_error(pipeline, tmp_path, capsys):
    _, _, _, data, _ = pipeline
    pred_path = tmp_path / "pred.csv"
    dataio.write_values(pred_path, np.zeros((HOURS, 1)), "pm25",
                        node_ids=np.array([999]))
    assert run_cli("eval", "--pred", pred_path,
                   "--truth", data / "station_truth.csv") == 2
    assert "999" in capsys.readouterr().err


@pytest.mark.parametrize("pred, truth, where", [
    ([[1e308], [-1e308]], [[-1e308], [1e308]], "node 0"),  # the errors overflow
    ([[1.3e154, 1.3e154]], [[0.0, 0.0]], "pooled row"),  # only the pooled squares' sum
])
def test_eval_overflowing_scores_are_data_error(tmp_path, capsys, pred, truth, where):
    pred_path, truth_path = tmp_path / "pred.csv", tmp_path / "truth.csv"
    dataio.write_values(pred_path, np.array(pred), "pm25")
    dataio.write_values(truth_path, np.array(truth), "pm25")
    report = tmp_path / "report.csv"
    assert run_cli("eval", "--pred", pred_path, "--truth", truth_path, "--out", report) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {where}: scores overflow")
    assert captured.err.count("\n") == 1 and not report.exists()


def test_eval_bad_hour_range_is_usage_error(pipeline, capsys):
    _, _, _, data, _ = pipeline
    assert run_cli("eval", "--pred", data / "station_truth.csv",
                   "--truth", data / "station_truth.csv",
                   "--from", 50, "--to", 10) == 1
    capsys.readouterr()


def test_eval_checks_output_directory_before_reading(tmp_path, capsys):
    out = tmp_path / "missing" / "report.csv"
    assert run_cli("eval", "--pred", tmp_path / "no.csv", "--truth", tmp_path / "no.csv",
                   "--out", out) == 2
    captured = capsys.readouterr()
    assert f"{out}: no such directory {out.parent}" in captured.err and captured.out == ""


# -- render ------------------------------------------------------------


def test_render_checks_output_directory_before_reading(tmp_path, capsys):
    out = tmp_path / "missing" / "f.pgm"
    assert run_cli("render", "--field", tmp_path / "no.csv", "--grid", tmp_path / "no.csv",
                   "--out", out) == 2
    assert f"{out}: no such directory {out.parent}" in capsys.readouterr().err


def test_render_constant_field_is_uniform(pipeline, tmp_path):
    _, _, _, data, _ = pipeline
    field = tmp_path / "flat.csv"
    dataio.write_values(field, np.full((4, CELLS), 7.0), "pm25")
    out = tmp_path / "flat.pgm"
    assert run_cli("render", "--field", field, "--grid", data / "grid.csv",
                   "--out", out) == 0
    pixels = parse_pgm(out.read_text())
    assert pixels.shape == (6, 8)
    assert np.all(pixels == pixels[0, 0])


def test_render_fixed_bounds_and_time(pipeline, tmp_path):
    _, _, _, data, _ = pipeline
    out = tmp_path / "truth.pgm"
    assert run_cli("render", "--field", data / "truth.csv",
                   "--grid", data / "grid.csv", "--out", out,
                   "--time", 30, "--vmin", 0.0, "--vmax", 3.0) == 0
    truth_ids, truth = dataio.read_values(data / "truth.csv", "pm25")
    pixels = parse_pgm(out.read_text())
    frame = truth[30].reshape(6, 8)
    expect = np.clip(np.rint((frame - 0.0) / 3.0 * 255.0), 0, 255)
    assert np.array_equal(pixels[::-1], expect.astype(np.int64))


def test_render_field_beyond_the_float_range(pipeline, tmp_path, capsys):
    # hi - lo overflows to inf; the pixels must still be a valid graymap
    _, _, _, data, _ = pipeline
    values = np.zeros((2, CELLS))
    values[1, 0], values[1, 1] = 1e308, -1e308
    field = tmp_path / "huge.csv"
    dataio.write_values(field, values, "pm25")
    out = tmp_path / "huge.pgm"
    assert run_cli("render", "--field", field, "--grid", data / "grid.csv",
                   "--out", out, "--time", 1) == 0
    assert capsys.readouterr().err == ""
    pixels = parse_pgm(out.read_text())[::-1].ravel()
    assert (pixels[0], pixels[1]) == (255, 0) and np.all(pixels[2:] == 128)


def test_render_time_out_of_range_is_data_error(pipeline, tmp_path):
    _, _, _, data, _ = pipeline
    assert run_cli("render", "--field", data / "truth.csv",
                   "--grid", data / "grid.csv", "--out", tmp_path / "x.pgm",
                   "--time", 10_000) == 2


def test_render_incomplete_field_is_data_error(pipeline, tmp_path, capsys):
    _, _, _, data, _ = pipeline
    partial = tmp_path / "partial.csv"
    dataio.write_values(partial, np.zeros((3, 5)), "pm25")
    assert run_cli("render", "--field", partial, "--grid", data / "grid.csv",
                   "--out", tmp_path / "x.pgm") == 2
    assert "5 of 48" in capsys.readouterr().err


# -- sweep -------------------------------------------------------------


def test_sweep_reports_one_row_per_value(pipeline, tmp_path):
    _, _, cfg, data, _ = pipeline
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", cfg, "--data", data,
                   "--values", "0,0.2", "--seed", 1, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "lambda2,best_epoch,best_val_mae"
    assert len(lines) == 4
    assert lines[2].startswith("0.0,")
    assert lines[3].startswith("0.2,")


def test_sweep_without_out_prints_the_table(pipeline, tmp_path, capsys, monkeypatch):
    _, _, cfg, data, _ = pipeline
    monkeypatch.chdir(tmp_path)
    before = dir_digest(data)
    assert run_cli("sweep", "--config", cfg, "--data", data, "--values", "0.2", "--seed", 1) == 0
    printed = capsys.readouterr().out
    assert not any(tmp_path.iterdir()) and dir_digest(data) == before
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", cfg, "--data", data, "--values", "0.2", "--seed", 1,
                   "--out", out) == 0
    assert printed == out.read_text(encoding="utf-8")
    assert printed.splitlines()[2].startswith("0.2,")


def test_sweep_bad_values_are_usage_errors(pipeline):
    _, _, cfg, data, _ = pipeline
    assert run_cli("sweep", "--config", cfg, "--data", data,
                   "--values", "0,zap") == 1
    assert run_cli("sweep", "--config", cfg, "--data", data, "--values", ",") == 1


def test_sweep_checks_values_and_output_before_reading(pipeline, tmp_path, capsys):
    _, _, cfg, _, _ = pipeline
    out, no_data = tmp_path / "missing" / "sweep.csv", tmp_path / "no-data"
    assert run_cli("sweep", "--config", cfg, "--data", no_data, "--values", "0,zap",
                   "--out", out) == 1
    assert "--values must be comma-separated numbers" in capsys.readouterr().err
    assert run_cli("sweep", "--config", cfg, "--data", no_data, "--values", "0,0.2",
                   "--out", out) == 2
    assert f"{out}: no such directory {out.parent}" in capsys.readouterr().err


@pytest.mark.parametrize("param, values", [("lambda2", "0,0.5,-1"), ("lambda1", "nan"),
                                           ("lambda2", "0.1,inf")])
def test_sweep_checks_every_weight_before_reading_or_training(pipeline, tmp_path, capsys,
                                                              monkeypatch, param, values):
    from pgkrig import training

    _, _, cfg, data, _ = pipeline
    calls = []
    monkeypatch.setattr(training, "train", lambda *a, **k: calls.append(a))
    out = tmp_path / "sweep.csv"
    for data_dir in (data, tmp_path / "no-data"):
        assert run_cli("sweep", "--config", cfg, "--data", data_dir, "--param", param,
                       "--values", values, "--out", out) == 1
        err = capsys.readouterr().err
        assert "--values" in err and f"{param} must be finite and >= 0" in err
        assert "nodes.csv" not in err
    assert calls == [] and not out.exists()


# -- shared contract ---------------------------------------------------


def test_commands_do_not_mutate_inputs(pipeline, tmp_path):
    _, _, cfg, data, ckpt = pipeline
    before = dir_digest(data)
    assert run_cli("train", "--config", cfg, "--data", data,
                   "--out", tmp_path / "m.ckpt", "--seed", 1) == 0
    assert run_cli("infer", "--ckpt", ckpt, "--data", data,
                   "--targets", "0", "--out", tmp_path / "p.csv") == 0
    assert run_cli("infer", "--ckpt", ckpt, "--data", data,
                   "--grid", "--out", tmp_path / "f.csv") == 0
    assert run_cli("eval", "--pred", data / "station_truth.csv",
                   "--truth", data / "station_truth.csv") == 0
    assert run_cli("render", "--field", data / "truth.csv",
                   "--grid", data / "grid.csv", "--out", tmp_path / "r.pgm") == 0
    assert dir_digest(data) == before


def _refused_replacing(capsys, argv, output, replaced, files) -> None:
    """`argv` exits 2 naming `output` and the file it would replace, and
    leaves `files` as they were."""
    before = {f: f.read_bytes() if f.exists() else None for f in files}
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {output}: output would replace {replaced}\n"
    assert {f: f.read_bytes() if f.exists() else None for f in files} == before


def test_train_refuses_an_output_that_replaces_an_input_or_the_other_output(
        pipeline, tmp_path, capsys):
    # copies, since a write that got through would break the module's pipeline
    _, _, config, data, _ = pipeline
    data = _copy_data(data, tmp_path)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_bytes(config.read_bytes())
    files = [cfg, *sorted(data.iterdir())]
    ckpt = tmp_path / "m.ckpt"
    _refused_replacing(capsys, ("train", "--config", cfg, "--data", data, "--out", ckpt,
                                "--log", ckpt), ckpt, ckpt, [ckpt, *files])
    _refused_replacing(capsys, ("train", "--config", cfg, "--data", data, "--out", cfg),
                       cfg, cfg, files)
    stations = data / "stations.csv"
    _refused_replacing(capsys, ("train", "--config", cfg, "--data", data, "--out", ckpt,
                                "--log", stations), stations, stations, [ckpt, *files])
    aod = data / "aod.csv"
    _refused_replacing(capsys, ("sweep", "--config", cfg, "--data", data, "--values", "0",
                                "--out", aod), aod, aod, files)
    assert not ckpt.exists()


def test_infer_refuses_an_output_that_replaces_an_input(pipeline, tmp_path, capsys):
    _, _, _, data, checkpoint = pipeline
    data = _copy_data(data, tmp_path)
    ckpt = tmp_path / "m.ckpt"
    ckpt.write_bytes(checkpoint.read_bytes())
    files = [ckpt, *sorted(data.iterdir())]
    _refused_replacing(capsys, ("infer", "--ckpt", ckpt, "--data", data, "--targets", "0",
                                "--out", ckpt), ckpt, ckpt, files)
    stations = data / "stations.csv"
    _refused_replacing(capsys, ("infer", "--ckpt", ckpt, "--data", data, "--targets", "0",
                                "--out", stations), stations, stations, files)
    grid = data / "grid_inputs.csv"
    _refused_replacing(capsys, ("infer", "--ckpt", ckpt, "--data", data, "--grid",
                                "--out", grid), grid, grid, files)
    # another spelling of the same file is the same file
    alias = data / ".." / data.name / "wind.csv"
    _refused_replacing(capsys, ("infer", "--ckpt", ckpt, "--data", data, "--grid",
                                "--out", alias), alias, data / "wind.csv", files)


def test_eval_refuses_an_output_that_replaces_an_input(pipeline, tmp_path, capsys):
    _, _, _, data, _ = pipeline
    pred = tmp_path / "p.csv"
    pred.write_bytes((data / "station_truth.csv").read_bytes())
    _refused_replacing(capsys, ("eval", "--pred", pred, "--truth", data / "station_truth.csv",
                                "--out", pred), pred, pred, [pred])


def test_render_refuses_an_output_that_replaces_an_input(pipeline, tmp_path, capsys):
    _, _, _, data, _ = pipeline
    field = tmp_path / "f.csv"
    field.write_bytes((data / "truth.csv").read_bytes())
    _refused_replacing(capsys, ("render", "--field", field, "--grid", data / "grid.csv",
                                "--out", field), field, field, [field])


def test_simulate_refuses_an_output_that_replaces_its_scenario_file(tmp_path, capsys):
    out = tmp_path / "d"
    out.mkdir()
    scenario = out / "grid.csv"
    scenario.write_text(SCENARIO_YAML, encoding="utf-8")
    _refused_replacing(capsys, ("simulate", "--scenario", scenario, "--out", out),
                       out / "grid.csv", scenario, [scenario])
    alias = tmp_path / "d" / ".." / "d"
    _refused_replacing(capsys, ("simulate", "--scenario", scenario, "--out", alias),
                       alias / "grid.csv", scenario, [scenario])
    assert list(out.iterdir()) == [scenario]


ISOLATED = "no node pair closer than threshold 1.0 km: graph is fully isolated"


def test_fully_isolated_station_set_exits_2(pipeline, tmp_path, capsys):
    # the stations sit on distinct 2 km cells, so none is under 1 km of another
    _, _, _, data, ckpt = pipeline
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(CONFIG_YAML.replace("threshold_km: 8.0", "threshold_km: 1.0"),
                   encoding="utf-8")
    loaded = dataio.load_checkpoint(ckpt)
    near = tmp_path / "near.ckpt"
    dataio.save_checkpoint(near, loaded.model, loaded.norm_mean, loaded.norm_std,
                           {**loaded.meta, "threshold_km": 1.0})
    out = tmp_path / "out.csv"
    for argv in (("train", "--config", cfg, "--data", data, "--out", out),
                 ("infer", "--ckpt", near, "--data", data, "--targets", "0,5", "--out", out),
                 ("infer", "--ckpt", near, "--data", data, "--grid", "--out", out)):
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: {ISOLATED}\n"
        assert not out.exists()


def _error_classes():
    from pgkrig import (DataError, NumericFailure, autodiff, baselines, graphs, losses,
                        metrics, network, rendering, training)

    return [(dataio.SchemaError, DataError, ValueError),
            (testbed.ScenarioError, DataError, ValueError),
            (graphs.GraphBuildError, DataError, ValueError),
            (training.ConfigError, DataError, ValueError),
            (network.ModelError, DataError, ValueError),
            (losses.LossError, DataError, ValueError),
            (metrics.MetricError, DataError, ValueError),
            (baselines.BaselineError, DataError, ValueError),
            (rendering.RenderError, DataError, ValueError),
            (autodiff.NumericError, NumericFailure, ArithmeticError),
            (training.TrainError, NumericFailure, RuntimeError)]


@pytest.mark.parametrize("error, root, base", _error_classes(),
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_each_error_keeps_its_base_under_one_exit_code_root(error, root, base):
    """`main` maps the two roots to exit codes 2 and 3; callers still catch the base."""
    assert issubclass(error, root) and issubclass(error, base)


def test_unknown_command_is_usage_error(capsys):
    assert run_cli("teleport") == 1
    assert "invalid choice" in capsys.readouterr().err


def test_missing_command_is_usage_error(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def _child(*args) -> subprocess.CompletedProcess:
    """Run Python in a fresh interpreter that imports the pgkrig under test.

    That pgkrig is installed or found through pytest's `pythonpath`
    setting, which only this process sees.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_module_is_executable():
    proc = _child("-m", "pgkrig.cli", "--help")
    assert proc.returncode == 0
    assert "pgkrig" in proc.stdout


_PROBE = """
import json, sys
from pgkrig import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""

_MODEL_MODULES = {"pgkrig.autodiff", "pgkrig.network", "pgkrig.training", "pgkrig.losses"}


def _modules_after(*argv) -> set:
    """The module names loaded once `cli.main(argv)` returns 0 in a fresh interpreter."""
    proc = _child("-c", _PROBE, *argv)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(modules)


def _packages(modules: set, *names) -> set:
    return {m for m in modules if m.split(".")[0] in names}


def test_each_command_imports_only_what_it_runs(pipeline, tmp_path):
    _, scen, cfg, data, ckpt = pipeline
    modules = _modules_after("simulate", "--scenario", scen, "--out", tmp_path / "sim")
    assert "pgkrig.testbed" in modules and not _packages(modules, "scipy"), "simulate"
    for argv, needed in (
            (["eval", "--pred", data / "station_truth.csv",
              "--truth", data / "station_truth.csv"], "pgkrig.metrics"),
            (["render", "--field", data / "truth.csv", "--grid", data / "grid.csv",
              "--out", tmp_path / "r.pgm"], "pgkrig.rendering")):
        modules = _modules_after(*argv)
        assert needed in modules
        assert not _packages(modules, "scipy", "yaml"), argv[0]
        assert not modules & (_MODEL_MODULES | {"pgkrig.testbed"}), argv[0]
    modules = _modules_after("infer", "--ckpt", ckpt, "--data", data, "--targets", "0",
                             "--out", tmp_path / "p.csv")
    assert "pgkrig.training" in modules and not _packages(modules, "yaml")
    assert "pgkrig.testbed" not in modules, "infer"
    modules = _modules_after("train", "--config", cfg, "--data", data,
                             "--out", tmp_path / "m.ckpt")
    assert "pgkrig.training" in modules and "pgkrig.testbed" not in modules, "train"
    modules = _modules_after("--help")
    assert not _packages(modules, "scipy") and "pgkrig.testbed" not in modules


def test_simulate_copies_station_truth_when_it_equals_the_observations(tmp_path, monkeypatch):
    """The stations read the truth exactly, so the two tables hold the same
    values, and the second file is a copy of the first, not formatted again."""
    written = []
    write_values = dataio.write_values

    def recording(path, *args, **kwargs):
        written.append(Path(path).name)
        write_values(path, *args, **kwargs)

    monkeypatch.setattr(dataio, "write_values", recording)
    scen = tmp_path / "scen.yaml"
    scen.write_text(SCENARIO_YAML, encoding="utf-8")
    assert run_cli("simulate", "--scenario", scen, "--out", tmp_path / "sim") == 0
    assert "stations.csv" in written and "station_truth.csv" not in written
