"""End-to-end command tests: pipeline wiring, exit codes, determinism."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pgkrig import cli, dataio
from pgkrig.rendering import parse_pgm
from pgkrig.testbed import ScenarioError, scenario_from_dict

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


def test_simulate_unknown_preset_is_data_error(tmp_path, capsys):
    assert run_cli("simulate", "--scenario", "nope", "--out", tmp_path / "x") == 2
    assert "preset" in capsys.readouterr().err


def test_scenario_file_with_unknown_field(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("nx: 4\nny: 4\nwarp_speed: 9\n", encoding="utf-8")
    assert run_cli("simulate", "--scenario", bad, "--out", tmp_path / "x") == 2


def test_scenario_from_dict_round_trip():
    spec = scenario_from_dict({
        "nx": 4, "ny": 5, "t_hours": 12, "station_count": 10,
        "sources": [{"x_km": 1.0, "y_km": 2.0, "rate_per_h": 3.0}],
        "aod": {"cloud_fraction": 0.5},
    })
    assert (spec.nx, spec.ny, spec.t_hours) == (4, 5, 12)
    assert spec.sources[0].rate_per_h == 3.0
    assert spec.aod.cloud_fraction == 0.5


def test_scenario_from_dict_rejects_bad_shapes():
    with pytest.raises(ScenarioError):
        scenario_from_dict({"sources": {"x_km": 1.0}})
    with pytest.raises(ScenarioError):
        scenario_from_dict({"aod": [1, 2]})
    with pytest.raises(ScenarioError):
        scenario_from_dict([1, 2])


# -- train -------------------------------------------------------------


def test_train_checkpoint_reloads_with_meta(pipeline):
    _, _, _, _, ckpt = pipeline
    loaded = dataio.load_checkpoint(ckpt)
    assert loaded.meta["threshold_km"] == 8.0
    assert loaded.meta["seed"] == 1
    assert loaded.model.config.hidden_dim == 10


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


def test_infer_grid_mode_shapes(pipeline, tmp_path):
    _, _, _, data, ckpt = pipeline
    out = tmp_path / "field.csv"
    assert run_cli("infer", "--ckpt", ckpt, "--data", data,
                   "--grid", "--out", out) == 0
    ids, values = dataio.read_values(out, "pm25")
    assert ids.tolist() == list(range(CELLS))
    assert values.shape == (HOURS, CELLS)
    assert np.all(np.isfinite(values))


def test_infer_threshold_override_changes_output(pipeline, tmp_path):
    _, _, _, data, ckpt = pipeline
    base = tmp_path / "base.csv"
    wide = tmp_path / "wide.csv"
    assert run_cli("infer", "--ckpt", ckpt, "--data", data,
                   "--targets", "0", "--out", base) == 0
    assert run_cli("infer", "--ckpt", ckpt, "--data", data,
                   "--targets", "0", "--out", wide, "--threshold-km", 20.0) == 0
    assert base.read_bytes() != wide.read_bytes()


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


def test_eval_bad_hour_range_is_usage_error(pipeline, capsys):
    _, _, _, data, _ = pipeline
    assert run_cli("eval", "--pred", data / "station_truth.csv",
                   "--truth", data / "station_truth.csv",
                   "--from", 50, "--to", 10) == 1
    capsys.readouterr()


# -- render ------------------------------------------------------------


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


def test_sweep_bad_values_are_usage_errors(pipeline):
    _, _, cfg, data, _ = pipeline
    assert run_cli("sweep", "--config", cfg, "--data", data,
                   "--values", "0,zap") == 1
    assert run_cli("sweep", "--config", cfg, "--data", data, "--values", ",") == 1


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


def test_unknown_command_is_usage_error(capsys):
    assert run_cli("teleport") == 1
    assert "invalid choice" in capsys.readouterr().err


def test_missing_command_is_usage_error(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_module_is_executable():
    # the child imports the pgkrig under test, whether installed or found
    # through pytest's `pythonpath` setting, which only this process sees
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "pgkrig.cli", "--help"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "pgkrig" in proc.stdout
