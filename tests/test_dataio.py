"""Schema, round-trip, and checkpoint determinism tests for dataio."""

import json
import re
import tracemalloc
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from reference_ops import repr_table_text

from pgkrig import cli, dataio
from pgkrig.dataio import SchemaError
from pgkrig.losses import LossWeights
from pgkrig.metrics import NodeScore
from pgkrig.network import KrigingModel, ModelConfig
from pgkrig.testbed import (PRESET_NAMES, AodSpec, EmissionSource, ScenarioError,
                            ScenarioSpec, scenario_preset)
from pgkrig.training import ConfigError, GraphConfig, RunConfig, SplitConfig, TrainConfig


# ---------------------------------------------------------------------------
# node tables


def test_nodes_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    positions = rng.uniform(0, 300, size=(7, 2))
    path = tmp_path / "nodes.csv"
    dataio.write_nodes(path, positions)
    nodes = dataio.read_nodes(path)
    assert np.array_equal(nodes.positions, positions)
    assert nodes.n == 7


def test_nodes_file_starts_with_version_line(tmp_path):
    path = tmp_path / "nodes.csv"
    dataio.write_nodes(path, np.zeros((2, 2)) + [[0, 0], [1, 1]])
    lines = path.read_text().splitlines()
    assert lines[0] == f"# format: {dataio.SCHEMA_VERSION} nodes"
    assert lines[1] == "node_id,x_km,y_km"


def test_nodes_accepts_shuffled_rows(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("node_id,x_km,y_km\n2,20.0,0.0\n0,0.0,0.0\n1,10.0,0.0\n")
    nodes = dataio.read_nodes(path)
    assert nodes.positions[2, 0] == 20.0


def test_nodes_duplicate_id_reports_line(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("node_id,x_km,y_km\n0,0.0,0.0\n0,5.0,0.0\n")
    with pytest.raises(SchemaError, match="nodes.csv:3.*duplicate node_id 0"):
        dataio.read_nodes(path)


def test_nodes_gap_in_ids_rejected(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("node_id,x_km,y_km\n0,0.0,0.0\n2,5.0,0.0\n")
    with pytest.raises(SchemaError, match="dense"):
        dataio.read_nodes(path)


def test_nodes_bad_float_reports_line_and_column(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("node_id,x_km,y_km\n0,0.0,0.0\n1,oops,0.0\n")
    with pytest.raises(SchemaError, match="nodes.csv:3.*x_km.*'oops'"):
        dataio.read_nodes(path)


def test_nodes_wrong_header(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("id,x,y\n0,0.0,0.0\n")
    with pytest.raises(SchemaError, match="expected header"):
        dataio.read_nodes(path)


def test_missing_file_raises_schema_error(tmp_path):
    with pytest.raises(SchemaError, match="never.csv"):
        dataio.read_nodes(tmp_path / "never.csv")


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("# format: pgkrig-v999 nodes\nnode_id,x_km,y_km\n0,0.0,0.0\n1,1.0,0.0\n")
    with pytest.raises(SchemaError, match="unsupported format version"):
        dataio.read_nodes(path)


def test_plain_file_without_version_line_accepted(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("node_id,x_km,y_km\n0,0.0,0.0\n1,1.0,0.0\n")
    assert dataio.read_nodes(path).n == 2


# ---------------------------------------------------------------------------
# long-format series


def test_values_round_trip_with_sparse_ids(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.uniform(0, 80, size=(5, 3))
    path = tmp_path / "stations.csv"
    dataio.write_values(path, values, "pm25", node_ids=np.array([2, 5, 9]))
    ids, back = dataio.read_values(path, "pm25")
    assert np.array_equal(ids, [2, 5, 9])
    assert np.array_equal(back, values)


def test_values_exact_float_round_trip(tmp_path):
    # awkward decimals must survive the text round-trip bit for bit
    values = np.array([[0.1 + 0.2, 1e-17, 123456.789012345, -7.25e-300]])
    path = tmp_path / "vals.csv"
    dataio.write_values(path, values, "pm25")
    _, back = dataio.read_values(path, "pm25")
    assert np.array_equal(back, values)


def test_values_missing_row_detected(tmp_path):
    path = tmp_path / "vals.csv"
    path.write_text("time,node_id,pm25\n0,0,1.0\n0,1,2.0\n1,0,3.0\n")
    with pytest.raises(SchemaError, match="missing row for time 1, node 1"):
        dataio.read_values(path, "pm25")


def test_values_duplicate_row_detected(tmp_path):
    path = tmp_path / "vals.csv"
    path.write_text("time,node_id,pm25\n0,0,1.0\n0,0,2.0\n")
    with pytest.raises(SchemaError, match="duplicate row for time 0, node 0"):
        dataio.read_values(path, "pm25")


def test_values_non_contiguous_times_rejected(tmp_path):
    path = tmp_path / "vals.csv"
    path.write_text("time,node_id,pm25\n0,0,1.0\n2,0,2.0\n")
    with pytest.raises(SchemaError, match="contiguous"):
        dataio.read_values(path, "pm25")


def test_values_non_finite_rejected(tmp_path):
    path = tmp_path / "vals.csv"
    path.write_text("time,node_id,pm25\n0,0,inf\n")
    with pytest.raises(SchemaError, match="vals.csv:2.*not finite"):
        dataio.read_values(path, "pm25")


def test_wind_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    wind = rng.normal(0, 4, size=(6, 4, 2))
    path = tmp_path / "wind.csv"
    dataio.write_wind(path, wind)
    ids, back = dataio.read_wind(path)
    assert np.array_equal(ids, np.arange(4))
    assert np.array_equal(back, wind)


def test_aod_round_trip_and_bits(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 3, size=(4, 5))
    valid = (rng.uniform(size=(4, 5)) < 0.6).astype(float)
    path = tmp_path / "aod.csv"
    dataio.write_aod(path, values, valid)
    _, back_values, back_valid = dataio.read_aod(path)
    assert np.array_equal(back_values, values)
    assert np.array_equal(back_valid, valid)


def test_aod_bad_valid_bit(tmp_path):
    path = tmp_path / "aod.csv"
    path.write_text("time,node_id,aod,valid\n0,0,1.0,2\n")
    with pytest.raises(SchemaError, match="valid: 2 is not 0 or 1"):
        dataio.read_aod(path)


# ---------------------------------------------------------------------------
# grid geometry


def test_grid_nodes_round_trip(tmp_path):
    geometry = dataio.GridGeometry(nx=4, ny=3, cell_km=2.5)
    path = tmp_path / "grid.csv"
    dataio.write_grid_nodes(path, geometry)
    back = dataio.read_grid_nodes(path)
    assert back == geometry
    assert np.array_equal(back.positions(), geometry.positions())


def test_grid_nodes_missing_comment(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("cell_id,x_km,y_km\n0,1.0,1.0\n")
    with pytest.raises(SchemaError, match="grid.*comment"):
        dataio.read_grid_nodes(path)


def test_grid_nodes_row_count_mismatch(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("# grid: nx=2 ny=2 cell_km=1.0\ncell_id,x_km,y_km\n0,0.5,0.5\n")
    with pytest.raises(SchemaError, match="promises 4 cells, found 1"):
        dataio.read_grid_nodes(path)


def test_grid_nodes_position_disagreement(tmp_path):
    geometry = dataio.GridGeometry(nx=2, ny=1, cell_km=1.0)
    path = tmp_path / "grid.csv"
    dataio.write_grid_nodes(path, geometry)
    tampered = path.read_text().replace("1.5,0.5", "1.5,0.75")
    path.write_text(tampered)
    with pytest.raises(SchemaError, match="disagrees"):
        dataio.read_grid_nodes(path)


@pytest.mark.parametrize("comment, rows, message", [
    # cell 0 twice, cell 1 missing: the row count and every position agree
    ("nx=2 ny=1 cell_km=1.0", ["0,0.5,0.5", "0,0.5,0.5"], "grid.csv:4: duplicate cell_id 0"),
    # the repeat is reported before an earlier row's position fault
    ("nx=3 ny=1 cell_km=1.0", ["0,0.5,0.5", "2,9.0,0.5", "0,0.5,0.5"],
     "grid.csv:5: duplicate cell_id 0"),
])
def test_grid_nodes_repeated_cell_id(tmp_path, comment, rows, message):
    path = tmp_path / "grid.csv"
    path.write_text("\n".join([f"# grid: {comment}", "cell_id,x_km,y_km", *rows]) + "\n")
    with pytest.raises(SchemaError) as info:
        dataio.read_grid_nodes(path)
    assert str(info.value).endswith(message)


def test_grid_positions_row_major(tmp_path):
    geometry = dataio.GridGeometry(nx=3, ny=2, cell_km=2.0)
    positions = geometry.positions()
    # cell k = iy*nx + ix, centered at (ix+0.5, iy+0.5)*cell
    assert np.array_equal(positions[0], [1.0, 1.0])
    assert np.array_equal(positions[2], [5.0, 1.0])
    assert np.array_equal(positions[3], [1.0, 3.0])


def test_grid_inputs_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    wind = rng.normal(0, 3, size=(3, 6, 2))
    emissions = rng.uniform(0, 2, size=(3, 6))
    path = tmp_path / "grid_inputs.csv"
    dataio.write_grid_inputs(path, wind, emissions)
    back_wind, back_emissions = dataio.read_grid_inputs(path)
    assert np.array_equal(back_wind, wind)
    assert np.array_equal(back_emissions, emissions)


def test_grid_inputs_read_peak_is_within_four_times_its_output(tmp_path):
    """s1-advection's shape, 240 h of 400 cells: the batched parse, the
    assembly and the copies out of it peaked at 4.7 times the returned
    arrays before the parse kept one array per column and the parsed
    columns were dropped before the copies, and at 3.0 times after."""
    rng = np.random.default_rng(5)
    path = tmp_path / "grid_inputs.csv"
    dataio.write_grid_inputs(path, rng.normal(0, 3, size=(240, 400, 2)),
                             rng.uniform(0, 2, size=(240, 400)))
    tracemalloc.start()
    try:
        wind, emissions = dataio.read_grid_inputs(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (wind.nbytes + emissions.nbytes)


# ---------------------------------------------------------------------------
# metric tables


class _Rec:
    def __init__(self, epoch, train_loss, val_mae, val_rmse, val_r2):
        self.epoch = epoch
        self.train_loss = train_loss
        self.val_mae = val_mae
        self.val_rmse = val_rmse
        self.val_r2 = val_r2


def test_metrics_log_format(tmp_path):
    path = tmp_path / "log.csv"
    dataio.write_metrics_log(path, [_Rec(0, 2.5, 1.25, 1.5, 0.75),
                                    _Rec(1, 2.0, 1.0, 1.25, None)])
    lines = path.read_text().splitlines()
    assert lines[1] == "epoch,train_loss,val_mae,val_rmse,val_r2"
    assert lines[2] == "0,2.5,1.25,1.5,0.75"
    assert lines[3] == "1,2.0,1.0,1.25,"


def test_report_pooled_row_uses_minus_one(tmp_path):
    scores = [NodeScore(node_id=3, mae=1.0, rmse=1.5, r2=0.5)]
    pooled = NodeScore(node_id=-1, mae=1.0, rmse=1.5, r2=None)
    path = tmp_path / "report.csv"
    dataio.write_report(path, scores, pooled)
    lines = path.read_text().splitlines()
    assert lines[1] == "node_id,mae,rmse,r2"
    assert lines[2] == "3,1.0,1.5,0.5"
    assert lines[3] == "-1,1.0,1.5,"


# ---------------------------------------------------------------------------
# checkpoints


def _small_model(seed=0):
    config = ModelConfig(hidden_dim=6, tcn_layers=2, gnn_layers=1, readout_hidden=5)
    return KrigingModel(config, seed=seed)


def test_checkpoint_round_trip_bitwise(tmp_path):
    model = _small_model()
    mean = np.array([0.0, 0.1, 0.2, 31.7, 0.0])
    std = np.array([1.0, 2.0, 0.5, 18.3, 1.0])
    meta = {"threshold_km": 12.0, "seed": 3, "aod_loss_active": True}
    path = tmp_path / "model.ckpt"
    dataio.save_checkpoint(path, model, mean, std, meta)
    ckpt = dataio.load_checkpoint(path)
    assert ckpt.meta == meta
    assert np.array_equal(ckpt.norm_mean, mean)
    assert np.array_equal(ckpt.norm_std, std)
    assert ckpt.model.config == model.config
    assert set(ckpt.model.params) == set(model.params)
    for name, tensor in model.params.items():
        assert np.array_equal(ckpt.model.params[name].data, tensor.data), name
        assert ckpt.model.params[name].requires_grad


def test_checkpoint_bytes_deterministic(tmp_path):
    model = _small_model(seed=9)
    mean = np.zeros(5)
    std = np.ones(5)
    path_a = tmp_path / "a.ckpt"
    path_b = tmp_path / "b.ckpt"
    dataio.save_checkpoint(path_a, model, mean, std, {"seed": 9})
    dataio.save_checkpoint(path_b, model, mean, std, {"seed": 9})
    assert path_a.read_bytes() == path_b.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(SchemaError, match="bad magic"):
        dataio.load_checkpoint(path)


def test_checkpoint_truncated_buffer(tmp_path):
    model = _small_model()
    path = tmp_path / "model.ckpt"
    dataio.save_checkpoint(path, model, np.zeros(5), np.ones(5), {})
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(SchemaError, match="truncated buffer"):
        dataio.load_checkpoint(path)


def test_checkpoint_trailing_bytes(tmp_path):
    model = _small_model()
    path = tmp_path / "model.ckpt"
    dataio.save_checkpoint(path, model, np.zeros(5), np.ones(5), {})
    path.write_bytes(path.read_bytes() + b"xxxx")
    with pytest.raises(SchemaError, match="trailing bytes"):
        dataio.load_checkpoint(path)


def _edit_header(path, edit) -> None:
    """Rewrite a checkpoint's JSON header through `edit`, keeping its buffers."""
    raw = path.read_bytes()
    start = raw.index(b"\n") + 1
    end = raw.index(b"\n", start)
    header = json.loads(raw[start:end])
    edit(header)
    path.write_bytes(raw[:start] + json.dumps(header).encode("utf-8") + raw[end:])


def _refuse_buffer_reads(monkeypatch) -> None:
    """Fail the test if a checkpoint buffer is read, so a refusal must come
    from the header alone."""
    def read(*args, **kwargs):
        raise AssertionError("a buffer was read")

    monkeypatch.setattr(np, "frombuffer", read)


# `hazard` is how reading the buffer of each shape would go wrong
@pytest.mark.parametrize("shape, hazard", [
    ([2 ** 70], "truncated buffer"),
    ([2 ** 40, 2 ** 40], "truncated buffer"),  # np.prod wraps to 0 in int64
    ([2 ** 62, 4], "truncated buffer"),
    ([0, 2 ** 70], "Maximum allowed dimension exceeded"),
    ([-2, -16], "non-negative integers"),
    ([True], "non-negative integers"),
    ([3.5], "non-negative integers"),
    ("12", "non-negative integers"),
    (None, "non-negative integers"),
])
def test_checkpoint_rejects_malformed_shapes(tmp_path, monkeypatch, shape, hazard):
    path = tmp_path / "model.ckpt"
    dataio.save_checkpoint(path, _small_model(), np.zeros(5), np.ones(5), {})

    def edit(header):
        header["arrays"][0]["shape"] = shape

    _edit_header(path, edit)
    _refuse_buffer_reads(monkeypatch)
    with pytest.raises(SchemaError) as info:
        dataio.load_checkpoint(path)
    assert str(info.value) == (f"{path}: malformed checkpoint header: "
                               f"param:init_readout.0.bias has shape {json.dumps(shape)}, expected [5]")


@pytest.mark.parametrize("name, shape", [
    ("param:init_readout.1.bias", [True]),  # [True] == [1] in Python
    ("param:init_readout.1.bias", [1.0]),
    ("param:init_readout.0.bias", [5.0]),
])
def test_checkpoint_shape_equal_in_value_but_not_of_json_integers_is_refused(
        tmp_path, monkeypatch, name, shape):
    path = tmp_path / "model.ckpt"
    dataio.save_checkpoint(path, _small_model(), np.zeros(5), np.ones(5), {})

    def edit(header):
        next(entry for entry in header["arrays"] if entry["name"] == name)["shape"] = shape

    _edit_header(path, edit)
    _refuse_buffer_reads(monkeypatch)
    with pytest.raises(SchemaError, match=re.escape(f"{name} has shape {json.dumps(shape)}, expected")):
        dataio.load_checkpoint(path)


@pytest.mark.parametrize("edit, message", [
    (lambda header: header["config"].update(tcn_layers=400000),
     "param:tcn.2.weight is not listed"),
    (lambda header: header["config"].update(two_weight_propagation=True),
     "param:prop.0.weight_diff is not listed"),
    (lambda header: header["arrays"].pop(), "norm:std is not listed"),
    (lambda header: header["arrays"].append({"name": "norm:extra", "shape": [5]}),
     "norm:extra is not in the config"),
], ids=["tcn_layers", "two_weight", "one_short", "one_extra"])
def test_checkpoint_array_count_must_match_config(tmp_path, monkeypatch, edit, message):
    path = tmp_path / "model.ckpt"
    dataio.save_checkpoint(path, _small_model(), np.zeros(5), np.ones(5), {})
    _edit_header(path, edit)
    _refuse_buffer_reads(monkeypatch)
    with pytest.raises(SchemaError) as info:
        dataio.load_checkpoint(path)
    assert str(info.value) == f"{path}: malformed checkpoint header: {message}"


@pytest.mark.parametrize("edit", [
    lambda arrays: arrays.__setitem__(1, dict(arrays[0])),
    lambda arrays: arrays.append(dict(arrays[0])),
], ids=["in_place_of_another", "as_an_extra"])
def test_checkpoint_listing_an_array_twice_is_refused(tmp_path, monkeypatch, edit):
    path = tmp_path / "model.ckpt"
    dataio.save_checkpoint(path, _small_model(), np.zeros(5), np.ones(5), {})
    _edit_header(path, lambda header: edit(header["arrays"]))
    _refuse_buffer_reads(monkeypatch)
    with pytest.raises(SchemaError) as info:
        dataio.load_checkpoint(path)
    assert str(info.value) == (f"{path}: malformed checkpoint header: "
                               "param:init_readout.0.bias is listed twice")


def test_huge_config_is_refused_after_drawing_one_entry_past_the_header(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    dataio.save_checkpoint(path, _small_model(), np.zeros(5), np.ones(5), {})
    _edit_header(path, lambda header: header["config"].update(tcn_layers=400000))
    listed = len(json.loads(path.read_bytes().splitlines()[1])["arrays"])
    drawn = []
    table = ModelConfig.param_shapes

    def counted(self):
        for entry in table(self):
            drawn.append(entry)
            yield entry

    monkeypatch.setattr(ModelConfig, "param_shapes", counted)
    with pytest.raises(SchemaError, match="param:tcn.2.weight is not listed"):
        dataio.load_checkpoint(path)
    assert 0 < len(drawn) <= listed + 1


@pytest.mark.parametrize("name", ["norm:mean", "norm:std"])
@pytest.mark.parametrize("shape", [(5, 1), (3,)])
def test_checkpoint_rejects_misshapen_norm(tmp_path, monkeypatch, name, shape):
    norm = {"norm:mean": np.zeros(5), "norm:std": np.ones(5)}
    norm[name] = np.ones(shape)
    path = tmp_path / "model.ckpt"
    dataio.save_checkpoint(path, _small_model(), norm["norm:mean"], norm["norm:std"], {})
    _refuse_buffer_reads(monkeypatch)
    with pytest.raises(SchemaError) as info:
        dataio.load_checkpoint(path)
    assert str(info.value) == (f"{path}: malformed checkpoint header: "
                               f"{name} has shape {list(shape)}, expected [5]")


# written by save_checkpoint before the loader checked headers against
# ModelConfig.param_shapes: (file, config overrides, seed)
_EARLIER_CHECKPOINTS = [("single_weight.ckpt", {}, 11),
                        ("two_weight.ckpt", {"two_weight_propagation": True}, 12)]


@pytest.mark.parametrize("name, overrides, seed", _EARLIER_CHECKPOINTS,
                         ids=[name for name, _, _ in _EARLIER_CHECKPOINTS])
def test_committed_checkpoint_loads_and_saves_byte_identically(tmp_path, name, overrides, seed):
    path = Path(__file__).parent / "data" / name
    ckpt = dataio.load_checkpoint(path)
    config = ModelConfig(hidden_dim=4, tcn_layers=2, tcn_kernel_size=2, gnn_layers=2,
                         readout_hidden=3, **overrides)
    assert ckpt.model.config == config
    fresh = KrigingModel(config, seed=seed)
    assert set(ckpt.model.params) == set(fresh.params)
    for key, tensor in fresh.params.items():
        assert ckpt.model.params[key].data.tobytes() == tensor.data.tobytes(), key
    assert ckpt.norm_mean.tobytes() == np.array([0.25, -0.5, 1.75, 31.7, 0.5]).tobytes()
    assert ckpt.norm_std.tobytes() == np.array([1.5, 2.0, 0.5, 18.3, 0.25]).tobytes()
    assert ckpt.meta == {"threshold_km": 9.5, "seed": seed, "train_ids": [0, 2, 3],
                         "best_val_mae": 0.125}
    again = tmp_path / name
    dataio.save_checkpoint(again, ckpt.model, ckpt.norm_mean, ckpt.norm_std, ckpt.meta)
    assert again.read_bytes() == path.read_bytes()


_TINY_SCENARIO = """\
nx: 4
ny: 4
cell_km: 2.0
t_hours: 12
station_count: 6
layout_seed: 1
sources:
  - {x_km: 3.0, y_km: 3.0, rate_per_h: 5.0}
"""


@pytest.mark.parametrize("name, index, value, message", [
    ("param:init_readout.0.bias", 2, np.nan,
     "param:init_readout.0.bias has non-finite values"),
    ("norm:mean", 3, np.inf, "norm:mean has non-finite values"),
    ("norm:std", 0, np.nan, "norm:std has non-finite values"),
    ("norm:std", 3, 0.0, "norm:std[3] = 0.0 is not positive"),
    ("norm:std", 1, -2.5, "norm:std[1] = -2.5 is not positive"),
])
def test_checkpoint_rejects_invalid_values(tmp_path, name, index, value, message):
    model = _small_model()
    norm = {"norm:mean": np.zeros(5), "norm:std": np.ones(5)}
    target = (norm[name] if name in norm
              else model.params[name[len("param:"):]].data)
    target[index] = value
    path = tmp_path / "model.ckpt"
    dataio.save_checkpoint(path, model, norm["norm:mean"], norm["norm:std"], {})
    with pytest.raises(SchemaError) as info:
        dataio.load_checkpoint(path)
    assert str(info.value) == f"{path}: invalid checkpoint contents: {message}"


def test_infer_on_misshapen_norm_checkpoint_is_data_error(tmp_path, capsys):
    scenario = tmp_path / "scen.yaml"
    scenario.write_text(_TINY_SCENARIO, encoding="utf-8")
    data = tmp_path / "data"
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(data)]) == 0
    model = _small_model()
    good = tmp_path / "good.ckpt"
    bad = tmp_path / "bad.ckpt"
    dataio.save_checkpoint(good, model, np.zeros(5), np.ones(5), {"threshold_km": 12.0})
    dataio.save_checkpoint(bad, model, np.zeros(5), np.ones((5, 1)), {})
    argv = ["infer", "--data", str(data), "--targets", "0", "--out", str(tmp_path / "p.csv")]
    assert cli.main(argv + ["--ckpt", str(good)]) == 0
    capsys.readouterr()
    assert cli.main(argv + ["--ckpt", str(bad)]) == 2
    assert capsys.readouterr().err == (f"error: {bad}: malformed checkpoint header: "
                                       "norm:std has shape [5, 1], expected [5]\n")


def test_infer_on_non_finite_parameter_checkpoint_is_data_error(tmp_path, capsys):
    # without the load-time check the NaN bias reaches the forward pass,
    # which fails with a numeric error (exit 3) instead of a schema error
    scenario = tmp_path / "scen.yaml"
    scenario.write_text(_TINY_SCENARIO, encoding="utf-8")
    data = tmp_path / "data"
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(data)]) == 0
    model = _small_model()
    model.params["init_readout.0.bias"].data[0] = np.nan
    bad = tmp_path / "bad.ckpt"
    dataio.save_checkpoint(bad, model, np.zeros(5), np.ones(5), {})
    capsys.readouterr()
    assert cli.main(["infer", "--data", str(data), "--targets", "0", "--ckpt", str(bad),
                     "--out", str(tmp_path / "p.csv")]) == 2
    assert "init_readout.0.bias has non-finite values" in capsys.readouterr().err


def test_checkpoint_rejects_unserializable_meta(tmp_path):
    model = _small_model()
    with pytest.raises(SchemaError, match="JSON"):
        dataio.save_checkpoint(tmp_path / "m.ckpt", model, np.zeros(5), np.ones(5),
                               {"bad": object()})


# ---------------------------------------------------------------------------
# run configuration


def test_load_config_sections(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("train:\n  epochs: 12\n  learning_rate: 0.001\n"
                    "model:\n  hidden_dim: 16\nloss:\n  lambda2: 0.2\n")
    config = dataio.load_config(path)
    assert config["train"]["epochs"] == 12
    assert config["model"]["hidden_dim"] == 16
    assert config["loss"]["lambda2"] == 0.2


def test_load_config_empty_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("")
    assert dataio.load_config(path) == {}


def test_load_config_unknown_section(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("trainer:\n  epochs: 1\n")
    with pytest.raises(SchemaError, match=r"section 'config': unknown keys \['trainer'\]"):
        dataio.from_mapping(RunConfig, dataio.load_config(path), "config")


def test_load_config_non_mapping_section(tmp_path):
    path = tmp_path / "run.yaml"
    for section in ("model", "train", "split", "loss", "graph"):
        path.write_text(f"{section}: [1, 2]\n")
        with pytest.raises(SchemaError,
                           match=f"section 'config.{section}' must be a mapping, got list"):
            dataio.from_mapping(RunConfig, dataio.load_config(path), "config")


def test_load_config_non_mapping_root(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(SchemaError, match="root must be a mapping"):
        dataio.load_config(path)


def test_range_fault_names_its_section_and_keeps_its_type():
    with pytest.raises(ConfigError, match=r"^section 'config.train': seed -2 is negative$"):
        dataio.from_mapping(RunConfig, {"train": {"seed": -2}}, "config")
    with pytest.raises(ScenarioError, match=r"^section 'scenario.sources\[0\]': source rate"):
        dataio.from_mapping(ScenarioSpec, {"sources": [{"x_km": 0, "y_km": 0,
                                                        "rate_per_h": -1}]}, "scenario")


@pytest.mark.parametrize("text, value", [
    ("1e-3", 0.001), ("1.0e308", 1.0e308), ("-2E+2", -200.0), ("1.0e-3", 0.001),
    (".5", 0.5), ("3.", 3.0), ("12", 12), ("0x10", 16), ("1e-3x", "1e-3x"), ("e3", "e3"),
    (".inf", np.inf), ("-.inf", -np.inf), ("true", True),
])
def test_parse_yaml_reads_yaml_1_2_floats(text, value):
    parsed = dataio.parse_yaml(f"a: {text}\n", SchemaError, "run.yaml")["a"]
    assert parsed == value and type(parsed) is type(value)


def test_parse_yaml_keeps_nan_and_wraps_syntax_errors():
    assert np.isnan(dataio.parse_yaml("a: .nan", SchemaError, "run.yaml")["a"])
    with pytest.raises(SchemaError, match="^run.yaml: bad: while parsing"):
        dataio.parse_yaml("a: [1", SchemaError, "run.yaml: bad")


def _field_names(cls) -> set:
    return {f.name for f in fields(cls)}


def _formats_yaml(heading: str) -> str:
    """The first fenced YAML block under `heading` in FORMATS.md."""
    text = (Path(__file__).resolve().parents[1] / "FORMATS.md").read_text(encoding="utf-8")
    return text.split(heading, 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]


def test_formats_md_config_matches_the_dataclasses(tmp_path):
    """The documented run configuration loads, and lists every field; its
    commented-out hour ranges load in place of the fractions."""
    text = _formats_yaml("## Run configuration (YAML)")
    explicit = re.sub(r"^  (?:train|val)_fraction:.*\n", "",
                      re.sub(r"^  # (\w+_hours:)", r"  \1", text, flags=re.M), flags=re.M)
    hours = {"train_hours", "val_hours", "test_hours"}
    fractions = {"train_fraction", "val_fraction"}
    for yaml_text, left_out in ((text, hours), (explicit, fractions)):
        path = tmp_path / "run.yaml"
        path.write_text(yaml_text, encoding="utf-8")
        config = dataio.load_config(path)
        dataio.from_mapping(RunConfig, config, "config").split.spec(240)
        assert set(config) == _field_names(RunConfig)
        for name, cls in (("model", ModelConfig), ("train", TrainConfig),
                          ("split", SplitConfig), ("loss", LossWeights), ("graph", GraphConfig)):
            assert set(config[name]) == _field_names(cls) - (left_out if name == "split"
                                                             else set()), name


def test_formats_md_scenario_matches_the_dataclasses():
    """The documented scenario file loads, and lists every field."""
    data = yaml.safe_load(_formats_yaml("## Scenario files (YAML)"))
    dataio.from_mapping(ScenarioSpec, data, "scenario")
    assert set(data) == _field_names(ScenarioSpec)
    assert set(data["aod"]) == _field_names(AodSpec)
    assert data["sources"]
    for source in data["sources"]:
        assert set(source) == _field_names(EmissionSource)


@pytest.mark.parametrize("config", [
    ModelConfig(), TrainConfig(), LossWeights(),
    RunConfig(split=SplitConfig(train_fraction=0.6, val_fraction=0.2)),
    RunConfig(split=SplitConfig(train_hours=(0, 40), val_hours=(40, 50), test_hours=(50, 60))),
    *map(scenario_preset, PRESET_NAMES),
], ids=["model", "train", "loss", "run", "run-hours", *PRESET_NAMES])
def test_every_config_field_has_a_checked_type(config):
    """from_mapping rebuilds each config from its own fields; a field whose
    annotation it cannot check fails here."""
    assert dataio.from_mapping(type(config), asdict(config), "config") == config


# ---------------------------------------------------------------------------
# table codec


def _awkward(rng, shape):
    """Floats across the whole exponent range, with -0.0 and subnormals mixed in."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    flat = values.reshape(-1)
    flat[::7] = -0.0
    flat[3::7] = 5e-324
    return values


_SHAPE = (45, 100)  # 4,500 rows

_TABLES = {
    "values": (lambda path, rng: dataio.write_values(
                   path, _awkward(rng, _SHAPE), "pm25", node_ids=np.arange(_SHAPE[1]) * 3),
               lambda path: dataio.read_values(path, "pm25")),
    "wind": (lambda path, rng: dataio.write_wind(path, _awkward(rng, _SHAPE + (2,))),
             dataio.read_wind),
    "aod": (lambda path, rng: dataio.write_aod(path, _awkward(rng, _SHAPE),
                                               rng.uniform(size=_SHAPE) < 0.5),
            dataio.read_aod),
    "grid_inputs": (lambda path, rng: dataio.write_grid_inputs(
                        path, _awkward(rng, _SHAPE + (2,)), _awkward(rng, _SHAPE)),
                    dataio.read_grid_inputs),
    "nodes": (lambda path, rng: dataio.write_nodes(path, _awkward(rng, (_SHAPE[1], 2))),
              lambda path: (dataio.read_nodes(path).positions,)),
}


@pytest.mark.parametrize("kind", sorted(_TABLES))
def test_row_order_is_free(tmp_path, kind):
    write, read = _TABLES[kind]
    path = tmp_path / "table.csv"
    write(path, np.random.default_rng(5))
    ordered = read(path)
    lines = path.read_text().splitlines()
    body = lines[2:]
    np.random.default_rng(6).shuffle(body)
    path.write_text("\n".join(lines[:2] + body) + "\n")
    shuffled = read(path)
    for a, b in zip(ordered, shuffled, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_extreme_floats_round_trip_bitwise(tmp_path):
    values = np.array([[-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308],
                       [0.1 + 0.2, -5e-324, np.nextafter(1e308, np.inf), -0.0, 0.0]])
    path = tmp_path / "vals.csv"
    dataio.write_values(path, values, "pm25")
    _, back = dataio.read_values(path, "pm25")
    assert back.tobytes() == values.tobytes()
    wind = np.stack([values, values[::-1]], axis=-1)
    dataio.write_grid_inputs(path, wind, values)
    back_wind, back_emissions = dataio.read_grid_inputs(path)
    assert back_wind.tobytes() == wind.tobytes()
    assert back_emissions.tobytes() == values.tobytes()


# (int cell, float cell) rows that int() and float() accept; numpy's reader
# takes the first list, and rejects the underscores of the second
_NUMPY_CELLS = [
    ("+3", "+3"), (" 7 ", " 7 "), ("007", ".5"), ("-0", "5."), ("\t12", "1E5"),
    ("0", "-0"), ("9223372036854775807", "-0.0"), ("1", "+.5e-3 "),
    ("2", "1234567890123456789012345"), ("3", "0.1234567890123456789012345e-3"),
    ("4", "1.7976931348623157e308"), ("5", "-1.7976931348623157E+308"),
    ("6", "2.2250738585072014e-308"), ("7", "4.9e-324"), ("8", "1e-400"),
    ("9", "123456789012345678901234567e-330"), ("10", "9999999999999999999999999e283"),
]
_ROW_CELLS = [("1_0", "1"), ("1", "1_0.2_5"), ("1_0", "-1_2e3_0")]


def test_awkward_valid_cells_read_as_int_and_float(tmp_path, monkeypatch):
    """Each cell reads to exactly int(text) or float(text), bitwise, whether
    numpy's reader takes the table or the row parser does."""
    parsed = []
    row_parser = dataio._parse_row
    monkeypatch.setattr(dataio, "_parse_row", lambda *args: parsed.append(args) or
                        row_parser(*args))
    path = tmp_path / "t.csv"
    for rows in [_NUMPY_CELLS, *([row] for row in _ROW_CELLS), _NUMPY_CELLS + _ROW_CELLS]:
        parsed.clear()
        path.write_text("n,x\n" + "".join(f"{i},{f}\n" for i, f in rows), encoding="utf-8")
        _, _, (n, x) = dataio._read_table(path, "n,x", "if")
        assert n.dtype == np.int64 and n.tolist() == [int(i) for i, _ in rows]
        assert x.tobytes() == np.array([float(f) for _, f in rows]).tobytes()
        assert len(parsed) == (0 if rows is _NUMPY_CELLS else len(rows))


def test_writers_match_per_row_reference(tmp_path):
    rng = np.random.default_rng(8)
    ids = np.array([4, 0, 9])
    vals = _awkward(rng, (3, 3))
    wind = _awkward(rng, (3, 3, 2))
    valid = rng.uniform(size=(3, 3)) < 0.5
    geometry = dataio.GridGeometry(nx=3, ny=2, cell_km=0.7)

    def fmt(value):
        return repr(float(value))

    def rows(cells, node_ids=range(3)):
        return [f"{t},{node_ids[k]}," + cells(t, k) for t in range(3) for k in range(3)]

    head = dataio.version_line
    cases = [
        (lambda p: dataio.write_values(p, vals, "pm25", node_ids=ids),
         [head("pm25"), "time,node_id,pm25"] + rows(lambda t, k: fmt(vals[t, k]), ids)),
        (lambda p: dataio.write_values(p, vals, "emission"),
         [head("emission"), "time,node_id,emission"] + rows(lambda t, k: fmt(vals[t, k]))),
        (lambda p: dataio.write_wind(p, wind),
         [head("wind"), "time,node_id,u_ms,v_ms"]
         + rows(lambda t, k: f"{fmt(wind[t, k, 0])},{fmt(wind[t, k, 1])}")),
        (lambda p: dataio.write_aod(p, vals, valid),
         [head("aod"), "time,node_id,aod,valid"]
         + rows(lambda t, k: f"{fmt(vals[t, k])},{int(valid[t, k])}")),
        (lambda p: dataio.write_grid_inputs(p, wind, vals),
         [head("grid-inputs"), "time,cell_id,u_ms,v_ms,emission"]
         + [f"{t},{k},{fmt(wind[t, k, 0])},{fmt(wind[t, k, 1])},{fmt(vals[t, k])}"
            for t in range(3) for k in range(3)]),
        (lambda p: dataio.write_nodes(p, wind[0]),
         [head("nodes"), "node_id,x_km,y_km"]
         + [f"{k},{fmt(x)},{fmt(y)}" for k, (x, y) in enumerate(wind[0])]),
        (lambda p: dataio.write_grid_nodes(p, geometry),
         [head("grid"), "# grid: nx=3 ny=2 cell_km=0.7", "cell_id,x_km,y_km"]
         + [f"{k},{fmt((k % 3 + 0.5) * 0.7)},{fmt((k // 3 + 0.5) * 0.7)}" for k in range(6)]),
    ]
    for i, (write, lines) in enumerate(cases):
        path = tmp_path / f"{i}.csv"
        write(path)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8"), i


def _table_text_cases():
    rng = np.random.default_rng(3)
    pool = _awkward(rng, (40,))
    grid = rng.normal(size=(300, 2)) * 10.0 ** rng.integers(-300, 300, size=(300, 2))
    return {
        "repeats": [np.repeat(np.arange(400), 5), rng.choice(pool, 2000),
                    np.tile([0.1, -0.0, 0.0, 5e-324], 500), np.full(2000, 2.5)],
        "no repeats": [np.arange(300), grid[:, 0], grid[:, 1]],  # strided columns
        "signed zeros": [np.tile([0.0, -0.0, 1.0, -1.0], 3),
                         np.tile([-5, 2**63 - 1, -(2**63), 0], 3)],
        "few repeats": [np.arange(40), np.arange(40.0) % 39.0],
        "empty cells": [[1.5, None, 1.5, None], [None, 0.0, -0.0, None], [0, 1, 0, 1]],
        "bits and bools": [np.array([1, 0, 1, 1]), np.array([True, False, True, False])],
    }


@pytest.mark.parametrize("case", sorted(_table_text_cases()))
def test_table_text_matches_per_cell_repr(case):
    columns = _table_text_cases()[case]
    head = [dataio.version_line("test"), ",".join(f"c{i}" for i in range(len(columns)))]
    assert dataio.table_text(head, columns) == repr_table_text(head, columns)


@pytest.mark.parametrize("row", [4095, 4096, 4097])
def test_error_near_block_boundary_names_its_line(tmp_path, row):
    path = tmp_path / "vals.csv"
    dataio.write_values(path, np.ones((4106, 1)), "pm25")
    lines = path.read_text().splitlines()
    lines[2 + row] = f"{row},0,oops"  # data row r sits on line 3 + r
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match=rf"vals.csv:{3 + row}: column pm25: 'oops' is not"):
        dataio.read_values(path, "pm25")


_PAST_BATCH = dataio._BATCH_ROWS + 904  # a data row in the reader's second batch


@pytest.mark.parametrize("text, message", [
    ("x", f"vals.csv:{3 + _PAST_BATCH}: column pm25: 'x' is not a number"),
    ("inf", f"vals.csv:{3 + _PAST_BATCH}: column pm25: inf is not finite"),
    ("", f"vals.csv:{3 + _PAST_BATCH}: blank line inside data"),
], ids=["field", "inf", "blank"])
def test_batched_reader_names_a_fault_past_the_first_batch(tmp_path, text, message):
    path = tmp_path / "vals.csv"
    dataio.write_values(path, np.ones((2 * dataio._BATCH_ROWS, 1)), "pm25")
    lines = path.read_text().splitlines()
    lines[2 + _PAST_BATCH] = f"{_PAST_BATCH},0,{text}" if text else ""
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as info:
        dataio.read_values(path, "pm25")
    assert str(info.value).endswith(message)


@pytest.mark.parametrize("rows", [dataio._BATCH_ROWS - 1, dataio._BATCH_ROWS,
                                  dataio._BATCH_ROWS + 1, _PAST_BATCH])
def test_batched_reader_takes_a_trailing_blank_line_in_any_batch(tmp_path, rows):
    """The blank line after the last row lands last in a batch, alone in a
    batch of its own, or inside the last batch."""
    path = tmp_path / "vals.csv"
    values = np.arange(rows, dtype=np.float64)[:, None]
    dataio.write_values(path, values, "pm25")
    path.write_text(path.read_text() + "\n")
    assert dataio.read_values(path, "pm25")[1].tobytes() == values.tobytes()
    path.write_text(path.read_text() + "\n")
    with pytest.raises(SchemaError, match=rf"vals.csv:{3 + rows}: blank line inside data"):
        dataio.read_values(path, "pm25")


def test_batched_reader_splits_lines_as_splitlines_does(tmp_path):
    """A chunk of text can end inside a line or between the two characters
    of a CRLF ending; the lines are those of the whole text."""
    path = tmp_path / "vals.csv"
    rows = 3 * dataio._READ_CHARS // 10
    dataio.write_values(path, np.full((rows, 1), 1.5), "pm25")
    text = path.read_text().replace("\n", "\r\n")
    path.write_bytes(text.encode("utf-8"))
    assert dataio.read_values(path, "pm25")[1].shape == (rows, 1)
    lines = text.splitlines()
    lines[2 + rows - 7] = "1.5\x0c"  # a form feed ends a line for splitlines
    path.write_bytes("\r\n".join(lines).encode("utf-8"))
    with pytest.raises(SchemaError, match=rf"vals.csv:{rows - 4}: expected 3 fields, got 1"):
        dataio.read_values(path, "pm25")


def test_decode_error_past_the_first_chunk_names_its_byte_in_the_file(tmp_path):
    path = tmp_path / "vals.csv"
    dataio.write_values(path, np.ones((dataio._READ_CHARS // 5, 1)), "pm25")
    raw = path.read_bytes()
    at = len(raw) - 3
    path.write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
    with pytest.raises(SchemaError, match=rf"vals.csv: 'utf-8' codec can't decode byte "
                                          rf"0xff in position {at}:"):
        dataio.read_values(path, "pm25")


@pytest.mark.parametrize("rows", [0, 1, dataio._BATCH_ROWS - 1, dataio._BATCH_ROWS,
                                  dataio._BATCH_ROWS + 1])
def test_batched_writer_matches_the_whole_table_text(tmp_path, rows):
    rng = np.random.default_rng(rows)
    maybe = rng.normal(size=rows)
    columns = [np.arange(rows) % 7, rng.normal(size=rows),
               [None if v < 0 else float(v) for v in maybe], (maybe > 0).astype(np.int64)]
    head = [dataio.version_line("test"), "c0,c1,c2,c3"]
    path = tmp_path / "t.csv"
    dataio._write_table(path, head, columns)
    assert path.read_bytes() == repr_table_text(head, columns).encode("utf-8")
    assert path.read_text() == dataio.table_text(head, columns)


@pytest.mark.parametrize("bad, message", [
    ({5: "5,0,x", 9: "-1,0,1.0"}, "vals.csv:8: column pm25: 'x' is not a number"),
    ({5: "-1,0,1.0", 9: "9,0,inf"}, "vals.csv:8: column time: -1 is negative"),
    ({5: "5,0", 9: "9,0,x"}, "vals.csv:8: expected 3 fields, got 2"),
    ({5: "5,0", 6: "6,0,1,1"}, "vals.csv:8: expected 3 fields, got 2"),  # field counts cancel
    ({5: "5,0,1.0", 4500: "4500,q,1.0"}, "vals.csv:4503: column node_id: 'q' is not an integer"),
    ({7: "", 4500: "4500,0,x"}, "vals.csv:10: blank line inside data"),
    ({7: ""}, "vals.csv:10: blank line inside data"),
])
def test_first_of_two_bad_rows_is_reported(tmp_path, bad, message):
    path = tmp_path / "vals.csv"
    dataio.write_values(path, np.ones((5000, 1)), "pm25")
    lines = path.read_text().splitlines()
    for row, text in bad.items():
        lines[2 + row] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as info:
        dataio.read_values(path, "pm25")
    assert str(info.value).endswith(message)


@pytest.mark.parametrize("text, message", [
    ("node_id,x_km,y_km\n0,0.0,0.0\n1,1.0,0.0\n1,2.0,0.0\n0,3.0,0.0\n",
     "t.csv:4: duplicate node_id 1"),
    ("time,node_id,pm25\n0,0,1.0\n0,1,1.0\n0,1,2.0\n0,0,2.0\n",
     "t.csv: duplicate row for time 0, node 1"),
    ("time,node_id,pm25\n0,0,1.0\n0,1,1.0\n1,1,1.0\n2,0,1.0\n",
     "t.csv: missing row for time 1, node 0"),
])
def test_first_of_several_table_faults_is_reported(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    read = dataio.read_nodes if text.startswith("node_id") else (
        lambda p: dataio.read_values(p, "pm25"))
    with pytest.raises(SchemaError) as info:
        read(path)
    assert str(info.value).endswith(message)


def test_aod_row_reports_valid_bit_before_other_columns(tmp_path):
    path = tmp_path / "aod.csv"
    path.write_text("time,node_id,aod,valid\n0,0,1.0,1\nx,0,1.0,2\n")
    with pytest.raises(SchemaError, match="aod.csv:3: column valid: 2 is not 0 or 1"):
        dataio.read_aod(path)


def test_non_utf8_file_is_schema_error(tmp_path):
    path = tmp_path / "vals.csv"
    path.write_bytes(b"time,node_id,pm25\n0,0,1.\xff\n")
    with pytest.raises(SchemaError, match="vals.csv: 'utf-8' codec"):
        dataio.read_values(path, "pm25")


def test_grid_comment_token_without_equals_is_malformed(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("# grid: nx=1 ny=1 cell_km\ncell_id,x_km,y_km\n0,0.5,0.5\n")
    with pytest.raises(SchemaError, match="grid.csv:1: malformed grid comment"):
        dataio.read_grid_nodes(path)


def test_huge_id_is_schema_error(tmp_path):
    path = tmp_path / "vals.csv"
    path.write_text(f"time,node_id,pm25\n0,{2 ** 64},1.0\n")
    with pytest.raises(SchemaError, match=f"vals.csv:2: column node_id: {2 ** 64} is too large"):
        dataio.read_values(path, "pm25")


# ---------------------------------------------------------------------------
# malformed inputs: seeded truncations and byte flips


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A simulated data directory and a matching small checkpoint."""
    root = tmp_path_factory.mktemp("tiny")
    scenario = root / "scen.yaml"
    scenario.write_text(_TINY_SCENARIO, encoding="utf-8")
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(root / "data")]) == 0
    dataio.save_checkpoint(root / "model.ckpt", _small_model(), np.zeros(5), np.ones(5),
                           {"threshold_km": 12.0})
    return root


_FUZZ_READERS = {
    "nodes.csv": dataio.read_nodes,
    "stations.csv": lambda path: dataio.read_values(path, "pm25"),
    "emissions.csv": lambda path: dataio.read_values(path, "emission"),
    "truth.csv": lambda path: dataio.read_values(path, "pm25"),
    "wind.csv": dataio.read_wind,
    "aod.csv": dataio.read_aod,
    "grid.csv": dataio.read_grid_nodes,
    "grid_inputs.csv": dataio.read_grid_inputs,
    "model.ckpt": dataio.load_checkpoint,
}


def _mutants(raw: bytes, rng, count: int):
    """Truncate at a random offset or overwrite 1-3 random bytes."""
    for _ in range(count):
        if rng.random() < 0.4:
            yield raw[:rng.integers(len(raw))]
            continue
        out = bytearray(raw)
        for i in rng.integers(len(raw), size=rng.integers(1, 4)):
            out[i] = rng.integers(256)
        yield bytes(out)


@pytest.mark.parametrize("name", sorted(_FUZZ_READERS))
def test_mutated_file_raises_only_schema_error(tiny_run, tmp_path, capsys, name):
    """A damaged file gives SchemaError and exit 2, never another exception.

    Some mutants stay well-formed (a flipped digit, a cut at a row that
    ends a whole hour); those must simply load.
    """
    source = tiny_run / name if name.endswith(".ckpt") else tiny_run / "data" / name
    data = tmp_path / "data"
    data.mkdir()
    for path in (tiny_run / "data").iterdir():
        (data / path.name).write_bytes(path.read_bytes())
    target = tmp_path / name if name.endswith(".ckpt") else data / name
    rng = np.random.default_rng(sorted(_FUZZ_READERS).index(name))
    rejected = []
    for mutant in _mutants(source.read_bytes(), rng, 40):
        target.write_bytes(mutant)
        try:
            _FUZZ_READERS[name](target)
        except SchemaError:
            rejected.append(mutant)
    assert len(rejected) >= 20
    ckpt = target if name.endswith(".ckpt") else tiny_run / "model.ckpt"
    argv = (["eval", "--pred", str(target), "--truth", str(target)] if name == "truth.csv"
            else ["train", "--data", str(data), "--out", str(tmp_path / "x.ckpt")]
            if name == "aod.csv"
            else ["infer", "--data", str(data), "--ckpt", str(ckpt), "--grid",
                  "--out", str(tmp_path / "field.csv")])
    for mutant in rejected[:3]:
        target.write_bytes(mutant)
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
