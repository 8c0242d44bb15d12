"""The benchmark drives pgkrig by name and by command line; both must keep working.

`bench/spans.py` wraps each entry of its TARGETS table in place, with no
fallback, so a renamed function or method would only surface as a crash of
`bench/run.py --trace 1`. `bench/pipeline.py` runs fixed `pgkrig` command
lines, so a renamed flag or config key would only surface as a failed run.
These tests load both files read-only and check them against the package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from pgkrig import cli, dataio
from pgkrig.graphs import NodeSet, advection_sequence
from pgkrig.network import N_CHANNELS, KrigingModel, ModelConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_bench("spans")


def test_every_traced_target_resolves():
    spans = load_spans()
    missing = []
    for module_name, attr, _, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"TARGETS entries not found in pgkrig: {missing}"


def test_advection_step_count_is_window_length():
    spans = load_spans()
    counter = next(c for m, attr, _, c in spans.TARGETS
                   if (m, attr) == ("pgkrig.graphs", "advection_sequence"))
    nodes = NodeSet(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]))
    wind = np.random.default_rng(0).normal(0.0, 2.0, size=(7, 3, 2))
    ops = advection_sequence(nodes, wind, threshold_xi=10.0)
    assert len(ops) == 7
    assert counter(ops, (nodes, wind)) == {"graphs.advection_steps": 7}


def test_graph_and_one_block_advection_run_each_traced_builder_once():
    # `graphs.build_s` times the three builders through the bindings the
    # tracer patches; a graph built any other way would read 0 s
    import pgkrig.training

    def graph_and_advection(nodes, wind):
        return pgkrig.training.Graph.build(nodes, 10.0).advection(wind)

    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        nodes = NodeSet(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]))
        wind = np.random.default_rng(0).normal(0.0, 2.0, size=(5, 3, 2))
        tracer.run_stage("graph", graph_and_advection, nodes, wind)
    finally:
        tracer.uninstall()
    builds = {name: count for name, count in tracer.counts.items()
              if name.startswith("graphs.") and name.endswith(".calls")}
    assert builds == {"graphs.build_geo_adjacency.calls": 1,
                      "graphs.build_diffusion_operator.calls": 1,
                      "graphs.advection_sequence.calls": 1}


def test_trainer_binds_the_timed_proxy_loss():
    # `losses.proxy_s` times pgkrig.losses.aod_gradient_loss and every module
    # binding that very object; a trainer calling anything else would read 0 s
    import pgkrig.losses
    import pgkrig.training

    assert pgkrig.training.aod_gradient_loss is pgkrig.losses.aod_gradient_loss
    assert pgkrig.training.count_valid_edge_terms is pgkrig.losses.count_valid_edge_terms


def test_every_bench_command_line_parses_and_its_config_loads(tmp_path):
    pipeline = load_bench("pipeline")
    setup_dir, out = tmp_path / "setup", tmp_path / "out"
    setup_dir.mkdir()
    out.mkdir()
    # the infer stages read their targets from the set-up checkpoint's meta,
    # and `_train_inputs` reads a station data directory
    dataio.save_checkpoint(setup_dir / "model.ckpt", KrigingModel(ModelConfig()),
                           np.zeros(N_CHANNELS), np.ones(N_CHANNELS), {"heldout_ids": [1, 2]})
    rng = np.random.default_rng(0)
    dataio.write_nodes(setup_dir / "nodes.csv", rng.uniform(0.0, 20.0, size=(6, 2)))
    dataio.write_wind(setup_dir / "wind.csv", rng.normal(size=(24, 6, 2)))
    dataio.write_values(setup_dir / "emissions.csv", rng.uniform(size=(24, 6)), "emission")
    dataio.write_values(setup_dir / "stations.csv", rng.uniform(size=(24, 6)), "pm25")

    commands = set()
    for workload in pipeline.WORKLOADS.values():
        for stage in workload.setup(setup_dir, 0) + workload.timed(setup_dir, out, 0):
            args = cli.build_parser().parse_args(list(stage.argv))
            commands.add(stage.argv[0])
            if args.func is cli._cmd_simulate:
                cli._load_scenario(args.scenario)
            if args.func is cli._cmd_train:
                _, _, train_cfg, split, _, threshold = cli._train_inputs(args)
                assert train_cfg.batches_per_epoch == pipeline.BATCHES
                assert train_cfg.epochs in (pipeline.EPOCHS, pipeline.CHECKPOINT_EPOCHS)
                assert (split.holdout_fraction, threshold) == (0.3, 16.0)
    assert commands == {"simulate", "train", "infer", "eval", "render"}
