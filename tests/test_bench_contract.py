"""The benchmark's traced run patches pgkrig by name; those names must exist.

`bench/spans.py` wraps each entry of its TARGETS table in place, with no
fallback, so a renamed function or method would only surface as a crash of
`bench/run.py --trace 1`. This test loads that table read-only and checks it
against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from pgkrig.graphs import NodeSet, advection_sequence

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_trainer_binds_the_timed_proxy_loss():
    # `losses.proxy_s` times pgkrig.losses.aod_gradient_loss and every module
    # binding that very object; a trainer calling anything else would read 0 s
    import pgkrig.losses
    import pgkrig.training

    assert pgkrig.training.aod_gradient_loss is pgkrig.losses.aod_gradient_loss
    assert pgkrig.training.count_valid_edge_terms is pgkrig.losses.count_valid_edge_terms
