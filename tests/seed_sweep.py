"""Acceptance criteria 5, 6 and 7 across training seeds.

    PYTHONPATH=src python tests/seed_sweep.py

Runs the trainings of tests/test_acceptance.py with the training seed
(`TrainConfig.seed`) varied and everything else as the gate has it:
criterion 5 at seeds 0-7, criterion 6's 50% hold-out run at seeds 0-3,
each against criterion 5's 30% run of the same seed, and criterion 7's four
proxy presets at seeds 0-3. The configs are copies of the gate's, so the
seed-0 lines carry the numbers of the gate's detail lines.

Each run prints every ratio that a clause tests, the held-out mean signed
error (over the grid for criterion 7), the best epoch and the epochs run;
a summary follows. The printout holds no timings, so two trees that train
the same floats print the same bytes. The runs are spread over 2 worker
processes. Exits 1 if any clause fails at any seed, else 0.

pytest does not collect this file: its name does not match test_*.py.
"""

from __future__ import annotations

import os

# pinned before numpy loads: two workers on two cores, one BLAS thread each
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

from pgkrig.baselines import idw  # noqa: E402
from pgkrig.metrics import mae  # noqa: E402
from pgkrig.network import ModelConfig  # noqa: E402
from pgkrig.testbed import run_scenario, scenario_preset  # noqa: E402
from pgkrig.training import (TrainConfig, dataset_from_scenario, infer_grid,  # noqa: E402
                             infer_stations, split_from_fractions, train)

C5_SEEDS = range(8)
C6_SEEDS = range(4)
C7_SEEDS = range(4)
C7_PRESETS = ("aod-ideal", "aod-missing", "aod-conflict", "aod-biased")
WORKERS = 2

# copied from tests/test_acceptance.py: _s1_state (criteria 5 and 6) and
# test_criterion_7_grid_inference_finite_and_proxy_robust
S1_CONFIG = TrainConfig(mask_ratio=0.5, epochs=150, window=24,
                        learning_rate=1e-3, seed=0, batches_per_epoch=12,
                        patience=30, val_partitions=6, station_dropout=0.3)
C7_CONFIG = TrainConfig(mask_ratio=0.5, epochs=60, window=24,
                        learning_rate=1e-3, seed=0, batches_per_epoch=8,
                        patience=15, val_partitions=3, station_dropout=0.3,
                        mask_jitter=0.3)
THRESHOLD_KM = 16.0


def _epochs(result) -> str:
    return f"best epoch {result.best_epoch} of {len(result.log)}"


def _s1_run(holdout: float, seed: int) -> dict:
    """Criterion 5's training (holdout 0.3) or criterion 6's (0.5) at one
    training seed, scored as the gate scores it."""
    spec = scenario_preset("s1-advection")
    run = run_scenario(spec)
    ds = dataset_from_scenario(run, with_aod=True)
    split = split_from_fractions(spec.t_hours, holdout_fraction=holdout, seed=0)
    config = replace(S1_CONFIG, seed=seed)
    result = train(ds, ModelConfig(), config, split, threshold_km=THRESHOLD_KM)
    preds = infer_stations(result.model, result.normalization, ds,
                           result.heldout_ids, threshold_km=THRESHOLD_KM)
    held, train_ids = result.heldout_ids, result.train_ids
    lo, hi = split.test_range
    truth = run.truth.concentrations[:, run.stations.cell_indices][lo:hi][:, held]
    pred = preds[lo:hi]
    out = {"test_range": split.test_range, "mae": mae(pred, truth),
           "signed": float(np.mean(pred - truth)), "epochs": _epochs(result)}
    if holdout == 0.3:
        est = idw(ds.pm25[lo:hi][:, train_ids], ds.nodes.positions[train_ids],
                  ds.nodes.positions[held], power=2)
        theta = np.deg2rad(spec.wind_direction_deg)
        along_wind = ds.nodes.positions[held] @ np.array([np.cos(theta), np.sin(theta)])
        downwind = np.zeros(held.size, dtype=bool)
        downwind[np.argsort(along_wind)[held.size // 2:]] = True
        out.update(idw=mae(est, truth), dw=mae(pred[:, downwind], truth[:, downwind]),
                   dw_idw=mae(est[:, downwind], truth[:, downwind]))
    else:
        positions = ds.nodes.positions
        nearest = np.array([np.linalg.norm(positions[train_ids] - positions[h], axis=1).min()
                            for h in held])
        iso = int(np.argmax(nearest))
        out.update(iso_node=int(held[iso]), iso_km=float(nearest[iso]),
                   iso_ratio=float(pred[:, iso].mean()) / float(truth[:, iso].mean()))
    return out


def _c7_run(preset: str, seed: int) -> dict:
    """One of criterion 7's grid trainings at one training seed."""
    run = run_scenario(scenario_preset(preset))
    ds = dataset_from_scenario(run, with_aod=True)
    split = split_from_fractions(run.spec.t_hours, holdout_fraction=0.3, seed=0)
    config = replace(C7_CONFIG, seed=seed)
    result = train(ds, ModelConfig(), config, split, threshold_km=THRESHOLD_KM)
    field = infer_grid(result.model, result.normalization, ds, run.truth.cell_positions(),
                       run.truth.wind, run.truth.emissions, threshold_km=THRESHOLD_KM)
    truth = run.truth.concentrations
    return {"finite": bool(np.all(np.isfinite(field))), "mae": mae(field, truth),
            "signed": float(np.mean(field - truth)), "epochs": _epochs(result)}


def _task(job: tuple) -> dict:
    kind, arg, seed = job
    return _c7_run(arg, seed) if kind == "c7" else _s1_run(arg, seed)


def _verdict(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def report(results: dict) -> tuple[list[str], bool]:
    """The printed lines, and whether every clause held at every seed."""
    lines, failing = [], {"c5": [], "c6": [], "c7": []}
    c5_overall, c5_downwind = [], []
    for seed in C5_SEEDS:
        r = results["c5", 0.3, seed]
        overall, downwind = r["mae"] / r["idw"], r["dw"] / r["dw_idw"]
        ok = overall <= 0.85 and downwind <= 0.75
        c5_overall.append(overall)
        c5_downwind.append(downwind)
        if not ok:
            failing["c5"].append(seed)
        gain = 100.0 * (r["idw"] - r["mae"]) / r["idw"]
        dw_gain = 100.0 * (r["dw_idw"] - r["dw"]) / r["dw_idw"]
        lines.append(
            f"c5 seed {seed}: {_verdict(ok)} MAE {r['mae']:.3f} vs IDW {r['idw']:.3f} "
            f"({gain:+.1f}%), downwind {r['dw']:.3f} vs {r['dw_idw']:.3f} ({dw_gain:+.1f}%); "
            f"overall ratio {overall:.3f} (<= 0.85), downwind ratio {downwind:.3f} (<= 0.75); "
            f"signed error {r['signed']:+.3f}; {r['epochs']}")
    c6_ratios = []
    for seed in C6_SEEDS:
        r30, r50 = results["c5", 0.3, seed], results["c6", 0.5, seed]
        if r30["test_range"] != r50["test_range"]:
            raise RuntimeError(f"test ranges differ: {r30['test_range']} {r50['test_range']}")
        growth = r50["mae"] / r30["mae"]
        ok = growth < 2.0 and 0.5 <= r50["iso_ratio"] <= 2.0
        c6_ratios.append(growth)
        if not ok:
            failing["c6"].append(seed)
        lines.append(
            f"c6 seed {seed}: {_verdict(ok)} MAE {r30['mae']:.3f} -> {r50['mae']:.3f} "
            f"(x{growth:.2f}, < 2); most isolated node {r50['iso_node']} "
            f"({r50['iso_km']:.1f} km out) mean ratio {r50['iso_ratio']:.2f} (in [0.5, 2]); "
            f"signed error {r50['signed']:+.3f}; {r50['epochs']}")
    ideal_maes = []
    for seed in C7_SEEDS:
        runs = {name: results["c7", name, seed] for name in C7_PRESETS}
        for name, r in runs.items():
            lines.append(f"c7 seed {seed} {name}: grid MAE {r['mae']:.3f}, finite "
                         f"{r['finite']}; signed error {r['signed']:+.3f}; {r['epochs']}")
        ideal, missing = runs["aod-ideal"]["mae"], runs["aod-missing"]["mae"]
        moved = abs(missing - ideal) / ideal
        ok = moved <= 0.2 and all(r["finite"] for r in runs.values())
        ideal_maes.append(ideal)
        if not ok:
            failing["c7"].append(seed)
        lines.append(
            f"c7 seed {seed}: {_verdict(ok)} grid MAE ideal {ideal:.2f}, missing {missing:.2f}, "
            f"conflict {runs['aod-conflict']['mae']:.2f}, biased {runs['aod-biased']['mae']:.2f}; "
            f"|missing - ideal| / ideal {moved:.3f} (<= 0.2)")
    lines += [
        f"summary c5: failing seeds {failing['c5'] or 'none'}; overall ratio "
        f"{min(c5_overall):.2f}-{max(c5_overall):.2f}, median "
        f"{statistics.median(c5_overall):.2f}; worst downwind ratio {max(c5_downwind):.3f}",
        f"summary c6: failing seeds {failing['c6'] or 'none'}; "
        + ", ".join(f"x{g:.2f}" for g in c6_ratios),
        f"summary c7: failing seeds {failing['c7'] or 'none'}; grid MAE (ideal) "
        f"{min(ideal_maes):.2f}-{max(ideal_maes):.2f}",
    ]
    return lines, not any(failing.values())


def main() -> int:
    started = time.monotonic()
    # longest trainings first, so the two workers finish together
    jobs = ([("c5", 0.3, s) for s in C5_SEEDS] + [("c6", 0.5, s) for s in C6_SEEDS]
            + [("c7", name, s) for s in C7_SEEDS for name in C7_PRESETS])
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        results = dict(zip(jobs, pool.map(_task, jobs)))
    lines, ok = report(results)
    print("\n".join(lines))
    print(f"{len(jobs)} trainings in {time.monotonic() - started:.0f} s", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
