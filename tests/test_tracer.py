"""The benchmark's tracer still binds to the names it reads in acqbench.

`bench/tracer.py` wraps acqbench's public functions from outside. Its
counters read call arguments by name (`train`'s `cfg` and `X`,
`mc_predict`'s `X` and `mc`, `features`' `X`, `sweep`'s `seeds` and
`jobs`), and it wraps `simulator._run_with_seed` so that sweep workers
write out their spans. This test installs the tracer in a fresh process,
runs a tiny sweep, and checks that every per-layer metric computes and
accounts for every run, round and forward pass. The sweep runs once in
process (`--jobs 1`, the path the `pool` workload takes) and once over two
workers. Renaming one of those names under `src/` fails here, not first in
the benchmark.

The tracer is loaded from its file with bytecode writing off, as
`test_workloads.py` loads `workloads.py`, so nothing under bench/ changes.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

SCRIPT = """
import collections, importlib.util, json, sys
tracer_path, trace_dir, config, jobs = sys.argv[1:]
spec = importlib.util.spec_from_file_location("bench_tracer", tracer_path)
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
recorder = tracer.Tracer(trace_dir)
recorder.install()
from acqbench.cli import main
code = main(["sweep", "--config", config, "--jobs", jobs])
recorder.dump("main")
spans = tracer.load_spans(trace_dir)
metrics = tracer.layer_metrics(spans)
calls = collections.Counter(span["name"] for span in spans)
print(json.dumps({"code": code, "metrics": metrics, "per_layer": sorted(tracer.PER_LAYER), "calls": calls}))
"""


def _bench_files():
    return {p: p.stat().st_mtime_ns for p in BENCH.rglob("*")}


def _traced_sweep(tmp_path, config, jobs):
    """Run `acqbench sweep` on `config` under the tracer in a fresh process;
    returns the script's result. Checks that nothing under bench/ changed."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1"}
    before = _bench_files()
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(BENCH / "tracer.py"), str(trace_dir), str(config_path), str(jobs)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert _bench_files() == before
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("jobs", [1, 2])
def test_tracer_computes_every_per_layer_metric(tmp_path, jobs):
    config = {
        "dataset": {"kind": "grid", "params": {"cells_per_side": 3, "n_per_cell": 12, "seed": 1}},
        "model": {"hidden": 8, "dropout": 0.2},
        "train": {"lr": 0.1, "epochs": 3, "minibatch": 8},
        "mc": {"n_passes": 3},
        "al": {"M": 4, "T": 2, "b": 3},
        "strategy": {"kind": "series", "params": {"kappas": [2, 1]},
                     "constituents": [{"kind": "k_centers"}, {"kind": "bald"}]},
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "out"),
    }
    result = _traced_sweep(tmp_path, config, jobs)

    assert result["code"] == 0
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(set(result["per_layer"]) - {"trace.overhead_s"})
    assert all(math.isfinite(v) for v in metrics.values())

    from acqbench.simulator import read_record_csv

    rows = [row for seed in (0, 1)
            for row in read_record_csv(tmp_path / "out" / "series_k_centers_bald_k2x1" / str(seed) / "record.csv")]
    assert metrics["simulator.rounds"] == len(rows) == 4
    assert metrics["model.train.calls"] == 2 * (1 + 2)
    # round 0 fits each seed's M = 4 initial labels, round t its n_labeled;
    # each fit takes epochs * ceil(n / minibatch) steps
    fitted = [4, 4] + [row["n_labeled"] for row in rows]
    assert metrics["model.train.steps"] == sum(3 * math.ceil(n / 8) for n in fitted) == 24
    assert metrics["model.train.ms"] > 0
    assert metrics["strategies.n_infer_mc"] > 0 and metrics["strategies.n_infer_features"] > 0
    assert metrics["strategies.n_infer_mc"] + metrics["strategies.n_infer_features"] == sum(
        row["n_infer"] for row in rows
    )
    assert metrics["simulator.sweep.ms"] > 0
    # the bench's own cross-check: one run_experiment span per seed run
    assert result["calls"]["simulator.run_experiment"] == 2

    # Spans per name. A strategy that captured a scorer or selector at import
    # would bypass the tracer's rebinding, and its time would vanish from the
    # per-layer metrics without any error. Each of 2 seeds x 2 rounds runs the
    # series node and its two stages (k_centers extracts features for the pool
    # and the labeled set), then one BALD scoring pass and one top-k.
    expected = {
        "acquisition.bald_scores": 4, "acquisition.select_top_k": 4, "acquisition.select_k_centers": 4,
        "model.mc_predict": 4, "model.features": 8, "strategies.select": 12,
    }
    assert {name: result["calls"].get(name, 0) for name in expected} == expected


def test_tracer_counts_computed_passes_of_overlapping_arms(tmp_path):
    # hybrid[bald, badge]: badge's MC rows were computed by bald in the same
    # round, so they are neither traced nor in the records. `_lost_spans` in
    # bench/run.py applies this rule to the pool workload.
    config = {
        "dataset": {"kind": "grid", "params": {"cells_per_side": 3, "n_per_cell": 12, "seed": 1}},
        "model": {"hidden": 8, "dropout": 0.2},
        "train": {"lr": 0.1, "epochs": 3, "minibatch": 8},
        "mc": {"n_passes": 3},
        "al": {"M": 4, "T": 2, "b": 4},
        "strategy": {"kind": "hybrid", "params": {"budgets": [2, 2]},
                     "constituents": [{"kind": "bald"}, {"kind": "badge"}]},
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "out"),
    }
    result = _traced_sweep(tmp_path, config, 1)
    assert result["code"] == 0
    metrics = result["metrics"]

    from acqbench.simulator import read_record_csv

    rows = [row for seed in (0, 1)
            for row in read_record_csv(tmp_path / "out" / "hybrid_bald2_badge2" / str(seed) / "record.csv")]
    assert metrics["strategies.n_infer_mc"] + metrics["strategies.n_infer_features"] == sum(
        row["n_infer"] for row in rows
    )
    # round t's pool is every unlabeled training row: 81 - 4 - 4 (t - 1)
    assert [row["n_infer"] for row in rows] == [3 * n + (n - 2) for n in (77, 73)] * 2
    assert result["calls"]["model.mc_predict"] == result["calls"]["model.features"] == 4
