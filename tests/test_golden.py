"""Golden digests: one tiny run per strategy kind, pinned byte for byte.

Each case runs `run_experiment` on a small grid toy and hashes the run's
strategy name, its record.csv text and the indices selected in every
round. The three nested trees put the order-sensitive `disparity_min` (it
seeds on the first candidate it is given) under a structure, so they pin
the candidate order each structure hands down. Two more pins hold the
bytes of both files `write_record` writes for the series case.

A pin may change only in a change that says why in CHANGES.md.
"""

import hashlib
import json

import pytest

from acqbench.datasets import make_grid_toy, split
from acqbench.simulator import ExperimentConfig, record_csv_text, run_experiment, write_record
from acqbench.strategies import KNOWN_KINDS, build_strategy


def _leaf(kind, **params):
    spec = {"kind": kind}
    if params:
        spec["params"] = params
    return spec


def _tree(kind, *constituents, **params):
    return {**_leaf(kind, **params), "constituents": list(constituents)}


SPECS = {
    "entropy": _leaf("entropy"),
    "least_confident": _leaf("least_confident"),
    "margin": _leaf("margin"),
    "mean_std": _leaf("mean_std"),
    "bald": _leaf("bald"),
    "random": _leaf("random"),
    "k_centers": _leaf("k_centers"),
    "badge": _leaf("badge"),
    "facility_location": _leaf("facility_location"),
    "disparity_min": _leaf("disparity_min"),
    "power_bald": _leaf("power_bald", power=2),
    "series": _tree("series", _leaf("k_centers"), _leaf("bald"), kappas=[2, 1]),
    "parallel": _tree("parallel", _leaf("entropy"), _leaf("badge")),
    "parallel_ranked": _tree("parallel_ranked", _leaf("margin"), _leaf("bald")),
    "hybrid": _tree("hybrid", _leaf("entropy"), _leaf("k_centers"), budgets=[1, 3]),
    "feedback": _tree("feedback", _leaf("random"), _leaf("bald"), **{"lambda": 1.5}),
    "annealing": _tree(
        "annealing", _leaf("random"), _leaf("bald"), t_initial=1, t_exploit=1, t_explore=1, rate=1
    ),
    "random_alternate": _tree("random_alternate", _leaf("random"), _leaf("bald")),
    "series_badge_parallel": _tree(
        "series", _leaf("badge"), _tree("parallel", _leaf("random"), _leaf("disparity_min")), kappas=[3, 1]
    ),
    "series_bald_hybrid": _tree(
        "series", _leaf("bald"), _tree("hybrid", _leaf("margin"), _leaf("disparity_min"), budgets=[2, 2]),
        kappas=[3, 1],
    ),
    "series_k_centers_feedback": _tree(
        "series", _leaf("k_centers"), _tree("feedback", _leaf("disparity_min"), _leaf("bald")), kappas=[3, 1]
    ),
}

# sha256 over strategy name, record.csv and the selected indices.
PINS = {
    "annealing": "8b30721a9ba6216be294315d1fd7d6424f02ac09b5d171a51487a5b07283e71f",
    "badge": "1291bdf1281d90e2bf088331d97ae3fa839c34c490ffbae0dce29505f62b0390",
    "bald": "e18eb44d33e35d488b819b220c933a81936fe157871c389f81490fa9924240e0",
    "disparity_min": "6d9ba8adeca2ef276e468eab245902dd007bb3de3546779d8029ca888b255046",
    "entropy": "b1233736d54628cc41ef295377eb789ca30e5702a67c9597e3ad90e49efcf51f",
    "facility_location": "807a87b6a4ecaec863723359f95bad3144cff453fae60dc9e5a364b7c9b5b86d",
    "feedback": "62cace9bbed040209d91ce3cd9fdbd69fbe5c03a6de49ca53db4f06777ef1648",
    "hybrid": "cbc734db36fb7482b29d16bc0cfaed8fdec085b8c46a67b35fe8f8a1adb7dcda",
    "k_centers": "0603cbf3aab237e842ddae559a0635485071668885773dd68b446e8006d7b5bf",
    "least_confident": "cdc379815d0e8fa8ff6e5a5012fa125788caef88b1b1067d9b3d5706d8538176",
    "margin": "b2ce782832059f21c0699055438e4323efdbaa23a8fde03e828e1657def70133",
    "mean_std": "4e9d425fc0f2a7fdf646308182a98d4972555681934e6386718907f8ccafb723",
    "parallel": "9c407038f26d69228e8a753d2c899a3eb75161f83d79d4996e199b0a8f4dfbdf",
    "parallel_ranked": "11695c1525b474fda56410389739ea5b4c4d6186465a8e57cac27f00e01df99f",
    "power_bald": "6efccb72d864fc509b09aaef6ca2850384bcd3126d406e6133cc18367aafcb55",
    "random": "4ce038358c881d9ef2fe5c8fc463f2b0296f223cb568479e8dedb1ec9e290338",
    "random_alternate": "470dd6adf8056b2b1e12ebe650b399b084628b18cdb4cdb8a048212a561b648c",
    "series": "b2129e1f1d511a80c469839c1c1dd5e13f5cf4614f67d79e96b55b8d42a5342f",
    "series_badge_parallel": "232d1a455ff2de8451e1bac3673bb6b7c95eeef13adeecd365ef31b45464983a",
    "series_bald_hybrid": "c33302d24770adc5ae716aa1eba6855df996740c3693e9d7f8496f96e105c200",
    "series_k_centers_feedback": "ffdbeb4f9749fb2b41c5493ff5cd0cf258aed56e75898112f53536be59f5426b",
}


# The same digest on a pool of a few hundred points with a 64-wide hidden
# layer, so k-centers' initial distances span several row blocks,
# facility location updates its totals over several blocks of risen
# covers per step and k-means++ (badge) prunes its distance updates over
# many picks.
POOL_PINS = {
    "badge": "e6b7d2cd13e1f3769b0a88a741d73f7c919dbcd97870f684b48c86252bbcba94",
    "facility_location": "20e10cf84f7df98874cbfc0aa36f2291a42d96c178c3e18664a1cbdacd7ca30a",
    "k_centers": "4cd048e275e55f4d2d31450e679e0e5ca53f666a06d2501d78eba7f8924828aa",
    "series": "89dc457cec76a6ddcf923f80bcf428f98e7da028df49ff58152d77961d9d6b76",
}


def _record(spec: dict, large: bool = False):
    if large:
        grid, sizes = (6, 15), dict(hidden=64, initial_labeled=100, rounds=2, budget=20)
    else:
        grid, sizes = (4, 10), dict(hidden=8, initial_labeled=8, rounds=3, budget=4, pool_size=40)
    train_ds, test_ds = split(make_grid_toy(*grid, 0.12, seed=0), 0.25, seed=1)
    cfg = ExperimentConfig(
        train_ds=train_ds, test_ds=test_ds, strategy_spec=spec, seed=3,
        dropout=0.3, lr=0.1, epochs=3, minibatch=16, n_passes=3, **sizes,
    )
    return run_experiment(cfg)


def _digest(spec: dict, large: bool = False) -> str:
    record = _record(spec, large)
    h = hashlib.sha256()
    h.update(record.strategy.encode("utf-8") + b"\n")
    h.update(record_csv_text(record).encode("utf-8"))
    h.update(json.dumps([list(r.selected) for r in record.rows]).encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(SPECS))
def test_golden_digest(case, pin_note):
    assert _digest(SPECS[case]) == PINS[case], pin_note


@pytest.mark.parametrize("case", sorted(POOL_PINS))
def test_golden_digest_large_pool(case, pin_note):
    assert _digest(SPECS[case], large=True) == POOL_PINS[case], pin_note


@pytest.mark.parametrize("case", sorted(SPECS))
def test_inference_count_splits_by_purpose(case):
    for row in _record(SPECS[case]).rows:
        assert row.n_infer == row.n_infer_mc + row.n_infer_features


def test_every_kind_is_pinned():
    # a new kind lands with a pinned case rooted at it
    assert set(KNOWN_KINDS) - {spec["kind"] for spec in SPECS.values()} == set()


@pytest.mark.parametrize("case", sorted(SPECS))
def test_derived_name_passes_the_name_rule(case):
    name = build_strategy(SPECS[case]).name
    assert build_strategy({**SPECS[case], "name": name}).name == name


# sha256 of the files `write_record` writes for the series case.
ARTIFACT_PINS = {
    "record.csv": "4d21838f9090c2c9f00cef5f91167dddca03da4a0870ad34b41674df80da9ae6",
    "summary.json": "c328a3a2180335f6e280a3c070fd0f155812d263e294d5766e5657b93dece0f1",
}


@pytest.mark.parametrize("name", sorted(ARTIFACT_PINS))
def test_golden_artifact(tmp_path, name, pin_note):
    out = write_record(_record(SPECS["series"]), tmp_path)
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == ARTIFACT_PINS[name], pin_note
