"""Golden digests: one tiny run per strategy kind, pinned byte for byte.

Each case runs `run_experiment` on a small grid toy and hashes the run's
strategy name, its record.csv text (timing cells empty) and the indices
selected in every round. The three nested trees put the order-sensitive
`disparity_min` (it seeds on the first candidate it is given) under a
structure, so they pin the candidate order each structure hands down.

A pin may change only in a change that says why in CHANGES.md.
"""

import hashlib
import json

import pytest

from acqbench.datasets import make_grid_toy, split
from acqbench.simulator import ExperimentConfig, record_csv_text, run_experiment


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
    "annealing": "99d89c688320637ec34130ee59932a8fa89573c9be0ebd7db1f1c855be322215",
    "badge": "ab3f1a29c2abc978080f15b73f96cff9b59086608ee2a3610f520a18e0f14da5",
    "bald": "c61cf058179bffef0d2f05d3e461dbce0c620c279b0c6a044d5514346135841b",
    "disparity_min": "eee60765731c9953afc8656d7181e8f429ba31b90a18662f7e2ffbb074e88664",
    "entropy": "44492f2e8ae8549147acc50326685d5b80a9165c638ea3824ec5a45f8900fa68",
    "facility_location": "5bcaf8bcd0a8477fe4389d9b86cc18f6d236a3d8be614227eb2680a69e32613d",
    "feedback": "9b0e2849b9a7d5711d1ea646f5141c04ee287c5494cbfa3b61fd9a1de43d5d02",
    "hybrid": "323f245a7fbfdeba530179b0432761d7707302565722dde91ff6896f8d6250c6",
    "k_centers": "f1d67b2053566407b13ee98165f64b543bef36228fc8d40bbe0403348b4287ad",
    "least_confident": "81cddedcc8f8072fc83622d01319c113fbfa3fc9a8b660d5b34f97a4148ed7ae",
    "margin": "178f22368a722bbbba01f1f1e5d08acc1abf74db787ebaf8012f28af8d573501",
    "mean_std": "c2ca2a206a27b358bd39141468a68900ae6322b59972dec86fb3cb0383e3a59c",
    "parallel": "4fe403e6677e1b9e4268251b6bf92a2c26f0b47b435c056bec2eadc6afbb1b0f",
    "parallel_ranked": "4261bfb4e28012b1712d5663f9feaf2297140c0b3bcfab28c16636bf20ec322e",
    "power_bald": "389f1ea580f93ce3d14d8e5f8af944031d8ab9d8d79e7bad907b30389859c13a",
    "random": "1b0fa79c7cedea53c5d09733ba06cda14980b674f892d44240691d04ae37fbb6",
    "random_alternate": "46e828cd8a4b3d8695f6d0ba8876827f76c3a8c13f249b5900f1718771bc3304",
    "series": "3f5747052fcb29b6b77184a7cd72c878e55acdf9832be6eb78135f50e138bc40",
    "series_badge_parallel": "4f594ceab65d644c0b66fa4c7470f4d108281649399175c4cefdf5c0060da593",
    "series_bald_hybrid": "9c73588c0b1e6b0747433ecc70c8400c181b0e25215e4a882b83e2e550bf2944",
    "series_k_centers_feedback": "c286090ba11a4f70437ac61ada02825034e0c38e4e006ce2f65732dc8daad156",
}


def _digest(spec: dict) -> str:
    train_ds, test_ds = split(make_grid_toy(4, 10, 0.12, seed=0), 0.25, seed=1)
    cfg = ExperimentConfig(
        train_ds=train_ds, test_ds=test_ds, strategy_spec=spec, seed=3,
        hidden=8, dropout=0.3, lr=0.1, epochs=3, minibatch=16, n_passes=3,
        initial_labeled=8, rounds=3, budget=4, pool_size=40,
    )
    record = run_experiment(cfg)
    h = hashlib.sha256()
    h.update(record.strategy.encode("utf-8") + b"\n")
    h.update(record_csv_text(record).encode("utf-8"))
    h.update(json.dumps([list(r.selected) for r in record.rows]).encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(SPECS))
def test_golden_digest(case):
    assert _digest(SPECS[case]) == PINS[case]
