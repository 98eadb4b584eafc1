"""The benchmark's workloads stay valid under the config schema.

`bench/workloads.py` is loaded read-only (no bytecode written under
bench/), and every config a repeat would write must validate and build.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from acqbench.config import validate_config
from acqbench.strategies import build_strategy

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("workload", ["pool", "sweep"])
def test_workload_configs_validate_and_build(workloads, workload, tmp_path):
    plan = workloads.plan(workload, 0, tmp_path)
    assert plan.configs
    for cfg in plan.configs.values():
        build_strategy(validate_config(cfg)["strategy"])
