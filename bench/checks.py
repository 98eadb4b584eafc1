"""Output checks and the artifact digest of one repeat.

A run passes when its record.csv parses with `read_record_csv`, its rounds
run 1..T, `n_labeled == M + t*b`, accuracies are finite and in [0, 1], the
indices selected in summary.json are distinct, inside the training split
and disjoint from the initial labeled set, and, for leaf strategies, every
round's `n_infer` equals the closed form below. A heatmap passes when its
diagonal is 0, `m + m.T <= 1`, and its rows name the strategies that ran.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

from acqbench.rng import NS_INIT_LABELED, stream
from acqbench.simulator import read_record_csv
from acqbench.strategies import SCORERS
from workloads import Run

DIGESTED = ("record.csv", "accuracy_table.csv", "selections.csv", "heatmap.csv", "heatmap.svg")
TOL = 1e-12


def expected_n_infer(run: Run, t: int) -> int | None:
    """Acquisition forward passes of round t for a leaf strategy."""
    labeled = run.M + (t - 1) * run.b
    pool = min(run.pool_size, run.n_train - labeled)
    return {
        "random": 0,
        "k_centers": pool + labeled,
        "badge": (run.passes + 1) * pool,
        "facility_location": pool,
        "disparity_min": pool,
    }.get(run.leaf, run.passes * pool if run.leaf in (*SCORERS, "power_bald") else None)


def check_run(run_dir: Path, run: Run) -> list[str]:
    """Problems found in one (strategy, seed) run directory."""
    try:
        rows = read_record_csv(run_dir / "record.csv")
        summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
        selected = [i for r in summary["rounds"] for i in r["selected"]]
        accs = [r["test_accuracy"] for r in rows] + [summary["initial_accuracy"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"unreadable: {e}"]
    problems = []
    if [r["round"] for r in rows] != list(range(1, run.T + 1)):
        problems.append(f"rounds {[r['round'] for r in rows]} are not 1..{run.T}")
    for r in rows:
        if r["n_labeled"] != run.M + r["round"] * run.b:
            problems.append(f"round {r['round']}: n_labeled {r['n_labeled']} != M + t*b")
        want = expected_n_infer(run, r["round"])
        if want is not None and r["n_infer"] != want:
            problems.append(f"round {r['round']}: n_infer {r['n_infer']} != {want}")
    if not all(isinstance(a, float) and math.isfinite(a) and 0.0 <= a <= 1.0 for a in accs):
        problems.append("accuracy not finite or outside [0, 1]")
    initial = stream(run.seed, NS_INIT_LABELED).choice(run.n_train, size=run.M, replace=False)
    if len(selected) != run.T * run.b or len(set(selected)) != len(selected):
        problems.append("selected indices are not T*b distinct indices")
    if any(not 0 <= i < run.n_train for i in selected) or set(selected) & set(initial.tolist()):
        problems.append("selected indices outside the split or overlapping the initial labeled set")
    return problems


def check_heatmap(path: Path, names: set[str]) -> list[str]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        m = np.array([[float(v) for v in row[1:-1]] for row in body])
    except (OSError, ValueError, IndexError) as e:
        return [f"{path.name} unreadable: {e}"]
    problems = []
    if set(header[1:-1]) != names or [row[0] for row in body] != header[1:-1]:
        problems.append(f"{path.name} names {header[1:-1]} != strategies run {sorted(names)}")
    elif m.shape != (len(names), len(names)) or not np.all(np.isfinite(m)):
        problems.append(f"{path.name} matrix shape {m.shape} or values invalid")
    elif np.any(np.diag(m) != 0.0) or np.any(m + m.T > 1.0 + TOL) or np.any((m < 0.0) | (m > 1.0)):
        problems.append(f"{path.name} breaks diag == 0, m + m.T <= 1 or [0, 1]")
    return problems


def check_repeat(out: Path, runs: list[Run]) -> tuple[int, list[str]]:
    """(failed runs, problems) for one repeat's output tree. A broken
    heatmap or a stray run directory fails every run of the repeat."""
    problems: list[str] = []
    failed = 0
    for run in runs:
        found = check_run(out / run.strategy / str(run.seed), run)
        if found:
            failed += 1
            problems += [f"{run.strategy}/{run.seed}: {p}" for p in found]
    expected = {(r.strategy, str(r.seed)) for r in runs}
    present = {(p.parent.parent.name, p.parent.name) for p in out.glob("*/*/record.csv")}
    extra = present - expected
    heatmap = check_heatmap(out / "heatmap.csv", {r.strategy for r in runs})
    if extra or heatmap:
        problems += [f"unexpected run {s}/{d}" for s, d in sorted(extra)] + heatmap
        failed = len(runs)
    return failed, problems


def digest(out: Path) -> str:
    """sha256 over the deterministic artifacts (path and bytes), sorted."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.name in DIGESTED):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _corruptions(record: str, summary: dict):
    """Hand-corrupted copies of one good run, each of which must fail."""
    header, first, *rest = record.splitlines(keepends=True)
    rnd, n_labeled, acc, *tail = first.split(",")

    def with_first(*cells):
        return "".join([header, ",".join(cells), *rest])

    yield "n_labeled off by one", with_first(rnd, str(int(n_labeled) + 1), acc, *tail), summary
    yield "round missing", "".join([header, first, *rest][:-1]), summary
    yield "accuracy above 1", with_first(rnd, n_labeled, "1.5", *tail), summary
    dup = json.loads(json.dumps(summary))
    dup["rounds"][-1]["selected"][-1] = dup["rounds"][0]["selected"][0]
    yield "duplicate selection", record, dup


def check_the_checker(run_dir: Path, run: Run, scratch: Path) -> list[str]:
    """Corrupt a copy of a run that passed; return the corruptions that
    the checker failed to catch."""
    record = (run_dir / "record.csv").read_text(encoding="utf-8")
    summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
    missed = []
    for label, bad_record, bad_summary in _corruptions(record, summary):
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        (scratch / "record.csv").write_text(bad_record, encoding="utf-8")
        (scratch / "summary.json").write_text(json.dumps(bad_summary), encoding="utf-8")
        if not check_run(scratch, run):
            missed.append(label)
    shutil.rmtree(scratch, ignore_errors=True)
    return missed
