"""Span tracing of acqbench from outside the package, and the per-layer
metrics computed from the spans.

`Tracer.install` wraps every public function of every `acqbench` module
(plus each strategy class's `select`) and rebinds the wrapper under every
name that points at the original: module attributes, names imported with
`from .x import y`, and function tables such as `strategies.SCORERS`. A
call through any of those names then records one span: name, layer,
start, end, parent and per-call counts.

Worker processes of `simulator.sweep` are forked from the traced process,
so they inherit the wrappers and the stack of open spans (their spans hang
under the `sweep` span). Each worker writes its spans to the trace
directory after every task; `load_spans` merges them with the main
process's spans. Timestamps are `time.perf_counter_ns`, which reads the
system-wide monotonic clock on Linux, so spans from different processes
share one time axis.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
import tracemalloc
from pathlib import Path

MODULES = (
    "cli",
    "config",
    "datasets",
    "evaluation",
    "fileio",
    "model",
    "acquisition",
    "aggregation",
    "strategies",
    "simulator",
    "rng",
)

# Called once per SGD step; its time is inside `model.train` already, and a
# span per step would dominate the trace.
SKIP = {"model.loss_and_grads"}

# Selectors whose peak allocation is taken with tracemalloc.
PEAK = {"acquisition.select_k_centers", "acquisition.select_facility_location", "acquisition.select_disparity_min"}

SCORERS = tuple(
    f"acquisition.{n}_scores" for n in ("entropy", "least_confident", "margin", "mean_std", "bald")
)
SELECTORS = (
    "select_k_centers",
    "select_facility_location",
    "select_disparity_min",
    "select_kmeanspp",
    "select_top_k",
    "gradient_embeddings",
)

# name -> (unit, better). Every traced run reports all of these.
PER_LAYER = {
    "model.train.calls": ("count", "lower"),
    "model.train.ms": ("ms", "lower"),
    "model.train.steps": ("count", "lower"),
    "model.train.us_per_step": ("us", "lower"),
    "model.mc_predict.calls": ("count", "lower"),
    "model.mc_predict.ms": ("ms", "lower"),
    "model.mc_predict.rows": ("count", "lower"),
    "model.features.calls": ("count", "lower"),
    "model.features.ms": ("ms", "lower"),
    "model.features.rows": ("count", "lower"),
    "model.accuracy.ms": ("ms", "lower"),
    "model.mean_cross_entropy.ms": ("ms", "lower"),
    **{f"acquisition.{s}.ms": ("ms", "lower") for s in SELECTORS},
    "acquisition.scorers.ms": ("ms", "lower"),
    **{f"{p}.peak_mib": ("MiB", "lower") for p in sorted(PEAK)},
    "strategies.select.ms": ("ms", "lower"),
    "strategies.select.self_ms": ("ms", "lower"),
    "strategies.n_infer_mc": ("count", "lower"),
    "strategies.n_infer_features": ("count", "lower"),
    "simulator.run_experiment.self_ms": ("ms", "lower"),
    "simulator.rounds": ("count", "higher"),
    "simulator.sweep.ms": ("ms", "lower"),
    "simulator.sweep.idle_frac": ("fraction", "lower"),
    "simulator.write_record.ms": ("ms", "lower"),
    "evaluation.compute_heatmap.ms": ("ms", "lower"),
    "evaluation.heatmap_svg_text.ms": ("ms", "lower"),
    "fileio.atomic_write_text.calls": ("count", "lower"),
    "fileio.atomic_write_text.ms": ("ms", "lower"),
    "fileio.atomic_write_text.bytes": ("count", "lower"),
    "config.validate_config.ms": ("ms", "lower"),
    "config.build_experiment.calls": ("count", "lower"),
    "config.build_experiment.ms": ("ms", "lower"),
    "datasets.ms": ("ms", "lower"),
    "rng.stream.calls": ("count", "lower"),
    "rng.stream.ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


# Counters get the call's bound arguments (defaults applied) and its result.
def _train_counts(a, result):
    return {"steps": a["cfg"].epochs * -(-len(a["X"]) // a["cfg"].minibatch)}


def _mc_counts(a, result):
    return {"rows": len(a["X"]), "passes": len(a["X"]) * a["mc"].n_passes}


def _rows(a, result):
    return {"rows": len(a["X"])}


def _bytes(a, result):
    return {"bytes": len(a["text"].encode("utf-8"))}


def _sweep_counts(a, result):
    jobs, n = a["jobs"], len(a["seeds"])
    return {"workers": 1 if jobs == 1 or n == 1 else min(jobs, n)}


def _rounds(a, result):
    return {"rounds": len(result.rows)}


COUNTERS = {
    "model.train": _train_counts,
    "model.mc_predict": _mc_counts,
    "model.features": _rows,
    "fileio.atomic_write_text": _bytes,
    "simulator.sweep": _sweep_counts,
    "simulator.run_experiment": _rounds,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.pid = os.getpid()
        self.owner = self.pid
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, int]] = []
        self.seq = 0
        self.flushes = 0
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # Keep the open-span stack (worker spans hang under `sweep`), drop
        # the copy of the parent's finished spans.
        self.pid = os.getpid()
        self.spans = []
        self.flushes = 0

    def wrap(self, fn, name: str):
        layer = name.split(".", 1)[0]
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        peak = name in PEAK
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.seq += 1
            sid = (self.pid, self.seq)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            if peak:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                counts = None
                if peak:
                    counts = {"peak_bytes": tracemalloc.get_traced_memory()[1]}
                    tracemalloc.stop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = counter(bound.arguments, result)
            self.spans.append((sid, parent, name, layer, start, end, counts))
            return result

        return traced

    def flush_after(self, fn):
        """Wrap a function that sweep workers run once per task, so that a
        worker writes its spans out before returning the task's result."""

        @functools.wraps(fn)
        def task(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                if self.pid != self.owner:
                    self.flushes += 1
                    self.dump(f"worker-{self.pid}-{self.flushes}")
                    self.spans = []

        return task

    def dump(self, tag: str) -> None:
        rows = [
            {"id": list(s[0]), "parent": list(s[1]) if s[1] else None, "name": s[2], "layer": s[3],
             "start": s[4], "end": s[5], "counts": s[6]}
            for s in self.spans
        ]
        (self.trace_dir / f"spans-{tag}.json").write_text(json.dumps(rows), encoding="utf-8")

    def install(self) -> int:
        """Wrap acqbench's public functions in place; returns how many."""
        mods = {m: importlib.import_module(f"acqbench.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if attr.startswith("_") or name in SKIP:
                    continue
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[id(fn)] = self.wrap(fn, name)
        sim = mods["simulator"]
        wrapped[id(sim._run_with_seed)] = self.flush_after(sim._run_with_seed)

        namespaces = [vars(m) for m in mods.values()] + [vars(importlib.import_module("acqbench"))]
        for ns in namespaces:
            for attr, value in list(ns.items()):
                if id(value) in wrapped:
                    ns[attr] = wrapped[id(value)]
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrapped:
                            value[k] = wrapped[id(v)]

        base = mods["strategies"].Strategy
        classes = [
            c for c in vars(mods["strategies"]).values()
            if isinstance(c, type) and issubclass(c, base) and c is not base and "select" in vars(c)
        ]
        for cls in classes:
            cls.select = self.wrap(vars(cls)["select"], "strategies.select")
        return len(wrapped) + len(classes)


def load_spans(trace_dir: Path) -> list[dict]:
    spans: list[dict] = []
    for path in sorted(Path(trace_dir).glob("spans-*.json")):
        spans.extend(json.loads(path.read_text(encoding="utf-8")))
    return spans


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced repeat (all but trace.overhead_s).

    A time sums the outermost matching spans only, so recursion (a series
    stage's `select` inside its parent's) is not counted twice.
    """
    by_id = {tuple(s["id"]): s for s in spans}
    children: dict[tuple, list[dict]] = {}
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault(tuple(s["parent"]), []).append(s)

    def dur(s) -> int:
        return s["end"] - s["start"]

    def outermost(names) -> list[dict]:
        found = []
        for n in names:
            for s in by_name.get(n, ()):
                p = s["parent"] and by_id.get(tuple(s["parent"]))
                while p and p["name"] not in names:
                    p = p["parent"] and by_id.get(tuple(p["parent"]))
                if not p:
                    found.append(s)
        return found

    def ms(*names) -> float:
        return sum(dur(s) for s in outermost(names)) / 1e6

    def covered(s, layers) -> int:
        """Time of the outermost descendants of `s` in one of `layers`."""
        return sum(dur(c) if c["layer"] in layers else covered(c, layers) for c in children.get(tuple(s["id"]), ()))

    def self_ms(name, layers) -> float:
        return sum(dur(s) - covered(s, layers) for s in outermost({name})) / 1e6

    def calls(name) -> int:
        return len(by_name.get(name, ()))

    def count(name, key) -> int:
        return sum(s["counts"][key] for s in by_name.get(name, ()))

    m: dict[str, float] = {}
    steps = count("model.train", "steps")
    m["model.train.calls"] = calls("model.train")
    m["model.train.ms"] = ms("model.train")
    m["model.train.steps"] = steps
    m["model.train.us_per_step"] = m["model.train.ms"] * 1000.0 / steps if steps else 0.0
    for f in ("mc_predict", "features"):
        m[f"model.{f}.calls"] = calls(f"model.{f}")
        m[f"model.{f}.ms"] = ms(f"model.{f}")
        m[f"model.{f}.rows"] = count(f"model.{f}", "rows")
    m["model.accuracy.ms"] = ms("model.accuracy")
    m["model.mean_cross_entropy.ms"] = ms("model.mean_cross_entropy")

    for sel in SELECTORS:
        m[f"acquisition.{sel}.ms"] = ms(f"acquisition.{sel}")
    m["acquisition.scorers.ms"] = ms(*SCORERS)
    for p in sorted(PEAK):
        m[f"{p}.peak_mib"] = max((s["counts"]["peak_bytes"] for s in by_name.get(p, ())), default=0) / 2**20

    m["strategies.select.ms"] = ms("strategies.select")
    m["strategies.select.self_ms"] = self_ms("strategies.select", {"model", "acquisition"})
    m["strategies.n_infer_mc"] = count("model.mc_predict", "passes")
    m["strategies.n_infer_features"] = m["model.features.rows"]

    m["simulator.run_experiment.self_ms"] = self_ms("simulator.run_experiment", {"model", "acquisition", "strategies"})
    m["simulator.rounds"] = count("simulator.run_experiment", "rounds")
    m["simulator.sweep.ms"] = ms("simulator.sweep")
    sweeps = by_name.get("simulator.sweep", [])
    runs = by_name.get("simulator.run_experiment", [])
    capacity = sum(dur(s) * s["counts"]["workers"] for s in sweeps)
    busy = sum(dur(r) for s in sweeps for r in runs if s["start"] <= r["start"] <= s["end"])
    m["simulator.sweep.idle_frac"] = 1.0 - busy / capacity if capacity else 0.0
    m["simulator.write_record.ms"] = ms("simulator.write_record")

    m["evaluation.compute_heatmap.ms"] = ms("evaluation.compute_heatmap")
    m["evaluation.heatmap_svg_text.ms"] = ms("evaluation.heatmap_svg_text")
    m["fileio.atomic_write_text.calls"] = calls("fileio.atomic_write_text")
    m["fileio.atomic_write_text.ms"] = ms("fileio.atomic_write_text")
    m["fileio.atomic_write_text.bytes"] = count("fileio.atomic_write_text", "bytes")
    m["config.validate_config.ms"] = ms("config.validate_config")
    m["config.build_experiment.calls"] = calls("config.build_experiment")
    m["config.build_experiment.ms"] = ms("config.build_experiment")
    m["datasets.ms"] = ms(*{s["name"] for s in spans if s["layer"] == "datasets"})
    m["rng.stream.calls"] = calls("rng.stream")
    m["rng.stream.ms"] = ms("rng.stream")
    m["cli.self_ms"] = self_ms("cli.main", {s["layer"] for s in spans} - {"cli"})
    return m


def self_time_shares(spans: list[dict]) -> dict[str, float]:
    """Each span name's share of the self time (duration minus children)
    summed over every span of every process; shows which layer dominates."""
    kids: dict[tuple, int] = {}
    for s in spans:
        if s["parent"] is not None:
            key = tuple(s["parent"])
            kids[key] = kids.get(key, 0) + (s["end"] - s["start"])
    own: dict[str, int] = {}
    for s in spans:
        t = s["end"] - s["start"] - kids.get(tuple(s["id"]), 0)
        own[s["name"]] = own.get(s["name"], 0) + max(t, 0)
    total = sum(own.values()) or 1
    return {k: v / total for k, v in sorted(own.items(), key=lambda kv: -kv[1])}
