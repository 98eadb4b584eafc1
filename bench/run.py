"""acqbench benchmark: time one workload end to end, or trace it per layer.

Usage (from the repository root):

    python3 bench/run.py --workload {pool,sweep} --seed N --seconds S --trace {0,1}

Each repeat runs the workload's `acqbench` commands through
`acqbench.cli.main` in a fresh process (bench/repeat.py) with a fresh
output directory, with OpenBLAS/OpenMP/MKL pinned to one thread. A first
warm-up repeat is checked but not timed; then repeats run back to back
until the next one would end after `--seconds`, and every metric is the
mean over the timed repeats (rounds_per_s: all rounds over all measured
time). On a shared host, CPU speed can switch between a fast and a ~30%
slower regime for seconds at a time; a median over one run jumps with
whichever regime held most of it, while the mean moves in proportion to
the time spent in each. After each repeat its outputs are
checked (bench/checks.py) and its deterministic artifacts digested; the
digest must be the same for every repeat of one invocation.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced repeats (bench/tracer.py) and reports the per-layer metrics from the
traced ones, plus the tracing overhead: traced minus untraced wall_s.

The last line of stdout is one JSON object: correct, attempted (runs),
failed (runs) and metrics. The benchmark exits 2 without a result when the
acqbench sources are not under src/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A whole invocation must end within 180 s; a repeat still running this
# long after the invocation started is killed and counted as failed.
KILL_AFTER_S = 170.0

# name -> (unit, better). Runs failed is the result's `failed` count.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "rounds_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "forward_passes": ("count", "lower"),
    "final_acc_mean": ("fraction", "higher"),
}


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg": os.getloadavg(),
    }


def run_repeat(commands: list[list[str]], rep_dir: Path, trace: bool, timeout: float) -> dict:
    """Run one repeat in a fresh process; returns its timings or an error."""
    trace_dir = rep_dir / "trace"
    if trace:
        trace_dir.mkdir()
    spec = {
        "commands": commands,
        "result": str(rep_dir / "result.json"),
        "trace_dir": str(trace_dir) if trace else None,
    }
    (rep_dir / "plan.json").write_text(json.dumps(spec), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "ACQBENCH_JOBS"}
    env.update({v: "1" for v in THREAD_VARS}, PYTHONPATH=str(SRC))
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "repeat.py"), str(rep_dir / "plan.json")],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray sweep workers, if any
        except ProcessLookupError:
            pass
        return {"error": f"exit {proc.returncode}: {err.strip()[-2000:]}"}
    res = json.loads((rep_dir / "result.json").read_text(encoding="utf-8"))
    return {
        "setup_s": res["setup_end"] - start,
        "wall_s": res["end"] - start,
        "cpu_s": res["cpu_s"],
        "peak_rss_mib": res["peak_rss_mib"],
    }


def _score(rep: dict, plan, out: Path) -> tuple[int, list[str]]:
    """Check one finished repeat's outputs and add its record-derived
    metrics and digest to `rep`; returns (failed runs, problems)."""
    import checks
    from acqbench.simulator import read_record_csv

    n_failed, problems = checks.check_repeat(out, plan.runs)
    records = [] if n_failed else [read_record_csv(out / r.strategy / str(r.seed) / "record.csv") for r in plan.runs]
    rep["rounds"] = sum(len(rows) for rows in records)
    rep["forward_passes"] = sum(row["n_infer"] for rows in records for row in rows)
    rep["final_acc_mean"] = statistics.fmean(rows[-1]["test_accuracy"] for rows in records) if records else 0.0
    rep["digest"] = checks.digest(out)
    return n_failed, problems


def measure(workload: str, seed: int, seconds: float, trace_mode: bool, work: Path, started: float) -> dict:
    import checks
    import tracer
    import workloads

    deadline = time.monotonic() + seconds
    step = 2 if trace_mode else 1
    untraced: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    attempted = failed = 0
    first_digest = None
    checker_missed: list[str] | None = None
    k = 0
    while True:
        t_rep = time.monotonic()
        warm_up = k == 0
        trace = trace_mode and k % 2 == 0 and not warm_up
        rep_dir = work / f"rep{k}"
        plan = workloads.plan(workload, seed, rep_dir)
        workloads.write_configs(plan, rep_dir)
        rep = run_repeat(plan.commands, rep_dir, trace, timeout=max(1.0, started + KILL_AFTER_S - time.monotonic()))
        out = rep_dir / "out"
        n_failed, problems = (len(plan.runs), [rep["error"]]) if "error" in rep else _score(rep, plan, out)
        if "digest" in rep:
            first_digest = first_digest or rep["digest"]
            if rep["digest"] != first_digest:
                n_failed, problems = len(plan.runs), problems + [f"digest {rep['digest']} != {first_digest}"]
        if n_failed == 0 and checker_missed is None:
            r0 = plan.runs[0]
            checker_missed = checks.check_the_checker(out / r0.strategy / str(r0.seed), r0, work / "corrupt")
        if trace and n_failed == 0:
            spans = tracer.load_spans(rep_dir / "trace")
            rep["layers"] = tracer.layer_metrics(spans)
            rep["shares"] = tracer.self_time_shares(spans)
            lost = _lost_spans(rep, len(plan.runs), spans)
            if lost:
                n_failed, problems = len(plan.runs), [lost]
        attempted += len(plan.runs)
        failed += n_failed
        rep["ok"] = n_failed == 0
        if not warm_up:
            (traced if trace else untraced).append(rep)
        print(
            f"repeat {k} {'warm-up' if warm_up else 'traced' if trace else 'untraced'}: "
            f"wall_s {rep.get('wall_s', float('nan')):.3f} "
            f"runs_failed {n_failed}/{len(plan.runs)}" + "".join(f"\n  {p}" for p in problems[:20]),
            flush=True,
        )
        shutil.rmtree(rep_dir, ignore_errors=True)
        durations.append(time.monotonic() - t_rep)
        k += 1
        # k - 1 timed repeats so far; with tracing, stop only after whole
        # (untraced, traced) pairs.
        if k > step and (k - 1) % step == 0 and time.monotonic() + step * statistics.median(durations) > deadline:
            break

    good = [r for r in untraced if r["ok"]]
    good_traced = [r for r in traced if r["ok"]]
    if trace_mode:
        units = {n: u for n, (u, _) in tracer.PER_LAYER.items()}
        metrics = {n: _mean(r["layers"][n] for r in good_traced) for n in units if n != "trace.overhead_s"}
        metrics["trace.overhead_s"] = _mean(r["wall_s"] for r in good_traced) - _mean(r["wall_s"] for r in good)
        shares = list(good_traced[0]["shares"].items())[:8] if good_traced else []
        print("self-time shares (first traced repeat): " + ", ".join(f"{n} {v:.1%}" for n, v in shares))
    else:
        units = {n: u for n, (u, _) in END_TO_END.items()}
        busy = sum(r["wall_s"] - r["setup_s"] for r in good)
        rounds_per_s = sum(r["rounds"] for r in good) / busy if busy else 0.0
        metrics = {n: rounds_per_s if n == "rounds_per_s" else _mean(r[n] for r in good) for n in units}
    print(f"digest {workload} seed {seed}: {first_digest}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:16.6f} {units[name]}")
    print(f"{'runs_failed':40s} {failed:9d} of {attempted} runs")
    if checker_missed:
        print(f"checker missed corruptions: {checker_missed}")
    return {
        "correct": failed == 0 and checker_missed == [] and bool(good) and (bool(good_traced) or not trace_mode),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def _mean(values) -> float:
    """Mean, or 0.0 when every repeat failed (the result is then incorrect)."""
    vals = list(values)
    return statistics.fmean(vals) if vals else 0.0


def _lost_spans(rep: dict, n_runs: int, spans: list[dict]) -> str:
    """Cross-check the trace against the records: a span lost in a worker
    shows up as missing rounds or forward passes."""
    layers = rep["layers"]
    n_exp = sum(1 for s in spans if s["name"] == "simulator.run_experiment")
    passes = layers["strategies.n_infer_mc"] + layers["strategies.n_infer_features"]
    if n_exp != n_runs or layers["simulator.rounds"] != rep["rounds"] or passes != rep["forward_passes"]:
        return (
            f"trace incomplete: {n_exp}/{n_runs} run_experiment spans, {layers['simulator.rounds']}/{rep['rounds']} "
            f"rounds, {passes}/{rep['forward_passes']} forward passes"
        )
    return ""


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("pool", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "acqbench" / "cli.py").is_file():
        print(f"error: acqbench sources not found under {SRC}", file=sys.stderr)
        return 2

    for v in THREAD_VARS:
        os.environ[v] = "1"
    sys.path.insert(0, str(SRC))
    print("env " + json.dumps(environment()), flush=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH)], check=True, stdout=subprocess.DEVNULL)

    outputs = ROOT / ".bench_out"
    work = outputs / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            outputs.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
