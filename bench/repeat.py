"""One repeat of a workload, in a fresh process.

Usage: python3 bench/repeat.py <plan.json>

The plan lists the `acqbench` command lines to run through
`acqbench.cli.main`, the result file to write and, for a traced repeat,
the trace directory. The result records when the first sweep started (the
end of set-up), when the last command returned, the exit codes, and CPU
time and peak RSS of this process and its reaped sweep workers. Times are
`time.monotonic()` readings, comparable with the parent's.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if plan["trace_dir"]:
        from tracer import Tracer

        tracer = Tracer(plan["trace_dir"])
        wrapped = tracer.install()
    from acqbench import cli

    first_sweep: list[float] = []
    sweep = cli.sweep

    def timed_sweep(*args, **kwargs):
        if not first_sweep:
            first_sweep.append(time.monotonic())
        return sweep(*args, **kwargs)

    cli.sweep = timed_sweep
    codes = [cli.main(argv) for argv in plan["commands"]]
    end = time.monotonic()

    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "codes": codes,
        "setup_end": first_sweep[0] if first_sweep else None,
        "end": end,
        "cpu_s": me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime,
        "peak_rss_mib": max(me.ru_maxrss, kids.ru_maxrss) / 1024.0,
    }
    if tracer is not None:
        tracer.dump(f"main-{tracer.pid}")
        result["wrapped"] = wrapped
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if all(c == 0 for c in codes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
