"""In-process side of the benchmark: the only bench code that imports `ultratree`.

    python3 bench/worker.py lib    WORKLOAD SEED SECONDS WORKDIR TINY
    python3 bench/worker.py replay WORKLOAD SEED SECONDS WORKDIR TINY

`lib` builds and prepares the inputs, makes one warm-up call, prints a
ready line, then waits for "go" (run the closed loop) or "stop" on
stdin.  `replay` replays whole rounds of a workload in process, first
with no wrappers and then traced, and prints per-layer metrics.  Both
print one JSON line as their last line.  Run by `bench/run.py`, which
sets PYTHONPATH to the checkout's `src`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import spans
import speed
import workloads


def _execute(u, req) -> tuple[float, str | None]:
    """Run one request in process; returns (milliseconds, failure reason or None)."""
    if req.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = u.cli.run(req.argv)
        except Exception as exc:
            return (time.perf_counter_ns() - t0) / 1e6, f"traceback: {exc!r}"
        ms = (time.perf_counter_ns() - t0) / 1e6
        return ms, req.verify(rc, out.getvalue())
    t0 = time.perf_counter_ns()
    try:
        result = req.call(u)
    except Exception as exc:
        return (time.perf_counter_ns() - t0) / 1e6, f"traceback: {exc!r}"
    ms = (time.perf_counter_ns() - t0) / 1e6
    return ms, req.verify(result)


def _setup(workload, seed, workdir, tiny):
    import ultratree as u
    import ultratree.cli  # noqa: F401  (binds u.cli)
    rounds, inputs = workloads.build(workload, seed, workdir, tiny)
    workloads.prepare_inputs(u, inputs)
    warm = rounds[0][0]
    _, reason = _execute(u, warm)
    return u, rounds, {"warmup": warm.rid, "warmup_reason": reason}


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def lib_mode(workload, seed, seconds, workdir, tiny) -> None:
    u, rounds, info = _setup(workload, seed, workdir, tiny)
    _emit({"ready": True, **info})
    if sys.stdin.readline().strip() != "go":
        return
    records, rounds_done = [], 0
    cpus = os.sched_getaffinity(0)
    start = time.perf_counter_ns()
    least = 1 if tiny else workloads.MIN_REQUESTS
    while time.perf_counter_ns() - start < seconds * 1e9 or len(records) < least:
        for req in rounds[rounds_done % len(rounds)]:
            cpu, loop = speed.pin_fastest_cpu(cpus)
            t0 = time.perf_counter_ns()
            rec = req.record(*_execute(u, req))
            rec.update(cpu=cpu, loop_ns=loop, span_s=(time.perf_counter_ns() - t0) / 1e9)
            records.append(rec)
        rounds_done += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _emit({"records": records, "rounds": rounds_done, "peak_rss_kb": peak_kb})


def replay_mode(workload, seed, seconds, workdir, tiny) -> None:
    """Replay whole rounds in process, each once untraced and then traced.

    Alternating the two per round, for about two thirds of the budget,
    keeps the machine's speed drift out of `trace.overhead_frac`.
    """
    u, rounds, info = _setup(workload, seed, workdir, tiny)
    tracer = spans.Tracer()
    records, failing = [], ({}, {})
    spent = [0, 0]
    start = time.perf_counter_ns()
    count = 0
    while count == 0 or time.perf_counter_ns() - start < seconds * 1e9 * 2 / 3:
        for traced in (False, True):
            if traced:
                tracer.install(u)
            try:
                t0 = time.perf_counter_ns()
                for req in rounds[count % len(rounds)]:
                    tracer.request = req.rid
                    ms, reason = _execute(u, req)
                    if traced:
                        records.append(req.record(ms, reason))
                    if reason is not None:
                        failing[traced][req.rid] = failing[traced].get(req.rid, 0) + 1
                spent[traced] += time.perf_counter_ns() - t0
            finally:
                tracer.uninstall()
        count += 1
    tracer.dump(f"{workdir}/trace.jsonl")
    metrics = tracer.reduce(spent[True])
    metrics["trace.overhead_frac"] = spent[True] / spent[False] - 1
    _emit({"metrics": metrics, "records": records, "rounds": count,
           "agree": failing[False] == failing[True], "failing": failing[True], **info})


def main(argv) -> None:
    mode, workload, seed, seconds, workdir, tiny = argv
    run = {"lib": lib_mode, "replay": replay_mode}[mode]
    run(workload, int(seed), float(seconds), workdir, tiny == "1")


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
    except Exception:
        traceback.print_exc()
        sys.exit(1)
