"""Benchmark of the ultratree CLI and library.

    python3 bench/run.py --workload cli-bushy --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Workloads (see BENCHMARK.json for why
each is here):

  cli-bushy    CLI processes on bushy and flat spaces (core-bound)
  cli-deep     CLI processes on caterpillar and p-adic spaces (repr_tree,
               morphisms)
  lib-derived  one worker process calling the library on prepared spaces
               and trees (balls, tree_metric)

Requests run as a closed loop from one client, in whole rounds, until
`--seconds` have passed.  Set-up (generate and write the seeded inputs,
one warm-up request; for lib-derived also starting the worker and
importing ultratree) runs SETUP_REPS times and reports its median.
Every answer is checked against what the input's construction implies.
Each request runs pinned to the faster vCPU of the moment, and times are
reported at reference speed: divided by how much slower than on the
reference host a fixed reference ran during the run (see speed.py).

With --trace 0 the last line is the end-to-end metrics; with --trace 1
the workload is replayed in process, untraced and then traced, and the
last line is the per-layer metrics.  Earlier lines, and a result file
under bench/_work/, record the environment and every request.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spans       # noqa: E402
import speed       # noqa: E402
import workloads   # noqa: E402

SETUP_REPS = 3
CLI_CODE = "from ultratree.cli import main; main()"

END_TO_END = {
    "setup_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "entries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in spans.span_names():
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in spans.counter_names():
        units[name] = "bytes" if name.endswith(".bytes") else "count"
    for layer in spans.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_frac"] = "frac"
        units[f"{layer}.errors"] = "count"
    units.update({"core.validations_per_space": "ratio", "trace.wall_s": "s",
                  "trace.self_sum_s": "s", "trace.unspanned_s": "s",
                  "trace.spans": "count", "trace.overhead_frac": "frac"})
    return units


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": _git_commit(), "seed": seed}


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


# -- CLI workloads ------------------------------------------------------------

def _spawn(argv: list[str], workdir: str, env: dict):
    """Run argv with stdout and stderr to files; time it from spawn to exit.

    Returns (milliseconds, exit code, rusage, stdout, stderr).
    """
    out_path = os.path.join(workdir, "stdout.txt")
    err_path = os.path.join(workdir, "stderr.txt")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out_fd = os.open(out_path, flags, 0o644)
    err_fd = os.open(err_path, flags, 0o644)
    try:
        actions = [(os.POSIX_SPAWN_CLOSE, 0), (os.POSIX_SPAWN_DUP2, out_fd, 1),
                   (os.POSIX_SPAWN_DUP2, err_fd, 2)]
        t0 = time.perf_counter_ns()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        ms = (time.perf_counter_ns() - t0) / 1e6
    finally:
        os.close(out_fd)
        os.close(err_fd)
    with open(out_path, encoding="utf-8") as fh:
        out = fh.read()
    with open(err_path, encoding="utf-8") as fh:
        err = fh.read()
    return ms, os.waitstatus_to_exitcode(status), usage, out, err


def run_cli_request(req, workdir: str, env: dict) -> dict:
    """One CLI process, checked; with its peak RSS from wait4."""
    ms, rc, usage, out, err = _spawn([sys.executable, "-c", CLI_CODE, *req.argv], workdir, env)
    if rc not in (0, 1, 2) or "Traceback" in err:
        reason = f"exit {rc}: " + (err.strip().splitlines() or [""])[-1]
    else:
        reason = req.verify(rc, out)
    return {**req.record(ms, reason), "rss_kb": usage.ru_maxrss}


def run_cli(args, workdir: str) -> dict:
    env = _child_env()
    setups, warmups = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        rounds, _ = workloads.build(args.workload, args.seed, workdir, args.tiny)
        warmups.append(run_cli_request(rounds[0][0], workdir, env))
        setups.append(time.perf_counter() - t0)
    records, refs = [], []
    cpus = os.sched_getaffinity(0)
    ref_argv = [sys.executable, "-c", speed.spawn_code(BENCH)]
    start = time.perf_counter()
    least = 1 if args.tiny else workloads.MIN_REQUESTS
    rounds_done = 0
    while time.perf_counter() - start < args.seconds or len(records) < least:
        for i, req in enumerate(rounds[rounds_done % len(rounds)]):
            cpu, loop = speed.pin_fastest_cpu(cpus)
            if i % speed.SPAWN_EVERY == 0:
                ms, rc, *_ = _spawn(ref_argv, workdir, env)
                if rc != 0:
                    raise RuntimeError(f"reference process exited with {rc}")
                refs.append(ms * 1e6)
            t0 = time.perf_counter()
            rec = run_cli_request(req, workdir, env)
            rec.update(cpu=cpu, loop_ns=loop, span_s=time.perf_counter() - t0)
            records.append(rec)
        rounds_done += 1
    return {"setups": setups, "warmups": warmups, "records": records, "rounds": rounds_done,
            "spawn_ref_ns": refs, "peak_rss_kb": max(rec["rss_kb"] for rec in records)}


# -- library workload ---------------------------------------------------------

@contextlib.contextmanager
def _worker(mode: str, args, workdir: str):
    """A worker.py process, killed and reaped however the block ends."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), mode, args.workload,
           str(args.seed), str(args.seconds), workdir, "1" if args.tiny else "0"]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=_child_env(), text=True)
    try:
        yield proc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def _read_json(proc: subprocess.Popen) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"worker exited early with code {proc.wait()}")
    return json.loads(line)


def _finish(proc: subprocess.Popen) -> None:
    proc.stdin.close()
    proc.stdout.close()
    if proc.wait(timeout=60) != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")


def _warmup(msg: dict) -> dict:
    return {"rid": msg["warmup"], "reason": msg["warmup_reason"],
            "ok": msg["warmup_reason"] is None}


def run_lib(args, workdir: str) -> dict:
    setups, warmups = [], []
    for rep in range(SETUP_REPS):
        last = rep == SETUP_REPS - 1
        t0 = time.perf_counter()
        with _worker("lib", args, workdir) as proc:
            ready = _read_json(proc)
            setups.append(time.perf_counter() - t0)
            warmups.append(_warmup(ready))
            proc.stdin.write("go\n" if last else "stop\n")
            proc.stdin.flush()
            if last:
                result = _read_json(proc)
            _finish(proc)
    result.update(setups=setups, warmups=warmups)
    return result


def run_traced(args, workdir: str) -> dict:
    with _worker("replay", args, workdir) as proc:
        result = _read_json(proc)
        _finish(proc)
    result["warmups"] = [_warmup(result)]
    return result


# -- reporting ----------------------------------------------------------------

def end_to_end(result: dict) -> dict:
    """The end-to-end metrics, with times at reference speed (see speed.py)."""
    records = result["records"]
    if "spawn_ref_ns" in result:
        f = speed.factor(result["spawn_ref_ns"], speed.REFERENCE_SPAWN_NS)
    else:
        f = speed.factor([r["loop_ns"] for r in records], speed.REFERENCE_NS)
    result["speed_factor"] = f
    for rec in records:
        rec["ms_ref"] = rec["ms"] / f
    wall = sum(rec["span_s"] for rec in records) / f
    regular = [r for r in records if not r["probe"]]
    lat = [r["ms_ref"] for r in regular]
    failed = sum(not r["ok"] for r in regular)
    done = sum(r["entries"] for r in regular if r["ok"])
    return {
        "setup_s": statistics.median(result["setups"]) / f,
        "req_p50_ms": statistics.median(lat),
        "req_p90_ms": statistics.quantiles(lat, n=10)[-1],
        "entries_per_s": done / wall,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "ok_frac": (len(regular) - failed) / len(regular),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ultratree", "cli.py")):
        sys.stderr.write(f"error: no ultratree sources under {ROOT}/src\n")
        return 2
    workdir = os.path.join(BENCH, "_work", args.workload + ("-tiny" if args.tiny else ""))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    if args.trace:
        result = run_traced(args, workdir)
        units = per_layer_units()
        metrics = result["metrics"]
    else:
        run = run_cli if args.workload.startswith("cli-") else run_lib
        result = run(args, workdir)
        units = END_TO_END
        metrics = end_to_end(result)

    regular = [r for r in result["records"] if not r["probe"]]
    probes = [r for r in result["records"] if r["probe"]]
    failed = sum(not r["ok"] for r in regular)
    # a probe may fail (that is the defect it shows) but never answer wrongly
    wrong_probe = [r for r in probes if not r["ok"] and not r["reason"].startswith("traceback")]
    correct = (failed == 0 and not wrong_probe and all(w["ok"] for w in result["warmups"])
               and result.get("agree", True))
    env = environment(args.seed)
    result.update(env=env, metrics=metrics, workload=args.workload, trace=args.trace)
    path = os.path.join(workdir, f"result-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={result['rounds']} "
          f"requests={len(regular)} failed={failed} fail_frac={failed / len(regular):.4f}")
    print("# env " + json.dumps(env))
    if not args.trace:
        print(f"# requests pinned to the faster vCPU; times divided by the reference's "
              f"slowdown, {result['speed_factor']:.3f} (see bench/speed.py)")
    if probes:
        raised = sum(not r["ok"] for r in probes)
        print(f"# probes: {len(probes)} canonical_code calls on caterpillar trees of depth "
              f">= {min(workloads.FAILING_DEPTHS)}, {raised} raised "
              f"({sorted({r['reason'] for r in probes if r['reason']})})")
    for r in regular:
        if not r["ok"]:
            print(f"# FAILED {r['rid']}: {r['reason']}")
    print(f"# details: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(regular),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
