"""Machine-speed references: vCPU choice and the factor reported times are divided by.

The 2-vCPU host this benchmark was written on is shared.  At any moment
each vCPU runs either at full speed or at about half of it, and which one
is slow changes every few seconds; raw medians of whole 30 s runs
differed by up to 40%.  So before every request a run times one pass of
core-like work on each allowed CPU and pins itself (and so the CLI child
it starts next) to the faster one.

All reported times are then divided by how much slower than on the
reference host a fixed reference ran during the run, measured the way
the workload's requests run.  lib-derived uses the passes themselves,
which run in the worker beside the calls.  The CLI workloads use a
Python process that starts, imports and makes SPAWN_PASSES passes, timed
from spawn to exit: most of a CLI request is process start-up, which
slows far less than a pass does (in one run passes slowed 1.7x and CLI
latency 1.15x), so the passes alone overcorrected them.  On six seeds
each, this cut the spread between quartiles of p50, p90 and throughput
from 11-15% to 3-7% (lib-derived) and from 16-19% to 9-12% (cli-deep).
Neither reference runs ultratree code, so a change to the library cannot
move it, and a slower library still reads slower.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from fractions import Fraction

# about the pass's median time on the faster vCPU of the reference host
# (Intel Xeon, 2 vCPUs, Python 3.11), rounded
REFERENCE_NS = 500_000

# the CLI workloads' reference: a Python process that makes SPAWN_PASSES
# passes, timed from spawn to exit like a CLI request, before every
# SPAWN_EVERY-th request
SPAWN_PASSES = 60
SPAWN_EVERY = 8
REFERENCE_SPAWN_NS = 100_000_000

_rng = random.Random(0)
_STRINGS = [f"{_rng.randint(1, 99)}/{_rng.randint(1, 9)}" for _ in range(60)]
_N = 14
_upper = [[_rng.randrange(8) for _ in range(_N)] for _ in range(_N)]
_RANK = tuple(tuple(0 if i == j else _upper[min(i, j)][max(i, j)] for j in range(_N))
              for i in range(_N))


def loop_ns() -> int:
    """Time one pass of core-like work: parse rationals, rank them, scan triples.

    Of the references tried (a tight Fraction loop, this, building a
    generator space), this one followed the library's own slowdowns best.
    A tight loop also ran twice as slow right after a request, with cold
    caches, whatever the machine's speed.
    """
    t0 = time.perf_counter_ns()
    values = [Fraction(s) for s in _STRINGS]
    index = {v: i for i, v in enumerate(sorted(set(values)))}
    ranks = [index[v] for v in values]
    broken = 0
    for i in range(_N):
        ri = _RANK[i]
        for j in range(i + 1, _N):
            rij, rj = ri[j], _RANK[j]
            for k in range(j + 1, _N):
                a, b, c = rij, ri[k], rj[k]
                m = max(a, b, c)
                broken += (a == m) + (b == m) + (c == m) < 2
    del ranks, broken
    return time.perf_counter_ns() - t0


def pin_fastest_cpu(cpus: set[int]) -> tuple[int, int]:
    """Pin this process (and the children it starts) to the fastest of `cpus`.

    Times one pass on each CPU and keeps the fastest; returns (cpu, ns).
    """
    best = None
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        ns = loop_ns()
        if best is None or ns < best[1]:
            best = (cpu, ns)
    os.sched_setaffinity(0, {best[0]})
    return best


def spawn_code(bench_dir: str) -> str:
    """Python source for the CLI workloads' reference process: start, import, passes."""
    return (f"import sys; sys.path.insert(0, {bench_dir!r}); import speed; "
            f"[speed.loop_ns() for _ in range({SPAWN_PASSES})]")


def factor(samples: list[float], reference: float) -> float:
    """How much slower than on the reference host the run's samples show it to be."""
    return statistics.median(samples) / reference
