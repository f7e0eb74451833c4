"""Self-test of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench

Checks that every declared metric is printed with its unit, that the
generators hold the claims the checkers rely on, that the only failures
on lib-derived are the deep `canonical_code` probes, and that traced self
times add up to the replay's wall time.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen          # noqa: E402
import workloads    # noqa: E402


@functools.lru_cache(maxsize=None)
def tiny_run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    details = os.path.join(ROOT, lines[-2].split("details: ", 1)[1])
    with open(details, encoding="utf-8") as fh:
        return json.loads(lines[-1]), json.load(fh)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    out, _ = tiny_run(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_lib_failures_are_exactly_the_deep_probes():
    out, details = tiny_run("lib-derived", 0)
    records = details["records"]
    probes = [r for r in records if r["probe"]]
    deep = [r for r in records if r["kind"] == "canonical_code" and r["probe"]]
    assert probes == deep and len(probes) == 2 * details["rounds"]
    assert all(r["reason"].startswith("traceback: RecursionError") for r in probes)
    assert not any(not r["ok"] for r in records if not r["probe"])
    assert out["attempted"] == len(records) - len(probes)
    passing = [r for r in records if r["kind"] == "canonical_code" and not r["probe"]]
    assert len(passing) == len(probes) and all(r["ok"] for r in passing)

    traced, details = tiny_run("lib-derived", 1)
    m = traced["metrics"]
    replayed_probes = sum(r["probe"] for r in details["records"])
    assert m["morphisms.canonical_code.errors"]["value"] == replayed_probes
    assert m["morphisms.errors"]["value"] == replayed_probes
    assert details["agree"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_add_up_to_wall_time(workload):
    m = {k: v["value"] for k, v in tiny_run(workload, 1)[0]["metrics"].items()}
    layer_sum = sum(m[f"{layer}.self_s"] for layer in
                    ("cli", "core", "repr_tree", "balls", "tree_metric", "morphisms", "padic"))
    assert layer_sum == pytest.approx(m["trace.self_sum_s"], abs=1e-6)
    assert m["trace.self_sum_s"] + m["trace.unspanned_s"] == pytest.approx(m["trace.wall_s"], abs=1e-6)
    assert 0 <= m["trace.unspanned_s"] < m["trace.wall_s"]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-bushy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# -- generators ---------------------------------------------------------------

def strong_ok(mat) -> bool:
    return not any(gen.is_strong_witness(mat, i, j, k)
                   for i, j, k in itertools.combinations(range(len(mat)), 3))


def closed_balls(mat) -> set:
    n = len(mat)
    return {tuple(y for y in range(n) if mat[x][y] <= r) for x in range(n) for r in mat[x]}


@pytest.mark.parametrize("n", [5, 12, 30])
def test_caterpillar_has_2n_minus_1_balls(n):
    h = gen.caterpillar(n)
    mat = h.matrix()
    assert all(mat[x][y] == max(x, y) for x in range(n) for y in range(n) if x != y)
    assert h.vertices == 2 * n - 1 == len(closed_balls(mat))
    assert h.sphere_plus_center()


@pytest.mark.parametrize("p,k", [(2, 1), (2, 4), (3, 2), (3, 3)])
def test_padic_has_geometric_ball_count(p, k):
    h = gen.padic(p, k)
    mat = h.matrix()
    for x, y in itertools.combinations(range(p ** k), 2):
        diff, gamma = y - x, 0
        while diff % p == 0:
            diff //= p
            gamma += 1
        assert mat[x][y] == Fraction(1, p ** gamma)
    assert h.vertices == (p ** (k + 1) - 1) // (p - 1) == len(closed_balls(mat))
    assert h.sphere_plus_center() == (k == 1)


@pytest.mark.parametrize("seed", range(6))
def test_bushy_and_flat_answers_hold(seed):
    rng = random.Random(seed)
    for h in (gen.bushy(rng, 14), gen.flat(rng, 9)):
        mat = h.matrix()
        assert strong_ok(mat)
        assert {p for p, _ in h.balls()} == closed_balls(mat)
        assert h.vertices == len(closed_balls(mat))
        perm = gen.permutation(rng, h.n)
        _, copy = gen.permuted(list(range(h.n)), mat, perm)
        assert all(copy[i][j] == mat[perm[i]][perm[j]] for i in range(h.n) for j in range(h.n))
    h = gen.bushy(rng, 14)
    mat = h.matrix()
    other = gen.perturb_label(h, rng).matrix()
    assert strong_ok(other)
    assert sorted(sum(mat, [])) != sorted(sum(other, []))
    broken = gen.break_ultrametric(h, mat)
    assert not strong_ok(broken)
    assert all(broken[i][j] <= broken[i][k] + broken[k][j]
               for i, j, k in itertools.product(range(h.n), repeat=3))


def test_tree_and_poset_answers_hold():
    h = gen.bushy(random.Random(3), 10)
    order = [v for v in range(h.vertices) if not h.children[v]]
    mat, chain = h.matrix(), h.leaf_chain_matrix()
    leaf_point = [h.points[v][0] for v in order]
    assert all(chain[a][b] == mat[leaf_point[a]][leaf_point[b]]
               for a in range(h.n) for b in range(h.n))

    def code(v):
        subs = sorted(code(c) for c in h.children[v])
        return "(" + str(h.labels[v]) + ";" + ",".join(subs) + ")"
    assert h.canonical_text() == code(0)

    poset = gen.poset_json(h, broken=True)
    leaf = next(v for v in range(h.vertices) if not h.children[v])
    uppers = [hi for lo, hi in poset["covers"] if lo == leaf]
    assert len(uppers) == 2 and h.parent[leaf] in uppers
    assert len(gen.poset_json(h)["covers"]) == h.vertices - 1
