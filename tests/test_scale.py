"""The CLI and the library on inputs of a thousand points and more; new scale checks go here.

The CLI runs as `python -m ultratree.cli` under a subprocess timeout in
seconds; `within` bounds library checks, which run in this process, alike.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from random import Random

import pytest

from ultratree import (FiniteUltrametricSpace, ball_poset, build_representing_tree,
                       hausdorff_ball_space, padic_space, path_max_metric, quantize_binary,
                       rank_transform, reconstruct_space, smallest_enclosing_ball,
                       space_from_json, space_to_json, spaces_isometric, verify_tree_invariants)
from util import nested_four_point_space, script

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
import gen  # noqa: E402   the benchmark's input generators, read only


@contextmanager
def within(seconds):
    """The block ends within `seconds`, as a process under `timeout seconds` would."""
    start = time.perf_counter()
    yield
    assert time.perf_counter() - start < seconds


def printed(path, *argv, timeout=60):
    """Write what the CLI prints for argv to path, and return the path."""
    with open(path, "w") as out:
        proc = script(*argv, stdout=out, stderr=subprocess.PIPE, text=True, timeout=timeout)
    assert proc.returncode == 0, (argv, proc.stderr)
    return str(path)


def caterpillar_space(tmp_path_factory, n):
    """The space `reconstruct` prints, within 60 s, for an n-leaf caterpillar n - 1 levels deep."""
    folder = tmp_path_factory.mktemp(f"caterpillar{n}")
    # spine vertex i is the ball {0..n-1-i}; one leaf hangs off each
    labels = [n - 1 - i for i in range(n - 1)] + [0] * n
    edges = [[i - 1, i] for i in range(1, n - 1)] + [[i, n - 1 + i] for i in range(n - 1)]
    tree = folder / "tree.json"
    tree.write_text(json.dumps({"root": 0, "labels": labels, "edges": edges + [[n - 2, 2 * n - 2]]}))
    return printed(folder / "space.json", "reconstruct", str(tree), timeout=60)


@pytest.fixture(scope="module")
def caterpillar_1000(tmp_path_factory):
    return caterpillar_space(tmp_path_factory, 1000)


@pytest.fixture(scope="module")
def caterpillar_2000(tmp_path_factory):
    return caterpillar_space(tmp_path_factory, 2000)


def test_check_tree_and_balls_of_a_1000_leaf_caterpillar(caterpillar_1000):
    check = script("check", caterpillar_1000, capture_output=True, text=True)
    assert check.returncode == 0 and json.loads(check.stdout)["ultrametric"] is True
    tree, balls = (script(verb, caterpillar_1000, capture_output=True, text=True, timeout=60)
                   for verb in ("tree", "balls"))
    assert tree.returncode == balls.returncode == 0
    payload, balls = json.loads(tree.stdout), json.loads(balls.stdout)["balls"]
    assert len(payload["labels"]) == 1999 and len(payload["ball_points"][0]) == 1000
    assert len(balls) == 1999 and len(balls[0]["points"]) == 1000
    assert tree.stdout == json.dumps(payload, indent=2) + "\n"


def test_the_tree_audit_and_ball_joins_of_a_1000_leaf_caterpillar(caterpillar_1000):
    with within(60), open(caterpillar_1000) as fh:
        space = space_from_json(json.load(fh))
        assert verify_tree_invariants(build_representing_tree(space), space).ok
    with within(60):
        poset = ball_poset(space)
        singletons = [b for b in poset.balls if len(b) == 1]
        t = singletons[-1]
        assert len(singletons) == 1000
        for s in singletons:
            assert poset.join(s, t) == smallest_enclosing_ball(space, s.points + t.points)


def test_a_reader_leaving_after_one_byte_gets_no_traceback(caterpillar_1000):
    reader = subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.buffer.read(1)"],
                              stdin=subprocess.PIPE)
    with reader:   # the reader's exit closes the pipe's only read end
        proc = script("tree", caterpillar_1000, stdout=reader.stdin, stderr=subprocess.PIPE,
                      text=True)
    assert proc.returncode in (0, 3) and "Traceback" not in proc.stderr


@pytest.mark.parametrize("verb", ["iso", "weaksim", "roundtrip"])
def test_decisions_on_a_2000_leaf_caterpillar_1999_levels_deep(caterpillar_2000, verb):
    spaces = [caterpillar_2000] * (1 if verb == "roundtrip" else 2)
    assert script(verb, *spaces, stdout=subprocess.DEVNULL, timeout=60).returncode == 0


def test_the_quantized_2000_leaf_caterpillar_is_ultrametric(caterpillar_2000, tmp_path):
    quantized = printed(tmp_path / "quantized.json", "transform", "--fn", "quantize",
                        caterpillar_2000, timeout=60)
    assert script("check", quantized, stdout=subprocess.DEVNULL).returncode == 0


def test_padic_prints_2048_points_within_10_s(tmp_path):
    points = tmp_path / "points.json"
    points.write_text(json.dumps(list(range(2048))))
    space = printed(tmp_path / "padic.json", "padic", "--prime", "2", "--points", str(points),
                    timeout=10)
    assert script("check", space, stdout=subprocess.DEVNULL).returncode == 0


def held_bytes(build):
    """The bytes left allocated, with what `build()` returns alive, within 60 s."""
    tracemalloc.start()
    try:
        with within(60):
            kept = build()  # noqa: F841   alive while the memory is read
            return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_a_derived_space_at_2048_points_holds_its_order_and_gaps():
    def build():
        space = padic_space(range(2048), 2)
        return space, rank_transform(space)
    # a derived space holds its order and gaps, about 0.3 MB; its rank rows, 65 MB, wait for a read
    held = held_bytes(build)
    assert held < 4 * 2 ** 20, held


def test_the_hausdorff_space_of_2048_points_and_its_tree_hold_little():
    def build():
        space = hausdorff_ball_space(padic_space(range(2048), 2)).space
        kept = space, quantize_binary(space), build_representing_tree(space)
        assert len(space) == 4095 and spaces_isometric(space, space)
        return kept
    # about 2.5 MB; rank rows for the 4,095 balls would hold about 260 MB
    held = held_bytes(build)
    assert held < 16 * 2 ** 20, held


def test_the_ball_poset_of_2048_points_reads_no_rank_rows():
    with within(60):
        # inclusion and joins read the balls' runs, not the rank rows
        space = padic_space(range(2048), 2)
        poset = ball_poset(space)
        whole, first, last = poset.balls[0], poset.balls[-2048], poset.balls[-1]
        assert poset.join(first, last) is whole and poset.leq(last, whole)
        assert not poset.leq(whole, last) and poset.meet(first, last) is None
        assert space._rank is None


def test_derived_spaces_at_about_1000_points_match_the_public_constructor():
    with within(60):
        # _from_gaps trusts its callers' order, gaps and values
        big, half = padic_space(range(1024), 2), padic_space(range(512), 2)
        tree = build_representing_tree(half)
        for space in (big, quantize_binary(big), hausdorff_ball_space(half).space,
                      reconstruct_space(tree).space, path_max_metric(tree)):
            again = FiniteUltrametricSpace(space.names, space.matrix)
            for field in ("names", "distance_values", "rank", "_order", "_gaps"):
                assert getattr(again, field) == getattr(space, field), field


def test_bethe_prints_131071_vertices_within_10_s():
    proc = script("bethe", "--prime", "2", "--depth", "16", capture_output=True, timeout=10)
    assert proc.returncode == 0 and len(json.loads(proc.stdout)["labels"]) == 131071


@pytest.fixture(scope="module")
def broken_256(tmp_path_factory):
    """A 256-point bushy space with one strong triangle broken, and `check`'s witness."""
    h = gen.bushy(Random(5), 256)
    matrix = gen.break_ultrametric(h, h.matrix())
    folder = tmp_path_factory.mktemp("broken")
    path = folder / "broken.json"
    path.write_text(json.dumps({"points": [str(x) for x in range(256)],
                                "matrix": [[str(v) for v in row] for row in matrix]}))
    proc = script("check", str(path), capture_output=True, text=True)
    assert proc.returncode == 1
    good = folder / "space.json"
    good.write_text(json.dumps(space_to_json(nested_four_point_space())))
    return str(path), ",".join(json.loads(proc.stdout)["witness"]), str(good)


@pytest.mark.parametrize("verb", ["tree", "balls", "iso GOOD", "weaksim GOOD",
                                  "transform --fn bound:3", "roundtrip"])
def test_a_broken_256_point_space_is_refused_at_once(broken_256, verb):
    # single linkage refuses it; the O(n^3) ordinary-triangle scan took about 20 s for tree alone
    path, witness, good = broken_256
    argv = [good if a == "GOOD" else a for a in verb.split()]
    proc = script(*argv, path, capture_output=True, text=True, timeout=5)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert f"strong triangle fails on ({witness}): " in proc.stderr
