from __future__ import annotations

import json
import os
import random
import subprocess
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import ultratree.core as core
from ultratree import (
    build_representing_tree,
    is_ultrametric_multipartite,
    space_to_json,
    tree_to_json,
)
import ultratree.cli as cli
from ultratree.cli import run
import util
from util import (
    count_calls,
    mixed_validity_matrix,
    nested_four_point_space,
    every_verb_parser,
    script,
    strong_triangle_witness,
    two_pair_space,
    violates_strong_triangle,
)


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space_to_json(nested_four_point_space())))
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_accepts_and_rejects(tmp_path, capsys, space_file):
    code, out, _ = invoke(capsys, "check", space_file)
    assert code == 0
    assert json.loads(out) == {"ultrametric": True, "witness": None}

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "points": ["a", "b", "c"],
        "matrix": [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]],
    }))
    code, out, _ = invoke(capsys, "check", str(bad))
    assert code == 1
    assert json.loads(out) == {"ultrametric": False, "witness": ["a", "b", "c"]}


def test_check_rejects_malformed_input(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = invoke(capsys, "check", str(broken))
    assert code == 2 and "error" in err

    asym = tmp_path / "asym.json"
    asym.write_text(json.dumps({
        "points": ["a", "b"],
        "matrix": [["0", "1"], ["2", "0"]],
    }))
    code, _, err = invoke(capsys, "check", str(asym))
    assert code == 2 and "symmetr" in err


@pytest.mark.parametrize("points, message", [
    (["a", "b"], "2x2"),
    (["a", "a", "c"], "unique"),
])
def test_check_validates_point_names(tmp_path, capsys, points, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "points": points,
        "matrix": [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]],
    }))
    code, out, err = invoke(capsys, "check", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_check_agrees_with_both_ultrametricity_tests(tmp_path, capsys):
    rng = random.Random(2024)
    path = tmp_path / "space.json"
    for _ in range(200):
        n = rng.randint(2, 9)
        matrix = mixed_validity_matrix(rng, n)
        names = [f"q{i}" for i in range(n)]
        path.write_text(json.dumps({
            "points": names, "matrix": [[str(v) for v in row] for row in matrix],
        }))
        code, out, _ = invoke(capsys, "check", str(path))
        ok = strong_triangle_witness(core._RankedMatrix(names, matrix).rank) is None
        assert ok == is_ultrametric_multipartite(matrix)
        assert code == (0 if ok else 1)
        result = json.loads(out)
        assert result["ultrametric"] is ok
        if ok:
            assert result["witness"] is None
        else:
            triple = [names.index(name) for name in result["witness"]]
            assert triple == sorted(set(triple)) and len(triple) == 3
            assert violates_strong_triangle(matrix, triple)


def test_check_and_loads_scan_each_space_once(tmp_path, capsys, monkeypatch):
    metric = tmp_path / "metric.json"
    metric.write_text(json.dumps({
        "points": ["a", "b", "c"],
        "matrix": [["0", "2", "3"], ["2", "0", "2"], ["3", "2", "0"]],
    }))
    counts = count_calls(monkeypatch, core, ("_single_linkage", "is_ultrametric_multipartite"))
    scans = count_calls(monkeypatch, util, ("strong_triangle_witness",))
    expected = {"_single_linkage": 1, "is_ultrametric_multipartite": 0}
    code, _, err = invoke(capsys, "tree", str(metric))
    assert code == 2 and "strong triangle fails on (a,b,c): 2, 3, 2" in err
    assert counts == expected

    counts.update(dict.fromkeys(counts, 0))
    code, out, _ = invoke(capsys, "check", str(metric))
    assert code == 1 and json.loads(out)["witness"] == ["a", "b", "c"]
    assert counts == expected
    assert scans == {"strong_triangle_witness": 0}


NOT_ULTRAMETRIC = {   # name -> a matrix that fails the strong triangle inequality
    "metric": [[0, 2, 3], [2, 0, 2], [3, 2, 0]],
    "non-metric": [[0, 1, 3], [1, 0, 1], [3, 1, 0]],
    "perturbed-64": util.perturbed(random.Random(4), util.random_ultrametric_matrix(
        random.Random(4), 64)),
}
ULTRAMETRIC_VERBS = [["tree"], ["balls"], ["iso", None, "GOOD"], ["iso", "GOOD", None],
                     ["weaksim", None, "GOOD"], ["weaksim", "GOOD", None],
                     ["transform", "--fn", "bound:3"], ["roundtrip"]]


@pytest.mark.parametrize("verb", ULTRAMETRIC_VERBS, ids=lambda v: " ".join(a or "BAD" for a in v))
@pytest.mark.parametrize("name", NOT_ULTRAMETRIC)
def test_ultrametric_verbs_refuse_with_the_witness_check_prints(tmp_path, capsys, monkeypatch,
                                                                space_file, name, verb):
    matrix = NOT_ULTRAMETRIC[name]
    names = [f"q{i}" for i in range(len(matrix))]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"points": names, "matrix": [[str(v) for v in row] for row in matrix]}))
    code, out, _ = invoke(capsys, "check", str(path))
    assert code == 1
    i, j, k = (names.index(x) for x in json.loads(out)["witness"])
    scans = count_calls(monkeypatch, core, ("_weak_triangle_witness",))
    argv = [str(path) if a is None else space_file if a == "GOOD" else a for a in verb]
    if None not in verb:
        argv.append(str(path))
    d = [[core.parse_rational(v) for v in row] for row in matrix]
    assert invoke(capsys, *argv) == (2, "", (
        f"error: {path}: strong triangle fails on ({names[i]},{names[j]},{names[k]}): "
        f"{d[i][j]}, {d[i][k]}, {d[j][k]}\n"))
    assert scans == {"_weak_triangle_witness": 0}


def test_dset_alone_scans_for_the_ordinary_triangle(tmp_path, capsys, monkeypatch):
    scans = count_calls(monkeypatch, core, ("_weak_triangle_witness",))
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"points": list("abc"), "matrix": NOT_ULTRAMETRIC["metric"]}))
    code, out, _ = invoke(capsys, "dset", str(path))
    assert code == 0 and json.loads(out) == {"distances": ["0", "2", "3"]}
    assert scans == {"_weak_triangle_witness": 1}
    path.write_text(json.dumps({"points": list("abc"), "matrix": NOT_ULTRAMETRIC["non-metric"]}))
    code, out, err = invoke(capsys, "dset", str(path))
    assert (code, out) == (2, "") and "triangle inequality fails" in err
    assert scans == {"_weak_triangle_witness": 2}


def test_deep_caterpillar_runs_without_recursion(tmp_path, capsys):
    # d(x, y) = max(x, y) on {0..n-1}; the representing tree has depth n - 1
    n = 1100
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({
        "points": [str(i) for i in range(n)],
        "matrix": [[str(0 if i == j else max(i, j)) for j in range(n)] for i in range(n)],
    }))
    code, out, err = invoke(capsys, "check", str(path))
    assert (code, json.loads(out), err) == (0, {"ultrametric": True, "witness": None}, "")
    code, out, err = invoke(capsys, "dset", str(path))
    assert code == 0 and json.loads(out)["distances"] == [str(i) for i in range(n)]
    code, out, err = invoke(capsys, "tree", str(path))
    assert code == 0 and err == ""
    tree = json.loads(out)
    assert len(tree["labels"]) == 2 * n - 1 and len(tree["edges"]) == 2 * n - 2
    code, out, err = invoke(capsys, "balls", str(path))
    assert code == 0 and err == ""
    assert len(json.loads(out)["balls"]) == 2 * n - 1
    # doubled distances: the same tree with other labels, weakly similar only
    doubled = tmp_path / "doubled.json"
    doubled.write_text(json.dumps({
        "points": [str(i) for i in range(n)],
        "matrix": [[str(0 if i == j else 2 * max(i, j)) for j in range(n)] for i in range(n)],
    }))
    code, out, err = invoke(capsys, "iso", str(path), str(doubled))
    assert (code, json.loads(out), err) == (1, {"isometric": False}, "")
    code, out, err = invoke(capsys, "weaksim", str(path), str(doubled))
    assert (code, json.loads(out), err) == (0, {"weakly_similar": True}, "")
    code, out, err = invoke(capsys, "roundtrip", str(path))
    assert (code, json.loads(out), err) == (0, {"points": n, "balls": 2 * n - 1,
                                                "isometric": True}, "")


def test_module_runs_as_a_script(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "points": ["a", "b", "c"],
        "matrix": [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]],
    }))
    proc = script("check", str(bad), capture_output=True, text=True)
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {"ultrametric": False, "witness": ["a", "b", "c"]}


def test_huge_exponent_entry_exits_2_without_forming_the_power(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"points": ["a", "b"],
                                "matrix": [["0", "1e99999999"], ["1e99999999", "0"]]}))
    proc = script("dset", str(path), capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: {path}: numerator of '1e99999999' exceeds the limit")


def test_multi_megabyte_digit_entry_exits_2_at_once(tmp_path):
    # int() refuses a digit group past its limit before converting it
    entry = "1" * 2_000_000 + "e-4000000"
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"points": ["a", "b"], "matrix": [["0", entry], [entry, "0"]]}))
    for verb in ("dset", "check"):
        proc = script(verb, str(path), capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: {path}: numerator of '{entry[:60]}' exceeds the limit "
                               "(4300 digits) for integer string conversion\n")


@pytest.mark.parametrize("argv", [["check"], ["dset"], ["reconstruct"], ["posetcheck"],
                                  ["padic", "--prime", "2", "--points"]])
def test_deeply_nested_json_is_an_input_error(tmp_path, capsys, argv):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000)
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv, str(path))
    assert time.perf_counter() - start < 20
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path} is not valid JSON: ") and "\n" not in err[:-1]


def test_dset(capsys, space_file):
    code, out, _ = invoke(capsys, "dset", space_file)
    assert code == 0
    assert json.loads(out) == {"distances": ["0", "1", "2"]}


def test_balls(capsys, space_file):
    code, out, _ = invoke(capsys, "balls", space_file)
    assert code == 0
    assert len(json.loads(out)["balls"]) == 6


def test_tree_json_and_dot(capsys, space_file):
    code, out, _ = invoke(capsys, "tree", space_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["root"] == 0
    assert payload["labels"] == ["2", "0", "1", "0", "0", "0"]

    code, out, _ = invoke(capsys, "tree", space_file, "--dot")
    assert code == 0
    assert out.startswith("graph tree {")
    assert out.count("--") == 5
    assert out.count("doublecircle") == 4


def test_iso_and_weaksim(tmp_path, capsys, space_file):
    perm = tmp_path / "perm.json"
    base = nested_four_point_space()
    order = [2, 3, 0, 1]
    perm.write_text(json.dumps({
        "points": [base.names[i] for i in order],
        "matrix": [[str(base.matrix[i][j]) for j in order] for i in order],
    }))
    code, out, _ = invoke(capsys, "iso", space_file, str(perm))
    assert code == 0 and json.loads(out) == {"isometric": True}

    other = tmp_path / "other.json"
    other.write_text(json.dumps(space_to_json(two_pair_space())))
    code, out, _ = invoke(capsys, "iso", space_file, str(other))
    assert code == 1 and json.loads(out) == {"isometric": False}

    code, out, _ = invoke(capsys, "weaksim", space_file, str(perm))
    assert code == 0 and json.loads(out) == {"weakly_similar": True}
    code, out, _ = invoke(capsys, "weaksim", space_file, str(other))
    assert code == 1


def test_reconstruct_and_representable(tmp_path, capsys, space_file):
    tree_path = tmp_path / "tree.json"
    tree = build_representing_tree(nested_four_point_space())
    tree_path.write_text(json.dumps(tree_to_json(tree)))

    code, out, _ = invoke(capsys, "reconstruct", str(tree_path))
    assert code == 0
    rebuilt = json.loads(out)
    assert len(rebuilt["points"]) == 4

    code, out, _ = invoke(capsys, "representable", str(tree_path))
    assert code == 0
    assert json.loads(out)["accepted"] is True

    two = tmp_path / "two.json"
    two.write_text(json.dumps({
        "root": 0, "labels": ["1", "0"], "edges": [[0, 1]], "ball_points": None,
    }))
    code, out, _ = invoke(capsys, "representable", str(two))
    assert code == 1
    assert "out-degree 1" in json.loads(out)["reason"]


def test_posetcheck(tmp_path, capsys):
    doubled = tmp_path / "doubled.json"
    doubled.write_text(json.dumps({
        "elements": ["l", "b1", "b2", "s0"],
        "covers": [[1, 0], [2, 0], [3, 1], [3, 2]],
    }))
    code, out, _ = invoke(capsys, "posetcheck", str(doubled))
    assert code == 1
    assert json.loads(out)["unique_upper_cover"] is False

    star = tmp_path / "star.json"
    star.write_text(json.dumps({
        "elements": ["l", "a", "b", "c"],
        "covers": [[1, 0], [2, 0], [3, 0]],
    }))
    code, out, _ = invoke(capsys, "posetcheck", str(star))
    assert code == 0
    assert json.loads(out)["accepted"] is True


def test_transform(capsys, space_file):
    code, out, _ = invoke(capsys, "transform", "--fn", "threshold:1", space_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"][0][1] == "1"

    code, out, _ = invoke(capsys, "transform", "--fn", "bound:3", space_file)
    assert code == 0
    assert json.loads(out)["matrix"][0][1] == "2"  # 3*2/(1+2)

    code, _, err = invoke(capsys, "transform", "--fn", "unbound:2", space_file)
    assert code == 2 and "error" in err

    code, _, err = invoke(capsys, "transform", "--fn", "nonsense", space_file)
    assert code == 2

    code, out, err = invoke(capsys, "transform", "--fn", "bound:1/0", space_file)
    assert (code, out) == (2, "") and err == "error: zero denominator in '1/0'\n"


def test_transform_quantize_snaps_a_tiny_distance_in_little_memory(tmp_path, capsys):
    # a ladder of the 99,658 rungs down to 1e-30000 peaks near 670 MB;
    # parsing refuses the value before any transform runs
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({"points": ["a", "b"],
                                "matrix": [["0", "1e-30000"], ["1e-30000", "0"]]}))
    tracemalloc.start()
    try:
        code, out, err = invoke(capsys, "transform", "--fn", "quantize", str(tiny))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    # the 30,001-digit denominator is past Python's int-to-str limit, so
    # neither the input nor a transform of it could be printed
    assert (code, out) == (2, "") and "4300 digits" in err
    assert invoke(capsys, "dset", str(tiny))[0] == 2


def test_padic_and_bethe(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([str(i) for i in range(10)]))
    code, out, _ = invoke(capsys, "padic", "--prime", "3", "--points", str(pts))
    assert code == 0
    space = json.loads(out)
    assert space["matrix"][0][9] == "1/9"
    pts.write_text(json.dumps([0, 1, 2, 3, "1/2"]))
    code, out, _ = invoke(capsys, "padic", "--prime", "2", "--points", str(pts))
    assert code == 0 and json.loads(out)["matrix"][0][4] == "2"

    code, out, _ = invoke(capsys, "bethe", "--prime", "2", "--depth", "2")
    assert code == 0
    tree = json.loads(out)
    assert len(tree["labels"]) == 7 and tree["truncated"] is True
    code, out, _ = invoke(capsys, "bethe", "--prime", "3", "--depth", "2")
    assert code == 0 and len(json.loads(out)["labels"]) == 13

    code, out, _ = invoke(capsys, "bethe", "--prime", "3", "--depth", "1", "--sphere")
    assert code == 0
    assert len(json.loads(out)["labels"]) == 3

    code, _, err = invoke(capsys, "padic", "--prime", "4", "--points", str(pts))
    assert code == 2


def test_padic_refusals_name_the_points_file(tmp_path, capsys):
    path = tmp_path / "pg.json"
    for points, message in ((["x"], "Invalid literal for Fraction: 'x'"),
                            ([0, 0], "sample points must be distinct")):
        path.write_text(json.dumps(points))
        code, out, err = invoke(capsys, "padic", "--prime", "2", "--points", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")
    # a bad prime concerns no file: it is refused before the file is read
    code, out, err = invoke(capsys, "padic", "--prime", "4", "--points", str(tmp_path / "none"))
    assert (code, out, err) == (2, "", "error: 4 is not prime\n")


def test_padic_and_bethe_refuse_sizes_they_cannot_finish(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps(["0", "1"]))
    for argv in (["bethe", "--prime", "2", "--depth", "1000000000"],
                 ["bethe", "--prime", "3", "--depth", "1000000000", "--sphere"],
                 ["bethe", "--prime", "2", "--depth", "17"],
                 ["bethe", "--prime", str(10 ** 30 + 1), "--depth", "1"],
                 ["padic", "--prime", str(10 ** 30 + 1), "--points", str(pts)]):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and ("passes" in err or "too large" in err), err


def test_padic_and_reconstruct_refuse_past_the_printed_space_cap(tmp_path, capsys, monkeypatch):
    # one point past the cap: refused before any rank row or JSON text is built
    n = cli.MAX_PRINTED_POINTS + 1
    points, star = tmp_path / "points.json", tmp_path / "star.json"
    points.write_text(json.dumps(list(range(n))))
    star.write_text(json.dumps({"root": 0, "labels": [1] + [0] * n,
                                "edges": [[0, v] for v in range(1, n + 1)]}))
    counts = count_calls(monkeypatch, core, ("_gap_rows", "space_to_json"))
    for argv, what in ((["padic", "--prime", "2", "--points", str(points)], "points"),
                       (["reconstruct", str(star)], "leaves")):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, out) == (2, ""), argv
        assert err == (f"error: {argv[-1]}: {n} {what} pass {n - 1}, "
                       "the most a printed space may have\n")
    assert counts == {"_gap_rows": 0, "space_to_json": 0}
    # at the cap a space prints
    monkeypatch.setattr(cli, "MAX_PRINTED_POINTS", 3)
    points.write_text(json.dumps([0, 1, 2]))
    star.write_text(json.dumps({"root": 0, "labels": [1, 0, 0, 0], "edges": [[0, 1], [0, 2], [0, 3]]}))
    for argv in (["padic", "--prime", "2", "--points", str(points)], ["reconstruct", str(star)]):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and len(json.loads(out)["points"]) == 3, argv
    points.write_text(json.dumps([0, 1, 2, 3]))
    code, _, err = invoke(capsys, "padic", "--prime", "2", "--points", str(points))
    assert code == 2 and "4 points pass 3" in err


def test_roundtrip(capsys, space_file):
    code, out, _ = invoke(capsys, "roundtrip", space_file)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"points": 4, "balls": 6, "isometric": True}


def test_output_is_deterministic(capsys, space_file):
    _, first, _ = invoke(capsys, "tree", space_file)
    _, second, _ = invoke(capsys, "tree", space_file)
    assert first == second


def test_emitted_space_reparses_to_equal_value(tmp_path, capsys, space_file):
    code, out, _ = invoke(capsys, "transform", "--fn", "quantize", space_file)
    assert code == 0
    from ultratree import space_from_json

    space = space_from_json(json.loads(out))
    assert space_to_json(space) == json.loads(out)


TWO_LEAF_TREE = {"root": 0, "labels": ["1", "0", "0"], "edges": [[0, 1], [0, 2]]}


@pytest.mark.parametrize("verb, change, message", [
    ("reconstruct", {"edges": [[0, 1], [0.5, 2]]}, "bad edge (0.5,2)"),
    ("reconstruct", {"edges": [[0, 1], ["0", 2]]}, "bad edge (0,2)"),
    ("reconstruct", {"edges": [[0, 1], [True, 2]]}, "bad edge (True,2)"),
    ("reconstruct", {"root": 1.5}, "root 1.5 is not a vertex index"),
    ("reconstruct", {"root": True}, "root True is not a vertex index"),
    ("representable", {"root": "0"}, "root '0' is not a vertex index"),
])
def test_tree_ids_must_be_ints(tmp_path, capsys, verb, change, message):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(dict(TWO_LEAF_TREE, **change)))
    code, out, err = invoke(capsys, verb, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("cover", [[0, 1.7], [0, True], ["1", 0], [1.0, 0]])
def test_poset_ids_must_be_ints(tmp_path, capsys, cover):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"elements": ["a", "b", "c"], "covers": [[2, 0], cover]}))
    code, out, err = invoke(capsys, "posetcheck", str(path))
    assert (code, out) == (2, "") and "bad cover pair" in err


def test_internal_errors_exit_3_without_a_traceback(capsys, monkeypatch, space_file):
    def broken(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "_cmd_dset", broken)
    code, out, err = invoke(capsys, "dset", space_file)
    assert (code, out) == (3, "")
    assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"


VERBS = ("check", "dset", "balls", "tree", "iso", "weaksim", "reconstruct", "representable",
         "posetcheck", "transform", "padic", "bethe", "roundtrip")
WELL_FORMED = [   # every verb with valid arguments
    ["check", "space.json"], ["dset", "space.json"], ["balls", "space.json"],
    ["tree", "space.json"], ["tree", "--dot", "space.json"],
    ["iso", "space.json", "space.json"], ["weaksim", "space.json", "other.json"],
    ["reconstruct", "tree.json"], ["representable", "tree.json"],
    ["posetcheck", "poset.json"], ["transform", "--fn", "bound:3", "space.json"],
    ["transform", "space.json", "--fn", "quantize"],
    ["padic", "--prime", "2", "--points", "points.json"],
    ["bethe", "--prime", "3", "--depth", "2"],
    ["bethe", "--sphere", "--prime", "2", "--depth", "2", "--top", "4"],
    ["roundtrip", "space.json"], ["check", "missing.json"],
]
PARSER_BATTERY = [
    *WELL_FORMED,
    # a missing or an extra positional
    ["check"], ["iso", "space.json"], ["reconstruct"], ["transform", "--fn", "quantize"],
    ["check", "space.json", "space.json"], ["iso", "space.json", "space.json", "extra"],
    ["roundtrip", "space.json", "--", "extra"],
    # an unknown option, or a required one left out
    ["check", "--bogus", "space.json"], ["tree", "--dot", "--svg", "space.json"],
    ["--bogus"], ["--bogus", "check", "space.json"], ["transform", "space.json"],
    ["padic", "--points", "points.json"], ["bethe", "--prime", "3"],
    # a non-integer --prime or --depth
    ["padic", "--prime", "two", "--points", "points.json"],
    ["bethe", "--prime", "1.5", "--depth", "2"], ["bethe", "--prime", "3", "--depth", "x"],
    # help, no arguments, an unknown verb
    ["-h"], ["--help"], ["-h", "iso"], *([verb, "-h"] for verb in VERBS),
    [], ["frobnicate"], ["frobnicate", "space.json"], ["Check", "space.json"],
]


def test_the_verb_table_parser_answers_as_every_verb_parser(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "space.json").write_text(json.dumps(space_to_json(nested_four_point_space())))
    (tmp_path / "other.json").write_text(json.dumps(space_to_json(two_pair_space())))
    (tmp_path / "points.json").write_text(json.dumps([0, 1, 2, 3, "1/2"]))
    (tmp_path / "poset.json").write_text(
        json.dumps({"elements": ["X", "a", "b"], "covers": [[1, 0], [2, 0]]}))
    data = os.path.join(os.path.dirname(__file__), "data", "four_point_tree.json")
    (tmp_path / "tree.json").write_text(open(data).read())

    def outcome(argv):
        try:
            code = run(argv)
        except SystemExit as exc:   # argparse's errors and help
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    assert list(cli._VERBS) == list(VERBS)
    narrowed = [outcome(argv) for argv in PARSER_BATTERY]
    monkeypatch.setattr(cli, "build_parser", every_verb_parser)
    for argv, got in zip(PARSER_BATTERY, narrowed):
        assert got == outcome(argv), argv
    assert {code for code, _, _ in narrowed} == {0, 1, 2}


# tokens a well-formed request of some verb uses, and ones argparse reads its own way
PLAIN = ["space.json", "tree.json", "check", "a b", "x", "2", "quantize"]
VALUES = ["2", "3", "x", "1.5", "bound:3", "quantize", "a b", " 7", "٣", "1_0", "", "1" * 5000]
HOSTILE = ["-h", "--help", "--", "--fn=x", "--pri", "--dot=1", "--bogus", "-1", "- x", "-",
           "--prime", "--fn", "--dot", "--sphere", "--depth", "--top", "--points", "-x"]


@st.composite
def verb_argv(draw):
    """A verb's arguments in any order, each valued option with a value, then a few edits."""
    verb = draw(st.sampled_from(VERBS))
    pieces = []
    for arg in cli._VERBS[verb][2]:
        if isinstance(arg, str):
            pieces.append([draw(st.sampled_from(PLAIN + VALUES))])
        elif arg[1].get("required") or draw(st.booleans()):
            name, spec = arg
            pieces.append([name] if "action" in spec else [name, draw(st.sampled_from(VALUES))])
    tokens = [token for piece in draw(st.permutations(pieces)) for token in piece]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["insert", "delete", "repeat"]))
        if edit == "insert":
            tokens.insert(at, draw(st.sampled_from(HOSTILE + PLAIN + VALUES)))
        elif tokens and edit == "delete":
            del tokens[min(at, len(tokens) - 1)]
        elif tokens:
            tokens.append(tokens[min(at, len(tokens) - 1)])
    return [verb] + tokens


def test_the_verb_table_reads_argv_as_argparse_does(capsys):
    outcomes = set()

    @settings(max_examples=1500, derandomize=True, deadline=None)
    @given(argv=verb_argv())
    def check(argv):
        args = cli._read_argv(argv)
        outcomes.add(args is not None)
        if args is not None:
            assert vars(every_verb_parser().parse_args(argv)) == vars(args), argv
            assert capsys.readouterr() == ("", ""), argv

    check()
    assert outcomes == {True, False}
    assert all(cli._read_argv(argv) for argv in WELL_FORMED)


def test_the_process_writes_what_run_writes_to_a_pipe_and_a_file(tmp_path, capsys):
    tree = os.path.join(os.path.dirname(__file__), "data", "four_point_tree.json")
    assert run(["reconstruct", tree]) == 0
    files = {"space.json": capsys.readouterr().out, "points.json": json.dumps([0, 1, 2, 3, "1/2"]),
             "poset.json": json.dumps({"elements": ["X", "a", "b"], "covers": [[1, 0], [2, 0]]})}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    space, points, poset = (str(tmp_path / name) for name in files)
    requests = [[verb, space] for verb in ("check", "dset", "balls", "tree", "roundtrip")] + [
        ["tree", "--dot", space], ["iso", space, space], ["weaksim", space, space],
        ["reconstruct", tree], ["representable", tree], ["posetcheck", poset],
        ["transform", "--fn", "quantize", space], ["padic", "--prime", "2", "--points", points],
        ["bethe", "--prime", "3", "--depth", "2"]]
    assert sorted({argv[0] for argv in requests}) == sorted(VERBS)
    for argv in requests:
        code, out, err = invoke(capsys, *argv)
        assert code == 0, (argv, err)
        expected = (code, out.encode(), err.encode())
        piped = script(*argv, capture_output=True)
        assert (piped.returncode, piped.stdout, piped.stderr) == expected, argv
        with open(tmp_path / "out.txt", "wb") as fh:
            filed = script(*argv, stdout=fh, stderr=subprocess.PIPE)
        assert (filed.returncode, (tmp_path / "out.txt").read_bytes(), filed.stderr) == expected


def test_a_closed_stdout_is_an_internal_error_without_a_traceback(space_file):
    read, write = os.pipe()
    os.close(read)   # every write to the pipe fails with EPIPE
    try:
        proc = script("tree", space_file, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (
        3, "internal error: BrokenPipeError: [Errno 32] Broken pipe\n")
    # no descriptor 1 at all: `sys.stdout` is None, and the exit flushes nothing
    proc = script("dset", space_file, stderr=subprocess.PIPE, text=True,
                  preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (
        3, "internal error: AttributeError: 'NoneType' object has no attribute 'write'\n")


@pytest.mark.parametrize("argv", [["-h"], ["check", "-h"], ["bethe", "--help"], ["check"],
                                  ["tree", "--dot=1", "space.json"], ["padic", "--prime", "x"]])
def test_help_and_usage_errors_keep_argparse_text_and_exit_codes(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps help to the terminal's width
    with pytest.raises(SystemExit) as exc:
        run(argv)
    out, err = capsys.readouterr()
    assert exc.value.code in (0, 2) and (exc.value.code == 0) == bool(out)
    proc = script(*argv, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (exc.value.code, out, err)
    assert "Traceback" not in proc.stderr
