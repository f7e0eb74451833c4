"""The input rules every module shares, and the CLI refusals they give.

A JSON document must be an object holding each of its required keys, and
each of those must hold an array, as must each row of a matrix: a string
or an object there would be read element by element.  Every verb that reads a document refuses a
malformed one the same way, `check` included.  Positive rational
arguments keep one message per call site.  Point ids (a ball payload's
among them), primes, depths and sample points are ints, a tree's
`ball_points` is an array of arrays, its `truncated` flag
is JSON true or false when present, and an entry past the int digit limit is
refused by the part that is too long.
"""

from __future__ import annotations

import json
import re

import pytest

from ultratree import (
    Ball,
    PiecewiseLinearFn,
    RootedLabeledTree,
    bethe_ball_tree,
    bound_transform,
    build_representing_tree,
    closed_ball,
    diam,
    diametrical_partition,
    edge_characterization_check,
    hausdorff_distance,
    is_prime,
    make_space,
    p_valuation,
    padic_ball_tree_vs_sample,
    padic_space,
    residue_partition_check,
    smallest_enclosing_ball,
    space_to_json,
    sphere_tree,
    threshold_function,
    threshold_partition,
    tree_from_json,
    tree_to_json,
    unbound_transform,
    verify_tree_invariants,
)
from ultratree import tree_metric
from ultratree.cli import run
from ultratree.core import _subset_points
from util import count_calls, nested_four_point_space

SPACE = {"points": ["a", "b"], "matrix": [["0", "1"], ["1", "0"]]}
TREE = {"root": 0, "labels": ["1", "0", "0"], "edges": [[0, 1], [0, 2]]}
POSET = {"elements": ["X", "a", "b"], "covers": [[1, 0], [2, 0]]}

# kind, its keys, a well-formed document, and the verbs that read it
KINDS = [
    ("space", ("points", "matrix"), SPACE,
     [["check"], ["dset"], ["balls"], ["tree"], ["iso", None, "GOOD"], ["iso", "GOOD", None],
      ["weaksim", None, "GOOD"], ["transform", "--fn", "bound:2"], ["roundtrip"]]),
    ("tree", ("labels", "edges"), TREE, [["reconstruct"], ["representable"]]),
    ("poset", ("elements", "covers"), POSET, [["posetcheck"]]),
]


def malformed(kind, keys, good):
    """(document, message) pairs: a non-object, a missing key, a string or object array."""
    needs = f"{kind} JSON needs " + " and ".join(f'"{k}"' for k in keys)
    cases = [([1, 2], needs), ("abc", needs), (None, needs)]
    cases += [({k: v for k, v in good.items() if k != key}, needs) for key in keys]
    for key in keys:
        for value in ("ab" if key != "labels" else "100", {"a": 1, "b": 2}):
            cases.append((dict(good, **{key: value}), f'{kind} JSON "{key}" must be an array'))
    return cases


@pytest.mark.parametrize("kind, keys, good, verbs", KINDS, ids=[k[0] for k in KINDS])
def test_every_verb_refuses_a_malformed_document_alike(tmp_path, capsys, kind, keys, good,
                                                       verbs):
    good_path = tmp_path / "good.json"
    good_path.write_text(json.dumps(space_to_json(nested_four_point_space())))
    path = tmp_path / "doc.json"
    for doc, message in malformed(kind, keys, good):
        path.write_text(json.dumps(doc))
        errors = {}
        for verb in verbs:
            argv = [str(path) if a is None else str(good_path) if a == "GOOD" else a
                    for a in verb]
            if None not in verb:
                argv.append(str(path))
            code = run(argv)
            out, err = capsys.readouterr()
            assert (code, out, err) == (2, "", f"error: {path}: {message}\n"), (argv, doc)
            errors[verb[0]] = err
        if kind == "space":
            assert errors["check"] == errors["dset"]


def test_a_number_array_stays_with_the_reader(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(SPACE, points=3)))
    for verb in ("check", "dset"):
        assert run([verb, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: 'int' object is not iterable\n"


@pytest.mark.parametrize("row", ["10", {"1": 0, "0": 1}], ids=["string", "object"])
def test_a_string_or_object_matrix_row_is_refused(tmp_path, capsys, row):
    # read element by element, either would load as a valid 2-point space
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(SPACE, matrix=[["0", "1"], row])))
    for verb in ("check", "dset", "tree"):
        assert run([verb, str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: matrix row 1 must be an array\n")
    with pytest.raises(ValueError, match="^matrix row 1 must be an array$"):
        make_space(["a", "b"], [["0", "1"], row])


@pytest.mark.parametrize("value", [0, -1, "0/5"])
@pytest.mark.parametrize("call, message", [
    (lambda v: threshold_partition(nested_four_point_space(), v), "threshold must be positive"),
    (threshold_function, "threshold must be positive"),
    (lambda v: bound_transform(nested_four_point_space(), v), "d_star must be positive"),
    (lambda v: unbound_transform(nested_four_point_space(), v), "d_star must be positive"),
    (lambda v: bethe_ball_tree(2, 2, v), "top label must be positive"),
    (lambda v: sphere_tree(3, 2, v), "top label must be positive"),
    (lambda v: PiecewiseLinearFn([(0, 0), (1, 1)], v), "tail slope must be positive"),
], ids=["threshold_partition", "threshold_function", "bound_transform",
        "unbound_transform", "bethe_ball_tree", "sphere_tree", "PiecewiseLinearFn"])
def test_positive_arguments_keep_their_messages(call, message, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert type(info.value) is ValueError and str(info.value) == message


def test_piecewise_linear_fn_reports_its_tail_slope_after_its_breakpoints():
    # the tail slope is parsed first and checked last
    with pytest.raises(ValueError, match="^Invalid literal for Fraction: 'x'$"):
        PiecewiseLinearFn([(0, 0), (1, 0)], "x")
    with pytest.raises(ValueError, match="^breakpoints must be strictly increasing$"):
        PiecewiseLinearFn([(0, 0), (1, 0)], 0)
    with pytest.raises(ValueError, match="^must start at the origin$"):
        PiecewiseLinearFn([(1, 1)], -1)


def test_piecewise_linear_fn_without_breakpoints_does_not_start_at_the_origin():
    with pytest.raises(ValueError, match="^must start at the origin$"):
        PiecewiseLinearFn([], 1)


@pytest.mark.parametrize("argv", [
    ["bethe", "--prime", "2", "--depth", "2", "--top", "0"],
    ["bethe", "--prime", "3", "--depth", "2", "--top", "-1", "--sphere"],
])
def test_bethe_refuses_a_nonpositive_top_label(capsys, argv):
    assert run(argv) == 2
    assert capsys.readouterr() == ("", "error: top label must be positive\n")


@pytest.mark.parametrize("bad", [2.5, 3.9, 3.0, "3", True],
                         ids=["float", "float-above", "whole-float", "str", "bool"])
@pytest.mark.parametrize("call", [
    lambda p: padic_space([0, 1, 2, 3], p), lambda p: p_valuation(12, p),
    lambda p: residue_partition_check([0, 1, 2], p), lambda p: bethe_ball_tree(p, 1, 1),
    lambda p: sphere_tree(p, 1, 1), lambda p: padic_ball_tree_vs_sample(p, 1),
    lambda p: [is_prime(q) for q in (3, 1, p)],
], ids=["padic_space", "p_valuation", "residue_partition_check", "bethe_ball_tree",
        "sphere_tree", "padic_ball_tree_vs_sample", "is_prime"])
def test_a_prime_is_an_int(call, bad):
    # truncated, 2.5 would answer as the prime 2 and "3" as 3; `is_prime`
    # tests 3 and 1 first, whose verdicts an untyped cache gives 3.0 and True
    with pytest.raises(ValueError, match=rf"^the prime must be an int, not {re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("bad", [True, 1.0, 2.5, "1"], ids=["bool", "whole-float", "float", "str"])
@pytest.mark.parametrize("call", [
    lambda depth: bethe_ball_tree(2, depth, 1), lambda depth: sphere_tree(3, depth, 1),
    lambda depth: padic_ball_tree_vs_sample(2, depth),
], ids=["bethe_ball_tree", "sphere_tree", "padic_ball_tree_vs_sample"])
def test_a_depth_is_an_int(call, bad):
    with pytest.raises(ValueError, match=rf"^depth must be an int, not {re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("bad", [True, 0.0, "a", -1, 4, 99],
                         ids=["bool", "float", "str", "negative", "out-of-range", "far-out"])
def test_point_ids_are_ints(bad):
    space = nested_four_point_space()
    message = rf"^point {re.escape(repr(bad))} is not an index in range\(4\)$"
    good, wrong = Ball([0], 0, 0, 0), Ball([bad], 0, bad, 0)
    tree = build_representing_tree(space)
    # as list indices, a payload's -1 read point 3, True point 1, and 99 raised IndexError
    payloads = [[1, 2, bad] if p == (1, 2, 3) else p for p in tree.ball_points]
    wrong_tree = RootedLabeledTree(tree.labels, tree.edges, root=tree.root, ball_points=payloads)
    for call in (lambda: diam(space, [bad, 0]), lambda: diametrical_partition(space, [0, bad]),
                 lambda: closed_ball(space, bad, 1), lambda: smallest_enclosing_ball(space, [bad]),
                 lambda: hausdorff_distance(space, good, wrong),
                 lambda: hausdorff_distance(space, wrong, good),
                 lambda: edge_characterization_check(space, wrong_tree)):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("change", [(), (0, 0), (4,), (-1,), (True,), (1.0,), ("1",), (1, 1.5)],
                         ids=["empty", "repeat", "past-n", "negative", "bool", "float", "str",
                              "int-then-float"])
def test_ball_payloads_are_checked_at_once_and_refused_by_the_first_offender(monkeypatch, change):
    # every payload valid: one pass over all of them, no per-payload check
    space = nested_four_point_space()
    tree = build_representing_tree(space)
    counts = count_calls(monkeypatch, tree_metric, ("_subset_points",))
    assert edge_characterization_check(space, tree) and counts == {"_subset_points": 0}
    # a bad payload, alone or ahead of another: refused as the per-payload check refuses it
    with pytest.raises(ValueError) as want:
        _subset_points(space, change, "a ball payload")
    for later in ((1,), (9,)):
        payloads = [change if v == 2 else later if v == 4 else p for v, p in enumerate(tree.ball_points)]
        wrong_tree = RootedLabeledTree(tree.labels, tree.edges, root=tree.root, ball_points=payloads)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            edge_characterization_check(space, wrong_tree)


@pytest.mark.parametrize("sample", [[0.5, 1, 2], [0, 1, 2.9], [True, 2, 3], ["0", "1", "3"]],
                         ids=["float", "float-above", "bool", "str"])
def test_a_sample_point_is_an_int(sample):
    # truncated by int(), each sample passed the check at p = 2
    bad = next(v for v in sample if type(v) is not int)
    with pytest.raises(ValueError, match=rf"^a sample point must be an int, not {re.escape(repr(bad))}$"):
        residue_partition_check(sample, 2)


def test_hausdorff_distance_refuses_a_point_outside_a_multi_point_ball():
    space = nested_four_point_space()
    with pytest.raises(ValueError, match=r"^point 7 is not an index in range\(4\)$"):
        hausdorff_distance(space, Ball([0, 7], 2, 0, 2), Ball([1], 0, 1, 0))


@pytest.mark.parametrize("ball_points, message", [
    ("abc", "ball_points must be an array"),
    ({"a": 1, "b": 2, "c": 3}, "ball_points must be an array"),
    (["ab", [1], [2]], "a ball_points payload must be an array"),
    ([[1, 2], [1], {"2": 2}], "a ball_points payload must be an array"),
], ids=["string", "object", "string-payload", "object-payload"])
def test_ball_points_are_arrays_of_arrays(tmp_path, capsys, ball_points, message):
    with pytest.raises(ValueError) as info:
        RootedLabeledTree(TREE["labels"], TREE["edges"], root=0, ball_points=ball_points)
    assert str(info.value) == message
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(dict(TREE, ball_points=ball_points)))
    for verb in ("reconstruct", "representable"):
        assert run([verb, str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


@pytest.mark.parametrize("entry, part", [
    ("1" * 5000, "numerator"), ("0." + "1" * 5000, "numerator"), ("1/" + "1" * 5000, "denominator"),
    ("1e" + "1" * 5000, "numerator"), ("1e-" + "1" * 5000, "denominator"),
], ids=["integer", "decimal", "denominator", "exponent", "negative-exponent"])
def test_an_entry_past_the_digit_limit_names_its_part(tmp_path, capsys, entry, part):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dict(SPACE, matrix=[["0", entry], [entry, "0"]])))
    assert run(["dset", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {part} of '{entry[:60]}' exceeds the limit "
                                   "(4300 digits) for integer string conversion\n")


def test_a_tree_audit_needs_an_ultrametric_space():
    # the audit splits balls without checking the strong triangle inequality
    metric = make_space("abc", [[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    tree = build_representing_tree(make_space("abc", [[0, 1, 3], [1, 0, 3], [3, 3, 0]]))
    with pytest.raises(TypeError, match="^tree audits need a FiniteUltrametricSpace$"):
        verify_tree_invariants(tree, metric)


@pytest.mark.parametrize("truncated", ["false", "true", 0, 1, None, [], {}],
                         ids=["false-string", "true-string", "zero", "one", "null", "array", "object"])
def test_a_tree_is_truncated_only_by_json_true_or_false(tmp_path, capsys, truncated):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(dict(TREE, truncated=truncated)))
    for verb in ("reconstruct", "representable"):
        assert run([verb, str(path)]) == 2
        assert capsys.readouterr() == ("", f'error: {path}: tree JSON "truncated" must be true or false\n')


@pytest.mark.parametrize("doc, truncated", [(TREE, False), (dict(TREE, truncated=False), False),
                                            (dict(TREE, truncated=True), True)],
                         ids=["absent", "false", "true"])
def test_a_tree_keeps_its_truncated_flag_through_json(doc, truncated):
    tree = tree_from_json(doc)
    assert tree.truncated is truncated
    assert tree_to_json(tree).get("truncated", False) is truncated
