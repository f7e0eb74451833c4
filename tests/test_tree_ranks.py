"""Trees keep their labels ranked, as spaces keep their distances.

Every construction ranks the labels once: `label_values` rise strictly and
`label_values[label_rank[v]]` is vertex v's label.  The consumers that read
the ranks (`canonical_code`, `is_monotone_labeling`, `path_max_metric`) and
`core._gap_rows` are checked against the implementations they replaced,
kept in `util` as oracles.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

from ultratree import (
    FiniteUltrametricSpace,
    PseudoUltrametricSpace,
    RootedLabeledTree,
    bethe_ball_tree,
    build_representing_tree,
    canonical_code,
    check_representable,
    is_monotone_labeling,
    padic_ball_tree_vs_sample,
    path_max_metric,
    sphere_tree,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
)
from ultratree import core, repr_tree
from util import (
    caterpillar_matrix,
    check_from_ranks_handoff,
    count_calls,
    differential_spaces,
    flat_matrix,
    fraction_is_monotone_labeling,
    generator_canonical_code,
    padic_matrix,
    permuted,
    random_labeled_tree,
    random_monotone_tree,
    random_ultrametric_matrix,
    transpose_gap_rows,
    walk_path_max_metric,
)


def caterpillar_tree(n: int) -> RootedLabeledTree:
    """The representing tree of an n-point caterpillar, n - 1 levels deep, built directly."""
    labels = [n - 1 - i for i in range(n - 1)] + [0] * n
    edges = [(i - 1, i) for i in range(1, n - 1)] + [(i, n - 1 + i) for i in range(n - 1)]
    return RootedLabeledTree(labels, edges + [(n - 2, 2 * n - 2)], root=0)


def rerooted(rng: random.Random, tree: RootedLabeledTree) -> RootedLabeledTree:
    return RootedLabeledTree(tree.labels, tree.edges, root=rng.randrange(tree.n))


def shifted(tree: RootedLabeledTree, step) -> RootedLabeledTree:
    """`tree` with `step` added to every label: no label is 0 when step > 0."""
    return RootedLabeledTree([l + step for l in tree.labels], tree.edges, root=tree.root)


def bench_shape_trees(rng: random.Random) -> list[RootedLabeledTree]:
    """Representing trees of the bench shapes, plain and permuted, and
    caterpillar trees 300 and 400 levels deep."""
    matrices = [random_ultrametric_matrix(rng, 96), flat_matrix(128), caterpillar_matrix(128),
                padic_matrix(2, 7), padic_matrix(3, 5)]
    trees = [build_representing_tree(FiniteUltrametricSpace([f"p{i}" for i in range(len(m))], m))
             for matrix in matrices for m in (matrix, permuted(rng, matrix))]
    return trees + [caterpillar_tree(301), caterpillar_tree(401)]


def padic_trees() -> list[RootedLabeledTree]:
    return ([bethe_ball_tree(p, depth, top) for p, depth in ((2, 5), (3, 3), (5, 2))
             for top in (1, Fraction(7, 3))]
            + [sphere_tree(p, depth, 1) for p, depth in ((2, 4), (3, 3), (7, 2))])


def edge_case_trees(rng: random.Random) -> list[RootedLabeledTree]:
    """Trees with no label 0, trees labeled 0 throughout, and monotone trees
    with one leaf raised above 0."""
    trees = []
    for _ in range(100):
        tree = random_monotone_tree(rng, rng.randint(1, 30))
        trees.append(shifted(tree, Fraction(rng.randint(1, 5), rng.randint(1, 3))))
        trees.append(RootedLabeledTree([0] * tree.n, tree.edges, root=tree.root))
        leaf = rng.choice([v for v in range(tree.n) if tree.out_degree(v) == 0])
        labels = list(tree.labels)
        labels[leaf] = Fraction(1, 10 ** 6)
        trees.append(RootedLabeledTree(labels, tree.edges, root=tree.root))
    return trees


def test_canonical_code_matches_the_generator_recursion():
    rng = random.Random(1801)
    trees = [build_representing_tree(s) for s in differential_spaces(rng, 100)]
    trees += bench_shape_trees(rng) + padic_trees()
    trees += [random_monotone_tree(rng, rng.randint(1, 60)) for _ in range(300)]
    trees += [rerooted(rng, random_labeled_tree(rng, rng.randint(1, 60))) for _ in range(300)]
    trees += edge_case_trees(rng)
    for tree in trees:
        assert canonical_code(tree).text == generator_canonical_code(tree).text


def test_monotone_labeling_matches_the_fraction_test():
    rng = random.Random(1802)
    trees = [build_representing_tree(s) for s in differential_spaces(rng, 40)]
    trees += padic_trees() + edge_case_trees(rng)
    trees += [rerooted(rng, random_labeled_tree(rng, rng.randint(1, 40))) for _ in range(300)]
    kinds = set()
    for tree in trees:
        got = is_monotone_labeling(tree)
        assert got == fraction_is_monotone_labeling(tree)
        kinds.add("ok" if got[0] else "positive leaf" if "leaf" in got[1] else "rises")
        if not got[0] and tree.label_values[0] > 0:
            kinds.add("no label 0")
    assert kinds == {"ok", "positive leaf", "rises", "no label 0"}


def test_gap_rows_match_the_transpose():
    rng = random.Random(1803)
    cases = [[0], [0, 0], [0, 5], [0, 1, 2], [0, 2, 1], [0, 0, 0], [0, 3, 3]]
    for n in (4, 17, 64, 128, 400):
        cases += [[0] + list(range(1, n)), [0] + list(range(n - 1, 0, -1)), [0] + [7] * (n - 1),
                  [0] + [0] * (n - 1)]
        cases += [[0] + [rng.randint(0, k) for _ in range(n - 1)] for k in (1, 4, n)]
    for gaps in cases:
        assert core._gap_rows(gaps) == transpose_gap_rows(gaps)


def test_path_max_metric_matches_the_walk_without_a_zero_label():
    rng = random.Random(1804)
    kinds = set()
    for tree in edge_case_trees(rng):
        got, want = path_max_metric(tree), walk_path_max_metric(tree)
        kinds.add(type(want))
        assert type(got) is type(want)
        assert (got.names, got.matrix) == (want.names, want.matrix)
        if isinstance(want, PseudoUltrametricSpace):
            assert got.zero_pair == want.zero_pair
        else:
            assert (got.distance_values, got.rank) == (want.distance_values, want.rank)
    assert kinds == {FiniteUltrametricSpace, PseudoUltrametricSpace}


def assert_ranked(tree: RootedLabeledTree) -> None:
    values, rank = tree.label_values, tree.label_rank
    assert all(a < b for a, b in zip(values, values[1:]))
    assert len(rank) == tree.n and set(rank) == set(range(len(values)))
    assert all(values[r] == l for r, l in zip(rank, tree.labels))


def test_every_tree_keeps_its_labels_ranked(monkeypatch):
    rng = random.Random(1805)
    trees = [build_representing_tree(s) for s in differential_spaces(rng, 40)]
    trees += padic_trees() + edge_case_trees(rng)
    # one value written four ways, ints, and labels that repeat
    docs = [{"root": 1, "labels": ["1/2", "0.5", "2/4", 0, "0", 3, "3/1"],
             "edges": [[0, 1], [1, 2], [1, 3], [0, 4], [2, 5], [5, 6]]}]
    docs += [tree_to_json(random_monotone_tree(rng, rng.randint(1, 40))) for _ in range(50)]
    trees += [tree_from_json(doc) for doc in docs]
    seen = []   # the trees check_representable re-roots and the p-adic comparison builds
    build = RootedLabeledTree._from_ranks.__func__

    def recorded(cls, *args, **kwargs):
        seen.append(build(cls, *args, **kwargs))
        return seen[-1]
    # `check_representable` re-roots, and `padic` builds, through `_from_ranks`
    monkeypatch.setattr(RootedLabeledTree, "_from_ranks", classmethod(recorded))
    for tree in trees:
        check_representable(tree)
    rerooted_count = len(seen)
    for p, depth in ((2, 4), (3, 3), (5, 2)):
        assert padic_ball_tree_vs_sample(p, depth)
    # three trees a comparison: the sample's, the Bethe tree, and its collapse
    assert rerooted_count > 100 and len(seen) == rerooted_count + 9
    for tree in trees + seen:
        assert_ranked(tree)


def test_each_distinct_label_is_parsed_and_printed_once(monkeypatch):
    rng = random.Random(1806)
    tree = random_monotone_tree(rng, 200)
    doc = tree_to_json(tree)
    counts = count_calls(monkeypatch, core, ("parse_rational",))
    assert tree_to_json(tree_from_json(doc)) == doc
    assert counts["parse_rational"] == len(set(doc["labels"]))
    counts = count_calls(monkeypatch, repr_tree, ("format_rational",))
    assert doc["labels"] == [str(l) for l in tree.labels]
    assert tree_to_json(tree) == doc
    dot = tree_to_dot(tree)
    assert all(f'  v{v} [label="{l}"' in dot for v, l in enumerate(doc["labels"]))
    assert counts["format_rational"] == 2 * len(tree.label_values)


FROM_RANKS_CALLERS = {"build_representing_tree", "check_representable", "_bethe_tree",
                      "padic_ball_tree_vs_sample"}


def test_every_caller_hands_from_ranks_ranked_labels(monkeypatch):
    # the label parse `_from_ranks` skips, checked on every hand-off instead
    build = RootedLabeledTree._from_ranks.__func__
    calls = dict.fromkeys(FROM_RANKS_CALLERS, 0)

    def checked(cls, label_values, label_rank, edges, *args, **kwargs):
        edges = list(edges)   # build_representing_tree hands over an iterator
        tree = build(cls, label_values, label_rank, edges, *args, **kwargs)
        check_from_ranks_handoff(tree, label_values, label_rank, edges, *args, **kwargs)
        calls[sys._getframe(1).f_code.co_name] += 1
        return tree
    monkeypatch.setattr(RootedLabeledTree, "_from_ranks", classmethod(checked))
    rng = random.Random(1807)
    trees = [build_representing_tree(s) for s in differential_spaces(rng, 40)]
    trees += bench_shape_trees(rng) + padic_trees() + edge_case_trees(rng)
    trees += [rerooted(rng, random_labeled_tree(rng, rng.randint(1, 40))) for _ in range(100)]
    for tree in trees:
        check_representable(tree)
    for p, depth in ((2, 0), (2, 4), (3, 3), (5, 2)):
        assert padic_ball_tree_vs_sample(p, depth)
    assert set(calls) == FROM_RANKS_CALLERS and min(calls.values()) > 0, calls


def test_from_ranks_handoff_check_refuses_a_bad_hand_off():
    edges = [(0, 1), (0, 2)]
    tree = RootedLabeledTree([2, 0, 1], edges, root=0)
    check_from_ranks_handoff(tree, (0, 1, 2), (2, 0, 1), edges, root=0)
    for values, rank, message in [((0, 2, 1), (1, 0, 2), "rise"), ((0, 0, 2), (2, 0, 1), "rise"),
                                  ((0, 1, 2, 3), (3, 0, 1), "use every"),
                                  ((0, 1, 2), (2, 0, 3), "use every"),
                                  ((0, 1, 2), (2, 1, 0), "labels differs")]:
        with pytest.raises(ValueError, match=message):
            check_from_ranks_handoff(tree, values, rank, edges, root=0)
    with pytest.raises(ValueError, match="root differs"):
        check_from_ranks_handoff(tree, (0, 1, 2), (2, 0, 1), edges, root=1)


def test_library_built_trees_parse_no_label(monkeypatch):
    rng = random.Random(1808)
    spaces = differential_spaces(rng, 20)
    free = [random_labeled_tree(rng, rng.randint(1, 30)) for _ in range(20)]
    parses = count_calls(monkeypatch, core, ("parse_rational",))
    entries = count_calls(monkeypatch, repr_tree, ("_parse_entries",))   # the constructor's parse
    for space in spaces:
        check_representable(build_representing_tree(space))
    for tree in free:
        check_representable(tree)
    assert parses == {"parse_rational": 0}
    # the one parse left is `_positive` reading the top label `bethe_ball_tree` or `sphere_tree` gets
    for build in (lambda: bethe_ball_tree(3, 3, Fraction(7, 3)), lambda: sphere_tree(2, 4, "1/2"),
                  lambda: sphere_tree(5, 2, 1), lambda: padic_ball_tree_vs_sample(3, 3)):
        parses["parse_rational"] = 0
        build()
        assert parses == {"parse_rational": 1}
    assert entries == {"_parse_entries": 0}
