from __future__ import annotations

import json
import random
import sys
import threading
from fractions import Fraction

import pytest

from ultratree import (
    RootedLabeledTree,
    ballean,
    build_representing_tree,
    edge_characterization_check,
    make_space,
    space_from_sequence,
    spaces_isometric,
    tree_from_json,
    tree_order,
    tree_to_dot,
    tree_to_json,
    verify_tree_invariants,
)
from ultratree import FiniteUltrametricSpace
from ultratree.repr_tree import TreeOrder, _diametrical_splits
from util import (
    bfs_tree_maps,
    caterpillar_matrix,
    differential_spaces,
    equilateral_space,
    flat_matrix,
    greedy_diametrical_splits,
    nested_four_point_space,
    padic_matrix,
    path_set_order,
    permuted,
    random_labeled_tree,
    random_monotone_tree,
    random_ultrametric_matrix,
    random_ultrametric_space,
    relabeled,
    top_down_tree,
    tree_order_failures,
)


def test_four_point_tree_shape():
    space = nested_four_point_space()
    tree = build_representing_tree(space)
    assert tree.n == 6
    assert tree.root == 0
    assert tree.labels[0] == 2
    assert sorted(tree.levels()) == [0, 1, 1, 2, 2, 2]
    internal = [v for v in range(tree.n) if tree.labels[v] == 1]
    assert len(internal) == 1
    assert len(tree.children_map()[internal[0]]) == 3
    assert [tree.labels[c] for c in tree.children_map()[internal[0]]] == [0, 0, 0]


def test_single_point_tree():
    space = random_ultrametric_space(random.Random(0), 1)
    tree = build_representing_tree(space)
    assert tree.n == 1 and tree.edges == () and tree.labels == (Fraction(0),)


def test_padic_sample_tree_is_binary_with_halving_labels():
    # 2-adic distances on {0,1,2,3}: a depth-2 binary tree
    from ultratree import padic_space

    tree = build_representing_tree(padic_space(range(4), 2))
    assert tree.n == 7
    levels = tree.levels()
    by_level = {}
    for v, lev in enumerate(levels):
        by_level.setdefault(lev, []).append(tree.labels[v])
    assert by_level[0] == [Fraction(1)]
    assert by_level[1] == [Fraction(1, 2), Fraction(1, 2)]
    assert by_level[2] == [Fraction(0)] * 4


def test_tree_constructor_validates():
    with pytest.raises(ValueError):
        RootedLabeledTree([1, 0], [])          # disconnected
    with pytest.raises(ValueError):
        RootedLabeledTree([1, 0, 0], [(0, 1), (1, 2), (0, 2)])  # cycle
    with pytest.raises(ValueError):
        RootedLabeledTree([1, -1], [(0, 1)])   # negative label
    with pytest.raises(ValueError, match="^refusing boolean True; pass a number or string$"):
        RootedLabeledTree([True, 0], [(0, 1)])
    with pytest.raises(ValueError):
        RootedLabeledTree([1, 0], [(0, 1)], root=5)
    for root in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="not a vertex index"):
            RootedLabeledTree([1, 0], [(0, 1)], root=root)
    for edge in ((0.0, 1), (0, True), ("0", 1)):
        with pytest.raises(ValueError, match="bad edge"):
            RootedLabeledTree([1, 0], [edge])
    assert RootedLabeledTree([1, 0], [(0, 1)], root=1).root == 1


def test_connectivity_is_checked_before_the_root():
    # the walk starts at a valid root, and at vertex 0 otherwise
    cyclic = [(0, 1), (1, 2), (0, 2)]   # vertex 3 is left out
    for root in (None, 9, True, 0, 3):
        with pytest.raises(ValueError, match="do not connect"):
            RootedLabeledTree([1, 0, 0, 0], cyclic, root=root)


def test_rooted_maps_match_a_fresh_walk():
    rng = random.Random(24)
    for _ in range(300):
        free = random_labeled_tree(rng, rng.randint(1, 30))
        root = rng.randrange(free.n)
        tree = RootedLabeledTree(free.labels, free.edges, root=root)
        parent, depth, kids = bfs_tree_maps(tree, root)
        assert tree.parent_map() == parent
        assert tree.levels() == depth
        assert tree.children_map() == kids
        assert [tree.out_degree(v) for v in range(tree.n)] == list(map(len, kids))
    for rooted_only in (free.parent_map, free.levels, free.children_map):
        with pytest.raises(ValueError, match="needs a rooted tree"):
            rooted_only()
    with pytest.raises(ValueError, match="needs a rooted tree"):
        free.out_degree(0)


def test_the_one_walk_is_a_preorder_with_children_ascending():
    rng = random.Random(25)
    trees = [build_representing_tree(s) for s in differential_spaces(rng, 30)]
    trees += [random_monotone_tree(rng, rng.randint(1, 40)) for _ in range(200)]
    trees += [relabeled(rng, t) for t in trees]
    for _ in range(100):
        free = random_labeled_tree(rng, rng.randint(1, 30))
        trees += [free, RootedLabeledTree(free.labels, free.edges, root=rng.randrange(free.n))]
    for tree in trees:
        pre, start = tree._pre, tree.root if tree.root is not None else 0
        parent, depth, kids = bfs_tree_maps(tree, start)
        assert sorted(pre) == list(range(tree.n)) and pre[0] == start
        assert (tree._parent, tree._depth) == (parent, depth)
        place = {v: i for i, v in enumerate(pre)}
        assert all(place[p] < place[v] for v, p in enumerate(parent) if p is not None)
        assert all([place[c] for c in k] == sorted(place[c] for c in k) for k in kids)
        for u, v in zip(pre, pre[1:]):   # depth first: v hangs off the path to u
            w = u
            while depth[w] >= depth[v]:
                w = parent[w]
            assert w == parent[v]


def test_invariants_pass_on_worked_example_and_random_spaces():
    space = nested_four_point_space()
    tree = build_representing_tree(space)
    report = verify_tree_invariants(tree, space)
    assert report.ok, report.failures()

    rng = random.Random(21)
    for _ in range(50):
        space = random_ultrametric_space(rng, rng.randint(1, 20))
        tree = build_representing_tree(space)
        report = verify_tree_invariants(tree, space)
        assert report.ok, report.failures()


def test_invariants_catch_an_injected_degree_two_vertex():
    space = nested_four_point_space()
    tree = build_representing_tree(space)
    # subdivide the root edge to vertex 1: the new vertex has out-degree 1
    mid = (tree.labels[0] + tree.labels[1]) / 2
    labels = list(tree.labels) + [mid]
    edges = [e for e in tree.edges if e != (0, 1)] + [(0, 6), (1, 6)]
    points = list(tree.ball_points) + [tree.ball_points[1]]
    bad = RootedLabeledTree(labels, edges, root=0, ball_points=points)
    report = verify_tree_invariants(bad, space)
    assert not report.ok
    names = {e.name for e in report.failures()}
    assert "out-degree-never-one" in names


def test_invariants_catch_a_label_that_is_not_the_diameter():
    space = nested_four_point_space()
    tree = build_representing_tree(space)
    for v in (0, tree.leaves()[-1]):
        labels = list(tree.labels)
        labels[v] += 3
        bad = RootedLabeledTree(labels, tree.edges, root=0, ball_points=tree.ball_points)
        failed = {e.name: e.witness for e in verify_tree_invariants(bad, space).failures()}
        assert failed["labels-are-diameters"] == f"vertex {v}"


def test_invariants_report_payloads_that_are_not_balls():
    space = nested_four_point_space()
    tree = build_representing_tree(space)
    leaf = tree.leaves()[-1]
    (p,) = tree.ball_points[leaf]
    for payload in ((p, p), (7,), (-1,), (p, 9)):
        points = list(tree.ball_points)
        points[leaf] = payload
        bad = RootedLabeledTree(tree.labels, tree.edges, root=0, ball_points=points)
        failed = {e.name: e.witness for e in verify_tree_invariants(bad, space).failures()}
        assert list(failed) == ["vertices-equal-ballean"], payload
        assert failed["vertices-equal-ballean"] == \
            f"tree {tree.n} sets vs ballean {tree.n}, vertex {leaf} is not a ball"


def test_invariants_catch_a_missing_ball():
    # contracting an internal vertex into its parent leaves every payload a
    # ball, but that vertex's ball is no longer a vertex
    rng = random.Random(24)
    spaces = [nested_four_point_space()]
    spaces += [random_ultrametric_space(rng, rng.randint(3, 24)) for _ in range(20)]
    contracted = 0
    for space in spaces:
        tree = build_representing_tree(space)
        parent = tree.parent_map()
        for v in range(tree.n):
            p = parent[v]
            if p is None or tree.out_degree(v) == 0:
                continue
            keep = [u for u in range(tree.n) if u != v]
            new = {u: i for i, u in enumerate(keep)}
            new[v] = new[p]
            edges = [(new[a], new[b]) for a, b in tree.edges if {a, b} != {v, p}]
            bad = RootedLabeledTree([tree.labels[u] for u in keep], edges, root=0,
                                    ball_points=[tree.ball_points[u] for u in keep])
            failed = {e.name: e.witness for e in verify_tree_invariants(bad, space).failures()}
            assert failed["vertices-equal-ballean"] == f"tree {tree.n - 1} sets vs ballean {tree.n}"
            contracted += 1
    assert contracted > 20


def test_diametrical_splits_match_the_greedy_oracle():
    rng = random.Random(25)
    spaces = differential_spaces(rng, 100)
    for matrix in (random_ultrametric_matrix(rng, 300), flat_matrix(256), caterpillar_matrix(300),
                   padic_matrix(3, 5), padic_matrix(2, 8)):
        for m in (matrix, permuted(rng, matrix)):
            spaces.append(FiniteUltrametricSpace([f"p{i}" for i in range(len(m))], m))
    spaces.append(equilateral_space(200))   # one ball of 200 singletons: 200 parts
    for space in spaces:
        assert _diametrical_splits(space) == greedy_diametrical_splits(space)
    assert _diametrical_splits(spaces[-1])[frozenset(range(200))] == (1, 200)


def test_audit_of_a_2000_point_caterpillar_reports_ok():
    space = space_from_sequence(range(1999, 0, -1))
    report = verify_tree_invariants(build_representing_tree(space), space)
    assert report.ok, report.failures()


def test_vertex_count_equals_ballean_size():
    rng = random.Random(22)
    for _ in range(30):
        space = random_ultrametric_space(rng, rng.randint(1, 24))
        tree = build_representing_tree(space)
        assert tree.n == len(ballean(space))
        assert tree.n <= 2 * len(space) - 1 or len(space) == 1


def test_labels_strictly_decrease_toward_leaves():
    rng = random.Random(23)
    for _ in range(30):
        space = random_ultrametric_space(rng, rng.randint(2, 20))
        tree = build_representing_tree(space)
        parent = tree.parent_map()
        for v, p in enumerate(parent):
            if p is not None:
                assert tree.labels[v] < tree.labels[p]
        for leaf in tree.leaves():
            if leaf != tree.root:
                assert tree.labels[leaf] == 0


def test_edge_characterization_examples():
    space = nested_four_point_space()
    tree = build_representing_tree(space)
    sets = [set(p) for p in tree.ball_points]
    idx = {frozenset(s): v for v, s in enumerate(sets)}
    edges = set(tree.edges)
    a, b = idx[frozenset({1})], idx[frozenset({1, 2, 3})]
    assert (min(a, b), max(a, b)) in edges
    c = idx[frozenset({0, 1, 2, 3})]
    assert (min(a, c), max(a, c)) not in edges
    assert edge_characterization_check(space, tree)


def test_edge_characterization_on_random_spaces():
    rng = random.Random(24)
    for _ in range(40):
        space = random_ultrametric_space(rng, rng.randint(1, 18))
        tree = build_representing_tree(space)
        assert edge_characterization_check(space, tree)


def test_tree_order_examples():
    space = nested_four_point_space()
    tree = build_representing_tree(space)
    order = tree_order(tree)
    sets = [frozenset(p) for p in tree.ball_points]
    idx = {s: v for v, s in enumerate(sets)}
    x2 = idx[frozenset({1})]
    mid = idx[frozenset({1, 2, 3})]
    whole = idx[frozenset({0, 1, 2, 3})]
    x1 = idx[frozenset({0})]
    assert order.leq(x2, mid) and order.leq(mid, whole) and order.leq(x2, whole)
    assert order.incomparable(x1, x2)
    for v in range(tree.n):
        assert order.leq(v, whole)
    assert {tuple(sorted(c)) for c in order.covers} == set(tree.edges)


def test_tree_order_verifies_on_random_trees():
    rng = random.Random(25)
    for _ in range(30):
        tree = build_representing_tree(random_ultrametric_space(rng, rng.randint(1, 16)))
        assert tree_order_failures(tree, tree_order(tree)) == []


def test_tree_order_matches_path_set_oracle():
    rng = random.Random(26)
    trees = [build_representing_tree(s) for s in differential_spaces(rng, 60)]
    trees += [random_monotone_tree(rng, rng.randint(1, 40)) for _ in range(200)]
    trees += [relabeled(rng, t) for t in trees]
    for tree in trees:
        order = tree_order(tree)
        paths, covers = path_set_order(tree)
        assert order.covers == covers
        assert all(order.leq(u, v) == (v in paths[u])
                   for u in range(tree.n) for v in range(tree.n))
        assert tree_order_failures(tree, order) == []


def test_tree_order_on_a_chain_numbered_child_below_parent():
    # vertex k's parent is k + 1, so sorted arcs run bottom up; the order
    # is u <= v iff u <= v as integers
    n = 2000
    tree = RootedLabeledTree(list(range(n)), [(k, k + 1) for k in range(n - 1)], root=n - 1)
    order = tree_order(tree)
    everything = (1 << n) - 1
    assert order.up == tuple(everything ^ ((1 << u) - 1) for u in range(n))
    assert order.covers == tuple((k, k + 1) for k in range(n - 1))
    assert order.leq(0, n - 1) and not order.leq(n - 1, 0) and order.leq(7, 7)
    assert tree_order_failures(tree, order) == []


def test_tree_order_audits_catch_mutated_orders():
    tree = build_representing_tree(random_ultrametric_space(random.Random(27), 12))
    order = tree_order(tree)
    assert tree_order_failures(tree, order) == []
    parent, root = order.parent, order.root
    # a leaf at depth at least 2, its parent and grandparent
    levels = tree.levels()
    leaf = next(v for v in tree.leaves() if levels[v] >= 2)
    mid, top = parent[leaf], parent[parent[leaf]]
    other = next(v for v in range(tree.n) if not order.comparable(v, leaf))

    def mutated(up_changes=(), covers=None):
        up = list(order.up)
        for v, mask in up_changes:
            up[v] ^= mask
        return TreeOrder(root, parent, tuple(up),
                         order.covers if covers is None else tuple(covers))

    cases = {
        "root-largest": mutated([(leaf, 1 << root)]),
        "upper-cover-is-parent": mutated([(leaf, 1 << mid)]),
        "closure-of-covers": mutated(covers=[c for c in order.covers if c[0] != leaf]),
        "covers-are-edges": mutated(covers=[(leaf, top) if c[0] == leaf else c
                                            for c in order.covers]),
        "order-is-ball-inclusion": mutated([(leaf, 1 << other)]),
    }
    for name, bad in cases.items():
        assert name in tree_order_failures(tree, bad), name


def test_tree_json_roundtrip_and_free_tree_root():
    space = nested_four_point_space()
    tree = build_representing_tree(space)
    payload = tree_to_json(tree)
    again = tree_from_json(json.loads(json.dumps(payload)))
    assert again.labels == tree.labels
    assert again.edges == tree.edges
    assert again.root == tree.root
    assert again.ball_points == tree.ball_points

    free = RootedLabeledTree([1, 0], [(0, 1)])
    assert tree_from_json(tree_to_json(free)).root is None
    with pytest.raises(ValueError):
        free.require_root()


def test_dot_export_marks_leaves():
    tree = build_representing_tree(nested_four_point_space())
    dot = tree_to_dot(tree)
    assert dot.startswith("graph tree {")
    assert dot.count("doublecircle") == 4
    assert "v0 -- v1;" in dot


def test_bottom_up_tree_matches_top_down_oracle():
    rng = random.Random(2000)
    for _ in range(2000):
        space = random_ultrametric_space(rng, rng.randint(1, 14))
        assert tree_to_json(build_representing_tree(space)) == tree_to_json(top_down_tree(space))


@pytest.mark.parametrize("shape", ["bushy", "flat", "caterpillar", "padic2", "padic3"])
def test_bottom_up_tree_matches_oracle_on_bench_shapes(shape):
    rng = random.Random(shape)
    matrix = {
        "bushy": lambda: random_ultrametric_matrix(rng, 96),
        "flat": lambda: flat_matrix(48),
        "caterpillar": lambda: caterpillar_matrix(112),
        "padic2": lambda: padic_matrix(2, 6),
        "padic3": lambda: padic_matrix(3, 4),
    }[shape]()
    for m in (matrix, permuted(rng, matrix)):
        space = FiniteUltrametricSpace([f"p{i}" for i in range(len(m))], m)
        assert tree_to_json(build_representing_tree(space)) == tree_to_json(top_down_tree(space))


def _with_deep_recursion(fn, *args):
    """`fn(*args)` in a thread with a raised recursion limit and a large stack.

    `canonical_code`, and so `spaces_isometric`, still recurses once per
    tree level; space and tree construction run at the default limit.
    """
    result = []
    limit = sys.getrecursionlimit()
    stack = threading.stack_size(64 << 20)
    try:
        sys.setrecursionlimit(10_000)
        worker = threading.Thread(target=lambda: result.append(fn(*args)))
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setrecursionlimit(limit)
        threading.stack_size(stack)
    assert not worker.is_alive() and len(result) == 1
    return result[0]


def test_index_reversed_caterpillar_of_2000_points_builds_without_recursion():
    # point i sits at value n-1-i, so every nested ball is entered at its
    # one far point: the deepest descent the single-linkage pass meets
    n = 2000
    ints = list(range(n))   # shared, so the matrix holds no int object per entry
    matrix = [[ints[0] if i == j else ints[n - 1 - min(i, j)] for j in range(n)]
              for i in range(n)]
    space = make_space([str(n - 1 - i) for i in range(n)], matrix)
    del matrix
    tree = build_representing_tree(space)
    assert isinstance(space, FiniteUltrametricSpace)
    assert space._order == ints and space._gaps == [0] + ints[:0:-1]
    assert tree.n == 2 * n - 1 and max(tree.levels()) == n - 1
    assert _with_deep_recursion(spaces_isometric, space, space_from_sequence(ints[:0:-1]))
