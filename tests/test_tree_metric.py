from __future__ import annotations

import random
from itertools import product

import pytest

from ultratree import repr_tree, tree_metric
from ultratree import (
    FiniteUltrametricSpace,
    PseudoUltrametricSpace,
    RootedLabeledTree,
    ballean,
    bethe_ball_tree,
    build_representing_tree,
    check_ballean_poset,
    check_representable,
    hausdorff_distance,
    is_monotone_labeling,
    is_ultrametric_triangle,
    maximal_chains,
    path_max_metric,
    reconstruct_space,
    spaces_isometric,
    sphere_plus_center_condition,
    sphere_tree,
)
from util import (
    all_roots_representable,
    caterpillar_matrix,
    count_calls,
    chain_scan_reconstruct,
    differential_spaces,
    equilateral_space,
    flat_matrix,
    nested_four_point_space,
    padic_matrix,
    partition_sphere_plus_center,
    permuted,
    random_labeled_tree,
    random_monotone_tree,
    random_ultrametric_matrix,
    random_ultrametric_space,
    relabeled,
    row_sort_ballean,
    stack_chains_and_partings,
    triple_loop_ballean_poset,
    two_pair_space,
)
from ultratree.repr_tree import _up_closure
from ultratree.tree_metric import PosetCheckReport


def star(center_label, leaf_labels):
    labels = [center_label] + list(leaf_labels)
    edges = [(0, i) for i in range(1, len(labels))]
    return RootedLabeledTree(labels, edges, root=0)


def test_path_max_metric_star_and_path():
    five_star = star(1, [0, 0, 0, 0])
    space = path_max_metric(five_star)
    assert isinstance(space, FiniteUltrametricSpace)
    assert all(space.distance(i, j) == 1 for i in range(5) for j in range(5) if i != j)

    path = RootedLabeledTree([1] * 5, [(i, i + 1) for i in range(4)])
    space = path_max_metric(path)
    assert isinstance(space, FiniteUltrametricSpace)
    assert all(space.distance(i, j) == 1 for i in range(5) for j in range(5) if i != j)


def test_path_max_metric_zero_edge_gives_pseudoultrametric():
    tree = RootedLabeledTree([0, 0, 1], [(0, 1), (1, 2)])
    result = path_max_metric(tree)
    assert isinstance(result, PseudoUltrametricSpace)
    assert result.zero_pair == (0, 1)
    assert result.matrix[0][1] == 0


def test_path_max_metric_agrees_with_hausdorff_on_representing_trees():
    rng = random.Random(31)
    for _ in range(20):
        space = random_ultrametric_space(rng, rng.randint(2, 12))
        tree = build_representing_tree(space)
        dl = path_max_metric(tree)
        assert isinstance(dl, FiniteUltrametricSpace)
        by_points = {b.points: b for b in ballean(space)}
        for u in range(tree.n):
            for v in range(tree.n):
                bu = by_points[tuple(tree.ball_points[u])]
                bv = by_points[tuple(tree.ball_points[v])]
                assert dl.distance(u, v) == hausdorff_distance(space, bu, bv)


def test_disjoint_ball_point_distance_equals_tree_distance():
    rng = random.Random(32)
    for _ in range(20):
        space = random_ultrametric_space(rng, rng.randint(2, 12))
        tree = build_representing_tree(space)
        dl = path_max_metric(tree)
        for u in range(tree.n):
            for v in range(u + 1, tree.n):
                pu, pv = set(tree.ball_points[u]), set(tree.ball_points[v])
                if pu & pv:
                    continue
                for x, y in product(pu, pv):
                    assert space.distance(x, y) == dl.distance(u, v)


def test_monotone_labeling_examples():
    tree = build_representing_tree(nested_four_point_space())
    ok, _ = is_monotone_labeling(tree)
    assert ok

    bad_edge = RootedLabeledTree([1, 2, 0], [(0, 1), (1, 2)], root=0)
    ok, reason = is_monotone_labeling(bad_edge)
    assert not ok and "parent" in reason

    bad_leaf = RootedLabeledTree([2, 1], [(0, 1)], root=0)
    ok, reason = is_monotone_labeling(bad_leaf)
    assert not ok and "leaf" in reason


def test_check_representable_accepts_representing_trees():
    tree = build_representing_tree(nested_four_point_space())
    result = check_representable(tree)
    assert result.accepted
    assert tree.labels[result.root] == 2

    rng = random.Random(33)
    for _ in range(40):
        space = random_ultrametric_space(rng, rng.randint(1, 14))
        assert check_representable(build_representing_tree(space)).accepted


def test_check_representable_rejects_two_vertex_tree():
    result = check_representable(RootedLabeledTree([1, 0], [(0, 1)]))
    assert not result.accepted
    assert "out-degree 1" in result.reason


def test_check_representable_rejects_truncated_trees():
    # positive leaf labels violate the monotone condition under every root
    result = check_representable(bethe_ball_tree(2, 2, 1))
    assert not result.accepted


def test_check_representable_single_vertex():
    assert check_representable(RootedLabeledTree([0], [])).accepted
    assert not check_representable(RootedLabeledTree([1], [])).accepted


def test_check_representable_matches_the_all_roots_oracle():
    rng = random.Random(34)

    def free_and_rerooted(tree):
        return [RootedLabeledTree(tree.labels, tree.edges),
                RootedLabeledTree(tree.labels, tree.edges, root=rng.randrange(tree.n))]

    trees = [RootedLabeledTree([0], []), RootedLabeledTree([1], [])]
    trees += [bethe_ball_tree(p, depth, 1) for p in (2, 3) for depth in range(4)]
    trees += [sphere_tree(p, depth, 1) for p in (2, 3) for depth in (1, 2)]
    for leaves, centre, leaf in product(range(1, 6), (0, 1, 2), (0, 1)):
        star = RootedLabeledTree([centre] + [leaf] * leaves,
                                 [(0, v) for v in range(1, leaves + 1)], root=0)
        trees += [star] + free_and_rerooted(star)
    for _ in range(400):
        # labels from {0, 1/2, 1, 2, 3}: tied top labels and positive leaves
        trees += free_and_rerooted(random_labeled_tree(rng, rng.randint(1, 10)))
    for _ in range(300):
        tree = random_monotone_tree(rng, rng.randint(1, 10))
        trees += [tree] + free_and_rerooted(tree)
    for _ in range(300):
        tree = build_representing_tree(random_ultrametric_space(rng, rng.randint(1, 8)))
        trees += [tree] + free_and_rerooted(tree)
    assert len(trees) >= 2000

    kinds = set()
    for tree in trees:
        got = check_representable(tree)
        assert (got.accepted, got.root, got.reason) == all_roots_representable(tree)
        if got.accepted:
            kinds.add("accepted at 0" if got.root == 0 else "accepted elsewhere")
        else:
            kinds.add(next(k for k in ("out-degree 1", "does not drop", "positive label")
                           if k in got.reason))
    assert kinds == {"accepted at 0", "accepted elsewhere", "out-degree 1",
                     "does not drop", "positive label"}


def test_check_representable_is_linear_on_a_large_star(monkeypatch):
    # two roots, each tried in O(n); trying all 4,001 roots is quadratic
    calls = {"out_degree": 0, "monotone": 0}
    out_degree, monotone = RootedLabeledTree.out_degree, repr_tree.is_monotone_labeling

    def counted_out_degree(tree, v):
        calls["out_degree"] += 1
        return out_degree(tree, v)

    def counted_monotone(tree):
        calls["monotone"] += 1
        return monotone(tree)

    monkeypatch.setattr(RootedLabeledTree, "out_degree", counted_out_degree)
    # wrapped where `check_representable` is defined, so its calls go through the wrapper
    monkeypatch.setattr(repr_tree, "is_monotone_labeling", counted_monotone)
    edges = [(0, v) for v in range(1, 4001)]
    # every label 1 tries vertex 0 alone; a largest label on leaf 4000 adds it
    for labels in ([1] * 4001, [1] * 4000 + [2]):
        calls.update(out_degree=0, monotone=0)
        result = check_representable(RootedLabeledTree(labels, edges))
        assert (result.accepted, result.root, result.reason) == \
            (False, None, "root 0: label of 1 does not drop below its parent 0")
        assert 1 <= calls["monotone"] <= 2 and calls["out_degree"] <= 4 * len(labels), calls


def test_maximal_chains_examples():
    tree = build_representing_tree(nested_four_point_space())
    chains = maximal_chains(tree)
    assert sorted(len(c) for c in chains) == [2, 3, 3, 3]
    for chain in chains:
        assert chain.vertices[0] == tree.root
        parent = tree.parent_map()
        for a, b in zip(chain.vertices, chain.vertices[1:]):
            assert parent[b] == a

    single = RootedLabeledTree([0], [], root=0)
    assert maximal_chains(single) == (type(chains[0])((0,)),)

    assert len(maximal_chains(bethe_ball_tree(2, 2, 1))) == 4


def test_reconstruct_space_examples():
    space = nested_four_point_space()
    rebuilt = reconstruct_space(build_representing_tree(space))
    assert len(rebuilt.space) == 4
    assert spaces_isometric(space, rebuilt.space)

    single = reconstruct_space(RootedLabeledTree([0], [], root=0))
    assert len(single.space) == 1

    equilateral = reconstruct_space(star(1, [0, 0, 0, 0]))
    assert len(equilateral.space) == 4
    assert all(
        equilateral.space.distance(i, j) == 1
        for i in range(4) for j in range(4) if i != j
    )


def test_reconstruct_space_requires_monotone_labeling():
    with pytest.raises(ValueError):
        reconstruct_space(bethe_ball_tree(2, 1, 1))


def test_reconstructed_space_is_ultrametric():
    rng = random.Random(34)
    for _ in range(30):
        space = random_ultrametric_space(rng, rng.randint(1, 14))
        rebuilt = reconstruct_space(build_representing_tree(space))
        assert is_ultrametric_triangle(rebuilt.space)[0]


def covering_pairs_of_ballean(space):
    """Covers of the inclusion order, derived from ball point sets alone."""
    bn = list(ballean(space))
    sets = [frozenset(b.points) for b in bn]
    covers = []
    for i, j in product(range(len(bn)), repeat=2):
        if i == j or not sets[i] < sets[j]:
            continue
        if not any(sets[i] < sets[k] < sets[j] for k in range(len(bn))):
            covers.append((i, j))
    return len(bn), covers


def test_poset_checker_rejects_doubled_diamond():
    # top, two middles, one bottom: the bottom has two upper covers
    report = check_ballean_poset(4, [(1, 0), (2, 0), (3, 1), (3, 2)])
    assert not report.unique_upper_cover
    assert "3" in report.upper_witness
    assert not report.accepted
    assert report.has_largest


def test_poset_checker_accepts_star():
    report = check_ballean_poset(4, [(1, 0), (2, 0), (3, 0)])
    assert report.accepted
    assert report.has_largest and report.largest == 0
    assert report.covers_are_covering_relation


def test_poset_checker_accepts_ball_posets_of_random_spaces():
    rng = random.Random(35)
    for _ in range(30):
        space = random_ultrametric_space(rng, rng.randint(1, 14))
        n, covers = covering_pairs_of_ballean(space)
        report = check_ballean_poset(n, covers)
        assert report.accepted
        assert report.covers_are_covering_relation


def test_poset_checker_rejects_chains_and_flags_redundant_arcs():
    # a 3-chain: the middle element has a single lower cover
    report = check_ballean_poset(3, [(2, 1), (1, 0)])
    assert not report.accepted and not report.lower_covers_ok

    redundant = check_ballean_poset(3, [(2, 1), (1, 0), (2, 0)])
    assert not redundant.covers_are_covering_relation


def test_poset_checker_errors():
    with pytest.raises(ValueError):
        check_ballean_poset(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        check_ballean_poset(0, [])
    with pytest.raises(ValueError):
        check_ballean_poset(2, [(0, 0)])
    for pair in ((True, 0), (1.0, 0), (1, "0")):
        with pytest.raises(ValueError, match="bad cover pair"):
            check_ballean_poset(2, [pair])


def report_fields(report):
    return {name: getattr(report, name) for name in PosetCheckReport.__slots__}


def shuffled_poset(rng, n, covers):
    """The same poset with element ids and cover order shuffled."""
    ids = list(range(n))
    rng.shuffle(ids)
    covers = [(ids[a], ids[b]) for a, b in covers]
    rng.shuffle(covers)
    return covers


def random_dag_covers(rng, n):
    """Arcs that go up a random linear order, some redundant: not ball lattices."""
    rank = list(range(n))
    rng.shuffle(rank)
    return [(a, b) for a in range(n) for b in range(n)
            if rank[a] < rank[b] and rng.random() < 0.3]


def assert_same_poset_verdict(n, covers):
    try:
        want = triple_loop_ballean_poset(n, covers)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            check_ballean_poset(n, covers)
        assert str(got.value) == str(exc)
        return False
    assert report_fields(check_ballean_poset(n, covers)) == report_fields(want)
    return want.accepted


def test_poset_checker_matches_triple_loop_oracle_on_ball_posets():
    rng = random.Random(36)
    verdicts = set()
    for space in differential_spaces(rng, 60):
        tree = build_representing_tree(space)
        parent = tree.parent_map()
        covers = [(v, parent[v]) for v in range(tree.n) if v != tree.root]
        for cs in (covers, shuffled_poset(rng, tree.n, covers)):
            verdicts.add(assert_same_poset_verdict(tree.n, cs))
    # a broken lattice: a leaf with a second, incomparable upper cover
    verdicts.add(assert_same_poset_verdict(4, [(1, 0), (2, 0), (3, 1), (3, 2)]))
    assert verdicts == {True, False}


def test_poset_checker_matches_triple_loop_oracle_on_random_dags_and_cycles():
    rng = random.Random(37)
    kinds = set()
    for _ in range(400):
        n = rng.randint(1, 12)
        covers = random_dag_covers(rng, n)
        if n >= 2 and rng.random() < 0.25:
            a, b = rng.sample(range(n), 2)
            covers += [(a, b), (b, a)] if rng.random() < 0.5 else [(b, a)]
        rng.shuffle(covers)
        try:
            triple_loop_ballean_poset(n, covers)
            kinds.add("order")
        except ValueError:
            kinds.add("cycle")
        assert_same_poset_verdict(n, covers)
    assert kinds == {"order", "cycle"}


def test_sphere_plus_center_examples():
    ok, witness = sphere_plus_center_condition(nested_four_point_space())
    assert ok and witness is None

    ok, witness = sphere_plus_center_condition(two_pair_space())
    assert not ok
    assert witness.points == (0, 1, 2, 3)

    ok, _ = sphere_plus_center_condition(equilateral_space(3))
    assert ok


def test_sphere_plus_center_matches_partition_oracle():
    verdicts = set()
    for space in differential_spaces(random.Random(43), 200):
        ok, witness = sphere_plus_center_condition(space)
        want_ok, want_witness = partition_sphere_plus_center(space)
        assert ok is want_ok
        if want_witness is None:
            assert witness is None
        else:
            assert (witness.points, witness.diameter, witness.witness_center,
                    witness.witness_radius) == (
                want_witness.points, want_witness.diameter,
                want_witness.witness_center, want_witness.witness_radius)
        verdicts.add(ok)
    assert verdicts == {True, False}


def _pairs_under_a_caterpillar(n: int) -> list[list[int]]:
    # {0, 1} and {2, 3} at 1 inside a ball of diameter 2, and each point
    # k > 3 at k + 1 from every smaller point: only that inner ball lacks
    # a singleton part
    def d(x, y):
        if max(x, y) > 3:
            return max(x, y) + 1
        return 1 if (x < 2) == (y < 2) else 2

    return [[0 if x == y else d(x, y) for y in range(n)] for x in range(n)]


def test_sphere_plus_center_matches_partition_oracle_at_scale():
    rng = random.Random(45)
    witnesses = set()
    for m in (random_ultrametric_matrix(rng, 1024), flat_matrix(1024),
              caterpillar_matrix(1024), padic_matrix(2, 10), padic_matrix(3, 6),
              _pairs_under_a_caterpillar(1024)):
        for m in (m, permuted(rng, m)):
            space = FiniteUltrametricSpace([f"p{i}" for i in range(len(m))], m)
            ok, witness = sphere_plus_center_condition(space)
            want_ok, want = partition_sphere_plus_center(space, row_sort_ballean)
            assert ok is want_ok
            assert (witness is None) is (want is None)
            if want is not None:
                assert (witness.points, witness.diameter, witness.witness_center,
                        witness.witness_radius) == (
                    want.points, want.diameter, want.witness_center, want.witness_radius)
                witnesses.add(len(witness))
    assert 4 in witnesses and 1024 in witnesses


def test_reconstruct_space_matches_chain_scan_oracle():
    rng = random.Random(44)
    trees = [build_representing_tree(s) for s in differential_spaces(rng, 100)]
    trees += [random_monotone_tree(rng, rng.randint(1, 40)) for _ in range(300)]
    for tree in trees:
        fast, slow = reconstruct_space(tree), chain_scan_reconstruct(tree)
        assert fast.chains == slow.chains
        assert fast.space.names == slow.space.names
        assert fast.space.matrix == slow.space.matrix


def test_chains_and_partings_match_the_stack_walk(monkeypatch):
    rng = random.Random(46)
    trees = [build_representing_tree(s) for s in differential_spaces(rng, 40)]
    trees += [random_monotone_tree(rng, rng.randint(1, 40)) for _ in range(300)]
    n = 2001   # a caterpillar 2,000 levels deep: spine vertex i is the ball {0..n-1-i}
    labels = [n - 1 - i for i in range(n - 1)] + [0] * n
    edges = [(i - 1, i) for i in range(1, n - 1)] + [(i, n - 1 + i) for i in range(n - 1)]
    trees += [RootedLabeledTree([0], [], root=0),
              RootedLabeledTree(labels, edges + [(n - 2, 2 * n - 2)], root=0)]
    trees += [relabeled(rng, t) for t in trees]
    want = [stack_chains_and_partings(tree) for tree in trees]
    counts = count_calls(monkeypatch, RootedLabeledTree, ("children_map",))
    assert [tree_metric._chains_and_partings(tree) for tree in trees] == want
    assert counts == {"children_map": 0}
    assert max(len(c) for c in want[-1][0]) == n


class CountedArcs(list):
    """Arcs that count how often they are read through."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_chain_closes_in_one_pass_in_any_arc_order():
    n = 1000
    bottom_up = CountedArcs((v, v + 1) for v in range(n - 1))
    top_down = CountedArcs(reversed(bottom_up))
    want = [((1 << n) - 1) >> v << v for v in range(n)]   # up[v]: every w >= v
    assert _up_closure(n, bottom_up) == _up_closure(n, top_down) == want
    assert bottom_up.passes == top_down.passes == 1
    assert (report_fields(check_ballean_poset(n, bottom_up))
            == report_fields(check_ballean_poset(n, top_down)))


def test_a_cycle_is_still_closed_by_repeated_passes():
    # 3 -> 0 -> 1 -> 2 -> 0: element 3 sits below a cycle
    arcs = CountedArcs([(3, 0), (0, 1), (1, 2), (2, 0)])
    assert _up_closure(4, arcs) == [0b0111, 0b0111, 0b0111, 0b1111]
    assert arcs.passes > 1
    with pytest.raises(ValueError, match="0 and 1 lie on a cycle"):
        check_ballean_poset(4, arcs)
