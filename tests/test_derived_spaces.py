"""Spaces the library derives from integer ranks match the public constructor.

`FiniteUltrametricSpace._from_ranks` skips parsing and ranking.  Every
derived space is rebuilt here the way the library used to build it, from a
`Fraction` matrix through `FiniteUltrametricSpace(names, matrix)`, and the
two must agree on type, names, distance set, rank matrix, distances and
representing tree.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ultratree import (
    FiniteUltrametricSpace,
    PseudoUltrametricSpace,
    RootedLabeledTree,
    SpaceValidationError,
    apply_preserving,
    bound_transform,
    build_representing_tree,
    hausdorff_ball_space,
    padic_metric,
    padic_space,
    path_max_metric,
    quantize_binary,
    rank_transform,
    reconstruct_space,
    space_from_sequence,
    threshold_function,
    tree_to_json,
)
from util import (
    caterpillar_matrix,
    chain_scan_reconstruct,
    differential_spaces,
    first_point_hausdorff_ball_space,
    flat_matrix,
    kruskal_fill_path_max_metric,
    padic_matrix,
    pairwise_hausdorff_ball_space,
    permuted,
    random_labeled_tree,
    random_monotone_tree,
    random_ultrametric_matrix,
    running_min_reconstruct,
    walk_path_max_metric,
)

SPACES = differential_spaces(random.Random(61), 40)


def assert_same_space(got, want):
    assert type(got) is type(want)
    assert got.names == want.names
    assert got.distance_values == want.distance_values
    assert got.rank == want.rank
    assert got.matrix == want.matrix
    assert (tree_to_json(build_representing_tree(got))
            == tree_to_json(build_representing_tree(want)))


def rebuilt(space, f):
    """`space` with f applied to every distance, through the public constructor."""
    return FiniteUltrametricSpace(space.names, [[f(v) for v in row] for row in space.matrix])


def snap_binary(t):
    if t == 0:
        return t
    step = Fraction(1, 2)
    while step > t:
        step /= 2
    return step


def test_hausdorff_ball_space_matches_public_constructor():
    for space in SPACES:
        assert_same_space(hausdorff_ball_space(space).space,
                          pairwise_hausdorff_ball_space(space).space)


def test_transforms_match_public_constructor():
    for space in SPACES:
        values = space.distance_values
        assert_same_space(rank_transform(space), rebuilt(space, values.index))
        assert_same_space(bound_transform(space, 3), rebuilt(space, lambda t: 3 * t / (1 + t)))
        if len(space) > 1:
            # a cutoff inside the distance set merges every distance above it
            r = values[max(1, len(values) // 2)]
            assert_same_space(apply_preserving(space, threshold_function(r)),
                              rebuilt(space, lambda t: min(r, t)))
        assert_same_space(quantize_binary(space), rebuilt(space, snap_binary))


def same_fields(got, want):
    """The fields of two derived spaces, pseudo-ultrametrics included, match."""
    assert type(got) is type(want)
    assert (got.names, got.matrix) == (want.names, want.matrix)
    if isinstance(want, PseudoUltrametricSpace):
        assert got.zero_pair == want.zero_pair
    else:
        assert (got.distance_values, got.rank) == (want.distance_values, want.rank)


def test_gap_rows_match_the_row_loops_they_replaced():
    # every field of the three tree-derived constructions equals the row
    # loop's, on the bench shapes plain and permuted, a deep caterpillar and
    # random trees with zero-labeled edges and labels that rise and fall
    rng = random.Random(66)
    matrices = [random_ultrametric_matrix(rng, 300), flat_matrix(300), caterpillar_matrix(300),
                padic_matrix(2, 8), padic_matrix(3, 5)]
    spaces = [FiniteUltrametricSpace([f"p{i}" for i in range(len(m))], m)
              for matrix in matrices for m in (matrix, permuted(rng, matrix))]
    trees = [build_representing_tree(s) for s in spaces]
    for space, tree in zip(spaces, trees):
        got, want = hausdorff_ball_space(space), first_point_hausdorff_ball_space(space)
        same_fields(got.space, want.space)
        assert ([(b.points, b.diameter, b.witness_center, b.witness_radius) for b in got.balls]
                == [(b.points, b.diameter, b.witness_center, b.witness_radius)
                    for b in want.balls])
        same_fields(path_max_metric(tree), kruskal_fill_path_max_metric(tree))
    trees.append(build_representing_tree(space_from_sequence(range(699, 0, -1))))
    for tree in trees:
        got, want = reconstruct_space(tree), running_min_reconstruct(tree)
        assert got.chains == want.chains
        same_fields(got.space, want.space)
    kinds = set()
    for _ in range(300):
        tree = random_labeled_tree(rng, rng.randint(1, 40))
        got = path_max_metric(tree)
        kinds.add(type(got))
        same_fields(got, kruskal_fill_path_max_metric(tree))
    assert kinds == {FiniteUltrametricSpace, PseudoUltrametricSpace}


def test_threshold_drops_the_distances_it_merges():
    space = SPACES[-1]
    cut = apply_preserving(space, threshold_function(space.distance_values[1]))
    assert cut.distance_values == space.distance_values[:2]


def test_reconstruct_space_matches_public_constructor():
    rng = random.Random(62)
    trees = [build_representing_tree(s) for s in SPACES]
    trees += [random_monotone_tree(rng, rng.randint(1, 40)) for _ in range(200)]
    for tree in trees:
        got, want = reconstruct_space(tree), chain_scan_reconstruct(tree)
        assert got.chains == want.chains
        assert_same_space(got.space, want.space)


def test_path_max_metric_matches_public_constructor():
    rng = random.Random(63)
    trees = [build_representing_tree(s) for s in SPACES[:60]]
    trees += [random_monotone_tree(rng, rng.randint(1, 40)) for _ in range(150)]
    trees += [random_labeled_tree(rng, rng.randint(1, 30)) for _ in range(300)]
    kinds = set()
    for tree in trees:
        got, want = path_max_metric(tree), walk_path_max_metric(tree)
        kinds.add(type(want))
        if isinstance(want, PseudoUltrametricSpace):
            assert type(got) is PseudoUltrametricSpace
            assert (got.names, got.matrix, got.zero_pair) == (want.names, want.matrix,
                                                              want.zero_pair)
        else:
            assert_same_space(got, want)
    assert kinds == {FiniteUltrametricSpace, PseudoUltrametricSpace}


def test_path_max_metric_drops_labels_it_never_realizes():
    # the middle label 1 lies below both neighbours' labels
    space = path_max_metric(RootedLabeledTree([2, 1, 3], [(0, 1), (1, 2)]))
    assert space.distance_values == (0, 2, 3)
    assert space.rank == ((0, 1, 2), (1, 0, 2), (2, 2, 0))


def test_padic_space_matches_public_constructor():
    rng = random.Random(64)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        pts = {Fraction(rng.randint(-300, 300), rng.choice([1, 1, 2, 3, 9, 25]))
               for _ in range(rng.randint(1, 24))}
        pts = sorted(pts, key=lambda _: rng.random())
        want = FiniteUltrametricSpace([str(v) for v in pts],
                                      [[padic_metric(a, b, p) for b in pts] for a in pts])
        assert_same_space(padic_space(pts, p), want)


def test_space_from_sequence_matches_public_constructor():
    rng = random.Random(65)
    for _ in range(60):
        seq = sorted({Fraction(rng.randint(1, 200), rng.randint(1, 9))
                      for _ in range(rng.randint(0, 30))}, reverse=True)
        pts = [Fraction(0)] + seq[::-1]
        want = FiniteUltrametricSpace([str(v) for v in pts],
                                      [[0 if a == b else max(a, b) for b in pts] for a in pts])
        assert_same_space(space_from_sequence(seq), want)


def test_from_ranks_keeps_the_checks_with_witnesses():
    values = (Fraction(0), Fraction(1), Fraction(2))
    # d(a,c) = 2 but d(a,b) = d(b,c) = 1: the largest distance occurs once
    with pytest.raises(SpaceValidationError) as info:
        FiniteUltrametricSpace._from_ranks("abc", values, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert info.value.axiom == "strong-triangle" and info.value.witness == (0, 1, 2)
    with pytest.raises(SpaceValidationError) as info:
        FiniteUltrametricSpace._from_ranks("abc", values, [[0, 1, 2], [1, 0, 2], [1, 2, 0]])
    assert info.value.axiom == "symmetry" and info.value.witness == (0, 2)
    with pytest.raises(SpaceValidationError) as info:
        FiniteUltrametricSpace._from_ranks("aab", values, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert info.value.axiom == "names"
    with pytest.raises(SpaceValidationError) as info:
        FiniteUltrametricSpace._from_ranks("ab", values, [[0, 0], [0, 0]])
    assert info.value.axiom == "positivity" and info.value.witness == (0, 1)


def realized(space) -> tuple:
    return tuple(sorted({space.distance(i, j) for i in space.points() for j in space.points()}))


def test_derived_distance_values_are_exactly_the_realized_distances():
    # `_from_ranks` keeps every value it is given, so each constructor must
    # pass only realized ones, on the edge cases where a value could go unused
    one = RootedLabeledTree(["5"], [], root=0)
    dip = RootedLabeledTree(["3", "1", "2"], [(0, 1), (1, 2)], root=0)   # 1 is below both
    chain = RootedLabeledTree(["3", "2", "0", "0"], [(0, 1), (1, 2), (1, 3)], root=0)
    derived = [padic_space([0, 1, 4], 2), padic_space([0, Fraction(1, 2), 8, 24], 2),
               padic_space([0, 9], 3), padic_space([7], 5), path_max_metric(one),
               path_max_metric(dip), reconstruct_space(chain).space, space_from_sequence([])]
    assert [s.distance_values for s in derived[:2]] == [(0, Fraction(1, 4), 1),
                                                        (0, Fraction(1, 16), Fraction(1, 8), 2)]
    assert path_max_metric(dip).distance_values == (0, 2, 3)
    rng = random.Random(62)
    derived += [path_max_metric(random_labeled_tree(rng, rng.randint(1, 12))) for _ in range(40)]
    derived += [reconstruct_space(random_monotone_tree(rng, rng.randint(1, 12))).space
                for _ in range(40)]
    for space in SPACES[:45]:
        derived += [hausdorff_ball_space(space).space, rank_transform(space),
                    bound_transform(space, 1), quantize_binary(space),
                    apply_preserving(space, threshold_function((space.distance_values[1:] or (1,))[0]))]
    for space in derived:
        if isinstance(space, FiniteUltrametricSpace):
            assert space.distance_values == realized(space)
