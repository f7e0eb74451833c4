"""Spaces the library derives from a point order and its gaps match the older routes.

`FiniteUltrametricSpace._from_gaps` takes an order in which every ball is a
run and the rank at which each point joins the points before it.  Any gaps
give an ultrametric, so it checks only the names, and the rank rows are
built from the gaps on the first read of `rank`: no tree-only step reads
them, so a derived space holds none until something does.  The O(n) checks of the order, gaps and values that it once
ran run here on every caller's hand-off, through
`util.check_from_gaps_handoff`.  Every derived space is rebuilt here
from a `Fraction` matrix through `FiniteUltrametricSpace(names, matrix)`,
and the two must agree on type, names, distance set, rank matrix,
distances and representing tree; and through `util.from_ranks`, the
rank-matrix route that re-runs every check and the O(n^2) single-linkage
pass, and the two must agree on every field, order and gaps included.
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
    SpaceValidationError,
    apply_preserving,
    ball_poset,
    ballean,
    bound_transform,
    build_representing_tree,
    closed_ball,
    diam,
    hausdorff_ball_space,
    hausdorff_distance,
    hausdorff_distance_direct,
    make_space,
    padic_metric,
    padic_space,
    path_max_metric,
    quantize_binary,
    rank_transform,
    reconstruct_space,
    smallest_enclosing_ball,
    space_from_sequence,
    spaces_isometric,
    sphere_plus_center_condition,
    threshold_function,
    tree_to_json,
    weak_similarity_check,
    weakly_similar,
)
from ultratree import core
from ultratree.core import _rank_of
from util import (
    caterpillar_matrix,
    chain_scan_reconstruct,
    check_from_gaps_handoff,
    closed_ball_join,
    count_calls,
    differential_spaces,
    first_point_hausdorff_ball_space,
    flat_matrix,
    fraction_closed_ball,
    fraction_weak_similarity_check,
    from_ranks,
    kruskal_fill_path_max_metric,
    padic_matrix,
    pairwise_hausdorff_ball_space,
    pairwise_padic_space,
    permuted,
    random_labeled_tree,
    random_monotone_tree,
    random_run_order,
    random_ultrametric_matrix,
    row_diam_rank,
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
        from_ranks("abc", values, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert info.value.axiom == "strong-triangle" and info.value.witness == (0, 1, 2)
    with pytest.raises(SpaceValidationError) as info:
        from_ranks("abc", values, [[0, 1, 2], [1, 0, 2], [1, 2, 0]])
    assert info.value.axiom == "symmetry" and info.value.witness == (0, 2)
    with pytest.raises(SpaceValidationError) as info:
        from_ranks("aab", values, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert info.value.axiom == "names"
    with pytest.raises(SpaceValidationError) as info:
        from_ranks("ab", values, [[0, 0], [0, 0]])
    assert info.value.axiom == "positivity" and info.value.witness == (0, 1)


def realized(space) -> tuple:
    return tuple(sorted({space.distance(i, j) for i in space.points() for j in space.points()}))


DIP = RootedLabeledTree(["3", "1", "2"], [(0, 1), (1, 2)], root=0)   # 1 is below both


def edge_case_spaces() -> list:
    """Derived spaces on the edge cases where a value could go unused."""
    one = RootedLabeledTree(["5"], [], root=0)
    chain = RootedLabeledTree(["3", "2", "0", "0"], [(0, 1), (1, 2), (1, 3)], root=0)
    derived = [padic_space([0, 1, 4], 2), padic_space([0, Fraction(1, 2), 8, 24], 2),
               padic_space([0, 9], 3), padic_space([7], 5), path_max_metric(one),
               path_max_metric(DIP), reconstruct_space(chain).space, space_from_sequence([])]
    rng = random.Random(62)
    derived += [path_max_metric(random_labeled_tree(rng, rng.randint(1, 12))) for _ in range(40)]
    derived += [reconstruct_space(random_monotone_tree(rng, rng.randint(1, 12))).space
                for _ in range(40)]
    for space in SPACES[:45]:
        derived += [hausdorff_ball_space(space).space, rank_transform(space),
                    bound_transform(space, 1), quantize_binary(space),
                    apply_preserving(space, threshold_function((space.distance_values[1:] or (1,))[0]))]
    return derived


def test_derived_distance_values_are_exactly_the_realized_distances():
    # `_from_gaps` trusts each constructor to pass only realized values (the
    # hand-off check below holds it to that): on the edge cases where a value
    # could go unused, each space's values are the distances it realizes
    derived = edge_case_spaces()
    assert [s.distance_values for s in derived[:2]] == [(0, Fraction(1, 4), 1),
                                                        (0, Fraction(1, 16), Fraction(1, 8), 2)]
    assert path_max_metric(DIP).distance_values == (0, 2, 3)
    for space in derived:
        if isinstance(space, FiniteUltrametricSpace):
            assert space.distance_values == realized(space)


FIELDS = ("names", "distance_values", "rank", "_order", "_gaps", "_strong_witness", "matrix")


def ranked_image(space, f):
    """`apply_preserving`'s rank-matrix route: the image values ranked over `space.rank`."""
    return from_ranks(space.names, *_rank_of([f(v) for v in space.distance_values], space.rank))


def padic_samples(rng):
    """Integers, rationals with denominators prime to p or divisible by it, negatives."""
    samples = [(range(p ** k), p) for p, k in ((2, 6), (3, 4), (5, 3), (7, 2))]
    # small points beside huge ones, whose digits run far past the small points'
    huge = [2 ** 300 + 5, -(3 ** 200), Fraction(1, 7 ** 90)]
    samples += [([*range(40), *huge], p) for p in (2, 3, 7)]
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        den = rng.choice([1, p, p * p, 3 if p == 2 else 2, 5 if p == 3 else 9, 7 if p == 5 else 25])
        pts = {Fraction(rng.randint(-400, 400), rng.choice([1, den]))
               for _ in range(rng.randint(1, 30))}
        samples.append((sorted(pts, key=lambda _: rng.random()), p))
    return samples


def derived_pairs(rng):
    """(builder's space, the same space through `from_ranks`) for every derived builder."""
    matrix = random_ultrametric_matrix(rng, 128)
    spaces = SPACES + [FiniteUltrametricSpace([f"p{i}" for i in range(128)], m)
                       for m in (matrix, permuted(rng, matrix))]
    for space in spaces:
        values = space.distance_values
        yield hausdorff_ball_space(space).space, first_point_hausdorff_ball_space(space).space
        yield rank_transform(space), from_ranks(space.names, map(Fraction, range(len(values))),
                                                space.rank)
        yield bound_transform(space, 3), ranked_image(space, lambda t: 3 * t / (1 + t))
        yield quantize_binary(space), ranked_image(space, snap_binary)
        r = values[len(values) // 2]
        if r:
            yield (apply_preserving(space, threshold_function(r)),
                   ranked_image(space, lambda t: min(r, t)))
    trees = [build_representing_tree(s) for s in spaces]
    trees += [random_monotone_tree(rng, rng.randint(1, 40)) for _ in range(150)]
    for tree in trees:
        yield reconstruct_space(tree).space, running_min_reconstruct(tree).space
    for tree in trees + [random_labeled_tree(rng, rng.randint(1, 30)) for _ in range(200)]:
        yield path_max_metric(tree), kruskal_fill_path_max_metric(tree)
    for _ in range(40):
        seq = sorted({Fraction(rng.randint(1, 200), rng.randint(1, 9))
                      for _ in range(rng.randint(0, 30))}, reverse=True)
        pts = [Fraction(0)] + seq[::-1]
        ids = range(len(pts))
        yield space_from_sequence(seq), from_ranks(
            [str(v) for v in pts], pts, [[0 if i == j else max(i, j) for j in ids] for i in ids])
    for pts, p in padic_samples(rng):
        yield padic_space(pts, p), pairwise_padic_space(pts, p)


def test_every_derived_builder_matches_the_rank_matrix_route():
    kinds = set()
    for got, want in derived_pairs(random.Random(67)):
        assert type(got) is type(want)
        kinds.add(type(got))
        if isinstance(want, PseudoUltrametricSpace):
            assert (got.names, got.matrix, got.zero_pair) == (want.names, want.matrix,
                                                              want.zero_pair)
            continue
        for field in FIELDS:
            assert getattr(got, field) == getattr(want, field), field
    assert kinds == {FiniteUltrametricSpace, PseudoUltrametricSpace}


def test_from_gaps_reads_the_single_linkage_order_off_any_run_order():
    rng = random.Random(68)
    matrix = random_ultrametric_matrix(rng, 200)
    spaces = SPACES + [FiniteUltrametricSpace([f"p{i}" for i in range(200)], m)
                       for m in (matrix, permuted(rng, matrix))]
    for space in spaces:
        for _ in range(3):
            order, gaps = random_run_order(rng, space)
            got = FiniteUltrametricSpace._from_gaps(space.names, space.distance_values, order, gaps)
            assert (got._order, got._gaps) == core._ball_order(space.rank)
            assert (got.rank, got.matrix, got._strong_witness) == (space.rank, space.matrix, None)


def test_from_gaps_refuses_what_can_fail_with_its_axiom():
    # the names are the one input outside callers reach; the checker refuses
    # what only a wrong caller could hand over
    values = (Fraction(0), Fraction(1), Fraction(2))
    for names, order, gaps, axiom in [((), [], [0], "nonempty"),
                                      ("aab", [0, 1, 2], [0, 1, 2], "names")]:
        with pytest.raises(SpaceValidationError) as info:
            FiniteUltrametricSpace._from_gaps(names, values, order, gaps)
        assert (info.value.axiom, info.value.witness) == (axiom, ())
    cases = [
        ("abc", values, [0, 1, 1], [0, 1, 2], "square", ()),    # not a permutation
        ("abc", values, [0, 1], [0, 1], "square", ()),          # a point left out
        ("abc", values, [0, 1, 2], [0, 1], "square", ()),       # a gap short
        ("abc", (1, 2, 3), [0, 1, 2], [0, 1, 2], "values", ()),  # not from 0
        ("abc", (0, 2, 1), [0, 1, 2], [0, 1, 2], "values", ()),  # not rising
        ("abc", values, [2, 0, 1], [0, 2, 0], "positivity", (0, 1)),
        ("abc", values, [0, 1, 2], [0, 1, 1], "values", ()),    # 2 unused
        ("abc", values, [0, 1, 2], [0, 1, 3], "values", ()),    # a gap past the values
    ]
    for names, vals, order, gaps, axiom, witness in cases:
        with pytest.raises(SpaceValidationError) as info:
            check_from_gaps_handoff(names, vals, order, gaps)
        assert (info.value.axiom, info.value.witness) == (axiom, witness)
    with pytest.raises(SpaceValidationError) as info:
        padic_space([], 2)
    assert info.value.axiom == "nonempty"


CALLERS = {"hausdorff_ball_space", "rank_transform", "apply_preserving", "reconstruct_space",
           "path_max_metric", "padic_space", "space_from_sequence"}


def test_every_caller_hands_from_gaps_a_valid_order_gaps_and_values(monkeypatch):
    # the checks `_from_gaps` no longer runs, run on every hand-off instead
    build = FiniteUltrametricSpace._from_gaps.__func__
    calls = dict.fromkeys(CALLERS, 0)

    def checked(cls, names, values, order, gaps):
        names = tuple(names)
        check_from_gaps_handoff(names, values, order, gaps)
        calls[sys._getframe(1).f_code.co_name] += 1
        return build(cls, names, values, order, gaps)
    monkeypatch.setattr(FiniteUltrametricSpace, "_from_gaps", classmethod(checked))
    for _ in derived_pairs(random.Random(67)):
        pass
    edge_case_spaces()
    assert set(calls) == CALLERS and min(calls.values()) > 0, calls


def test_derived_builders_skip_the_quadratic_checks(monkeypatch):
    space = SPACES[-1]
    tree = build_representing_tree(space)
    counts = count_calls(monkeypatch, core, ("_basic_validate", "_ball_order", "_first_break"))
    hausdorff_ball_space(space)
    rank_transform(space)
    quantize_binary(space)
    bound_transform(space, 3)
    apply_preserving(space, threshold_function(space.distance_values[1]))
    reconstruct_space(tree)
    path_max_metric(tree)
    space_from_sequence(range(9, 0, -1))
    padic_space(range(27), 3)
    assert counts == {"_basic_validate": 0, "_ball_order": 0, "_first_break": 0}
    FiniteUltrametricSpace(space.names, space.matrix)   # the public constructor runs each once
    assert counts == {"_basic_validate": 1, "_ball_order": 1, "_first_break": 1}


def tree_only_steps(space):
    """Run every step that reads a space's order and gaps alone; return the spaces it derives."""
    core._ball_tree(space._gaps)
    assert spaces_isometric(space, space) and weakly_similar(space, space)
    build_representing_tree(space)
    ballean(space)
    sphere_plus_center_condition(space)
    return [hausdorff_ball_space(space).space, rank_transform(space),
            apply_preserving(space, lambda t: 2 * t)]


def public_spaces(rng):
    """Fresh spaces from the public constructor and `make_space`, no rank row read yet."""
    matrices = [random_ultrametric_matrix(rng, rng.randint(1, 24)) for _ in range(12)]
    matrices += [flat_matrix(32), caterpillar_matrix(48), padic_matrix(2, 5), padic_matrix(3, 3)]
    return [build([f"p{i}" for i in range(len(m))], m)
            for m in matrices for build in (FiniteUltrametricSpace, make_space)]


def test_derived_rank_rows_are_built_on_first_read():
    # so are those of a space from the public constructor or `make_space`
    derived = [got for got, _ in derived_pairs(random.Random(67))] + edge_case_spaces()
    derived = [s for s in derived if isinstance(s, FiniteUltrametricSpace)]
    for space in derived + public_spaces(random.Random(70)):
        assert space._rank is None
        for image in tree_only_steps(space):
            assert space._rank is None and image._rank is None
        rank = space.rank
        assert rank == FiniteUltrametricSpace(space.names, space.matrix).rank
        assert rank == from_ranks(space.names, space.distance_values, rank).rank
        assert space.rank is rank and space._rank is rank


def test_ball_poset_reads_no_rank_rows_of_a_derived_space():
    rng = random.Random(68)
    derived = [got for got, _ in derived_pairs(rng)] + edge_case_spaces()
    derived = [s for s in derived if isinstance(s, FiniteUltrametricSpace)]
    for space in derived + public_spaces(rng):
        poset = ball_poset(space)
        pairs = [(rng.choice(poset.balls), rng.choice(poset.balls)) for _ in range(20)]
        got = [(poset.leq(a, b), poset.join(a, b), poset.meet(a, b)) for a, b in pairs]
        assert space._rank is None
        for (a, b), (leq, join, meet) in zip(pairs, got):   # the oracles read the rows
            assert leq == (set(a.points) <= set(b.points))
            assert join == closed_ball_join(poset, a, b)
            assert meet == (a if leq else b if set(b.points) <= set(a.points) else None)


def query_pairs(rng):
    """(x, y, phi) on bushy, flat, caterpillar and p-adic shapes, public and derived, none read.

    y is x's matrix moved by phi with every distance tripled, so phi is a weak
    similarity of x onto y; a derived x or y comes from a public one through
    `apply_preserving`, which reads no rank row.
    """
    for m in (random_ultrametric_matrix(rng, 40), flat_matrix(24), caterpillar_matrix(40),
              padic_matrix(2, 5), padic_matrix(3, 3)):
        n = len(m)
        phi = rng.sample(range(n), n)
        image = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                image[phi[i]][phi[j]] = 3 * m[i][j]
        names = [f"p{i}" for i in range(n)]
        for derive_x, derive_y in ((False, False), (True, False), (False, True), (True, True)):
            x, y = FiniteUltrametricSpace(names, m), FiniteUltrametricSpace(names, image)
            x = apply_preserving(x, lambda t: t / 2) if derive_x else x
            y = apply_preserving(y, lambda t: t + t * t) if derive_y else y
            yield x, y, phi


def test_every_query_reads_the_order_and_gaps_as_the_row_oracles_do():
    rng = random.Random(71)
    verdicts = set()
    for x, y, phi in query_pairs(rng):
        n, values = len(x), x.distance_values
        pairs = [(i, j) for i in range(n) for j in range(n)]
        subsets = [rng.sample(range(n), rng.randint(1, n)) for _ in range(20)]
        radii = [*values, *(v + Fraction(1, 7) for v in values)]
        centers = [(rng.randrange(n), rng.choice(radii)) for _ in range(40)]
        balls = ballean(x).balls
        ball_pairs = [(rng.choice(balls), rng.choice(balls)) for _ in range(30)]
        bijections = [phi] + [rng.sample(range(n), n) for _ in range(4)]
        got = ([x.distance(i, j) for i, j in pairs], [diam(x, s) for s in subsets],
               [closed_ball(x, c, r) for c, r in centers],
               [smallest_enclosing_ball(x, s) for s in subsets],
               [hausdorff_distance(x, a, b) for a, b in ball_pairs],
               [weak_similarity_check(x, y, f) for f in bijections])
        assert x._rank is None and y._rank is None
        # the oracles read the rows
        assert got[0] == [x.matrix[i][j] for i, j in pairs]
        assert got[1] == [values[row_diam_rank(x, s)] for s in subsets]
        for ball, (c, r) in zip(got[2], centers):
            want = fraction_closed_ball(x, c, r)
            assert (ball.points, ball.diameter, ball.witness_center) == (want.points, want.diameter, c)
        for ball, s in zip(got[3], subsets):
            want = fraction_closed_ball(x, min(s), values[row_diam_rank(x, s)])
            assert (ball.points, ball.diameter) == (want.points, want.diameter)
        assert got[4] == [hausdorff_distance_direct(x, a, b) for a, b in ball_pairs]
        for (ok, psi), f in zip(got[5], bijections):
            want, want_psi = fraction_weak_similarity_check(x, y, f)
            assert ok is want and (psi is None) is (want_psi is None)
            assert psi is None or (psi.domain, psi.values) == (want_psi.domain, want_psi.values)
            verdicts.add(ok)
        assert got[5][0][0]
    assert verdicts == {True, False}
