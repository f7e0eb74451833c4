from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ultratree import (
    FiniteUltrametricSpace,
    PiecewiseLinearFn,
    PreservingFunctionError,
    RootedLabeledTree,
    ScalingFunction,
    apply_preserving,
    bethe_ball_tree,
    bound_transform,
    brute_force_isometry,
    build_representing_tree,
    canonical_code,
    distance_set,
    extend_scaling_function,
    is_ultrametric_triangle,
    make_space,
    quantize_binary,
    quantize_ladder,
    rank_transform,
    spaces_isometric,
    threshold_function,
    unbound_transform,
    weak_similarity_check,
    weakly_similar,
)
from util import (
    differential_spaces,
    equilateral_space,
    fraction_weak_similarity_check,
    nested_four_point_space,
    one_ball_relabeled,
    random_ultrametric_space,
    rank_transform_weakly_similar,
    snap_loop_quantize_ladder,
    tree_code_isometric,
    two_pair_space,
)


def permute_space(space, perm):
    n = len(space)
    names = [space.names[perm[i]] for i in range(n)]
    matrix = [[space.matrix[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    return FiniteUltrametricSpace(names, matrix)


def test_canonical_code_is_permutation_invariant():
    space = nested_four_point_space()
    shuffled = permute_space(space, [2, 0, 3, 1])
    a = canonical_code(build_representing_tree(space))
    b = canonical_code(build_representing_tree(shuffled))
    assert a == b and a.digest == b.digest


def test_canonical_code_separates_star_and_path():
    star = RootedLabeledTree([1, 0, 0, 0, 0], [(0, i) for i in range(1, 5)], root=0)
    path = RootedLabeledTree([1] * 5, [(i, i + 1) for i in range(4)], root=0)
    assert canonical_code(star) != canonical_code(path)


def test_canonical_code_sees_labels():
    a = bethe_ball_tree(2, 2, 1)
    b = bethe_ball_tree(2, 2, 2)
    assert canonical_code(a) != canonical_code(b)


def test_canonical_code_requires_root():
    free = RootedLabeledTree([1, 0], [(0, 1)])
    with pytest.raises(ValueError):
        canonical_code(free)


def test_spaces_isometric_examples():
    space = nested_four_point_space()
    assert spaces_isometric(space, permute_space(space, [3, 1, 0, 2]))
    assert not spaces_isometric(space, two_pair_space())


def test_brute_force_isometry_examples():
    space = nested_four_point_space()
    ok, witness = brute_force_isometry(space, space)
    assert ok and witness == (0, 1, 2, 3)

    perm = [3, 1, 0, 2]
    shuffled = permute_space(space, perm)
    ok, witness = brute_force_isometry(shuffled, space)
    assert ok
    assert [space.matrix[witness[i]][witness[j]] for i in range(4) for j in range(4)] \
        == [shuffled.matrix[i][j] for i in range(4) for j in range(4)]

    ok, witness = brute_force_isometry(space, two_pair_space())
    assert not ok and witness is None

    assert brute_force_isometry(equilateral_space(8), equilateral_space(8))[0]
    big = equilateral_space(9)
    with pytest.raises(ValueError, match=r"^brute force capped at 8 points, got 9$"):
        brute_force_isometry(big, big)


def test_spaces_isometric_matches_brute_force():
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(1, 6)
        a = random_ultrametric_space(rng, n)
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            b = permute_space(a, perm)
        else:
            b = random_ultrametric_space(rng, n)
        assert spaces_isometric(a, b) == brute_force_isometry(a, b)[0]


def test_ball_tree_decisions_match_the_tree_code_oracles():
    rng = random.Random(211)
    spaces = differential_spaces(rng, 60)
    pairs = list(zip(spaces, spaces[1:]))   # the shapes come plain, then permuted
    for _ in range(1050):
        n = rng.randint(1, 10)
        a = random_ultrametric_space(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        pairs += [(a, permute_space(a, perm)), (a, one_ball_relabeled(rng, a)),
                  (rank_transform(a), a), (a, random_ultrametric_space(rng, n))]
        if n > 1:   # its one label moved up and back down: often weakly similar
            pairs.append((one_ball_relabeled(rng, a), one_ball_relabeled(rng, a)))
    isometric = similar = 0
    for a, b in pairs:
        iso, weak = tree_code_isometric(a, b), rank_transform_weakly_similar(a, b)
        assert (spaces_isometric(a, b), weakly_similar(a, b)) == (iso, weak)
        assert (spaces_isometric(b, a), weakly_similar(b, a)) == (iso, weak)
        isometric += iso
        similar += weak
    assert len(pairs) >= 5000 and 1000 <= isometric < similar <= len(pairs) - 1000


def test_ball_tree_decisions_refuse_a_metric_that_is_not_ultrametric():
    metric = make_space(["a", "b", "c"], [[0, 2, 3], [2, 0, 2], [3, 2, 0]])
    for decide in (spaces_isometric, weakly_similar):
        for pair in ((metric, nested_four_point_space()), (nested_four_point_space(), metric)):
            with pytest.raises(TypeError, match="need a FiniteUltrametricSpace"):
                decide(*pair)


def test_weak_similarity_check_on_a_squared_transform():
    space = nested_four_point_space()
    squared = apply_preserving(space, lambda t: t * t)
    ok, scaling = weak_similarity_check(squared, space, [0, 1, 2, 3])
    assert ok
    assert scaling.domain == (Fraction(0), Fraction(1), Fraction(2))
    assert scaling.values == (Fraction(0), Fraction(1), Fraction(4))
    assert scaling(2) == 4


def test_weak_similarity_check_identity_scaling_for_isometry():
    space = nested_four_point_space()
    ok, scaling = weak_similarity_check(space, space, [0, 1, 2, 3])
    assert ok
    assert scaling.domain == scaling.values


def test_weak_similarity_check_rejects_rank_collapse():
    ok, scaling = weak_similarity_check(
        nested_four_point_space(), equilateral_space(4), [0, 1, 2, 3]
    )
    assert not ok and scaling is None
    with pytest.raises(ValueError):
        weak_similarity_check(nested_four_point_space(), equilateral_space(4), [0, 0, 1, 2])


def test_weak_similarity_check_refuses_ids_that_are_not_ints():
    # floats passed the sort test and then failed as tuple indices; bools passed
    space = equilateral_space(3)
    for phi in ([0.0, 1.0, 2.0], [True, False, 2], ["0", "1", "2"], [0, 1, 1], [0, 1]):
        with pytest.raises(ValueError, match="^mapping must be a bijection between the point sets$"):
            weak_similarity_check(space, space, phi)


def _weak_similarity_cases(rng, count):
    """Seeded (x, y, bijection) triples, about a third of them weak similarities.

    y is a permuted copy of x under an increasing map (accepted with the
    matching bijection), under a threshold or `quantize_binary` that may
    merge distances, or a permuted copy or another space under a random
    bijection; every 49th case has one point.
    """
    increasing = (lambda t: 3 * t / (2 + t), lambda t: t * t, lambda t: t ** 3 + 5 * t)
    for case in range(count):
        n = 1 if case % 49 == 0 else rng.randint(2, 12)
        x = random_ultrametric_space(rng, n)
        perm = rng.sample(range(n), n)
        inverse = [perm.index(k) for k in range(n)]   # x's point k is y's point inverse[k]
        copy = permute_space(x, perm)
        kind = case % 5
        if kind == 0:
            yield x, apply_preserving(copy, rng.choice(increasing)), inverse
        elif kind == 1:
            r = rng.choice(x.distance_values[1:] or (1,))
            yield x, apply_preserving(copy, threshold_function(r)), inverse
        elif kind == 2:
            yield x, quantize_binary(copy), inverse
        elif kind == 3:
            yield x, copy, rng.sample(range(n), n)
        else:
            yield x, random_ultrametric_space(rng, n), rng.sample(range(n), n)


def test_weak_similarity_check_matches_the_fraction_oracle():
    accepted = 0
    for x, y, phi in _weak_similarity_cases(random.Random(4410), 2500):
        for a, b, f in ((x, y, phi), (y, x, [phi.index(k) for k in range(len(x))])):
            ok, psi = weak_similarity_check(a, b, f)
            want, want_psi = fraction_weak_similarity_check(a, b, f)
            assert ok == want
            if ok:
                assert (psi.domain, psi.values) == (want_psi.domain, want_psi.values)
            else:
                assert psi is None
            accepted += ok
    assert 1200 <= accepted <= 3800


def test_weakly_similar_on_two_max_metrics():
    # points 1/n; one metric is max of squares, the other 1 + max
    pts = [Fraction(1, n) for n in range(1, 6)]
    d = [[Fraction(0) if i == j else max(pts[i], pts[j]) ** 2 for j in range(5)]
         for i in range(5)]
    delta = [[Fraction(0) if i == j else 1 + max(pts[i], pts[j]) for j in range(5)]
             for i in range(5)]
    a = FiniteUltrametricSpace([str(p) for p in pts], d)
    b = FiniteUltrametricSpace([str(p) for p in pts], delta)
    assert weakly_similar(a, b)
    assert weakly_similar(a, a)


def test_weakly_similar_distinguishes_tree_shapes():
    assert not weakly_similar(nested_four_point_space(), equilateral_space(4))


def test_weakly_similar_matches_exhaustive_bijection_search():
    from itertools import permutations

    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(1, 6)
        a = random_ultrametric_space(rng, n)
        if rng.random() < 0.4:
            b = apply_preserving(a, lambda t: t / (1 + t))
        elif rng.random() < 0.6:
            perm = list(range(n))
            rng.shuffle(perm)
            b = permute_space(a, perm)
        else:
            b = random_ultrametric_space(rng, n)
        exhaustive = any(
            weak_similarity_check(a, b, perm)[0]
            for perm in permutations(range(n))
        )
        assert weakly_similar(a, b) == exhaustive


def test_weak_similarity_holds_for_every_increasing_transform():
    rng = random.Random(43)
    for _ in range(20):
        space = random_ultrametric_space(rng, rng.randint(2, 8))
        transformed = apply_preserving(space, lambda t: 3 * t / (2 + t))
        assert weakly_similar(space, transformed)
        ok, _ = weak_similarity_check(transformed, space, list(range(len(space))))
        assert ok


def test_apply_preserving_threshold_and_identity():
    space = nested_four_point_space()
    flat = apply_preserving(space, threshold_function(1))
    assert distance_set(flat) == (Fraction(0), Fraction(1))

    same = apply_preserving(space, lambda t: t)
    assert same.matrix == space.matrix


def test_apply_preserving_accepts_non_strict_merges():
    space = nested_four_point_space()
    merged = apply_preserving(space, {0: 0, 1: 1, 2: 1})
    assert distance_set(merged) == (Fraction(0), Fraction(1))
    assert is_ultrametric_triangle(merged)[0]


def test_apply_preserving_rejects_bad_functions():
    space = nested_four_point_space()
    with pytest.raises(PreservingFunctionError):
        apply_preserving(space, {0: 0, 1: 2, 2: 1})     # decreasing
    with pytest.raises(PreservingFunctionError):
        apply_preserving(space, {0: 0, 1: 0, 2: 1})     # kills a positive distance
    with pytest.raises(PreservingFunctionError):
        apply_preserving(space, {0: 1, 1: 2, 2: 3})     # moves zero
    with pytest.raises(PreservingFunctionError):
        apply_preserving(space, {0: 0, 1: 1})           # undefined at 2


def test_bound_transform_values_and_roundtrip():
    space = space_with_single_distance(Fraction(1))
    bounded = bound_transform(space, 1)
    assert bounded.distance(0, 1) == Fraction(1, 2)

    rng = random.Random(44)
    for _ in range(20):
        space = random_ultrametric_space(rng, rng.randint(2, 10))
        d_star = distance_set(space)[-1] + 1
        there = bound_transform(space, d_star)
        back = unbound_transform(there, d_star)
        assert back.matrix == space.matrix


def space_with_single_distance(d):
    return FiniteUltrametricSpace(["a", "b"], [[0, d], [d, 0]])


def test_unbound_transform_requires_bounded_input():
    space = space_with_single_distance(Fraction(2))
    with pytest.raises(ValueError):
        unbound_transform(space, 2)


def test_extend_scaling_function_reproduces_the_worked_values():
    psi = ScalingFunction(
        [0, Fraction(1, 9), Fraction(1, 4), 1],
        [0, Fraction(4, 3), Fraction(3, 2), 2],
    )
    g = extend_scaling_function(psi)
    assert g(1) == 2
    assert g(Fraction(1, 4)) == Fraction(3, 2)
    assert g(Fraction(1, 9)) == Fraction(4, 3)
    assert g.tail_slope == 2
    assert g(2) == 4
    assert g(0) == 0


def test_extend_scaling_function_identity():
    psi = ScalingFunction([0, 1, 2], [0, 1, 2])
    g = extend_scaling_function(psi)
    for t in (0, Fraction(1, 3), 1, Fraction(3, 2), 2, 7):
        assert g(t) == t


def test_extended_function_strictly_increasing_on_probes():
    psi = ScalingFunction(
        [0, Fraction(1, 9), Fraction(1, 4), 1],
        [0, Fraction(4, 3), Fraction(3, 2), 2],
    )
    g = extend_scaling_function(psi)
    rng = random.Random(45)
    probes = sorted({Fraction(rng.randint(0, 4000), rng.randint(1, 1000))
                     for _ in range(2000)})
    images = [g(t) for t in probes]
    assert all(a < b for a, b in zip(images, images[1:]))


def linear_scan_value(fn: PiecewiseLinearFn, t: Fraction) -> Fraction:
    """`fn(t)` from the first segment holding t, or the tail past the last breakpoint."""
    pts = fn.breakpoints
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x0 <= t < x1:
            return y0 + (y1 - y0) * (t - x0) / (x1 - x0)
    x0, y0 = pts[-1]
    return y0 + fn.tail_slope * (t - x0)


def test_piecewise_linear_segments_match_a_linear_scan():
    rng = random.Random(46)
    for count in range(1, 12):
        xs = sorted(rng.sample(range(1, 60), count - 1))
        ys = sorted(rng.sample(range(1, 60), count - 1))
        fn = PiecewiseLinearFn([(0, 0)] + [(Fraction(x, 3), y) for x, y in zip(xs, ys)],
                               tail_slope=Fraction(rng.randint(1, 9), 4))
        at = [x for x, _ in fn.breakpoints]
        between = [(a + b) / 2 for a, b in zip(at, at[1:])] + [a + Fraction(1, 97) for a in at]
        past = [at[-1] + 1, at[-1] * 3 + Fraction(1, 7)]
        for t in at + between + past:
            assert fn(t) == linear_scan_value(fn, t), (fn.breakpoints, t)


def test_quantize_binary_values():
    space = FiniteUltrametricSpace(
        ["a", "b", "c"],
        [[0, Fraction(3, 10), Fraction(7, 10)],
         [Fraction(3, 10), 0, Fraction(7, 10)],
         [Fraction(7, 10), Fraction(7, 10), 0]],
    )
    q = quantize_binary(space)
    assert q.distance(0, 1) == Fraction(1, 4)
    assert q.distance(0, 2) == Fraction(1, 2)
    assert q.distance(0, 0) == 0


def test_quantize_binary_snaps_a_tiny_distance_in_one_step():
    tiny = Fraction(1, 10 ** 30000)   # 2^-99658 < tiny < 2^-99657
    q = quantize_binary(FiniteUltrametricSpace(["a", "b"], [[0, tiny], [tiny, 0]]))
    assert q.distance_values == (0, Fraction(1, 2 ** 99658))


def test_quantize_binary_properties():
    rng = random.Random(46)
    for _ in range(30):
        space = random_ultrametric_space(rng, rng.randint(2, 10))
        q = quantize_binary(space)
        assert is_ultrametric_triangle(q)[0]
        for i in range(len(space)):
            for j in range(len(space)):
                rho, d = q.distance(i, j), space.distance(i, j)
                if i != j:
                    # dyadic value: a power of two times an integer
                    assert rho.denominator & (rho.denominator - 1) == 0
                assert rho <= Fraction(1, 2) or i == j
                assert rho <= d
                if d <= Fraction(1, 2):
                    assert d <= 2 * rho


def test_quantize_only_merges_balls():
    # an isotone transform can only coarsen the ball structure: every ball
    # of the quantized space is already a ball of the original
    from ultratree import ballean

    rng = random.Random(47)
    for _ in range(20):
        space = random_ultrametric_space(rng, rng.randint(2, 10))
        q = quantize_binary(space)
        assert ballean(q).point_sets() <= ballean(space).point_sets()


def test_quantize_ladder():
    space = nested_four_point_space()
    q = quantize_ladder(space, [Fraction(3, 2), Fraction(3, 4)])
    assert q.distance(0, 1) == Fraction(3, 2)
    assert q.distance(1, 2) == Fraction(3, 4)
    with pytest.raises(ValueError):
        quantize_ladder(space, [Fraction(3, 2)])  # does not reach distance 1
    with pytest.raises(ValueError):
        quantize_ladder(space, [1, 2])


def test_rank_transform_ranks_distances():
    space = nested_four_point_space()
    ranked = rank_transform(space)
    assert distance_set(ranked) == (Fraction(0), Fraction(1), Fraction(2))
    squashed = apply_preserving(space, {0: 0, 1: Fraction(1, 7), 2: Fraction(1, 5)})
    assert rank_transform(squashed).matrix == ranked.matrix


def test_quantize_ladder_matches_the_snap_loop():
    rng = random.Random(152)
    for space in differential_spaces(rng, 60):
        values = space.distance_values
        top, low = values[-1] or Fraction(1), values[min(1, len(values) - 1)] or Fraction(1)
        # rungs on, between and above the distances, down to or below the smallest
        pool = set(values[1:]) | {(a + b) / 2 for a, b in zip(values[1:], values[2:])}
        pool |= {top + 1, top * 3, low / 2, low / 7}
        for _ in range(3):
            rungs = set(rng.sample(sorted(pool), rng.randint(0, len(pool) - 1)))
            rungs.add(low if rng.random() < 0.5 else low / rng.randint(2, 9))
            ladder = sorted(rungs, reverse=True)
            got, want = quantize_ladder(space, ladder), snap_loop_quantize_ladder(space, ladder)
            assert (got.names, got.distance_values, got.rank) == \
                (want.names, want.distance_values, want.rank)
