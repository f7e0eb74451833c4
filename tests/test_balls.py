from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from ultratree import (
    Ball,
    FiniteUltrametricSpace,
    ball_poset,
    ballean,
    ballean_to_json,
    build_representing_tree,
    closed_ball,
    hausdorff_ball_space,
    hausdorff_distance,
    hausdorff_distance_direct,
    is_ultrametric_triangle,
    smallest_enclosing_ball,
)
from ultratree import balls as balls_module
from util import (
    caterpillar_matrix,
    closed_ball_join,
    count_calls,
    differential_spaces,
    enumerated_ballean,
    flat_matrix,
    fraction_closed_ball,
    nested_four_point_space,
    padic_matrix,
    pairwise_hausdorff_ball_space,
    permuted,
    random_ultrametric_matrix,
    random_ultrametric_space,
    row_sort_ballean,
    two_pair_space,
)


def test_closed_ball_examples():
    space = nested_four_point_space()
    assert closed_ball(space, 1, 1).points == (1, 2, 3)
    assert closed_ball(space, 2, 0).points == (2,)
    assert closed_ball(space, 0, 2).points == (0, 1, 2, 3)


def test_closed_ball_refuses_a_center_outside_the_space():
    space = nested_four_point_space()
    for center in (-1, 4):
        with pytest.raises(ValueError, match=rf"point {center} is not an index in range\(4\)"):
            closed_ball(space, center, 1)


def test_membership_follows_iteration():
    space = nested_four_point_space()
    bn = ballean(space)
    ball = closed_ball(space, 1, 1)
    assert [x for x in range(-1, 6) if x in ball] == [1, 2, 3]
    assert ball in bn and closed_ball(space, 2, 0) in bn
    assert Ball((1, 2), 1, 1, 1) not in bn and (1, 2, 3) not in bn


def test_ball_identity_ignores_witnesses():
    space = nested_four_point_space()
    assert closed_ball(space, 1, 1) == closed_ball(space, 3, 1)
    assert hash(closed_ball(space, 1, 1)) == hash(closed_ball(space, 3, 1))


def test_ballean_sizes():
    assert len(ballean(nested_four_point_space())) == 6
    assert len(ballean(two_pair_space())) == 7
    one = random_ultrametric_space(random.Random(0), 1)
    assert len(ballean(one)) == 1


def test_ballean_contains_space_and_singletons_and_respects_bound():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 16)
        space = random_ultrametric_space(rng, n)
        bn = ballean(space)
        sets = bn.point_sets()
        assert tuple(range(n)) in sets
        for i in range(n):
            assert (i,) in sets
        assert len(bn) <= 2 * n - 1


def test_every_member_is_a_center():
    rng = random.Random(12)
    for _ in range(20):
        space = random_ultrametric_space(rng, rng.randint(2, 10))
        for ball in ballean(space):
            for member in ball:
                assert closed_ball(space, member, ball.diameter) == ball


def test_smallest_enclosing_ball_examples():
    space = nested_four_point_space()
    assert smallest_enclosing_ball(space, [1, 2]).points == (1, 2, 3)
    assert smallest_enclosing_ball(space, [0, 1]).points == (0, 1, 2, 3)
    assert smallest_enclosing_ball(space, [2]).points == (2,)
    assert smallest_enclosing_ball(space, [2, 1, 2]).points == (1, 2, 3)
    with pytest.raises(ValueError):
        smallest_enclosing_ball(space, [])
    for pts, bad in (([7], 7), ([0, 7], 7), ([-1, 0], -1)):
        with pytest.raises(ValueError, match=rf"^point {bad} is not an index in range\(4\)$"):
            smallest_enclosing_ball(space, pts)


def test_smallest_enclosing_ball_has_the_set_diameter_and_holds_the_set():
    rng = random.Random(16)
    for space in differential_spaces(rng, 40):
        n = len(space)
        for _ in range(10):
            pts = rng.sample(range(n), rng.randint(1, n))
            ball = smallest_enclosing_ball(space, pts)
            assert ball.diameter == max(space.distance(a, b) for a in pts for b in pts)
            assert set(pts) <= set(ball.points)


def test_ball_poset_matches_frozenset_definitions():
    rng = random.Random(15)
    for space in differential_spaces(rng, 40):
        poset = ball_poset(space)
        balls = poset.balls
        sets = [frozenset(b.points) for b in balls]
        pairs = list(product(range(len(balls)), repeat=2))
        if len(pairs) > 500:
            # every pair of the 12 largest balls, and a sample of the rest
            large = sorted(range(len(balls)), key=lambda i: -len(balls[i]))[:12]
            pairs = rng.sample(pairs, 500) + list(product(large, repeat=2))
        for i, j in pairs:
            a, b = balls[i], balls[j]
            assert poset.leq(a, b) == (sets[i] <= sets[j])
            common = sets[i] & sets[j]
            assert poset.meet(a, b) == (None if not common else balls[sets.index(common)])
            above = [k for k in range(len(balls)) if sets[i] | sets[j] <= sets[k]]
            least = min(above, key=lambda k: len(sets[k]))
            assert poset.join(a, b) == balls[least]
            assert poset.join(a, b) == smallest_enclosing_ball(space, sets[i] | sets[j])


def test_smallest_enclosing_ball_independent_of_anchor():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 12)
        space = random_ultrametric_space(rng, n)
        pts = sorted(rng.sample(range(n), rng.randint(1, n)))
        expected = smallest_enclosing_ball(space, pts)
        for anchor in pts:
            d = max(space.distance(anchor, x) for x in pts)
            assert closed_ball(space, anchor, d) == expected


def test_nested_or_disjoint_and_constant_cross_distance():
    rng = random.Random(14)
    for _ in range(25):
        space = random_ultrametric_space(rng, rng.randint(2, 12))
        bn = list(ballean(space))
        for a, b in combinations(bn, 2):
            sa, sb = set(a.points), set(b.points)
            if sa & sb:
                assert sa <= sb or sb <= sa
            else:
                union_diam = hausdorff_distance(space, a, b)
                cross = {space.distance(x, y) for x, y in product(a, b)}
                assert cross == {union_diam}


def test_inclusion_iff_intersection_and_diameter():
    rng = random.Random(15)
    for _ in range(25):
        space = random_ultrametric_space(rng, rng.randint(2, 12))
        bn = list(ballean(space))
        for a, b in product(bn, bn):
            sa, sb = set(a.points), set(b.points)
            expected = bool(sa & sb) and a.diameter <= b.diameter
            assert (sa <= sb) == expected


def test_closed_ball_matches_the_fraction_scan():
    # radii at, between, just below and just above every distance value
    eps = Fraction(1, 10 ** 6)
    rng = random.Random(18)
    spaces = [random_ultrametric_space(rng, rng.randint(1, 24)) for _ in range(60)]
    for m in (flat_matrix(32), caterpillar_matrix(32), padic_matrix(2, 5), padic_matrix(3, 3)):
        m = permuted(rng, m)
        spaces.append(FiniteUltrametricSpace([f"p{i}" for i in range(len(m))], m))
    for space in spaces:
        values = space.distance_values
        radii = set(values) | {(a + b) / 2 for a, b in zip(values, values[1:])}
        radii |= {v + eps for v in values} | {v - eps for v in values[1:]} | {2 * values[-1] + 1}
        for c in space.points():
            for r in radii:
                ball, want = closed_ball(space, c, r), fraction_closed_ball(space, c, r)
                assert (ball.points, ball.diameter, ball.witness_center, ball.witness_radius) \
                    == (want.points, want.diameter, want.witness_center, want.witness_radius)


def test_closed_ball_diameter_bounded_by_radius():
    rng = random.Random(16)
    for _ in range(25):
        n = rng.randint(2, 12)
        space = random_ultrametric_space(rng, n)
        for c in range(n):
            realized = {space.distance(c, x) for x in range(n)}
            for t in space.distance_values:
                ball = closed_ball(space, c, t)
                assert ball.diameter <= t
                if t not in realized:
                    assert ball.diameter < t


def test_ball_poset_join_and_meet():
    space = nested_four_point_space()
    poset = ball_poset(space)
    by_points = {b.points: b for b in poset.balls}
    x2, x3 = by_points[(1,)], by_points[(2,)]
    assert poset.join(x2, x3).points == (1, 2, 3)
    x1, whole = by_points[(0,)], by_points[(0, 1, 2, 3)]
    assert poset.meet(x1, whole) == x1
    assert poset.meet(x1, x2) is None
    assert poset.largest() == whole


def test_ball_poset_join_is_least_upper_bound():
    rng = random.Random(17)
    for _ in range(15):
        space = random_ultrametric_space(rng, rng.randint(2, 10))
        poset = ball_poset(space)
        for a, b in combinations(poset.balls, 2):
            j = poset.join(a, b)
            assert poset.leq(a, j) and poset.leq(b, j)
            for c in poset.balls:
                if poset.leq(a, c) and poset.leq(b, c):
                    assert poset.leq(j, c)


def test_joins_match_the_closed_ball_join():
    # every pair on the small spaces; sampled pairs on the bench shapes, up to n = 256
    rng = random.Random(19)
    spaces = differential_spaces(rng, 40)
    for matrix in (caterpillar_matrix(256), random_ultrametric_matrix(rng, 256),
                   flat_matrix(256), padic_matrix(2, 8), padic_matrix(3, 5)):
        for m in (matrix, permuted(rng, matrix)):
            spaces.append(FiniteUltrametricSpace([f"p{i}" for i in range(len(m))], m))
    for space in spaces:
        poset = ball_poset(space)
        pairs = list(product(poset.balls, repeat=2))
        if len(space) > 24:
            pairs = rng.sample(pairs, 300)
        for a, b in pairs:
            got, want = poset.join(a, b), closed_ball_join(poset, a, b)
            assert (got.points, got.diameter) == (want.points, want.diameter)


def test_joins_never_call_closed_ball(monkeypatch):
    space = FiniteUltrametricSpace([f"p{i}" for i in range(64)], caterpillar_matrix(64))
    poset = ball_poset(space)
    counts = count_calls(monkeypatch, balls_module, ("closed_ball",))
    for a, b in product(poset.balls, repeat=2):
        poset.join(a, b)
    assert counts == {"closed_ball": 0}
    smallest_enclosing_ball(space, [0, 1])   # the counter sees a call that scans a row
    assert counts == {"closed_ball": 1}


class UnreadPoints(tuple):
    """A point tuple that fails the test when hashed or compared whole."""

    def __eq__(self, other):
        raise AssertionError("a point tuple was compared")

    __ne__ = __eq__

    def __hash__(self):
        raise AssertionError("a point tuple was hashed")


def test_ball_poset_finds_its_own_balls_without_reading_their_points():
    space = FiniteUltrametricSpace([f"p{i}" for i in range(256)], caterpillar_matrix(256))
    poset = ball_poset(space)
    whole, leaf = poset.balls[0], poset.balls[-1]
    assert len(whole) == 256 and len(leaf) == 1
    for ball in poset.balls:
        ball.points = UnreadPoints(ball.points)
    assert poset.leq(whole, whole) and poset.leq(leaf, whole) and not poset.leq(whole, leaf)
    assert poset.join(leaf, whole) is whole and poset.meet(whole, leaf) is leaf


def test_ball_poset_refuses_a_point_set_that_is_not_its_ball():
    poset = ball_poset(FiniteUltrametricSpace([f"p{i}" for i in range(64)], caterpillar_matrix(64)))
    points = {b.points for b in poset.balls}
    for ball in poset.balls:
        copy = Ball(ball.points, ball.diameter, ball.witness_center, ball.witness_radius)
        assert poset.leq(copy, poset.balls[0]) and poset.join(copy, copy) is ball
        # the same smallest point and size, another point set
        other = next((ball.points[:-1] + (x,) for x in range(ball.points[-1] + 1, 64)
                      if ball.points[:-1] + (x,) not in points), None)
        if other is not None:
            with pytest.raises(ValueError, match="is not a ball of this space"):
                poset.leq(Ball(other, ball.diameter, other[0], ball.diameter), poset.balls[0])
    with pytest.raises(ValueError, match="is not a ball of this space"):
        poset.leq(Ball((), Fraction(0), 0, Fraction(0)), poset.balls[0])


def test_hausdorff_examples():
    space = nested_four_point_space()
    by_points = {b.points: b for b in ballean(space)}
    assert hausdorff_distance(space, by_points[(0,)], by_points[(1, 2, 3)]) == 2
    assert hausdorff_distance(space, by_points[(1,)], by_points[(1,)]) == 0
    assert hausdorff_distance(space, by_points[(1,)], by_points[(2,)]) == 1


def test_hausdorff_matches_direct_definition():
    rng = random.Random(18)
    for _ in range(20):
        space = random_ultrametric_space(rng, rng.randint(2, 10))
        bn = list(ballean(space))
        for a, b in product(bn, bn):
            assert hausdorff_distance(space, a, b) == hausdorff_distance_direct(space, a, b)


def test_disjoint_balls_hausdorff_equals_min_pair_distance():
    rng = random.Random(19)
    for _ in range(20):
        space = random_ultrametric_space(rng, rng.randint(2, 10))
        bn = list(ballean(space))
        for a, b in combinations(bn, 2):
            if set(a.points) & set(b.points):
                continue
            min_pair = min(space.distance(x, y) for x, y in product(a, b))
            assert hausdorff_distance(space, a, b) == min_pair


def test_hausdorff_ball_space_is_ultrametric_and_embeds_the_points():
    space = nested_four_point_space()
    hs = hausdorff_ball_space(space)
    assert len(hs.space.names) == 6
    assert is_ultrametric_triangle(hs.space)[0]
    index = {b.points: i for i, b in enumerate(hs.balls)}
    for x in range(4):
        for y in range(4):
            assert hs.space.distance(index[(x,)], index[(y,)]) == space.distance(x, y)

    one = random_ultrametric_space(random.Random(1), 1)
    assert len(hausdorff_ball_space(one).space.names) == 1


def test_ballean_json_is_sorted_by_diameter_then_point():
    payload = ballean_to_json(ballean(nested_four_point_space()))
    assert payload["balls"][0] == {"points": [0, 1, 2, 3], "diameter": "2"}
    assert payload["balls"][1] == {"points": [1, 2, 3], "diameter": "1"}
    assert [b["points"] for b in payload["balls"][2:]] == [[0], [1], [2], [3]]


def test_hausdorff_strong_triangle_over_ball_triples():
    rng = random.Random(20)
    for _ in range(10):
        space = random_ultrametric_space(rng, rng.randint(2, 9))
        bn = list(ballean(space))
        for a, b, c in combinations(bn, 3):
            dab = hausdorff_distance(space, a, b)
            dac = hausdorff_distance(space, a, c)
            dbc = hausdorff_distance(space, b, c)
            assert dab <= max(dac, dbc)
            assert dac <= max(dab, dbc)
            assert dbc <= max(dab, dac)


def witnessed(balls):
    return [(b.points, b.diameter, b.witness_center, b.witness_radius) for b in balls]


def test_ballean_matches_center_radius_oracle():
    for space in differential_spaces(random.Random(41), 200):
        fast, slow = ballean(space), enumerated_ballean(space)
        assert witnessed(fast) == witnessed(slow)
        assert ballean_to_json(fast) == ballean_to_json(slow)


def test_ballean_matches_the_row_sort_oracle_at_scale():
    # sizes the center-by-radius oracle, O(n^2 |D(X)|), is too slow for
    rng = random.Random(43)
    two_adic = [Fraction(0)] + [Fraction(1, k & -k) for k in range(1, 1024)]   # |k|_2
    for m in (random_ultrametric_matrix(rng, 1024), caterpillar_matrix(1024),
              permuted(rng, caterpillar_matrix(1024)),
              [[two_adic[abs(i - j)] for j in range(1024)] for i in range(1024)]):
        space = FiniteUltrametricSpace([f"p{i}" for i in range(len(m))], m)
        assert witnessed(ballean(space)) == witnessed(row_sort_ballean(space))


def test_hausdorff_ball_space_matches_pairwise_oracle():
    for space in differential_spaces(random.Random(42), 100):
        fast, slow = hausdorff_ball_space(space), pairwise_hausdorff_ball_space(space)
        assert witnessed(fast.balls) == witnessed(slow.balls)
        assert fast.space.names == slow.space.names
        assert fast.space.matrix == slow.space.matrix


@pytest.mark.parametrize("names, matrix, expected", [
    (["a,b", "a", "b"], [[0, 2, 2], [2, 0, 1], [2, 1, 0]],
     ("{a\\,b,a,b}", "{a,b}", "{a\\,b}", "{a}", "{b}")),
    (["{a}", "a"], [[0, 1], [1, 0]], ("{\\{a\\},a}", "{\\{a\\}}", "{a}")),
    # unescaped, the ball {a\, b} would take the name of the point "a,b"
    (["a\\", "b", "a,b"], [[0, 1, 2], [1, 0, 2], [2, 2, 0]],
     ("{a\\\\,b,a\\,b}", "{a\\\\,b}", "{a\\\\}", "{b}", "{a\\,b}")),
])
def test_hausdorff_names_escape_separators_and_braces(names, matrix, expected):
    space = FiniteUltrametricSpace(names, matrix)
    hs = hausdorff_ball_space(space)
    assert hs.space.names == expected and len(set(expected)) == len(hs.balls)
    for i, a in enumerate(hs.balls):
        for j, b in enumerate(hs.balls):
            assert hs.space.distance(i, j) == hausdorff_distance(space, a, b)


def test_balls_are_runs_of_the_single_linkage_order():
    # every ball of the oracle is a run of `_order` that starts at its
    # smallest point, and the tree's leaves in vertex order are `_order`
    rng = random.Random(16)
    spaces = differential_spaces(rng, 60)
    for matrix in (random_ultrametric_matrix(rng, 300), caterpillar_matrix(300),
                   flat_matrix(256), padic_matrix(3, 5)):
        for m in (matrix, permuted(rng, matrix)):
            spaces.append(FiniteUltrametricSpace([f"p{i}" for i in range(len(m))], m))
    for space in spaces:
        order = space._order
        at = {x: s for s, x in enumerate(order)}
        for ball in row_sort_ballean(space):
            s = at[ball.points[0]]
            assert tuple(sorted(order[s:s + len(ball)])) == ball.points
        tree = build_representing_tree(space)
        assert [p for v in range(tree.n) if tree.labels[v] == 0 for p in tree.ball_points[v]] == order
