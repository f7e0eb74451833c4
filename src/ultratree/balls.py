"""Balls of a finite ultrametric space: enumeration, inclusion order, Hausdorff metric.

For finite ultrametric spaces the open and closed balls coincide as set
families, and they are exactly the vertices of the representing tree
(Gurvich & Vyalyi), so the ballean is read off `core._ball_tree`, the one
construction of the balls.  Each ball is a run of the single-linkage
order, led by its smallest point.  Balls are identified by their point
sets; centers and radii are only witnesses, since every point of a ball
is one of its centers.

Everything reads ranks, never the `Fraction` matrix.  Inclusion is run
containment and a join walks up the ball tree, with no rank row read;
distances between balls come from their smallest points and diameter
ranks.  The tests keep the center-by-radius enumerations the ballean
replaced, and the `closed_ball` join, as oracles.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, Optional

from .core import (
    FiniteUltrametricSpace,
    format_rational,
    parse_rational,
    _ball_tree,
    _gather,
    _require_ultrametric,
    _subset_diam_rank,
    _subset_points,
)


class Ball:
    """A ball, canonically keyed by its sorted point tuple."""

    __slots__ = ("points", "diameter", "witness_center", "witness_radius")

    def __init__(self, points: Iterable[int], diameter: Fraction,
                 witness_center: int, witness_radius: Fraction):
        self.points = tuple(sorted(points))
        self.diameter = diameter
        self.witness_center = witness_center
        self.witness_radius = witness_radius

    def __eq__(self, other):
        return isinstance(other, Ball) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __repr__(self):
        return f"<Ball {{{','.join(map(str, self.points))}}} diam={self.diameter}>"


class Ballean:
    """The distinct balls of a space, in canonical order.

    Canonical order is decreasing diameter, ties broken by smallest point
    index, so the whole space comes first and singletons last.
    """

    __slots__ = ("balls",)

    def __init__(self, balls: Iterable[Ball]):
        self.balls = tuple(balls)

    def __len__(self):
        return len(self.balls)

    def __iter__(self):
        return iter(self.balls)

    def point_sets(self) -> set[tuple[int, ...]]:
        return {b.points for b in self.balls}


def closed_ball(space: FiniteUltrametricSpace, center: int, radius) -> Ball:
    """The ball of points within `radius` of `center`.

    The stored diameter is the diameter of the member set, which is the
    canonical radius: re-drawing the ball at that radius gives the same set.
    """
    _require_ultrametric(space, "ball operations")
    _subset_points(space, (center,), "ball")
    radius = parse_rational(radius)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    values, row = space.distance_values, space.rank[center]
    t = bisect_right(values, radius)   # the ranks of the values <= radius
    members = tuple(x for x, r in enumerate(row) if r < t)
    return Ball(members, values[max(map(row.__getitem__, members))], center, radius)


def ballean(space: FiniteUltrametricSpace) -> Ballean:
    """All distinct balls: the vertices of `core._ball_tree`, in canonical order.

    Each ball's witness center is its smallest point and its witness
    radius is its diameter.  Contains the whole space and every
    singleton; the count never exceeds 2n - 1.  O(n log n) plus the total
    size of the balls.
    """
    return Ballean(_tree_balls(space)[-1])


def _tree_balls(space: FiniteUltrametricSpace):
    # `core._ball_tree`, its vertices in canonical order and their balls, each
    # a sorted run of `_order` witnessed by its first point at its diameter
    _require_ultrametric(space, "ball operations")
    runs, parent = _ball_tree(space._gaps)
    order, values = space._order, space.distance_values
    canonical = sorted(range(len(runs)), key=[(-r, order[s]) for r, s, _ in runs].__getitem__)
    balls = tuple(Ball.__new__(Ball) for _ in canonical)
    for ball, v in zip(balls, canonical):
        r, s, e = runs[v]
        ball.points, ball.witness_center = tuple(sorted(order[s:e])), order[s]
        ball.diameter = ball.witness_radius = values[r]
    return runs, parent, canonical, balls


def smallest_enclosing_ball(space: FiniteUltrametricSpace, points: Iterable[int]) -> Ball:
    """Smallest ball containing `points` (repeats allowed): any member at radius diam."""
    _require_ultrametric(space, "ball operations")
    pts = sorted(_subset_points(space, set(points), "smallest enclosing ball"))
    return closed_ball(space, pts[0], space.distance_values[_subset_diam_rank(space, pts)])


class BallPoset:
    """The ballean ordered by inclusion.

    Any two balls are nested or disjoint, so joins always exist (the
    smallest ball around the union) while meets exist exactly for
    non-disjoint pairs, where the meet is the inner ball.  A missing meet
    is reported as None, not an error.

    Inclusion is ancestry in `core._ball_tree`, read in canonical order:
    each ball's run `(start, end)` of the single-linkage order and its
    parent.  A lies in b iff b's run holds a's, and the join is the first
    ball up from a whose run holds b's: O(depth), with no rank row read.
    """

    __slots__ = ("space", "balls", "_index", "_run", "_parent")

    def __init__(self, space: FiniteUltrametricSpace):
        runs, parent, canonical, self.balls = _tree_balls(space)
        at = dict(zip(canonical, range(len(canonical))))   # tree vertex -> canonical place
        self.space = space
        # balls are nested or disjoint, so the smallest point and size name one
        self._index = {(b.points[0], len(b)): i for i, b in enumerate(self.balls)}
        self._run = [runs[v][1:] for v in canonical]
        self._parent = [at.get(parent[v]) for v in canonical]

    def __len__(self):
        return len(self.balls)

    def _resolve(self, ball: Ball) -> int:
        # O(1) for this poset's own balls; any other must have their points
        pts = ball.points
        i = self._index.get((pts[0], len(pts)) if pts else None)
        if i is None or (self.balls[i] is not ball and self.balls[i].points != pts):
            raise ValueError(f"{ball!r} is not a ball of this space")
        return i

    def leq(self, lower: Ball, upper: Ball) -> bool:
        (s, e), (t, f) = self._run[self._resolve(upper)], self._run[self._resolve(lower)]
        return s <= t and f <= e

    def comparable(self, a: Ball, b: Ball) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def join(self, a: Ball, b: Ball) -> Ball:
        run, i = self._run, self._resolve(a)
        t, f = run[self._resolve(b)]
        while run[i][0] > t or run[i][1] < f:   # up to the first run holding b's
            i = self._parent[i]
        return self.balls[i]

    def meet(self, a: Ball, b: Ball) -> Optional[Ball]:
        # non-disjoint balls are nested, so the intersection is the inner ball
        inner = a if self.leq(a, b) else b if self.leq(b, a) else None
        return None if inner is None else self.balls[self._resolve(inner)]

    def largest(self) -> Ball:
        return self.balls[0]


def ball_poset(space: FiniteUltrametricSpace) -> BallPoset:
    return BallPoset(space)


def hausdorff_distance(space: FiniteUltrametricSpace, a: Ball, b: Ball) -> Fraction:
    """Hausdorff distance between two balls: diameter of their union when distinct."""
    _require_ultrametric(space, "ball operations")
    pa, pb = (_subset_points(space, x.points, "Hausdorff distance") for x in (a, b))
    if pa == pb:
        return Fraction(0)
    return space.distance_values[_subset_diam_rank(space, pa + pb)]


def hausdorff_distance_direct(space: FiniteUltrametricSpace, a: Ball, b: Ball) -> Fraction:
    """Hausdorff distance evaluated straight from the sup-inf definition.

    Independent of the diameter-of-union shortcut; kept as an oracle for
    cross-checking it.
    """
    rank = space.rank

    def directed(src, dst):
        return max(min(rank[x][y] for y in dst) for x in src)

    t = max(directed(a.points, b.points), directed(b.points, a.points))
    return space.distance_values[t]


class HausdorffBallSpace:
    """The ballean as an ultrametric space under the Hausdorff metric."""

    __slots__ = ("space", "balls")

    def __init__(self, space: FiniteUltrametricSpace, balls: tuple[Ball, ...]):
        self.space = space
        self.balls = balls


def hausdorff_ball_space(space: FiniteUltrametricSpace) -> HausdorffBallSpace:
    """Build (ballean, Hausdorff metric) as a validated ultrametric space.

    Point names are brace-wrapped member lists, with a backslash before
    each `\\`, `,`, `{` and `}` of a member's name, so no two balls share a
    name; the map x -> {x} embeds the original space isometrically.
    Distinct balls are at the diameter of their union (`hausdorff_distance`),
    the label of their lowest common ancestor in `core._ball_tree`.  So in
    that tree's numbering, a preorder, each ball joins at its parent's
    diameter rank, and `FiniteUltrametricSpace._from_gaps` builds the space
    from that order and those gaps.  O(b log b) for b balls, plus the names;
    its rank rows are built when first read.
    """
    runs, parent, canonical, balls = _tree_balls(space)
    escape = str.maketrans({c: "\\" + c for c in "\\,{}"})
    members = [x.translate(escape) for x in space.names]
    names = ["{" + ",".join(_gather(b.points)(members)) + "}" for b in balls]
    order = sorted(range(len(balls)), key=canonical.__getitem__)   # each vertex's ball
    gaps = [0] + [runs[p][0] for p in parent[1:]]
    return HausdorffBallSpace(
        FiniteUltrametricSpace._from_gaps(names, space.distance_values, order, gaps), balls)


def ballean_to_json(bn: Ballean) -> dict:
    return {
        "balls": [
            {"points": list(b.points), "diameter": format_rational(b.diameter)}
            for b in bn.balls
        ]
    }
