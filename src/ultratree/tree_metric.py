"""Metrics generated by labeled trees, and the checkers, orders and audits of trees.

The path-max metric turns vertex labels into distances.  Orders are up-set
bitmasks: `_up_closure` closes (lower, upper) arcs and `_covering_pairs`
reads the covers back off, for `tree_order`, `edge_characterization_check`
and the checker of which finite posets are ball lattices.
`verify_tree_invariants` audits a tree against balls found another way, by
splitting the space top down into diametrical parts, so it does not share
the code it checks; `sphere_plus_center_condition` reads those parts as a
ball's children in `core._ball_tree`.  The way back from a tree, in
`repr_tree`, answers here too.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import and_
from typing import TYPE_CHECKING, Iterable, Optional, Union

from .core import (FiniteUltrametricSpace, _ball_tree, _classes_below, _document, _is_index,
                   _rank_of, _require_ultrametric, _rows_at, _subset_points)
from .repr_tree import (MaxChain, MaxChainSpace, Representability, RootedLabeledTree,
                        _chains_and_partings, check_representable, is_monotone_labeling,
                        maximal_chains, reconstruct_space)

if TYPE_CHECKING:
    from .balls import Ball


class PseudoUltrametricSpace:
    """A path-max metric that collapses some distinct vertex pair to zero.

    Not a metric space; `zero_pair` witnesses the collapse so callers
    cannot silently treat it as one.
    """

    __slots__ = ("names", "matrix", "zero_pair")

    def __init__(self, names, matrix, zero_pair: tuple[int, int]):
        self.names = tuple(names)
        self.matrix = tuple(tuple(row) for row in matrix)
        self.zero_pair = zero_pair

    def __len__(self):
        return len(self.names)

    def __repr__(self):
        return f"<PseudoUltrametricSpace n={len(self)} zero_pair={self.zero_pair}>"


def path_max_metric(tree: RootedLabeledTree) -> Union[FiniteUltrametricSpace,
                                                      PseudoUltrametricSpace]:
    """Distance between vertices: the largest label on the connecting path.

    Yields a genuine ultrametric iff every edge has a positively labeled
    endpoint; otherwise the pseudoultrametric is returned with a witness
    pair at distance zero.  The space comes from one run's order and gaps
    (`FiniteUltrametricSpace._from_gaps`).
    """
    n = tree.n
    values, ranks = tree.label_values, tree.label_rank
    if values[0]:   # no label is 0, the distance on the diagonal: rank it below them
        values, ranks = (Fraction(0),) + values, [r + 1 for r in ranks]
    # Vertices join in order of label (Kruskal): a vertex's label is the
    # path maximum between any two of the groups it joins.  So a group is a
    # run of single-linkage order, and a join puts the runs end to end.
    group = [[v] for v in range(n)]   # group[v]: the joined vertices with v, in run order
    gap = [0] * n                     # gap[v]: the rank at which v joins the run before it
    joined = set()
    for v in sorted(range(n), key=ranks.__getitem__):
        mine = group[v]
        for other in [group[w] for w in tree.neighbors(v) if w in joined]:
            gap[other[0]] = ranks[v]
            mine += other
            for y in other:
                group[y] = mine
        joined.add(v)
    used, (gaps,) = _rank_of(gap, [group[0]])   # 0 is used; a label below its neighbors' is not
    values = [values[r] for r in used]
    names = [f"v{i}" for i in range(n)]
    for u, v in tree.edges:
        if ranks[u] == 0 and ranks[v] == 0:   # both labels 0
            rows = _rows_at(sorted(range(n), key=group[0].__getitem__), gaps)   # by each vertex's place
            matrix = [[values[r] for r in row] for row in rows]
            return PseudoUltrametricSpace(names, matrix, (u, v))
    return FiniteUltrametricSpace._from_gaps(names, values, group[0], gaps)


class CheckEntry:
    __slots__ = ("name", "passed", "witness")

    def __init__(self, name: str, passed: bool, witness: Optional[str] = None):
        self.name = name
        self.passed = passed
        self.witness = witness

    def __repr__(self):
        tail = "" if self.passed else f" ({self.witness})"
        return f"<{self.name}: {'ok' if self.passed else 'FAIL'}{tail}>"


class InvariantReport:
    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[CheckEntry]):
        self.entries = tuple(entries)

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> tuple[CheckEntry, ...]:
        return tuple(e for e in self.entries if not e.passed)

    def __repr__(self):
        return f"<InvariantReport {'ok' if self.ok else self.failures()}>"


def _diametrical_splits(space: FiniteUltrametricSpace) -> dict:
    """Each ball's point set -> (diameter, diametrical part count), split top down.

    A ball listed by rank from its first point ends at its diameter t, and
    its first part is the prefix below t.  The rest, re-sorted from its own
    first point, has the second part as its prefix; only a third or later
    part takes `_classes_below`'s greedy loop, and is sorted once.
    """
    rank, values = _require_ultrametric(space, "tree audits").rank, space.distance_values
    balls: dict = {}
    todo = [sorted(range(len(rank)), key=rank[0].__getitem__)]
    for ball in todo:   # grows while it is read
        get = rank[ball[0]].__getitem__
        t = get(ball[-1])
        parts = []
        if t:   # none for a singleton
            k = bisect_left(ball, t, key=get)   # ball[:k]: the first point's part
            get = rank[ball[k]].__getitem__
            rest = sorted(ball[k:], key=get)    # by rank from its own first point
            j = bisect_left(rest, t, key=get)   # rest[:j]: the second part
            parts = [ball[:k], rest[:j], *(sorted(p, key=rank[p[0]].__getitem__)
                                          for p in _classes_below(rank, rest[j:], t))]
        balls[frozenset(ball)] = (values[t], len(parts))
        todo += parts
    return balls


def verify_tree_invariants(tree: RootedLabeledTree,
                           space: FiniteUltrametricSpace) -> InvariantReport:
    """Structural audit of a representing tree against its space.

    Checks, each with a witness on failure: every payload is a ball and
    the vertex set equals the ballean; labels are ball diameters; degree 2
    occurs at most once; no vertex has out-degree 1; the degree of every
    vertex matches the part count of its diametrical graph; and leaves are
    exactly the zero-labeled vertices.  The diameter and degree checks
    skip vertices whose payload is not a ball.  The reference balls come
    from `_diametrical_splits`, not from the ball tree the tree is built on.
    """
    root = tree.require_root()
    pts = tree.ball_points
    if pts is None:
        raise ValueError("tree carries no ball payloads to verify against")

    def vertex(flags):   # the first vertex flagged, as a witness
        return next((f"vertex {v}" for v, flag in enumerate(flags) if flag), None)

    balls = _diametrical_splits(space)
    keys = [frozenset(p) for p in pts]
    tree_sets = set(keys)
    # a payload is a ball when its points are distinct and make one
    found = [balls.get(k) if len(k) == len(p) else None for k, p in zip(keys, pts)]
    # every payload a ball, all distinct, and as many as the balls: the ballean
    ballean = None if None not in found and len(tree_sets) == tree.n == len(balls) else (
        f"tree {len(tree_sets)} sets vs ballean {len(balls)}"
        + ("" if None not in found else f", vertex {found.index(None)} is not a ball"))
    degree = list(map(len, tree._adj))
    out = [d - (v != root) for v, d in enumerate(degree)]   # all but the root have a parent
    positive = list(map(bool, tree.labels))
    deg2 = [v for v, d in enumerate(degree) if d == 2]
    # a ball's degree: a parent edge, plus one child per part when its label is positive
    expected = [f and (v != root) + (f[1] if p else 0) for v, (f, p) in enumerate(zip(found, positive))]
    formula = next((f"vertex {v}: degree {d}, expected {e}" for v, (d, e) in enumerate(zip(degree, expected))
                    if e is not None and d != e), None)
    return InvariantReport(CheckEntry(name, witness is None, witness) for name, witness in (
        ("vertices-equal-ballean", ballean),
        # a label built from the space is its diameter's own object: `is` settles most
        ("labels-are-diameters",
         vertex(f and l is not f[0] and l != f[0] for l, f in zip(tree.labels, found))),
        ("degree-two-at-most-once", f"vertices {deg2}" if len(deg2) > 1 else None),
        ("out-degree-never-one", vertex(d == 1 for d in out)),
        ("degree-formula", formula),
        ("leaf-iff-zero-label", vertex((d > 0) != p for d, p in zip(out, positive))),
    ))


def edge_characterization_check(space: FiniteUltrametricSpace,
                                tree: RootedLabeledTree) -> bool:
    """Adjacency in the tree iff strict ball nesting with no ball between.

    The edges must be exactly the covering pairs of the inclusion order
    of the vertices' balls.  Two vertices with one point set fail outright.
    """
    pts = tree.ball_points
    if pts is None:
        raise ValueError("tree carries no ball payloads")
    flat = list(chain.from_iterable(pts))   # checked at once, or one by one for the first offender
    if not (all(pts) and set(map(type, flat)) == {int} and 0 <= min(flat) and max(flat) < len(space)
            and sum(map(len, map(set, pts))) == len(flat)):
        pts = [_subset_points(space, p, "a ball payload") for p in pts]
    up = _inclusion_up_sets(pts, len(space))
    if len(set(up)) != tree.n:   # equal up-sets iff equal point sets
        return False
    return {(min(p), max(p)) for p in _covering_pairs(up)} == set(tree.edges)


def _inclusion_up_sets(point_sets, npoints: int) -> list[int]:
    """Bit j of entry i is set iff point set i lies inside point set j."""
    holding = [0] * npoints   # holding[x]: the sets containing x
    for i, pts in enumerate(point_sets):
        for x in pts:
            holding[x] |= 1 << i
    full = (1 << len(point_sets)) - 1
    return [reduce(and_, map(holding.__getitem__, pts), full) for pts in point_sets]


def _up_closure(n: int, arcs) -> list[int]:
    """Closure of (lower, upper) arcs: bit w of `up[v]` is set iff v <= w.

    Vertices are closed in reverse topological order (Kahn 1962): each
    ORs in the up-sets of its upper ends once they are all closed, so a
    DAG closes in one pass whatever order its arcs are listed in.  What a
    cycle holds back is closed by repeated passes until nothing changes.
    """
    uppers: list[list[int]] = [[] for _ in range(n)]
    lowers: list[list[int]] = [[] for _ in range(n)]
    for lo, hi in arcs:
        uppers[lo].append(hi)
        lowers[hi].append(lo)
    waiting = list(map(len, uppers))   # upper ends not yet closed
    up = [1 << v for v in range(n)]
    ready = [v for v in range(n) if not waiting[v]]
    for v in ready:   # grows while it is read
        mask = up[v]
        for w in uppers[v]:
            mask |= up[w]
        up[v] = mask
        for u in lowers[v]:
            waiting[u] -= 1
            if not waiting[u]:
                ready.append(u)
    changed = len(ready) < n
    while changed:
        changed = False
        for lo, hi in arcs:
            merged = up[lo] | up[hi]
            if merged != up[lo]:
                up[lo] = merged
                changed = True
    return up


def _covering_pairs(up: list[int]) -> list[tuple[int, int]]:
    """Covering pairs (a, b), sorted, of a closed order given by up-sets.

    The transitive reduction (Aho, Garey & Ullman 1972): the covers of a
    are its strict up-set minus the strict up-sets of its members.  A
    member already above another one is skipped, its up-set lying inside.
    """
    pairs = []
    for a, mask in enumerate(up):
        strict = mask & ~(1 << a)
        above = 0
        rest = strict
        while rest:
            low = rest & -rest
            above |= up[low.bit_length() - 1] & ~low
            rest = (rest ^ low) & ~above
        rest = strict & ~above
        while rest:
            low = rest & -rest
            pairs.append((a, low.bit_length() - 1))
            rest ^= low
    return pairs


class TreeOrder:
    """The partial order a root induces on a tree.

    `leq(u, v)` holds iff v lies on the path from u to the root, i.e. iff
    bit v of `up[u]` is set, so the root is the largest element and
    covering pairs are exactly the child-parent pairs.
    """

    __slots__ = ("root", "parent", "up", "covers")

    def __init__(self, root, parent, up, covers):
        self.root = root
        self.parent = parent
        self.up = up
        self.covers = covers

    def leq(self, u: int, v: int) -> bool:
        return bool(self.up[u] >> v & 1)

    def comparable(self, u: int, v: int) -> bool:
        return self.leq(u, v) or self.leq(v, u)

    def incomparable(self, u: int, v: int) -> bool:
        return not self.comparable(u, v)


def tree_order(tree: RootedLabeledTree) -> TreeOrder:
    """The root-path order: the closure of the child-parent covers.

    O(n^2 / w) for w-bit words.  The test suite checks that the root is
    largest, the upper covers are the parents, the order is the closure of
    the covers, the covers are the edges, and the order is ball inclusion.
    """
    root = tree.require_root()
    parent = tree.parent_map()
    covers = tuple((v, p) for v, p in enumerate(parent) if p is not None)
    up = _up_closure(tree.n, covers)
    return TreeOrder(root, parent, tuple(up), covers)


class PosetCheckReport:
    """Condition flags for the ball-lattice characterization of finite posets.

    `accepted` is the finite verdict: every non-largest element has a
    unique upper cover and every non-minimal element has at least two
    lower covers.
    """

    __slots__ = ("n", "has_largest", "largest", "unique_upper_cover",
                 "upper_witness", "lower_covers_ok", "lower_witness",
                 "covers_are_covering_relation", "covers_witness")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])

    @property
    def accepted(self) -> bool:
        return self.unique_upper_cover and self.lower_covers_ok

    def __repr__(self):
        return (f"<PosetCheckReport accepted={self.accepted} "
                f"largest={self.has_largest} upper={self.unique_upper_cover} "
                f"lower={self.lower_covers_ok}>")


def check_ballean_poset(n: int, covers: Iterable[tuple[int, int]]) -> PosetCheckReport:
    """Test whether a finite poset is order-isomorphic to a ball lattice.

    `covers` lists pairs (lower, upper) of int ids.  The order is their
    reflexive-transitive closure; a cycle means the input is not a partial
    order and raises ValueError.  The covering relation is read off the
    closure's up-set bitmasks, so the cost is the closure plus the sum of
    the up-set sizes, in word operations.
    """
    if n <= 0:
        raise ValueError("poset must be nonempty")
    arcs = []
    for lo, hi in covers:
        if not (_is_index(lo, n) and _is_index(hi, n)) or lo == hi:
            raise ValueError(f"bad cover pair ({lo},{hi})")
        arcs.append((lo, hi))
    up = _up_closure(n, arcs)
    # an arc lies on a cycle iff its upper end is also below its lower end
    if any(up[hi] >> lo & 1 for lo, hi in arcs):
        v, w = next((v, w) for v in range(n) for w in range(n)
                    if v != w and up[v] >> w & 1 and up[w] >> v & 1)
        raise ValueError(f"not a partial order: {v} and {w} lie on a cycle")

    top = reduce(and_, up)
    largest = top.bit_length() - 1 if top else None

    derived = _covering_pairs(up)
    uppers: list[list[int]] = [[] for _ in range(n)]
    lowers: list[list[int]] = [[] for _ in range(n)]
    for a, b in derived:   # sorted, so each list comes out sorted
        uppers[a].append(b)
        lowers[b].append(a)
    derived, given = set(derived), set(arcs)
    covers_match = derived == given
    covers_witness = None
    if not covers_match:
        extra = sorted(given - derived)
        covers_witness = f"redundant or missing cover arcs, e.g. {extra[:1] or sorted(derived - given)[:1]}"

    p = next((p for p in range(n) if p != largest and len(uppers[p]) != 1), None)
    upper_witness = None if p is None else f"element {p} has upper covers {uppers[p]}"
    # minimal elements have no lower cover; every other one needs two
    b = next((b for b in range(n) if len(lowers[b]) == 1), None)
    lower_witness = None if b is None else f"element {b} has lower covers {lowers[b]}"

    return PosetCheckReport(
        n=n,
        has_largest=largest is not None,
        largest=largest,
        unique_upper_cover=p is None,
        upper_witness=upper_witness,
        lower_covers_ok=b is None,
        lower_witness=lower_witness,
        covers_are_covering_relation=covers_match,
        covers_witness=covers_witness,
    )


def poset_from_json(obj: dict) -> tuple[int, list[tuple[int, int]]]:
    elements, covers = _document(obj, "poset", "elements", "covers")
    return len(elements), [tuple(c) for c in covers]


def sphere_plus_center_condition(
    space: FiniteUltrametricSpace,
) -> tuple[bool, Optional[Ball]]:
    """Every ball of positive diameter has a singleton part in its diametrical graph.

    Equivalently each such ball is a sphere with its center added.  The
    parts of a ball are its children in `core._ball_tree`, so a ball
    passes iff one of its children is a point.  The witness, the only `Ball`
    built, is the first offending ball in canonical order.  O(n log n).
    """
    runs, parent = _ball_tree(_require_ultrametric(space, "ball operations")._gaps)
    order, values = space._order, space.distance_values
    centered = {parent[v] for v, (r, _, _) in enumerate(runs) if not r}   # a point among its children
    bad = min((v for v, (r, _, _) in enumerate(runs) if r and v not in centered),
              key=lambda v: (-runs[v][0], order[runs[v][1]]), default=None)
    if bad is None:
        return True, None
    from .balls import Ball
    r, s, e = runs[bad]
    return False, Ball(order[s:e], values[r], order[s], values[r])
