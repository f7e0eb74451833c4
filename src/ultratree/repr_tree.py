"""Representing trees of finite ultrametric spaces and rooted-tree orders.

The representing tree is `core._ball_tree`, the Cartesian tree of the
single-linkage gaps that every space computes when it is constructed:
each ball is a run of that order, and its payload is the run, sorted.
`verify_tree_invariants` audits a tree against balls found another way,
by sorting and splitting the whole space top down into diametrical
parts, so the audit does not share the code it checks.

Orders are kept as up-set bitmasks: `_up_closure` closes (lower, upper)
arcs and `_covering_pairs` reads the covers (the transitive reduction)
back off, for `tree_order`, `edge_characterization_check` and
`tree_metric.check_ballean_poset`.  A tree is walked, in preorder, and its
labels are ranked once, when built; vertex ids are ints, not bools, floats
or strings.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from operator import and_
from typing import Iterable, Optional

from .core import (
    FiniteUltrametricSpace,
    _array,
    _ball_tree,
    _classes_below,
    _document,
    _gather,
    _is_index,
    _parse_entries,
    _rank_of,
    _require_ultrametric,
    format_rational,
)


class RootedLabeledTree:
    """A tree with rational vertex labels and an optional root.

    `label_rank[v]` indexes v's label in `label_values`, the sorted distinct
    labels.  Rooted operations refuse a free tree; they read the constructor's
    one walk, a preorder with children ascending (`_pre`), and the parents and
    depths it finds.  `ball_points[v]`, from a space,
    is the point set of the ball a vertex stands for.  `truncated` marks
    prefixes of infinite trees whose leaves still carry positive labels.
    """

    __slots__ = ("labels", "label_values", "label_rank", "edges", "root", "ball_points", "truncated",
                 "_adj", "_parent", "_depth", "_pre")

    def __init__(self, labels, edges, root: Optional[int] = None,
                 ball_points=None, truncated: bool = False):
        parsed, (row,) = _parse_entries([labels])   # each distinct label parsed once
        self.labels = _gather(row)(parsed)
        n = len(row)
        if n == 0:
            raise ValueError("a tree needs at least one vertex")
        norm = []
        for u, v in edges:
            if not (_is_index(u, n) and _is_index(v, n)) or u == v:
                raise ValueError(f"bad edge ({u},{v})")
            norm.append((u, v) if u < v else (v, u))
        self.edges = tuple(sorted(norm))
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edge")
        if len(self.edges) != n - 1:
            raise ValueError(f"{n} vertices need {n - 1} edges, got {len(self.edges)}")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(a)) for a in adj)
        # the one walk, from vertex 0 when there is no valid root to start at
        start = root if _is_index(root, n) else 0
        parent: list[Optional[int]] = [None] * n
        depth = [-1] * n
        depth[start] = 0
        pre, stack = [], [start]
        while stack:
            u = stack.pop()
            pre.append(u)
            for v in reversed(self._adj[u]):   # the smallest child is visited next
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    stack.append(v)
        if len(pre) < n:
            raise ValueError("edges do not connect the vertex set")
        self.label_values, (self.label_rank,) = _rank_of(parsed, [row])
        if self.label_values[0] < 0:
            raise ValueError("labels must be nonnegative")
        if root is not None and not _is_index(root, n):
            raise ValueError(f"root {root!r} is not a vertex index")
        self._parent = tuple(parent)
        self._depth = tuple(depth)
        self._pre = tuple(pre)
        self.root = root
        if ball_points is not None:
            ball_points = tuple(tuple(_array(p, "a ball_points payload"))
                                for p in _array(ball_points, "ball_points"))
            if len(ball_points) != n:
                raise ValueError("ball_points must match the vertex count")
        self.ball_points = ball_points
        self.truncated = bool(truncated)

    @property
    def n(self) -> int:
        return len(self.labels)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def require_root(self) -> int:
        if self.root is None:
            raise ValueError("operation needs a rooted tree")
        return self.root

    def parent_map(self) -> tuple[Optional[int], ...]:
        self.require_root()
        return self._parent

    def children_map(self) -> tuple[tuple[int, ...], ...]:
        parent = self.parent_map()
        return tuple(tuple(w for w in adj if w != parent[v]) for v, adj in enumerate(self._adj))

    def out_degree(self, v: int) -> int:
        return self.degree(v) - (v != self.require_root())

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.degree(v) <= 1)

    def levels(self) -> tuple[int, ...]:
        self.require_root()
        return self._depth

    def __repr__(self):
        r = "free" if self.root is None else f"root={self.root}"
        return f"<RootedLabeledTree n={self.n} {r}>"


def build_representing_tree(space: FiniteUltrametricSpace) -> RootedLabeledTree:
    """Representing tree of a space, labeled by ball diameters.

    The vertices are those of `core._ball_tree`, in its numbering: depth
    first, children by smallest point.  A ball's payload is its run of the
    single-linkage order, sorted.  Leaves are exactly the singletons,
    labeled zero.  O(n log n) plus the size of the payloads.
    """
    runs, parent = _ball_tree(_require_ultrametric(space, "representing trees")._gaps)
    values, order = space.distance_values, space._order
    return RootedLabeledTree([values[r] for r, _, _ in runs], zip(parent[1:], range(1, len(runs))),
                             root=0, ball_points=[tuple(sorted(order[s:e])) for _, s, e in runs])


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


def _label_texts(tree: RootedLabeledTree) -> tuple[str, ...]:
    """Each vertex's label as text, each distinct label printed once."""
    return _gather(tree.label_rank)([format_rational(v) for v in tree.label_values])


def tree_to_json(tree: RootedLabeledTree) -> dict:
    obj = {
        "root": tree.root,
        "labels": list(_label_texts(tree)),
        "edges": [[u, v] for u, v in tree.edges],
        "ball_points": (None if tree.ball_points is None
                        else [list(p) for p in tree.ball_points]),
    }
    if tree.truncated:
        obj["truncated"] = True
    return obj


def tree_from_json(obj: dict) -> RootedLabeledTree:
    labels, edges = _document(obj, "tree", "labels", "edges")
    truncated = obj.get("truncated", False)
    if type(truncated) is not bool:   # "false" or 0 would pass as truthiness
        raise ValueError('tree JSON "truncated" must be true or false')
    return RootedLabeledTree(
        labels,
        [tuple(e) for e in edges],
        root=obj.get("root"),
        ball_points=obj.get("ball_points"),
        truncated=truncated,
    )


def tree_to_dot(tree: RootedLabeledTree) -> str:
    """Graphviz rendering: labels on nodes, leaves drawn as double circles."""
    lines = ["graph tree {", "  node [shape=circle];"]
    leaf = set(tree.leaves())
    for v, text in enumerate(_label_texts(tree)):
        shape = ", shape=doublecircle" if v in leaf else ""
        lines.append(f'  v{v} [label="{text}"{shape}];')
    for u, v in tree.edges:
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
