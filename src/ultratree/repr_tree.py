"""Representing trees, both ways: a space's labeled tree, and a monotone tree's space.

The representing tree is `core._ball_tree`, the Cartesian tree of the
single-linkage gaps that every space computes when it is constructed:
each ball is a run of that order, and its payload is the run, sorted.
The way back reads the maximal chains of a monotone labeled tree, and
only a vertex of largest label can root one (`check_representable`).
A tree is walked, in preorder, when built, and only outside labels are
parsed: library builders hand over ranks.  Vertex ids are ints, not bools,
floats or strings.  Tree audits and orders answer here too, from `tree_metric`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import (
    FiniteUltrametricSpace,
    _array,
    _ball_tree,
    _document,
    _gather,
    _is_index,
    _parse_entries,
    _rank_of,
    _require_ultrametric,
    format_rational,
)

_IN_TREE_METRIC = {"CheckEntry", "InvariantReport", "TreeOrder", "_covering_pairs", "_diametrical_splits",
                   "_inclusion_up_sets", "_up_closure", "edge_characterization_check", "tree_order",
                   "verify_tree_invariants"}


def __getattr__(name):
    if name not in _IN_TREE_METRIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import tree_metric
    return getattr(tree_metric, name)


class RootedLabeledTree:
    """A tree with rational vertex labels and an optional root.

    `label_rank[v]` indexes v's label in `label_values`, the sorted distinct
    labels, parsed by `__init__` or handed over to `_from_ranks`.  Rooted
    operations refuse a free tree; they read the one walk, a preorder with
    children ascending (`_pre`), and the parents and depths it finds.
    `ball_points[v]`, from a space, is the point set of the ball a vertex
    stands for.  `truncated` marks prefixes of infinite trees whose leaves
    still carry positive labels.
    """

    __slots__ = ("labels", "label_values", "label_rank", "edges", "root", "ball_points", "truncated",
                 "_adj", "_parent", "_depth", "_pre")

    def __init__(self, labels, edges, root: Optional[int] = None,
                 ball_points=None, truncated: bool = False):
        values, (rank,) = _rank_of(*_parse_entries([labels]))   # each distinct label parsed once
        self._build(values, rank, edges, root, ball_points, truncated)

    @classmethod
    def _from_ranks(cls, label_values: Sequence, label_rank: Sequence[int], *args, **kwargs):
        # no parse: each caller hands over values rising strictly and ranks using
        # each, which the test suite checks; the rest is checked as in `__init__`
        tree = cls.__new__(cls)
        tree._build(tuple(label_values), tuple(label_rank), *args, **kwargs)
        return tree

    def _build(self, label_values, label_rank, edges, root=None, ball_points=None, truncated=False):
        self.label_values, self.label_rank = label_values, label_rank
        self.labels = _gather(label_rank)(label_values)
        n = len(label_rank)
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
        if label_values[0] < 0:
            raise ValueError("labels must be nonnegative")
        if root is not None and not _is_index(root, n):
            raise ValueError(f"root {root!r} is not a vertex index")
        self._parent, self._depth, self._pre, self.root = tuple(parent), tuple(depth), tuple(pre), root
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
    order = space._order   # every distance is some ball's diameter, so every value is used
    return RootedLabeledTree._from_ranks(
        space.distance_values, [r for r, _, _ in runs], zip(parent[1:], range(1, len(runs))),
        root=0, ball_points=[tuple(sorted(order[s:e])) for _, s, e in runs])


def is_monotone_labeling(tree: RootedLabeledTree) -> tuple[bool, Optional[str]]:
    """Labels strictly decrease toward the leaves and every leaf is labeled zero.

    This is the finite reading of a monotone labeling: maximal chains end
    in a leaf, and their labels must reach zero there.
    """
    rank = tree.label_rank
    for v, p in enumerate(tree.parent_map()):
        if p is not None and not rank[v] < rank[p]:
            return False, f"label of {v} does not drop below its parent {p}"
    for v in range(tree.n):   # label 0 is rank 0, unless the smallest label is positive
        if tree.out_degree(v) == 0 and (rank[v] or tree.label_values[0]):
            return False, f"leaf {v} has positive label {tree.labels[v]}"
    return True, None


class Representability:
    __slots__ = ("accepted", "root", "reason")

    def __init__(self, accepted: bool, root: Optional[int], reason: Optional[str]):
        self.accepted = accepted
        self.root = root
        self.reason = reason

    def __repr__(self):
        if self.accepted:
            return f"<accepted root={self.root}>"
        return f"<rejected: {self.reason}>"


def check_representable(tree: RootedLabeledTree) -> Representability:
    """Decide whether a labeled tree is the representing tree of some space.

    Accepts under a root where the labeling is monotone and no vertex has
    out-degree one.  Only the first vertex of largest label can be such a
    root; vertex 0 is tried first, as its blocking condition is the reason
    reported on rejection.  O(n).
    """
    first_reason = None
    for root in sorted({0, tree.label_rank.index(len(tree.label_values) - 1)}):
        rooted = tree if tree.root == root else RootedLabeledTree._from_ranks(
            tree.label_values, tree.label_rank, tree.edges, root=root)
        v = next((v for v in range(tree.n) if rooted.out_degree(v) == 1), None)
        if v is not None:
            reason = f"out-degree 1 at vertex {v}"
        else:
            ok, reason = is_monotone_labeling(rooted)
            if ok:
                return Representability(True, root, None)
        first_reason = first_reason or f"root {root}: {reason}"
    return Representability(False, None, first_reason)


class MaxChain:
    """A maximal chain of the rooted order: the vertex path from root to a leaf."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: Sequence[int]):
        self.vertices = tuple(vertices)

    @property
    def leaf(self) -> int:
        return self.vertices[-1]

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __eq__(self, other):
        return isinstance(other, MaxChain) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"<MaxChain {'>'.join(map(str, self.vertices))}>"


def maximal_chains(tree: RootedLabeledTree) -> tuple[MaxChain, ...]:
    """One chain per leaf, each the unique root-to-leaf path, in leaf order."""
    return _chains_and_partings(tree)[0]


def _chains_and_partings(tree: RootedLabeledTree) -> tuple[tuple[MaxChain, ...], list[int]]:
    # The chains in the order the tree's one walk (`_pre`) reaches their leaves, each a leaf
    # on its parent's path, with the vertex where it parts from the one before: the parent of
    # the vertex the walk visits after that one's leaf, and for the first chain its own leaf.
    root = tree.require_root()
    pre, adj, depth = tree._pre, tree._adj, tree._depth
    chains, parting, path = [], [], []
    after = 0   # where the walk goes on after the last leaf, 0 before the first
    for i, v in enumerate(pre):
        del path[depth[v]:]   # the path of v's parent
        path.append(v)
        if len(adj[v]) == (v != root):   # out-degree 0: a leaf
            chains.append(MaxChain(path))
            parting.append(tree._parent[pre[after]] if after else v)
            after = i + 1
    return tuple(chains), parting


class MaxChainSpace:
    """The ultrametric space reconstructed from a monotone labeled tree."""

    __slots__ = ("chains", "space")

    def __init__(self, chains: tuple[MaxChain, ...], space: FiniteUltrametricSpace):
        self.chains = chains
        self.space = space


def reconstruct_space(tree: RootedLabeledTree) -> MaxChainSpace:
    """Space over the maximal chains: distance is the label of the deepest common vertex.

    The deepest common vertex of two chains is the meet of their
    intersection, i.e. the lowest common ancestor of their leaves.
    Requires a monotone labeling.  Chains come in depth-first leaf order,
    so the deepest common vertex of chains i < j is the shallowest, and so
    the highest labeled, of those where consecutive chains between them
    part: the parting labels are the chains' single-linkage gaps, and the
    space is built from them (`FiniteUltrametricSpace._from_gaps`).  O(m log m)
    plus the chains; the rank rows are built when first read.
    """
    ok, reason = is_monotone_labeling(tree)
    if not ok:
        raise ValueError(f"labeling is not monotone: {reason}")
    chains, parting = _chains_and_partings(tree)
    used, (gaps,) = _rank_of(_gather(parting)(tree.label_rank), [range(len(parting))])
    names = [str(c.leaf) for c in chains]
    space = FiniteUltrametricSpace._from_gaps(names, _gather(used)(tree.label_values),
                                              range(len(gaps)), gaps)
    return MaxChainSpace(chains, space)


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
