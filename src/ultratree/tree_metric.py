"""Metrics generated by labeled trees and the characterization checkers.

The path-max metric turns vertex labels into distances; monotone labelings
are the ones whose maximal chains reconstruct an ultrametric space, and
only a vertex of largest label can root one; and the covering-digraph
checker decides which finite posets are ball lattices, reading the covers
off the closure's up-set bitmasks (`repr_tree._covering_pairs`).  A
ball's diametrical parts are its children in `core._ball_tree`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import and_
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from .core import (FiniteUltrametricSpace, _ball_tree, _document, _gap_rows, _gather, _is_index,
                   _rank_of, _require_ultrametric)
from .repr_tree import RootedLabeledTree, _covering_pairs, _up_closure

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
    used = sorted(set(gap))   # the distances, 0 among them: a label below its neighbors' is none
    remap = {r: t for t, r in enumerate(used)}
    values = [values[r] for r in used]
    gaps = [remap[gap[v]] for v in group[0]]
    names = [f"v{i}" for i in range(n)]
    for u, v in tree.edges:
        if ranks[u] == 0 and ranks[v] == 0:   # both labels 0
            get = _gather(sorted(range(n), key=group[0].__getitem__))   # each vertex's place
            matrix = [[values[r] for r in row] for row in map(get, get(_gap_rows(gaps)))]
            return PseudoUltrametricSpace(names, matrix, (u, v))
    return FiniteUltrametricSpace._from_gaps(names, values, group[0], gaps)


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
        rooted = tree if tree.root == root else RootedLabeledTree(tree.labels, tree.edges, root=root)
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
    space is built from them (`FiniteUltrametricSpace._from_gaps`).  O(m^2)
    in C, plus the chains.
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
