"""Shared fixtures, random generators and oracles for the test suite.

Random ultrametric matrices are built by recursive partitioning with
strictly decreasing level values, so validity holds by construction and
the library's validators act as an independent check.  The top-down tree
builder, the center-by-radius and row-sort balleans, the pairwise
Hausdorff matrix, the partition-based sphere-plus-center test, the
greedy top-down split of the tree audit, the chain-scan reconstruction,
the triple-loop poset check, the frozenset root-path order, the
`Fraction` path-max walk, the all-roots representability test, the
per-call breadth-first walk, Prim's single-linkage loop, the `Fraction`
weak-similarity and closed-ball scans, the row-reading subset diameter
(`row_diam_rank`), the rung-by-rung ladder snap,
the rank-matrix route of derived spaces (`from_ranks`) and its scan for
unused values, `padic_space`'s pairwise valuations, the generator-recursion
canonical code, the `Fraction` monotone-labeling test, the transposed gap rows, the
`closed_ball` join, the stack walk of the chains and their partings, the
O(n^3) strong-triangle scan, the isometry and weak-similarity decisions
through text codes of two built trees, and the CLI parser of every verb
are the implementations the library's faster ones replaced, kept here as
oracles.
`tree_order_failures` holds the audits `tree_order` once ran on every call,
and `check_from_gaps_handoff` those `_from_gaps` once ran on every call;
`check_from_ranks_handoff` checks what the label parse of
`RootedLabeledTree` guaranteed before library builders handed over ranks.
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
from bisect import bisect_left
from collections import deque
from fractions import Fraction
from itertools import accumulate
from operator import ge, neg
from typing import Optional

import ultratree
from ultratree import (FiniteUltrametricSpace, RootedLabeledTree, SpaceValidationError,
                       build_representing_tree)
from ultratree.balls import Ball, Ballean, BallPoset, HausdorffBallSpace, closed_ball
from ultratree.core import (
    _ball_tree,
    _classes_below,
    _rank_of,
    diametrical_partition,
    format_rational,
    parse_rational,
)
from ultratree.morphisms import (
    CanonicalCode,
    ScalingFunction,
    apply_preserving,
    canonical_code,
    rank_transform,
)
from ultratree.padic import _valuation
from ultratree.repr_tree import TreeOrder
from ultratree.tree_metric import (
    MaxChain,
    MaxChainSpace,
    PosetCheckReport,
    PseudoUltrametricSpace,
    is_monotone_labeling,
    maximal_chains,
)


def script(*argv, timeout=60, **kwargs) -> subprocess.CompletedProcess:
    """`python -m ultratree.cli argv` in a new process: its `main`, and its exit path."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ultratree.__file__)))
    return subprocess.run([sys.executable, "-m", "ultratree.cli", *argv],
                          env=env, timeout=timeout, **kwargs)


def nested_four_point_space() -> FiniteUltrametricSpace:
    """One far point at distance 2 from three mutually unit-distant points."""
    matrix = [
        [0, 2, 2, 2],
        [2, 0, 1, 1],
        [2, 1, 0, 1],
        [2, 1, 1, 0],
    ]
    return FiniteUltrametricSpace(["x1", "x2", "x3", "x4"], matrix)


def two_pair_space() -> FiniteUltrametricSpace:
    """Two unit-distance pairs, cross distance 2; no singleton diametrical part."""
    matrix = [
        [0, 1, 2, 2],
        [1, 0, 2, 2],
        [2, 2, 0, 1],
        [2, 2, 1, 0],
    ]
    return FiniteUltrametricSpace(["v1", "v2", "v3", "v4"], matrix)


def equilateral_space(n: int, d=1) -> FiniteUltrametricSpace:
    matrix = [[0 if i == j else d for j in range(n)] for i in range(n)]
    return FiniteUltrametricSpace([f"e{i}" for i in range(n)], matrix)


def random_ultrametric_matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Valid ultrametric matrix via recursive partitioning.

    All blocks split at the same depth share a distance value, which keeps
    the distance set small and the ball structure interesting.
    """
    levels = []
    current = Fraction(rng.randint(40, 99), rng.randint(1, 7))
    for _ in range(n + 1):
        levels.append(current)
        current *= Fraction(rng.randint(1, 8), 9)
    matrix = [[Fraction(0)] * n for _ in range(n)]

    def fill(pts: list[int], depth: int) -> None:
        if len(pts) == 1:
            return
        k = rng.randint(2, min(len(pts), 4))
        order = pts[:]
        rng.shuffle(order)
        blocks: list[list[int]] = [[p] for p in order[:k]]
        for p in order[k:]:
            blocks[rng.randrange(k)].append(p)
        d = levels[depth]
        for a in range(k):
            for b in range(a + 1, k):
                for x in blocks[a]:
                    for y in blocks[b]:
                        matrix[x][y] = matrix[y][x] = d
        for blk in blocks:
            fill(blk, depth + 1)

    fill(list(range(n)), 0)
    return matrix


def random_ultrametric_space(rng: random.Random, n: int) -> FiniteUltrametricSpace:
    return FiniteUltrametricSpace(
        [f"p{i}" for i in range(n)], random_ultrametric_matrix(rng, n)
    )


def random_symmetric_matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Random symmetric zero-diagonal matrix; usually not ultrametric."""
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = Fraction(rng.randint(1, 6), rng.randint(1, 3))
    return matrix


def mixed_validity_matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Valid, perturbed-valid, or fully random symmetric matrix."""
    roll = rng.random()
    if roll < 0.4:
        return random_ultrametric_matrix(rng, n)
    if roll < 0.7 and n >= 2:
        matrix = random_ultrametric_matrix(rng, n)
        i = rng.randrange(n)
        j = rng.randrange(n)
        while j == i:
            j = rng.randrange(n)
        bumped = matrix[i][j] + Fraction(rng.randint(1, 5), rng.randint(1, 4))
        matrix[i][j] = matrix[j][i] = bumped
        return matrix
    return random_symmetric_matrix(rng, n)


def prim_single_linkage(rank) -> tuple[list[int], list[int], Optional[tuple[int, int, int]]]:
    """Oracle for `core._single_linkage`: Prim's algorithm, then an entry-by-entry check.

    Prim's algorithm from point 0 adds the points in the order
    x_0..x_{n-1}, ties to the smaller index; `gaps[b]` is the rank of the
    edge that added x_b (`gaps[0]` is 0).  The matrix is ultrametric iff
    rank(x_a, x_b) = max(gaps[a+1..b]) for all a < b; the third item is
    None, or the sorted triple found at the first pair where it is not.
    """
    order = [0]
    gaps = [0]
    left = list(range(1, len(rank)))
    best = [rank[0][v] for v in left]  # shortest edge from the tree to left[i]
    while left:
        g = min(best)
        i = best.index(g)
        order.append(left.pop(i))
        del best[i]
        gaps.append(g)
        row = rank[order[-1]]
        best = list(map(min, best, map(row.__getitem__, left)))
    # A pair's rank is never below its single-linkage rank, so the first
    # mismatch is a rank above it, while every pair checked before is
    # right.  If that pair is (x_{b-1}, x_b), x_b's Prim edge from an
    # earlier p is shorter, and rank(p, x_{b-1}) is at most gaps[b];
    # otherwise it is (x_a, x_b) with (x_a, x_{a+1}) and (x_{a+1}, x_b)
    # both at their single-linkage ranks.  Either way the triple's largest
    # distance is attained once.
    mismatch = first_mismatch(rank, order, gaps)
    if mismatch is None:
        return order, gaps, None
    b, a = mismatch
    row = rank[order[b]]
    if a == b - 1:
        third = next(p for p in order if row[p] == gaps[b])
    else:
        third = order[a + 1]
    return order, gaps, tuple(sorted((order[a], third, order[b])))


def strong_triangle_witness(rank) -> Optional[tuple[int, int, int]]:
    """Oracle for `core._single_linkage`'s verdict: the O(n^3) triple scan.

    Strong triangle holds on a triple iff its largest distance is attained
    at least twice (isosceles with legs at least the base).  Returns the
    first violating triple in index order, or None.
    """
    n = len(rank)
    for i in range(n):
        ri = rank[i]
        for j in range(i + 1, n):
            rij = ri[j]
            rj = rank[j]
            for k in range(j + 1, n):
                a, b, c = rij, ri[k], rj[k]
                m = a if a >= b else b
                if c > m:
                    m = c
                if (a == m) + (b == m) + (c == m) < 2:
                    return (i, j, k)
    return None


def first_mismatch(rank, order, gaps) -> Optional[tuple[int, int]]:
    """The first pair (b, a) with rank(x_a, x_b) != max(gaps[a+1..b]), or None.

    Checks x_b against x_{b-1}, ..., x_0 for b = 1, 2, ..., entry by entry.
    """
    for b in range(1, len(order)):
        row = rank[order[b]]
        actual = [row[x] for x in order[b - 1::-1]]
        expected = list(accumulate(gaps[b:0:-1], max))
        if actual != expected:
            return b, b - 1 - next(i for i, r in enumerate(actual) if r != expected[i])
    return None


def count_calls(monkeypatch, module, names) -> dict[str, int]:
    """Wrap each named function of `module` to count its calls."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


def row_diam_rank(space, pts) -> int:
    """Oracle for `core._subset_diam_rank`: the largest rank in the subset's rank rows.

    Every member of an ultrametric subset sees the rest within its
    diameter, so one row is read there; any other space has every row read.
    """
    seen_from = pts[:1] if isinstance(space, FiniteUltrametricSpace) else pts
    rank = space.rank
    return max(max(map(rank[a].__getitem__, pts)) for a in seen_from)


def top_down_tree(space: FiniteUltrametricSpace) -> RootedLabeledTree:
    """The representing tree built top down from diametrical partitions.

    Oracle for `build_representing_tree`: the root is the whole space, the
    children of a vertex are the parts of its diametrical graph, vertices
    are numbered depth first.  Recursive and O(n^3) on deep trees.
    """
    labels, edges, payload = [], [], []

    def build(points: tuple[int, ...]) -> int:
        vid = len(labels)
        labels.append(space.distance_values[row_diam_rank(space, points)])
        payload.append(points)
        if len(points) > 1:
            for part in diametrical_partition(space, points):
                edges.append((vid, build(tuple(part))))
        return vid

    build(tuple(space.points()))
    return RootedLabeledTree(labels, edges, root=0, ball_points=payload)


def greedy_diametrical_splits(space: FiniteUltrametricSpace) -> dict:
    """Oracle for `repr_tree._diametrical_splits`: every part by the greedy loop.

    Each ball's point set -> (diameter, diametrical part count), splitting
    top down from the whole space with `core._classes_below` alone, which
    visits every member of every ball: O(n^2) Python steps on a caterpillar.
    """
    balls: dict = {}
    todo = [tuple(space.points())]
    for ball in todo:   # grows while it is read
        t = row_diam_rank(space, ball)
        split = _classes_below(space.rank, ball, t) if t else ()   # none for a singleton
        balls[frozenset(ball)] = (space.distance_values[t], len(split))
        todo.extend(split)
    return balls


def flat_matrix(n: int) -> list[list[Fraction]]:
    """Equidistant space: one ball of n singletons."""
    one = Fraction(1)
    return [[Fraction(0) if i == j else one for j in range(n)] for i in range(n)]


def caterpillar_matrix(n: int) -> list[list[Fraction]]:
    """d(x, y) = max(x, y) on {0..n-1}: the `space_from_sequence` shape."""
    vals = [Fraction(k) for k in range(n)]
    return [[vals[0] if i == j else vals[max(i, j)] for j in range(n)] for i in range(n)]


def padic_matrix(p: int, k: int) -> list[list[Fraction]]:
    """p-adic distances on {0..p^k - 1}."""
    def norm(m: int) -> Fraction:
        if m == 0:
            return Fraction(0)
        v = 0
        while m % p == 0:
            m //= p
            v += 1
        return Fraction(1, p ** v)

    n = p ** k
    norms = [norm(m) for m in range(n)]
    return [[norms[abs(i - j)] for j in range(n)] for i in range(n)]


def permuted(rng: random.Random, matrix) -> list[list]:
    perm = list(range(len(matrix)))
    rng.shuffle(perm)
    return [[matrix[perm[i]][perm[j]] for j in range(len(matrix))] for i in range(len(matrix))]


def perturbed(rng: random.Random, matrix) -> list[list]:
    """Copy with one symmetric pair moved to another positive value."""
    n = len(matrix)
    out = [list(row) for row in matrix]
    i, j = rng.sample(range(n), 2)
    values = sorted({v for row in matrix for v in row if v > 0})
    old = out[i][j]
    choices = [v for v in values if v != old] + [old / 2, old * 2, old + Fraction(1, 3)]
    out[i][j] = out[j][i] = rng.choice(choices)
    return out


def violates_strong_triangle(matrix, triple) -> bool:
    """True iff the largest of the triple's three distances is attained once."""
    i, j, k = triple
    d = sorted((matrix[i][j], matrix[i][k], matrix[j][k]))
    return d[2] > d[1]


def random_monotone_tree(rng: random.Random, n: int) -> RootedLabeledTree:
    """Random rooted tree, shuffled vertex ids, labels dropping toward zero leaves.

    Unlike a representing tree it may have vertices of out-degree one.
    """
    parent = [None] + [rng.randrange(v) for v in range(1, n)]
    labels = [Fraction(0)] * n
    for v in range(n - 1, 0, -1):  # children come after their parents
        step = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        labels[parent[v]] = max(labels[parent[v]], labels[v] + step)
    ids = list(range(n))
    rng.shuffle(ids)
    return RootedLabeledTree(
        [labels[ids.index(v)] for v in range(n)],
        [(ids[v], ids[parent[v]]) for v in range(1, n)],
        root=ids[0],
    )


def relabeled(rng: random.Random, tree: RootedLabeledTree) -> RootedLabeledTree:
    """The same tree with its vertex ids shuffled."""
    ids = list(range(tree.n))
    rng.shuffle(ids)
    labels = [None] * tree.n
    for v in range(tree.n):
        labels[ids[v]] = tree.labels[v]
    points = None
    if tree.ball_points is not None:
        points = [None] * tree.n
        for v in range(tree.n):
            points[ids[v]] = tree.ball_points[v]
    return RootedLabeledTree(labels, [(ids[u], ids[v]) for u, v in tree.edges],
                             root=ids[tree.root], ball_points=points)


def random_labeled_tree(rng: random.Random, n: int) -> RootedLabeledTree:
    """Random free tree with labels drawn from {0, 1/2, 1, 2, 3}.

    Zero edges, ties and labels below all of a vertex's neighbours occur.
    """
    labels = [rng.choice([0, 0, Fraction(1, 2), 1, 2, 3]) for _ in range(n)]
    return RootedLabeledTree(labels, [(v, rng.randrange(v)) for v in range(1, n)])


def walk_path_max_metric(tree: RootedLabeledTree):
    """Oracle for `path_max_metric`: a `Fraction` walk from every vertex.

    The running maximum of labels along each walk fills the matrix, which
    goes through the public constructor.
    """
    n, labels = tree.n, tree.labels
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for src in range(n):
        stack = [(src, -1, labels[src])]
        while stack:
            u, parent, running = stack.pop()
            if u != src:
                matrix[src][u] = running
            for v in tree.neighbors(u):
                if v != parent:
                    stack.append((v, u, max(running, labels[v])))
    names = [f"v{i}" for i in range(n)]
    for u, v in tree.edges:
        if labels[u] == 0 and labels[v] == 0:
            return PseudoUltrametricSpace(names, matrix, (u, v))
    return FiniteUltrametricSpace(names, matrix)


def differential_spaces(rng: random.Random, count: int) -> list[FiniteUltrametricSpace]:
    """`count` seeded random spaces with n <= 24, then the bench shapes.

    The shapes are flat, caterpillar and p-adic spaces at n 32-128, each
    plain and permuted.
    """
    spaces = [random_ultrametric_space(rng, rng.randint(1, 24)) for _ in range(count)]
    for matrix in (flat_matrix(48), flat_matrix(128), caterpillar_matrix(64),
                   caterpillar_matrix(128), padic_matrix(2, 7), padic_matrix(3, 4),
                   padic_matrix(5, 3)):
        for m in (matrix, permuted(rng, matrix)):
            spaces.append(FiniteUltrametricSpace([f"p{i}" for i in range(len(m))], m))
    return spaces


def enumerated_ballean(space: FiniteUltrametricSpace) -> Ballean:
    """Oracle for `ballean`: the closed ball of every center at every rank.

    O(n^2 |D(X)|); the first center and radius to produce a set are its
    witnesses.
    """
    rank = space.rank
    values = space.distance_values
    n = len(space)
    seen: dict[tuple[int, ...], Ball] = {}
    for c in range(n):
        rc = rank[c]
        for t, value in enumerate(values):
            members = tuple(x for x in range(n) if rc[x] <= t)
            if members not in seen:
                d = values[max(rc[x] for x in members)]
                seen[members] = Ball(members, d, c, value)
    index = {v: i for i, v in enumerate(values)}
    return Ballean(sorted(seen.values(), key=lambda b: (-index[b.diameter], b.points[0])))


def row_sort_ballean(space: FiniteUltrametricSpace) -> Ballean:
    """Oracle for `ballean`: each center's rank row, sorted once.

    Sorting a center's row by rank lists its balls as prefixes, one per
    distinct rank.  Every member of a ball is one of its centers, so each
    ball is kept only from its smallest point, which is its witness
    center; its witness radius is its diameter.  O(n^2 log n) plus the
    total size of the balls, so it reaches the sizes `enumerated_ballean`
    cannot.
    """
    values = space.distance_values
    n = len(space)
    found = []
    for c, row in enumerate(space.rank):
        by_rank = sorted(range(n), key=row.__getitem__)
        for end in range(1, n + 1):
            last = by_rank[end - 1]
            if last < c:
                break  # this ball and every larger one around c has a smaller point
            t = row[last]
            if end == n or row[by_rank[end]] != t:
                found.append((-t, c, Ball(by_rank[:end], values[t], c, values[t])))
    found.sort(key=lambda f: f[:2])
    return Ballean(f[2] for f in found)


def pairwise_hausdorff_ball_space(space: FiniteUltrametricSpace) -> HausdorffBallSpace:
    """Oracle for `hausdorff_ball_space`: the diameter of each union, pair by pair."""
    balls = enumerated_ballean(space).balls
    names = ["{" + ",".join(space.names[p] for p in b.points) + "}" for b in balls]
    values = space.distance_values

    def union_diameter(a, b):
        if a.points == b.points:
            return values[0]
        # one member's row spans an ultrametric subset
        row = space.rank[a.points[0]]
        return values[max(row[x] for x in set(a.points) | set(b.points))]

    matrix = [[union_diameter(a, b) for b in balls] for a in balls]
    return HausdorffBallSpace(FiniteUltrametricSpace(names, matrix), balls)


def partition_sphere_plus_center(space: FiniteUltrametricSpace, balls=enumerated_ballean):
    """Oracle for `sphere_plus_center_condition`: each ball's diametrical partition.

    `balls` lists the ballean in canonical order; `row_sort_ballean` reaches
    the sizes the default cannot.
    """
    for ball in balls(space):
        if ball.diameter == 0:
            continue
        parts = diametrical_partition(space, ball.points)
        if not any(len(p) == 1 for p in parts):
            return False, ball
    return True, None


def chain_scan_reconstruct(tree: RootedLabeledTree) -> MaxChainSpace:
    """Oracle for `reconstruct_space`: the common prefix of every pair of chains."""
    ok, reason = is_monotone_labeling(tree)
    if not ok:
        raise ValueError(f"labeling is not monotone: {reason}")
    chains = maximal_chains(tree)
    m = len(chains)
    matrix = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        vi = chains[i].vertices
        for j in range(i + 1, m):
            vj = chains[j].vertices
            deepest = vi[0]
            for a, b in zip(vi, vj):
                if a != b:
                    break
                deepest = a
            matrix[i][j] = matrix[j][i] = tree.labels[deepest]
    names = [str(c.leaf) for c in chains]
    return MaxChainSpace(chains, FiniteUltrametricSpace(names, matrix))


def running_min_reconstruct(tree: RootedLabeledTree) -> MaxChainSpace:
    """Oracle for `reconstruct_space`: each row a running minimum of parting depths.

    Chains come in depth-first leaf order, so the deepest common vertex of
    chains i < j is the shallowest of those of the consecutive pairs
    between them.  O(m^2) in Python for m chains, through `realized_from_ranks`.
    """
    ok, reason = is_monotone_labeling(tree)
    if not ok:
        raise ValueError(f"labeling is not monotone: {reason}")
    chains = maximal_chains(tree)
    # split[j]: depth of the deepest common vertex of chains j - 1 and j
    split = [0]
    for prev, cur in zip(chains, chains[1:]):
        split.append(next(d for d, (a, b) in enumerate(zip(prev, cur)) if a != b) - 1)
    common = []
    for i, chain in enumerate(chains):
        upper = list(map(chain.vertices.__getitem__, accumulate(split[i + 1:], min)))
        # left of the diagonal: column i of the rows already built
        common.append([row[i] for row in common] + [chain.leaf] + upper)
    names = [str(c.leaf) for c in chains]
    space = realized_from_ranks(names, *_rank_of(tree.labels, common))
    return MaxChainSpace(chains, space)


def first_point_hausdorff_ball_space(space: FiniteUltrametricSpace) -> HausdorffBallSpace:
    """Oracle for `hausdorff_ball_space`: max(d(a_0, b_0), diam A, diam B) for A != B.

    The balls come from `row_sort_ballean`; O(b^2) in Python for b balls,
    through `from_ranks`.
    """
    balls = row_sort_ballean(space).balls
    names = ["{" + ",".join(space.names[p] for p in b.points) + "}" for b in balls]
    rank = space.rank
    values = space.distance_values
    index = {v: t for t, v in enumerate(values)}
    firsts = [b.points[0] for b in balls]
    diams = [index[b.diameter] for b in balls]
    ranks = []
    for i, (a, ra) in enumerate(zip(firsts, diams)):
        row = [max(rank[a][b], ra, rb) for b, rb in zip(firsts, diams)]
        row[i] = 0
        ranks.append(row)
    return HausdorffBallSpace(from_ranks(names, values, ranks), balls)


def kruskal_fill_path_max_metric(tree: RootedLabeledTree):
    """Oracle for `path_max_metric`: Kruskal joins that fill every joined pair's rank.

    Vertices join in order of label, and a vertex's label is the path
    maximum between any two of the groups it joins.  O(n^2) in Python.
    """
    n = tree.n
    values, (ranks,) = _rank_of((Fraction(0),) + tree.labels, [range(1, n + 1)])
    rank = [[0] * n for _ in range(n)]
    group = [[v] for v in range(n)]   # group[v]: the joined vertices with v
    joined = set()
    for v in sorted(range(n), key=ranks.__getitem__):
        r, mine = ranks[v], group[v]
        for other in [group[w] for w in tree.neighbors(v) if w in joined]:
            for x in mine:
                for y in other:
                    rank[x][y] = rank[y][x] = r
            mine += other
            for y in other:
                group[y] = mine
        joined.add(v)
    names = [f"v{i}" for i in range(n)]
    for u, v in tree.edges:
        if ranks[u] == 0 and ranks[v] == 0:   # both labels 0
            matrix = [[values[r] for r in row] for row in rank]
            return PseudoUltrametricSpace(names, matrix, (u, v))
    return realized_from_ranks(names, values, rank)


def realized_from_ranks(names, values, rank) -> FiniteUltrametricSpace:
    """`from_ranks` after dropping the values no entry uses, by a scan of every entry.

    The library's constructors pass only realized values; this n^2 scan is
    the one the rank-matrix route ran on every derived space before they did.
    """
    used = sorted(set().union(*rank))
    remap = {r: t for t, r in enumerate(used)}
    return from_ranks(names, [values[r] for r in used], [[remap[r] for r in row] for row in rank])


def check_from_gaps_handoff(names, values, order, gaps) -> None:
    """The checks `FiniteUltrametricSpace._from_gaps` ran on every call, kept as an oracle.

    What each caller hands over: a permutation of its points with a gap per
    point, no zero gap after the first, and values that rise from 0, each
    some gap's.  A hand-off that breaks one raises with its axiom and witness.
    """
    names, values, n = tuple(map(str, names)), tuple(values), len(order)
    if n != len(names) or len(gaps) != n or set(order) != set(range(n)):
        raise SpaceValidationError("square", (), "order must be a permutation, a gap per point")
    if 0 in gaps[1:]:
        i, j = sorted(order[gaps.index(0, 1) - 1:][:2])
        raise SpaceValidationError("positivity", (i, j),
                                   f"d({names[i]},{names[j]}) = 0 must be positive")
    if (values[:1] != (0,) or any(map(ge, values, values[1:]))
            or set(gaps[1:]) != set(range(1, len(values)))):
        raise SpaceValidationError("values", (), "values must rise from 0, each a gap's")


def check_from_ranks_handoff(tree: RootedLabeledTree, label_values, label_rank, *args, **kwargs) -> None:
    """What each caller of `RootedLabeledTree._from_ranks` hands over, checked on its tree.

    The values rise strictly and the ranks are in range and use each one,
    so the tree is, field by field, the one the public constructor builds
    from the same labels and the rest of the arguments.
    """
    values, rank = tuple(label_values), tuple(label_rank)
    if any(map(ge, values, values[1:])):
        raise ValueError(f"label values must rise strictly: {values}")
    if set(rank) != set(range(len(values))):
        raise ValueError(f"label ranks must be in range and use every value: {sorted(set(rank))}")
    public = RootedLabeledTree([values[r] for r in rank], *args, **kwargs)
    for field in RootedLabeledTree.__slots__:
        if getattr(tree, field) != getattr(public, field):
            raise ValueError(f"{field} differs from the public constructor's")


def from_ranks(names, values, rank) -> FiniteUltrametricSpace:
    """Oracle for `FiniteUltrametricSpace._from_gaps`: a space from an integer rank matrix.

    The route every derived space took before it was built from its order
    and gaps: it skips parsing and ranking and runs every other check of the
    public constructor, `_basic_validate` and the O(n^2) single-linkage pass
    that finds the order and gaps again, so a wrong matrix raises with its
    axiom and witness.
    """
    space = FiniteUltrametricSpace.__new__(FiniteUltrametricSpace)
    space._assign(names, tuple(values), tuple(map(tuple, rank)))
    return space


def pairwise_padic_space(points, p: int) -> FiniteUltrametricSpace:
    """Oracle for `padic_space`: the valuation of every pairwise difference, O(n^2)."""
    pts = [parse_rational(v) for v in points]
    n = len(pts)
    gamma = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            gamma[i][j] = gamma[j][i] = _valuation(pts[i] - pts[j], p)
    # the norm p^-g falls as g grows: rank the valuations found from the largest
    found = sorted({g for row in gamma for g in row} - {None}, reverse=True)
    rank_of = {None: 0, **{g: t for t, g in enumerate(found, 1)}}
    rank = [[rank_of[g] for g in row] for row in gamma]
    values = [Fraction(0)] + [Fraction(p) ** -g for g in found]
    return from_ranks([str(v) for v in pts], values, rank)


def random_run_order(rng: random.Random, space: FiniteUltrametricSpace) -> tuple[list, list]:
    """A random point order in which every ball of `space` is a run, and its gaps.

    The ball tree walked in preorder with each ball's children shuffled;
    a point's gap is the rank of the lowest ball it shares with the point
    before, and the first gap, which names no pair, is random.
    """
    runs, parent = _ball_tree(space._gaps)
    kids: list[list[int]] = [[] for _ in runs]
    for v in range(1, len(runs)):
        kids[parent[v]].append(v)
    order, gaps, stack = [], [], [(0, rng.randrange(len(space.distance_values)))]
    while stack:
        v, g = stack.pop()
        if kids[v]:
            rng.shuffle(kids[v])
            stack += [(c, runs[v][0]) for c in kids[v][1:]] + [(kids[v][0], g)]
        else:
            order.append(space._order[runs[v][1]])
            gaps.append(g)
    return order, gaps


def triple_loop_ballean_poset(n: int, covers) -> PosetCheckReport:
    """Oracle for `check_ballean_poset`: covers found by a triple loop, O(n^3).

    The order is the reflexive-transitive closure of the (lower, upper)
    pairs, by repeated passes; a cycle raises ValueError.
    """
    if n <= 0:
        raise ValueError("poset must be nonempty")
    arcs = []
    for lo, hi in covers:
        if not (0 <= lo < n and 0 <= hi < n) or lo == hi:
            raise ValueError(f"bad cover pair ({lo},{hi})")
        arcs.append((lo, hi))
    reach = [{v} for v in range(n)]
    changed = True
    while changed:
        changed = False
        for lo, hi in arcs:
            if not reach[hi] <= reach[lo]:
                reach[lo] |= reach[hi]
                changed = True
    for v in range(n):
        for w in range(n):
            if v != w and w in reach[v] and v in reach[w]:
                raise ValueError(f"not a partial order: {v} and {w} lie on a cycle")

    def leq(a, b):
        return b in reach[a]

    largest = next((l for l in range(n) if all(leq(v, l) for v in range(n))), None)
    derived = set()
    for a in range(n):
        for b in range(n):
            if a != b and leq(a, b):
                if not any(w != a and w != b and leq(a, w) and leq(w, b)
                           for w in range(n)):
                    derived.add((a, b))
    covers_match = derived == set(arcs)
    covers_witness = None
    if not covers_match:
        extra = sorted(set(arcs) - derived)
        covers_witness = ("redundant or missing cover arcs, e.g. "
                          f"{extra[:1] or sorted(derived - set(arcs))[:1]}")

    upper_witness = None
    for p in range(n):
        uppers = [q for a, q in derived if a == p]
        if p != largest and len(uppers) != 1:
            upper_witness = f"element {p} has upper covers {sorted(uppers)}"
            break
    lower_witness = None
    for b in range(n):
        lowers = [a for a, q in derived if q == b]
        minimal = not any(leq(a, b) and a != b for a in range(n))
        if not minimal and len(lowers) < 2:
            lower_witness = f"element {b} has lower covers {sorted(lowers)}"
            break
    return PosetCheckReport(
        n=n, has_largest=largest is not None, largest=largest,
        unique_upper_cover=upper_witness is None, upper_witness=upper_witness,
        lower_covers_ok=lower_witness is None, lower_witness=lower_witness,
        covers_are_covering_relation=covers_match, covers_witness=covers_witness,
    )


def path_set_order(tree: RootedLabeledTree) -> tuple[list[frozenset], tuple]:
    """Oracle for `tree_order`: each vertex's root path as a frozenset, and the covers.

    u <= v iff v is in the root path of u.  O(n * depth) memory.
    """
    root = tree.require_root()
    parent = tree.parent_map()
    depth = tree.levels()
    paths: list = [None] * tree.n
    for v in sorted(range(tree.n), key=depth.__getitem__):
        paths[v] = frozenset({v}) if v == root else paths[parent[v]] | {v}
    covers = tuple(sorted((v, parent[v]) for v in range(tree.n) if v != root))
    return paths, covers


def set_bits(mask: int) -> list[int]:
    return [i for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


def tree_order_failures(tree: RootedLabeledTree, order: TreeOrder) -> list[str]:
    """Names of the root-order properties `order` breaks on `tree`.

    The root is the largest element; the one upper cover of every other
    vertex, the member of its up-set one element shorter, is its parent;
    the order is the closure of its covers (each up-set is the vertex plus
    its upper covers' up-sets, which pins the least fixed point on the
    acyclic cover relation of a tree); the covers are the edges; and with
    ball payloads the order is ball inclusion.
    """
    n, root, up = tree.n, tree.require_root(), order.up
    parent = tree.parent_map()
    failures = []
    if not all(order.leq(v, root) for v in range(n)):
        failures.append("root-largest")
    height = [bin(m).count("1") for m in up]
    if any([u for u in set_bits(up[v]) if height[u] == height[v] - 1] != [parent[v]]
           for v in range(n) if v != root):
        failures.append("upper-cover-is-parent")
    generated = [1 << v for v in range(n)]
    for lo, hi in order.covers:
        generated[lo] |= up[hi]
    if generated != list(up):
        failures.append("closure-of-covers")
    if {tuple(sorted(c)) for c in order.covers} != set(tree.edges) \
            or len(order.covers) != len(tree.edges):
        failures.append("covers-are-edges")
    if tree.ball_points is not None:
        masks = [sum(1 << x for x in p) for p in tree.ball_points]
        if any(order.leq(u, v) != (masks[u] & ~masks[v] == 0)
               for u in range(n) for v in range(n)):
            failures.append("order-is-ball-inclusion")
    return failures


def all_roots_representable(tree: RootedLabeledTree) -> tuple[bool, Optional[int], Optional[str]]:
    """Oracle for `check_representable`: every root in index order.

    Each root gets a copy of the tree rooted there.  Accepts the first root
    under which no vertex has out-degree one and the labeling is monotone;
    otherwise rejects with the blocking condition of root 0.
    """
    first_reason = None
    for root in range(tree.n):
        rooted = RootedLabeledTree(tree.labels, tree.edges, root=root)
        v = next((v for v in range(tree.n) if rooted.out_degree(v) == 1), None)
        if v is not None:
            if first_reason is None:
                first_reason = f"root {root}: out-degree 1 at vertex {v}"
            continue
        ok, reason = is_monotone_labeling(rooted)
        if ok:
            return True, root, None
        if first_reason is None:
            first_reason = f"root {root}: {reason}"
    return False, None, first_reason


def bfs_tree_maps(tree: RootedLabeledTree, root: int):
    """Oracle for `parent_map`, `levels` and `children_map`: a fresh walk from `root`.

    Reads only `tree.edges`, so it shares nothing with the constructor's walk.
    """
    adj: list[list[int]] = [[] for _ in range(tree.n)]
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    parent: list[Optional[int]] = [None] * tree.n
    depth = [-1] * tree.n
    depth[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if depth[v] < 0:
                depth[v] = depth[u] + 1
                parent[v] = u
                queue.append(v)
    kids: list[list[int]] = [[] for _ in range(tree.n)]
    for v, p in enumerate(parent):
        if p is not None:
            kids[p].append(v)
    return tuple(parent), tuple(depth), tuple(tuple(sorted(k)) for k in kids)


def fraction_weak_similarity_check(x: FiniteUltrametricSpace, y: FiniteUltrametricSpace,
                                   phi) -> tuple[bool, Optional[ScalingFunction]]:
    """Oracle for `weak_similarity_check` on a valid bijection: a `Fraction` scan.

    Maps each image distance to its source distance, then requires the map
    to be well defined, strictly increasing and onto both distance sets.
    """
    n = len(x)
    forward: dict[Fraction, Fraction] = {}
    for i in range(n):
        for j in range(i, n):
            src = x.matrix[i][j]
            dst = y.matrix[phi[i]][phi[j]]
            if forward.setdefault(dst, src) != src:
                return False, None
    # order equivalence for all quadruples == the map is strictly increasing
    items = sorted(forward.items())
    for (d1, s1), (d2, s2) in zip(items, items[1:]):
        if not s1 < s2:
            return False, None
    domain = [d for d, _ in items]
    values = [s for _, s in items]
    if set(domain) != set(y.distance_values) or set(values) != set(x.distance_values):
        return False, None
    return True, ScalingFunction(domain, values)


def fraction_closed_ball(space: FiniteUltrametricSpace, center: int, radius) -> Ball:
    """Oracle for `closed_ball`: the center's `Fraction` row compared with the radius."""
    radius = parse_rational(radius)
    row = space.matrix[center]
    members = tuple(x for x in space.points() if row[x] <= radius)
    d = space.distance_values[row_diam_rank(space, members)]
    return Ball(members, d, center, radius)


def snap_loop_quantize_ladder(space: FiniteUltrametricSpace, ladder) -> FiniteUltrametricSpace:
    """Oracle for `quantize_ladder`: each distance walks down the rungs to its snap.

    The ladder must be strictly decreasing, positive and reach the smallest
    positive distance; this oracle does not check it.
    """
    rungs = [parse_rational(v) for v in ladder]

    def snap(t: Fraction) -> Fraction:
        if t == 0:
            return t
        for r in rungs:
            if r <= t:
                return r
        raise AssertionError("unreachable: ladder checked against the distance set")

    return apply_preserving(space, snap)


def generator_canonical_code(tree: RootedLabeledTree) -> CanonicalCode:
    """Oracle for `canonical_code`: each level sorts a generator of its
    children's codes and prints its own `Fraction` label."""
    root = tree.require_root()

    def encode(v: int, parent: int) -> str:
        subs = sorted(encode(w, v) for w in tree.neighbors(v) if w != parent)
        return "(" + format_rational(tree.labels[v]) + ";" + ",".join(subs) + ")"

    return CanonicalCode(encode(root, -1))


def fraction_is_monotone_labeling(tree: RootedLabeledTree) -> tuple[bool, Optional[str]]:
    """Oracle for `is_monotone_labeling`: the labels compared as `Fraction`s."""
    for v, p in enumerate(tree.parent_map()):
        if p is not None and not tree.labels[v] < tree.labels[p]:
            return False, f"label of {v} does not drop below its parent {p}"
    for v in range(tree.n):
        if tree.out_degree(v) == 0 and tree.labels[v] != 0:
            return False, f"leaf {v} has positive label {tree.labels[v]}"
    return True, None


def transpose_gap_rows(gaps) -> tuple[tuple[int, ...], ...]:
    """Oracle for `core._gap_rows`: the left halves by bisection, the right
    halves as the columns of the zero-padded left halves."""
    left = [()]
    for g in gaps[1:]:
        t = bisect_left(left[-1], -g, key=neg)
        left.append(left[-1][:t] + (g,) * (len(left) - t))
    cols = zip(*[row + (0,) * (len(left) - b) for b, row in enumerate(left)])
    return tuple(row + col[b:] for b, (row, col) in enumerate(zip(left, cols)))


def closed_ball_join(poset: BallPoset, a: Ball, b: Ball) -> Ball:
    """Oracle for `BallPoset.join`: a `closed_ball` row scan around a's smallest point.

    The join is the ball around a_0 at the largest of diam(a), diam(b) and
    d(a_0, b_0), with the diameters ranked through a `Fraction`-keyed dict.
    """
    space, a0 = poset.space, a.points[0]
    rank = {v: t for t, v in enumerate(space.distance_values)}
    t = max(rank[a.diameter], rank[b.diameter], space.rank[a0][b.points[0]])
    return closed_ball(space, a0, space.distance_values[t])


def stack_chains_and_partings(tree: RootedLabeledTree) -> tuple[tuple[MaxChain, ...], list[int]]:
    """Oracle for `tree_metric._chains_and_partings`: a stack walk of its own.

    It reads `children_map` and carries each vertex's path and parting:
    a first child parts where its parent does, any other at its parent,
    the first chain at its leaf.
    """
    root = tree.require_root()
    kids = tree.children_map()
    chains, parting = [], []
    stack: list[tuple[int, tuple[int, ...], Optional[int]]] = [(root, (root,), None)]
    while stack:
        v, path, part = stack.pop()
        below = kids[v]
        if not below:
            chains.append(MaxChain(path))
            parting.append(v if part is None else part)
            continue
        for c in below[:0:-1]:
            stack.append((c, path + (c,), v))
        stack.append((below[0], path + (below[0],), part))
    return tuple(chains), parting


def tree_code_isometric(x: FiniteUltrametricSpace, y: FiniteUltrametricSpace) -> bool:
    """Oracle for `spaces_isometric`: the text codes of the two representing trees."""
    return canonical_code(build_representing_tree(x)) == \
        canonical_code(build_representing_tree(y))


def rank_transform_weakly_similar(x: FiniteUltrametricSpace, y: FiniteUltrametricSpace) -> bool:
    """Oracle for `weakly_similar`: isometry of the two rank-transformed copies."""
    return tree_code_isometric(rank_transform(x), rank_transform(y))


def one_ball_relabeled(rng: random.Random, space: FiniteUltrametricSpace) -> FiniteUltrametricSpace:
    """A copy with one ball's diameter moved, the tree's shape kept.

    A random ball of positive diameter gets a new one strictly between its
    largest child's diameter and its parent's (twice its own at the root),
    so the result is ultrametric with the same representing tree but for
    that one label.  A one-point space comes back as it is.
    """
    runs, parent = _ball_tree(space._gaps)
    inner = [v for v, (r, _, _) in enumerate(runs) if r]
    if not inner:
        return space
    v = rng.choice(inner)
    values, (r, s, e) = space.distance_values, runs[v]
    below = max(values[runs[w][0]] for w in range(len(runs)) if parent[w] == v)
    above = values[runs[parent[v]][0]] if parent[v] >= 0 else values[r] * 2
    new = rng.choice((below + values[r], values[r] + above)) / 2
    matrix = [list(row) for row in space.matrix]
    pts = space._order[s:e]
    for a in pts:
        for b in pts:
            if matrix[a][b] == values[r]:
                matrix[a][b] = new
    return FiniteUltrametricSpace(space.names, matrix)


def every_verb_parser() -> argparse.ArgumentParser:
    """Oracle for `cli.build_parser`: every verb's subparser written out in turn.

    Handlers are named, as `cli.run` looks them up.
    """
    parser = argparse.ArgumentParser(
        prog="ultratree",
        description="Finite ultrametric spaces: balls, representing trees, "
                    "isometry, transforms, p-adic generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test ultrametricity, with a witness on failure")
    p.add_argument("space")
    p.set_defaults(handler="_cmd_check")

    p = sub.add_parser("dset", help="print the distance set")
    p.add_argument("space")
    p.set_defaults(handler="_cmd_dset")

    p = sub.add_parser("balls", help="enumerate the ballean")
    p.add_argument("space")
    p.set_defaults(handler="_cmd_balls")

    p = sub.add_parser("tree", help="build the representing tree")
    p.add_argument("space")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.set_defaults(handler="_cmd_tree")

    for verb, what in (("iso", "isometry"), ("weaksim", "weak similarity")):
        p = sub.add_parser(verb, help=f"decide {what} of two spaces")
        p.add_argument("space_a")
        p.add_argument("space_b")
        p.set_defaults(handler="_cmd_pair")

    p = sub.add_parser("reconstruct", help="rebuild the space a monotone tree represents")
    p.add_argument("tree")
    p.set_defaults(handler="_cmd_reconstruct")

    p = sub.add_parser("representable", help="can this labeled tree represent a space?")
    p.add_argument("tree")
    p.set_defaults(handler="_cmd_representable")

    p = sub.add_parser("posetcheck", help="is this poset a ball lattice?")
    p.add_argument("poset")
    p.set_defaults(handler="_cmd_posetcheck")

    p = sub.add_parser("transform", help="apply a distance transform")
    p.add_argument("--fn", required=True,
                   help="bound:D | unbound:D | threshold:R | quantize")
    p.add_argument("space")
    p.set_defaults(handler="_cmd_transform")

    p = sub.add_parser("padic", help="build a p-adic sample space")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--points", required=True, help="JSON array of rationals")
    p.set_defaults(handler="_cmd_padic")

    p = sub.add_parser("bethe", help="generate a depth-limited p-adic ball/sphere tree")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--top", default="1", help="label of the root (default 1)")
    p.add_argument("--sphere", action="store_true")
    p.set_defaults(handler="_cmd_bethe")

    p = sub.add_parser("roundtrip", help="space -> tree -> space, isometry verdict")
    p.add_argument("space")
    p.set_defaults(handler="_cmd_roundtrip")

    return parser
