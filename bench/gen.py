"""Seeded input generators for the benchmark, independent of `ultratree`.

Every space is built from an explicit hierarchy (a rooted tree whose
leaves are the points and whose vertex labels strictly decrease toward
the leaves), so the answers the library should give are known from the
construction alone: the ultrametric verdict, the ballean (one ball per
vertex), the representing tree, isometric and non-isometric partners,
and the space a tree reconstructs.  Nothing here calls the library, and
nothing recurses, so caterpillars of any depth are fine.

Shapes: random bushy, flat equidistant, caterpillar (d(x, y) = max(x, y)
on {0..n-1}, the `space_from_sequence` shape) and p-adic {0..p^k - 1}.
"""

from __future__ import annotations

import random
from fractions import Fraction


class Hierarchy:
    """A labeled rooted tree over points 0..n-1, vertices in depth-first order.

    Children are ordered by smallest point, which is the numbering the
    library gives representing trees.  `points[v]` is the sorted point
    set of vertex v and `labels[v]` its diameter (0 on leaves).
    """

    __slots__ = ("shape", "n", "labels", "parent", "children", "points", "depth")

    def __init__(self, shape, n, labels, parent, children, points):
        self.shape = shape
        self.n = n
        self.labels = labels
        self.parent = parent
        self.children = children
        self.points = points
        self.depth = [0] * len(labels)
        for v in range(1, len(labels)):
            self.depth[v] = self.depth[parent[v]] + 1

    @property
    def vertices(self) -> int:
        return len(self.labels)

    def matrix(self) -> list[list[Fraction]]:
        """d(x, y) = label of the deepest vertex holding both, O(V + n^2)."""
        n = self.n
        mat = [[Fraction(0)] * n for _ in range(n)]
        # Walk vertices bottom-up: every pair split between two children of v
        # gets v's label, and each pair is split exactly once.
        for v in range(self.vertices - 1, -1, -1):
            kids = self.children[v]
            label = self.labels[v]
            for a in range(len(kids)):
                pa = self.points[kids[a]]
                for b in range(a + 1, len(kids)):
                    for x in pa:
                        row = mat[x]
                        for y in self.points[kids[b]]:
                            row[y] = label
                            mat[y][x] = label
        return mat

    def tree_json(self, with_points: bool = True) -> dict:
        edges = sorted((self.parent[v], v) for v in range(1, self.vertices))
        return {
            "root": 0,
            "labels": [str(l) for l in self.labels],
            "edges": [list(e) for e in edges],
            "ball_points": [list(p) for p in self.points] if with_points else None,
        }

    def balls(self) -> set:
        return {(tuple(p), self.labels[v]) for v, p in enumerate(self.points)}

    def sphere_plus_center(self) -> bool:
        """Every internal vertex has a leaf child (a singleton diametrical part)."""
        return all(
            any(len(self.points[c]) == 1 for c in kids)
            for kids in self.children if kids
        )

    def canonical_text(self) -> str:
        """The library's canonical code text, built bottom-up without recursion."""
        code = [""] * self.vertices
        for v in range(self.vertices - 1, -1, -1):
            subs = sorted(code[c] for c in self.children[v])
            code[v] = "(" + str(self.labels[v]) + ";" + ",".join(subs) + ")"
        return code[0]

    def leaf_chain_matrix(self) -> list[list[Fraction]]:
        """Matrix `reconstruct_space` returns: leaves in depth-first order."""
        order = [v for v in range(self.vertices) if not self.children[v]]
        idx = {v: i for i, v in enumerate(order)}
        m = len(order)
        mat = [[Fraction(0)] * m for _ in range(m)]
        below = [[] for _ in range(self.vertices)]
        for v in range(self.vertices - 1, -1, -1):
            kids = self.children[v]
            if not kids:
                below[v] = [idx[v]]
                continue
            label = self.labels[v]
            for a in range(len(kids)):
                for b in range(a + 1, len(kids)):
                    for x in below[kids[a]]:
                        for y in below[kids[b]]:
                            mat[x][y] = mat[y][x] = label
            below[v] = [x for c in kids for x in below[c]]
        return mat


def _from_blocks(shape: str, n: int, root_label: Fraction, split) -> Hierarchy:
    """Build a hierarchy top-down; `split(points, label)` returns (child blocks, child label)."""
    labels, parent, children, points = [], [], [], []
    stack = [(tuple(range(n)), root_label, -1)]
    while stack:
        pts, label, par = stack.pop()
        v = len(labels)
        labels.append(label if len(pts) > 1 else Fraction(0))
        parent.append(par)
        children.append([])
        points.append(pts)
        if par >= 0:
            children[par].append(v)
        if len(pts) > 1:
            blocks, child_label = split(pts, label)
            blocks = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0])
            for b in reversed(blocks):
                stack.append((b, child_label(b) if callable(child_label) else child_label, v))
    return Hierarchy(shape, n, labels, parent, children, points)


def bushy(rng: random.Random, n: int) -> Hierarchy:
    """Random recursive partition into 2..4 blocks; labels drop by a random factor."""
    top = Fraction(rng.randint(40, 99), rng.randint(1, 7))

    def split(pts, label):
        k = rng.randint(2, min(len(pts), 4))
        order = list(pts)
        rng.shuffle(order)
        blocks = [[p] for p in order[:k]]
        for p in order[k:]:
            blocks[rng.randrange(k)].append(p)
        return blocks, (lambda b: label * Fraction(rng.randint(1, 8), 9))

    return _from_blocks("bushy", n, top, split)


def flat(rng: random.Random, n: int) -> Hierarchy:
    """Equidistant space: one root over n singletons."""
    d = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return _from_blocks("flat", n, d, lambda pts, label: ([[p] for p in pts], Fraction(0)))


def caterpillar(n: int) -> Hierarchy:
    """d(x, y) = max(x, y) on {0..n-1}: a chain of balls {0..k}, 2n - 1 in all."""
    return _from_blocks(
        "caterpillar", n, Fraction(n - 1),
        lambda pts, label: ([pts[:-1], pts[-1:]], Fraction(len(pts) - 2)),
    )


def padic(p: int, k: int) -> Hierarchy:
    """{0..p^k - 1} with |x - y|_p: a complete p-ary tree of depth k."""
    # The residue classes of an arithmetic progression with difference s
    # are the progressions with difference s*p, which pts[r::p] picks out.
    def split(pts, label):
        return [pts[r::p] for r in range(p)], label / p

    return _from_blocks(f"padic{p}", p ** k, Fraction(1), split)


def permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel_labels(h: Hierarchy, scale) -> Hierarchy:
    """Same shape, every label mapped by a strictly increasing `scale`."""
    return Hierarchy(h.shape, h.n, [scale(l) if l else l for l in h.labels],
                     h.parent, h.children, h.points)


def perturb_label(h: Hierarchy, rng: random.Random) -> Hierarchy:
    """Same shape, one internal label moved strictly between its neighbours.

    The result is ultrametric but not isometric to `h`: its distance
    multiset differs.
    """
    internal = [v for v in range(h.vertices) if h.children[v]]
    v = rng.choice(internal)
    hi = h.labels[h.parent[v]] if v else h.labels[v] * 2
    lo = max(h.labels[c] for c in h.children[v])
    labels = list(h.labels)
    new = (lo + hi) / 2
    if new == labels[v]:
        new = (lo + labels[v]) / 2
    labels[v] = new
    return Hierarchy(h.shape, h.n, labels, h.parent, h.children, h.points)


def break_ultrametric(h: Hierarchy, mat: list[list[Fraction]]):
    """Raise one root-crossing distance just above the diameter.

    Picks x, y in different root children with x's child holding another
    point z, so d(x, y) > max(d(x, z), d(z, y)) breaks the strong
    triangle while the ordinary one still holds.  Returns the new matrix.
    """
    kids = h.children[0]
    big = max(kids, key=lambda c: len(h.points[c]))
    other = next(c for c in kids if c != big)
    x = h.points[big][0]
    y = h.points[other][0]
    # rising by less than x's and y's nearest distances keeps the ordinary triangle
    eps = min(min(v for v in mat[x] if v), min(v for v in mat[y] if v)) / 2
    mat = [row[:] for row in mat]
    mat[x][y] = mat[y][x] = h.labels[0] + eps
    return mat


def is_strong_witness(mat, i: int, j: int, k: int) -> bool:
    """Does the triple break the strong triangle (largest side attained once)?"""
    a, b, c = mat[i][j], mat[i][k], mat[j][k]
    m = max(a, b, c)
    return (a == m) + (b == m) + (c == m) < 2


def space_json(names, mat) -> dict:
    return {"points": list(names), "matrix": [[str(v) for v in row] for row in mat]}


def permuted(names, mat, perm):
    """Point i of the copy is point perm[i] of the original."""
    return ([names[p] for p in perm],
            [[mat[p][q] for q in perm] for p in perm])


def non_representable_tree(h: Hierarchy) -> dict:
    """Tree JSON that no space represents: a path of three positive labels.

    Under every root some vertex of a 3-vertex path has out-degree one,
    so `check_representable` must reject it.  It is grafted onto nothing
    else, so the verdict does not depend on `h` beyond its labels.
    """
    top = h.labels[0]
    return {"root": None, "labels": [str(top), str(top / 2), str(top / 3)],
            "edges": [[0, 1], [1, 2]], "ball_points": None}


def poset_json(h: Hierarchy, broken: bool = False) -> dict:
    """Poset JSON of the ball lattice: covers are (vertex, parent) pairs.

    With `broken`, the first leaf also gets the second root child as an
    upper cover.  Neither is below the other, so that leaf has two upper
    covers and the poset is no ball lattice.
    """
    covers = [[v, h.parent[v]] for v in range(1, h.vertices)]
    if broken:
        leaf = next(v for v in range(h.vertices) if not h.children[v])
        covers.append([leaf, h.children[0][1]])
    return {"elements": [f"b{v}" for v in range(h.vertices)], "covers": covers}


def quantize(t: Fraction) -> Fraction:
    """Snap to a power of 1/2, capped at 1/2 (what `quantize_binary` promises)."""
    if t == 0:
        return t
    step = Fraction(1, 2)
    while step > t:
        step /= 2
    return step


def bound(t: Fraction, d_star: Fraction) -> Fraction:
    return d_star * t / (1 + t)
