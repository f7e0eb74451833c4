"""Shared fixtures, random generators and oracles for the test suite.

Random ultrametric matrices are built by recursive partitioning with
strictly decreasing level values, so validity holds by construction and
the library's validators act as an independent check.  The top-down tree
builder is the implementation the library's iterative one replaced, kept
here as an oracle.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ultratree import FiniteUltrametricSpace, RootedLabeledTree
from ultratree.core import _subset_diam_rank, diametrical_partition


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


def top_down_tree(space: FiniteUltrametricSpace) -> RootedLabeledTree:
    """The representing tree built top down from diametrical partitions.

    Oracle for `build_representing_tree`: the root is the whole space, the
    children of a vertex are the parts of its diametrical graph, vertices
    are numbered depth first.  Recursive and O(n^3) on deep trees.
    """
    labels, edges, payload = [], [], []

    def build(points: tuple[int, ...]) -> int:
        vid = len(labels)
        labels.append(space.distance_values[_subset_diam_rank(space, points)])
        payload.append(points)
        if len(points) > 1:
            for part in diametrical_partition(space, points):
                edges.append((vid, build(tuple(part))))
        return vid

    build(tuple(space.points()))
    return RootedLabeledTree(labels, edges, root=0, ball_points=payload)


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
    return [[norm(abs(i - j)) for j in range(n)] for i in range(n)]


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
