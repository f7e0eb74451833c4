"""Shared fixtures and random generators for the test suite.

Random ultrametric matrices are built by recursive partitioning with
strictly decreasing level values, so validity holds by construction and
the library's validators act as an independent check.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ultratree import FiniteUltrametricSpace


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
