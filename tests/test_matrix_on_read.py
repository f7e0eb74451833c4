"""A space stores its ranks; the `Fraction` matrix is built on first read.

On every construction path `space.matrix[i][j]` is `space.distance(i, j)`,
built from `rank` and `distance_values` when first read and kept, so a
second read returns the same object.  No builder, audit, isometry test or
JSON writer of the library reads it, and neither does a refusal, so after
each of them the cache of every space involved is still empty.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ultratree import (
    FiniteMetricSpace,
    FiniteUltrametricSpace,
    SpaceValidationError,
    apply_preserving,
    ball_poset,
    ballean,
    bound_transform,
    build_representing_tree,
    hausdorff_ball_space,
    make_space,
    padic_space,
    path_max_metric,
    quantize_binary,
    rank_transform,
    reconstruct_space,
    space_from_sequence,
    space_to_json,
    spaces_isometric,
    sphere_plus_center_condition,
    threshold_function,
    verify_tree_invariants,
    weakly_similar,
)
from util import caterpillar_matrix, random_ultrametric_matrix

WEAK_ONLY = [[0, 2, 3], [2, 0, 2], [3, 2, 0]]        # a metric, not an ultrametric
TRIANGLE_FAILS = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]   # not even a metric


def cached(space) -> bool:
    """Whether some slot of `space` holds rows of `Fraction` distances."""
    slots = {s for cls in type(space).__mro__ for s in getattr(cls, "__slots__", ())}
    held = (getattr(space, s, None) for s in slots)
    return any(type(v) is tuple and type(v[0]) is tuple and type(v[0][0]) is Fraction
               for v in held if v)


def fresh_space(seed: int, n: int = 24) -> FiniteUltrametricSpace:
    names = [f"p{i}" for i in range(n)]
    return FiniteUltrametricSpace(names, random_ultrametric_matrix(random.Random(seed), n))


def derived(space):
    """(name, space) for each builder that derives a space, on fresh inputs."""
    tree = build_representing_tree(space)
    yield "hausdorff_ball_space", hausdorff_ball_space(space).space
    yield "reconstruct_space", reconstruct_space(tree).space
    yield "path_max_metric", path_max_metric(tree)
    yield "rank_transform", rank_transform(space)
    yield "apply_preserving", apply_preserving(space, threshold_function(space.distance_values[1]))
    yield "bound_transform", bound_transform(space, 3)
    yield "quantize_binary", quantize_binary(space)
    yield "padic_space", padic_space([*range(20), Fraction(1, 3), -7], 3)
    yield "space_from_sequence", space_from_sequence([5, 3, Fraction(1, 2)])


def every_path():
    n = 12
    names = [f"p{i}" for i in range(n)]
    matrix = random_ultrametric_matrix(random.Random(31), n)
    yield "FiniteUltrametricSpace", FiniteUltrametricSpace(names, matrix)
    yield "FiniteMetricSpace", FiniteMetricSpace(names, matrix)
    yield "make_space ultrametric", make_space(names, caterpillar_matrix(n))
    yield "make_space metric", make_space("abc", WEAK_ONLY)
    yield from derived(fresh_space(32))


def test_the_matrix_is_each_distance_built_once():
    for name, space in every_path():
        assert not cached(space), name
        pts = space.points()
        want = tuple(tuple(space.distance(i, j) for j in pts) for i in pts)
        first = space.matrix
        assert first == want and all(type(row) is tuple for row in first), name
        assert space.matrix is first and cached(space), name


def test_no_builder_audit_or_writer_reads_the_matrix():
    space, other = fresh_space(41), fresh_space(42)
    metric = make_space("abc", WEAK_ONLY)
    assert type(metric) is FiniteMetricSpace
    outputs = [s for _, s in derived(space)]
    tree = build_representing_tree(space)
    ballean(space)
    ball_poset(space)
    assert verify_tree_invariants(tree, space).ok
    sphere_plus_center_condition(space)
    spaces_isometric(space, other)
    weakly_similar(space, other)
    for s in [space, other, metric, *outputs]:
        space_to_json(s)
    for s in [space, other, metric, *outputs]:
        assert not cached(s), s


def refused(cls, names, matrix) -> tuple[SpaceValidationError, object]:
    space = cls.__new__(cls)
    with pytest.raises(SpaceValidationError) as info:
        space.__init__(names, matrix)
    return info.value, space


def test_refusals_read_no_matrix_and_keep_their_messages():
    error, space = refused(FiniteUltrametricSpace, "abc", WEAK_ONLY)
    assert (error.axiom, error.witness) == ("strong-triangle", (0, 1, 2))
    assert str(error) == "strong triangle fails on (a,b,c): 2, 3, 2"
    assert not cached(space)
    error, space = refused(FiniteMetricSpace, "abc", TRIANGLE_FAILS)
    assert (error.axiom, error.witness) == ("triangle", (0, 2, 1))
    assert str(error) == "triangle inequality fails: d(a,c) > d(a,b) + d(b,c)"
    assert not cached(space)
