from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ultratree import (
    FiniteMetricSpace,
    FiniteUltrametricSpace,
    NotUltrametricError,
    SpaceValidationError,
    diam,
    diametrical_partition,
    distance_set,
    is_ultrametric_multipartite,
    is_ultrametric_triangle,
    make_space,
    parse_rational,
    space_from_json,
    space_from_sequence,
    space_to_json,
    threshold_partition,
)
from util import (
    count_calls,
    mixed_validity_matrix,
    nested_four_point_space,
    random_ultrametric_matrix,
)


def test_make_space_accepts_the_nested_four_point_matrix():
    space = make_space(
        ["x1", "x2", "x3", "x4"],
        [[0, 2, 2, 2], [2, 0, 1, 1], [2, 1, 0, 1], [2, 1, 1, 0]],
    )
    assert isinstance(space, FiniteUltrametricSpace)


def test_make_space_single_point():
    space = make_space(["a"], [[0]])
    assert isinstance(space, FiniteUltrametricSpace)
    assert distance_set(space) == (Fraction(0),)


def test_make_space_reports_strong_triangle_witness():
    with pytest.raises(SpaceValidationError) as info:
        FiniteUltrametricSpace(["a", "b", "c"], [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    assert info.value.axiom == "strong-triangle"
    assert info.value.witness == (0, 1, 2)


def test_make_space_parses_validates_ranks_and_scans_once(monkeypatch):
    import ultratree.core as core

    n = 9
    matrix = random_ultrametric_matrix(random.Random(5), n)
    rows = [[str(v) for v in row] for row in matrix]
    counts = count_calls(monkeypatch, core, (
        "parse_rational", "_basic_validate", "_rank_of",
        "_strong_triangle_witness", "_weak_triangle_witness"))
    space = make_space([f"p{i}" for i in range(n)], rows)
    assert isinstance(space, FiniteUltrametricSpace)
    assert counts == {"parse_rational": n * n, "_basic_validate": 1, "_rank_of": 1,
                      "_strong_triangle_witness": 1, "_weak_triangle_witness": 0}


def test_make_space_rejects_asymmetry_and_bad_diagonal():
    with pytest.raises(SpaceValidationError) as info:
        make_space(["a", "b"], [[0, 1], [2, 0]])
    assert info.value.axiom == "symmetry"
    with pytest.raises(SpaceValidationError) as info:
        make_space(["a", "b"], [[1, 1], [1, 0]])
    assert info.value.axiom == "diagonal"
    with pytest.raises(SpaceValidationError) as info:
        make_space(["a", "b"], [[0, 0], [0, 0]])
    assert info.value.axiom == "positivity"


def test_make_space_downgrades_to_metric_when_strong_triangle_fails():
    # 1, 2, 5/2 is a metric triangle but not an ultrametric one
    space = make_space(
        ["a", "b", "c"],
        [[0, 1, 2], [1, 0, Fraction(5, 2)], [2, Fraction(5, 2), 0]],
    )
    assert isinstance(space, FiniteMetricSpace)
    assert not isinstance(space, FiniteUltrametricSpace)


def test_parse_rational_rejects_floats_and_reads_decimals_exactly():
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("3/10") == Fraction(3, 10)
    with pytest.raises(ValueError):
        parse_rational(0.25)


def test_triangle_test_on_worked_examples():
    ok, witness = is_ultrametric_triangle(nested_four_point_space())
    assert ok and witness is None

    ok, witness = is_ultrametric_triangle(
        [[0, 1, 3], [1, 0, 1], [3, 1, 0]]
    )
    assert not ok and witness == (0, 1, 2)


def test_triangle_test_max_metric_on_small_chain():
    # d(x, y) = max(x, y) on {0, 1/2, 1}
    pts = [Fraction(0), Fraction(1, 2), Fraction(1)]
    matrix = [
        [Fraction(0) if i == j else max(pts[i], pts[j]) for j in range(3)]
        for i in range(3)
    ]
    ok, _ = is_ultrametric_triangle(matrix)
    assert ok


def test_multipartite_test_on_worked_examples():
    assert is_ultrametric_multipartite(nested_four_point_space())
    assert not is_ultrametric_multipartite([[0, 1, 3], [1, 0, 1], [3, 1, 0]])


def test_cross_oracle_on_random_matrices():
    rng = random.Random(20240817)
    for _ in range(1000):
        n = rng.randint(1, 9)
        matrix = mixed_validity_matrix(rng, n)
        assert is_ultrametric_triangle(matrix)[0] == is_ultrametric_multipartite(matrix)


def test_distance_set_examples():
    assert distance_set(nested_four_point_space()) == (
        Fraction(0), Fraction(1), Fraction(2),
    )

    # 3-adic distances on 0..9, computed here by direct valuation counting
    def norm3(k):
        if k == 0:
            return Fraction(0)
        v = 0
        while k % 3 == 0:
            k //= 3
            v += 1
        return Fraction(1, 3 ** v)

    matrix = [[norm3(abs(i - j)) for j in range(10)] for i in range(10)]
    space = make_space([str(i) for i in range(10)], matrix)
    assert distance_set(space) == (
        Fraction(0), Fraction(1, 9), Fraction(1, 3), Fraction(1),
    )


def test_distance_count_never_exceeds_point_count():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 16)
        space = FiniteUltrametricSpace(
            [f"p{i}" for i in range(n)], random_ultrametric_matrix(rng, n)
        )
        assert len(distance_set(space)) <= len(space)


def test_diam_examples():
    space = nested_four_point_space()
    assert diam(space, [1, 2]) == 1
    assert diam(space, [3]) == 0
    assert diam(space) == 2
    with pytest.raises(ValueError):
        diam(space, [])


def test_diametrical_partition_examples():
    space = nested_four_point_space()
    parts = diametrical_partition(space)
    assert parts.parts == ((0,), (1, 2, 3))
    assert parts.threshold == 2

    sub = diametrical_partition(space, [1, 2, 3])
    assert sub.parts == ((1,), (2,), (3,))
    assert diametrical_partition(space, [2]) is None


def test_diametrical_partition_covers_and_separates():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(2, 14)
        space = FiniteUltrametricSpace(
            [f"p{i}" for i in range(n)], random_ultrametric_matrix(rng, n)
        )
        pts = sorted(rng.sample(range(n), rng.randint(2, n)))
        parts = diametrical_partition(space, pts)
        assert len(parts) >= 2
        flat = sorted(p for part in parts for p in part)
        assert flat == pts
        d = diam(space, pts)
        for a in range(len(parts.parts)):
            for b in range(a + 1, len(parts.parts)):
                for x in parts.parts[a]:
                    for y in parts.parts[b]:
                        assert space.distance(x, y) == d


def test_diametrical_partition_flags_non_ultrametric_input():
    space = make_space(
        ["a", "b", "c"],
        [[0, 1, 2], [1, 0, Fraction(5, 2)], [2, Fraction(5, 2), 0]],
    )
    with pytest.raises(NotUltrametricError):
        diametrical_partition(space)


def test_threshold_partition_examples():
    space = nested_four_point_space()
    assert threshold_partition(space, 2).parts == ((0,), (1, 2, 3))
    assert threshold_partition(space, 1).parts == ((0,), (1,), (2,), (3,))
    assert threshold_partition(space, 3) is None
    with pytest.raises(ValueError):
        threshold_partition(space, 0)


def test_space_from_sequence():
    space = space_from_sequence([1, Fraction(1, 2), Fraction(1, 4)])
    assert len(space) == 4
    assert distance_set(space) == (
        Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1),
    )
    assert is_ultrametric_triangle(space)[0]

    assert len(space_from_sequence([])) == 1
    two = space_from_sequence([1])
    assert len(two) == 2 and two.distance(0, 1) == 1

    with pytest.raises(ValueError):
        space_from_sequence([1, 1])


def test_one_center_diameter_matches_pairwise():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(2, 12)
        space = FiniteUltrametricSpace(
            [f"p{i}" for i in range(n)], random_ultrametric_matrix(rng, n)
        )
        pts = sorted(rng.sample(range(n), rng.randint(1, n)))
        d = diam(space, pts)
        assert d == max(space.distance(x, y) for x in pts for y in pts)
        for anchor in pts:
            assert max(space.distance(anchor, x) for x in pts) == d


def test_space_json_roundtrip():
    space = nested_four_point_space()
    payload = space_to_json(space)
    again = space_from_json(payload)
    assert again.names == space.names
    assert again.matrix == space.matrix
    assert isinstance(again, FiniteUltrametricSpace)
