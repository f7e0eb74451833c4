from __future__ import annotations

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ultratree.core as core
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
from ultratree.balls import ballean
from ultratree.cli import run
from ultratree.core import format_rational
from ultratree.morphisms import bound_transform, quantize_binary
import util
from util import (
    caterpillar_matrix,
    count_calls,
    differential_spaces,
    first_mismatch,
    flat_matrix,
    mixed_validity_matrix,
    nested_four_point_space,
    padic_matrix,
    permuted,
    perturbed,
    prim_single_linkage,
    random_ultrametric_matrix,
    strong_triangle_witness,
    violates_strong_triangle,
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
    n = 9
    matrix = random_ultrametric_matrix(random.Random(5), n)
    rows = [[str(v) for v in row] for row in matrix]
    distinct = len({v for row in rows for v in row})
    counts = count_calls(monkeypatch, core, (
        "parse_rational", "_basic_validate", "_rank_of", "_single_linkage",
        "_weak_triangle_witness"))
    scans = count_calls(monkeypatch, util, ("strong_triangle_witness",))
    space = make_space([f"p{i}" for i in range(n)], rows)
    assert isinstance(space, FiniteUltrametricSpace)
    assert distinct < n * n
    assert counts == {"parse_rational": distinct, "_basic_validate": 1, "_rank_of": 1,
                      "_single_linkage": 1, "_weak_triangle_witness": 0}
    assert scans == {"strong_triangle_witness": 0}


def test_no_construction_path_runs_the_triple_scan(tmp_path, capsys, monkeypatch):
    rows = [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]]
    good = random_ultrametric_matrix(random.Random(8), 12)
    names = [f"p{i}" for i in range(12)]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"points": ["a", "b", "c"], "matrix": rows}))
    counts = count_calls(monkeypatch, util, ("strong_triangle_witness",))
    space = make_space(names, good)
    FiniteMetricSpace(names, good)
    FiniteUltrametricSpace(names, good)
    space_from_json(space_to_json(space))
    space_from_sequence([3, 2, 1])
    assert is_ultrametric_triangle(space) == (True, None)
    assert is_ultrametric_triangle(rows) == (False, (0, 1, 2))
    assert run(["check", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["witness"] == ["a", "b", "c"]
    assert counts == {"strong_triangle_witness": 0}


def _oracle_agrees(matrix) -> None:
    """`is_ultrametric_triangle` against the O(n^3) triple scan."""
    ok, witness = is_ultrametric_triangle(matrix)
    n = len(matrix)
    oracle = strong_triangle_witness(core._RankedMatrix(range(n), matrix).rank)
    assert ok == (oracle is None)
    if ok:
        assert witness is None
    else:
        assert list(witness) == sorted(set(witness)) and len(witness) == 3
        assert violates_strong_triangle(matrix, witness)


def test_triangle_verdict_is_the_same_on_every_form_of_one_matrix():
    # raw rows, a ranked matrix and both space classes carry one verdict
    rng = random.Random(3004)
    matrices = [mixed_validity_matrix(rng, rng.randint(1, 12)) for _ in range(300)]
    matrices += [perturbed(rng, caterpillar_matrix(24)) for _ in range(20)]
    for matrix in matrices:
        names = [f"p{i}" for i in range(len(matrix))]
        verdict = is_ultrametric_triangle(matrix)
        assert is_ultrametric_triangle(tuple(map(tuple, matrix))) == verdict
        assert is_ultrametric_triangle(core._RankedMatrix(names, matrix)) == verdict
        for cls in (FiniteMetricSpace, FiniteUltrametricSpace):
            try:
                space = cls(names, matrix)
            except SpaceValidationError as error:
                assert not verdict[0]
                if cls is FiniteUltrametricSpace:
                    assert error.witness == verdict[1]
            else:
                assert is_ultrametric_triangle(space) == verdict


def test_single_linkage_check_matches_triple_scan_on_mixed_matrices():
    rng = random.Random(3003)
    for _ in range(5000):
        _oracle_agrees(mixed_validity_matrix(rng, rng.randint(1, 14)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 9).flatmap(lambda n: st.lists(
    st.integers(1, 5), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2
).map(lambda upper: (n, upper))))
def test_single_linkage_check_matches_triple_scan_property(case):
    n, upper = case
    matrix = [[0] * n for _ in range(n)]
    cells = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = next(cells)
    _oracle_agrees(matrix)


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("shape", ["bushy", "flat", "caterpillar", "padic"])
def test_single_linkage_check_on_perturbed_shapes(shape, n):
    rng = random.Random(f"{shape}:{n}")
    matrix = {
        "bushy": lambda: random_ultrametric_matrix(rng, n),
        "flat": lambda: flat_matrix(n),
        "caterpillar": lambda: caterpillar_matrix(n),
        "padic": lambda: padic_matrix(2, n.bit_length() - 1),
    }[shape]()
    _oracle_agrees(matrix)
    for _ in range(6):
        _oracle_agrees(perturbed(rng, matrix))


def _matches_prim(matrix) -> bool:
    """`_single_linkage` against the Prim oracle; True iff the matrix is ultrametric.

    On an ultrametric the ball order itself must be Prim's and pass the
    slice check; on any other matrix it must be a permutation that fails it.
    """
    n = len(matrix)
    rank = core._RankedMatrix(range(n), matrix).rank
    expected = prim_single_linkage(rank)
    assert core._single_linkage(rank) == expected
    order, gaps = core._ball_order(rank)
    assert sorted(order) == list(range(n))
    ultrametric = expected[2] is None
    assert (core._first_break(rank, order, gaps) == 0) is ultrametric
    if ultrametric:
        assert (order, gaps) == expected[:2]
    return ultrametric


def _shape_matrix(rng, shape: str, n: int):
    if shape == "bushy":
        return random_ultrametric_matrix(rng, n)
    if shape == "flat":
        return flat_matrix(n)
    if shape == "caterpillar":
        return caterpillar_matrix(n)
    p = rng.choice((2, 3, 5, 7))
    return padic_matrix(p, rng.randint(0, {2: 6, 3: 3, 5: 2, 7: 2}[p]))


def test_ball_order_is_prims_on_permuted_ultrametrics():
    rng = random.Random(9009)
    shapes = ("bushy", "flat", "caterpillar", "padic")
    for case in range(2000):
        shape = shapes[case % 4]
        matrix = _shape_matrix(rng, shape, rng.randint(1, 64))
        if shape == "caterpillar" and case % 8 == 2:
            matrix = [row[::-1] for row in reversed(matrix)]   # far point first
        else:
            matrix = permuted(rng, matrix)
        assert _matches_prim(matrix), (case, shape)


def test_slice_check_refutes_as_prim_does_on_non_ultrametric_matrices():
    rng = random.Random(9010)
    refuted = 0
    for case in range(3200):
        n = rng.randint(2, 40)
        if case % 2:
            matrix = mixed_validity_matrix(rng, n)
        else:
            shape = ("bushy", "flat", "caterpillar", "padic")[case // 2 % 4]
            matrix = _shape_matrix(rng, shape, n)
            if len(matrix) < 2:
                continue
            matrix = perturbed(rng, permuted(rng, matrix))
        refuted += not _matches_prim(matrix)
    assert refuted >= 2000


def test_first_break_is_the_first_row_the_entry_scan_refutes():
    # on Prim's order and on the ball order of the refuted matrices above;
    # a wrong first gap breaks row 1, the a == b - 1 case
    rng = random.Random(9011)
    seen = set()
    for case in range(1200):
        n = rng.randint(2, 40)
        if case % 2:
            matrix = mixed_validity_matrix(rng, n)
        else:
            shape = ("bushy", "flat", "caterpillar", "padic")[case // 2 % 4]
            matrix = _shape_matrix(rng, shape, n)
            if len(matrix) < 2:
                continue
            matrix = perturbed(rng, permuted(rng, matrix))
        rank = core._RankedMatrix(range(len(matrix)), matrix).rank
        order, gaps, _ = prim_single_linkage(rank)
        for order, gaps in ((order, gaps), core._ball_order(rank),
                            (order, [0, gaps[1] + 1] + gaps[2:])):
            mismatch = first_mismatch(rank, order, gaps)
            assert core._first_break(rank, order, gaps) == (mismatch or (0,))[0]
            if mismatch:
                b, a = mismatch
                seen.add((b == 1, b == len(order) - 1, a == b - 1))
    assert {(True, False, True), (False, True, True), (False, True, False),
            (False, False, True), (False, False, False)} <= seen


def test_gap_rows_hold_the_single_linkage_identity():
    # rank(x_a, x_b) = max(gaps[a+1..b]) entry by entry, on one and two
    # points, ties, all-equal gaps and zero gaps; the single-linkage check
    # passes every result in index order
    rng = random.Random(9012)
    cases = [[0], [0, 3], [0, 0], [0, 2, 2, 2, 2], [0, 1, 2, 3, 4], [0, 4, 3, 2, 1]]
    cases += [[0] + [rng.randint(0, rng.choice([1, 3, 8])) for _ in range(rng.randint(0, 40))]
              for _ in range(500)]
    for gaps in cases:
        n = len(gaps)
        rows = core._gap_rows(gaps)
        assert rows == tuple(tuple(0 if a == b else max(gaps[min(a, b) + 1:max(a, b) + 1])
                                   for b in range(n)) for a in range(n))
        assert core._first_break(rows, list(range(n)), gaps) == 0


def test_gather_reads_index_lists_of_every_length():
    for idx in ([], [2], (3, 0), range(4)):
        assert core._gather(idx)("abcd") == tuple("abcd"[i] for i in idx)


def _metric_matrix(rng, n):
    # distances in [1, 2) always satisfy the triangle inequality
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            den = rng.randint(1, 7)
            matrix[i][j] = matrix[j][i] = Fraction(rng.randrange(den, 2 * den), den)
    return matrix


def test_make_space_separates_metrics_from_triangle_violations():
    rng = random.Random(46)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(3, 14)
        matrix = rng.choice((_metric_matrix, mixed_validity_matrix))(rng, n)
        ranked = core._RankedMatrix([f"p{i}" for i in range(n)], matrix)
        if core._single_linkage(ranked.rank)[2] is None:
            continue
        d = [[parse_rational(v) for v in row] for row in matrix]
        try:
            space = make_space(ranked.names, matrix)
        except SpaceValidationError as error:
            outcomes.add("not a metric")
            i, j, k = error.witness
            assert error.axiom == "triangle" and i < j and k not in (i, j)
            assert d[i][j] > d[i][k] + d[k][j]
        else:
            outcomes.add("metric, not ultrametric")
            assert type(space) is FiniteMetricSpace
            assert all(d[i][j] <= d[i][k] + d[k][j]
                       for i in range(n) for j in range(n) for k in range(n))
    assert outcomes == {"metric, not ultrametric", "not a metric"}


_BIG = "1" * 4301 + "/3"
_DIGITS = f"numerator of '{'1' * 60}' exceeds the limit (4300 digits) for integer string conversion"


# (points, matrix, exception class, axiom, witness, message), as the
# construction path raised them before entries were parsed once each
@pytest.mark.parametrize("points, matrix, error, axiom, witness, message", [
    (["a", "b"], [["0", 1.5], [1.5, "0"]], ValueError, None, None,
     "refusing inexact float 1.5; pass a string or Fraction"),
    (["a", "b"], [[0, 1], [1.0, 0]], ValueError, None, None,
     "refusing inexact float 1.0; pass a string or Fraction"),
    (["a", "b"], [["0", None], [None, "0"]], ValueError, None, None,
     "Invalid literal for Fraction: 'None'"),
    (["a", "b"], [["0", ["1"]], [["1"], "0"]], ValueError, None, None,
     "Invalid literal for Fraction: \"['1']\""),
    (["a", "b"], [["0", {"v": "1"}], [{"v": "1"}, "0"]], ValueError, None, None,
     "Invalid literal for Fraction: \"{'v': '1'}\""),
    (["a", "b"], None, TypeError, None, None, "'NoneType' object is not iterable"),
    (["a", "b"], [["0", "1"], None], TypeError, None, None,
     "'NoneType' object is not iterable"),
    (["a", "b"], [["0", "1"], ["1"]], SpaceValidationError, "square", (), "matrix must be 2x2"),
    (["a", "b"], [["0", "1", "2"], ["1", "0", "2"]], SpaceValidationError, "square", (),
     "matrix must be 2x2"),
    (["a", "b"], [["0", "1"], ["1", "1/2"]], SpaceValidationError, "diagonal", (1,),
     "d(b,b) = 1/2 != 0"),
    (["a", "b", "c"], [["0", "1", "1"], ["1", "0", "2"], ["1", "3", "0"]],
     SpaceValidationError, "symmetry", (1, 2), "asymmetric entry: d(b,c) != d(c,b)"),
    (["a", "b"], [["0", "0"], ["0", "0"]], SpaceValidationError, "positivity", (0, 1),
     "d(a,b) = 0 must be positive"),
    (["a", "b"], [["0", "-1"], ["-1", "0"]], SpaceValidationError, "positivity", (0, 1),
     "d(a,b) = -1 must be positive"),
    (["a", "b"], [["-1", "-1"], ["-1", "-1"]], SpaceValidationError, "diagonal", (0,),
     "d(a,a) = -1 != 0"),
    (["a", "b"], [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]], SpaceValidationError,
     "square", (), "matrix must be 2x2"),
    (["a", "a", "c"], [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]],
     SpaceValidationError, "names", (), "point names must be unique"),
    ([], [], SpaceValidationError, "nonempty", (), "a space needs at least one point"),
    (["a", "b"], [["0", _BIG], [_BIG, "0"]], ValueError, None, None, _DIGITS),
    (["a", "b"], [["0", "1e-30000"], ["1e-30000", "0"]], ValueError, None, None,
     "denominator of '1e-30000' exceeds the limit (4300 digits) for integer string conversion"),
    # parse errors come first, in row-major order
    (["a", "b"], [["1", "1"], ["1", "x"]], ValueError, None, None,
     "Invalid literal for Fraction: 'x'"),
    (["a", "b"], [["0", "y"], ["x", "0"]], ValueError, None, None,
     "Invalid literal for Fraction: 'y'"),
    (["a", "b"], [["0", "1/0"], ["1/0", "0"]], ValueError, None, None,
     "zero denominator in '1/0'"),
    (["a", "b", "c"], [[False, True, True], [True, False, True], [True, True, False]],
     ValueError, None, None, "refusing boolean False; pass a number or string"),
], ids=["float", "float-after-equal-int", "null", "nested-list", "object", "null-matrix",
        "null-row", "ragged", "non-square", "nonzero-diagonal", "asymmetric", "zero",
        "negative", "negative-diagonal", "short-names", "duplicate-names", "no-points",
        "over-digit-limit", "over-digit-limit-once-parsed", "parse-before-validation", "row-major", "zero-denominator",
        "boolean"])
def test_bad_input_errors_are_pinned(tmp_path, capsys, points, matrix, error, axiom,
                                     witness, message):
    with pytest.raises(Exception) as info:
        make_space(points, matrix)
    assert type(info.value) is error and str(info.value) == message
    if axiom is not None:
        assert (info.value.axiom, info.value.witness) == (axiom, witness)

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"points": points, "matrix": matrix}))
    for verb in ("check", "dset", "tree"):
        assert run([verb, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and message in err
        assert "Traceback" not in err


def test_equal_raw_values_of_other_types_are_parsed_apart():
    # "1" == 1 == Fraction(1) once parsed: a string and an int both read as
    # 1, one Fraction object keyed by identity stands for itself only, and
    # True == 1 borrows no parse from the int before it
    half = Fraction(1, 2)
    space = make_space(["a", "b", "c"], [[0, 1, "1"], [1, 0, half], ["1", Fraction(1, 2), 0]])
    assert space.matrix[0][2] == 1 and space.matrix[1][2] == half
    assert space.distance_values == (0, half, 1)
    with pytest.raises(ValueError, match="^refusing boolean True; pass a number or string$"):
        make_space(["a", "b", "c"], [[0, 1, True], [1, 0, half], [True, half, 0]])


def test_over_digit_limit_json_number_exits_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"points": ["a", "b"], "matrix": [[0, ' + "1" * 4301 + '], [1, 0]]}')
    assert run(["dset", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "4300 digits" in err


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


def test_parse_rational_refuses_what_format_rational_cannot_print(monkeypatch):
    # 10**4299 has 4,300 digits, 10**4300 one more
    monkeypatch.setattr(core, "_MAX_STR_DIGITS", lambda: 4300)
    assert parse_rational(10 ** 4300 - 1) == 10 ** 4300 - 1
    assert parse_rational("1e-4299") == Fraction(1, 10 ** 4299)
    for value, part in ((10 ** 4300, "numerator"), ("-1e4300", "numerator of '-1e4300'"),
                        ("1e-4300", "denominator of '1e-4300'")):
        with pytest.raises(ValueError, match=rf"^{part} exceeds the limit \(4300 digits\)"):
            parse_rational(value)
    tiny = Fraction(1, 10 ** 30000)
    assert parse_rational(tiny) is tiny
    monkeypatch.setattr(core, "_MAX_STR_DIGITS", lambda: 0)  # an interpreter with no limit
    assert parse_rational("1e-30000") == tiny


def test_huge_exponents_are_refused_without_forming_the_power(monkeypatch):
    monkeypatch.setattr(core, "_MAX_STR_DIGITS", lambda: 4300)
    for text, part in (("1e99999999", "numerator"), ("-1e99999999", "numerator"),
                       ("1e-99999999", "denominator"), (" 1E+9_999_999 ", "numerator")):
        with pytest.raises(ValueError, match=rf"^{part} of {re.escape(repr(text))} exceeds the limit"):
            parse_rational(text)
    assert parse_rational("0e99999999") == 0
    assert parse_rational("0.00e-99999999") == 0
    # 15 * 10**-4299 = 3 / (2 * 10**4298): a 4,299-digit denominator
    assert parse_rational("1.5e-4298") == Fraction(3, 2 * 10 ** 4298)
    with pytest.raises(ValueError, match="^Invalid literal for Fraction: 'x1e99999999'$"):
        parse_rational("x1e99999999")
    assert core._clamp_exponent("1e99999999", 0) == "1e99999999"   # no limit: as it is


def _unclamped(text: str, limit: int):
    # the parse without the exponent cut: the value, or the part refused;
    # here only a mantissa digit group can pass the limit, and it writes
    # the numerator
    try:
        q = Fraction(text)
    except ValueError:
        assert max(map(len, text.lstrip("-").partition("e")[0].split("."))) > limit, text[:80]
        return "numerator"
    for part, name in ((q.numerator, "numerator"), (q.denominator, "denominator")):
        if abs(part) >= 10 ** limit:
            return name
    return q


def test_exponent_cut_keeps_every_verdict(monkeypatch):
    monkeypatch.setattr(core, "_MAX_STR_DIGITS", lambda: 4300)
    rng = random.Random(4300)
    for case in range(600):
        digits = rng.choice((rng.randint(1, 30), rng.randint(4290, 4310)))
        mantissa = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=digits - 1))
        if case % 3:
            point = rng.randint(1, len(mantissa))
            mantissa = mantissa[:point] + "." + mantissa[point:]
        if case % 5 == 0:
            mantissa = "0" * rng.randint(1, 3) + mantissa
        e = rng.choice((rng.randint(-20000, 20000), rng.randint(-4400, -4200),
                        rng.randint(4200, 4400)))
        text = f"{rng.choice(('', '-'))}{mantissa}e{e}"
        want = _unclamped(text, 4300)
        try:
            got = parse_rational(text)
        except ValueError as exc:
            got = str(exc)
            if isinstance(want, str) and want in ("numerator", "denominator"):
                assert got.startswith(f"{want} of {text[:60]!r} exceeds"), text[:80]
                continue
        assert got == want, text[:80]


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


def test_subsets_are_distinct_point_indices():
    space = nested_four_point_space()
    for subset in ([1, 1], [1, 2, 2], (3, 0, 3)):
        with pytest.raises(ValueError, match="diameter of a subset with a repeated point"):
            diam(space, subset)
        with pytest.raises(ValueError, match="partition of a subset with a repeated point"):
            diametrical_partition(space, subset)
    for subset, bad in (([-1, 0], -1), ([7], 7), ([0, 4], 4), ([-2, 5], -2)):
        for f in (diam, diametrical_partition):
            with pytest.raises(ValueError, match=rf"point {bad} is not an index in range\(4\)"):
                f(space, subset)
    with pytest.raises(ValueError, match="^diameter of an empty subset$"):
        diam(space, [])
    with pytest.raises(ValueError, match="^diametrical partition of an empty subset$"):
        diametrical_partition(space, iter(()))


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


def test_unverified_diametrical_classes_match_the_verifying_partition():
    # an ultrametric space skips the pairwise re-check of `_partition_below`
    for space in differential_spaces(random.Random(98), 60):
        subsets = [b.points for b in ballean(space)]
        subsets.append(tuple(random.Random(len(space)).sample(range(len(space)), len(space))))
        for pts in subsets:
            parts = diametrical_partition(space, pts)
            if len(pts) == 1:
                assert parts is None
                continue
            t = core._subset_diam_rank(space, pts)
            want = sorted(sorted(c) for c in core._partition_below(space.rank, pts, t))
            assert [list(p) for p in parts.parts] == want


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
    # a metric that is not ultrametric: seen from a, {a, b, c} spans only 1
    space = make_space(["a", "b", "c"], [[0, 1, 1], [1, 0, 2], [1, 2, 0]])
    assert not isinstance(space, FiniteUltrametricSpace)
    assert diam(space, [0, 1, 2]) == 2 and diam(space, [0, 2]) == 1


def test_space_to_json_formats_as_entry_by_entry():
    spaces = differential_spaces(random.Random(97), 60)
    spaces += [f(s) for s in spaces for f in (lambda s: bound_transform(s, 3), quantize_binary)]
    for space in spaces:
        want = {"points": list(space.names),
                "matrix": [[format_rational(v) for v in row] for row in space.matrix]}
        assert json.dumps(space_to_json(space), indent=2) == json.dumps(want, indent=2)


def test_space_json_roundtrip():
    space = nested_four_point_space()
    payload = space_to_json(space)
    again = space_from_json(payload)
    assert again.names == space.names
    assert again.matrix == space.matrix
    assert isinstance(again, FiniteUltrametricSpace)
