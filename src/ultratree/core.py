"""Finite metric and ultrametric spaces over exact rational distances.

Distances enter and leave as exact `fractions.Fraction` values, never
floats.  Inside, a space is its integer *rank* matrix, indexing each
distance into `distance_values`, the sorted distinct values.  Every
decision the library makes depends only on the order of distances, so it
runs on ranks, and each distinct value is parsed once and printed once.
A space stores at most its ranks per pair: its `Fraction` matrix is built
on first read and kept, and no construction, check or decision reads it.

A space has two entry points.  `FiniteUltrametricSpace(names, matrix)`
parses each distinct raw entry of outside input once, ranks, validates on
ranks and runs one O(n^2) single-linkage pass, whose strong-triangle
verdict, point order and gap ranks every ranked matrix keeps.  The pass
reads the order off the balls by descending from point 0, checks it with
slice comparisons of the permuted rows, and runs Prim's algorithm only on
a matrix that check refutes, for the witness in the first row the check
breaks on.  Every ball is a run of the order, so `_ball_tree` reads the
balls off the gaps as runs, numbered once as the representing tree is;
`spaces_isometric` and `weakly_similar` compare integer codes of two of them.
The library's derived spaces enter through `_from_gaps` with a point
order and its gaps instead: any gaps give an ultrametric (Gower & Ross
1969), so only the names are checked; the test suite checks each caller's
order, gaps and values.  It holds O(n) until `rank` is read, which builds
the rows from the gaps (`_gap_rows`); no tree, ball or transform reads them.
Library-built trees likewise enter with their label ranks, unparsed.
The input rules each module shares live here once: `_document` (a JSON
document's keys), `_is_index`, `_array` (also of matrix rows), `_positive`
and `_require_ultrametric`.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction, _RATIONAL_FORMAT
from itertools import accumulate
from operator import eq, itemgetter, neg
from typing import Callable, Iterable, Optional, Sequence, Union

# 0 means no limit, as on interpreters older than the limit
_MAX_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)


class SpaceValidationError(ValueError):
    """A distance matrix violates one of the required axioms."""

    def __init__(self, axiom: str, witness: tuple, message: str):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class NotUltrametricError(ValueError):
    """A partition step ran into a non-ultrametric triple.

    Raised when the non-adjacency relation of a diametrical or threshold
    graph fails to be transitive; the witness is the violating triple of
    point indices.
    """

    def __init__(self, witness: tuple[int, int, int]):
        super().__init__(f"non-ultrametric witness triple {witness}")
        self.witness = witness


def parse_rational(value) -> Fraction:
    """Convert ints, Fractions, "p/q" strings or decimal strings exactly.

    Floats are rejected: binary floating point artifacts must never leak
    into the exact arithmetic.  So are bools (JSON `true` and `false`).
    Decimal strings are parsed in base 10.  An int or string whose
    numerator or denominator has more digits than the interpreter's
    int-to-str limit is refused, since `format_rational` could not print
    it, and a huge decimal exponent is cut first (`_clamp_exponent`); a
    string with a digit group over the limit is refused at once, by the
    part that group writes.  A Fraction is taken as it is.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise ValueError(f"refusing inexact float {value!r}; pass a string or Fraction")
    if isinstance(value, bool):
        raise ValueError(f"refusing boolean {value!r}; pass a number or string")
    limit = _MAX_STR_DIGITS()
    try:
        q = Fraction(value if isinstance(value, int) else _clamp_exponent(str(value), limit))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None
    except ValueError:
        m = limit and _RATIONAL_FORMAT.match(str(value))
        long = m and {g for g, d in m.groupdict("").items() if len(d.lstrip("+-").replace("_", "")) > limit}
        if not long:   # Fraction's own refusal, not a digit group past the limit
            raise
        negative = "exp" in long and m["exp"][0] == "-"
        raise _too_long("denominator" if "denom" in long or negative else "numerator", value, limit) from None
    # 10**limit > 2**(3*limit): only a part longer than 3*limit bits can be too long
    if limit and (abs(q.numerator) | q.denominator).bit_length() > 3 * limit:
        for part, name in ((q.numerator, "numerator"), (q.denominator, "denominator")):
            if abs(part) >= 10 ** limit:
                raise _too_long(name, value, limit)
    return q


def _too_long(name: str, value, limit: int) -> ValueError:
    what = name if isinstance(value, int) else f"{name} of {str(value)[:60]!r}"
    return ValueError(f"{what} exceeds the limit ({limit} digits) for integer string conversion")


def _clamp_exponent(text: str, limit: int) -> str:
    """`text` with a decimal exponent cut to 4 * len(text.strip()) + `limit` in size.

    Fraction forms 10**exponent before any digit limit applies.  Past the
    bound the same part of the value is too long, since a negative exponent
    has cancelled every factor 2 and 5 of the mantissa.  Only text that
    Fraction's own pattern accepts is rewritten, and only under a limit.
    """
    m = limit and _RATIONAL_FORMAT.match(text)
    if m and m.group("exp"):
        try:
            e = int(m.group("exp"))
        except ValueError:   # over the digit limit: Fraction refuses it as well
            return text
        bound = 4 * len(text.strip()) + limit
        if abs(e) > bound:
            return text[:m.start("exp")] + str(bound if e > 0 else -bound) + text[m.end("exp"):]
    return text


def format_rational(value: Fraction) -> str:
    return str(value)


def _parse_entries(matrix) -> tuple[list[Fraction], list[list[int]]]:
    """Parse each distinct raw entry once, in row-major order of first use.

    Returns the parsed value of every distinct entry and the matrix as rows
    of indices into that list.  Strings are keyed by themselves, `Fraction`
    objects by identity and anything else by (type, value), so a float
    `1.0` never borrows the parse of an int `1`.  The list keeps every
    identity-keyed object alive, so no id is reused while the table lives.
    Unhashable entries are parsed on every use.
    """
    index: dict = {}
    parsed: list[Fraction] = []
    rows = []
    for row in matrix:
        out = []
        for v in row:
            cls = type(v)
            key = v if cls is str else id(v) if cls is Fraction else (cls, v)
            try:
                t = index.get(key)
            except TypeError:
                key = t = None
            if t is None:
                t = len(parsed)
                parsed.append(parse_rational(v))
                if key is not None:
                    index[key] = t
            out.append(t)
        rows.append(out)
    return parsed, rows


def _rank_of(parsed: list[Fraction], rows) -> tuple[tuple[Fraction, ...], tuple[tuple[int, ...], ...]]:
    """Sorted distinct values, and each entry's index into them."""
    values = tuple(sorted(set(parsed)))
    index = {v: i for i, v in enumerate(values)}
    to_rank = [index[v] for v in parsed]
    return values, tuple(_gather(row)(to_rank) for row in rows)


def _gather(idx: Sequence[int]) -> Callable[[Sequence], tuple]:
    # table -> tuple(table[i] for i in idx), in C where `itemgetter` can:
    # it returns a bare item for one index, and takes no empty list
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda table: tuple(table[i] for i in idx)


def _check_names(names: tuple[str, ...]) -> None:
    if not names:
        raise SpaceValidationError("nonempty", (), "a space needs at least one point")
    if len(set(names)) != len(names):
        raise SpaceValidationError("names", (), "point names must be unique")


def _basic_validate(names: tuple[str, ...], rank, values) -> None:
    n = len(names)
    _check_names(names)
    if len(rank) != n or any(len(row) != n for row in rank):
        raise SpaceValidationError("square", (), f"matrix must be {n}x{n}")
    # Rank 0 is the value 0 exactly when no entry is negative; then a valid
    # matrix has rank 0 on the diagonal only and equals its transpose.
    if (values[0] == 0 and all(rank[i][i] == 0 for i in range(n))
            and sum(row.count(0) for row in rank) == n and all(map(eq, rank, zip(*rank)))):
        return
    # Some check fails: find the first failure in the documented order.
    positive = bisect_right(values, 0)  # ranks from here on hold positive values
    for i in range(n):
        ri = rank[i]
        if values[ri[i]] != 0:
            raise SpaceValidationError(
                "diagonal", (i,), f"d({names[i]},{names[i]}) = {values[ri[i]]} != 0"
            )
        for j in range(i + 1, n):
            if ri[j] != rank[j][i]:
                raise SpaceValidationError(
                    "symmetry", (i, j),
                    f"asymmetric entry: d({names[i]},{names[j]}) != "
                    f"d({names[j]},{names[i]})",
                )
            if ri[j] < positive:
                raise SpaceValidationError(
                    "positivity", (i, j),
                    f"d({names[i]},{names[j]}) = {values[ri[j]]} must be positive",
                )


def _ball_order(rank) -> tuple[list[int], list[int]]:
    """A point order in which every ball is a run, read off the balls.

    Each step takes points sorted by rank from the first, e, and puts e
    next with the step's gap.  The rest fall into groups of equal rank r
    from e, and each group, sorted by rank from its first point, is a
    later step with gap r, in rising r.  On an ultrametric a group is
    balls at distance r from e: its first step puts its first point's
    ball (the points below r) before the rest, so every ball is finished
    before the descent leaves it, as in Prim's algorithm, and the order
    and gap ranks are Prim's from point 0, ties to the smaller index.  The
    sorts are stable, so each step starts at its group's smallest point and
    sibling balls come in order of their smallest points: every ball is a
    run led by its smallest point, and the order is the representing tree's
    leaves in preorder.  On any validated matrix the order is a permutation.
    One sort per point, of the group it enters; a stack replaces recursion.
    """
    order: list[int] = []
    gaps: list[int] = []
    stack = [(sorted(range(len(rank)), key=rank[0].__getitem__), 0)]
    while stack:
        pts, g = stack.pop()
        order.append(pts[0])
        gaps.append(g)
        get = rank[pts[0]].__getitem__
        groups = []
        i, end = 1, len(pts)
        while i < end:
            r = get(pts[i])
            j = bisect_right(pts, r, i, end, key=get)
            group = pts[i:j]
            group.sort(key=rank[group[0]].__getitem__)   # only its first has rank 0
            groups.append((group, r))
            i = j
        stack.extend(reversed(groups))
    return order, gaps


def _first_break(rank, order: list[int], gaps: list[int]) -> int:
    """The first b with rank(x_a, x_b) != max(gaps[a+1..b]) for some a < b, or 0.

    Row b of the matrix in `order` must be row b-1's expected prefix with
    every entry below gaps[b] raised to it.  That prefix falls as a rises,
    so one bisection finds where it meets gaps[b], and the row is checked
    by one slice comparison and one count.  O(n^2), in C.
    """
    permute = _gather(order)
    prev: tuple = ()
    for b in range(1, len(order)):
        row = permute(rank[order[b]])
        g = gaps[b]
        t = bisect_left(prev, -g, 0, b - 1, key=neg)
        if row[:t] != prev[:t] or row[t:b].count(g) != b - t:
            return b
        prev = row
    return 0


def _gap_rows(gaps: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The rank matrix of points 0..n-1 in single-linkage order with these gaps.

    The inverse of the single-linkage pass: rank(x_a, x_b) = max(gaps[a+1..b]).
    Row b is row b-1 left of the diagonal and row b+1 right of it, with the
    entries below gaps[b] or gaps[b+1] raised: one bisection and one slice
    for each half.  O(n^2), in C; each right half is let go once used.
    """
    right = [()]
    for g in reversed(gaps[1:]):
        t = bisect_left(right[-1], g)
        right.append((g,) * (t + 1) + right[-1][t:])
    rows, left = [], (0,)   # row b's left half and diagonal
    for b, g in enumerate(gaps):
        if b:
            t = bisect_left(left, -g, key=neg)
            left = left[:t] + (g,) * (b - t) + (0,)
        rows.append(left + right.pop())
    return tuple(rows)


def _single_linkage(rank) -> tuple[list[int], list[int], Optional[tuple[int, int, int]]]:
    """Prim order, gap ranks and ultrametricity of a validated rank matrix.

    Prim's algorithm from point 0, ties to the smaller index, adds the
    points in the order x_0..x_{n-1}; `gaps[b]` is the rank of the edge
    that added x_b (`gaps[0]` is 0).  A matrix is ultrametric iff it equals
    its single-linkage ultrametric (Gower & Ross 1969), i.e. iff
    rank(x_a, x_b) = max(gaps[a+1..b]) for all a < b; any order that
    passes this check proves it.  So `_ball_order`, which is Prim's on an
    ultrametric, is checked, and Prim's loop runs only when the check
    fails, for its witness.  O(n^2).  The third item is None, or a sorted
    triple violating the strong triangle inequality.
    """
    order, gaps = _ball_order(rank)
    if not _first_break(rank, order, gaps):
        return order, gaps, None
    return _prim_single_linkage(rank)


def _prim_single_linkage(rank) -> tuple[list[int], list[int], Optional[tuple[int, int, int]]]:
    # Prim's loop and the first mismatch of its order, for `_single_linkage`
    # on a matrix that is not ultrametric, so some row breaks.
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
    # In the first row that breaks, check x_b against x_{b-1}, ..., x_0.  A
    # pair's rank is never below its single-linkage rank, so the first
    # mismatch is a rank above it, while every pair checked before is
    # right.  If that pair is (x_{b-1}, x_b), x_b's Prim edge from an
    # earlier p is shorter, and rank(p, x_{b-1}) is at most gaps[b];
    # otherwise it is (x_a, x_b) with (x_a, x_{a+1}) and (x_{a+1}, x_b)
    # both at their single-linkage ranks.  Either way the triple's largest
    # distance is attained once.
    b = _first_break(rank, order, gaps)
    row = rank[order[b]]
    expected = accumulate(gaps[b:0:-1], max)   # for a = b - 1, ..., 0
    a = next(a for a, r in zip(range(b - 1, -1, -1), expected) if row[order[a]] != r)
    third = next(p for p in order if row[p] == gaps[b]) if a == b - 1 else order[a + 1]
    return order, gaps, tuple(sorted((order[a], third, order[b])))


def _ball_tree(gaps: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    """The balls of an ultrametric: the Cartesian tree of its single-linkage gaps.

    The gaps are those of a point order in which every ball is a run
    `order[start:end]`, and the ball of diameter r around a run splits
    exactly at the gaps equal to r, so the balls are the Cartesian tree of
    the gaps (Vuillemin 1980), built with a stack, one vertex per run of
    equal gaps.  Returns each vertex as [diameter rank, start, end] and its
    parent, -1 at the root, numbered in preorder, which is sorted by (start,
    -rank), so every parent comes before its children.  On a space's `_gaps`
    that is the representing tree's numbering.  O(n log n).
    """
    n, high = len(gaps), max(gaps) + 1   # a rank above every gap
    runs, parent = [[0, b, b + 1] for b in range(n)], [-1] * n
    open_nodes: list[int] = []   # gap ranks strictly decrease toward the top
    cur = 0                      # finished subtree ending at the last point
    # a gap above every rank after the last point closes every open vertex
    for b, g in enumerate([*gaps[1:], high], 1):
        while open_nodes and runs[open_nodes[-1]][0] < g:
            top = open_nodes.pop()   # cur is its last child
            parent[cur] = top
            runs[top][2] = b
            cur = top
        if b == n:
            break
        if open_nodes and runs[open_nodes[-1]][0] == g:
            parent[cur] = open_nodes[-1]
        else:
            parent[cur] = len(runs)
            open_nodes.append(len(runs))
            runs.append([g, runs[cur][1], b])
            parent.append(-1)
        cur = b
    num = sorted(range(len(runs)), key=[s * high - r for r, s, _ in runs].__getitem__)
    at = sorted(range(len(runs)), key=num.__getitem__)   # the inverse permutation
    return [runs[v] for v in num], [-1] + [at[parent[v]] for v in num[1:]]


def _same_ranked_tree(x: FiniteUltrametricSpace, y: FiniteUltrametricSpace) -> bool:
    """Are the ball trees, labeled by diameter rank, isomorphic?  O(n log n), no recursion:
    reverse numbering puts children first, and one table shared by both trees numbers
    each (rank, sorted child codes) (Aho, Hopcroft & Ullman 1974, §3.2)."""
    table: dict = {}
    roots = []
    for space in (x, y):
        runs, parent = _ball_tree(_require_ultrametric(space, "representing trees")._gaps)
        codes = [[] for _ in range(len(runs) + 1)]   # the last list takes the root's code
        for v in range(len(runs) - 1, -1, -1):
            codes[v].sort()
            codes[parent[v]].append(table.setdefault((runs[v][0], *codes[v]), len(table)))
        roots.append(codes[-1])
    return roots[0] == roots[1]


def spaces_isometric(x: FiniteUltrametricSpace, y: FiniteUltrametricSpace) -> bool:
    """Isometry decision: isomorphic ball trees over the same distance set."""
    return _same_ranked_tree(x, y) and x.distance_values == y.distance_values


def weakly_similar(x: FiniteUltrametricSpace, y: FiniteUltrametricSpace) -> bool:
    """Weak-similarity decision via rank reduction.

    A weak similarity is an order isomorphism of distance sets composed
    with an isometry, so the spaces are weakly similar iff their
    rank-transformed copies are isometric.
    """
    return _same_ranked_tree(x, y)


def _weak_triangle_witness(rank, values) -> Optional[tuple[int, int, int]]:
    matrix = tuple(_gather(row)(values) for row in rank)   # let go after the scan
    n = len(matrix)
    for i in range(n):
        for j in range(i + 1, n):
            dij = matrix[i][j]
            for k in range(n):
                if k == i or k == j:
                    continue
                if dij > matrix[i][k] + matrix[k][j]:
                    return (i, j, k)
    return None


class _RankedMatrix:
    """Named points, a validated rank matrix and its single-linkage verdict.

    The one path from raw input to a rank matrix: every space built from
    outside input goes through it, and `check` decides a matrix with it.
    `_order` and `_gaps` are the Prim order and gap ranks;
    `_strong_witness` is a sorted strong-triangle violation or None.
    """

    __slots__ = ("names", "distance_values", "_rank", "_order", "_gaps", "_strong_witness")

    def __init__(self, names: Iterable[str], matrix):
        rows = [_array(row, f"matrix row {i}") for i, row in enumerate(matrix)]
        self._assign(names, *_rank_of(*_parse_entries(rows)))

    def _assign(self, names: Iterable[str], values, rank) -> None:
        names = tuple(str(x) for x in names)
        _basic_validate(names, rank, values)
        self.names = names
        self.distance_values = values
        self._rank = rank
        self._order, self._gaps, self._strong_witness = _single_linkage(rank)

    @property
    def rank(self) -> tuple[tuple[int, ...], ...]:
        """`rank[i][j]` indexes d(i, j); `_from_gaps` leaves it to the first read."""
        if self._rank is None:
            rank, order, ids = _gap_rows(self._gaps), self._order, list(range(len(self._gaps)))
            if order != ids:
                get = _gather(sorted(ids, key=order.__getitem__))   # each point's place
                rank = tuple(map(get, get(rank)))
            self._rank = rank
        return self._rank


class FiniteMetricSpace(_RankedMatrix):
    """A finite metric space with named points and exact rational distances.

    Immutable after construction.  `distance_values` is the sorted distance
    set (zero included) and `rank[i][j]` is the index of d(i, j) in it, at
    most all a space stores per pair.  `matrix[i][j]` is d(i, j) itself,
    built from the ranks on first read and kept for later reads.
    """

    __slots__ = ("_matrix",)

    def _assign(self, names: Iterable[str], values, rank) -> None:
        super()._assign(names, values, rank)
        self._check_triangle()

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        if not hasattr(self, "_matrix"):
            self._matrix = tuple(_gather(row)(self.distance_values) for row in self.rank)
        return self._matrix

    def _check_triangle(self) -> None:
        # Strong triangle implies the weak one, so only a failed strong test
        # leaves the weak one to check.
        if self._strong_witness is None:
            return
        w = _weak_triangle_witness(self.rank, self.distance_values)
        if w is not None:
            i, j, k = w
            names = self.names
            raise SpaceValidationError(
                "triangle", w,
                f"triangle inequality fails: d({names[i]},{names[j]}) > "
                f"d({names[i]},{names[k]}) + d({names[k]},{names[j]})",
            )

    def __len__(self) -> int:
        return len(self.names)

    def distance(self, i: int, j: int) -> Fraction:
        return self.distance_values[self.rank[i][j]]

    def points(self) -> range:
        return range(len(self.names))

    def __repr__(self) -> str:
        kind = type(self).__name__
        return f"<{kind} n={len(self)} diam={self.distance_values[-1]}>"


class FiniteUltrametricSpace(FiniteMetricSpace):
    """A finite metric space satisfying the strong triangle inequality."""

    __slots__ = ()

    @classmethod
    def _from_gaps(cls, names: Iterable[str], values: Sequence[Fraction],
                   order: Sequence[int], gaps: Sequence[int]):
        """The space in which `order[b]` joins the points before it at rank `gaps[b]`.

        Any gaps give an ultrametric, rank(x_a, x_b) = max(gaps[a+1..b]).  Each
        caller hands over a permutation, positive gaps and realized values, and
        the test suite checks them, so only the names are checked here.  The
        order is made `_ball_order`'s, in O(n log n): the leaves of the
        Cartesian tree of the gaps in preorder, children by smallest point.
        """
        names, values = tuple(map(str, names)), tuple(values)
        _check_names(names)
        ids = list(range(len(order)))
        if list(order) == ids:   # already so: each run is led by its smallest point
            order, gaps = ids, [0, *gaps[1:]]
        else:
            runs, parent = _ball_tree(gaps)
            low = [order[s] for _, s, _ in runs]   # each ball's smallest point
            for v in range(len(runs) - 1, 0, -1):   # children come after their parent
                if low[v] < low[parent[v]]:
                    low[parent[v]] = low[v]
            first, after = [-1] * len(runs), [-1] * len(runs)   # children by smallest point
            for v in sorted(range(1, len(runs)), key=low.__getitem__, reverse=True):
                after[v], first[parent[v]] = first[parent[v]], v
            order, gaps, v, g = [], [], 0, 0   # the leaves in that preorder, and their gaps
            while v >= 0:
                while first[v] >= 0:
                    v = first[v]
                order.append(low[v])
                gaps.append(g)
                while v >= 0 and after[v] < 0:
                    v = parent[v]
                if v >= 0:   # the next point leads v's next sibling
                    g, v = runs[parent[v]][0], after[v]
        space = cls.__new__(cls)
        space.names, space.distance_values, space._rank = names, values, None
        space._order, space._gaps, space._strong_witness = order, gaps, None
        return space

    def _check_triangle(self) -> None:
        w = self._strong_witness
        if w is not None:
            i, j, k = w
            names, d = self.names, self.distance
            raise SpaceValidationError(
                "strong-triangle", w,
                f"strong triangle fails on ({names[i]},{names[j]},{names[k]}): "
                f"{d(i, j)}, {d(i, k)}, {d(j, k)}",
            )


Space = Union[FiniteMetricSpace, FiniteUltrametricSpace]


def make_space(names: Iterable[str], matrix) -> Space:
    """Validate a matrix and build the strongest space type it supports.

    Returns a `FiniteUltrametricSpace` when the strong triangle inequality
    holds, a `FiniteMetricSpace` when only the ordinary one does, and
    raises `SpaceValidationError` (with the violated axiom and a witness)
    otherwise.
    """
    space = FiniteMetricSpace(names, matrix)
    if space._strong_witness is None:
        # already checked by the single-linkage pass: retype, do not rebuild
        space.__class__ = FiniteUltrametricSpace
    return space


def _ranked(space_or_matrix) -> _RankedMatrix:
    """A space or ranked matrix as it is; a raw symmetric matrix, ranked.

    The ultrametricity tests are order-theoretic: they need no ordinary
    triangle inequality.
    """
    if isinstance(space_or_matrix, _RankedMatrix):
        return space_or_matrix
    rows = tuple(space_or_matrix)
    return _RankedMatrix([f"p{i}" for i in range(len(rows))], rows)


def is_ultrametric_triangle(space_or_matrix) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Strong triangle test, decided by one O(n^2) single-linkage pass.

    Returns `(True, None)` or `(False, (i, j, k))` with i < j < k, a
    triple on which the strong triangle inequality fails, read off the
    pass that built the ranked matrix.
    """
    w = _ranked(space_or_matrix)._strong_witness
    return w is None, w


def is_ultrametric_multipartite(space_or_matrix) -> bool:
    """Threshold-graph ultrametricity test.

    For every positive distance value r, the graph joining pairs at
    distance >= r must be empty or complete multipartite, i.e.
    non-adjacency (distance < r) must be transitive: `_partition_below`
    finds its classes or a witness.  Agrees with `is_ultrametric_triangle`
    on every input.
    """
    ranked = _ranked(space_or_matrix)
    pts = range(len(ranked.rank))
    try:
        for t in range(len(ranked.distance_values) - 1, 0, -1):
            _partition_below(ranked.rank, pts, t)
    except NotUltrametricError:
        return False
    return True


def distance_set(space: FiniteMetricSpace) -> tuple[Fraction, ...]:
    """Sorted tuple of realized distances, zero first."""
    return space.distance_values


def _is_index(value, n: int) -> bool:
    """True for an int in range(n): bools, floats and strings are not ids."""
    return type(value) is int and 0 <= value < n


def _subset_points(space: FiniteMetricSpace, subset: Optional[Iterable[int]],
                   what: str) -> tuple[int, ...]:
    """`subset` as distinct point indices in range(n), the whole space when None."""
    if subset is None:
        return tuple(space.points())
    pts = tuple(subset)
    if not pts:
        raise ValueError(f"{what} of an empty subset")
    n = len(space)
    for x in pts:
        if not _is_index(x, n):
            raise ValueError(f"point {x!r} is not an index in range({n})")
    if len(set(pts)) < len(pts):
        raise ValueError(f"{what} of a subset with a repeated point")
    return pts


def diam(space: FiniteMetricSpace, subset: Optional[Iterable[int]] = None) -> Fraction:
    """Largest pairwise distance within `subset` (whole space by default)."""
    pts = _subset_points(space, subset, "diameter")
    return space.distance_values[_subset_diam_rank(space, pts)]


def _subset_diam_rank(space: FiniteMetricSpace, pts: Sequence[int]) -> int:
    # every member sees the rest of an ultrametric subset within its diameter
    seen_from = pts[:1] if isinstance(space, FiniteUltrametricSpace) else pts
    rank = space.rank
    return max(max(map(rank[a].__getitem__, pts)) for a in seen_from)


class MultipartitePartition:
    """Parts of a complete multipartite distance graph.

    `parts` partition the examined point set; every pair inside a part is
    a non-edge and every cross-part pair is an edge of the graph at the
    stored threshold.  Each part is sorted, and the parts are sorted by
    their smallest point index.
    """

    __slots__ = ("parts", "threshold")

    def __init__(self, parts: Sequence[Sequence[int]], threshold: Fraction):
        self.parts = tuple(sorted(tuple(sorted(p)) for p in parts))
        self.threshold = threshold

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return (
            isinstance(other, MultipartitePartition)
            and self.parts == other.parts
            and self.threshold == other.threshold
        )

    def __repr__(self) -> str:
        body = " | ".join("{" + ",".join(map(str, p)) + "}" for p in self.parts)
        return f"<partition at {self.threshold}: {body}>"


def _classes_below(rank, pts: Sequence[int], t: int) -> list[list[int]]:
    """Each point joins the first class whose representative is at rank < t.

    O(|pts| * classes).  The classes of rank < t when that relation is an
    equivalence, as it is on an ultrametric.
    """
    classes: list[list[int]] = []
    for x in pts:
        row = rank[x]
        for cls in classes:
            if row[cls[0]] < t:
                cls.append(x)
                break
        else:
            classes.append([x])
    return classes


def _partition_below(rank, pts: Sequence[int], t: int) -> list[list[int]]:
    """Classes of the relation rank < t on `pts`, verified to be an equivalence.

    Transitivity failure raises `NotUltrametricError` with a witness triple
    instead of returning garbage classes.
    """
    classes = _classes_below(rank, pts, t)
    for cls in classes:
        rep = cls[0]
        for y in cls[1:]:
            for z in cls[1:]:
                if y < z and rank[y][z] >= t:
                    raise NotUltrametricError((rep, y, z))
    # cross-class pairs: x joined the first class whose representative is
    # near, so a near pair in two different classes is also a violation
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            for y in classes[a]:
                for z in classes[b]:
                    if rank[y][z] < t:
                        raise NotUltrametricError((classes[a][0], y, z))
    return classes


def diametrical_partition(
    space: FiniteMetricSpace, subset: Optional[Iterable[int]] = None
) -> Optional[MultipartitePartition]:
    """Parts of the diametrical graph of `subset` (pairs at exactly its diameter).

    Returns None for singletons, whose diametrical graph is empty.  For an
    ultrametric space the result always has at least two parts and each
    part is a ball.
    """
    pts = _subset_points(space, subset, "diametrical partition")
    if len(pts) == 1:
        return None
    t = _subset_diam_rank(space, pts)
    # single linkage has already proved an ultrametric space's relation an
    # equivalence; any other space is verified pair by pair
    split = _classes_below if isinstance(space, FiniteUltrametricSpace) else _partition_below
    return MultipartitePartition(split(space.rank, pts, t), space.distance_values[t])


def threshold_partition(space: FiniteMetricSpace, r) -> Optional[MultipartitePartition]:
    """Parts of the graph joining pairs at distance >= r, or None when empty.

    The graph is empty exactly when r exceeds the diameter.  Failure to
    split into parts signals non-ultrametric input.
    """
    r = _positive(r, "threshold")
    values = space.distance_values
    if r > values[-1]:
        return None
    # the graph only changes at distance values: adjacency is rank >= t
    t = bisect_left(values, r)
    return MultipartitePartition(_partition_below(space.rank, space.points(), t), r)


def space_from_sequence(sequence: Iterable) -> FiniteUltrametricSpace:
    """Ultrametric space on {0} and a strictly decreasing positive sequence.

    Points are the values themselves; d(x, y) = max(x, y) for x != y.  The
    distance set is exactly the input values plus zero, so these spaces
    meet the |D(X)| <= |X| bound with equality.
    """
    seq = [parse_rational(v) for v in sequence]
    for a, b in zip(seq, seq[1:]):
        if not a > b:
            raise ValueError(f"sequence must be strictly decreasing, got {a} then {b}")
    if seq and seq[-1] <= 0:
        raise ValueError("sequence values must be positive")
    pts = [Fraction(0)] + list(reversed(seq))
    names = [format_rational(v) for v in pts]
    # points ascend, so d(x_i, x_j) = pts[max(i, j)]: x_i joins at rank i
    ids = list(range(len(pts)))
    return FiniteUltrametricSpace._from_gaps(names, pts, ids, ids)


def space_to_json(space: FiniteMetricSpace) -> dict:
    text = [format_rational(v) for v in space.distance_values]
    return {"points": list(space.names), "matrix": [list(_gather(row)(text)) for row in space.rank]}


def space_from_json(obj: dict) -> Space:
    return make_space(*_document(obj, "space", "points", "matrix"))


def _document(obj, kind: str, *keys: str) -> tuple:
    # the arrays at `keys` of a JSON object
    if not isinstance(obj, dict) or any(k not in obj for k in keys):
        raise ValueError(f"{kind} JSON needs " + " and ".join(f'"{k}"' for k in keys))
    return tuple(_array(obj[k], f'{kind} JSON "{k}"') for k in keys)


def _array(value, what: str):
    # a string or object would be read element by element, while null and
    # numbers are left to the reader to refuse
    if isinstance(value, (str, dict)):
        raise ValueError(f"{what} must be an array")
    return value


def _positive(value, what: str) -> Fraction:
    """`value` parsed exactly; refused unless positive."""
    value = parse_rational(value)
    if value <= 0:
        raise ValueError(f"{what} must be positive")
    return value


def _require_ultrametric(space, what: str) -> FiniteUltrametricSpace:
    if not isinstance(space, FiniteUltrametricSpace):
        raise TypeError(f"{what} need a FiniteUltrametricSpace")
    return space
