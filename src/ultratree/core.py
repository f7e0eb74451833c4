"""Finite metric and ultrametric spaces over exact rational distances.

Distances are `fractions.Fraction` values throughout.  Exactness matters:
all the partitioning machinery downstream branches on exact equality with
a subset's diameter, so floating point is never used.

Beside the raw matrix, every space carries an integer *rank* matrix that
indexes each distance into the sorted tuple of distinct values.  The
combinatorial algorithms (partitions, balls, trees) run on these machine
integers and translate back to rationals only at the edges.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union


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
    into the exact arithmetic.  Decimal strings are parsed in base 10.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(f"refusing inexact float {value!r}; pass a string or Fraction")
    return Fraction(str(value))


def format_rational(value: Fraction) -> str:
    return str(value)


def _basic_validate(names: tuple[str, ...], matrix) -> None:
    n = len(names)
    if n == 0:
        raise SpaceValidationError("nonempty", (), "a space needs at least one point")
    if len(set(names)) != n:
        raise SpaceValidationError("names", (), "point names must be unique")
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise SpaceValidationError("square", (), f"matrix must be {n}x{n}")
    for i in range(n):
        if matrix[i][i] != 0:
            raise SpaceValidationError(
                "diagonal", (i,), f"d({names[i]},{names[i]}) = {matrix[i][i]} != 0"
            )
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                raise SpaceValidationError(
                    "symmetry", (i, j),
                    f"asymmetric entry: d({names[i]},{names[j]}) != "
                    f"d({names[j]},{names[i]})",
                )
            if matrix[i][j] <= 0:
                raise SpaceValidationError(
                    "positivity", (i, j),
                    f"d({names[i]},{names[j]}) = {matrix[i][j]} must be positive",
                )


def _rank_of(matrix) -> tuple[tuple[Fraction, ...], tuple[tuple[int, ...], ...]]:
    values = tuple(sorted({v for row in matrix for v in row}))
    index = {v: i for i, v in enumerate(values)}
    rank = tuple(tuple(index[v] for v in row) for row in matrix)
    return values, rank


def _strong_triangle_witness(rank) -> Optional[tuple[int, int, int]]:
    # Strong triangle holds on a triple iff its largest distance is attained
    # at least twice (isosceles with legs at least the base).
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


def _weak_triangle_witness(matrix) -> Optional[tuple[int, int, int]]:
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
    """Named points and a parsed, validated and ranked distance matrix.

    The one path from raw input to a rank matrix: every space is built
    through it, and the ultrametricity tests accept it as it is, since
    they need no triangle inequality.
    """

    __slots__ = ("names", "matrix", "distance_values", "rank")

    def __init__(self, names: Iterable[str], matrix):
        names = tuple(str(x) for x in names)
        mat = tuple(tuple(parse_rational(v) for v in row) for row in matrix)
        _basic_validate(names, mat)
        self.names = names
        self.matrix = mat
        self.distance_values, self.rank = _rank_of(mat)


class FiniteMetricSpace(_RankedMatrix):
    """A finite metric space with named points and exact rational distances.

    Immutable after construction.  `distance_values` is the sorted distance
    set (zero included) and `rank[i][j]` is the index of `matrix[i][j]` in
    it.
    """

    __slots__ = ("_strong_witness",)  # first strong-triangle violation, or None

    def __init__(self, names: Iterable[str], matrix):
        super().__init__(names, matrix)
        self._strong_witness = _strong_triangle_witness(self.rank)
        self._check_triangle()

    def _check_triangle(self) -> None:
        # Strong triangle implies the weak one, so only a failed strong scan
        # leaves the weak one to check.
        if self._strong_witness is None:
            return
        w = _weak_triangle_witness(self.matrix)
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
        return self.matrix[i][j]

    def points(self) -> range:
        return range(len(self.names))

    def __repr__(self) -> str:
        kind = type(self).__name__
        return f"<{kind} n={len(self)} diam={self.distance_values[-1]}>"


class FiniteUltrametricSpace(FiniteMetricSpace):
    """A finite metric space satisfying the strong triangle inequality."""

    __slots__ = ()

    def _check_triangle(self) -> None:
        w = self._strong_witness
        if w is not None:
            i, j, k = w
            names, mat = self.names, self.matrix
            raise SpaceValidationError(
                "strong-triangle", w,
                f"strong triangle fails on ({names[i]},{names[j]},{names[k]}): "
                f"{mat[i][j]}, {mat[i][k]}, {mat[j][k]}",
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
        # already validated with the strong scan: retype, do not rebuild
        space.__class__ = FiniteUltrametricSpace
    return space


def _as_rank_matrix(space_or_matrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Rank view of a space, a ranked matrix or a raw symmetric matrix.

    The ultrametricity tests are order-theoretic, so they are meaningful on
    any symmetric, zero-diagonal, positive-off-diagonal matrix even when
    the ordinary triangle inequality fails.
    """
    ranked = space_or_matrix
    if not isinstance(ranked, _RankedMatrix):
        rows = tuple(ranked)
        ranked = _RankedMatrix([f"p{i}" for i in range(len(rows))], rows)
    return ranked.rank, len(ranked.distance_values)


def is_ultrametric_triangle(space_or_matrix) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Triple-wise strong triangle test.

    Returns `(True, None)` or `(False, (i, j, k))` where the triple
    violates the inequality.
    """
    rank, _ = _as_rank_matrix(space_or_matrix)
    w = _strong_triangle_witness(rank)
    return (w is None), w


def is_ultrametric_multipartite(space_or_matrix) -> bool:
    """Threshold-graph ultrametricity test.

    For every positive distance value r, the graph joining pairs at
    distance >= r must be empty or complete multipartite, i.e.
    non-adjacency (distance < r) must be transitive.  Agrees with
    `is_ultrametric_triangle` on every input.
    """
    rank, nvals = _as_rank_matrix(space_or_matrix)
    n = len(rank)
    if n < 2:
        return True
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t in range(nvals - 1, 0, -1):
        for i in range(n):
            parent[i] = i
        for i in range(n):
            ri = rank[i]
            for j in range(i + 1, n):
                if ri[j] < t:
                    a, b = find(i), find(j)
                    if a != b:
                        parent[a] = b
        # each non-adjacency class must be a clique under "distance < r"
        for i in range(n):
            ri = rank[i]
            for j in range(i + 1, n):
                if ri[j] >= t and find(i) == find(j):
                    return False
    return True


def distance_set(space: FiniteMetricSpace) -> tuple[Fraction, ...]:
    """Sorted tuple of realized distances, zero first."""
    values = space.distance_values
    if isinstance(space, FiniteUltrametricSpace) and len(values) > len(space):
        raise RuntimeError("distance set larger than point count on an ultrametric space")
    return values


def diam(space: FiniteMetricSpace, subset: Optional[Iterable[int]] = None) -> Fraction:
    """Largest pairwise distance within `subset` (whole space by default)."""
    pts = tuple(space.points()) if subset is None else tuple(subset)
    if not pts:
        raise ValueError("diameter of an empty subset")
    return space.distance_values[_subset_diam_rank(space, pts)]


def _subset_diam_rank(space: FiniteMetricSpace, pts: Sequence[int]) -> int:
    rank = space.rank
    best = 0
    for a in range(len(pts)):
        ra = rank[pts[a]]
        for b in range(a + 1, len(pts)):
            r = ra[pts[b]]
            if r > best:
                best = r
    return best


class MultipartitePartition:
    """Parts of a complete multipartite distance graph.

    `parts` partition the examined point set; every pair inside a part is
    a non-edge and every cross-part pair is an edge of the graph at the
    stored threshold.  Parts are sorted by their smallest point index.
    """

    __slots__ = ("parts", "threshold")

    def __init__(self, parts: Sequence[Sequence[int]], threshold: Fraction):
        self.parts = tuple(tuple(p) for p in parts)
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


def _partition_below(space: FiniteMetricSpace, pts: Sequence[int], t: int) -> list[list[int]]:
    """Classes of the relation rank < t on `pts`, verified to be an equivalence.

    Transitivity failure raises `NotUltrametricError` with a witness triple
    instead of returning garbage classes.
    """
    rank = space.rank
    classes: list[list[int]] = []
    for x in pts:
        placed = False
        for cls in classes:
            if rank[x][cls[0]] < t:
                cls.append(x)
                placed = True
                break
        if not placed:
            classes.append([x])
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
    pts = tuple(space.points()) if subset is None else tuple(subset)
    if not pts:
        raise ValueError("diametrical partition of an empty subset")
    if len(pts) == 1:
        return None
    t = _subset_diam_rank(space, pts)
    classes = _partition_below(space, pts, t)
    classes.sort(key=lambda c: min(c))
    return MultipartitePartition(
        [sorted(c) for c in classes], space.distance_values[t]
    )


def threshold_partition(space: FiniteMetricSpace, r) -> Optional[MultipartitePartition]:
    """Parts of the graph joining pairs at distance >= r, or None when empty.

    The graph is empty exactly when r exceeds the diameter.  Failure to
    split into parts signals non-ultrametric input.
    """
    r = parse_rational(r)
    if r <= 0:
        raise ValueError("threshold must be positive")
    values = space.distance_values
    if r > values[-1]:
        return None
    # the graph only changes at distance values: adjacency is rank >= t
    t = 0
    for i, v in enumerate(values):
        if v >= r:
            t = i
            break
    pts = tuple(space.points())
    classes = _partition_below(space, pts, t)
    classes.sort(key=lambda c: min(c))
    return MultipartitePartition([sorted(c) for c in classes], r)


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
    matrix = [
        [Fraction(0) if i == j else max(pts[i], pts[j]) for j in range(len(pts))]
        for i in range(len(pts))
    ]
    return FiniteUltrametricSpace(names, matrix)


def space_to_json(space: FiniteMetricSpace) -> dict:
    return {
        "points": list(space.names),
        "matrix": [[format_rational(v) for v in row] for row in space.matrix],
    }


def space_from_json(obj: dict) -> Space:
    if not isinstance(obj, dict) or "points" not in obj or "matrix" not in obj:
        raise ValueError('space JSON needs "points" and "matrix"')
    return make_space(obj["points"], obj["matrix"])
