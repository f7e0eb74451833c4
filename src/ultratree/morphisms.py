"""Canonical tree codes, brute-force isometry, weak-similarity checks, distance transforms.

Two finite ultrametric spaces are isometric exactly when their labeled
representing trees are isomorphic; the isometry and weak-similarity
decisions compare integer codes of the ball tree every space holds, so
they live beside it in `core`, and answer here too.  Checking a given
bijection for weak similarity reads the consecutive pairs of both orders.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Union

from .core import (FiniteUltrametricSpace, _is_index, _positive, _rank_of, _require_ultrametric,
                   parse_rational, _same_ranked_tree, _subset_diam_rank, spaces_isometric, weakly_similar)

if TYPE_CHECKING:
    from .repr_tree import RootedLabeledTree

_BRUTE_FORCE_CAP = 8  # points; the search is exponential


class CanonicalCode:
    """Order-independent encoding of a rooted labeled tree.

    Two rooted labeled trees are isomorphic iff their codes are equal.
    `digest` is a short fingerprint of the full nested text, hashed on
    first read.
    """

    __slots__ = ("text", "_digest")

    def __init__(self, text: str):
        self.text = text
        self._digest = None

    @property
    def digest(self) -> str:
        if self._digest is None:
            import hashlib  # loads OpenSSL, so only when a digest is read
            self._digest = hashlib.sha256(self.text.encode("ascii")).hexdigest()
        return self._digest

    def __eq__(self, other):
        return isinstance(other, CanonicalCode) and self.text == other.text

    def __hash__(self):
        return hash(self.text)

    def __repr__(self):
        return f"<CanonicalCode {self.digest[:12]}>"


def canonical_code(tree: RootedLabeledTree) -> CanonicalCode:
    """Recursive code: a vertex is its label plus the sorted codes of its children.

    Each distinct label is printed once.  The recursion stays, two Python
    frames a level: on Python 3.11, 497 levels pass the default limit and
    the bench's depth-600 probe still raises RecursionError (ROADMAP item 2).
    """
    from .repr_tree import _label_texts   # so the transforms load without `repr_tree`
    root = tree.require_root()
    adj, text = tree._adj, _label_texts(tree)

    def encode(v: int, parent: int) -> str:
        subs = [encode(w, v) for w in adj[v] if w != parent]
        subs.sort()
        return "(" + text[v] + ";" + ",".join(subs) + ")"

    return CanonicalCode(encode(root, -1))


def brute_force_isometry(
    x: FiniteUltrametricSpace, y: FiniteUltrametricSpace
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Exhaustive search for a distance-preserving bijection.

    Ground truth for `spaces_isometric` on small instances.  Returns the
    witness mapping (x index -> y index) when one exists.  Backtracking
    prunes on per-point distance profiles, and spaces with different
    distance multisets are rejected without search.
    """
    if len(x) != len(y):
        return False, None
    n = len(x)
    if n > _BRUTE_FORCE_CAP:
        raise ValueError(f"brute force capped at {_BRUTE_FORCE_CAP} points, got {n}")
    mx, my = x.matrix, y.matrix
    flat_x = sorted(v for row in mx for v in row)
    flat_y = sorted(v for row in my for v in row)
    if flat_x != flat_y:
        return False, None
    profile_x = [tuple(sorted(mx[i])) for i in range(n)]
    profile_y = [tuple(sorted(my[i])) for i in range(n)]
    mapping: list[int] = []
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        for j in range(n):
            if used[j] or profile_x[i] != profile_y[j]:
                continue
            if any(mx[i][k] != my[j][mapping[k]] for k in range(i)):
                continue
            used[j] = True
            mapping.append(j)
            if extend(i + 1):
                return True
            used[j] = False
            mapping.pop()
        return False

    if extend(0):
        return True, tuple(mapping)
    return False, None


class ScalingFunction:
    """A strictly increasing map between two finite distance sets.

    Zero maps to zero and nothing else does.
    """

    __slots__ = ("domain", "values", "_table")

    def __init__(self, domain: Iterable, values: Iterable):
        self.domain = tuple(parse_rational(v) for v in domain)
        self.values = tuple(parse_rational(v) for v in values)
        if len(self.domain) != len(self.values) or not self.domain:
            raise ValueError("domain and values must align and be nonempty")
        if self.domain[0] != 0 or self.values[0] != 0:
            raise ValueError("a scaling function fixes zero")
        for seq in (self.domain, self.values):
            for a, b in zip(seq, seq[1:]):
                if not a < b:
                    raise ValueError("scaling data must be strictly increasing")
        self._table = dict(zip(self.domain, self.values))

    def __call__(self, t) -> Fraction:
        return self._table[parse_rational(t)]

    def __repr__(self):
        pairs = ", ".join(f"{a}->{b}" for a, b in zip(self.domain, self.values))
        return f"<ScalingFunction {pairs}>"


def weak_similarity_check(
    x: FiniteUltrametricSpace,
    y: FiniteUltrametricSpace,
    bijection: Iterable[int],
) -> tuple[bool, Optional[ScalingFunction]]:
    """Does the bijection preserve the order of distances?

    True iff d(a,b) <= d(c,e) exactly when the image distances compare the
    same way, for all quadruples: iff d(phi a, phi b) -> d(a, b) is a
    strictly increasing map of D(Y) onto D(X).  Such a map of finite
    sorted sets sends the i-th element to the i-th, so it exists iff
    |D(X)| = |D(Y)| and phi keeps every rank: by the strong triangle
    inequality along each order, iff phi keeps the ranks of X's consecutive
    pairs and its inverse those of Y's.  On success the map is returned as
    the scaling function.  Point ids must be ints.
    """
    phi, n = tuple(bijection), len(_require_ultrametric(x, "weak similarity checks"))
    if len(_require_ultrametric(y, "weak similarity checks")) != n or not all(
            _is_index(v, n) for v in phi) or sorted(phi) != list(range(n)):
        raise ValueError("mapping must be a bijection between the point sets")
    if len(x.distance_values) != len(y.distance_values) or any(
            _subset_diam_rank(b, (f[p], f[q])) != g
            for a, b, f in ((x, y, phi), (y, x, sorted(range(n), key=phi.__getitem__)))
            for p, q, g in zip(a._order, a._order[1:], a._gaps[1:])):
        return False, None
    return True, ScalingFunction(y.distance_values, x.distance_values)


def rank_transform(space: FiniteUltrametricSpace) -> FiniteUltrametricSpace:
    """Replace every distance by its rank in the distance set."""
    values = [Fraction(r) for r in range(len(space.distance_values))]
    return FiniteUltrametricSpace._from_gaps(space.names, values, space._order, space._gaps)


class PreservingFunctionError(ValueError):
    """The supplied function is not ultrametric preserving on the distance set."""

    def __init__(self, witness: tuple, message: str):
        super().__init__(message)
        self.witness = witness


def apply_preserving(
    space: FiniteUltrametricSpace,
    fn: Union[Callable[[Fraction], Fraction], Mapping],
) -> FiniteUltrametricSpace:
    """Transform a space by an increasing function with f(t)=0 only at t=0.

    `fn` may be a callable or a table over the distance set.  Those two
    conditions, checked on the realized distances, are exactly what makes
    the composed matrix an ultrametric again; violations are rejected
    with a witness.
    """
    values = space.distance_values
    if callable(fn):
        image = [parse_rational(fn(v)) for v in values]
    else:
        table = {parse_rational(k): parse_rational(v) for k, v in dict(fn).items()}
        missing = [v for v in values if v not in table]
        if missing:
            raise PreservingFunctionError(
                (missing[0],), f"function undefined at distance {missing[0]}"
            )
        image = [table[v] for v in values]
    if image[0] != 0:
        raise PreservingFunctionError((Fraction(0),), "f(0) must be 0")
    for a, b in zip(values[1:], image[1:]):
        if b <= 0:
            raise PreservingFunctionError(
                (a,), f"f({a}) = {b} must be positive for positive {a}"
            )
    for i in range(1, len(values)):
        if image[i] < image[i - 1]:
            raise PreservingFunctionError(
                (values[i - 1], values[i]),
                f"f not increasing: f({values[i - 1]}) = {image[i - 1]} > "
                f"f({values[i]}) = {image[i]}",
            )
    # f may merge neighbouring distances: rank the image values afresh
    values, (gaps,) = _rank_of(image, [space._gaps])
    return FiniteUltrametricSpace._from_gaps(space.names, values, space._order, gaps)


def threshold_function(r) -> Callable[[Fraction], Fraction]:
    """The cutoff t -> min(r, t); flattens every distance above r to r."""
    r = _positive(r, "threshold")
    return lambda t: min(r, parse_rational(t))


def bound_transform(space: FiniteUltrametricSpace, d_star) -> FiniteUltrametricSpace:
    """Rescale distances by t -> d*.t/(1+t); the result stays below d*."""
    d_star = _positive(d_star, "d_star")
    return apply_preserving(space, lambda t: d_star * t / (1 + t))


def unbound_transform(space: FiniteUltrametricSpace, d_star) -> FiniteUltrametricSpace:
    """Inverse of `bound_transform`: s -> s/(d* - s); needs all distances below d*."""
    d_star = _positive(d_star, "d_star")
    top = space.distance_values[-1]
    if top >= d_star:
        raise ValueError(f"distance {top} is not below d_star = {d_star}")
    return apply_preserving(space, lambda s: s / (d_star - s))


class PiecewiseLinearFn:
    """A strictly increasing piecewise linear function through the origin.

    Breakpoints are exact; beyond the last one the function continues with
    `tail_slope`.
    """

    __slots__ = ("breakpoints", "tail_slope")

    def __init__(self, breakpoints, tail_slope):
        self.breakpoints = tuple((parse_rational(a), parse_rational(b))
                                 for a, b in breakpoints)
        self.tail_slope = parse_rational(tail_slope)
        if self.breakpoints[:1] != ((0, 0),):
            raise ValueError("must start at the origin")
        for (x0, y0), (x1, y1) in zip(self.breakpoints, self.breakpoints[1:]):
            if not (x0 < x1 and y0 < y1):
                raise ValueError("breakpoints must be strictly increasing")
        _positive(self.tail_slope, "tail slope")

    def __call__(self, t) -> Fraction:
        t = parse_rational(t)
        if t < 0:
            raise ValueError("defined on nonnegative inputs only")
        pts = self.breakpoints
        i = bisect_right(pts, t, key=itemgetter(0))   # pts[i - 1][0] <= t
        if i == len(pts):
            x0, y0 = pts[-1]
            return y0 + self.tail_slope * (t - x0)
        (x0, y0), (x1, y1) = pts[i - 1], pts[i]
        return y0 + (y1 - y0) * (t - x0) / (x1 - x0)


def extend_scaling_function(psi: ScalingFunction) -> PiecewiseLinearFn:
    """Extend a finite scaling function to a strictly increasing function on [0, oo).

    Linear interpolation bridges the gaps between consecutive domain
    points; the gap below the smallest positive point is bridged by a
    segment through the origin, and past the largest point the function
    grows proportionally, so the extension stays strictly increasing and
    agrees with the input exactly.
    """
    if len(psi.domain) < 2:
        raise ValueError("need at least one positive domain point")
    pts = [(Fraction(0), Fraction(0))]
    pts.extend(zip(psi.domain[1:], psi.values[1:]))
    a, va = psi.domain[-1], psi.values[-1]
    return PiecewiseLinearFn(pts, tail_slope=va / a)


def quantize_binary(space: FiniteUltrametricSpace) -> FiniteUltrametricSpace:
    """Snap every positive distance down to a power of 1/2, capped at 1/2.

    A distance t >= 1/2 becomes 1/2, and t in [2^-(n+1), 2^-n) becomes
    2^-(n+1).  Output distances are dyadic, never exceed the input, and
    the input never exceeds twice the output when it was at most 1/2.
    """
    # 2^-k <= t = a/b iff 2^k > (b - 1) // a, whose bit length is the least such k
    return apply_preserving(space, lambda t: t and Fraction(
        1, 2 ** max(1, ((t.denominator - 1) // t.numerator).bit_length())))


def quantize_ladder(space: FiniteUltrametricSpace, ladder) -> FiniteUltrametricSpace:
    """Snap distances onto an arbitrary strictly decreasing positive ladder.

    A distance at or above the top rung maps to the top rung; anything
    else maps to the largest rung not exceeding it.  The ladder must reach
    at or below the smallest positive distance.
    """
    rungs = [parse_rational(v) for v in ladder]
    for a, b in zip(rungs, rungs[1:]):
        if not a > b:
            raise ValueError("ladder must be strictly decreasing")
    if not rungs or rungs[-1] <= 0:
        raise ValueError("ladder must be positive")
    positive = [v for v in space.distance_values if v > 0]
    if positive and rungs[-1] > positive[0]:
        raise ValueError("ladder does not reach the smallest positive distance")
    return apply_preserving(space, lambda t: t and next(r for r in rungs if r <= t))
