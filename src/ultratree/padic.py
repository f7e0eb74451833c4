"""Exact p-adic valuations, finite p-adic sample spaces, and Bethe-tree generators.

Rationals stand in for p-adic numbers throughout: the integers are dense
in the p-adic integers, so finite samples of rationals already exhibit
the ball structure.  No digit-stream representation is kept.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Optional

from .core import FiniteUltrametricSpace, _positive, diametrical_partition, parse_rational

if TYPE_CHECKING:
    from .repr_tree import RootedLabeledTree


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_LIMIT = 318665857834031151167461
BETHE_MAX_VERTICES = 1 << 17   # larger bethe and sphere trees are refused


def _require_int(value, what: str) -> int:
    if type(value) is not int:   # a bool, float or string is refused, not truncated
        raise ValueError(f"{what} must be an int, not {value!r}")
    return value


@lru_cache(maxsize=256, typed=True)
def is_prime(p: int) -> bool:
    """Miller-Rabin on the first 12 prime bases, exact below `MR_LIMIT`.

    (Sorenson & Webster, Math. Comp. 86, 2017.)  Larger p and non-ints raise
    ValueError.  Verdicts are cached, by type too (3.0 is not 3), since
    `p_valuation` tests its prime on every call.
    """
    if _require_int(p, "the prime") < 2 or any(p % b == 0 for b in _MR_BASES):
        return p in _MR_BASES
    if p < 41 * 41:   # a composite this small has a prime factor up to 37
        return True
    if p >= MR_LIMIT:
        raise ValueError(f"{p} is too large to test for primality (limit {MR_LIMIT})")
    s = ((p - 1) & (1 - p)).bit_length() - 1   # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    # a witnesses that p is composite unless a^d = 1 or a^(2^r d) = -1, r < s
    for a in _MR_BASES:
        if pow(a, d, p) != 1 and all(pow(a, d << r, p) != p - 1 for r in range(s)):
            return False
    return True


def _require_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def _valuation(t: Fraction, p: int) -> int:
    """gamma with t = p^gamma * m/n for m, n prime to p; t must be nonzero."""
    # in lowest terms, p divides the numerator, the denominator, or neither
    n, step = (t.numerator, 1) if t.numerator % p == 0 else (t.denominator, -1)
    gamma = 0
    while n % p == 0:
        n //= p
        gamma += step
    return gamma


class PAdicValuation:
    """Norm of a rational at a prime: p^(-gamma), where t = p^gamma * m/n.

    `gamma` is None for t = 0, whose norm is zero.
    """

    __slots__ = ("prime", "gamma", "norm")

    def __init__(self, prime: int, gamma: Optional[int], norm: Fraction):
        self.prime = prime
        self.gamma = gamma
        self.norm = norm

    def __repr__(self):
        return f"<|.|_{self.prime} gamma={self.gamma} norm={self.norm}>"


def p_valuation(t, p: int) -> PAdicValuation:
    """Exact valuation of a rational at a prime.

    Multiplicative over products and non-Archimedean over sums.
    """
    p = _require_prime(p)
    t = parse_rational(t)
    if t == 0:
        return PAdicValuation(p, None, Fraction(0))
    gamma = _valuation(t, p)
    norm = Fraction(1, p ** gamma) if gamma >= 0 else Fraction(p ** (-gamma))
    return PAdicValuation(p, gamma, norm)


def padic_metric(t, w, p: int) -> Fraction:
    return p_valuation(parse_rational(t) - parse_rational(w), p).norm


def padic_space(points: Iterable, p: int) -> FiniteUltrametricSpace:
    """Finite sample of rationals with the p-adic metric.

    Less the first point and times p^m, the sample lies in the p-adic
    integers, where each ball is the set of points that agree on their
    base-p digits below some place.  Sorted by those digits from the lowest
    place, each ball is a run: the valuations of the n - 1 consecutive
    differences, ranked from the largest, are the gaps of that order.
    """
    p = _require_prime(p)
    pts = [parse_rational(v) for v in points]
    if len(set(pts)) != len(pts):
        raise ValueError("sample points must be distinct")
    scale = p ** max((_valuation(Fraction(v.denominator), p) for v in pts), default=0)
    ys = [(v - pts[0]) * scale for v in pts]   # denominators prime to p
    rest, order, stack = [y.numerator for y in ys], [], [list(range(len(ys)))]
    while stack:   # split each group that agrees on the digits taken by the next digit
        group = stack.pop()
        if len(group) == 1:
            order += group
            continue
        parts: dict = {}
        for i in group:   # y = its digits taken + p^j * rest/b; the next is rest/b mod p
            b = ys[i].denominator
            d = rest[i] * pow(b, -1, p) % p
            rest[i] = (rest[i] - d * b) // p
            parts.setdefault(d, []).append(i)
        stack += [parts[d] for d in sorted(parts, reverse=True)]
    gamma = [_valuation(pts[b] - pts[a], p) for a, b in zip(order, order[1:])]
    found = sorted(set(gamma), reverse=True)   # the norm p^-g falls as g grows
    rank_of = {g: t for t, g in enumerate(found, 1)}
    return FiniteUltrametricSpace._from_gaps([str(v) for v in pts], [Fraction(0)] + [
        Fraction(p) ** -g for g in found], order, [0] + [rank_of[g] for g in gamma])


def residue_partition_check(points: Iterable[int], p: int) -> bool:
    """Do the diametrical parts of an integer sample equal its residue classes mod p?

    Requires at least two residue classes to be represented, so that the
    sample's diameter is 1 and the diametrical graph separates residues.
    """
    p = _require_prime(p)
    pts = [_require_int(v, "a sample point") for v in points]
    residues: dict[int, set[int]] = {}
    for i, v in enumerate(pts):
        residues.setdefault(v % p, set()).add(i)
    if len(residues) < 2:
        raise ValueError("sample must meet at least two residue classes")
    space = padic_space(pts, p)
    parts = diametrical_partition(space)
    got = {frozenset(part) for part in parts}
    want = {frozenset(s) for s in residues.values()}
    return got == want


def _bethe_tree(p: int, top: Fraction, depth: int, root_children: int) -> RootedLabeledTree:
    """Root labeled `top` with `root_children` children, then full p-ary to `depth`.

    Each child carries a p-th of its parent's label, so a vertex's label
    rank is its level counted up from the bottom; vertices are numbered in
    pre-order.  Sizes above `BETHE_MAX_VERTICES` are refused before
    anything is built.
    """
    # p >= 2, so 64 levels already pass the cap: no huge power is formed
    if 1 + sum(root_children * p ** k for k in range(min(depth, 64))) > BETHE_MAX_VERTICES:
        raise ValueError(f"p = {p}, depth {depth} passes {BETHE_MAX_VERTICES} vertices")
    from .repr_tree import RootedLabeledTree   # `padic_space` builds no tree
    rank = [depth]
    edges: list[tuple[int, int]] = []
    # (parent, rank) of vertices still to number; siblings are identical,
    # so the order they come off the stack does not matter
    stack = [(0, depth - 1)] * root_children if depth > 0 else []
    while stack:
        parent, r = stack.pop()
        edges.append((parent, len(rank)))
        stack += [(len(rank), r - 1)] * p if r > 0 else []
        rank.append(r)
    values = [top / p ** r for r in range(depth, -1, -1)]   # one label per level
    return RootedLabeledTree._from_ranks(values, rank, edges, root=0, truncated=True)


def bethe_ball_tree(p: int, depth: int, top_label) -> RootedLabeledTree:
    """Depth-limited prefix of the representing tree of a p-adic ball.

    A full p-ary tree: every vertex gets p children carrying one p-th of
    its label.  The result is marked truncated, because its leaves keep
    positive labels; it is the prefix of an infinite tree, not a finite
    representing tree itself.
    """
    p = _require_prime(p)
    if _require_int(depth, "depth") < 0:
        raise ValueError("depth must be nonnegative")
    top = _positive(top_label, "top label")
    return _bethe_tree(p, top, depth, p)


def sphere_tree(p: int, depth: int, top_label) -> RootedLabeledTree:
    """Depth-limited representing tree of a p-adic sphere.

    For p >= 3 the sphere tree is the ball tree with one root subtree
    removed (the root keeps p - 1 children).  For p = 2 the sphere is
    isometric to a ball of half the diameter, so the ball tree is built
    with the top label halved.
    """
    p = _require_prime(p)
    if _require_int(depth, "depth") < 1:
        raise ValueError("sphere trees need depth >= 1")
    top = _positive(top_label, "top label")
    return _bethe_tree(2, top / 2, depth, 2) if p == 2 else _bethe_tree(p, top, depth, p - 1)


def padic_ball_tree_vs_sample(p: int, depth: int) -> bool:
    """Check the sample {0..p^depth - 1} against the Bethe-tree prediction.

    The representing tree of the sample must match the depth-limited ball
    tree, scaled to the sample's diameter, once the truncated leaf level
    collapses to label zero (singletons have diameter zero).  The
    prediction is built, or refused, before the sample.
    """
    predicted = bethe_ball_tree(p, depth, 1)   # the sample's diameter, for depth >= 1
    from .morphisms import canonical_code
    from .repr_tree import RootedLabeledTree, build_representing_tree
    actual = build_representing_tree(padic_space(range(p ** depth), p))
    # the leaves, rank 0, collapse to label zero; at depth 0 the root is the one point
    collapsed = RootedLabeledTree._from_ranks((Fraction(0), *predicted.label_values[1:]),
                                              predicted.label_rank, predicted.edges, root=0)
    return canonical_code(actual) == canonical_code(collapsed)
