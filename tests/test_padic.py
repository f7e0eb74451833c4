from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction
from math import gcd

import pytest

import ultratree.padic as padic
import ultratree.repr_tree as repr_tree
from ultratree import (
    bethe_ball_tree,
    build_representing_tree,
    canonical_code,
    check_representable,
    distance_set,
    is_prime,
    is_ultrametric_triangle,
    p_valuation,
    padic_ball_tree_vs_sample,
    padic_metric,
    padic_space,
    residue_partition_check,
    sphere_tree,
    tree_to_json,
)


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def trial_division_is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def test_miller_rabin_matches_trial_division_below_10_5():
    assert [p for p in range(10 ** 5) if is_prime(p)] == \
        [p for p in range(10 ** 5) if trial_division_is_prime(p)]


CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
              46657, 52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401,
              172081, 188461, 252601, 278545, 294409, 314821, 334153, 340561, 399001,
              410041, 449065, 488881, 512461)


def test_miller_rabin_rejects_carmichael_numbers_and_strong_pseudoprimes():
    for c in CARMICHAEL:
        assert not trial_division_is_prime(c)
        assert all(pow(a, c - 1, c) == 1 for a in range(2, 50) if gcd(a, c) == 1)
        assert not is_prime(c)
    # strong pseudoprimes to the bases 2 to 7, and to every prime base up to 23
    assert not is_prime(3215031751) and 3215031751 == 151 * 751 * 28351
    spsp = 3825123056546413051
    assert not is_prime(spsp) and spsp == 149491 * 747451 * 34233211
    assert not is_prime((2 ** 31 - 1) * (2 ** 19 - 1))
    for p in (2 ** 31 - 1, 2 ** 61 - 1, 998244353, 1000000007, 1000000009):
        assert is_prime(p)


def test_primes_past_the_deterministic_range_are_refused():
    assert padic.MR_LIMIT == 318665857834031151167461
    # the limit is itself a strong pseudoprime to all 12 bases
    for p in (padic.MR_LIMIT, 2 ** 89 - 1, 10 ** 30 + 1):
        with pytest.raises(ValueError, match="too large"):
            is_prime(p)
    assert not is_prime(10 ** 30)   # even: decided before the range check


def test_primality_is_tested_once_per_prime():
    is_prime.cache_clear()
    primes = (2, 3, 1_000_003, 998244353)
    for i in range(1000):
        p = primes[i % len(primes)]
        if i % 2:
            assert padic_metric(i, i + 5 * p ** 2, p) == Fraction(1, p ** 2)
        else:
            assert p_valuation(Fraction(7 * p, 11), p).gamma == 1
    # one Miller-Rabin run per distinct prime, every other call a cache hit
    assert is_prime.cache_info().misses == len(primes)
    assert is_prime.cache_info().hits == 1000 - len(primes)


def test_bethe_sizes_past_the_cap_are_refused_before_building(monkeypatch):
    monkeypatch.setattr(padic, "BETHE_MAX_VERTICES", 7)
    assert bethe_ball_tree(2, 2, 1).n == 7
    assert sphere_tree(2, 2, 1).n == 7 and sphere_tree(3, 1, 1).n == 3
    built = []
    monkeypatch.setattr(repr_tree, "RootedLabeledTree", lambda *a, **k: built.append(a))
    for make, p, depth in ((bethe_ball_tree, 2, 3), (sphere_tree, 2, 3),
                           (sphere_tree, 3, 2), (bethe_ball_tree, 2, 10 ** 9),
                           (sphere_tree, 5, 10 ** 9), (bethe_ball_tree, 999983, 2)):
        with pytest.raises(ValueError, match="passes 7 vertices"):
            make(p, depth, 1)
    assert built == []


def test_sample_comparison_refuses_before_it_builds_the_sample(monkeypatch):
    sampled = []
    monkeypatch.setattr(padic, "padic_space", lambda *a: sampled.append(a))
    # refused in order: the prime, the depth's type, its sign, then the cap
    for p, depth, message in ((4, -1.5, "4 is not prime"), (2, -1.5, "depth must be an int"),
                              (2, -1, "depth must be nonnegative"), (3, 12, "passes"),
                              (2, 40, f"passes {padic.BETHE_MAX_VERTICES} vertices")):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=message):
            padic_ball_tree_vs_sample(p, depth)
        assert time.perf_counter() - start < 1
    assert sampled == []


def test_valuation_examples():
    assert p_valuation(0, 2).norm == 0
    assert p_valuation(0, 2).gamma is None

    v = p_valuation(12, 2)
    assert v.gamma == 2 and v.norm == Fraction(1, 4)

    v = p_valuation(Fraction(9, 2), 3)
    assert v.gamma == 2 and v.norm == Fraction(1, 9)

    v = p_valuation(Fraction(1, 8), 2)
    assert v.gamma == -3 and v.norm == 8

    with pytest.raises(ValueError):
        p_valuation(1, 4)


def test_valuation_is_multiplicative_and_non_archimedean():
    rng = random.Random(51)
    for p in (2, 3, 5, 7):
        for _ in range(500):
            t = Fraction(rng.randint(-400, 400), rng.randint(1, 60))
            w = Fraction(rng.randint(-400, 400), rng.randint(1, 60))
            nt, nw = p_valuation(t, p).norm, p_valuation(w, p).norm
            assert p_valuation(t * w, p).norm == nt * nw
            assert p_valuation(t + w, p).norm <= max(nt, nw)


def test_padic_space_examples():
    space = padic_space(range(10), 3)
    assert distance_set(space) == (
        Fraction(0), Fraction(1, 9), Fraction(1, 3), Fraction(1),
    )
    assert is_ultrametric_triangle(space)[0]

    two = padic_space([0, 1], 2)
    assert two.distance(0, 1) == 1
    assert padic_space([0, 8], 2).distance(0, 1) == Fraction(1, 8)

    with pytest.raises(ValueError):
        padic_space([0, 1, 1], 2)


def test_padic_distances_are_powers_of_p():
    rng = random.Random(52)
    for p in (2, 3, 5):
        pts = rng.sample(range(-200, 200), 12)
        space = padic_space(pts, p)
        for v in distance_set(space):
            if v == 0:
                continue
            gamma = p_valuation(v, p).gamma
            assert v == Fraction(p) ** (-gamma) or v == Fraction(p) ** gamma


def test_padic_metric_shortcut():
    assert padic_metric(9, 0, 3) == Fraction(1, 9)


def test_padic_space_distances_are_the_padic_metric():
    # p in numerators and denominators alike, so valuations of both signs
    rng = random.Random(53)
    for p in (2, 3, 5, 7):
        pts = {Fraction(rng.randint(-40, 40) * p ** rng.randint(0, 3),
                        rng.randint(1, 30) * p ** rng.randint(0, 3)) for _ in range(30)}
        pts = sorted(pts)
        space = padic_space(pts, p)
        assert {p_valuation(d, p).gamma for d in distance_set(space)[1:]} >= {-1, 1}
        for i, a in enumerate(pts):
            for j, b in enumerate(pts):
                assert space.distance(i, j) == padic_metric(a, b, p)


def test_residue_partition_examples():
    assert residue_partition_check(range(10), 3)
    assert residue_partition_check([0, 1], 2)
    assert residue_partition_check(range(10), 5)
    with pytest.raises(ValueError):
        residue_partition_check([0, 3, 6], 3)


def test_residue_parts_values():
    from ultratree import diametrical_partition

    space = padic_space(range(10), 3)
    parts = diametrical_partition(space)
    groups = [tuple(int(space.names[i]) for i in part) for part in parts]
    assert sorted(map(sorted, groups)) == [[0, 3, 6, 9], [1, 4, 7], [2, 5, 8]]


def test_bethe_ball_tree_shape():
    tree = bethe_ball_tree(2, 2, 1)
    assert tree.n == 7
    assert tree.truncated
    assert sorted(tree.labels) == sorted(
        [Fraction(1), Fraction(1, 2), Fraction(1, 2)] + [Fraction(1, 4)] * 4
    )
    levels = tree.levels()
    for v in range(tree.n):
        assert tree.labels[v] == Fraction(1, 2) ** levels[v]

    assert bethe_ball_tree(2, 0, 5).n == 1

    tri = bethe_ball_tree(3, 1, 1)
    assert tri.n == 4
    assert sorted(tri.labels) == [Fraction(1, 3)] * 3 + [Fraction(1)]

    with pytest.raises(ValueError):
        bethe_ball_tree(2, -1, 1)
    with pytest.raises(ValueError):
        bethe_ball_tree(2, 1, 0)


# sha256 prefixes of the sorted-key tree_to_json output with top label
# 7/2; they pin pre-order vertex numbering as well as labels and edges
BETHE_DIGESTS = {
    ("ball", 2, 0): "049441eb4c8cfe6a",
    ("ball", 2, 1): "ac641478fa3ca64f",
    ("ball", 2, 2): "942885560416546f",
    ("ball", 2, 3): "c0ed07a08c6057af",
    ("ball", 3, 0): "049441eb4c8cfe6a",
    ("ball", 3, 1): "a4abf2358f9754f1",
    ("ball", 3, 2): "619492fc7cdcf70b",
    ("ball", 3, 3): "9e35ae964d762db2",
    ("ball", 5, 0): "049441eb4c8cfe6a",
    ("ball", 5, 1): "995b6f84d72d1d37",
    ("ball", 5, 2): "1a96f8d6142904bd",
    ("ball", 5, 3): "ad9f9c0650a184bc",
    ("sphere", 2, 1): "207e5b4ae7cd137e",
    ("sphere", 2, 2): "06ee60fb37dd35b0",
    ("sphere", 2, 3): "5b69d7978b79a433",
    ("sphere", 3, 1): "8c33297931b64820",
    ("sphere", 3, 2): "4fbdd8086989248d",
    ("sphere", 3, 3): "b085f24007ae1e81",
    ("sphere", 5, 1): "318fffb7cfa34045",
    ("sphere", 5, 2): "91b0d0c4815e98bd",
    ("sphere", 5, 3): "f49165f9c46199cf",
}


@pytest.mark.parametrize("kind, p, depth", sorted(BETHE_DIGESTS))
def test_bethe_trees_match_pinned_output(kind, p, depth):
    build = bethe_ball_tree if kind == "ball" else sphere_tree
    text = json.dumps(tree_to_json(build(p, depth, "7/2")), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == BETHE_DIGESTS[kind, p, depth]


def test_truncated_trees_are_not_representable():
    assert not check_representable(bethe_ball_tree(2, 2, 1)).accepted
    assert not check_representable(sphere_tree(3, 1, 1)).accepted


def test_sphere_tree_shapes():
    tri = sphere_tree(3, 1, 1)
    assert tri.labels[tri.root] == 1
    assert tri.degree(tri.root) == 2
    kids = tri.children_map()[tri.root]
    assert [tri.labels[c] for c in kids] == [Fraction(1, 3), Fraction(1, 3)]

    two = sphere_tree(2, 2, 1)
    assert canonical_code(two) == canonical_code(bethe_ball_tree(2, 2, Fraction(1, 2)))
    assert sorted(set(two.labels)) == [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]

    five = sphere_tree(5, 1, 1)
    assert five.degree(five.root) == 4

    with pytest.raises(ValueError):
        sphere_tree(3, 0, 1)


def test_sample_trees_match_the_prediction():
    assert padic_ball_tree_vs_sample(2, 2)
    assert padic_ball_tree_vs_sample(3, 1)
    assert padic_ball_tree_vs_sample(2, 0)


def test_sample_trees_are_perfect_p_ary():
    for p, k in ((2, 3), (3, 2), (5, 1)):
        space = padic_space(range(p ** k), p)
        tree = build_representing_tree(space)
        levels = tree.levels()
        assert max(levels) == k
        kids = tree.children_map()
        for v in range(tree.n):
            if levels[v] < k:
                assert len(kids[v]) == p
                assert len({tree.labels[c] for c in kids[v]}) == 1
            else:
                assert kids[v] == ()
                assert tree.labels[v] == 0
