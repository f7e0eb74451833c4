"""The benchmark's workloads: seeded requests and the answers they must give.

A workload is a list of rounds.  Every round holds the same request kinds
at the same sizes, drawn from its own seeded instances, so any whole
number of rounds has the same mix.  Runs execute whole rounds only.

CLI requests are argv lists for `ultratree.cli`, checked on exit code and
stdout.  Library requests are calls on objects the worker prepares in
set-up, checked on the returned value.  Every expected answer comes from
`gen`, never from the library.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import gen

ROUNDS = 3
# a run goes on past its --seconds until it holds this many requests, so
# that more than ten lie above p90
MIN_REQUESTS = 110
WORKLOADS = ("cli-bushy", "cli-deep", "lib-derived")
# canonical_code recurses about twice per tree level and Python stops at
# 1000 frames, so depth 400 passes (with room for the tracing wrappers)
# and depth 600 hits the known RecursionError.
PASSING_DEPTHS = (300, 400)
FAILING_DEPTHS = (600, 800)


class Request:
    """One request: `argv` (CLI) or `call` (library), plus its checker.

    `check` returns None when the outcome matches the known answer and a
    short reason otherwise.  `probe` marks a library call that shows a
    known defect; probes are reported apart from the requests a run
    counts as attempted.
    """

    __slots__ = ("rid", "kind", "entries", "argv", "call", "check", "probe")

    def __init__(self, kind, entries, check, argv=None, call=None, probe=False):
        self.rid = None
        self.kind = kind
        self.entries = entries
        self.argv = argv
        self.call = call
        self.check = check
        self.probe = probe

    def verify(self, *outcome) -> str | None:
        """Run the checker; a malformed answer is a wrong answer, not a crash."""
        try:
            return self.check(*outcome)
        except Exception as exc:
            return f"unexpected output: {exc!r}"

    def record(self, ms: float, reason: str | None) -> dict:
        return {"rid": self.rid, "kind": self.kind, "ms": ms, "entries": self.entries,
                "ok": reason is None, "reason": reason, "probe": self.probe}


class _Inputs:
    """Seeded sizes and input files for one round of one workload."""

    def __init__(self, rng: random.Random, workdir: str, tiny: bool, tag: str):
        self.rng = rng
        self.workdir = workdir
        self.tiny = tiny
        self.tag = tag
        self.count = 0

    def n(self, n: int) -> int:
        return max(5, n // 12) if self.tiny else n

    def k(self, p: int, k: int) -> int:
        return min(k, 3 if p == 2 else 2) if self.tiny else k

    def write(self, obj) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"{self.tag}-{self.count}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, separators=(",", ":"))
        return path

    def space(self, h: gen.Hierarchy, perm=None):
        names = [f"x{i}" for i in range(h.n)]
        mat = h.matrix()
        if perm is not None:
            names, mat = gen.permuted(names, mat, perm)
        return names, mat


# -- CLI checkers -----------------------------------------------------------

def _expect(code: int, obj):
    def check(rc, out):
        if rc != code:
            return f"exit {rc}, expected {code}"
        if json.loads(out) != obj:
            return "output differs from the known answer"
        return None
    return check


def _expect_broken(names, mat):
    index = {name: i for i, name in enumerate(names)}

    def check(rc, out):
        if rc != 1:
            return f"exit {rc}, expected 1"
        got = json.loads(out)
        if got.get("ultrametric") is not False or not got.get("witness"):
            return "non-ultrametric input not rejected with a witness"
        i, j, k = (index[w] for w in got["witness"])
        if not gen.is_strong_witness(mat, i, j, k):
            return f"witness {got['witness']} does not break the strong triangle"
        return None
    return check


def _balls_obj(h: gen.Hierarchy) -> dict:
    order = sorted(range(h.vertices), key=lambda v: (-h.labels[v], h.points[v][0]))
    return {"balls": [{"points": list(h.points[v]), "diameter": str(h.labels[v])}
                      for v in order]}


def _dset_obj(h: gen.Hierarchy) -> dict:
    return {"distances": [str(v) for v in sorted(set(h.labels))]}


def _cli(kind, entries, check, *argv) -> Request:
    return Request(kind, entries, check, argv=list(argv))


def _cli_bushy_round(s: _Inputs) -> list[Request]:
    """One round of CLI requests on bushy and flat spaces.

    The three heaviest (tree at n=160, transform bound:3 and roundtrip at
    n=96) cost about the same and make up 3/16 of a round, so p90 falls
    inside their cluster, not in a gap; the same holds for check, tree and
    roundtrip on caterpillars in `_cli_deep_round`.
    """
    rng = s.rng
    reqs = []

    def space_req(kind, h, verb_args, obj_fn, code=0):
        names, mat = s.space(h)
        path = s.write(gen.space_json(names, mat))
        reqs.append(_cli(kind, h.n ** 2, _expect(code, obj_fn(names, mat)),
                         *verb_args, path))

    ok = lambda names, mat: {"ultrametric": True, "witness": None}
    space_req("check", gen.bushy(rng, s.n(64)), ["check"], ok)
    h = gen.bushy(rng, s.n(80))
    names, mat = s.space(h)
    broken = gen.break_ultrametric(h, mat)
    reqs.append(_cli("check", h.n ** 2, _expect_broken(names, broken),
                     "check", s.write(gen.space_json(names, broken))))
    space_req("check", gen.flat(rng, s.n(96)), ["check"], ok)
    h = gen.bushy(rng, s.n(64))
    space_req("dset", h, ["dset"], lambda *_: _dset_obj(h))
    h1 = gen.bushy(rng, s.n(64))
    space_req("balls", h1, ["balls"], lambda *_: _balls_obj(h1))
    h2 = gen.flat(rng, s.n(48))
    space_req("balls", h2, ["balls"], lambda *_: _balls_obj(h2))
    for h in (gen.bushy(rng, s.n(96)), gen.flat(rng, s.n(64)), gen.bushy(rng, s.n(160))):
        space_req("tree", h, ["tree"], lambda *_, h=h: h.tree_json())

    h = gen.bushy(rng, s.n(64))
    a = s.write(gen.space_json(*s.space(h)))
    b = s.write(gen.space_json(*s.space(h, gen.permutation(rng, h.n))))
    reqs.append(_cli("iso", 2 * h.n ** 2, _expect(0, {"isometric": True}), "iso", a, b))
    h = gen.bushy(rng, s.n(48))
    a = s.write(gen.space_json(*s.space(h)))
    b = s.write(gen.space_json(*s.space(gen.perturb_label(h, rng))))
    reqs.append(_cli("iso", 2 * h.n ** 2, _expect(1, {"isometric": False}), "iso", a, b))

    three = Fraction(3)
    space_req("transform", gen.bushy(rng, s.n(96)), ["transform", "--fn", "bound:3"],
              lambda names, mat: gen.space_json(
                  names, [[gen.bound(v, three) for v in row] for row in mat]))
    space_req("transform", gen.bushy(rng, s.n(64)), ["transform", "--fn", "quantize"],
              lambda names, mat: gen.space_json(
                  names, [[gen.quantize(v) for v in row] for row in mat]))
    for h in (gen.bushy(rng, s.n(96)), gen.flat(rng, s.n(48))):
        space_req("roundtrip", h, ["roundtrip"],
                  lambda *_, h=h: {"points": h.n, "balls": h.vertices, "isometric": True})
    space_req("check", gen.bushy(rng, s.n(48)), ["check"], ok)
    return reqs


def _cli_deep_round(s: _Inputs) -> list[Request]:
    rng = s.rng
    reqs = []

    def space_path(h, perm=None):
        return s.write(gen.space_json(*s.space(h, perm)))

    def tree_req(h):
        reqs.append(_cli("tree", h.n ** 2, _expect(0, h.tree_json()), "tree", space_path(h)))

    def pair_req(verb, key, h, other, verdict):
        entries = h.n ** 2 + other.n ** 2
        reqs.append(_cli(verb, entries, _expect(0 if verdict else 1, {key: verdict}),
                         verb, space_path(h), space_path(other)))

    tree_req(gen.caterpillar(s.n(112)))
    tree_req(gen.padic(3, s.k(3, 4)))
    ok = _expect(0, {"ultrametric": True, "witness": None})
    for h in (gen.caterpillar(s.n(128)), gen.padic(2, s.k(2, 6))):
        reqs.append(_cli("check", h.n ** 2, ok, "check", space_path(h)))

    cat = gen.caterpillar(s.n(64))
    a = space_path(cat)
    b = space_path(cat, gen.permutation(rng, cat.n))
    reqs.append(_cli("iso", 2 * cat.n ** 2, _expect(0, {"isometric": True}), "iso", a, b))
    cat = gen.caterpillar(s.n(64))
    pair_req("iso", "isometric", cat, gen.perturb_label(cat, rng), False)
    # every caterpillar of one size is weakly similar to every other, and
    # to no p-adic space of the same size
    cat = gen.caterpillar(2 ** s.k(2, 5))
    scale = Fraction(rng.randint(2, 9), rng.randint(1, 5))
    pair_req("weaksim", "weakly_similar", cat,
             gen.relabel_labels(cat, lambda t: scale * t * t), True)
    pair_req("weaksim", "weakly_similar", cat, gen.padic(2, s.k(2, 5)), False)

    for h in (gen.caterpillar(s.n(96)), gen.padic(2, s.k(2, 6))):
        reqs.append(_cli("roundtrip", h.n ** 2,
                         _expect(0, {"points": h.n, "balls": h.vertices, "isometric": True}),
                         "roundtrip", space_path(h)))
    for h in (gen.caterpillar(s.n(96)), gen.padic(3, s.k(3, 4))):
        leaves = [str(v) for v in range(h.vertices) if not h.children[v]]
        reqs.append(_cli("reconstruct", h.n ** 2,
                         _expect(0, gen.space_json(leaves, h.leaf_chain_matrix())),
                         "reconstruct", s.write(h.tree_json(with_points=False))))
    h = gen.caterpillar(s.n(96))
    reqs.append(_cli("representable", h.n ** 2,
                     _expect_fields(0, {"accepted": True, "root": 0}),
                     "representable", s.write(h.tree_json(with_points=False))))
    reqs.append(_cli("representable", 0,
                     _expect_fields(1, {"accepted": False, "root": None}),
                     "representable", s.write(gen.non_representable_tree(h))))
    for p, k in ((2, s.k(2, 6)), (3, s.k(3, 4))):
        h = gen.padic(p, k)
        perm = gen.permutation(rng, h.n)
        names, mat = gen.permuted([str(i) for i in range(h.n)], h.matrix(), perm)
        reqs.append(_cli("padic", h.n ** 2, _expect(0, gen.space_json(names, mat)),
                         "padic", "--prime", str(p), "--points", s.write(perm)))
    return reqs


def _expect_fields(code: int, fields: dict):
    def check(rc, out):
        if rc != code:
            return f"exit {rc}, expected {code}"
        got = json.loads(out)
        if any(got.get(k) != v for k, v in fields.items()):
            return "verdict differs from the known answer"
        return None
    return check


# -- library requests -------------------------------------------------------

class LibInput:
    """A hierarchy and the library objects set-up builds from it."""

    def __init__(self, h: gen.Hierarchy, space=True, tree=True, poset=None):
        self.h = h
        self.needs = (space, tree)
        self.space = None
        self.tree = None
        self.poset = poset

    def prepare(self, u) -> None:
        space, tree = self.needs
        if space and self.space is None:
            self.space = u.FiniteUltrametricSpace(
                [f"x{i}" for i in range(self.h.n)], self.h.matrix())
        if tree and self.tree is None:
            # deep caterpillars are only coded, so they skip the O(n^2) payload
            self.tree = u.tree_from_json(self.h.tree_json(with_points=self.h.n <= 256))


def _lca(h: gen.Hierarchy, u: int, v: int) -> int:
    while h.depth[u] > h.depth[v]:
        u = h.parent[u]
    while h.depth[v] > h.depth[u]:
        v = h.parent[v]
    while u != v:
        u, v = h.parent[u], h.parent[v]
    return u


def _pairs(rng: random.Random, size: int, count: int = 32):
    return [(rng.randrange(size), rng.randrange(size)) for _ in range(count)]


def _lib_round(s: _Inputs, shared: dict) -> tuple[list[Request], list[LibInput]]:
    """One round of library calls.

    Five calls on caterpillar and p-adic inputs (ballean and
    reconstruct_space at n=128, verify_tree_invariants and
    sphere_plus_center_condition at n=112, quantize_binary at n=128) cost
    about the same, so p90 falls inside their cluster, not in a gap.

    Caterpillar and p-adic inputs do not depend on the seed, so rounds
    share them through `shared` and set-up builds each one once.
    """
    rng = s.rng
    reqs: list[Request] = []
    inputs: list[LibInput] = []

    def inp(h, space=True, tree=True, poset=None):
        key = None if poset is not None or h.shape == "bushy" else (h.shape, h.n, space, tree)
        li = shared.get(key) if key else None
        if li is None:
            li = LibInput(h, space, tree, poset)
            inputs.append(li)
            if key:
                shared[key] = li
        return li

    def lib(kind, li, call, check, probe=False):
        reqs.append(Request(kind, li.h.n ** 2, check, call=call, probe=probe))

    def is_true(res):
        return None if res is True else f"returned {res!r}"

    for h in (gen.bushy(rng, s.n(48)), gen.caterpillar(s.n(32)), gen.padic(2, s.k(2, 5))):
        li = inp(h, tree=False)
        vertex = {p: v for v, p in enumerate(h.points)}
        pairs = _pairs(rng, h.vertices)

        def check(res, h=h, vertex=vertex, pairs=pairs):
            if len(res.balls) != h.vertices:
                return f"{len(res.balls)} balls, expected {h.vertices}"
            ids = [vertex.get(b.points) for b in res.balls]
            if None in ids:
                return "a Hausdorff point is not a ball"
            for a, b in pairs:
                want = 0 if a == b else h.labels[_lca(h, ids[a], ids[b])]
                if res.space.matrix[a][b] != want:
                    return f"Hausdorff distance {a},{b} differs"
            return None
        lib("hausdorff_ball_space", li, lambda u, li=li: u.hausdorff_ball_space(li.space), check)

    for h in (gen.caterpillar(s.n(128)), gen.bushy(rng, s.n(128)), gen.padic(3, s.k(3, 4))):
        li = inp(h, tree=False)
        want = h.balls()
        lib("ballean", li, lambda u, li=li: u.ballean(li.space),
            lambda res, want=want: None if len(res) == len(want) and
            {(b.points, b.diameter) for b in res} == want else "ballean differs")

    for h in (gen.bushy(rng, s.n(64)), gen.caterpillar(s.n(112))):
        li = inp(h)
        lib("verify_tree_invariants", li,
            lambda u, li=li: u.verify_tree_invariants(li.tree, li.space),
            lambda res: None if res.ok else f"invariants fail: {res!r}")

    for h in (gen.caterpillar(s.n(96)), gen.padic(2, s.k(2, 6))):
        li = inp(h, space=False)
        covers = tuple(sorted((v, h.parent[v]) for v in range(1, h.vertices)))
        lib("tree_order", li, lambda u, li=li: u.tree_order(li.tree),
            lambda res, covers=covers: None if res.root == 0 and res.covers == covers
            else "tree order differs")

    for h in (gen.padic(2, s.k(2, 6)), gen.bushy(rng, s.n(64))):
        li = inp(h)
        lib("edge_characterization_check", li,
            lambda u, li=li: u.edge_characterization_check(li.space, li.tree), is_true)

    for h in (gen.caterpillar(s.n(112)), gen.padic(3, s.k(3, 4)), gen.bushy(rng, s.n(64))):
        li = inp(h, tree=False)
        want = h.sphere_plus_center()
        lib("sphere_plus_center_condition", li,
            lambda u, li=li: u.sphere_plus_center_condition(li.space),
            lambda res, want=want: None if res[0] is want and (res[1] is None) is want
            else f"verdict {res[0]}, expected {want}")

    for h in (gen.bushy(rng, s.n(64)), gen.caterpillar(s.n(128))):
        li = inp(h, space=False)
        leaves = [str(v) for v in range(h.vertices) if not h.children[v]]
        mat = tuple(tuple(row) for row in h.leaf_chain_matrix())
        lib("reconstruct_space", li, lambda u, li=li: u.reconstruct_space(li.tree),
            lambda res, leaves=leaves, mat=mat: None
            if list(res.space.names) == leaves and res.space.matrix == mat
            else "reconstructed space differs")

    for h in (gen.caterpillar(s.n(48)), gen.bushy(rng, s.n(32))):
        li = inp(h, space=False)
        pairs = _pairs(rng, h.vertices)

        def check(res, h=h, pairs=pairs):
            if len(res) != h.vertices or not hasattr(res, "rank"):
                return "path-max metric is not an ultrametric on the vertices"
            for a, b in pairs:
                want = 0 if a == b else h.labels[_lca(h, a, b)]
                if res.matrix[a][b] != want:
                    return f"path-max distance {a},{b} differs"
            return None
        lib("path_max_metric", li, lambda u, li=li: u.path_max_metric(li.tree), check)

    h = gen.padic(2, s.k(2, 6))
    for broken in (False, True):
        li = inp(h, space=False, tree=False, poset=gen.poset_json(h, broken))
        lib("check_ballean_poset", li,
            lambda u, li=li: u.check_ballean_poset(*u.poset_from_json(li.poset)),
            lambda res, want=not broken: None if res.accepted is want
            else f"accepted {res.accepted}, expected {want}")

    for h in (gen.bushy(rng, s.n(64)), gen.padic(2, s.k(2, 7))):
        li = inp(h, tree=False)
        mat = tuple(tuple(gen.quantize(v) for v in row) for row in h.matrix())
        lib("quantize_binary", li, lambda u, li=li: u.quantize_binary(li.space),
            lambda res, mat=mat: None if res.matrix == mat else "quantized matrix differs")

    for depth, probe in [(d, False) for d in PASSING_DEPTHS] + [(d, True) for d in FAILING_DEPTHS]:
        h = gen.caterpillar(depth + 1)
        li = inp(h, space=False)
        text = h.canonical_text()
        lib("canonical_code", li, lambda u, li=li: u.canonical_code(li.tree),
            lambda res, text=text: None if res.text == text else "canonical code differs",
            probe=probe)
    return reqs, inputs


def build(workload: str, seed: int, workdir: str, tiny: bool = False):
    """Rounds of requests for a workload, plus library inputs to prepare.

    Writes the CLI input files into `workdir`.  Library inputs are
    returned unprepared; `prepare_inputs` builds them once `ultratree` is
    importable.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(workdir, exist_ok=True)
    master = random.Random(f"{workload}:{seed}")
    rounds, inputs, shared = [], [], {}
    for r in range(ROUNDS):
        s = _Inputs(random.Random(master.getrandbits(64)), workdir, tiny, f"r{r}")
        if workload == "cli-bushy":
            reqs = _cli_bushy_round(s)
        elif workload == "cli-deep":
            reqs = _cli_deep_round(s)
        else:
            reqs, more = _lib_round(s, shared)
            inputs.extend(more)
        for i, req in enumerate(reqs):
            req.rid = f"r{r}.{i}.{req.kind}"
        rounds.append(reqs)
    return rounds, inputs


def prepare_inputs(u, inputs) -> None:
    for li in inputs:
        li.prepare(u)
