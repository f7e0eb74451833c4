"""Span recorder and wrappers installed on `ultratree` from outside.

`Tracer.install(u)` replaces each listed public function in every
`ultratree` module namespace that binds it, so calls made through
`from .core import ...` are caught as well as calls through the package.
`uninstall()` puts every original back.  Spans (name, start, end,
parent, request id) stay in memory until `dump` writes them as JSON
lines; `reduce` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import time

LAYERS = ("cli", "core", "repr_tree", "balls", "tree_metric", "morphisms", "padic")

# module -> public functions that get a span (and a call count)
SPANNED = {
    "core": ("make_space", "space_from_json", "space_to_json", "is_ultrametric_triangle",
             "is_ultrametric_multipartite", "diametrical_partition", "distance_set"),
    "balls": ("ballean", "ballean_to_json", "hausdorff_ball_space"),
    "repr_tree": ("build_representing_tree", "tree_to_json", "tree_from_json",
                  "verify_tree_invariants", "tree_order", "edge_characterization_check"),
    "tree_metric": ("reconstruct_space", "path_max_metric", "check_ballean_poset",
                    "check_representable", "sphere_plus_center_condition",
                    "maximal_chains", "is_monotone_labeling"),
    "morphisms": ("canonical_code", "spaces_isometric", "weakly_similar", "rank_transform",
                  "apply_preserving", "bound_transform", "quantize_binary"),
    "padic": ("padic_space",),
}
# constructors traced as spans of their own, under these names
INITS = {"core.space_init": ("core", "FiniteMetricSpace"),
         "repr_tree.tree_init": ("repr_tree", "RootedLabeledTree")}
# hot leaf functions: a call count only, since a span per call would
# cost more than the call
COUNTED = {"core": ("parse_rational", "format_rational"), "padic": ("p_valuation",)}
# the same-named cli spans
CLI_SPANS = ("cli.run", "cli.json_load", "cli.emit")
VALIDATIONS = ("core.make_space", "core.space_init", "core.is_ultrametric_triangle",
               "core.is_ultrametric_multipartite")


def span_names() -> list[str]:
    names = list(CLI_SPANS)
    for mod, fns in SPANNED.items():
        names += [f"{mod}.{fn}" for fn in fns]
    return names + list(INITS)


def counter_names() -> list[str]:
    names = [f"{mod}.{fn}.calls" for mod, fns in COUNTED.items() for fn in fns]
    return names + ["cli.json_load.bytes", "cli.emit.bytes", "core.space_init.entries",
                    "repr_tree.tree_init.vertices", "balls.ballean.balls",
                    "morphisms.canonical_code.chars", "morphisms.canonical_code.errors",
                    "core.distinct_spaces"]


def _input_error(exc: BaseException, u) -> bool:
    """Errors the library documents for bad input; anything else is a fault."""
    return isinstance(exc, (ValueError, TypeError, KeyError, u.cli.InputError))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, request]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.request = None
        self._patches: list[tuple[object, str, object]] = []
        self._seen_matrices: set = set()

    # -- recording ----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.request])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name, fn, u, after=None, before=None):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(idx)
                if name == "morphisms.canonical_code":
                    self.add("morphisms.canonical_code.errors")
                outer = self.parent_name()
                if not _input_error(exc, u) and (outer is None or not outer.startswith(layer + ".")):
                    self.errors[layer] = self.errors.get(layer, 0) + 1
                raise
            self.end(idx)
            if after:
                after(args, result, token)
            return result
        return wrapper

    def _counted(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(key)
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, u, original, new) -> None:
        for mod in (u, u.core, u.balls, u.repr_tree, u.tree_metric, u.morphisms, u.padic, u.cli):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self, u) -> None:
        """Wrap the listed functions of the imported `ultratree` package `u`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        after = {
            "core.make_space": self._new_space,
            "core.is_ultrametric_triangle": self._raw_matrix(u),
            "core.is_ultrametric_multipartite": self._raw_matrix(u),
            "balls.ballean": lambda a, r, t: self.add("balls.ballean.balls", len(r)),
            "morphisms.canonical_code":
                lambda a, r, t: self.add("morphisms.canonical_code.chars", len(r.text)),
        }
        for mod, fns in SPANNED.items():
            for fn in fns:
                name = f"{mod}.{fn}"
                original = getattr(getattr(u, mod), fn)
                self._patch_everywhere(u, original, self._spanned(name, original, u, after.get(name)))
        for mod, fns in COUNTED.items():
            for fn in fns:
                original = getattr(getattr(u, mod), fn)
                self._patch_everywhere(u, original, self._counted(f"{mod}.{fn}.calls", original))

        def space_init(args, result, token):
            self.add("core.space_init.entries", len(args[0].names) ** 2)
            if self.parent_name() != "core.make_space":
                self.add("core.distinct_spaces")

        def tree_init(args, result, token):
            self.add("repr_tree.tree_init.vertices", args[0].n)

        for name, hook in (("core.space_init", space_init), ("repr_tree.tree_init", tree_init)):
            mod, cls = INITS[name]
            klass = getattr(getattr(u, mod), cls)
            self._patch(klass, "__init__", self._spanned(name, klass.__init__, u, hook))

        cli = u.cli
        self._patch(cli, "run", self._spanned("cli.run", cli.run, u))
        self._patch(cli, "_emit", self._spanned(
            "cli.emit", cli._emit, u,
            before=lambda a: cli.sys.stdout.tell(),
            after=lambda a, r, pos: self.add("cli.emit.bytes", cli.sys.stdout.tell() - pos)))

        real_json = cli.json

        def load_bytes(args, result, token):
            self.add("cli.json_load.bytes", os.fstat(args[0].fileno()).st_size)

        class JsonAsSeenByCli:
            load = staticmethod(self._spanned("cli.json_load", real_json.load, u, load_bytes))
            dumps = staticmethod(real_json.dumps)
            JSONDecodeError = real_json.JSONDecodeError

        self._patch(cli, "json", JsonAsSeenByCli)

    def _new_space(self, args, result, token):
        self.add("core.distinct_spaces")

    def _raw_matrix(self, u):
        def hook(args, result, token):
            arg = args[0]
            key = (self.request, id(arg))
            if not isinstance(arg, u.FiniteMetricSpace) and key not in self._seen_matrices:
                self._seen_matrices.add(key)
                self.add("core.distinct_spaces")
        return hook

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._seen_matrices.clear()

    # -- output -------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, req in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "request": req}) + "\n")

    def reduce(self, wall_ns: int) -> dict:
        """Per-span self time, per-layer totals, and the unspanned remainder.

        Self time is a span's duration minus its direct children's, so the
        self times sum to the root spans' total and, with the remainder,
        to `wall_ns`.
        """
        child_ns = [0] * len(self.spans)
        calls: dict[str, int] = {}
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
            calls[name] = calls.get(name, 0) + 1
        self_ns: dict[str, int] = {}
        root_ns = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_ns[name] = self_ns.get(name, 0) + (end - start) - child_ns[i]
            if parent < 0:
                root_ns += end - start
        total_self = sum(self_ns.values())
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
            out[f"{name}.calls"] = calls.get(name, 0)
        for key in counter_names():
            out[key] = self.counts.get(key, 0)
        for layer in LAYERS:
            layer_ns = sum(v for k, v in self_ns.items() if k.startswith(layer + "."))
            out[f"{layer}.self_s"] = layer_ns / 1e9
            out[f"{layer}.self_frac"] = layer_ns / total_self if total_self else 0.0
            out[f"{layer}.errors"] = self.errors.get(layer, 0)
        validations = sum(calls.get(name, 0) for name in VALIDATIONS)
        spaces = self.counts.get("core.distinct_spaces", 0)
        out["core.validations_per_space"] = validations / spaces if spaces else 0.0
        out["trace.wall_s"] = wall_ns / 1e9
        out["trace.self_sum_s"] = total_self / 1e9
        out["trace.unspanned_s"] = (wall_ns - root_ns) / 1e9
        out["trace.spans"] = len(self.spans)
        return out
