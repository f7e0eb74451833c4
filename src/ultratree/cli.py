"""Command-line front end.

Every verb maps to one library pipeline and prints deterministic JSON (or
DOT); its handler imports only the submodules it runs.  A named verb's argv
is read off the verb table, `_VERBS`; argparse loads only for help and usage
errors.  Exit codes: 0 for success or a positive decision, 1 for a negative
decision, 2 for input errors, 3 for internal errors (any other exception,
reported as one `internal error: <Type>: <message>` line on stderr).  `run`
returns the code; `main` flushes and leaves through `os._exit`, so no
atexit hook runs in the `ultratree` process.

`check` runs one ultrametricity test, the O(n^2) single-linkage pass
that every space constructor also runs, and prints a sorted violating
triple on failure; the test suite cross-checks it against the O(n^3)
triple scan and the threshold-graph test.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import core


class InputError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:   # or nested too deeply
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # a number over Python's int digit limit
        raise InputError(f"{path}: {exc}") from exc


def _decode(path: str, build):
    """`build` applied to the JSON in `path`; what it refuses is an input error."""
    obj = _load_json(path)
    try:
        return build(obj)
    except (ValueError, TypeError, KeyError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _argument(build, *args):
    """`build(*args)`; what it refuses concerns an argument, and names no file."""
    try:
        return build(*args)
    except ValueError as exc:   # PreservingFunctionError among them
        raise InputError(str(exc)) from exc


def _load_ultrametric(path: str) -> core.FiniteUltrametricSpace:
    space = _decode(path, core.space_from_json)
    if not isinstance(space, core.FiniteUltrametricSpace):
        i, j, k = space._strong_witness
        raise InputError(
            f"{path}: not ultrametric, witness triple "
            f"({space.names[i]},{space.names[j]},{space.names[k]})"
        )
    return space


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _cmd_check(args) -> int:
    # validated and ranked with the file's own names, but with no triangle
    # inequality required: check decides matrices that fail it
    ranked = _decode(args.space, lambda obj: core._RankedMatrix(
        *core._document(obj, "space", "points", "matrix")))
    ok, witness = core.is_ultrametric_triangle(ranked)
    _emit({
        "ultrametric": ok,
        "witness": None if witness is None else [ranked.names[i] for i in witness],
    })
    return 0 if ok else 1


def _cmd_dset(args) -> int:
    space = _decode(args.space, core.space_from_json)
    _emit({"distances": [core.format_rational(v) for v in core.distance_set(space)]})
    return 0


def _cmd_balls(args) -> int:
    from . import balls
    space = _load_ultrametric(args.space)
    _emit(balls.ballean_to_json(balls.ballean(space)))
    return 0


def _cmd_tree(args) -> int:
    from . import repr_tree
    space = _load_ultrametric(args.space)
    tree = repr_tree.build_representing_tree(space)
    if args.dot:
        sys.stdout.write(repr_tree.tree_to_dot(tree))
    else:
        _emit(repr_tree.tree_to_json(tree))
    return 0


def _cmd_pair(args) -> int:
    # iso and weaksim: one decision on two spaces, printed under its own key
    from . import morphisms
    key, decide = {"iso": ("isometric", morphisms.spaces_isometric),
                   "weaksim": ("weakly_similar", morphisms.weakly_similar)}[args.command]
    a = _load_ultrametric(args.space_a)
    b = _load_ultrametric(args.space_b)
    verdict = decide(a, b)
    _emit({key: verdict})
    return 0 if verdict else 1


def _cmd_reconstruct(args) -> int:
    from . import repr_tree, tree_metric
    rebuilt = _decode(args.tree, lambda obj: tree_metric.reconstruct_space(
        repr_tree.tree_from_json(obj)))
    _emit(core.space_to_json(rebuilt.space))
    return 0


def _cmd_representable(args) -> int:
    from . import repr_tree, tree_metric
    tree = _decode(args.tree, repr_tree.tree_from_json)
    result = tree_metric.check_representable(tree)
    _emit({"accepted": result.accepted, "root": result.root, "reason": result.reason})
    return 0 if result.accepted else 1


def _cmd_posetcheck(args) -> int:
    from . import tree_metric
    report = _decode(args.poset, lambda obj: tree_metric.check_ballean_poset(
        *tree_metric.poset_from_json(obj)))
    _emit({key: getattr(report, key) for key in (
        "accepted", "has_largest", "unique_upper_cover", "upper_witness", "lower_covers_ok",
        "lower_witness", "covers_are_covering_relation")})
    return 0 if report.accepted else 1


def _parse_fn(spec: str, space: core.FiniteUltrametricSpace):
    from . import morphisms
    if spec == "quantize":
        return morphisms.quantize_binary(space)
    if ":" in spec:
        verb, _, raw = spec.partition(":")
        value = core.parse_rational(raw)
        if verb == "bound":
            return morphisms.bound_transform(space, value)
        if verb == "unbound":
            return morphisms.unbound_transform(space, value)
        if verb == "threshold":
            return morphisms.apply_preserving(space, morphisms.threshold_function(value))
    raise InputError(
        f"unknown transform {spec!r}; use bound:D|unbound:D|threshold:R|quantize"
    )


def _cmd_transform(args) -> int:
    space = _load_ultrametric(args.space)
    _emit(core.space_to_json(_argument(_parse_fn, args.fn, space)))
    return 0


def _cmd_padic(args) -> int:
    from . import padic
    prime = _argument(padic._require_prime, args.prime)   # checked before the file is read

    def build(obj):
        if not isinstance(obj, list):
            raise ValueError("expected a JSON array of rationals")
        return padic.padic_space(obj, prime)
    _emit(core.space_to_json(_decode(args.points, build)))
    return 0


def _cmd_bethe(args) -> int:
    from . import padic, repr_tree
    build = padic.sphere_tree if args.sphere else padic.bethe_ball_tree
    _emit(repr_tree.tree_to_json(_argument(build, args.prime, args.depth, args.top)))
    return 0


def _cmd_roundtrip(args) -> int:
    from . import morphisms, repr_tree, tree_metric
    space = _load_ultrametric(args.space)
    tree = repr_tree.build_representing_tree(space)
    rebuilt = tree_metric.reconstruct_space(tree)
    verdict = morphisms.spaces_isometric(space, rebuilt.space)
    _emit({"points": len(space), "balls": tree.n, "isometric": verdict})
    return 0 if verdict else 1


_PRIME = ("--prime", {"type": int, "required": True})
# verb -> (help, handler's name, arguments: a positional's name or (name, add_argument options))
_VERBS = {
    "check": ("test ultrametricity, with a witness on failure", "_cmd_check", ["space"]),
    "dset": ("print the distance set", "_cmd_dset", ["space"]),
    "balls": ("enumerate the ballean", "_cmd_balls", ["space"]),
    "tree": ("build the representing tree", "_cmd_tree",
             ["space", ("--dot", {"action": "store_true", "help": "emit DOT instead of JSON"})]),
    "iso": ("decide isometry of two spaces", "_cmd_pair", ["space_a", "space_b"]),
    "weaksim": ("decide weak similarity of two spaces", "_cmd_pair", ["space_a", "space_b"]),
    "reconstruct": ("rebuild the space a monotone tree represents", "_cmd_reconstruct", ["tree"]),
    "representable": ("can this labeled tree represent a space?", "_cmd_representable", ["tree"]),
    "posetcheck": ("is this poset a ball lattice?", "_cmd_posetcheck", ["poset"]),
    "transform": ("apply a distance transform", "_cmd_transform", [
        ("--fn", {"required": True, "help": "bound:D | unbound:D | threshold:R | quantize"}),
        "space"]),
    "padic": ("build a p-adic sample space", "_cmd_padic",
              [_PRIME, ("--points", {"required": True, "help": "JSON array of rationals"})]),
    "bethe": ("generate a depth-limited p-adic ball/sphere tree", "_cmd_bethe", [
        _PRIME, ("--depth", {"type": int, "required": True}),
        ("--top", {"default": "1", "help": "label of the root (default 1)"}),
        ("--sphere", {"action": "store_true"})]),
    "roundtrip": ("space -> tree -> space, isometry verdict", "_cmd_roundtrip", ["space"]),
}


def _read_argv(argv):
    """`build_parser().parse_args(argv)` read off `_VERBS`, or None to leave argv to argparse.

    Read: a verb, then its positionals and exact long options, each valued option
    followed by its value, where no positional or value starts with "-"."""
    if not argv or argv[0] not in _VERBS:
        return None
    _, handler, arguments = _VERBS[argv[0]]
    options = dict(arg for arg in arguments if not isinstance(arg, str))
    values = {o[2:]: s.get("default", False if "action" in s else None) for o, s in options.items()}
    positionals, tokens = [], iter(argv[1:])
    try:   # a value `int` refuses, or a miscount of positionals: argparse words the error
        for token in tokens:
            spec = options.get(token)
            if spec is None:
                positionals.append(token)
            elif "action" in spec:   # store_true, the one action the table uses
                values[token[2:]] = True
            elif (value := next(tokens, "-")).startswith("-"):
                return None
            else:
                values[token[2:]] = spec.get("type", str)(value)
        values.update(zip((a for a in arguments if isinstance(a, str)), positionals, strict=True))
    except ValueError:
        return None
    if any(p.startswith("-") for p in positionals) or None in values.values():
        return None   # None is left by a required option, the only ones with no default
    return SimpleNamespace(command=argv[0], handler=handler, **values)


def build_parser():
    """The argparse parser of every verb: help, and the text of every usage error."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="ultratree",
        description="Finite ultrametric spaces: balls, representing trees, "
                    "isometry, transforms, p-adic generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (what, handler, arguments) in _VERBS.items():
        p = sub.add_parser(verb, help=what)
        for arg in arguments:
            name, options = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(name, **options)
        p.set_defaults(handler=handler)
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse answers what the verb table leaves: help, usage errors, other forms
    args = _read_argv(argv) or build_parser().parse_args(argv)
    try:
        # looked up by name, so a handler replaced on this module is the one run
        return globals()[args.handler](args)
    except (InputError, core.SpaceValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


def main() -> None:
    code = run()
    try:   # flushed, the process leaves without interpreter teardown or atexit hooks
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:   # a broken or missing stream: the interpreter's own exit, as before
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
