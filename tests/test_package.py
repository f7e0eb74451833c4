"""The package's public names, and the modules each CLI verb loads."""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import subprocess
import sys

import pytest

import ultratree
from ultratree import canonical_code, build_representing_tree, space_to_json
from util import nested_four_point_space

PUBLIC = [
    "Ball", "BallPoset", "Ballean", "CanonicalCode", "FiniteMetricSpace",
    "FiniteUltrametricSpace", "HausdorffBallSpace", "InvariantReport", "MaxChain",
    "MaxChainSpace", "MultipartitePartition", "NotUltrametricError", "PAdicValuation",
    "PiecewiseLinearFn", "PosetCheckReport", "PreservingFunctionError",
    "PseudoUltrametricSpace", "Representability", "RootedLabeledTree", "ScalingFunction",
    "SpaceValidationError", "TreeOrder", "apply_preserving", "ball_poset", "ballean",
    "ballean_to_json", "balls", "bethe_ball_tree", "bound_transform", "brute_force_isometry",
    "build_representing_tree", "canonical_code", "check_ballean_poset", "check_representable",
    "closed_ball", "core", "diam", "diametrical_partition", "distance_set",
    "edge_characterization_check", "extend_scaling_function", "format_rational",
    "hausdorff_ball_space", "hausdorff_distance", "hausdorff_distance_direct",
    "is_monotone_labeling", "is_prime", "is_ultrametric_multipartite",
    "is_ultrametric_triangle", "make_space", "maximal_chains", "morphisms", "p_valuation",
    "padic", "padic_ball_tree_vs_sample", "padic_metric", "padic_space", "parse_rational",
    "path_max_metric", "poset_from_json", "quantize_binary", "quantize_ladder",
    "rank_transform", "reconstruct_space", "repr_tree", "residue_partition_check",
    "smallest_enclosing_ball", "space_from_json", "space_from_sequence", "space_to_json",
    "spaces_isometric", "sphere_plus_center_condition", "sphere_tree", "threshold_function",
    "threshold_partition", "tree_from_json", "tree_metric", "tree_order", "tree_to_dot",
    "tree_to_json", "unbound_transform", "verify_tree_invariants", "weak_similarity_check",
    "weakly_similar",
]
SUBMODULES = {"core", "balls", "repr_tree", "tree_metric", "morphisms", "padic"}


def test_all_is_the_pinned_public_names():
    assert len(PUBLIC) == 84
    assert ultratree.__all__ == PUBLIC


def test_every_public_name_is_its_submodules_attribute():
    for name in PUBLIC:
        obj = getattr(ultratree, name)
        if name in SUBMODULES:
            assert obj is importlib.import_module(f"ultratree.{name}")
        else:
            assert obj.__module__ in {f"ultratree.{m}" for m in SUBMODULES}
            assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from ultratree import *", namespace)
    assert {name: namespace[name] for name in PUBLIC} == \
        {name: getattr(ultratree, name) for name in PUBLIC}
    assert set(PUBLIC) <= set(dir(ultratree))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ultratree.no_such_name


def test_a_wrapper_on_a_submodule_is_what_the_package_returns(monkeypatch):
    original = ultratree.core.make_space

    def wrapper(*args):
        return original(*args)

    monkeypatch.setattr(ultratree.core, "make_space", wrapper)
    assert ultratree.make_space is wrapper
    monkeypatch.undo()
    assert ultratree.make_space is original
    assert "make_space" not in vars(ultratree)


def test_canonical_code_digest_is_the_sha256_of_its_text():
    code = canonical_code(build_representing_tree(nested_four_point_space()))
    assert code.digest == hashlib.sha256(code.text.encode()).hexdigest()
    assert repr(code) == f"<CanonicalCode {code.digest[:12]}>"


CHILD = """
import json, sys
from ultratree.cli import run
try:
    run(sys.argv[1:])
except SystemExit:   # argparse's help
    pass
print(json.dumps(sorted(sys.modules)))
"""


def _modules_loaded_by(*argv: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ultratree.__file__)))
    # -S: no site hooks run, so every module listed was loaded by the verb
    proc = subprocess.run([sys.executable, "-S", "-c", CHILD, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_each_verb_loads_only_the_modules_it_runs(tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps(space_to_json(nested_four_point_space())))
    points = tmp_path / "points.json"
    points.write_text(json.dumps([0, 1, 2, 3]))
    loaded = {verb: _modules_loaded_by(verb, str(space))
              for verb in ("check", "dset", "balls", "tree")}
    for verb in ("iso", "weaksim"):
        loaded[verb] = _modules_loaded_by(verb, str(space), str(space))
    loaded["transform"] = _modules_loaded_by("transform", "--fn", "quantize", str(space))
    loaded["padic"] = _modules_loaded_by("padic", "--prime", "2", "--points", str(points))
    tree = os.path.join(os.path.dirname(__file__), "data", "four_point_tree.json")
    loaded["reconstruct"] = _modules_loaded_by("reconstruct", tree)
    loaded["representable"] = _modules_loaded_by("representable", tree)
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps({"elements": ["X", "a", "b"], "covers": [[1, 0], [2, 0]]}))
    loaded["posetcheck"] = _modules_loaded_by("posetcheck", str(poset))
    base = {"ultratree", "ultratree.cli", "ultratree.core"}
    # `balls` reads the ballean off core's ball tree, without `repr_tree`;
    # no other verb below reads the ballean, so none other loads `balls`;
    # `iso` and `weaksim` decide on core's ball tree too, and `padic`
    # builds no tree, so none of the next four loads `repr_tree`
    expected = {
        "check": base, "dset": base, "balls": base | {"ultratree.balls"},
        "tree": base | {"ultratree.repr_tree"},
        "iso": base | {"ultratree.morphisms"},
        "weaksim": base | {"ultratree.morphisms"},
        "transform": base | {"ultratree.morphisms"},
        "padic": base | {"ultratree.padic"},
        "reconstruct": base | {"ultratree.repr_tree", "ultratree.tree_metric"},
        "representable": base | {"ultratree.repr_tree", "ultratree.tree_metric"},
        "posetcheck": base | {"ultratree.repr_tree", "ultratree.tree_metric"},
    }
    assert {verb: {m for m in modules if m.startswith("ultratree")}
            for verb, modules in loaded.items()} == expected
    for verb, modules in loaded.items():
        assert "hashlib" not in modules, verb
        # argv is read off the verb table: argparse, and the gettext and locale it
        # imports, load only for help and usage errors
        assert not modules & {"argparse", "gettext", "locale"}, verb
    assert "argparse" in _modules_loaded_by("check", "-h")
