"""Finite ultrametric spaces: balls, representing trees, isometry, transforms.

`ultratree.X` imports the submodule that defines X on first use (PEP 562)
and returns its current attribute; no resolved name is cached here.
"""

import importlib

_EXPORTS = {
    "core": (
        "FiniteMetricSpace", "FiniteUltrametricSpace", "MultipartitePartition",
        "NotUltrametricError", "SpaceValidationError", "diam", "diametrical_partition",
        "distance_set", "is_ultrametric_multipartite", "is_ultrametric_triangle",
        "make_space", "parse_rational", "format_rational", "space_from_json",
        "space_from_sequence", "space_to_json", "spaces_isometric", "threshold_partition",
        "weakly_similar",
    ),
    "balls": (
        "Ball", "Ballean", "BallPoset", "HausdorffBallSpace", "ball_poset", "ballean",
        "ballean_to_json", "closed_ball", "hausdorff_ball_space", "hausdorff_distance",
        "hausdorff_distance_direct", "smallest_enclosing_ball",
    ),
    "repr_tree": (
        "MaxChain", "MaxChainSpace", "Representability", "RootedLabeledTree",
        "build_representing_tree", "check_representable", "is_monotone_labeling",
        "maximal_chains", "reconstruct_space", "tree_from_json", "tree_to_dot", "tree_to_json",
    ),
    "tree_metric": (
        "InvariantReport", "PosetCheckReport", "PseudoUltrametricSpace", "TreeOrder",
        "check_ballean_poset", "edge_characterization_check", "path_max_metric",
        "poset_from_json", "sphere_plus_center_condition", "tree_order", "verify_tree_invariants",
    ),
    "morphisms": (
        "CanonicalCode", "PiecewiseLinearFn", "PreservingFunctionError", "ScalingFunction",
        "apply_preserving", "bound_transform", "brute_force_isometry", "canonical_code",
        "extend_scaling_function", "quantize_binary", "quantize_ladder", "rank_transform",
        "threshold_function", "unbound_transform", "weak_similarity_check",
    ),
    "padic": (
        "PAdicValuation", "bethe_ball_tree", "is_prime", "p_valuation",
        "padic_ball_tree_vs_sample", "padic_metric", "padic_space",
        "residue_partition_check", "sphere_tree",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    sub = _MODULE_OF.get(name, name)
    if sub not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import system binds each submodule here once it has run
    module = globals().get(sub) or importlib.import_module(f".{sub}", __name__)
    return module if sub == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
