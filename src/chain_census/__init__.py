"""Exact counting and extremal constructions for distance-labeled chains
and trees in finite point sets.  Public names are imported from their
modules on first use (PEP 562): importing the package loads none of them."""

import importlib

__version__ = "0.1.0"

# module: the public names it gives the package
_EXPORTS = {
    "geometry": "CertificationError Circle3D DistanceSpec NoRationalPointError Point exact_point exact_spec"
    " float_point rational_circle_points sample_circle_3d sphere_sphere_intersection_circle squared_distance"
    " tolerant_spec",
    "layered": "BipartiteAdjacency LabeledTree Layer LayeredConfig build_adjacency count_chains"
    " count_incidences count_tree_embeddings count_walks make_config make_layer path_tree",
    "richness": "CoveringClass DecompositionSequence rich_points stable_covering",
    "constructions": "ConstructionError gen_3d_even gen_3d_odd_regular gen_3d_odd_sphere gen_orthogonal_circles"
    " gen_planar_chain gen_planar_k1mod3 gen_star gen_star_of_paths gen_unit_rich_grid peel_min_degree"
    " split_and_translate",
    "experiment": "ExperimentReport FitResult fit_exponent run_experiment verify_closed_form verify_covering"
    " verify_floor",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # not cached in the package: a name always resolves to what its module holds now
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_MODULE_OF])
