"""Exact counting and extremal constructions for distance-labeled chains
and trees in finite point sets."""

from .geometry import (
    CertificationError,
    Circle3D,
    DistanceSpec,
    NoRationalPointError,
    Point,
    circle_circle_intersection,
    exact_point,
    exact_spec,
    float_point,
    matches_distance,
    rational_circle_points,
    sample_circle_3d,
    sphere_sphere_intersection_circle,
    squared_distance,
    tolerant_spec,
)
from .layered import (
    BipartiteAdjacency,
    LabeledTree,
    Layer,
    LayeredConfig,
    build_adjacency,
    certify_config,
    count_chains,
    count_incidences,
    count_tree_embeddings,
    count_walks,
    make_config,
    make_layer,
    path_tree,
)
from .richness import (
    CoveringClass,
    DecompositionSequence,
    rich_points,
    stable_covering,
)
from .constructions import (
    ConstructionError,
    gen_3d_even,
    gen_3d_odd_regular,
    gen_3d_odd_sphere,
    gen_orthogonal_circles,
    gen_planar_chain,
    gen_planar_k1mod3,
    gen_star,
    gen_star_of_paths,
    gen_unit_rich_grid,
    peel_min_degree,
    split_and_translate,
)
from .experiment import (
    ExperimentReport,
    FitResult,
    fit_exponent,
    run_experiment,
    verify_closed_form,
    verify_covering,
    verify_floor,
)

__version__ = "0.1.0"
