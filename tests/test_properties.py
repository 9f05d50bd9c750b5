"""Property tests: the counting engine against independent oracles.

Configurations are small and exact, drawn so that layers overlap, repeat
or are empty, which is where the Möbius correction for shared points has
work to do.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from chain_census.geometry import DistanceSpec, exact_spec
from chain_census.layered import (
    LabeledTree,
    count_chains,
    count_tree_embeddings,
    count_walks,
    enumerate_chains,
    enumerate_walks_count,
    make_config,
    make_layer,
    path_tree,
)
from oracles import backtrack_chains, backtrack_tree_embeddings, product_tree_embeddings

CHECKS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

POINT = st.tuples(st.integers(0, 3), st.integers(0, 3))
POINT_SET = st.lists(POINT, max_size=6, unique=True)


@st.composite
def configs(draw):
    """k+1 layers picked from a small pool of point sets, so layers repeat,
    overlap (the pool's sets share points) or are empty."""
    k = draw(st.integers(1, 4))
    pool = draw(st.lists(POINT_SET, min_size=1, max_size=3))
    layers = [draw(st.sampled_from(pool)) for _ in range(k + 1)]
    delta2 = [draw(st.sampled_from([1, 2, 4, 5])) for _ in range(k)]
    return make_config(layers, delta2)


@st.composite
def trees(draw, max_vertices=6):
    m = draw(st.integers(1, max_vertices))
    edges = []
    for v in range(1, m):
        u = draw(st.integers(0, v - 1))
        edges.append((u, v, draw(st.sampled_from([1, 2, 4]))))
    return LabeledTree(m, tuple(edges))


SMALL_SET = st.lists(POINT, max_size=4, unique=True)


@CHECKS
@given(configs())
def test_chains_match_oracles(cfg):
    got = count_chains(cfg)
    assert got == len(enumerate_chains(cfg)) == backtrack_chains(cfg)


@CHECKS
@given(configs())
def test_walks_match_enumeration(cfg):
    assert count_walks(cfg) == enumerate_walks_count(cfg)


@CHECKS
@given(configs())
def test_chains_at_most_walks(cfg):
    assert count_chains(cfg) <= count_walks(cfg)


@CHECKS
@given(configs())
def test_path_tree_counts_chains(cfg):
    tree = path_tree(cfg.spec.delta2)
    assert count_tree_embeddings(list(cfg.layers), tree, cfg.spec) == count_chains(cfg)


@CHECKS
@given(configs(), st.tuples(st.integers(-50, 50), st.integers(-50, 50)))
def test_reversal_and_translation_invariance(cfg, offset):
    moved = make_config(
        [[tuple(c + o for c, o in zip(p.coords, offset)) for p in ly.points] for ly in cfg.layers],
        cfg.spec.delta2,
    )
    want = count_chains(cfg)
    assert count_chains(cfg.reversed()) == want
    assert count_chains(moved) == want
    assert count_walks(moved) == count_walks(cfg) == count_walks(cfg.reversed())


@CHECKS
@given(trees(), st.lists(SMALL_SET, min_size=1, max_size=3), st.data())
def test_tree_per_vertex_layers(tree, pool, data):
    layers = [make_layer(data.draw(st.sampled_from(pool))) for _ in range(tree.vertex_count)]
    spec = exact_spec()
    want = product_tree_embeddings(layers, tree, spec)
    assert count_tree_embeddings(layers, tree, spec) == want
    assert backtrack_tree_embeddings(layers, tree, spec) == want


@CHECKS
@given(trees(), SMALL_SET)
def test_tree_single_set(tree, points):
    layer = make_layer(points)
    spec = exact_spec()
    assert count_tree_embeddings(layer, tree, spec) == product_tree_embeddings(layer, tree, spec)


@CHECKS
@given(trees(max_vertices=5), SMALL_SET, st.sampled_from([1e-9, 0.5, 1.5, 4.5]))
def test_tree_single_set_tolerant(tree, points, eps):
    # eps >= d2 lets a point stand at distance d2 from itself, so two tree
    # neighbours can share a point and the correction must remove that too
    layer = make_layer([(float(x), float(y)) for x, y in points])
    tree = LabeledTree(tree.vertex_count, tuple((a, b, float(d)) for a, b, d in tree.edges))
    spec = DistanceSpec((), eps)
    assert count_tree_embeddings(layer, tree, spec) == product_tree_embeddings(layer, tree, spec)


def test_fractional_coordinates():
    third = Fraction(1, 3)
    pts = [(0, 0), (third, 0), (2 * third, 0), (third, third)]
    cfg = make_config([pts] * 4, (third**2,) * 3)
    assert count_chains(cfg) == len(enumerate_chains(cfg)) == backtrack_chains(cfg)
