"""Property tests: the counting engine, the pair kernel, the covering
search, the rational circle points and the array circle intersections
against independent oracles.

Configurations are small and exact, drawn so that layers overlap, repeat
or are empty, which is where the Möbius correction for shared points has
work to do.  The pair kernel is checked against the pair-by-pair
predicate ``matches_distance``, with row tiles of any height, on both
sides of its int32 and int64 bounds, far from the origin, at tiny radii
and in the guard band.
"""

import bisect
import itertools
import math
import operator
import os
import tempfile
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from chain_census import layered, richness
from chain_census.io import FileFormatError, _exact_coords, read_coords, read_points
from chain_census.constructions import (
    _dyadic_below,
    _exact_arc,
    _float_arc,
    _matched,
    _popular_sq_distance,
    gen_orthogonal_circles,
    gen_star,
)
from chain_census.geometry import (
    CertificationError,
    DistanceSpec,
    Point,
    exact_point,
    exact_spec,
    rational_circle_points,
    rational_point_on_circle,
    squared_distance,
)
from chain_census.layered import (
    BipartiteAdjacency,
    LabeledTree,
    Layer,
    _chain_tree,
    _coord_classes,
    _pair_lists,
    _PairView,
    _primes,
    _tree_counter,
    build_adjacency,
    count_chains,
    count_chains_and_walks,
    count_incidences,
    count_tree_embeddings,
    count_walks,
    make_config,
    make_layer,
    path_tree,
)
from chain_census.richness import degree_vector, richness_thresholds, stable_covering
from oracles import (
    adjacency_oracle,
    backtrack_chains,
    backtrack_tree_embeddings,
    circle_circle_intersection,
    circle_point_oracle,
    circle_points_oracle,
    covering_oracle,
    enumerate_chains,
    enumerate_walks_count,
    exact_arc_oracle,
    read_points_oracle,
    float_arc_oracle,
    filtering_children,
    matches_distance,
    neighbors,
    product_tree_embeddings,
    restrict_oracle,
    reversed_config,
    thresholds_oracle,
)

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
    assert count_chains(reversed_config(cfg)) == want
    assert count_chains(moved) == want
    assert count_walks(moved) == count_walks(cfg) == count_walks(reversed_config(cfg))


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


def wide(counter):
    """The counter with its state arrays forced to Python ints."""
    counter.dtype = object
    return counter


@st.composite
def aliased_configs(draw):
    """k+1 layers, k <= 5, each one of a few point tuples reused by
    identity, as a manifest that names one file for several layers."""
    k = draw(st.integers(1, 5))
    pool = [make_layer(points) for points in draw(st.lists(SMALL_SET, min_size=1, max_size=3))]
    layers = [draw(st.sampled_from(pool)) for _ in range(k + 1)]
    return make_config(layers, [draw(st.sampled_from([1, 2, 4, 5])) for _ in range(k)])


@CHECKS
@given(aliased_configs())
def test_aliased_layers_match_enumeration(cfg):
    want = len(enumerate_chains(cfg)), enumerate_walks_count(cfg)
    assert count_chains_and_walks(cfg) == want
    counter = wide(_chain_tree(cfg))
    walks = counter.homs()
    assert (counter.injective(walks), walks) == want


@st.composite
def disjoint_point_sets(draw, count):
    """`count` sets of up to four points of the 5 x 5 grid, no point in two."""
    grid = draw(st.permutations([(x, y) for x in range(5) for y in range(5)]))
    ends = list(itertools.accumulate(draw(st.lists(st.integers(0, 4), min_size=count, max_size=count)), initial=0))
    return [grid[a:b] for a, b in zip(ends, ends[1:])]


@CHECKS
@given(st.data(), trees(), st.sampled_from([None, 1e-9]))
def test_disjoint_stores_count_without_sorts_or_class_sets(data, tree, eps):
    # each layer its own object, no point in two of them: no two vertices
    # may share a point, so the walk pass over the CSR arrays as given is
    # the whole count, in int64 and in Python ints; no edge is sorted and
    # no class set is built
    sets = data.draw(disjoint_point_sets(tree.vertex_count))
    spec = exact_spec() if eps is None else DistanceSpec((), eps)
    if eps is not None:
        sets = [[(float(x), float(y)) for x, y in s] for s in sets]
        tree = LabeledTree(tree.vertex_count, tuple((a, b, float(d)) for a, b, d in tree.edges))
    layers = [make_layer(s) for s in sets]
    cfg = make_config(layers, [d2 for _, _, d2 in tree.edges], eps)
    want = backtrack_chains(cfg), enumerate_walks_count(cfg)
    want_tree = backtrack_tree_embeddings(layers, tree, spec)
    with (
        mock.patch.object(layered, "_transpose", wraps=layered._transpose) as transpose,
        mock.patch.object(layered._CountTree, "sets", new_callable=mock.PropertyMock) as class_sets,
    ):
        assert count_chains_and_walks(cfg) == want
        counter = wide(_chain_tree(cfg))
        walks = counter.homs()
        assert (counter.injective(walks), walks) == want
        assert count_tree_embeddings(layers, tree, spec) == want_tree
        assert wide(_tree_counter(layers, tree, spec)).injective() == want_tree
    assert transpose.call_count == 0 and class_sets.call_count == 0


@st.composite
def reordered_configs(draw):
    """Layers from a small pool of point sets and one layer that repeats
    an earlier layer's points in another order, so its coordinate classes
    do not ascend with its point indices."""
    k = draw(st.integers(1, 4))
    pool = draw(st.lists(st.lists(POINT, min_size=2, max_size=6, unique=True), min_size=1, max_size=3))
    layers = [draw(st.sampled_from(pool)) for _ in range(k)]
    at = draw(st.integers(1, k))
    shuffled = draw(st.permutations(layers[at - 1]).filter(lambda pts: pts != layers[at - 1]))
    layers.insert(at, shuffled)
    return make_config(layers, [draw(st.sampled_from([1, 2, 4, 5])) for _ in range(k)])


@CHECKS
@given(reordered_configs())
def test_count_tree_edge_order_is_the_lexsort(cfg):
    # whichever sort _CountTree picks for a run, its edges are ordered by
    # parent point, then by the class of the child point
    adj = build_adjacency(cfg)
    tree = _chain_tree(cfg)
    assert not all(np.all(c[1:] >= c[:-1]) for c in tree.classes)
    for u, (offsets, p) in enumerate(adj.pairs):
        q = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        by = np.lexsort((tree.classes[u][q], p))
        got_q, got_p, csr = tree.run(u)
        assert got_q.tolist() == q[by].tolist() and got_p.tolist() == p[by].tolist()
        assert got_q[csr].tolist() == q.tolist()


@CHECKS
@given(st.data(), st.sampled_from([0, 1, 7, 256, (1 << 16) - 1, 1 << 16, (1 << 16) + 5]))
def test_transpose_lists_the_edges_as_the_lexsort(data, n):
    # rows of ascending distinct indices, empty rows and an empty other
    # side included; from 2^16 other-side points the indices sort as
    # uint32, where numpy's stable sort is not a radix sort
    row = st.lists(st.integers(0, n - 1), unique=True).map(sorted) if n else st.just([])
    rows = data.draw(st.lists(row, max_size=12))
    offsets = np.array([0, *itertools.accumulate(map(len, rows))], np.intp)
    indices = np.array([q for r in rows for q in r], np.intp)
    back_offsets, back_indices, by = layered._transpose(offsets, indices, n)
    q = np.repeat(np.arange(len(rows)), np.diff(offsets))
    assert by.tolist() == np.lexsort((q, indices)).tolist()
    assert back_indices.tolist() == q[by].tolist()
    assert back_offsets.tolist() == np.searchsorted(indices[by], np.arange(n + 1)).tolist()


@CHECKS
@given(trees(), SMALL_SET, st.sampled_from([None, 1e-9, 1.5, 4.5]))
def test_single_set_trees_in_both_dtypes(tree, points, eps):
    # non-adjacent vertices share the set's classes; a tolerance above an
    # edge's d2 lets a point match itself, so neighbours share them too
    layer, spec = make_layer(points), exact_spec()
    if eps is not None:
        layer, spec = make_layer([(float(x), float(y)) for x, y in points]), DistanceSpec((), eps)
        tree = LabeledTree(tree.vertex_count, tuple((a, b, float(d)) for a, b, d in tree.edges))
    want = product_tree_embeddings(layer, tree, spec)
    assert count_tree_embeddings(layer, tree, spec) == want
    assert wide(_tree_counter(layer, tree, spec)).injective() == want


@st.composite
def deep_trees(draw):
    """A path 0-1-2-3 with up to two more vertices hung anywhere: vertices
    three apart, whose block a carrying push meets two vertices below the
    one where it closes."""
    m = draw(st.integers(4, 6))
    edges = [(v - 1, v) for v in range(1, 4)] + [(draw(st.integers(0, v - 1)), v) for v in range(4, m)]
    return LabeledTree(m, tuple((a, b, draw(st.sampled_from([1, 2, 4]))) for a, b in edges))


@CHECKS
@given(
    st.integers(3, 5),
    deep_trees(),
    st.lists(st.lists(POINT, min_size=1, max_size=4, unique=True), min_size=1, max_size=2),
    st.sampled_from([None, 1e-9, 1.5]),
    st.data(),
)
def test_blocks_closing_above_their_carry(k, tree, pool, eps, data):
    # every position reads one of one or two point sets, so blocks span
    # three or more vertices: the push that carries such a block and the
    # one above it that closes it run as one (a tree's tolerance of 1.5
    # also lets neighbours share a point); int64 and Python ints alike
    spec = exact_spec() if eps is None else DistanceSpec((), eps)
    num = (lambda x: x) if eps is None else float
    pool = [make_layer([(num(x), num(y)) for x, y in s]) for s in pool]
    layers = [data.draw(st.sampled_from(pool)) for _ in range(k + 1)]
    delta2 = [num(data.draw(st.sampled_from([1, 2, 4, 5]))) for _ in range(k)]
    cfg = make_config(layers, delta2, None if eps is None else 1e-9)  # a chain's spec asks eps < d2/100
    want = backtrack_chains(cfg), enumerate_walks_count(cfg)
    assert count_chains_and_walks(cfg) == want
    counter = wide(_chain_tree(cfg))
    walks = counter.homs()
    assert (counter.injective(walks), walks) == want
    tree = LabeledTree(tree.vertex_count, tuple((a, b, num(d)) for a, b, d in tree.edges))
    layers = [data.draw(st.sampled_from(pool)) for _ in range(tree.vertex_count)]
    want_tree = backtrack_tree_embeddings(layers, tree, spec)
    assert count_tree_embeddings(layers, tree, spec) == want_tree
    assert wide(_tree_counter(layers, tree, spec)).injective() == want_tree


@CHECKS
@given(
    st.integers(3, 5),
    deep_trees(),
    st.lists(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=2, max_size=6, unique=True), min_size=1, max_size=2),
    st.sampled_from([None, 1e-9, 1.5]),
    st.sampled_from([0, 200]),
    st.data(),
)
def test_fused_close_on_either_side_of_its_cost_rule(k, tree, pool, eps, pad, data):
    # a block that closes two vertices above its carry is summed by bit
    # rows while their words (one per 64 points of the middle layer, per
    # entry) are no more than the 2-paths the window loop would scatter:
    # on a few points of a 3 x 3 grid, mostly so; `pad` points far from
    # every other point make it four words per entry, so mostly windows
    # (about 30 of the 80 examples each way), and change no count.
    # Repeated layers, exact and tolerant, int64 and Python ints
    spec = exact_spec() if eps is None else DistanceSpec((), eps)
    num = (lambda x: x) if eps is None else float
    far = [(100 + 3 * i, 100) for i in range(pad)]
    small, padded = ([make_layer([(num(x), num(y)) for x, y in s + extra]) for s in pool] for extra in ([], far))
    picks = [data.draw(st.integers(0, len(pool) - 1)) for _ in range(k + 1)]
    delta2 = [num(data.draw(st.sampled_from([1, 2]))) for _ in range(k)]
    eps_chain = None if eps is None else 1e-9  # a chain's spec asks eps < d2/100
    cfg = make_config([padded[i] for i in picks], delta2, eps_chain)
    oracle = make_config([small[i] for i in picks], delta2, eps_chain)
    want = backtrack_chains(oracle), enumerate_walks_count(oracle)
    assert count_chains_and_walks(cfg) == want
    counter = wide(_chain_tree(cfg))
    walks = counter.homs()
    assert (counter.injective(walks), walks) == want
    tree = LabeledTree(tree.vertex_count, tuple((a, b, num(d)) for a, b, d in tree.edges))
    picks = [data.draw(st.integers(0, len(pool) - 1)) for _ in range(tree.vertex_count)]
    want_tree = backtrack_tree_embeddings([small[i] for i in picks], tree, spec)
    assert count_tree_embeddings([padded[i] for i in picks], tree, spec) == want_tree
    assert wide(_tree_counter([padded[i] for i in picks], tree, spec)).injective() == want_tree


@st.composite
def odd_trees(draw):
    """A path 0-1-2-3 with up to three more vertices hung anywhere, every
    edge at squared distance 1 or 5.  Both are odd, so on integer points
    every edge joins the two colours of x + y: vertices at odd distance,
    such as 0 and 3, never share a point, and each such pair is a pattern
    prefix with no homomorphism."""
    m = draw(st.integers(4, 7))
    edges = [(v - 1, v) for v in range(1, 4)] + [(draw(st.integers(0, v - 1)), v) for v in range(4, m)]
    return LabeledTree(m, tuple((a, b, draw(st.sampled_from([1, 5]))) for a, b in edges))


@CHECKS
@given(odd_trees(), st.lists(POINT, max_size=3, unique=True))
def test_tree_single_set_pruned(tree, extra):
    # each corner of the 1 x 2 rectangle has another at squared distance 1
    # and one at 5, so every such tree has homomorphisms, the engine
    # evaluates patterns, and it must prune the empty ones
    base = [(0, 0), (1, 0), (0, 2), (1, 2)]
    points = base + [p for p in extra if p not in base]
    layer, spec = make_layer(points), exact_spec()
    counter = _tree_counter(layer, tree, spec)
    got = counter.injective()
    assert counter._pairs[0, 3] == 0
    assert got == backtrack_tree_embeddings(layer, tree, spec)
    if len(points) ** tree.vertex_count <= 5000:
        assert got == product_tree_embeddings(layer, tree, spec)


def test_fractional_coordinates():
    third = Fraction(1, 3)
    pts = [(0, 0), (third, 0), (2 * third, 0), (third, third)]
    cfg = make_config([pts] * 4, (third**2,) * 3)
    assert count_chains(cfg) == len(enumerate_chains(cfg)) == backtrack_chains(cfg)


@CHECKS
@given(configs(), st.integers(1, 12), st.integers(1, 5))
def test_scaling_invariance(cfg, num, den):
    s = Fraction(num, den)
    scaled = make_config(
        [[tuple(c * s for c in p.coords) for p in ly.points] for ly in cfg.layers],
        [d * s * s for d in cfg.spec.delta2],
    )
    assert count_chains(scaled) == count_chains(cfg)


@CHECKS
@given(configs())
def test_pythagorean_rotation_invariance(cfg):
    c, s = Fraction(3, 5), Fraction(4, 5)
    turned = make_config(
        [[(c * x - s * y, s * x + c * y) for x, y in (p.coords for p in ly.points)] for ly in cfg.layers],
        cfg.spec.delta2,
    )
    assert count_chains(turned) == count_chains(cfg)


# -- the pair kernel ---------------------------------------------------------

LATTICE = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=25, unique=True)


@st.composite
def lattice_pairs(draw):
    """Two point sets on a lattice of spacing h, offset by up to 10^6, and a
    squared distance the lattice realizes.  At h = 1/(2^20 3^12 5^8), about
    2^-60, the points' own denominators differ (D0 / gcd(x, D0)), and
    their fourth powers pass int64."""
    h = draw(st.sampled_from([Fraction(1), Fraction(1, 1000), Fraction(1, 700_000), Fraction(1, 2**20 * 3**12 * 5**8)]))
    offset = draw(st.sampled_from([0, 10**6, -(10**6) + Fraction(1, 3)]))
    m = draw(st.sampled_from([1, 2, 4, 5, 8, 25]))

    def place(pts):
        return [Point((offset + h * x, offset + h * y), i) for i, (x, y) in enumerate(pts)]

    return place(draw(LATTICE)), place(draw(LATTICE)), m * h * h, h


def oracle_lists(pa, pb, d2, spec):
    return tuple(tuple(j for j, q in enumerate(pb) if matches_distance(p, q, d2, spec)) for p in pa)


def kernel_lists(*args):
    """The pair kernel's CSR arrays as adjacency lists, as oracle_lists gives them."""
    return neighbors(BipartiteAdjacency((_pair_lists(*args),)))[0]


# Tile sizes in pairs: below len(pb) a tile is one row.
BLOCKS = st.sampled_from([1, 2, 3, 5, 8, 4096])


@CHECKS
@given(lattice_pairs(), BLOCKS)
def test_kernel_equals_oracle_exact(case, block):
    pa, pb, d2, _ = case
    with mock.patch.object(layered, "_BLOCK", block):
        assert kernel_lists(pa, pb, d2, exact_spec()) == oracle_lists(pa, pb, d2, exact_spec())


@settings(CHECKS, max_examples=300)
@given(lattice_pairs(), st.sampled_from([200, 10**4]), st.lists(st.sampled_from([0, 3, 10, 30]), max_size=25))
def test_kernel_equals_oracle_tolerant(case, ratio, jitter):
    # jitter moves points of pa by a few eps / h, which puts lattice
    # neighbours into the guard band; offenders come in (a, b) order
    pa, pb, d2, h = case
    d2 = float(d2)
    eps = d2 / ratio
    shift = jitter + [0] * len(pa)
    pa = [Point((float(p.coords[0]) + shift[i] * eps / float(h), float(p.coords[1])), i) for i, p in enumerate(pa)]
    pb = [q.as_float() for q in pb]
    spec = DistanceSpec((), eps)
    offenders = []
    assert kernel_lists(pa, pb, d2, spec, offenders) == oracle_lists(pa, pb, d2, spec)
    gaps = [(p.id, q.id, abs(squared_distance(p, q) - d2)) for p, q in itertools.product(pa, pb)]
    assert [(p.id, q.id, gap) for p, q, gap in offenders] == [g for g in gaps if eps < g[2] <= 100 * eps]


@CHECKS
@given(st.integers(2**15 - 8, 2**15 + 8), LATTICE, LATTICE, st.integers(0, 12), st.integers(0, 12))
def test_kernel_int32_either_side_of_its_bound(top, xs, ys, dx, dy):
    # (0, 0) in pa and (top, top) in pb make the shifted coordinates span
    # 0..top, so the predicate's bound is 2 top^2, which d2 does not pass:
    # int32 exactly while top < 2^15, with sums of squares up to 2 top^2
    pa = make_layer([(0, 0), *(p for p in xs if p != (0, 0))]).points
    pb = make_layer([(top, top), *((top - x, top - y) for x, y in ys if (x, y) != (0, 0))]).points
    d2 = Fraction((top - dx) ** 2 + (top - dy) ** 2)
    view = _PairView(pa, pb, d2, None)
    assert view.a.dtype == (np.int32 if top < 2**15 else np.int64) and not view.primes
    assert kernel_lists(pa, pb, d2, exact_spec()) == oracle_lists(pa, pb, d2, exact_spec())


@CHECKS
@given(
    LATTICE,
    LATTICE,
    st.sampled_from([((1, 2, 3), "int32"), ((4095, 4096), "int64"), ((2**16, 2**16 + 1), "primes")]),
    st.sampled_from([1, 2, 4, 5, 8, 25]),
    BLOCKS,
    st.data(),
)
def test_kernel_per_point_denominators_in_each_number_type(xs, ys, dens, d2, block, data):
    # points (x + 1/D_p, y), D_p drawn per point and both extremes present:
    # the largest D_p puts the bound num * D^4 below 2^31, below 2^63 or
    # past it, and points of equal D_p match as the lattice does
    dens, kind = dens

    def place(pts, ds):
        return [Point((x + Fraction(1, D), Fraction(y)), i) for i, ((x, y), D) in enumerate(zip(pts, ds))]

    ys = ys or [(1, 1)]
    pa = place([(0, 0)] * len(dens) + xs, [*dens, *(data.draw(st.sampled_from(dens)) for _ in xs)])
    pb = place(ys, [data.draw(st.sampled_from(dens)) for _ in ys])
    view = _PairView(pa, pb, Fraction(d2), None)
    assert len(view.a) == 3  # two axes and D_p
    assert ("primes" if view.primes else view.a.dtype.name) == kind
    with mock.patch.object(layered, "_BLOCK", block):
        assert kernel_lists(pa, pb, Fraction(d2), exact_spec()) == oracle_lists(pa, pb, Fraction(d2), exact_spec())


@CHECKS
@given(LATTICE, LATTICE, st.sampled_from([1.0, 2.0, 5.0]), st.lists(st.sampled_from([0, 3, 10, 30, 200]), max_size=25), BLOCKS)
def test_tiles_certify_as_the_oracle_does(xs, ys, d2, jitter, block):
    # points of pa moved by a few eps on one axis put lattice neighbours in
    # the guard band (eps, 100 eps] or past it; tiles of any height must
    # raise the error of every pair's gap, with the offenders in (a, b) order
    eps = 1e-9
    shift = jitter + [0] * len(xs)
    cfg = make_config([[(x + shift[i] * eps, float(y)) for i, (x, y) in enumerate(xs)], [(float(x), float(y)) for x, y in ys]], [d2], eps)
    pa, pb = (ly.points for ly in cfg.layers)
    gaps = [(p, q, abs(squared_distance(p, q) - d2)) for p, q in itertools.product(pa, pb)]
    want = [(p, q, gap) for p, q, gap in gaps if eps < gap <= 100 * eps]
    found = None
    with mock.patch.object(layered, "_BLOCK", block):
        try:
            build_adjacency(cfg)
        except CertificationError as err:
            found = str(err), [(p.id, q.id, gap) for p, q, gap in err.offenders]
    expected = (str(CertificationError(want)), [(p.id, q.id, gap) for p, q, gap in want]) if want else None
    assert found == expected


@pytest.mark.parametrize(
    "na, nb, block, heights",
    [
        (0, 5, 8, []),
        (5, 0, 8, []),
        (1, 9, 8, [1]),
        (9, 1, 8, [8, 1]),
        (7, 3, 8, [2, 2, 2, 1]),
        (4, 9, 8, [1, 1, 1, 1]),
        (7, 3, 4096, [7]),
    ],
)
@pytest.mark.parametrize("eps", [None, 1e-9])
def test_brute_tile_heights(na, nb, block, heights, eps):
    # _BLOCK // nb rows a tile, at least one, the last tile what is left
    grid = [(x, y) for x in range(3) for y in range(3)]
    pa, pb = (make_layer([tuple(map(float, p)) if eps else p for p in grid[:n]]).points for n in (na, nb))
    spec, d2 = DistanceSpec((), eps), (1.0 if eps else Fraction(1))
    seen, test = [], layered._PairView.test

    def spy(view, x, y):
        seen.append(x.shape[-2])
        return test(view, x, y)

    with mock.patch.object(layered, "_BLOCK", block), mock.patch.object(layered._PairView, "test", spy):
        offsets, _ = _pair_lists(pa, pb, d2, spec)
    assert seen == heights and len(offsets) == na + 1
    assert kernel_lists(pa, pb, d2, spec) == oracle_lists(pa, pb, d2, spec)


INTEGER_POINTS = st.integers(1, 3).flatmap(
    lambda dim: st.lists(st.tuples(*[st.integers(-4, 4)] * dim), min_size=1, max_size=40, unique=True)
)


@CHECKS
@given(INTEGER_POINTS, BLOCKS)
def test_popular_sq_distance_counts_each_pair_once(points, block):
    # tiles of rows against the points after them, of any height, against
    # the count over all unordered pairs; ties go to the smallest distance
    counts = Counter(sum((a - b) ** 2 for a, b in zip(p, q)) for p, q in itertools.combinations(points, 2))
    top = max(counts.values(), default=0)
    want = min((d for d, c in counts.items() if c == top), default=0), top
    with mock.patch("chain_census.constructions._BLOCK", block):
        assert _popular_sq_distance(points) == want


@st.composite
def aliased_configs(draw):
    """k+1 layers drawn from two point tuples, each shared by identity by
    every layer that holds it, at distances drawn from two values: some
    layer pairs repeat (same tuples, same distance) and some do not.
    Tolerant points are integer points, some moved by 1e-8 on one axis,
    which puts pairs into the guard band (1e-9, 1e-7]."""
    eps = draw(st.sampled_from([None, 1e-9]))
    pool = []
    for _ in range(2):
        points = draw(POINT_SET)
        if eps is not None:
            points = [(x + draw(st.sampled_from([0, 1e-8])), float(y)) for x, y in points]
        pool.append(make_layer(points))
    k = draw(st.integers(2, 5))
    two = draw(st.sampled_from([(1, 2), (1, 5), (4, 5)]))
    delta2 = [draw(st.sampled_from(two)) for _ in range(k)]
    layers = [draw(st.sampled_from(pool)) for _ in range(k + 1)]
    return make_config(layers, delta2 if eps is None else map(float, delta2), eps=eps)


@CHECKS
@given(aliased_configs())
def test_repeated_pairs_decided_once(cfg):
    # each position against a kernel run of its own, offenders and all
    layers = cfg.layers
    triples = list(zip(layers, layers[1:], cfg.spec.delta2))
    offenders = []
    want = tuple(kernel_lists(a, b, d2, cfg.spec, offenders) for a, b, d2 in triples)
    try:
        adj = build_adjacency(cfg)
    except CertificationError as err:
        assert str(err) == str(CertificationError(offenders))
        assert [(p.id, q.id, g) for p, q, g in err.offenders] == [(p.id, q.id, g) for p, q, g in offenders]
        # the runs that build_adjacency shares, their offenders collected, not raised
        adj = BipartiteAdjacency(tuple(layered._certified_pairs(cfg.spec, triples, [])))
    else:
        assert not offenders
    assert neighbors(adj) == want == adjacency_oracle(cfg)
    # positions holding one (layer, layer, d2) share its arrays;
    # others do not
    for (i, ti), (j, tj) in itertools.combinations(enumerate(triples), 2):
        same = (id(ti[0]), id(ti[1]), ti[2]) == (id(tj[0]), id(tj[1]), tj[2])
        assert (adj.pairs[i] is adj.pairs[j]) == same


RATIONAL = st.fractions(min_value=-4, max_value=4, max_denominator=9)
BIG_DENOMINATORS = st.sampled_from([1, 2**40 * 3**25, 10**30 + 7])


@CHECKS
@given(
    st.lists(st.tuples(RATIONAL, RATIONAL), min_size=1, max_size=12),
    st.lists(st.tuples(RATIONAL, RATIONAL), min_size=1, max_size=12),
    BIG_DENOMINATORS,
    st.sampled_from([None, 1e-3]),
)
def test_kernel_matches_predicate_either_side_of_int64(xs, ys, den, eps):
    # large denominators push the exact predicate's bound past int64:
    # it then runs modulo primes
    pa = [Point((x / den, y / den), i) for i, (x, y) in enumerate(xs)]
    pb = [Point((x / den, y / den), i) for i, (x, y) in enumerate(ys)]
    d2 = (pa[0].coords[0] - pb[0].coords[0]) ** 2 + (pa[0].coords[1] - pb[0].coords[1]) ** 2 or Fraction(1)
    spec = DistanceSpec((), eps)
    if eps is None:
        wide = den > 1 and any(c for p in (*pa, *pb) for c in p.coords)
        assert bool(_PairView(pa, pb, d2, eps).primes) == wide
    assert kernel_lists(pa, pb, d2, spec) == oracle_lists(pa, pb, d2, spec)
    degrees = degree_vector(make_layer(pa), make_layer(pb), d2, spec)
    assert degrees == [sum(matches_distance(p, q, d2, spec) for q in pb) for p in pa]


@pytest.mark.parametrize("d2, match", [(0.2 * 0.2, True), (0.04, False)])
def test_tolerant_rational_pairs_read_float_coordinates(d2, match):
    # float(1/5) ** 2 is 0.04000000000000001 but float(1/25) is 0.04: the
    # kernel and the oracle both square the rounded coordinates
    p, q = Point((0, 0), 0), Point((Fraction(1, 5), 0), 0)
    spec = DistanceSpec((), 1e-300)
    assert matches_distance(p, q, d2, spec) is match
    assert kernel_lists([p], [q], d2, spec) == (((0,) if match else ()),)


@pytest.mark.parametrize("x, q_den",[(2**40, 1), (2**40 + 1, 3), (2**100 + 1, 7)])
def test_kernel_rejects_what_one_prime_fewer_accepts(x, q_den):
    # p = 0 and q = (x / q_den, 0), so with d2 = num the two sides are
    # x^2 and num * q_den^2; num is picked so that they differ by M * t,
    # M the largest product of the first primes below 2^31 that allows
    # it.  A kernel that stops at those primes accepts the pair.
    p, q = Point((0, 0), 0), Point((Fraction(x, q_den), 0), 0)
    r = q_den * q_den
    j = max(j for j in range(1, 20) if math.prod(_primes(j)) * r < x * x)
    M = math.prod(_primes(j))
    t = x * x * pow(M, -1, r) % r or r
    num, rest = divmod(x * x - M * t, r)
    assert rest == 0 and num > 0
    for d2, match in ((Fraction(num), False), (Fraction(x * x, r), True)):
        assert len(_PairView([p], [q], d2, None).primes) > j
        assert matches_distance(p, q, d2, exact_spec()) is match
        assert kernel_lists([p], [q], d2, exact_spec()) == (((0,) if match else ()),)


def test_prime_path_shifts_past_int64():
    # every D_p and N_p is below 2^62, but shifting p's axis by the floor
    # of its minimum, N_p - low * D_p, passes 2^63: in int64 it would wrap
    # by a multiple of 2^64 that integer q's shift does not share, and the
    # prime path would reduce the wrapped value
    x = Fraction(2**61, 3**25)
    far, p = Point((-(2**61), 0), 0), Point((x, 0), 1)
    q = x.__floor__() + 1
    d2 = (q - x) ** 2
    pb = [Point((q, 0), 0), Point((2 * x - q, 0), 1), Point((x, q - x), 2), Point((q + 1, 0), 3)]
    spec = exact_spec()
    assert _PairView([far, p], pb, d2, None).primes
    assert kernel_lists([far, p], pb, d2, spec) == oracle_lists([far, p], pb, d2, spec) == ((), (0, 1, 2))


DENOMINATOR = st.integers(2**30, 2**60)


@CHECKS
@given(
    st.lists(st.tuples(DENOMINATOR, st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=40),
    st.lists(st.tuples(DENOMINATOR, st.integers(-9, 9), st.integers(-9, 9)), max_size=10),
    st.sampled_from([(Fraction(3, 5), Fraction(4, 5)), (Fraction(1), Fraction(0))]),
)
def test_kernel_on_large_per_point_denominators(near, far, step):
    # each point has its own denominator of 30 to 60 bits, so the lcm of
    # all of them has hundreds to thousands of bits; pb holds pa moved by
    # a step of squared length 1, and points of its own
    pa = [Point((Fraction(x, D), Fraction(y, D)), i) for i, (D, x, y) in enumerate(near)]
    pb = [Point((p.coords[0] + step[0], p.coords[1] + step[1]), i) for i, p in enumerate(pa)]
    pb += [Point((Fraction(x, D), Fraction(y, D)), len(pb) + i) for i, (D, x, y) in enumerate(far)]
    spec = exact_spec()
    want = oracle_lists(pa, pb, Fraction(1), spec)
    assert all(i in nb for i, nb in enumerate(want))
    assert kernel_lists(pa, pb, Fraction(1), spec) == want


@CHECKS
@given(LATTICE, LATTICE, st.sampled_from([2.0**-1074, 2.0**-1000, 1e-300, 0.1]))
def test_kernel_exact_on_tiny_floats(xs, ys, unit):
    # exact mode reads each float as the rational it is; the oracle gets
    # those rationals, since float arithmetic would underflow
    pa = [Point((x * unit, y * unit), i) for i, (x, y) in enumerate(xs or [(0, 0)])]
    pb = [Point((x * unit, -y * unit), i) for i, (x, y) in enumerate(ys or [(1, 1)])]
    exact = [[Point(tuple(map(Fraction, p.coords)), p.id) for p in side] for side in (pa, pb)]
    d2 = sum((a - b) ** 2 for a, b in zip(exact[0][0].coords, exact[1][0].coords)) or Fraction(unit) ** 2
    assert kernel_lists(pa, pb, d2, exact_spec()) == oracle_lists(*exact, d2, exact_spec())


@st.composite
def exact_or_tolerant_configs(draw):
    """configs(), or the same layers scaled by 1/10 as floats with
    tolerance 1e-9, so rounded squared distances must still match."""
    cfg = draw(configs())
    if not draw(st.booleans()):
        return cfg
    layers = [[tuple(0.1 * c for c in p.coords) for p in layer.points] for layer in cfg.layers]
    return make_config(layers, [d2 / 100 for d2 in cfg.spec.delta2], 1e-9)


EPS = st.sampled_from([Fraction(1, 2), Fraction(1, 3)])


@CHECKS
@given(exact_or_tolerant_configs(), EPS)
def test_covering_matches_oracle(cfg, eps):
    assert stable_covering(cfg, eps) == covering_oracle(cfg, eps)


@CHECKS
@given(exact_or_tolerant_configs(), st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 10)]))
def test_level_search_matches_oracle(cfg, eps):
    # the search that expands a whole BFS depth at once, at finer steps too
    assert stable_covering(cfg, eps) == covering_oracle(cfg, eps)


@CHECKS
@given(st.integers(1, 1000).flatmap(lambda den: st.builds(Fraction, st.integers(1, den), st.just(den))), st.data())
def test_stability_filter_equals_the_integer_decision(eps, data):
    # near ties too: n = t^den and old = new t^num, give or take one
    num, den = eps.numerator, eps.denominator
    if data.draw(st.booleans()):
        t = data.draw(st.integers(2, 3))
        n, new = t**den, data.draw(st.integers(1, 10**6))
        old = new * t**num + data.draw(st.integers(-1, 1))
    else:
        n, new = data.draw(st.integers(1, 10**6)), data.draw(st.integers(1, 10**30))
        old = data.draw(st.integers(new, new * n))
    assert richness._is_stable(old, new, n, eps) == (new**den * n**num >= old**den)


@settings(CHECKS, max_examples=60)
@given(
    st.one_of(
        st.integers(1, 100),
        st.integers(1, 10**6),
        st.builds(pow, st.integers(2, 1000), st.integers(2, 19)).filter(lambda n: n <= 10**6),
    ),
    st.one_of(st.integers(1, 60), st.integers(1, 10**4)).flatmap(lambda q: st.builds(Fraction, st.integers(1, q), st.just(q))),
    st.data(),
)
def test_thresholds_match_the_fraction_oracle(n, eps, data):
    # perfect powers n = b^c meet exponents i eps = x/c on the nose, where
    # a float n^(i eps) may land either side of the integer b^x; each
    # cutoff is checked against its definition at the first and last index
    # of its run and at drawn indices, and small cases against every cutoff
    cuts, last = richness_thresholds(n, eps)
    top = math.floor(1 / eps) + 1
    assert cuts[0] == 1 and cuts[-1] >= n + 1 and last[-1] == top
    assert all(map(operator.lt, cuts, cuts[1:])) and all(map(operator.lt, last, last[1:]))
    if n <= 100 and eps.denominator <= 60:
        assert [t for t, run in zip(cuts, np.diff([-1, *last])) for _ in range(run)] == thresholds_oracle(n, eps)
    runs = data.draw(st.lists(st.integers(0, len(last) - 2), max_size=2)) if len(last) > 1 else []
    for i in {0, top, data.draw(st.integers(0, top)), *(last[j] for j in runs), *(last[j] + 1 for j in runs)}:
        t, low, power = cuts[bisect.bisect_left(last, i)], n + 1 if i == top else 1, Fraction(n) ** (i * eps.numerator)
        assert t >= low and Fraction(t) ** eps.denominator >= power
        assert t == low or Fraction(t - 1) ** eps.denominator < power


@pytest.mark.parametrize("n, eps", [(64, Fraction(1, 6)), (64, Fraction(5, 12)), (729, Fraction(1, 6)), (1024, Fraction(1, 10)), (4096, Fraction(1, 12))])
def test_perfect_power_cutoffs_fall_on_the_powers(n, eps):
    # n = b^c and eps = 1/c or a multiple of 1/(2c): some n^(i eps) are
    # the integers b^x exactly, each its own cutoff
    cuts, last = richness_thresholds(n, eps)
    assert [t for t, run in zip(cuts, np.diff([-1, *last])) for _ in range(run)] == thresholds_oracle(n, eps)


@CHECKS
@given(exact_or_tolerant_configs(), EPS, st.sampled_from([0, 1]))
def test_richness_filter_matches_degree_filter(cfg, eps, parity):
    # the former filter: degrees from the pair kernel, one layer at a time,
    # for every class vector that leaves every layer nonempty
    order = list(range(cfg.k + 1))[:: 1 if parity else -1]
    cuts = thresholds_oracle(max(map(len, cfg.layers)), eps)
    want = {}

    def extend(idx, out):
        if len(out) == len(order):
            want[tuple(idx[i] for i in range(cfg.k + 1))] = tuple(out[i] for i in range(cfg.k + 1))
            return
        ref, i = order[len(out) - 1], order[len(out)]
        degrees = degree_vector(cfg.layers[i], out[ref], cfg.spec.delta2[min(i, ref)], cfg.spec)
        for m in range(len(cuts) - 1):
            kept = tuple(p for p, d in zip(cfg.layers[i].points, degrees) if cuts[m] <= d < cuts[m + 1])
            if kept:
                extend({**idx, i: m}, {**out, i: Layer(kept)})

    if cfg.layers[order[0]].points:
        extend({order[0]: 0}, {order[0]: cfg.layers[order[0]]})
    got = filtering_children(cfg, cuts, parity)
    assert {idx: sub.layers for idx, sub in got} == want and len(got) == len(want)


# ---------------------------------------------------------------------------
# rational circle points, built from integers, against Fraction arithmetic

BIG = 10**12
RATIONAL = st.one_of(
    st.integers(-BIG, BIG),
    st.builds(lambda o, n, d: o + Fraction(n, d), st.integers(-BIG, BIG), st.integers(0, 10**6), st.integers(1, 10**6)),
)
WIDTH = st.one_of(
    st.sampled_from([_dyadic_below(1e-6), _dyadic_below(1e-3), _dyadic_below(0.25), Fraction(1)]),
    st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)),
)


@st.composite
def circles(draw):
    """A rational center and seed on a circle of squared radius
    (a^2+b^2)/c^2; the seed is left to the library on small circles."""
    a, b = draw(st.integers(-1000, 1000)), draw(st.integers(-1000, 1000))
    if a == b == 0:
        a = 1
    c = draw(st.integers(1, 1000))
    r2 = Fraction(a * a + b * b, c * c)
    seed = (Fraction(a, c), Fraction(b, c))
    if max(abs(a), abs(b), c) <= 30 and draw(st.booleans()):
        seed = None
    return Point((draw(RATIONAL), draw(RATIONAL))), r2, seed


@CHECKS
@given(circles(), st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)), WIDTH,
       st.integers(1, 20), st.integers())
def test_circle_points_match_fraction_oracle(circle, lo, width, m, id_base):
    center, r2, seed = circle
    pts = rational_circle_points(center, r2, m, (lo, lo + width), seed, id_base)
    want = circle_points_oracle(center, seed or rational_point_on_circle(r2), m, (lo, lo + width), id_base)
    assert [p.coords for p in pts] == [p.coords for p in want]
    assert all(type(c) is Fraction for p in pts for c in p.coords)
    assert [p.id for p in pts] == list(range(id_base, id_base + m))
    assert all(squared_distance(p, center) == r2 for p in pts)


def test_orthogonal_layers_equal_the_oracle_built_ones():
    """gen_orthogonal_circles d=4 k=3 n=60, point for point and id for id."""
    m, zero = 30, (Fraction(0), Fraction(0))
    origin, seed = exact_point((0, 0)), (Fraction(1, 2), Fraction(1, 2))
    arc = [circle_point_oracle(origin, seed, Fraction(j, 4 * m)).coords for j in range(1, m + 1)]
    want = [(i, c) for i, c in enumerate([c + zero for c in arc] + [zero + c for c in arc])]
    cfg = gen_orthogonal_circles(4, 3, 2 * m).config
    assert len(cfg.layers) == 4
    for layer in cfg.layers:
        assert [(p.id, p.coords) for p in layer.points] == want
        assert all(type(c) is Fraction for p in layer.points for c in p.coords)


def test_star_layers_equal_the_oracle_built_ones():
    """gen_star l=3 n=150: the center, then 50 points per circle of squared
    radius 1, 4 and 9, point for point and id for id."""
    origin = exact_point((0, 0))
    layers = gen_star(3, 150).layers
    assert [(p.id, p.coords) for p in layers[0].points] == [(origin.id, origin.coords)]
    for r2, layer in zip((1, 4, 9), layers[1:]):
        want = circle_points_oracle(origin, rational_point_on_circle(Fraction(r2)), 50, (0, 1))
        assert [(p.id, p.coords) for p in layer.points] == [(p.id, p.coords) for p in want]


def axes(points):
    """The float axes of a layer of points, one row per axis."""
    return Layer(points).axes


def matched_both_ways(points, r2, fixed, fixed_r2):
    """constructions._matched with the fixed circle second, then first,
    each next to the first hits of circle_circle_intersection called point
    by point in the same argument order (None at the first miss), as
    float.hex pairs, so that -0.0 and 0.0 differ."""
    def hexes(hits):
        return None if hits is None else [tuple(map(float.hex, w)) for w in hits]

    def scalar(pairs):
        hits = {}
        for args in pairs:
            found = circle_circle_intersection(*args)
            if not found:
                return None
            hits.setdefault(found[0].coords)
        return hits

    pts, joint = [Point(c, i) for i, c in enumerate(points)], Point(fixed)
    second = _matched(axes(pts), r2, axes([joint]), fixed_r2), scalar((p, r2, joint, fixed_r2) for p in pts)
    first = _matched(axes([joint]), fixed_r2, axes(pts), r2), scalar((joint, fixed_r2, p, r2) for p in pts)
    return [tuple(map(hexes, pair)) for pair in (second, first)]


FLOAT = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


@CHECKS
@given(
    st.tuples(FLOAT, FLOAT),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
    st.lists(st.tuples(st.floats(0, 2 * math.pi), st.floats(-0.02, 1.02)), min_size=1, max_size=12),
)
def test_circle_kernel_equals_the_scalar_intersection(fixed, r, fixed_r, polar):
    # points at distances from |r - fixed_r| to r + fixed_r of the fixed
    # centre, so that most circles meet, plus some misses past either end
    lo, hi = abs(r - fixed_r), r + fixed_r
    points = [(fixed[0] + (lo + t * (hi - lo)) * math.cos(th), fixed[1] + (lo + t * (hi - lo)) * math.sin(th))
              for th, t in polar]
    assume(all(p != fixed for p in points))
    for got, want in matched_both_ways(points, r * r, fixed, fixed_r * fixed_r):
        assert got == want


def hex_rows(rows):
    """Coordinate rows as float.hex tuples, so that -0.0 and 0.0 differ."""
    return [tuple(map(float.hex, row)) for row in rows]


@CHECKS
@given(
    st.tuples(FLOAT, FLOAT),
    st.floats(1e-3, 1e3),
    st.integers(1, 300),
    st.floats(1e-6, 10.0),
    st.floats(-10.0, 10.0),
)
def test_float_arc_is_the_per_point_arc(center, r, n, eps, phase):
    # angles on an arange by the scalar expression's IEEE operations, cos
    # and sin from math: every bit of the former per-point arc
    layer, want = _float_arc(center, r, n, eps, phase), float_arc_oracle(center, r, n, eps, phase)
    assert hex_rows(zip(*layer.axes.tolist())) == hex_rows(p.coords for p in want)
    assert repr(layer.points) == repr(tuple(want)) and layer.points == tuple(want)
    assert all(type(c) is float for p in layer.points for c in p.coords)


@CHECKS
@given(
    st.integers(1, 200),
    st.integers(0, 30),
    st.integers(1, 30),
    st.integers(1, 12),
    st.integers(0, 3),
    st.floats(1e-3, 2.0),
    st.sampled_from([Fraction, operator.truediv]),
)
def test_exact_arc_is_the_per_point_arc(n, a, b, c, window, eps, div):
    # radii (a^2 + b^2)/c^2 admit rational points; each window its range
    center, r2 = Point((div(0, 1), div(0, 1))), Fraction(a * a + b * b, c * c)
    layer, want = _exact_arc(center, r2, n, eps, window, div), exact_arc_oracle(center, r2, n, eps, window, div)
    assert repr(layer.points) == repr(tuple(want)) and layer.points == tuple(want)
    if div is operator.truediv:
        assert hex_rows(zip(*layer.axes.tolist())) == hex_rows(p.coords for p in want)


SIGNED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0**-1074])


@CHECKS
@given(st.lists(st.tuples(SIGNED, SIGNED), min_size=1, max_size=12))
def test_array_layers_key_rows_as_tuples(rows):
    # a layer given as float axes keys its rows as the tuples would: a
    # repeated row is refused, and -0.0 equals 0.0
    layer = Layer(axes=np.array(rows, dtype=float).T.copy())
    tuples = Layer(tuple(Point(row, i) for i, row in enumerate(rows)))
    assert layer.points == tuples.points and repr(layer.points) == repr(tuples.points)
    if len(set(rows)) < len(rows):
        with pytest.raises(ValueError, match="duplicate point coordinates"):
            layer.validate()
    else:
        assert layer.validate() == {float}
    mine, theirs = _coord_classes([layer, tuples]), _coord_classes([Layer(tuples.points), tuples])
    assert [c.tolist() for c in mine] == [c.tolist() for c in theirs]


def test_circle_kernel_fixed_cases():
    def hits(points, r2, fixed, fixed_r2):
        (second, want_second), (first, want_first) = matched_both_ways(points, r2, fixed, fixed_r2)
        assert second == want_second and first == want_first
        return second, first

    # a tangency, exact and within the tolerance of h2 = 0: one point each
    assert hits([(2.0, 0.0)], 1.0, (0.0, 0.0), 1.0) == ([("0x1.0000000000000p+0", "0x0.0p+0")],) * 2
    second, first = hits([(2.0 + 1e-13, 0.0)], 1.0, (0.0, 0.0), 1.0)
    assert len(second) == len(first) == 1
    # an internal tangency with h2 about -2e-12: within the tolerance of the
    # larger squared radius (4), not of the squared centre distance (about 1)
    second, first = hits([(1.0 - 5e-13, 0.0)], 1.0, (0.0, 0.0), 4.0)
    assert len(second) == len(first) == 1
    # one miss among hits
    assert hits([(1.0, 0.0), (3.0, 0.0)], 1.0, (0.0, 0.0), 1.0) == (None, None)
    # a repeated point gives one hit; distinct hits keep the points' order
    assert [len(h) for h in hits([(1.0, 0.5)] * 2, 1.0, (0.0, 0.0), 1.0)] == [1, 1]
    points = [(1.0, 0.5), (-0.5, 1.0), (0.25, -1.0)]
    forward = hits(points, 1.0, (0.0, 0.0), 1.0)
    assert [list(reversed(h)) for h in forward] == list(hits(points[::-1], 1.0, (0.0, 0.0), 1.0))
    # concentric circles are an error whichever side is fixed
    for points in (((1.0, 2.0), (1.0, 2.0)), ((1.0, 2.0), (0.0, 0.0), (1.0, 2.0))):
        pts = axes([Point(c) for c in points])
        with pytest.raises(ValueError, match="concentric"):
            _matched(pts, 1.0, axes([Point((1.0, 2.0))]), 2.0)
        with pytest.raises(ValueError, match="concentric"):
            _matched(axes([Point((1.0, 2.0))]), 2.0, pts, 1.0)


@CHECKS
@given(configs(), st.sampled_from(["integer", "rational", "tolerant"]))
def test_adjacency_matches_pair_oracle(cfg, kind):
    # the CSR arrays, read back as lists, against every pair decided alone
    if kind != "integer":
        scale = Fraction(1, 3) if kind == "rational" else 0.1
        layers = [[tuple(scale * c for c in p.coords) for p in ly.points] for ly in cfg.layers]
        cfg = make_config(layers, [d2 * scale * scale for d2 in cfg.spec.delta2], None if kind == "rational" else 1e-9)
    adj = build_adjacency(cfg)
    assert neighbors(adj) == adjacency_oracle(cfg)
    assert [adj.edge_count(i) for i in range(cfg.k)] == [sum(map(len, nbs)) for nbs in neighbors(adj)]


@CHECKS
@given(configs(), st.data())
def test_restrict_matches_list_oracle(cfg, data):
    # picks in any order, empty ones included
    picks = [data.draw(st.lists(st.sampled_from(range(len(ly))), unique=True)) if len(ly) else [] for ly in cfg.layers]
    adj = build_adjacency(cfg)
    assert neighbors(adj.restrict(picks)) == restrict_oracle(neighbors(adj), picks)


@CHECKS
@given(configs(), st.data())
def test_restricted_config_carries_restricted_adjacency(cfg, data):
    picks = [data.draw(st.lists(st.sampled_from(range(len(ly))), unique=True)) if len(ly) else [] for ly in cfg.layers]
    sub = cfg.restrict(picks)
    assert sub.adjacency == cfg.adjacency.restrict(picks) == build_adjacency(sub)


# exact coordinates: small ints and rationals, ints past 2^63, and
# denominators whose lcm on one point passes 2^63; -2^40 times a
# denominator past 2^32 passes 2^63 too
EXACT_VALUE = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    st.sampled_from([2**63 + 1, -(2**64) - 3, Fraction(2**64 + 1, 3), -(2**40), Fraction(2**40 + 1, 3)]),
    st.sampled_from([Fraction(1, 2**32 + 15), Fraction(-3, 2**32 - 5)]),
)


@st.composite
def exact_token(draw, value):
    """One spelling of an exact value: a whole one bare or as p/q, p/q
    scaled by any factor (unreduced, perhaps over a negative denominator),
    with leading zeros, a + on a positive and a - on zero."""
    value = Fraction(value)

    def spell(n):
        sign = "-" if n < 0 or (n == 0 and draw(st.booleans())) else draw(st.sampled_from(["", "+"]))
        return sign + "0" * draw(st.integers(0, 2)) + str(abs(n))

    if value.denominator == 1 and draw(st.booleans()):
        return spell(value.numerator)
    m = draw(st.sampled_from([1, 2, 3, -1, -2]))
    return f"{spell(value.numerator * m)}/{spell(value.denominator * m)}"


def write_exact_file(draw, path, points, dim):
    lines = [" ".join(draw(exact_token(c)) for c in p) for p in points]
    with open(path, "w") as fh:
        fh.write("\n".join([f"dim {dim} count {len(points)} mode exact", *lines]) + "\n")


def parsed_store(path, dim):
    """The layer read_coords parses a well-formed exact file into, before
    it checks that no point repeats."""
    with open(path) as fh:
        _, *lines = filter(str.strip, fh.read().split("\n"))
    return _exact_coords([tok for ln in lines for tok in ln.split()], dim)


def oracle_ratios(points):
    """D_p, N_p per axis and each axis's floor of its minimum, from Fractions."""
    dens = [math.lcm(*(Fraction(c).denominator for c in p.coords)) for p in points]
    axes = list(zip(*(p.coords for p in points)))
    return [dens, [[D * c for D, c in zip(dens, axis)] for axis in axes], [math.floor(min(axis)) for axis in axes]]


@CHECKS
@given(st.integers(1, 3), st.data())
def test_exact_reader_equals_the_fraction_reader(dim, data):
    # two files of points drawn from one pool, so points repeat within a
    # file (in other spellings) and across the files
    pool = data.draw(st.lists(st.tuples(*[EXACT_VALUE] * dim), min_size=1, max_size=4))
    sides = [data.draw(st.lists(st.sampled_from(pool), max_size=5)) for _ in range(2)]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"{name}.pts") for name in "ab"]
        for path, points in zip(paths, sides):
            write_exact_file(data.draw, path, points, dim)
        oracles = [read_points_oracle(path) for path in paths]
        refused = [len({p.coords for p in want}) < len(want) for want in oracles]
        for path in itertools.compress(paths, refused):  # a point repeated, in any spelling, names the file
            with pytest.raises(FileFormatError) as err:
                read_coords(path)
            assert str(err.value) == f"{path}: duplicate point coordinates"
        layers = [parsed_store(path, dim) if dup else read_coords(path)[0] for path, dup in zip(paths, refused)]
        read = [parsed_store(path, dim).points if dup else read_points(path)[0] for path, dup in zip(paths, refused)]
    for layer, want, got, dup in zip(layers, oracles, read, refused):
        # the same values and types as the per-token reader, built on demand
        assert [p.coords for p in got] == [p.coords for p in want]
        assert [list(map(type, p.coords)) for p in got] == [list(map(type, p.coords)) for p in want]
        assert layer.dims == {dim}
        if want:
            assert [a.tolist() for a in layer.ratios] == oracle_ratios(want)
        if dup:
            with pytest.raises(ValueError, match="duplicate point coordinates"):
                layer.validate()
        else:
            layer.validate()
    # keys equal exactly for equal numbers, within and across the layers
    mine, theirs = _coord_classes(layers), _coord_classes([Layer(p) for p in oracles])
    assert [c.tolist() for c in mine] == [c.tolist() for c in theirs]
    if all(len({p.coords for p in pts}) == len(pts) for pts in oracles):
        d2 = squared_distance(oracles[0][0], oracles[1][0]) if all(oracles) else 1
        d2, spec, tree = d2 or 1, DistanceSpec((), None), LabeledTree(3, ((0, 1, d2 or 1), (0, 2, d2 or 1)))
        a, b = layers
        want_a, want_b = (Layer(p) for p in oracles)
        want = sum(matches_distance(p, q, d2, spec) for p in oracles[0] for q in oracles[1])
        assert count_incidences(a, b, d2, spec) == count_incidences(want_a, want_b, d2, spec) == want
        assert count_tree_embeddings([a, b, b], tree, spec) == backtrack_tree_embeddings([want_a, want_b, want_b], tree, spec)
    # no Point and, past whole numbers, no Fraction was built on the way
    assert all("points" not in s.__dict__ and ("rows" not in s.__dict__ or s.types <= {int}) for s in layers)
