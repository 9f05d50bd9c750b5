"""Property tests: the counting engine, the pair kernel, the covering
search and the rational circle points against independent oracles.

Configurations are small and exact, drawn so that layers overlap, repeat
or are empty, which is where the Möbius correction for shared points has
work to do.  The pair kernel is checked against the pair-by-pair
predicate ``matches_distance``, on both sides of its int32 and int64
bounds, and its grid strategy against its brute strategy (row tiles of
any height) far from the origin, at tiny radii and in the guard band.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chain_census import layered
from chain_census.constructions import _dyadic_below, _popular_sq_distance, gen_orthogonal_circles, gen_star
from chain_census.geometry import (
    CertificationError,
    DistanceSpec,
    Point,
    exact_point,
    exact_spec,
    matches_distance,
    rational_circle_points,
    rational_point_on_circle,
    squared_distance,
)
from chain_census.layered import (
    BipartiteAdjacency,
    LabeledTree,
    Layer,
    _chain_tree,
    _pair_lists,
    _PairView,
    _primes,
    _tree_counter,
    build_adjacency,
    count_chains,
    count_chains_and_walks,
    count_tree_embeddings,
    count_walks,
    make_config,
    make_layer,
    path_tree,
)
from chain_census.richness import _Filtering, degree_vector, richness_thresholds, stable_covering
from oracles import (
    adjacency_oracle,
    backtrack_chains,
    backtrack_tree_embeddings,
    circle_point_oracle,
    circle_points_oracle,
    covering_oracle,
    enumerate_chains,
    enumerate_walks_count,
    product_tree_embeddings,
    restrict_oracle,
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
    counter = wide(_chain_tree(cfg, None))
    walks = counter.homs()
    assert (counter.injective(walks), walks) == want


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
    return BipartiteAdjacency((_pair_lists(*args),)).neighbors[0]


# Tile sizes for the brute path: below len(pb) a tile is one row; the grid
# gathers its index pairs in blocks of the same size.
BLOCKS = st.sampled_from([1, 2, 3, 5, 8, 4096])


@CHECKS
@given(lattice_pairs(), BLOCKS)
def test_kernel_grid_equals_brute_exact(case, block):
    pa, pb, d2, _ = case
    with mock.patch.object(layered, "_BLOCK", block):
        brute = kernel_lists(pa, pb, d2, exact_spec(), "brute")
        assert kernel_lists(pa, pb, d2, exact_spec(), "grid") == brute == oracle_lists(pa, pb, d2, exact_spec())


@settings(CHECKS, max_examples=300)
@given(lattice_pairs(), st.sampled_from([200, 10**4]), st.lists(st.sampled_from([0, 3, 10, 30]), max_size=25))
def test_kernel_grid_equals_brute_tolerant(case, ratio, jitter):
    # jitter moves points of pa by a few eps / h, which puts lattice
    # neighbours into the guard band
    pa, pb, d2, h = case
    d2 = float(d2)
    eps = d2 / ratio
    shift = jitter + [0] * len(pa)
    pa = [Point((float(p.coords[0]) + shift[i] * eps / float(h), float(p.coords[1])), i) for i, p in enumerate(pa)]
    pb = [q.as_float() for q in pb]
    spec = DistanceSpec((), eps)
    found = {}
    for strategy in ("brute", "grid"):
        offenders = []
        lists = kernel_lists(pa, pb, d2, spec, strategy, offenders)
        found[strategy] = lists, [(p.id, q.id, gap) for p, q, gap in offenders]
    assert found["grid"] == found["brute"]
    assert found["brute"][0] == oracle_lists(pa, pb, d2, spec)


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
    want = oracle_lists(pa, pb, d2, exact_spec())
    for strategy in ("brute", "grid"):
        assert kernel_lists(pa, pb, d2, exact_spec(), strategy) == want


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
    want = oracle_lists(pa, pb, Fraction(d2), exact_spec())
    with mock.patch.object(layered, "_BLOCK", block):
        for strategy in ("brute", "grid"):
            assert kernel_lists(pa, pb, Fraction(d2), exact_spec(), strategy) == want


@CHECKS
@given(LATTICE, LATTICE, st.sampled_from([1.0, 2.0, 5.0]), st.lists(st.sampled_from([0, 3, 10, 30, 200]), max_size=25), BLOCKS)
def test_brute_tiles_certify_as_the_grid_does(xs, ys, d2, jitter, block):
    # points of pa moved by a few eps on one axis put lattice neighbours in
    # the guard band (eps, 100 eps] or past it; both strategies must raise
    # the same error with the offenders in (a, b) order
    eps = 1e-9
    shift = jitter + [0] * len(xs)
    cfg = make_config([[(x + shift[i] * eps, float(y)) for i, (x, y) in enumerate(xs)], [(float(x), float(y)) for x, y in ys]], [d2], eps)
    pa, pb = (ly.points for ly in cfg.layers)
    gaps = [(p, q, abs(squared_distance(p, q) - d2)) for p, q in itertools.product(pa, pb)]
    want = [(p, q, gap) for p, q, gap in gaps if eps < gap <= 100 * eps]
    found = {}
    with mock.patch.object(layered, "_BLOCK", block):
        for strategy in ("brute", "grid"):
            try:
                build_adjacency(cfg, strategy)
                found[strategy] = None
            except CertificationError as err:
                found[strategy] = str(err), [(p.id, q.id, gap) for p, q, gap in err.offenders]
    expected = (str(CertificationError(want)), [(p.id, q.id, gap) for p, q, gap in want]) if want else None
    assert found["brute"] == found["grid"] == expected


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
        offsets, _ = _pair_lists(pa, pb, d2, spec, "brute")
    assert seen == heights and len(offsets) == na + 1
    assert kernel_lists(pa, pb, d2, spec, "brute") == oracle_lists(pa, pb, d2, spec)


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
@given(aliased_configs(), st.sampled_from(["brute", "grid"]))
def test_repeated_pairs_decided_once(cfg, strategy):
    # each position against a kernel run of its own, offenders and all
    points = [ly.points for ly in cfg.layers]
    triples = list(zip(points, points[1:], cfg.spec.delta2))
    offenders = []
    want = tuple(kernel_lists(a, b, d2, cfg.spec, strategy, offenders) for a, b, d2 in triples)
    try:
        adj = build_adjacency(cfg, strategy)
    except CertificationError as err:
        assert str(err) == str(CertificationError(offenders))
        assert [(p.id, q.id, g) for p, q, g in err.offenders] == [(p.id, q.id, g) for p, q, g in offenders]
        adj = build_adjacency(cfg, strategy, certify=False)
    else:
        assert not offenders
    assert adj.neighbors == want == adjacency_oracle(cfg)
    # positions holding one (tuple, tuple, d2) share its arrays; others do not
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
    for strategy in ("brute", "grid"):
        assert kernel_lists([p], [q], d2, spec, strategy) == (((0,) if match else ()),)


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
        for strategy in ("brute", "grid"):
            assert kernel_lists([p], [q], d2, exact_spec(), strategy) == (((0,) if match else ()),)


def test_kernel_grid_cells_are_wider_than_the_reach():
    # at d2 = 1/9 exact cells are 1398102 / 2^22 wide, just above 1/3, so
    # a point just below a cell boundary has its partner at +1/3 in the
    # next cell; with cells of 1398101 / 2^22 it would be two cells on
    d2 = Fraction(1, 9)
    for offset in (0, 10**6):
        pa = [Point((offset + Fraction(j, 3 * 2**22), 0), i) for i, j in enumerate(range(4194290, 4194310))]
        pb = [Point((x + Fraction(1, 3), y), i) for i, (x, y) in enumerate(p.coords for p in pa)]
        want = tuple((i,) for i in range(len(pa)))
        assert kernel_lists(pa, pb, d2, exact_spec(), "grid") == want == oracle_lists(pa, pb, d2, exact_spec())


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
    for strategy in ("auto", "brute", "grid"):
        assert kernel_lists(pa, pb, Fraction(1), spec, strategy) == want


@CHECKS
@given(LATTICE, LATTICE, st.sampled_from([2.0**-1074, 2.0**-1000, 1e-300, 0.1]))
def test_kernel_exact_on_tiny_floats(xs, ys, unit):
    # exact mode reads each float as the rational it is; the oracle gets
    # those rationals, since float arithmetic would underflow
    pa = [Point((x * unit, y * unit), i) for i, (x, y) in enumerate(xs or [(0, 0)])]
    pb = [Point((x * unit, -y * unit), i) for i, (x, y) in enumerate(ys or [(1, 1)])]
    exact = [[Point(tuple(map(Fraction, p.coords)), p.id) for p in side] for side in (pa, pb)]
    d2 = sum((a - b) ** 2 for a, b in zip(exact[0][0].coords, exact[1][0].coords)) or Fraction(unit) ** 2
    want = oracle_lists(*exact, d2, exact_spec())
    for strategy in ("brute", "grid"):
        assert kernel_lists(pa, pb, d2, exact_spec(), strategy) == want


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
@given(exact_or_tolerant_configs(), EPS, st.sampled_from([0, 1]))
def test_richness_filter_matches_degree_filter(cfg, eps, parity):
    # the former filter: degrees from the pair kernel, one layer at a time,
    # for every class vector that leaves every layer nonempty
    order = list(range(cfg.k + 1))[:: 1 if parity else -1]
    cuts = richness_thresholds(max(map(len, cfg.layers)), eps)
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
                extend({**idx, i: m}, {**out, i: Layer(kept, cfg.layers[i].label)})

    if cfg.layers[order[0]].points:
        extend({order[0]: 0}, {order[0]: cfg.layers[order[0]]})
    filtering = _Filtering(cfg, cuts)
    got = filtering.children(filtering.whole, parity)
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


@CHECKS
@given(configs(), st.sampled_from(["integer", "rational", "tolerant"]), st.sampled_from(["brute", "grid"]))
def test_adjacency_matches_pair_oracle(cfg, kind, strategy):
    # the CSR arrays, read back as lists, against every pair decided alone
    if kind != "integer":
        scale = Fraction(1, 3) if kind == "rational" else 0.1
        layers = [[tuple(scale * c for c in p.coords) for p in ly.points] for ly in cfg.layers]
        cfg = make_config(layers, [d2 * scale * scale for d2 in cfg.spec.delta2], None if kind == "rational" else 1e-9)
    adj = build_adjacency(cfg, strategy, certify=False)
    assert adj.neighbors == adjacency_oracle(cfg)
    assert [adj.edge_count(i) for i in range(cfg.k)] == [sum(map(len, nbs)) for nbs in adj.neighbors]


@CHECKS
@given(configs(), st.data())
def test_restrict_matches_list_oracle(cfg, data):
    # picks in any order, empty ones included
    picks = [data.draw(st.lists(st.sampled_from(range(len(ly))), unique=True)) if len(ly) else [] for ly in cfg.layers]
    adj = build_adjacency(cfg)
    assert adj.restrict(picks).neighbors == restrict_oracle(adj.neighbors, picks)
