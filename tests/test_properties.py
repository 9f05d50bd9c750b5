"""Property tests: the counting engine and the pair kernel against
independent oracles.

Configurations are small and exact, drawn so that layers overlap, repeat
or are empty, which is where the Möbius correction for shared points has
work to do.  The pair kernel is checked against the pair-by-pair
predicate ``matches_distance``, on both sides of its int64 bound, and its
grid strategy against its brute strategy far from the origin and at tiny
radii.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from chain_census.geometry import DistanceSpec, Point, exact_spec, matches_distance
from chain_census.layered import (
    LabeledTree,
    _pair_lists,
    _PairView,
    count_chains,
    count_tree_embeddings,
    count_walks,
    enumerate_chains,
    enumerate_walks_count,
    make_config,
    make_layer,
    path_tree,
)
from chain_census.richness import degree_vector
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
    """Two point sets on a lattice of spacing h (down to 1/700000), offset
    by up to 10^6, and a squared distance the lattice realizes."""
    h = draw(st.sampled_from([Fraction(1), Fraction(1, 1000), Fraction(1, 700_000)]))
    offset = draw(st.sampled_from([0, 10**6, -(10**6) + Fraction(1, 3)]))
    m = draw(st.sampled_from([1, 2, 4, 5, 8, 25]))

    def place(pts):
        return [Point((offset + h * x, offset + h * y), i) for i, (x, y) in enumerate(pts)]

    return place(draw(LATTICE)), place(draw(LATTICE)), m * h * h, h


def oracle_lists(pa, pb, d2, spec):
    return tuple(tuple(j for j, q in enumerate(pb) if matches_distance(p, q, d2, spec)) for p in pa)


@CHECKS
@given(lattice_pairs())
def test_kernel_grid_equals_brute_exact(case):
    pa, pb, d2, _ = case
    brute = _pair_lists(pa, pb, d2, exact_spec(), "brute")
    assert _pair_lists(pa, pb, d2, exact_spec(), "grid") == brute == oracle_lists(pa, pb, d2, exact_spec())


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
        lists = _pair_lists(pa, pb, d2, spec, strategy, offenders)
        found[strategy] = lists, [(p.id, q.id, gap) for p, q, gap in offenders]
    assert found["grid"] == found["brute"]
    assert found["brute"][0] == oracle_lists(pa, pb, d2, spec)


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
    # a large common denominator pushes L^2 past int64: Python ints decide
    pa = [Point((x / den, y / den), i) for i, (x, y) in enumerate(xs)]
    pb = [Point((x / den, y / den), i) for i, (x, y) in enumerate(ys)]
    d2 = (pa[0].coords[0] - pb[0].coords[0]) ** 2 + (pa[0].coords[1] - pb[0].coords[1]) ** 2 or Fraction(1)
    spec = DistanceSpec((), eps)
    wide = _PairView(pa, pb, d2, eps).a.dtype == object
    assert wide == (den > 1 or eps is not None)
    assert _pair_lists(pa, pb, d2, spec) == oracle_lists(pa, pb, d2, spec)
    degrees = degree_vector(make_layer(pa), make_layer(pb), d2, spec)
    assert degrees == [sum(matches_distance(p, q, d2, spec) for q in pb) for p in pa]
