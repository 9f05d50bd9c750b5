import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from chain_census.geometry import (
    CertificationError,
    DistanceSpec,
    Point,
    ResolutionError,
    exact_point,
    exact_spec,
    rational_circle_points,
)
from chain_census.layered import (
    BipartiteAdjacency,
    LabeledTree,
    Layer,
    _chain_tree,
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
from chain_census import layered
from chain_census.constructions import gen_orthogonal_circles, gen_planar_chain, gen_star
from oracles import (
    backtrack_tree_embeddings,
    enumerate_chains,
    enumerate_walks_count,
    matches_distance,
    neighbors,
    reversed_config,
)

F = Fraction


def random_int_config(rng, k, max_pts, box=4, d2=1):
    layers = []
    for _ in range(k + 1):
        m = rng.randint(1, min(max_pts, (box + 1) ** 2 // 2))
        pts = set()
        while len(pts) < m:
            pts.add((rng.randint(0, box), rng.randint(0, box)))
        layers.append(sorted(pts))
    return make_config(layers, (d2,) * k)


@pytest.mark.parametrize(
    "layers, delta2, eps, error",
    [
        pytest.param([[(True, 0)], [(1, 0)]], [1], None, "exact spec requires rational coordinates", id="bool"),
        pytest.param([[(0.5, 0)], [(1, 0)]], [1], None, "exact spec requires rational coordinates", id="float-exact"),
        pytest.param(
            [[(0.5, 0.0), (F(1, 2), 1)], [(1.0, 0.0)]], [1.0], 1e-9,
            "tolerant spec requires float coordinates", id="rational-tolerant",
        ),
        pytest.param([[()], [()]], [1.0], 1e-9, "tolerant spec requires float coordinates", id="no-coordinates"),
        pytest.param([[(0, 0)], [(1, 0, 0)]], [1], None, "layers mix dimensions", id="dimensions-across"),
        pytest.param([[(0, 0), (1, 0, 0)]], [], None, "layers mix dimensions", id="dimensions-within"),
        pytest.param(
            [[(2, 0), (F(2), F(0))]], [], None, "layer 1: duplicate point coordinates", id="duplicate-int-fraction",
        ),
        pytest.param(
            [[(0.5, 0.0)], [(1.0, 0.0), (1.0, 0.0)]], [1.0], 1e-9,
            "layer 2: duplicate point coordinates", id="duplicate-float",
        ),
        pytest.param(
            [Layer((Point((0, 0), 0), Point((1, 0), 0)), 1)], [], None,
            "layer 1: point ids are not unique", id="duplicate-ids",
        ),
        pytest.param([[(0, 0)]], [1], None, "1 layers but 1 squared distances", id="layer-count"),
        pytest.param([[(0.5, F(1, 2))], [(1.5, 0.5)]], [1.0], 1e-9, None, id="mixed-tolerant-accepted"),
        pytest.param([[(True, False)], [(1.5, 0.5)]], [1.0], 1e-9, None, id="bool-tolerant-accepted"),
    ],
)
def test_validate_errors(layers, delta2, eps, error):
    """One fault per case, each with its exact error message; a layer given
    as a Layer keeps its ids, so duplicate ids reach the check."""
    if error is None:
        make_config(layers, delta2, eps)
        return
    with pytest.raises(ValueError) as info:
        make_config(layers, delta2, eps)
    assert type(info.value) is ValueError and str(info.value) == error


def test_coord_classes_key_equal_numbers_alike():
    """Classes are shared by equal coordinates whatever their number type:
    ints, Fractions of whole values, other Fractions and floats."""
    ints = make_layer([(0, 0), (1, 2), (3, 4)]).points
    fracs = make_layer([(F(1), F(2)), (F(1, 2), 0), (0, F(0))]).points
    more = make_layer([(F(3), 4), (F(1, 2), F(0))]).points
    want = [[0, 1, 2], [1, 3, 0], [2, 3], [0, 1, 2]]
    got = layered._coord_classes([Layer(ints), Layer(fracs), Layer(more), Layer(ints)])
    assert [c.tolist() for c in got] == want
    floats = make_layer([(0.5, 0.0), (1.0, 2.0)]).points
    assert [c.tolist() for c in layered._coord_classes([Layer(fracs), Layer(floats)])] == [[0, 1, 2], [1, 0]]


@pytest.mark.parametrize(
    "a, b",
    [
        (F(1, 2), 0.5), (F(4, 2), 2), (F(4, 2), 2.0), (F(2**60), 2.0**60), (F(3, 2**1074), 3 * 2.0**-1074),
        (F(1, 3), 1 / 3), (F(1, 2**1100), 0.0), (F(2**53 + 1, 2), (2**53 + 1) / 2), (F(-1, 2), F(1, 2)),
    ],
)
def test_coordinate_keys_are_equal_iff_the_numbers_are(a, b):
    # a Fraction's key is its int, the float equal to it, or a pair no
    # int or float equals; equal keys hash alike
    ka, kb = layered._key(a), layered._key(b)
    assert (ka == kb) == (a == b)
    assert ka != kb or hash(ka) == hash(kb)


class TestAdjacency:
    def test_single_edge(self):
        cfg = make_config([[(0, 0)], [(1, 0)]], (1,))
        adj = build_adjacency(cfg)
        assert neighbors(adj) == (((0,),),)

    def test_orthogonal_circles_complete_bipartite(self):
        cfg = gen_orthogonal_circles(4, 1, 20).config
        adj = build_adjacency(cfg)
        for i, nbs in enumerate(neighbors(adj)[0]):
            assert len(nbs) == 10
            side = 0 if i < 10 else 1
            assert all((q >= 10) == (side == 0) for q in nbs)

    def test_certification_failure_reported(self):
        cfg = make_config([[(0.0, 0.0)], [(1.0 + 2e-8, 0.0)]], (1.0,), eps=1e-9)
        with pytest.raises(CertificationError):
            build_adjacency(cfg)

    def test_config_adjacency_is_cached_and_read_only(self):
        cfg = make_config([[(0, 0), (2, 0)], [(1, 0), (3, 0)], [(2, 0)]], (1, 1))
        assert cfg.adjacency is cfg.adjacency and cfg.adjacency == build_adjacency(cfg)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.adjacency = build_adjacency(cfg)

    def test_equality_compares_every_array(self):
        cfg = make_config([[(0, 0), (2, 0)], [(1, 0), (3, 0)], [(2, 0)]], (1, 1))
        adj = build_adjacency(cfg)
        assert adj == build_adjacency(cfg)
        assert adj != BipartiteAdjacency(adj.pairs[:1])  # one pair fewer
        indices = np.array([0, 1])
        split = BipartiteAdjacency(((np.array([0, 1, 2]), indices),))
        assert split == BipartiteAdjacency(((np.array([0, 1, 2]), indices.copy()),))
        assert split != BipartiteAdjacency(((np.array([0, 2, 2]), indices),))  # same indices, rows split apart


class TestRepeatedPairs:
    """Positions that hold one (point tuple, point tuple, d2) share one
    kernel run and its arrays."""

    def test_shared_arrays_are_read_only(self):
        res = gen_orthogonal_circles(4, 3, 12)
        adj = res.config.adjacency
        assert adj.pairs[0] is adj.pairs[1] is adj.pairs[2]
        for arr in adj.pairs[0]:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        assert count_chains(res.config) == res.closed_form == 1800

    def test_guard_band_offenders_once_per_position(self):
        # positions 0 and 1 repeat (a, a, 1.0), position 2 does not; the
        # text and offenders are those the kernel gave with one run per
        # position
        a = make_layer([(0.0, 0.0), (1.0 + 2e-8, 0.0), (5.0, 5.0)])
        b = make_layer([(0.0, 1.0 + 3e-8), (2.0, 2.0)])
        cfg = make_config([a, a, a, b], (1.0, 1.0, 1.0), eps=1e-9)
        with pytest.raises(CertificationError) as err:
            build_adjacency(cfg)
        assert str(err.value) == (
            "5 pair(s) inside the separation guard band: |d2(0,1)-target|=4.000e-08, "
            "|d2(1,0)-target|=4.000e-08, |d2(0,1)-target|=4.000e-08"
        )
        assert [(p.id, q.id) for p, q, _ in err.value.offenders] == [(0, 1), (1, 0), (0, 1), (1, 0), (0, 0)]

    def test_replicated_tree_layer_runs_each_distance_once(self, monkeypatch):
        calls, kernel = [], layered._pair_lists
        monkeypatch.setattr(layered, "_pair_lists", lambda *a, **kw: calls.append(a[2]) or kernel(*a, **kw))
        grid = make_layer([(x, y) for y in range(3) for x in range(4)])
        tree = LabeledTree(6, ((0, 1, 1), (1, 2, 1), (1, 3, 2), (3, 4, 1), (0, 5, 1)))
        got = count_tree_embeddings(grid, tree, exact_spec())
        assert got == 464 == backtrack_tree_embeddings(grid, tree, exact_spec())
        assert sorted(calls) == [1, 2]


class TestWalks:
    def test_k0(self):
        cfg = make_config([[(i, 0) for i in range(5)]], ())
        assert count_walks(cfg) == 5

    @pytest.mark.parametrize("size", [0, 1, 3])
    def test_k0_chains_and_walks(self, size):
        # the engine's root alone: one chain and one walk per point
        cfg = make_config([[(i, 0) for i in range(size)]], ())
        assert count_chains_and_walks(cfg) == (size, size)

    def test_complete_bipartite_product(self):
        # alternating 10-point circle layers: every step has degree 10
        base = gen_orthogonal_circles(4, 1, 20).config
        a = [p for p in base.layers[0].points[:10]]
        b = [p for p in base.layers[0].points[10:]]
        cfg = make_config([a, b, a, b], (F(1),) * 3)
        assert count_walks(cfg) == 10**4

    def test_matches_enumeration(self):
        rng = random.Random(29)
        for _ in range(20):
            cfg = random_int_config(rng, rng.randint(1, 3), 5)
            assert count_walks(cfg) == enumerate_walks_count(cfg)


class TestChains:
    def test_planar_k2(self):
        cfg = gen_planar_chain(2, None, 5, 0.25)
        assert count_chains(cfg) == 25

    def test_orthogonal_brute_force(self):
        res = gen_orthogonal_circles(4, 3, 20)
        assert count_chains(res.config) == 16200
        assert len(enumerate_chains(res.config)) == 16200

    def test_chains_at_most_walks(self):
        rng = random.Random(31)
        for _ in range(20):
            cfg = random_int_config(rng, rng.randint(1, 4), 5)
            assert count_chains(cfg) <= count_walks(cfg)

    def test_direction_symmetry(self):
        rng = random.Random(37)
        for _ in range(20):
            cfg = random_int_config(rng, rng.randint(1, 3), 5, d2=rng.choice([1, 2]))
            assert count_chains(cfg) == count_chains(reversed_config(cfg))

    def test_matches_enumeration(self):
        rng = random.Random(41)
        for _ in range(20):
            cfg = random_int_config(rng, rng.randint(1, 4), 6)
            assert count_chains(cfg) == len(enumerate_chains(cfg))

    def test_disjoint_layers_chains_equal_walks(self):
        cfg = gen_planar_chain(2, None, 6, 0.25)
        assert count_chains(cfg) == count_walks(cfg)


class TestIncidences:
    def test_unit_square_corners(self):
        corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
        layer = make_layer(corners)
        assert count_incidences(layer, layer, 1, exact_spec(1)) == 8

    def test_dimension_mismatch_rejected(self):
        # a point of R^2 and one of R^4 hold 6 coordinates, as 3 points of R^2 do
        a, b = make_layer([(0, 0)]), make_layer([(1, 0, 0, 0)])
        for spec in (exact_spec(1), DistanceSpec((), 1e-9)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                count_incidences(a, b, 1, spec)

    def test_orthogonal_pair(self):
        cfg = gen_orthogonal_circles(4, 1, 20).config
        a = make_layer(cfg.layers[0].points[:10])
        b = make_layer(cfg.layers[0].points[10:])
        assert count_incidences(a, b, F(1), exact_spec(1)) == 100

    def test_grid_popular_matches_brute(self):
        from chain_census.constructions import gen_unit_rich_grid
        from chain_census.geometry import squared_distance

        grid = gen_unit_rich_grid(900)
        layer = make_layer(grid.points)
        want = sum(
            1
            for p in grid.points
            for q in grid.points
            if p.coords != q.coords and squared_distance(p, q) == grid.popular_d2
        )
        got = count_incidences(layer, layer, grid.popular_d2, exact_spec(grid.popular_d2))
        assert got == want == 2 * grid.pair_count


class TestSeparationCertificate:
    """The guard-band certificate that build_adjacency runs in tolerant mode."""

    @staticmethod
    def certify(a, b):
        cfg = make_config([a, b], (1.0,), eps=1e-9)
        return build_adjacency(cfg)

    def test_clean_set_passes(self):
        adj = self.certify([(0.0, 0.0)], [(1.0, 0.0), (5.0, 5.0)])
        assert neighbors(adj) == (((0,),),)

    def test_guard_band_flagged(self):
        # squared gap ~4e-8: inside (eps, 100*eps]
        with pytest.raises(CertificationError) as err:
            self.certify([(0.0, 0.0)], [(1.0 + 2e-8, 0.0)])
        assert len(err.value.offenders) == 1

    def test_far_pairs_ignored(self):
        assert self.certify([(0.0, 0.0)], [(2.0, 0.0)]).total_edges() == 0

    def test_unresolvable_distance_refused(self):
        # 1e-9 lies below (2 + 2) 2^-53 2^30, float64 rounding of a squared
        # distance near 2^30, so a clean band certifies nothing (half-integer
        # coordinates: integer ones have exact squared distances)
        cfg = make_config([[(0.5, 0.0)], [(2.0**15 + 0.5, 0.0)]], (2.0**30,), eps=1e-9)
        with pytest.raises(ResolutionError) as err:
            build_adjacency(cfg)
        assert str(err.value) == (
            "tolerance 1e-09 cannot resolve squared distance 1073741824.0 (float64 rounding bound 4.768e-07)"
        )
        assert isinstance(err.value, CertificationError) and err.value.offenders == []

    @pytest.mark.parametrize(
        "b, d2, edges",
        [
            ([(2.0**15, 0.0)], 2.0**30, 1),
            ([(2.0**15, 0.0), (0.0, 2.0**26)], 2.0**30, 1),  # span^2 2^52 + 2^30: still exact
            ([(2.0**15, 0.0), (2.0**27, 0.0)], 2.0**30, None),  # span^2 2^54
            ([(2.0**15, 0.0)], 2.0**30 + 0.5, None),  # d2 no integer
            ([(2.0**27, 0.0)], 2.0**54, None),  # d2 past 2^53
        ],
    )
    def test_integer_coordinates_resolve_exactly(self, b, d2, edges):
        # integer coordinates whose squared distances, and their gaps to an
        # integer d2, stay at most 2^53 are summed exactly: no refusal
        cfg = make_config([[(0.0, 0.0)], b], (d2,), eps=1e-9)
        if edges is None:
            with pytest.raises(ResolutionError):
                build_adjacency(cfg)
        else:
            assert build_adjacency(cfg).total_edges() == edges

    def test_resolvable_distance_certified(self):
        # 2^20: the bound 4.7e-10 is below the tolerance
        cfg = make_config([[(0.0, 0.0)], [(2.0**10, 0.0)]], (2.0**20,), eps=1e-9)
        assert build_adjacency(cfg).total_edges() == 1

    def test_offenders_keep_their_error(self):
        # at 10^8 the band is unresolvable too, but one ulp past 10^4 puts a
        # pair 3e-8 off its target: the offender is what the error names
        cfg = make_config([[(0.0, 0.0)], [(1e4, 0.0), (math.nextafter(1e4, 2e4), 0.0)]], (1e8,), eps=1e-9)
        with pytest.raises(CertificationError) as err:
            build_adjacency(cfg)
        assert str(err.value) == "1 pair(s) inside the separation guard band: |d2(0,1)-target|=2.980e-08"

    def test_uncertified_tolerance_not_refused(self):
        # a tolerance coarser than d2/100 decides pairs uncertified
        spec = DistanceSpec((), 2.0**24)
        assert count_incidences(make_layer([(0.0, 0.0)]), make_layer([(2.0**15, 0.0)]), 2.0**30, spec) == 1


class TestLargeOffsetGrid:
    """Exact adjacency on a lattice whose coordinates are far larger than
    its spacing and the radius."""

    @staticmethod
    def grid():
        return [(10**6 + F(i, 1000), 10**6 + F(j, 1000)) for i in range(30) for j in range(30)]

    D2 = F(1, 10**6)

    def test_incidences(self):
        layer = make_layer(self.grid())
        spec = exact_spec(self.D2)
        # horizontal and vertical lattice neighbours, both orders
        assert count_incidences(layer, layer, self.D2, spec) == 2 * 2 * 30 * 29 == 3480

    def test_grid_matches_brute_on_a_row(self):
        layer = make_layer(self.grid())
        row = make_layer([p for p in self.grid() if p[0] == 10**6 + F(13, 1000)])
        spec = exact_spec(self.D2)
        brute = sum(matches_distance(p, q, self.D2, spec) for p in row.points for q in layer.points)
        assert count_incidences(row, layer, self.D2, spec) == brute == 118

    def test_single_edge_tree(self):
        tree = LabeledTree(2, ((0, 1, self.D2),))
        layer = make_layer(self.grid())
        assert count_tree_embeddings(layer, tree, exact_spec()) == 3480

    def test_chains_over_three_copies(self):
        cfg = make_config([self.grid()] * 3, (self.D2, self.D2))
        assert count_chains(cfg) == 10088


class TestTreeEmbeddings:
    def test_path_equals_chains(self):
        rng = random.Random(47)
        for _ in range(10):
            cfg = random_int_config(rng, rng.randint(1, 3), 5)
            tree = path_tree(cfg.spec.delta2)
            got = count_tree_embeddings(list(cfg.layers), tree, cfg.spec)
            assert got == count_chains(cfg)

    def test_star_concentric(self):
        res = gen_star(3, 30)
        assert count_tree_embeddings(res.layers, res.tree, res.spec) == 1000

    def test_single_edge_equals_incidences(self):
        rng = random.Random(53)
        cfg = random_int_config(rng, 1, 12)
        tree = LabeledTree(2, ((0, 1, cfg.spec.delta2[0]),))
        got = count_tree_embeddings(list(cfg.layers), tree, cfg.spec)
        assert got == count_incidences(cfg.layers[0], cfg.layers[1], cfg.spec.delta2[0], cfg.spec)

    def test_single_set_replication(self):
        res = gen_orthogonal_circles(4, 2, 8)
        tree = path_tree((F(1), F(1)))
        got = count_tree_embeddings(res.config.layers[0], tree, res.config.spec)
        assert got == count_chains(res.config)

    def test_invalid_trees_rejected(self):
        with pytest.raises(ValueError):
            LabeledTree(3, ((0, 1, 1),)).validate()  # too few edges
        with pytest.raises(ValueError):
            LabeledTree(4, ((0, 1, 1), (2, 3, 1), (0, 1, 2))).validate()  # disconnected
        with pytest.raises(ValueError):
            LabeledTree(3, ((0, 1, 1), (1, 2, 0),)).validate()  # nonpositive label


class TestCountingEngine:
    """Cases the engine once handled badly, and both number paths."""

    def test_orthogonal_above_benchmark_size(self):
        # a block spans positions 0 and 3 of four repeated layers
        res = gen_orthogonal_circles(4, 3, 100)
        assert res.closed_form == 2 * (50 * 49) ** 2
        assert count_chains(res.config) == res.closed_form

    GRID = [(x, y) for x in range(4) for y in range(2)]

    def test_one_shared_set_path(self):
        layer, tree, spec = make_layer(self.GRID), path_tree((1,) * 7), exact_spec()
        assert count_tree_embeddings(layer, tree, spec) == 28 == backtrack_tree_embeddings(layer, tree, spec)

    def test_one_shared_set_star_of_three_paths(self):
        # 10 vertices on 8 points: nothing embeds, but 3045 patterns have
        # homomorphisms; pruning keeps the rest unvisited
        edges = tuple((0 if j == 0 else 3 * arm + j, 3 * arm + j + 1, 1) for arm in range(3) for j in range(3))
        layer, tree, spec = make_layer(self.GRID), LabeledTree(10, edges), exact_spec()
        assert count_tree_embeddings(layer, tree, spec) == 0 == backtrack_tree_embeddings(layer, tree, spec)

    @staticmethod
    def unit_star(sizes):
        """A centre at the origin and one layer of rational unit-circle points
        per arm, on disjoint arcs, so every tuple embeds."""
        origin = exact_point((0, 0))
        arcs = [
            make_layer(rational_circle_points(origin, 1, m, (F(i, len(sizes)), F(i + 1, len(sizes)))))
            for i, m in enumerate(sizes)
        ]
        tree = LabeledTree(len(sizes) + 1, tuple((0, i + 1, 1) for i in range(len(sizes))))
        return [make_layer([origin]), *arcs], tree

    @pytest.mark.parametrize(
        "sizes, wide",
        [([100] * 12, True), ([100] * 9 + [10], True), ([100] * 9 + [9], False), ([100] * 9, False)],
    )
    def test_counts_either_side_of_int64(self, sizes, wide):
        # int64 while the product of the layer sizes stays below 2^63,
        # Python ints past it; 9 * 10^18 is within 3% of the bound
        layers, tree = self.unit_star(sizes)
        counter = _tree_counter(layers, tree, exact_spec())
        assert (counter.dtype == object) == wide
        assert counter.injective() == math.prod(sizes)

    def test_wide_chains_equal_int64_chains(self):
        cfg = gen_orthogonal_circles(4, 3, 12).config
        wide = _chain_tree(cfg)
        wide.dtype = object
        assert wide.injective() == count_chains(cfg) == 1800
        assert wide.homs() == count_walks(cfg) == 2592

    def test_repeated_layers_share_one_sort_and_one_class_array(self):
        tree = _chain_tree(gen_orthogonal_circles(4, 3, 12).config)
        assert tree.run(0) is tree.run(1) is tree.run(2)
        assert tree.classes[0] is tree.classes[1] is tree.classes[2] is tree.classes[3]

    def test_neighbours_are_kept_apart_without_a_pass(self, monkeypatch):
        # in exact mode no edge joins two points of one class, so no block
        # of two tree neighbours is ever counted
        blocks, homs = [], layered._CountTree.homs
        monkeypatch.setattr(layered._CountTree, "homs", lambda self, b=(): blocks.extend(m for m, _ in b) or homs(self, b))
        assert count_chains(gen_orthogonal_circles(4, 3, 12).config) == 1800
        assert sorted(set(blocks)) == [(0, 2), (0, 3), (1, 3)]

    @pytest.mark.parametrize("wide", [False, True])
    def test_spanning_block_closes_inside_its_carry(self, monkeypatch, wide):
        # block {0, 3}: push 0 -> 1 opens it, push 1 -> 2 carries it and
        # sums each window straight into vertex 3's points along vertex
        # 2's edges, so vertex 2 never pushes (no closing lookup) and no
        # (point, class) state of vertex 2 is built or kept
        cfg = gen_orthogonal_circles(4, 3, 12).config
        tree = _chain_tree(cfg)
        tree.dtype = object if wide else tree.dtype
        calls, push = [], layered._CountTree._push

        def spy(self, u, *args):
            done, axes, state = out = push(self, u, *args)
            calls.append((u, done, axes))
            return out

        monkeypatch.setattr(layered._CountTree, "_push", spy)
        searches, searchsorted = [], np.searchsorted
        monkeypatch.setattr(np, "searchsorted", lambda a, v, *rest: searches.append(np.size(v)) or searchsorted(a, v, *rest))
        got = tree.homs([((0, 3), tree.sets[0] & tree.sets[3])])
        assert calls == [(0, 0, (0,)), (1, 2, ())]
        assert [key[0] for key in tree._memo] == [0, 2]  # the opening push and vertex 2's dense push
        assert cfg.adjacency.edge_count(2) not in searches  # no lookup per edge of vertex 2
        a = [np.zeros((len(q) - 1, 12), int) for q, _ in cfg.adjacency.pairs]
        for m, (offsets, indices) in zip(a, cfg.adjacency.pairs):
            m[np.repeat(np.arange(12), np.diff(offsets)), indices] = 1
        assert got == np.trace(a[0] @ a[1] @ a[2]) == 0  # odd closed walks: none on two circles


class TestValidation:
    def test_layer_count_mismatch(self):
        with pytest.raises(ValueError):
            make_config([[(0, 0)], [(1, 0)]], (1, 1))

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError):
            make_config([[(0.5, 0.0)], [(1, 0)]], (1,))

    def test_duplicate_coords_rejected(self):
        with pytest.raises(ValueError):
            make_config([[(0, 0), (0, 0)]], ())
