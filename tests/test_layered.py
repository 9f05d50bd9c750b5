import math
import random
from fractions import Fraction

import pytest

from chain_census.geometry import (
    CertificationError,
    DistanceSpec,
    Point,
    exact_point,
    exact_spec,
    float_point,
    rational_circle_points,
)
from chain_census.layered import (
    LabeledTree,
    Layer,
    _chain_tree,
    _tree_counter,
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
from chain_census import layered
from chain_census.constructions import gen_orthogonal_circles, gen_planar_chain, gen_star
from oracles import backtrack_tree_embeddings, enumerate_chains, enumerate_walks_count

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


class TestAdjacency:
    def test_single_edge(self):
        cfg = make_config([[(0, 0)], [(1, 0)]], (1,))
        adj = build_adjacency(cfg)
        assert adj.neighbors == (((0,),),)

    def test_orthogonal_circles_complete_bipartite(self):
        cfg = gen_orthogonal_circles(4, 1, 20).config
        adj = build_adjacency(cfg)
        for i, nbs in enumerate(adj.neighbors[0]):
            assert len(nbs) == 10
            side = 0 if i < 10 else 1
            assert all((q >= 10) == (side == 0) for q in nbs)

    def test_grid_equals_brute_exact(self):
        rng = random.Random(17)
        for _ in range(10):
            cfg = random_int_config(rng, rng.randint(1, 3), 100, box=15, d2=rng.choice([1, 2, 4, 5]))
            brute = build_adjacency(cfg, strategy="brute")
            grid = build_adjacency(cfg, strategy="grid")
            assert brute == grid

    def test_grid_equals_brute_tolerant(self):
        rng = random.Random(23)
        for _ in range(5):
            layers = []
            for _ in range(3):
                layers.append([
                    float_point((rng.randint(0, 5) + rng.choice([0.0, 0.5]), rng.randint(0, 5)))
                    for _ in range(40)
                ])
            layers = [list({p.coords: p for p in ly}.values()) for ly in layers]
            cfg = make_config(layers, (1.0, 2.0), eps=1e-9)
            brute = build_adjacency(cfg, strategy="brute", certify=False)
            grid = build_adjacency(cfg, strategy="grid", certify=False)
            assert brute == grid

    @pytest.mark.parametrize("eps", [None, 1e-9])
    def test_auto_is_brute_when_the_grid_is_two_cells_wide(self, monkeypatch, eps):
        # the 7^3 integer points of a cube, the span of 3d-odd-regular
        # n=343, in cells of side sqrt(14): at most two cells per axis, each
        # neighbouring every other; the moved corner puts tolerant pairs in
        # the guard band
        pts = [(x, y, z) for x in range(7) for y in range(7) for z in range(7)]
        if eps:
            pts = [(x + (1e-8 if x == y == z == 0 else 0.0), float(y), float(z)) for x, y, z in pts]
        layer, spec = make_layer(pts).points, DistanceSpec((), eps)
        offsets, blocks = [], layered._cell_blocks
        monkeypatch.setattr(layered, "_cell_blocks", lambda *cells: offsets.append(len(cells[2])) or blocks(*cells))
        runs = {}
        for strategy in ("auto", "grid", "brute"):
            band: list = []
            csr = layered._pair_lists(layer, layer, 14 if eps is None else 14.0, spec, strategy, band)
            runs[strategy] = [arr.tolist() for arr in csr], band
        assert offsets == [27]  # only grid gathers index pairs; auto and brute test row tiles
        assert runs["auto"] == runs["grid"] == runs["brute"]
        assert runs["auto"][0][1] and bool(runs["auto"][1]) == bool(eps)

    def test_certification_failure_reported(self):
        cfg = make_config([[(0.0, 0.0)], [(1.0 + 2e-8, 0.0)]], (1.0,), eps=1e-9)
        with pytest.raises(CertificationError):
            build_adjacency(cfg)
        with pytest.raises(CertificationError):
            certify_config(cfg)


class TestRepeatedPairs:
    """Positions that hold one (point tuple, point tuple, d2) share one
    kernel run and its arrays."""

    def test_shared_arrays_are_read_only(self):
        res = gen_orthogonal_circles(4, 3, 12)
        adj = build_adjacency(res.config)
        assert adj.pairs[0] is adj.pairs[1] is adj.pairs[2]
        for arr in adj.pairs[0]:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        assert count_chains(res.config, adj) == res.closed_form == 1800

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
            assert count_chains(cfg) == count_chains(cfg.reversed())

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
        return build_adjacency(cfg, certify=True)

    def test_clean_set_passes(self):
        adj = self.certify([(0.0, 0.0)], [(1.0, 0.0), (5.0, 5.0)])
        assert adj.neighbors == (((0,),),)

    def test_guard_band_flagged(self):
        # squared gap ~4e-8: inside (eps, 100*eps]
        with pytest.raises(CertificationError) as err:
            self.certify([(0.0, 0.0)], [(1.0 + 2e-8, 0.0)])
        assert len(err.value.offenders) == 1

    def test_far_pairs_ignored(self):
        assert self.certify([(0.0, 0.0)], [(2.0, 0.0)]).total_edges() == 0


class TestLargeOffsetGrid:
    """Exact grid adjacency with coordinates far larger than the radius.

    Float cell keys once put true neighbours two cells apart here: auto
    counted 2520 of the 3480 incidences.
    """

    @staticmethod
    def grid():
        return [(10**6 + F(i, 1000), 10**6 + F(j, 1000)) for i in range(30) for j in range(30)]

    D2 = F(1, 10**6)

    def test_incidences(self):
        layer = make_layer(self.grid())
        spec = exact_spec(self.D2)
        # horizontal and vertical lattice neighbours, both orders
        assert count_incidences(layer, layer, self.D2, spec) == 2 * 2 * 30 * 29 == 3480
        assert count_incidences(layer, layer, self.D2, spec, strategy="grid") == 3480

    def test_grid_matches_brute_on_a_row(self):
        layer = make_layer(self.grid())
        row = make_layer([p for p in self.grid() if p[0] == 10**6 + F(13, 1000)])
        spec = exact_spec(self.D2)
        brute = count_incidences(row, layer, self.D2, spec, strategy="brute")
        assert count_incidences(row, layer, self.D2, spec) == brute == 118
        # all 810,000 pairs
        assert count_incidences(layer, layer, self.D2, spec, strategy="brute") == 3480

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
        wide = _chain_tree(cfg, None)
        wide.dtype = object
        assert wide.injective() == count_chains(cfg) == 1800
        assert wide.homs() == count_walks(cfg) == 2592

    def test_repeated_layers_share_one_sort_and_one_class_array(self):
        tree = _chain_tree(gen_orthogonal_circles(4, 3, 12).config, None)
        assert tree.edges[0] is tree.edges[1] is tree.edges[2]
        assert tree.classes[0] is tree.classes[1] is tree.classes[2] is tree.classes[3]

    def test_neighbours_are_kept_apart_without_a_pass(self, monkeypatch):
        # in exact mode no edge joins two points of one class, so no block
        # of two tree neighbours is ever counted
        blocks, homs = [], layered._CountTree.homs
        monkeypatch.setattr(layered._CountTree, "homs", lambda self, b=(): blocks.extend(m for m, _ in b) or homs(self, b))
        assert count_chains(gen_orthogonal_circles(4, 3, 12).config) == 1800
        assert sorted(set(blocks)) == [(0, 2), (0, 3), (1, 3)]


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
