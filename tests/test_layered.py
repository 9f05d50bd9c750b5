import random
from fractions import Fraction

import pytest

from chain_census.geometry import CertificationError, exact_spec, float_point
from chain_census.layered import (
    LabeledTree,
    build_adjacency,
    certify_config,
    count_chains,
    count_incidences,
    count_tree_embeddings,
    count_walks,
    enumerate_chains,
    enumerate_walks_count,
    make_config,
    make_layer,
    path_tree,
)
from chain_census.constructions import gen_orthogonal_circles, gen_planar_chain, gen_star

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

    def test_certification_failure_reported(self):
        cfg = make_config([[(0.0, 0.0)], [(1.0 + 2e-8, 0.0)]], (1.0,), eps=1e-9)
        with pytest.raises(CertificationError):
            build_adjacency(cfg)
        with pytest.raises(CertificationError):
            certify_config(cfg)


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
