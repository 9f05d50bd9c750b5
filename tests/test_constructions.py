import dataclasses
import functools
import math
from fractions import Fraction

import pytest

from chain_census.geometry import (
    TOLERANCE,
    CertificationError,
    Point,
    ResolutionError,
    exact_point,
    exact_spec,
    float_point,
    squared_distance,
)
from chain_census.layered import (
    build_adjacency,
    count_chains,
    count_incidences,
    count_tree_embeddings,
    make_config,
    make_layer,
)
from chain_census.constructions import (
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
from chain_census import constructions, layered
from chain_census.experiment import run_experiment
from oracles import enumerate_chains, to_float_layers

F = Fraction


def max_sq_diam(points):
    pts = list(points)
    worst = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            worst = max(worst, squared_distance(pts[i], pts[j]))
    return worst


class TestPlanarChain:
    def test_k0_single_point(self):
        cfg = gen_planar_chain(0, [], 1)
        assert count_chains(cfg) == 1

    def test_k2_exact_square(self):
        cfg = gen_planar_chain(2, None, 5, 0.25)
        assert cfg.spec.exact
        assert count_chains(cfg) == 25

    def test_k5_floor(self):
        cfg = gen_planar_chain(5, None, 8, 0.25)
        assert count_chains(cfg) >= 8**3

    def test_k3_floor_and_last_layer_diameter(self):
        eps = 0.125
        cfg = gen_planar_chain(3, None, 6, eps)
        assert count_chains(cfg) >= 6**2
        assert float(max_sq_diam(cfg.layers[-1].points)) <= eps * eps

    def test_base_last_layer_diameter_exact(self):
        eps = 0.25
        cfg = gen_planar_chain(2, None, 7, eps)
        assert max_sq_diam(cfg.layers[-1].points) <= F(eps) ** 2

    def test_tolerant_configs_certify(self):
        cfg = gen_planar_chain(6, None, 5, 0.25)
        build_adjacency(cfg)  # must not raise
        cfg.validate()

    def test_invalid_delta_rejected(self):
        with pytest.raises(ValueError):
            gen_planar_chain(2, [1, 0], 5)

    @pytest.mark.parametrize(
        "k, delta2, chains",
        [(2, [3, 3], 81), (1, [3], 9), (5, [3, 3, 1, 4, 9], 729), (2, [1, 3], 81)],
    )
    def test_float_base(self, k, delta2, chains):
        # no rational point has squared norm 3, so every base arc is float
        cfg = gen_planar_chain(k, delta2, 9)
        assert not cfg.spec.exact
        assert all(type(c) is float for layer in cfg.layers for p in layer.points for c in p.coords)
        assert count_chains(cfg) == chains
        if k == 2:
            assert not cfg.layers[0].coords.keyset & cfg.layers[2].coords.keyset

    def test_float_converted_base_is_certified(self):
        # the exact base turned to floats puts pairs in the guard band, and
        # only the certificate of the whole configuration tests base pairs
        with pytest.raises(CertificationError):
            gen_planar_chain(5, [10**8, 10**8, 1, 4, 9], 9)

    @pytest.mark.parametrize("j", range(21))
    def test_scaled_distances_count_or_refuse(self, j):
        # the default distances scaled by 4^j: the count of the unscaled
        # construction, or a refusal once float64 rounding of the largest
        # squared distance, (2 + 2) 2^-53 d2, reaches the tolerance; never
        # a smaller count
        delta2 = [4**j * d for d in (1, 4, 9, 16, 25)]
        if 4 * 2.0**-53 * max(delta2) < TOLERANCE:
            assert count_chains(gen_planar_chain(5, delta2, 3)) == 27
        else:
            with pytest.raises(ResolutionError, match="cannot resolve squared distance"):
                gen_planar_chain(5, delta2, 3)

    def test_determinism(self):
        a = gen_planar_chain(5, None, 6, 0.25, seed=9)
        b = gen_planar_chain(5, None, 6, 0.25, seed=9)
        assert [tuple(p.coords for p in la.points) for la in a.layers] == [
            tuple(p.coords for p in lb.points) for lb in b.layers
        ]


def count_pair_calls(monkeypatch) -> list:
    """Record (d2, spec.k) of every tolerant call of the pair kernel (the
    exact calls of `split_and_translate` decide no layer pair): spec.k is
    0 for a pair the planar generators decide as they build it and k for
    a configuration's `build_adjacency`."""
    calls, kernel = [], layered._pair_lists

    def counted(pa, pb, d2, spec, *args, **kwargs):
        if spec.eps:
            calls.append((d2, spec.k))
        return kernel(pa, pb, d2, spec, *args, **kwargs)

    monkeypatch.setattr(layered, "_pair_lists", counted)
    return calls


class TestPlanarFloatBase:
    """Float planar bases come from the circle kernel's integers by true
    division; they equal the exact base turned to floats point by point."""

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("delta2", [None, [F(1, 4), F(25, 9), 1, 4, 9]], ids=["default", "rational"])
    def test_planar_chain_k5(self, n, delta2):
        delta2 = delta2 or [1, 4, 9, 16, 25]
        cfg = gen_planar_chain(5, delta2, n)
        base = gen_planar_chain(2, delta2[:2], n, min(math.sqrt(delta2[2]), math.sqrt(delta2[3])) / 3)
        assert base.spec.exact
        want = to_float_layers(base.layers)
        assert [[(p.coords, p.id) for p in ly.points] for ly in cfg.layers[:3]] == [
            [(p.coords, p.id) for p in ly.points] for ly in want
        ]

    @pytest.mark.parametrize("n", [9, 16, 30])
    def test_planar_k1_k4(self, n):
        res = gen_planar_k1mod3(4, n)
        want = to_float_layers([make_layer(res.split.x1), make_layer(res.split.x2)])
        assert [[(p.coords, p.id) for p in ly.points] for ly in res.config.layers[:2]] == [
            [(p.coords, p.id) for p in ly.points] for ly in want
        ]


class TestCertifiedOnce:
    def test_experiment_size_runs_five_pairs(self, monkeypatch):
        # the two base pairs and the extension step's three, each decided
        # once with the guard-band check; the count reuses their arrays
        calls = count_pair_calls(monkeypatch)
        report = run_experiment("planar-chain", 5, [16])
        assert report.rows[0].status == "ok" and report.rows[0].chains == 16**3
        assert calls == [(float((i + 1) ** 2), 0) for i in range(5)]

    @pytest.mark.parametrize(
        "construction, k, builds",
        # the count reuses the certificate's adjacency, and 3d-odd-sphere's
        # one certificate covers the pairs kept from its inner 3d-even
        # layers; planar-k1 decides its pairs as it builds them
        [("3d-even", 2, 1), ("3d-even", 4, 1), ("3d-odd-sphere", 3, 1), ("planar-k1", 4, 0)],
    )
    def test_experiment_size_builds_certified_adjacency(self, monkeypatch, construction, k, builds):
        calls, build = [], layered.build_adjacency

        def counted(*args, **kwargs):
            calls.append(args[0].k)
            return build(*args, **kwargs)

        monkeypatch.setattr(layered, "build_adjacency", counted)
        row = run_experiment(construction, k, [16]).rows[0]
        assert row.status == "ok" and row.chains > 0
        assert len(calls) == builds

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("n", [1, 7, 64, 256])
    def test_k5_converts_each_layer_once(self, monkeypatch, n, seed):
        # the kernel reads the array forms of the six layers' own
        # coordinate stores, and the build and the count hash each store's
        # keys once: no store builds a form twice
        built = {"axes": [], "keyset": []}
        for name, ids in built.items():
            form = layered._Coords.__dict__[name]
            prop = functools.cached_property(lambda c, form=form, ids=ids: ids.append(id(c)) or form.func(c))
            prop.__set_name__(layered._Coords, name)
            monkeypatch.setattr(layered._Coords, name, prop)
        views, init = [], layered._PairView.__init__
        monkeypatch.setattr(layered._PairView, "__init__", lambda v, *a: init(v, *a) or views.extend(map(id, v.sides)))
        cfg = gen_planar_chain(5, None, n, 0.25, seed)
        assert count_chains(cfg) == n**3
        stores = {id(ly.coords) for ly in cfg.layers}
        assert len(stores) == 6 and set(views) == stores
        for ids in built.values():
            assert len(ids) == len(set(ids)) and set(ids) <= stores

    def test_k8_certifies_each_pair_once(self, monkeypatch):
        calls = count_pair_calls(monkeypatch)
        gen_planar_chain(8, None, 4)
        assert calls == [(float((i + 1) ** 2), 0) for i in range(8)]

    @pytest.mark.parametrize("k", [4, 7])
    def test_planar_k1_decides_each_pair_once(self, monkeypatch, k):
        calls = count_pair_calls(monkeypatch)
        res = gen_planar_k1mod3(k, 9)
        assert calls == [(d2, 0) for d2 in res.config.spec.delta2]

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("k, delta2", [(3, None), (5, None), (6, None), (8, None), (5, [3, 3, 1, 4, 9])])
    def test_planar_chain_adjacency_is_the_certificate(self, k, delta2, n):
        cfg = gen_planar_chain(k, delta2, n, 0.25, 0)
        assert cfg.adjacency == build_adjacency(cfg)

    @pytest.mark.parametrize("k, n", [(4, 9), (4, 30), (7, 9)])
    def test_planar_k1_adjacency_is_the_certificate(self, k, n):
        cfg = gen_planar_k1mod3(k, n).config
        assert cfg.adjacency == build_adjacency(cfg)


def nudged(points, count):
    """The points, the first `count` moved radially by a factor 1 + 5e-9,
    which puts them in the guard band of the unit circle's distance."""
    s = 1 + 5e-9
    return [Point((p.coords[0] * s, p.coords[1] * s), p.id) if i < count else p for i, p in enumerate(points)]


class TestBaseGuardBand:
    """A base pair in the guard band raises the certificate's error after
    the extension steps, with the text the configuration-wide certificate
    gave; a failed extension step raises first."""

    @pytest.fixture
    def nudged_base(self, monkeypatch):
        base = constructions._planar_base

        def patched(*args, **kwargs):
            layers, d2, tol = base(*args, **kwargs)
            return [make_layer(nudged(layers[0].points, 2)), *layers[1:]], d2, tol

        monkeypatch.setattr(constructions, "_planar_base", patched)

    @pytest.mark.parametrize("k", [5, 8])
    def test_planar_chain(self, nudged_base, k):
        with pytest.raises(CertificationError) as err:
            gen_planar_chain(k, None, 7)
        assert str(err.value) == (
            "2 pair(s) inside the separation guard band: |d2(0,-1)-target|=1.000e-08, |d2(1,-1)-target|=1.000e-08"
        )

    def test_float_base(self):
        with pytest.raises(CertificationError) as err:
            gen_planar_chain(5, [10**8, 10**8, 1, 4, 9], 9)
        assert str(err.value) == (
            "12 pair(s) inside the separation guard band: |d2(0,-1)-target|=1.490e-08, "
            "|d2(2,-1)-target|=1.490e-08, |d2(4,-1)-target|=1.490e-08"
        )

    def test_failed_extension_wins(self, nudged_base, monkeypatch):
        monkeypatch.setattr(constructions, "_matched", lambda *args: None)
        with pytest.raises(constructions.ConstructionError, match="after 64 attempts"):
            gen_planar_chain(5, None, 7)

    @pytest.mark.parametrize("k", [4, 7])
    def test_planar_k1(self, monkeypatch, k):
        split = constructions.split_and_translate

        def patched(*args, **kwargs):
            res = split(*args, **kwargs)
            (x, y), i = res.x1[0].coords, res.x1[0].id
            return dataclasses.replace(res, x1=(Point((x + F(1, 2 * 10**8), y), i), *res.x1[1:]))

        monkeypatch.setattr(constructions, "split_and_translate", patched)
        with pytest.raises(CertificationError) as err:
            gen_planar_k1mod3(k, 9)
        assert str(err.value) == "1 pair(s) inside the separation guard band: |d2(0,1)-target|=1.000e-08"


class TestUnitRichGrid:
    def test_two_by_two(self):
        grid = gen_unit_rich_grid(4)
        assert grid.popular_d2 == 1
        assert grid.pair_count == 4

    def test_matches_brute_histogram(self):
        grid = gen_unit_rich_grid(9)
        hist = {}
        pts = grid.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d = squared_distance(pts[i], pts[j])
                hist[d] = hist.get(d, 0) + 1
        best = max(hist.items(), key=lambda kv: (kv[1], -kv[0]))
        assert grid.popular_d2 == best[0]
        assert grid.pair_count == best[1]

    def test_neighbor_floor(self):
        for m in (4, 10, 30):
            grid = gen_unit_rich_grid(m)
            assert grid.pair_count >= m - 1

    def test_too_small(self):
        with pytest.raises(ValueError):
            gen_unit_rich_grid(3)


class TestSplitAndTranslate:
    def test_two_points(self):
        res = split_and_translate([exact_point((0, 0), 0)], [exact_point((1, 0), 0)], 1, 0.5)
        assert res.preserved_incidences == 1
        assert len(res.x2) == 1
        assert max_sq_diam(res.x2) == 0

    def test_grid_pair_floor(self):
        grid = gen_unit_rich_grid(100)
        res = split_and_translate(grid.points, grid.points, 1, 1.0, seed=0)
        assert res.floor == F(res.original_incidences, 968)
        assert res.preserved_incidences >= res.floor
        assert max_sq_diam(res.x2) <= 1

    def test_half_edges_survive_cutting(self):
        grid = gen_unit_rich_grid(64)
        res = split_and_translate(grid.points, grid.points, 1, 1.0, seed=3)
        assert 2 * res.uncut_edges >= res.original_incidences

    def test_no_edges_rejected(self):
        with pytest.raises(ValueError):
            split_and_translate([exact_point((0, 0), 0)], [exact_point((5, 0), 0)], 1, 0.5)

    def test_determinism(self):
        grid = gen_unit_rich_grid(49)
        a = split_and_translate(grid.points, grid.points, grid.popular_d2, 1.0, seed=5)
        b = split_and_translate(grid.points, grid.points, grid.popular_d2, 1.0, seed=5)
        assert a.offset == b.offset
        assert [p.coords for p in a.x2] == [p.coords for p in b.x2]

    def test_distance_preserved_inside_squares(self):
        grid = gen_unit_rich_grid(36)
        res = split_and_translate(grid.points, grid.points, 1, 2.0, seed=1)
        spec = exact_spec(1)
        assert (
            count_incidences(make_layer(res.x1), make_layer(res.x2), F(1), spec)
            == res.preserved_incidences
        )

    def test_no_point_dropped_for_lying_on_a_line(self):
        # offsets placing a vertex on a grid line are rejected, so the first
        # side always survives in full
        grid = gen_unit_rich_grid(81)
        res = split_and_translate(grid.points, grid.points, 1, 1.0, seed=2)
        assert len(res.x1) == len(grid.points)
        assert len({p.coords for p in res.x1}) == len(grid.points)


class TestPlanarK1:
    def test_k1_is_the_pair(self):
        res = gen_planar_k1mod3(1, 16, eps=1.0)
        assert res.config.k == 1
        assert count_chains(res.config) == res.preserved_incidences

    def test_k4_floor(self):
        res = gen_planar_k1mod3(4, 16, seed=0)
        assert count_chains(res.config) >= 16 * res.preserved_incidences

    def test_wrong_congruence(self):
        with pytest.raises(ValueError):
            gen_planar_k1mod3(2, 16)


class Test3dEven:
    def test_k2_n7(self):
        cfg = gen_3d_even(2, [1.0, 1.0], 7)
        assert count_chains(cfg) == 49

    def test_k4_n5(self):
        cfg = gen_3d_even(4, [1.0] * 4, 5)
        assert count_chains(cfg) == 125

    def test_k2_n1(self):
        cfg = gen_3d_even(2, [1.0, 1.0], 1)
        assert count_chains(cfg) == 1

    def test_unequal_distances(self):
        cfg = gen_3d_even(4, [1.0, 4.0, 0.25, 2.25], 3)
        assert count_chains(cfg) == 27

    def test_layers_disjoint_and_certified(self):
        cfg = gen_3d_even(6, [1.0] * 6, 4)
        seen = set()
        for layer in cfg.layers:
            cs = layer.coords.keyset
            assert not (cs & seen)
            seen |= cs
        build_adjacency(cfg)

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            gen_3d_even(3, [1.0] * 3, 4)


class TestPeeling:
    def test_triangle_kept(self):
        from chain_census.geometry import DistanceSpec

        pts = make_layer([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)])
        res = peel_min_degree(pts, 1.0, DistanceSpec((1.0,), 1e-9))
        assert len(res.layer.points) == 3
        assert res.min_degree == 2

    def test_tolerant_peel_runs_the_certificate(self):
        # (0, 0) and (0, 1.00000002) lie in the guard band of d2 1: peeling
        # the layer refuses it as counting its pairs does, not 3 edges
        from chain_census.geometry import DistanceSpec

        layer = make_layer([(0.0, 0.0), (1.0, 0.0), (0.0, 1.00000002), (1.0, 1.0)])
        spec = DistanceSpec((1.0,), TOLERANCE)
        for decide in (lambda: count_incidences(layer, layer, 1.0, spec), lambda: peel_min_degree(layer, 1.0, spec)):
            with pytest.raises(CertificationError, match="^2 pair"):
                decide()

    def test_star_keeps_everything(self):
        # K_{1,5} at unit distance: four lattice neighbors plus one rational
        layer = make_layer(
            [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (F(3, 5), F(4, 5))]
        )
        res = peel_min_degree(layer, F(1), exact_spec(1))
        assert res.initial_edges == 5
        assert res.threshold == F(5, 12)
        assert len(res.layer.points) == 6
        assert res.min_degree >= 1

    def test_grid_min_degree_guarantee(self):
        grid = gen_unit_rich_grid(400)
        layer = make_layer(grid.points)
        res = peel_min_degree(layer, grid.popular_d2, exact_spec(grid.popular_d2))
        assert len(res.layer.points) >= 1
        assert 2 * res.vertex_count * res.min_degree >= res.initial_edges

    def test_no_edges(self):
        with pytest.raises(ValueError):
            peel_min_degree(make_layer([(0, 0), (5, 5)]), F(1), exact_spec(1))


class Test3dOddRegular:
    def test_small_grid_brute_force(self):
        res = gen_3d_odd_regular(3, 8)
        got = count_chains(res.config)
        assert got == len(enumerate_chains(res.config))
        assert got >= res.floor

    def test_n125_floor(self):
        res = gen_3d_odd_regular(3, 125)
        got = count_chains(res.config)
        assert got >= len(res.core.points) * max(res.min_degree - 3, 0) ** 3

    def test_layers_identical(self):
        res = gen_3d_odd_regular(3, 27)
        first = res.config.layers[0].coords.keyset
        assert all(layer.coords.keyset == first for layer in res.config.layers)


class Test3dOddSphere:
    def test_default_supplier_floor(self):
        res = gen_3d_odd_sphere(3, 16)
        assert res.sphere_incidences >= 16
        assert count_chains(res.config) >= res.floor

    def test_sphere_membership(self):
        res = gen_3d_odd_sphere(3, 9)
        center = res.config.layers[1].points[0]
        for p in res.config.layers[2].points:
            assert abs(float(squared_distance(p, center)) - 1.0) <= 1e-9

    def test_off_sphere_supplier_rejected(self, monkeypatch):
        def bad(n, center):
            return [float_point((9.0, 9.0, 9.0))], [float_point((10.0, 9.0, 9.0))]

        monkeypatch.setattr(constructions, "_circle_bouquet", bad)
        with pytest.raises(ValueError, match="off the unit sphere"):
            gen_3d_odd_sphere(3, 9)

    def test_zero_incidence_supplier(self, monkeypatch):
        def lonely(n, center):
            cx, cy, cz = (float(c) for c in center.coords)
            xs = [float_point((cx + 1.0, cy, cz))]
            ys = [float_point((cx + 50.0, cy, cz))]
            return xs, ys

        monkeypatch.setattr(constructions, "_circle_bouquet", lonely)
        res = gen_3d_odd_sphere(3, 4)
        assert res.sphere_incidences == 0
        assert res.floor == 0
        assert count_chains(res.config) == 0


class TestOrthogonalCircles:
    def test_k1_n20(self):
        res = gen_orthogonal_circles(4, 1, 20)
        assert res.closed_form == 200
        assert count_chains(res.config) == 200

    def test_k3_n20(self):
        res = gen_orthogonal_circles(4, 3, 20)
        assert res.closed_form == 16200
        assert count_chains(res.config) == 16200

    def test_cross_pairs_exact(self):
        res = gen_orthogonal_circles(4, 1, 12)
        pts = res.config.layers[0].points
        for p in pts[:6]:
            for q in pts[6:]:
                assert squared_distance(p, q) == 1

    def test_small_brute_force(self):
        res = gen_orthogonal_circles(4, 2, 8)
        assert count_chains(res.config) == len(enumerate_chains(res.config)) == res.closed_form

    def test_higher_dimension_padding(self):
        res = gen_orthogonal_circles(6, 1, 8)
        assert res.config.dim == 6
        assert count_chains(res.config) == res.closed_form

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            gen_orthogonal_circles(4, 1, 7)


class TestStar:
    def test_single_edge(self):
        res = gen_star(1, 10)
        assert count_tree_embeddings(res.layers, res.tree, res.spec) == 10

    def test_three_circles(self):
        res = gen_star(3, 30)
        got = count_tree_embeddings(res.layers, res.tree, res.spec)
        assert got == 1000 == res.closed_form

    def test_three_circles_brute_force(self):
        from itertools import product

        from oracles import matches_distance

        res = gen_star(3, 12)
        brute = 0
        for tup in product(*(layer.points for layer in res.layers)):
            if len({p.coords for p in tup}) != len(tup):
                continue
            if all(matches_distance(tup[a], tup[b], d2, res.spec) for a, b, d2 in res.tree.edges):
                brute += 1
        assert brute == count_tree_embeddings(res.layers, res.tree, res.spec) == 64

    def test_center_not_on_circles(self):
        res = gen_star(2, 8)
        center = res.layers[0].points[0]
        for layer in res.layers[1:]:
            assert center.coords not in layer.coords.keyset

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            gen_star(3, 10)


class TestStarOfPaths:
    def test_tree_shape(self):
        res = gen_star_of_paths(3, 4)
        assert res.tree.vertex_count == 10
        degree = sum(1 for a, b, _ in res.tree.edges if 0 in (a, b))
        assert degree == 3

    def test_l1_matches_path_config(self):
        res = gen_star_of_paths(1, 5)
        # same layers counted as a 4-layer path configuration
        cfg = make_config([layer.points for layer in res.layers], (1.0, 1.0, 1.0), eps=1e-9)
        assert res.count == count_chains(cfg)

    def test_joints_fixed_floor(self):
        res = gen_star_of_paths(3, 8)
        assert res.count >= 8**4
        assert res.floor == 8**4

    def test_center_fixed_floor(self):
        res = gen_star_of_paths(2, 8, variant="center-fixed", grid_m=16)
        assert res.count >= res.floor
        assert res.floor >= 1

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            gen_star_of_paths(1, 4, variant="sideways")
