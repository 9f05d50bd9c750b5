import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from chain_census import richness
from chain_census.geometry import exact_spec
from chain_census.layered import BipartiteAdjacency, LayeredConfig, count_incidences, make_config, make_layer
from chain_census.richness import (
    _Filtering,
    degree_vector,
    rich_points,
    richness_thresholds,
    stable_covering,
)
from chain_census.constructions import (
    gen_3d_odd_regular,
    gen_orthogonal_circles,
    gen_star,
    gen_unit_rich_grid,
)
from oracles import covering_oracle, enumerate_chains

F = Fraction


def config_with_degrees(degrees):
    """Targets far apart, each given its own count of unit-circle neighbors."""
    targets = []
    refs = []
    for j, d in enumerate(degrees):
        cx = 100 * j
        targets.append((cx, 0))
        for i in range(d):
            # rational points on the unit circle around (cx, 0)
            t = F(i + 1, 2 * d + 2)
            den = 1 + t * t
            refs.append((cx + (1 - t * t) / den, 2 * t / den))
    return make_layer(targets), make_layer(refs)


class TestRichPoints:
    def test_r1_is_positive_degree(self):
        tgt, ref = config_with_degrees([0, 1, 2])
        sub = rich_points(tgt, ref, F(1), 1, exact_spec(1))
        assert {p.coords for p in sub.points} == {(100, 0), (200, 0)}

    def test_monotone_in_r(self):
        tgt, ref = config_with_degrees([1, 2, 3, 4, 5])
        spec = exact_spec(1)
        prev = None
        for r in range(1, 7):
            cur = {p.coords for p in rich_points(tgt, ref, F(1), r, spec).points}
            if prev is not None:
                assert cur <= prev
            prev = cur

    def test_star_center_is_rich(self):
        res = gen_star(3, 30)
        center_layer = res.layers[0]
        for i, circle in enumerate(res.layers[1:]):
            sub = rich_points(center_layer, circle, res.tree.edges[i][2], 10, res.spec)
            assert len(sub.points) == 1

    def test_matches_brute_degree_histogram(self):
        rng = random.Random(61)
        pts_a = list({(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(60)})
        pts_b = list({(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(60)})
        tgt, ref = make_layer(pts_a), make_layer(pts_b)
        spec = exact_spec(2)
        degs = degree_vector(tgt, ref, F(2), spec)
        for r in range(1, max(degs) + 2):
            want = {p.coords for p, d in zip(tgt.points, degs) if d >= r}
            got = {p.coords for p in rich_points(tgt, ref, F(2), r, spec).points}
            assert got == want


class TestThresholds:
    def test_tiling(self):
        cuts = richness_thresholds(16, F(1, 2))
        assert cuts[0] == 1
        assert cuts[-1] >= 17
        assert all(a <= b for a, b in zip(cuts, cuts[1:]))

    def test_eps_one(self):
        cuts = richness_thresholds(10, F(1))
        assert cuts[0] == 1 and cuts[1] == 10 and cuts[2] >= 11


def passes(cfg, eps, parity=1):
    """{class vector: filtered layers} of every filtering pass over cfg."""
    filtering = _Filtering(cfg, richness_thresholds(max(map(len, cfg.layers)), eps))
    return {idx: sub.layers for idx, sub in filtering.children(filtering.whole, parity)}


class TestRichnessFilter:
    def test_zero_alpha_keeps_low_degrees(self):
        # all degrees are 1, hence in [1, n): the one pass is the zero vector
        # and keeps full layers
        cfg = make_config(
            [[(0, 0), (10, 0)], [(1, 0), (11, 0)], [(2, 0), (12, 0)]], (1, 1)
        )
        assert passes(cfg, F(1)) == {(0, 0, 0): cfg.layers}

    def test_top_class_catches_full_degree(self):
        # complete bipartite: degree equals n, the top exponent class
        cfg = make_config([[(0, 0)], [(1, 0)]], (1,))
        assert passes(cfg, F(1)) == {(0, 1): cfg.layers}

    def test_empty_layer_stays_empty(self):
        # no pass can fill the empty layer, so none leaves every layer nonempty
        cfg = make_config([[(0, 0)], [], [(5, 5)]], (1, 1))
        assert passes(cfg, F(1, 2), 1) == passes(cfg, F(1, 2), 0) == {}

    def test_output_contained_in_input(self):
        rng = random.Random(71)
        for parity in (0, 1):
            for _ in range(10):
                layers = [
                    list({(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(5)})
                    for _ in range(3)
                ]
                cfg = make_config(layers, (1, 1))
                for out in passes(cfg, F(1, 2), parity).values():
                    for before, after in zip(cfg.layers, out):
                        assert {p.coords for p in after.points} <= {p.coords for p in before.points}

    def test_every_chain_in_some_filter_class(self):
        rng = random.Random(73)
        for _ in range(5):
            layers = [
                list({(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(4)})
                for _ in range(3)
            ]
            cfg = make_config(layers, (1, 1))
            chains = enumerate_chains(cfg)
            for parity in (0, 1):
                covered = set()
                for out in passes(cfg, F(1, 2), parity).values():
                    covered |= enumerate_chains(LayeredConfig(out, cfg.spec))
                assert covered == chains


class TestStableCovering:
    def test_single_layer(self):
        cfg = make_config([[(0, 0), (1, 1)]], ())
        classes = stable_covering(cfg, F(1, 2))
        assert len(classes) == 1
        assert len(classes[0].config.layers[0]) == 2

    def test_covering_equals_chain_set(self):
        rng = random.Random(79)
        for _ in range(10):
            k = rng.randint(1, 3)
            layers = [
                list({(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(4)})
                for _ in range(k + 1)
            ]
            cfg = make_config(layers, (1,) * k)
            classes = stable_covering(cfg, F(1, 2))
            got = set()
            for cc in classes:
                got |= enumerate_chains(cc.config)
            assert got == enumerate_chains(cfg)

    def test_length_bound(self):
        rng = random.Random(83)
        for _ in range(10):
            k = rng.randint(1, 3)
            eps = rng.choice([F(1, 2), F(1), F(1, 3)])
            layers = [
                list({(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(4)})
                for _ in range(k + 1)
            ]
            cfg = make_config(layers, (1,) * k)
            classes = stable_covering(cfg, eps)
            bound = (k + 1) / eps + 1
            for cc in classes:
                assert len(cc.sequence) <= bound

    def test_covering_family_is_finite_and_bounded(self):
        cfg = make_config([[(0, 0), (1, 0)], [(1, 1), (0, 1)]], (1,))
        eps = F(1, 2)
        classes = stable_covering(cfg, eps)
        lam = (1 + 2) ** (cfg.k + 1)  # |exponent grid|^(k+1) vectors per step
        assert len(classes) <= lam ** int((cfg.k + 1) / eps + 1)

    def test_class_sizes_recorded(self):
        cfg = gen_orthogonal_circles(4, 1, 8).config
        classes = stable_covering(cfg, F(1, 2))
        for cc in classes:
            assert len(cc.sequence.class_sizes) == len(cc.sequence.vectors)
            got = 1
            for layer in cc.config.layers:
                got *= len(layer)
            assert cc.sequence.class_sizes[-1] == got


    def test_3d_odd_regular_classes(self):
        # pins both filter directions: odd steps run left to right, even
        # steps right to left
        classes = stable_covering(gen_3d_odd_regular(3, 64).config, F(1, 4))
        lines = [f"classes {len(classes)}"]
        for cc in classes:
            steps = ";".join(",".join(str(a) for a in vec) for vec in cc.sequence.vectors)
            sizes = ",".join(str(s) for s in cc.sequence.class_sizes)
            lines.append(f"sequence {steps} sizes {sizes}")
        assert "\n".join(lines) + "\n" == (
            "classes 8\n"
            "sequence 0,1/4,0,0;0,1/4,0,0 sizes 294912,110592\n"
            "sequence 0,1/4,0,1/4;0,1/4,1/2,0 sizes 491520,184320\n"
            "sequence 0,1/2,1/4,0;0,0,1/4,0;0,0,1/4,0 sizes 688128,110592,110592\n"
            "sequence 0,1/2,1/4,0;1/4,0,1/4,0;0,1/2,1/4,0 sizes 688128,184320,184320\n"
            "sequence 0,1/2,1/2,1/4;0,0,0,0;0,0,0,1/4 sizes 1605632,110592,110592\n"
            "sequence 0,1/2,1/2,1/4;1/4,0,0,0;0,1/4,0,1/4 sizes 1605632,147456,147456\n"
            "sequence 0,1/2,1/2,1/4;1/4,1/4,0,0;0,1/2,1/4,1/4 sizes 1605632,393216,393216\n"
            "sequence 0,1/2,1/2,1/2 sizes 11239424\n"
        )


class TestLevelSearch:
    """The covering search expands a whole BFS depth at once, in chunks of
    partial passes that fit a budget of gathered neighbours and dense
    (partial, point) counts."""

    # Layer 1 splits into degree classes 0 (b1) and 1 (b2); the pass that
    # keeps b1 finds no point of layer 2 adjacent to it, so it ends there.
    DEAD_END = make_config([[(0, 0), (2, 0), (10, 0)], [(1, 0), (10, 1)], [(1, 1), (20, 20)]], (1, 1))

    @pytest.mark.parametrize(
        "cfg, eps",
        [
            (gen_3d_odd_regular(3, 64).config, F(1, 4)),
            (gen_3d_odd_regular(3, 64).config, F(1, 10)),
            (gen_orthogonal_circles(4, 3, 12).config, F(1, 3)),
            (DEAD_END, F(1, 2)),
        ],
        ids=["odd64-quarter", "odd64-tenth", "orthogonal12", "dead-end"],
    )
    def test_chunks_do_not_change_classes(self, monkeypatch, cfg, eps):
        want = stable_covering(cfg, eps)
        assert want == covering_oracle(cfg, eps)
        for budget in (64, 1):  # many partials per chunk, then one
            monkeypatch.setattr(richness, "_BUDGET", budget)
            assert stable_covering(cfg, eps) == want

    def test_degree_outside_thresholds_is_refused(self):
        # an adjacency that lists one neighbour three times: degree 3 > n
        cfg = make_config([[(0, 0)], [(1, 0)]], (1,))
        adjacency = BipartiteAdjacency(((np.array([0, 3]), np.array([0, 0, 0])),))
        with pytest.raises(AssertionError, match="degree 3 outside threshold range"):
            stable_covering(cfg, F(1, 2), adjacency)

    def test_length_bound_is_checked(self, monkeypatch):
        # true class sizes cannot outlast the bound; sizes that shrink by
        # more than n^eps at every step do
        sizes = (10 ** (100 - 3 * t) for t in itertools.count())
        shrinking = SimpleNamespace(floor=math.floor, ceil=math.ceil, prod=lambda _: next(sizes))
        monkeypatch.setattr(richness, "math", shrinking)
        cfg = make_config([[(0, 0)], [(1, 0)]], (1,))
        with pytest.raises(AssertionError, match="guaranteed length bound"):
            stable_covering(cfg, F(1, 2))


class TestRichnessBound:
    """r times the number of r-rich points is at most their incidences,
    counted by the incidence counter."""

    def test_complete_bipartite_equality(self):
        cfg = gen_orthogonal_circles(4, 1, 20).config
        a = make_layer(cfg.layers[0].points[:10])
        b = make_layer(cfg.layers[0].points[10:])
        spec = exact_spec(1)
        assert count_incidences(a, b, F(1), spec) == 100
        assert rich_points(b, a, F(1), 10, spec).points == b.points
        assert rich_points(b, a, F(1), 11, spec).points == ()

    def test_single_edge(self):
        p, q, spec = make_layer([(0, 0)]), make_layer([(1, 0)]), exact_spec(1)
        assert count_incidences(p, q, F(1), spec) == 1
        assert len(rich_points(q, p, F(1), 1, spec).points) == 1
        assert rich_points(q, p, F(1), 2, spec).points == ()

    def test_grid_all_r(self):
        grid = gen_unit_rich_grid(144)
        layer = make_layer(grid.points)
        d2, spec = grid.popular_d2, exact_spec(grid.popular_d2)
        total = count_incidences(layer, layer, d2, spec)
        assert total == 2 * grid.pair_count
        for r in range(1, max(degree_vector(layer, layer, d2, spec)) + 1):
            sub = rich_points(layer, layer, d2, r, spec)
            assert r * len(sub.points) <= count_incidences(layer, sub, d2, spec) <= total

    def test_matches_incidence_counter(self):
        rng = random.Random(89)
        pts_a = list({(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(18)})
        pts_b = list({(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(18)})
        P, Q = make_layer(pts_a), make_layer(pts_b)
        spec = exact_spec(1)
        degs = [count_incidences(P, make_layer([q]), F(1), spec) for q in Q.points]
        for r in range(1, max(degs) + 2):
            sub = rich_points(Q, P, F(1), r, spec)
            assert len(sub.points) == sum(d >= r for d in degs)
            assert count_incidences(P, sub, F(1), spec) == sum(d for d in degs if d >= r)
