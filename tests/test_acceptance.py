"""Acceptance suite: one test per criterion, each printing a PASS line with
its wall time (run with ``pytest -s`` to see them all).  Expected values are
exact closed forms, counting identities, and desk-scale exponent fits; the
runtime limits are part of the criteria.
"""

import random
import time
from fractions import Fraction

from chain_census.constructions import (
    gen_3d_even,
    gen_orthogonal_circles,
    gen_planar_chain,
    gen_planar_k1mod3,
    gen_unit_rich_grid,
    peel_min_degree,
    split_and_translate,
)
from chain_census.experiment import report_csv, run_experiment, verify_covering
from chain_census.geometry import exact_spec, squared_distance
from chain_census.layered import (
    build_adjacency,
    count_chains,
    count_incidences,
    count_walks,
    make_config,
    make_layer,
)
from chain_census.richness import rich_points, stable_covering
from oracles import enumerate_chains, enumerate_walks_count

F = Fraction


def report(num, detail, t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, limit {limit}s"
    print(f"PASS criterion {num}: {detail} ({elapsed:.2f}s < {limit}s)")


def test_c01_planar_k2_exact_square():
    t0 = time.perf_counter()
    cfg = gen_planar_chain(2, None, 100, 0.25)
    got = count_chains(cfg)
    assert got == 10000
    report(1, "planar k=2 n=100 chains = 10000 exactly", t0, 5.0)


def test_c02_3d_even_exact_product():
    t0 = time.perf_counter()
    cfg = gen_3d_even(4, [1.0] * 4, 50)
    build_adjacency(cfg)  # separation certificate must pass
    got = count_chains(cfg)
    assert got == 125000
    report(2, "3d even k=4 n=50 chains = 125000 exactly, certificate passed", t0, 10.0)


def test_c03_orthogonal_circles_vs_brute_force():
    t0 = time.perf_counter()
    res = gen_orthogonal_circles(4, 3, 20)
    assert res.config.spec.exact
    got = count_chains(res.config)
    brute = len(enumerate_chains(res.config))
    assert got == brute == 16200
    report(3, "orthogonal d=4 k=3 n=20 chains = 16200 = brute force", t0, 5.0)


def test_c04_planar_exponent_fits():
    t0 = time.perf_counter()
    details = []
    for k, theory in ((3, 2), (5, 3)):
        rep = run_experiment("planar-chain", k, [16, 32, 64, 128], seed=0)
        assert rep.fit is not None
        assert abs(rep.fit.slope - theory) <= 0.2, (k, rep.fit.slope)
        details.append(f"k={k} slope {rep.fit.slope:.3f} ~ {theory}")
    report(4, "; ".join(details), t0, 60.0)


def test_c05_k1mod3_floor():
    t0 = time.perf_counter()
    res = gen_planar_k1mod3(4, 64, seed=0)
    got = count_chains(res.config)
    floor = 64 * res.preserved_incidences
    assert res.preserved_incidences > 0
    assert got >= floor
    report(5, f"k=4 n=64 chains {got} >= n*preserved = {floor}", t0, 30.0)


def test_c06_split_and_translate_guarantees():
    t0 = time.perf_counter()
    grid = gen_unit_rich_grid(400)
    res = split_and_translate(grid.points, grid.points, 1, 1.0, seed=0)
    diam2 = max(
        (squared_distance(p, q) for p in res.x2 for q in res.x2),
        default=F(0),
    )
    assert diam2 <= 1
    assert res.floor == F(res.original_incidences, 968)
    assert res.preserved_incidences >= res.floor
    report(
        6,
        f"diam^2 {float(diam2):.3f} <= 1, preserved {res.preserved_incidences} >= E/968 = "
        f"{float(res.floor):.3f}",
        t0,
        10.0,
    )


def test_c07_richness_identity_on_random_pairs():
    t0 = time.perf_counter()
    checked = 0
    for trial in range(20):
        rng = random.Random(1000 + trial)
        pts_a, pts_b = set(), set()
        while len(pts_a) < 200:
            pts_a.add((rng.randint(0, 20), rng.randint(0, 20)))
        while len(pts_b) < 200:
            pts_b.add((rng.randint(0, 20), rng.randint(0, 20)))
        P, Q = make_layer(sorted(pts_a)), make_layer(sorted(pts_b))
        d2 = rng.choice([1, 2, 4, 5])
        spec = exact_spec(d2)
        # each point of Q is r-rich for r = 1..its degree, so the r-rich
        # set sizes sum to the incidences
        rich, r = 0, 1
        while sub := rich_points(Q, P, F(d2), r, spec).points:
            rich += len(sub)
            r += 1
        assert rich == count_incidences(P, Q, F(d2), spec)
        checked += r - 1
    assert checked > 0
    report(7, f"richness identity held for {checked} realized r values over 20 pairs", t0, 10.0)


def test_c08_covering_equals_chain_set():
    t0 = time.perf_counter()
    eps = F(1, 2)
    for trial in range(10):
        rng = random.Random(2000 + trial)
        k = rng.randint(1, 3)
        layers = []
        for _ in range(k + 1):
            m = rng.randint(1, 5)
            pts = set()
            while len(pts) < m:
                pts.add((rng.randint(0, 3), rng.randint(0, 3)))
            layers.append(sorted(pts))
        cfg = make_config(layers, (1,) * k)
        classes = stable_covering(cfg, eps)
        union = set()
        for cc in classes:
            union |= enumerate_chains(cc.config)
        assert union == enumerate_chains(cfg), f"covering mismatch on trial {trial}"
        assert verify_covering(cfg, eps).passed, f"certificate failed on trial {trial}"
        bound = (k + 1) / eps + 1
        assert all(len(cc.sequence) <= bound for cc in classes)
    report(8, "10 configs: chain set = union of covering classes, lengths bounded", t0, 30.0)


def test_c09_oracle_equivalence():
    t0 = time.perf_counter()
    for trial in range(50):
        rng = random.Random(3000 + trial)
        k = rng.randint(0, 4)
        layers = []
        for _ in range(k + 1):
            m = rng.randint(1, 6)
            pts = set()
            while len(pts) < m:
                pts.add((rng.randint(0, 4), rng.randint(0, 4)))
            layers.append(sorted(pts))
        d2 = rng.choice([1, 2])
        cfg = make_config(layers, (d2,) * k)
        assert count_walks(cfg) == enumerate_walks_count(cfg)
        assert count_chains(cfg) == len(enumerate_chains(cfg))
    report(9, "walks and chains match exhaustive enumeration on 50 configs", t0, 60.0)


def test_c10_grid_peeling_guarantee():
    t0 = time.perf_counter()
    grid = gen_unit_rich_grid(400)
    layer = make_layer(grid.points)
    res = peel_min_degree(layer, grid.popular_d2, exact_spec(grid.popular_d2))
    assert len(res.layer.points) >= 1
    # min degree >= E0/(2N) in exact arithmetic
    assert 2 * res.vertex_count * res.min_degree >= res.initial_edges
    report(
        10,
        f"20x20 grid core nonempty, min degree {res.min_degree} >= "
        f"E0/(2N) = {float(res.threshold):.2f}",
        t0,
        5.0,
    )


def test_c11_experiment_determinism():
    t0 = time.perf_counter()
    runs = [
        report_csv(run_experiment("planar-chain", 3, [8, 16, 32], seed=42))
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    runs_k1 = [
        report_csv(run_experiment("planar-k1", 4, [16, 32], seed=7))
        for _ in range(2)
    ]
    assert runs_k1[0] == runs_k1[1]
    report(11, "repeated seeded experiments produce byte-identical CSV", t0, 60.0)
