import math
import random
from fractions import Fraction

import pytest

from chain_census.geometry import (
    DistanceSpec,
    NoRationalPointError,
    Point,
    circle_circle_intersection,
    circle_point_at,
    exact_point,
    exact_spec,
    float_point,
    matches_distance,
    rational_circle_points,
    rational_point_on_circle,
    sample_circle_3d,
    sphere_sphere_intersection_circle,
    squared_distance,
    tolerant_spec,
    two_integer_squares,
)

F = Fraction


class TestSquaredDistance:
    def test_identity(self):
        p = exact_point((0, 0))
        assert squared_distance(p, p) == 0

    def test_pythagorean_unit(self):
        assert squared_distance(exact_point((0, 0)), exact_point((F(3, 5), F(4, 5)))) == 1

    def test_orthogonal_halves(self):
        p = exact_point((F(1, 2), F(1, 2), 0, 0))
        q = exact_point((0, 0, F(1, 2), F(1, 2)))
        assert squared_distance(p, q) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            squared_distance(exact_point((0, 0)), exact_point((0, 0, 0)))

    def test_symmetry_nonnegativity(self):
        rng = random.Random(3)
        for _ in range(50):
            p = exact_point((F(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-5, 5)))
            q = exact_point((rng.randint(-5, 5), F(rng.randint(-9, 9), rng.randint(1, 9))))
            d = squared_distance(p, q)
            assert d == squared_distance(q, p)
            assert d >= 0
            assert (d == 0) == (p.coords == q.coords)


class TestMatchesDistance:
    def test_exact_true(self):
        spec = exact_spec(1)
        assert matches_distance(exact_point((0, 0)), exact_point((F(3, 5), F(4, 5))), F(1), spec)

    def test_exact_false(self):
        spec = exact_spec(1)
        assert not matches_distance(exact_point((0, 0)), exact_point((1, 1)), F(1), spec)

    def test_tolerant(self):
        spec = tolerant_spec((1.0,), 1e-9)
        p, q = float_point((0, 0)), float_point((0.6, 0.8))
        assert abs((0.6**2 + 0.8**2) - 1.0) <= 1e-9  # the float evaluation itself
        assert matches_distance(p, q, 1.0, spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DistanceSpec((F(0),), None)
        with pytest.raises(ValueError):
            DistanceSpec((1.0,), 0.5)  # eps must be < min(delta2)/100


class TestRationalCircle:
    def test_seed_at_t0(self):
        p = circle_point_at(exact_point((0, 0)), (F(1), F(0)), 0)
        assert p.coords == (F(1), F(0))

    def test_half_angle_identity(self):
        p = circle_point_at(exact_point((0, 0)), (F(1), F(0)), F(1, 2))
        assert p.coords == (F(3, 5), F(4, 5))

    def test_half_radius_circle(self):
        center = exact_point((0, 0))
        pts = rational_circle_points(center, F(1, 2), 3, seed=(F(1, 2), F(1, 2)))
        assert len({p.coords for p in pts}) == 3
        for p in pts:
            assert squared_distance(p, center) == F(1, 2)

    def test_seed_found_automatically(self):
        pts = rational_circle_points(exact_point((3, 4)), F(13, 9), 5)
        for p in pts:
            assert squared_distance(p, exact_point((3, 4))) == F(13, 9)

    def test_no_rational_point(self):
        with pytest.raises(NoRationalPointError):
            rational_circle_points(exact_point((0, 0)), F(3), 2)

    def test_empty_range(self):
        with pytest.raises(ValueError):
            rational_circle_points(exact_point((0, 0)), F(1), 2, t_range=(F(1), F(1)))

    def test_round_trip_property(self):
        rng = random.Random(11)
        spec_cache = {}
        for _ in range(20):
            a, b = rng.randint(0, 6), rng.randint(1, 6)
            r2 = F(a * a + b * b, rng.choice([1, 4, 9]))
            if r2 == 0:
                continue
            center = exact_point((rng.randint(-3, 3), rng.randint(-3, 3)))
            m = rng.randint(1, 8)
            pts = rational_circle_points(center, r2, m)
            spec = spec_cache.setdefault(r2, exact_spec(r2))
            assert len({p.coords for p in pts}) == m
            for p in pts:
                assert matches_distance(p, center, r2, spec)

    def test_two_squares(self):
        assert two_integer_squares(25) in ((0, 5), (3, 4), (4, 3), (5, 0))
        assert two_integer_squares(3) is None
        assert rational_point_on_circle(F(3)) is None


class TestCircleCircle:
    def test_tangency(self):
        pts = circle_circle_intersection(float_point((0, 0)), 1.0, float_point((2, 0)), 1.0)
        assert len(pts) == 1
        assert pts[0].coords == pytest.approx((1.0, 0.0))

    def test_equilateral(self):
        pts = circle_circle_intersection(float_point((0, 0)), 1.0, float_point((1, 0)), 1.0)
        assert len(pts) == 2
        ys = sorted(p.coords[1] for p in pts)
        assert ys[0] == pytest.approx(-math.sqrt(3) / 2)
        assert ys[1] == pytest.approx(math.sqrt(3) / 2)
        assert all(p.coords[0] == pytest.approx(0.5) for p in pts)

    def test_disjoint(self):
        assert circle_circle_intersection(float_point((0, 0)), 1.0, float_point((3, 0)), 1.0) == []

    def test_concentric(self):
        with pytest.raises(ValueError):
            circle_circle_intersection(float_point((0, 0)), 1.0, float_point((0, 0)), 2.0)

    def test_outputs_satisfy_both_equations(self):
        rng = random.Random(5)
        for _ in range(100):
            c1 = float_point((rng.uniform(-3, 3), rng.uniform(-3, 3)))
            c2 = float_point((rng.uniform(-3, 3), rng.uniform(-3, 3)))
            if c1.coords == c2.coords:
                continue
            r1sq, r2sq = rng.uniform(0.1, 4), rng.uniform(0.1, 4)
            for p in circle_circle_intersection(c1, r1sq, c2, r2sq):
                scale = max(r1sq, r2sq)
                assert abs(float(squared_distance(p, c1)) - r1sq) <= 1e-9 * scale
                assert abs(float(squared_distance(p, c2)) - r2sq) <= 1e-9 * scale


class TestSphereSphere:
    def test_basic_circle(self):
        c = sphere_sphere_intersection_circle(float_point((0, 0, 0)), 1.0, float_point((1, 0, 0)), 1.0)
        assert c.center.coords == pytest.approx((0.5, 0.0, 0.0))
        assert c.axis == pytest.approx((1.0, 0.0, 0.0))
        assert c.rho2 == pytest.approx(0.75)

    def test_disjoint(self):
        assert sphere_sphere_intersection_circle(
            float_point((0, 0, 0)), 1.0, float_point((3, 0, 0)), 1.0
        ) is None

    def test_concentric(self):
        with pytest.raises(ValueError):
            sphere_sphere_intersection_circle(float_point((0, 0, 0)), 1.0, float_point((0, 0, 0)), 2.0)

    def test_sampler_hits_both_spheres(self):
        c1, c2 = float_point((0, 0, 0)), float_point((1, 0, 0))
        circ = sphere_sphere_intersection_circle(c1, 1.0, c2, 1.0)
        pts = sample_circle_3d(circ, 4)
        assert len({p.coords for p in pts}) == 4
        for p in pts:
            assert abs(float(squared_distance(p, c1)) - 1.0) <= 1e-9
            assert abs(float(squared_distance(p, c2)) - 1.0) <= 1e-9
