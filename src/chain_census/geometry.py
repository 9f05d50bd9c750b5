"""Exact and tolerant distance predicates, plus primitive point generators.

Coordinates are either exact rationals (``fractions.Fraction``, with plain
``int`` accepted as a degenerate rational) or IEEE floats.  All distance
logic works on *squared* distances, so exact mode never needs square roots:
a point constructed to lie at squared distance ``r2`` from a center
satisfies the membership predicate with literal equality, not within a
tolerance.

Tolerant mode compares squared distances within an absolute ``eps`` band.
Because float counting is only reproducible when no pair sits just outside
that band, the pair kernel that builds adjacency (``layered._pair_lists``)
also collects the pairs in the guard band ``(eps, 100*eps]``, the
separation certificate; ``build_adjacency`` raises
:class:`CertificationError` for them, and generated tolerant
configurations are expected to pass it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence


class NoRationalPointError(ValueError):
    """Raised when a circle admits no rational point for exact sampling."""


class CertificationError(RuntimeError):
    """Raised when a tolerant-mode point set fails the separation certificate."""

    def __init__(self, offenders):
        self.offenders = list(offenders)
        preview = ", ".join(
            f"|d2({p.id},{q.id})-target|={gap:.3e}" for p, q, gap in self.offenders[:3]
        )
        super().__init__(
            f"{len(self.offenders)} pair(s) inside the separation guard band: {preview}"
        )


@dataclass(frozen=True)
class Point:
    """A point of fixed dimension; equality and hashing use coordinates only.

    ``id`` is a stable label within a point set and deliberately excluded
    from comparison: two points are the same point iff their coordinate
    tuples are equal.
    """

    coords: tuple
    id: int = field(default=-1, compare=False)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_exact(self) -> bool:
        return all(isinstance(c, (int, Fraction)) and not isinstance(c, bool) for c in self.coords)

    def as_float(self, new_id: int | None = None) -> "Point":
        return Point(tuple(float(c) for c in self.coords), self.id if new_id is None else new_id)

    def translate(self, offset: Sequence) -> "Point":
        return Point(tuple(c + o for c, o in zip(self.coords, offset)), self.id)


def exact_point(coords: Iterable, pid: int = -1) -> Point:
    """Build a Point with rational coordinates (ints stay ints)."""
    out = []
    for c in coords:
        if isinstance(c, (int, Fraction)):
            out.append(c)
        else:
            out.append(Fraction(c))
    return Point(tuple(out), pid)


def float_point(coords: Iterable, pid: int = -1) -> Point:
    return Point(tuple(float(c) for c in coords), pid)


@dataclass(frozen=True)
class DistanceSpec:
    """The squared-distance vector plus the comparison mode.

    ``eps is None`` means exact mode (rational equality); otherwise squared
    distances match when they differ from the target by at most ``eps``.
    """

    delta2: tuple
    eps: float | None = None

    def __post_init__(self):
        for d2 in self.delta2:
            if not d2 > 0:
                raise ValueError(f"squared distance must be positive, got {d2!r}")
        if self.eps is not None:
            if not self.eps > 0:
                raise ValueError("tolerance must be positive")
            if self.delta2 and not self.eps < min(float(d) for d in self.delta2) / 100:
                raise ValueError("tolerance must be below min(delta2)/100")

    @property
    def k(self) -> int:
        return len(self.delta2)

    @property
    def exact(self) -> bool:
        return self.eps is None


def exact_spec(*delta2) -> DistanceSpec:
    return DistanceSpec(tuple(Fraction(d) for d in delta2), None)


def tolerant_spec(delta2, eps: float = 1e-9) -> DistanceSpec:
    return DistanceSpec(tuple(float(d) for d in delta2), eps)


def squared_distance(p: Point, q: Point):
    """Sum of squared coordinate differences; exact when inputs are exact."""
    if len(p.coords) != len(q.coords):
        raise ValueError(f"dimension mismatch: {len(p.coords)} vs {len(q.coords)}")
    return sum((a - b) * (a - b) for a, b in zip(p.coords, q.coords))


def matches_distance(p: Point, q: Point, d2, spec: DistanceSpec) -> bool:
    """Whether p and q realize squared distance d2 under the spec's mode."""
    if spec.eps is None:
        return squared_distance(p, q) == d2
    return abs(float(squared_distance(p, q)) - float(d2)) <= spec.eps


def two_integer_squares(n: int) -> tuple[int, int] | None:
    """Some (a, b) with a*a + b*b == n, or None. Brute force up to isqrt(n)."""
    if n < 0:
        return None
    for a in range(isqrt(n) + 1):
        b2 = n - a * a
        b = isqrt(b2)
        if b * b == b2:
            return (a, b)
    return None


def rational_point_on_circle(r2: Fraction) -> tuple[Fraction, Fraction] | None:
    """A rational (x, y) with x^2 + y^2 == r2, if one exists.

    r2 = N/D has a rational point iff N*D is a sum of two integer squares.
    """
    r2 = Fraction(r2)
    ab = two_integer_squares(r2.numerator * r2.denominator)
    if ab is None:
        return None
    a, b = ab
    return (Fraction(a, r2.denominator), Fraction(b, r2.denominator))


def circle_point_at(center: Point, seed: tuple, t) -> Point:
    """Rational circle parametrization: rotate the seed by the tangent
    half-angle map at parameter t and translate to the center.

    t=0 returns the seed itself; t=1/2 rotates (1,0) to (3/5,4/5).
    """
    t = Fraction(t)
    den = 1 + t * t
    c = (1 - t * t) / den
    s = 2 * t / den
    x0, y0 = seed
    return Point((center.coords[0] + x0 * c - y0 * s, center.coords[1] + x0 * s + y0 * c))


def rational_circle_points(
    center: Point,
    r2,
    m: int,
    t_range: tuple = (Fraction(0), Fraction(1)),
    seed: tuple | None = None,
    id_base: int = 0,
) -> list[Point]:
    """m distinct rational points at exact squared distance r2 from center.

    Points are the seed rotated by tangent half-angle parameters, so every
    output satisfies the circle equation with exact rational arithmetic.
    t values are m distinct rationals strictly inside t_range; a narrow
    range yields a short arc (chord diameter at most 2*r*(hi-lo)).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    r2 = Fraction(r2)
    if not r2 > 0:
        raise ValueError("r2 must be positive")
    if seed is None:
        seed = rational_point_on_circle(r2)
        if seed is None:
            raise NoRationalPointError(f"no rational point on circle of squared radius {r2}")
    x0, y0 = Fraction(seed[0]), Fraction(seed[1])
    if x0 * x0 + y0 * y0 != r2:
        raise ValueError("seed point does not lie on the circle")
    lo, hi = Fraction(t_range[0]), Fraction(t_range[1])
    if not lo < hi:
        raise ValueError("empty parameter range")
    width = hi - lo
    pts = []
    for j in range(m):
        t = lo + width * Fraction(j + 1, m + 1)
        p = circle_point_at(center, (x0, y0), t)
        pts.append(Point(p.coords, id_base + j))
    return pts


def circle_circle_intersection(c1: Point, r1sq, c2: Point, r2sq) -> list[Point]:
    """Real intersection points of two circles, to float precision.

    Returns 0, 1 (tangency) or 2 points; concentric circles are an error.
    """
    x1, y1 = (float(c) for c in c1.coords)
    x2, y2 = (float(c) for c in c2.coords)
    dx, dy = x2 - x1, y2 - y1
    d2 = dx * dx + dy * dy
    if d2 == 0.0:
        raise ValueError("concentric circles have no well-defined intersection")
    r1sq, r2sq = float(r1sq), float(r2sq)
    d = math.sqrt(d2)
    a = (d2 + r1sq - r2sq) / (2.0 * d)
    h2 = r1sq - a * a
    tol = 1e-12 * max(r1sq, r2sq, d2)
    if h2 < -tol:
        return []
    ux, uy = dx / d, dy / d
    px, py = x1 + a * ux, y1 + a * uy
    if h2 <= tol:
        return [Point((px, py), 0)]
    h = math.sqrt(h2)
    return [Point((px - h * uy, py + h * ux), 0), Point((px + h * uy, py - h * ux), 1)]


@dataclass(frozen=True)
class Circle3D:
    """A circle in 3-space: center, unit axis normal to its plane, squared radius."""

    center: Point
    axis: tuple[float, float, float]
    rho2: float


def sphere_sphere_intersection_circle(c1: Point, r1sq, c2: Point, r2sq) -> Circle3D | None:
    """The circle where two spheres meet, or None when disjoint/tangent/nested."""
    a1 = tuple(float(c) for c in c1.coords)
    a2 = tuple(float(c) for c in c2.coords)
    dx = tuple(b - a for a, b in zip(a1, a2))
    d2 = sum(v * v for v in dx)
    if d2 == 0.0:
        raise ValueError("concentric spheres have no well-defined intersection")
    r1sq, r2sq = float(r1sq), float(r2sq)
    d = math.sqrt(d2)
    a = (d2 + r1sq - r2sq) / (2.0 * d)
    rho2 = r1sq - a * a
    tol = 1e-12 * max(r1sq, r2sq, d2)
    if rho2 <= tol:
        return None
    u = tuple(v / d for v in dx)
    center = Point(tuple(c + a * uv for c, uv in zip(a1, u)), 0)
    return Circle3D(center, u, rho2)


def sample_circle_3d(circle: Circle3D, m: int, phase: float = 0.0, id_base: int = 0) -> list[Point]:
    """m float points spread over a 3D circle at equal angles."""
    if m < 1:
        raise ValueError("m must be >= 1")
    ux, uy, uz = circle.axis
    # pick the coordinate axis least aligned with the circle axis
    cand = [(abs(ux), (1.0, 0.0, 0.0)), (abs(uy), (0.0, 1.0, 0.0)), (abs(uz), (0.0, 0.0, 1.0))]
    _, e = min(cand)
    v1 = (
        uy * e[2] - uz * e[1],
        uz * e[0] - ux * e[2],
        ux * e[1] - uy * e[0],
    )
    norm = math.sqrt(sum(v * v for v in v1))
    v1 = tuple(v / norm for v in v1)
    v2 = (
        uy * v1[2] - uz * v1[1],
        uz * v1[0] - ux * v1[2],
        ux * v1[1] - uy * v1[0],
    )
    rho = math.sqrt(circle.rho2)
    cx, cy, cz = circle.center.coords
    pts = []
    for j in range(m):
        th = phase + 2.0 * math.pi * j / m
        co, si = math.cos(th), math.sin(th)
        pts.append(
            Point(
                (
                    cx + rho * (co * v1[0] + si * v2[0]),
                    cy + rho * (co * v1[1] + si * v2[1]),
                    cz + rho * (co * v1[2] + si * v2[2]),
                ),
                id_base + j,
            )
        )
    return pts
