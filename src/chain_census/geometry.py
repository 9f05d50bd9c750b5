"""Points, their exact or float squared distances, and point generators.

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
configurations are expected to pass it.  A band that float64 cannot
resolve at the distance raises :class:`ResolutionError` instead.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Iterable


# The tolerance of tolerant constructions and of float point files.
TOLERANCE = 1e-9


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


class ResolutionError(CertificationError):
    """Raised when a tolerance is too fine for float64 to resolve a squared distance."""

    def __init__(self, eps: float, d2, bound: float):
        self.offenders = []
        msg = f"tolerance {eps!r} cannot resolve squared distance {float(d2)!r} (float64 rounding bound {bound:.3e})"
        RuntimeError.__init__(self, msg)


def _rational(t: type) -> bool:
    """Whether coordinates of type t are exact: ints and Fractions, not bools."""
    return issubclass(t, (int, Fraction)) and t is not bool


@dataclass(slots=True, unsafe_hash=True, init=False)
class Point:
    """A point of fixed dimension; equality and hashing use coordinates only.

    ``id`` is a stable label within a point set and deliberately excluded
    from comparison: two points are the same point iff their coordinate
    tuples are equal.

    Frozen by hand, not by ``frozen=True``: on a slotted dataclass that
    raises TypeError, not FrozenInstanceError, for a name that is no field
    (Python 3.10 to 3.13), and its ``__init__`` builds a point more slowly.
    """

    coords: tuple
    id: int = field(default=-1, compare=False)

    def __init__(self, coords: tuple, id: int = -1):
        _set_coords(self, coords)
        _set_id(self, id)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Point, (self.coords, self.id)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_exact(self) -> bool:
        return all(_rational(type(c)) for c in self.coords)

    def as_float(self) -> "Point":
        return Point(tuple(float(c) for c in self.coords), self.id)


_set_coords, _set_id = Point.coords.__set__, Point.id.__set__


def exact_point(coords: Iterable, pid: int = -1) -> Point:
    """Build a Point with rational coordinates (ints stay ints)."""
    return Point(tuple(c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coords), pid)


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


def tolerant_spec(delta2, eps: float = TOLERANCE) -> DistanceSpec:
    return DistanceSpec(tuple(float(d) for d in delta2), eps)


def squared_distance(p: Point, q: Point):
    """Sum of squared coordinate differences; exact when inputs are exact."""
    if len(p.coords) != len(q.coords):
        raise ValueError(f"dimension mismatch: {len(p.coords)} vs {len(q.coords)}")
    return sum((a - b) * (a - b) for a, b in zip(p.coords, q.coords))


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


def _rotated_coords(center: Point, seed: tuple, ts, div=Fraction):
    """Yield the seed rotated by the tangent half-angle map at each t = a/b
    of the integer pairs ts, translated to center.  Over one denominator L,
    with seed (X, Y)/L, center (CX, CY)/L, q = a^2+b^2 and c = b^2-a^2, it
    is (CX q + X c - 2abY, CY q + 2abX + Y c) / (L q): homogeneous in (a, b),
    computed in integers, each coordinate div(numerator, denominator):
    Fraction for the exact point, int/int true division for its correctly
    rounded float."""
    ratios = [v.as_integer_ratio() for v in (*center.coords, *seed)]
    L = math.lcm(*(d for _, d in ratios))
    CX, CY, X, Y = (v * (L // d) for v, d in ratios)
    for a, b in ts:
        q, c, s = a * a + b * b, b * b - a * a, 2 * a * b
        yield div(CX * q + X * c - Y * s, L * q), div(CY * q + X * s + Y * c, L * q)


def rational_circle_points(
    center: Point,
    r2,
    m: int,
    t_range: tuple = (Fraction(0), Fraction(1)),
    seed: tuple | None = None,
    id_base: int = 0,
) -> list[Point]:
    """m distinct rational points at exact squared distance r2 from center,
    with ids id_base, id_base+1, ...

    Points are the seed rotated by tangent half-angle parameters, so every
    output satisfies the circle equation exactly.  The parameters are
    t_j = lo + (hi-lo) j/(m+1), j = 1..m, each one integer pair a_j/b for
    `_rotated_coords`; a narrow t_range = (lo, hi) yields a short arc
    (chord diameter at most 2*r*(hi-lo)).
    """
    ratios = [Fraction(t).as_integer_ratio() for t in t_range]
    return [Point(c, id_base + j) for j, c in enumerate(_circle_coords(center, r2, m, ratios, seed))]


def _circle_coords(center: Point, r2, m: int, t_range, seed=None, div=Fraction):
    """The coordinates of rational_circle_points, each div(numerator,
    denominator) as `_rotated_coords` gives it, for the parameter range
    t_range given as integer ratios ((lo, den), (hi, den)).  Set up in
    integers: over the range's common denominator L, t_j is the pair
    (lo (m+1) + (hi-lo) j, L (m+1))."""
    if m < 1:
        raise ValueError("m must be >= 1")
    r2 = Fraction(r2)
    N, D = r2.as_integer_ratio()
    if not N > 0:
        raise ValueError("r2 must be positive")
    if seed is None:
        seed = rational_point_on_circle(r2)
        if seed is None:
            raise NoRationalPointError(f"no rational point on circle of squared radius {r2}")
    (x, dx), (y, dy) = (v.as_integer_ratio() for v in seed)
    if ((x * dy) ** 2 + (y * dx) ** 2) * D != N * (dx * dy) ** 2:
        raise ValueError("seed point does not lie on the circle")
    (lo, dlo), (hi, dhi) = t_range
    L = math.lcm(dlo, dhi)
    lo, hi = lo * (L // dlo), hi * (L // dhi)
    if not lo < hi:
        raise ValueError("empty parameter range")
    return _rotated_coords(center, seed, ((lo * (m + 1) + (hi - lo) * j, L * (m + 1)) for j in range(1, m + 1)), div)


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
