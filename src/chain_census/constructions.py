"""Generators for the extremal chain and tree configurations.

Each generator realizes one lower-bound construction as an explicit point
configuration together with the data needed to certify its count: an exact
closed form where one exists, otherwise a floor that the measured count
must dominate.  Exact rational arithmetic is used whenever every circle
involved admits rational points; constructions built from circle-circle
intersections fall back to floats under the tolerant mode with the
separation certificate enforced.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .geometry import (
    TOLERANCE,
    Circle3D,
    DistanceSpec,
    NoRationalPointError,
    Point,
    _circle_coords,
    _rotated_coords,
    exact_point,
    float_point,
    rational_circle_points,
    sample_circle_3d,
    sphere_sphere_intersection_circle,
    squared_distance,
)
from .layered import (
    _BLOCK,
    LabeledTree,
    Layer,
    LayeredConfig,
    _Coords,
    _certified_pairs,
    _disjoint,
    _with_adjacency,
    count_incidences,
    count_tree_embeddings,
    make_config,
    make_layer,
)


class ConstructionError(RuntimeError):
    """A generator could not realize its postconditions."""


# the tolerance that float layer pairs are decided under as they are built
_TOLERANT = DistanceSpec((), TOLERANCE)


def _dyadic_below(x: float, bits: int = 40) -> Fraction:
    """Largest dyadic rational with the given precision that is <= x."""
    return Fraction(math.floor(x * (1 << bits)), 1 << bits)


def _max_sq_diameter(points) -> Fraction | float:
    return max((squared_distance(p, q) for p, q in itertools.combinations(points, 2)), default=0)


def _popular_sq_distance(coords) -> tuple[int, int]:
    """The most frequent squared distance between distinct integer points
    (ties toward the smallest) and its number of unordered pairs.

    Counted in tiles of rows against the points after them, at most _BLOCK
    pairs each: the n x n arrays of a one-shot computation set the peak
    resident set of a run and fragmented the heap from run to run.
    """
    arr = np.array(coords, dtype=np.int64).T.copy()  # one row per axis
    top = int(((arr.max(axis=1) - arr.min(axis=1)) ** 2).sum())
    counts = np.zeros(top + 1, dtype=np.int64)
    idx, step = np.arange(len(coords)), max(1, _BLOCK // len(coords))
    for r in range(0, len(coords) - 1, step):
        rest = arr[:, None, r + 1 :] - arr[:, r : r + step, None]
        later = idx[r + 1 :] > idx[r : r + step, None]  # each unordered pair once
        counts += np.bincount((rest * rest).sum(axis=0)[later], minlength=top + 1)
    best = int(np.argmax(counts))
    return best, int(counts[best])


# ---------------------------------------------------------------------------
# planar chains


def _exact_arc(center: Point, r2: Fraction, n: int, eps: float, window: int, div) -> Layer:
    """A layer of n rational points on an arc of chord diameter <= eps
    around the circle of squared radius r2, each coordinate div(numerator,
    denominator); `window` selects disjoint parameter ranges, each as wide
    as the dyadic t_hi = T/P, and given to `_circle_coords` as integers."""
    T, P = _dyadic_below(min(1.0, eps / (4.0 * math.sqrt(float(r2))))).as_integer_ratio()
    if T <= 0:
        raise ConstructionError(f"eps={eps} too small for a dyadic arc window")
    lo = 2 * window * T
    return Layer(_Coords(rows=list(_circle_coords(center, r2, n, ((lo, P), (lo + T, P)), div=div))))


def _float_arc(center, r: float, n: int, eps: float, phase: float) -> Layer:
    """A layer of n float points on an arc of diameter <= eps starting at
    angle phase: point j at angle phase + span * (j + 1) / (n + 1), by that
    expression's IEEE operations, with `math`'s cosine and sine."""
    th = (phase + min(1.0, eps / (2.0 * r)) * np.arange(1, n + 1) / (n + 1)).tolist()
    cx, cy = center
    xs, ys = (np.fromiter(map(f, th), float, n) for f in (math.cos, math.sin))
    return Layer(_Coords(axes=np.array([cx + r * xs, cy + r * ys])))


def _planar_base(k: int, delta2, n: int, eps: float, div=Fraction) -> tuple[list[Layer], list, float | None]:
    """(layers, squared distances, tolerance) of the base cases: k=0 a
    dyadic segment, k=1 the origin and an arc, k=2 two arcs around the
    origin.  The arcs are rational (each coordinate div(numerator,
    denominator): Fraction, or true division for floats) when every radius
    admits rational points, else floats for every radius; a second arc of
    the first radius takes a disjoint window or phase."""
    if k == 0:
        h = _dyadic_below(eps) / (2 * n)
        return [Layer(_Coords(rows=[(div(j * h.numerator, h.denominator), div(0, 1)) for j in range(n)]))], [], None
    try:
        d2 = [Fraction(d) for d in delta2]
        origin, tol = Point((div(0, 1), div(0, 1))), None
        arcs = [_exact_arc(origin, r2, n, eps, 2 if i and r2 == d2[0] else 0, div) for i, r2 in enumerate(d2)]
    except NoRationalPointError:
        d2 = [float(d) for d in delta2]
        origin, tol = float_point((0, 0)), TOLERANCE
        arcs = [
            _float_arc(origin.coords, math.sqrt(r2), n, eps, eps / math.sqrt(r2) if i and r2 == d2[0] else 0.0)
            for i, r2 in enumerate(d2)
        ]
    center = Layer((origin,))
    return ([center, arcs[0]] if k == 1 else [arcs[0], center, arcs[1]]), d2, tol


def _matched(c1, r1sq, c2, r2sq) -> dict | None:
    """The first intersection of each circle of squared radius r1sq around a
    column of c1 with the one of squared radius r2sq around c2's column
    (float axes, one of one column), as dict keys in first-seen order; None if a
    pair misses, ValueError if one is concentric.  Each step is the IEEE
    operation `circle_circle_intersection` does, in its order, so every hit
    is its first point bit for bit."""
    (x1, y1), (x2, y2), r1sq, r2sq = c1, c2, float(r1sq), float(r2sq)
    dx, dy = x2 - x1, y2 - y1
    dd = dx * dx + dy * dy
    if not dd.all():
        raise ValueError("concentric circles have no well-defined intersection")
    d = np.sqrt(dd)
    a = (dd + r1sq - r2sq) / (2.0 * d)
    h2 = r1sq - a * a
    tol = 1e-12 * np.maximum(max(r1sq, r2sq), dd)
    if (h2 < -tol).any():
        return None
    ux, uy = dx / d, dy / d
    px, py = x1 + a * ux, y1 + a * uy
    h, touch = np.sqrt(np.maximum(h2, 0.0)), h2 <= tol  # a tangency's one point is (px, py)
    xs, ys = np.where(touch, px, px - h * uy), np.where(touch, py, py + h * ux)
    return dict.fromkeys(zip(xs.tolist(), ys.tolist()))


def _extend_three(
    layers: list[Layer],
    d2_a: float,
    d2_b: float,
    d2_c: float,
    n: int,
    arc_eps: float,
    last_diam: float,
    rng: random.Random,
) -> tuple[list[Layer], list]:
    """Append a matched layer, a fixed joint and a fresh arc layer; the
    layers and the CSR arrays of the three new pairs, none in the guard band.

    Every chain into the current last layer extends in at least n ways:
    through its matched neighbor, the joint x, and any of the n arc points.
    Requires the current last layer to have diameter <= last_diam with
    last_diam <= min(d_a, d_b) / 3.
    """
    d_a, d_b, d_c = math.sqrt(d2_a), math.sqrt(d2_b), math.sqrt(d2_c)
    if last_diam > min(d_a, d_b) / 3 + 1e-12:
        raise ConstructionError("last-layer diameter too large for the extension step")
    existing = set().union(*(layer.coords.keyset for layer in layers))
    last = layers[-1].coords
    y = last.rows[0]
    reach = d_a + d_b - 2.0 * last_diam
    for _ in range(64):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        x = (y[0] + reach * math.cos(theta), y[1] + reach * math.sin(theta))
        if x in existing:
            continue
        joint = Layer((Point(x),))
        matched = _matched(last.axes, d2_a, joint.coords.axes, d2_b)
        if matched is None:
            continue
        matched = Layer(_Coords(rows=list(matched)))
        seen = matched.coords.keyset
        if not seen.isdisjoint(existing) or x in seen:
            continue
        phase = rng.uniform(0.0, 2.0 * math.pi)
        arc = _float_arc(x, d_c, n, arc_eps, phase)
        arc_keys = arc.coords.keyset
        if len(arc_keys) != n or not (arc_keys.isdisjoint(existing) and arc_keys.isdisjoint(seen)) or x in arc_keys:
            continue
        new, band = [matched, joint, arc], []
        pairs = _certified_pairs(_TOLERANT, zip([layers[-1], *new], new, (d2_a, d2_b, d2_c)), band)
        if band:
            continue
        return list(layers) + [Layer(ly.coords, len(layers) + 1 + i) for i, ly in enumerate(new)], pairs
    raise ConstructionError("could not place the extension joint after 64 attempts")


def gen_planar_chain(k: int, delta2=None, n: int = 1, eps: float = 0.25, seed: int = 0) -> LayeredConfig:
    """Planar chain construction with count at least n^(floor((k+1)/3)+1).

    Base cases: k=0 is a short segment of n points, k=1 a fixed point with
    an arc, k=2 two arcs around a fixed point (count exactly n^2).  Each
    inductive step consumes three distances: a matched layer with one
    circle-intersection point per point of the previous layer, a joint
    placed so every previous point sees the joint's circle, and a fresh arc
    of n points whose diameter is at most eps.  For k >= 3 the
    configuration holds the adjacency of its certificate: every layer pair
    decided once, with the guard-band check, as the layers are built (see
    _planar_layers).
    """
    if k < 0 or n < 1 or not eps > 0:
        raise ValueError("need k >= 0, n >= 1, eps > 0")
    if delta2 is None:
        delta2 = default_delta2(k)
    delta2 = list(delta2)
    if len(delta2) != k:
        raise ValueError(f"expected {k} squared distances, got {len(delta2)}")
    for d in delta2:
        if not d > 0:
            raise ValueError("squared distances must be positive")
    if k <= 2:
        return make_config(*_planar_base(k, delta2, n, eps))
    layers, pairs, band = _planar_layers(k, delta2, n, eps, seed)
    return _with_adjacency(make_config(layers, [float(d) for d in delta2], eps=TOLERANCE), pairs, band)


def _planar_layers(k: int, delta2, n: int, eps: float, seed: int) -> tuple[list[Layer], list, list]:
    """The construction's layers in floats, the CSR arrays of their pairs
    and the base pairs' guard-band offenders: the base from the circle
    kernel's integers, decided with the certificate, then one extension
    step per three distances, which decides its own pairs."""
    d2f = [float(d) for d in delta2]
    if k <= 2:
        layers, band = _planar_base(k, delta2, n, eps, operator.truediv)[0], []
        return layers, _certified_pairs(_TOLERANT, zip(layers, layers[1:], d2f), band), band
    inner_eps = min(math.sqrt(d2f[k - 3]), math.sqrt(d2f[k - 2])) / 3.0
    layers, pairs, band = _planar_layers(k - 3, delta2[: k - 3], n, inner_eps, seed)
    rng = random.Random(f"planar:{seed}:{k}")
    layers, more = _extend_three(layers, d2f[k - 3], d2f[k - 2], d2f[k - 1], n, eps, inner_eps, rng)
    return layers, pairs + more, band


def default_delta2(k: int) -> list[Fraction]:
    """Distinct squared distances admitting rational circle points."""
    return [Fraction((i + 1) ** 2) for i in range(k)]


# ---------------------------------------------------------------------------
# unit-rich grids and the cut-and-translate compression


@dataclass(frozen=True)
class GridRichSet:
    points: tuple[Point, ...]
    popular_d2: Fraction
    pair_count: int


def gen_unit_rich_grid(m: int) -> GridRichSet:
    """First m points of the ceil(sqrt(m))-sided integer grid, its most
    frequent squared distance (ties toward the smallest), and the exact
    number of unordered pairs realizing it."""
    if m < 4:
        raise ValueError("need m >= 4")
    side = isqrt(m)
    if side * side < m:
        side += 1
    coords = [(i % side, i // side) for i in range(m)]
    best, pairs = _popular_sq_distance(coords)
    pts = tuple(Point((int(x), int(y)), i) for i, (x, y) in enumerate(coords))
    return GridRichSet(pts, Fraction(best), pairs)


@dataclass(frozen=True)
class SplitResult:
    x1: tuple[Point, ...]
    x2: tuple[Point, ...]
    d2: Fraction
    eps: Fraction
    original_incidences: int
    uncut_edges: int
    preserved_incidences: int
    floor: Fraction
    spacing: int
    offset: tuple[Fraction, Fraction]


def split_and_translate(x1_points, x2_points, d2, eps: float, seed: int = 0) -> SplitResult:
    """Compress one side of a distance-rich pair to diameter <= eps.

    Seeded offsets of a coarse grid are tried (at least 64, rejecting any
    that put a vertex on a grid line) until at most half the edges are cut;
    each grid square's points are translated into one bounded box, and the
    returned second side is the eps/2 sub-square of the box keeping the
    most surviving edges.  Guarantees: diam(x2') <= eps and preserved
    incidences >= E / (2 * ceil(2.2 * spacing / eps)^2).
    """
    d2 = Fraction(d2)
    eps_fr = Fraction(eps)
    if not 0 < eps_fr:
        raise ValueError("eps must be positive")
    x1 = [p if isinstance(p, Point) else exact_point(p) for p in x1_points]
    x2 = [p if isinstance(p, Point) else exact_point(p) for p in x2_points]
    [(offsets, nbs)] = _certified_pairs(DistanceSpec((), None), [(Layer(x1), Layer(x2), d2)])
    edges = list(zip(np.repeat(np.arange(len(x1)), np.diff(offsets)).tolist(), nbs.tolist()))
    if not edges:
        raise ValueError("no pairs at the prescribed distance between the sets")
    e_total = len(edges)
    delta = math.sqrt(float(d2))
    spacing = 10 * max(1, math.ceil(delta))
    rng = random.Random(seed)
    all_pts = x1 + x2

    def square_of(p: Point, eta1: Fraction, eta2: Fraction):
        x, y = p.coords
        return ((x - eta2) // spacing, (y - eta1) // spacing)

    best = None
    for trial in range(4096):
        eta1 = Fraction(rng.getrandbits(40), 1 << 40) * spacing
        eta2 = Fraction(rng.getrandbits(40), 1 << 40) * spacing
        if any((p.coords[0] - eta2) % spacing == 0 or (p.coords[1] - eta1) % spacing == 0 for p in all_pts):
            continue
        sq1 = [square_of(p, eta1, eta2) for p in x1]
        sq2 = [square_of(p, eta1, eta2) for p in x2]
        cut = sum(1 for i, j in edges if sq1[i] != sq2[j])
        if best is None or cut < best[0]:
            best = (cut, eta1, eta2, sq1, sq2)
        if trial >= 63 and best[0] * 2 <= e_total:
            break
    if best is None or best[0] * 2 > e_total:
        raise ConstructionError("no grid offset with at most half the edges cut")
    cut, eta1, eta2, sq1, sq2 = best
    uncut = [(i, j) for i, j in edges if sq1[i] == sq2[j]]

    squares = sorted(set(sq1) | set(sq2))
    jitter = {}
    for attempt in range(64):
        for sq in squares:
            jitter[sq] = (
                Fraction(rng.getrandbits(30), 1 << 30) * spacing / 10,
                Fraction(rng.getrandbits(30), 1 << 30) * spacing / 10,
            )

        def translate(p: Point, sq):
            ax, ay = sq
            jx, jy = jitter[sq]
            corner_x = eta2 + ax * spacing
            corner_y = eta1 + ay * spacing
            return (p.coords[0] - corner_x + jx, p.coords[1] - corner_y + jy)

        t1 = [translate(p, s) for p, s in zip(x1, sq1)]
        t2 = [translate(p, s) for p, s in zip(x2, sq2)]
        owner = {}
        clash = False
        for c, s in list(zip(t1, sq1)) + list(zip(t2, sq2)):
            if owner.setdefault(c, s) != s:
                clash = True
                break
        if not clash:
            break
    else:
        raise ConstructionError("could not separate translated squares")

    box = Fraction(11 * spacing, 10)
    cells = math.ceil(box / (eps_fr / 2))
    side = box / cells
    hits: dict[tuple[int, int], int] = {}
    cell2 = []
    for j, c in enumerate(t2):
        cx = min(int(c[0] // side), cells - 1)
        cy = min(int(c[1] // side), cells - 1)
        cell2.append((cx, cy))
    for i, j in uncut:
        hits[cell2[j]] = hits.get(cell2[j], 0) + 1
    best_cell = min(hits, key=lambda c: (-hits[c], c))
    new_x1 = tuple(Point(c, i) for i, c in enumerate(t1))
    keep2 = [c for c, cell in zip(t2, cell2) if cell == best_cell]
    new_x2 = tuple(Point(c, j) for j, c in enumerate(keep2))
    diam2 = _max_sq_diameter(new_x2)
    if diam2 > eps_fr * eps_fr:
        raise ConstructionError("compressed side exceeds the diameter bound")
    preserved = count_incidences(Layer(new_x1), Layer(new_x2), d2, DistanceSpec((), None))
    floor = Fraction(e_total, 2 * cells * cells)
    if preserved < floor:
        raise ConstructionError("preserved incidences fell below the guaranteed floor")
    return SplitResult(
        new_x1,
        new_x2,
        d2,
        eps_fr,
        e_total,
        len(uncut),
        preserved,
        floor,
        spacing,
        (eta1, eta2),
    )


@dataclass(frozen=True)
class PlanarK1Result:
    config: LayeredConfig
    preserved_incidences: int
    popular_d2: Fraction
    split: SplitResult


def gen_planar_k1mod3(k: int, n: int, eps: float = 0.25, seed: int = 0) -> PlanarK1Result:
    """Chains for k = 1 mod 3: a compressed distance-rich grid pair as the
    first two layers, then the three-layer extension applied (k-1)/3 times.

    Only the first distance is pinned (the pair's popular squared
    distance); the remaining distances are free, and are chosen large
    enough that the whole translated pair meets the extension step's
    diameter requirement, so the preserved incidences track the pair's
    full edge count.  The guarantee is count >= n^((k-1)/3) * preserved
    incidences of the base pair.  For k >= 4 the configuration holds the
    adjacency of its certificate, decided as its layers are built.
    """
    if k < 1 or k % 3 != 1:
        raise ValueError("k must be congruent to 1 mod 3 and >= 1")
    grid = gen_unit_rich_grid(n)
    d_pop = grid.popular_d2
    if k == 1:
        split = split_and_translate(grid.points, grid.points, d_pop, eps, seed)
        cfg = make_config([split.x1, split.x2], (d_pop,))
        return PlanarK1Result(cfg, split.preserved_incidences, d_pop, split)
    delta = math.sqrt(float(d_pop))
    spacing = 10 * max(1, math.ceil(delta))
    # one eps/2 sub-square covers the whole 1.1*spacing box, whose diameter
    # (1.1*sqrt(2)*spacing) is still below eps
    split_eps = 2.2 * spacing
    split = split_and_translate(grid.points, grid.points, d_pop, split_eps, seed)
    d_step = (3.0 * split_eps) ** 2
    d2f = [float(d_pop)] + [d_step] * (k - 1)
    layers = [make_layer([p.as_float() for p in side]) for side in (split.x1, split.x2)]
    band: list = []
    pairs = _certified_pairs(_TOLERANT, [(layers[0], layers[1], d2f[0])], band)
    rng = random.Random(f"k1mod3:{seed}:{k}")
    steps = (k - 1) // 3
    for s in range(steps):
        arc_eps = split_eps if s < steps - 1 else eps
        layers, more = _extend_three(layers, d_step, d_step, d_step, n, arc_eps, split_eps, rng)
        pairs += more
    cfg = _with_adjacency(make_config(layers, d2f, eps=TOLERANCE), pairs, band)
    return PlanarK1Result(cfg, split.preserved_incidences, d_pop, split)


# ---------------------------------------------------------------------------
# three dimensions


def gen_3d_even(k: int, delta2=None, n: int = 1) -> LayeredConfig:
    """Even-k chains in R^3 with exactly n^(k/2+1) chains.

    Even layers are single points on a shared axis, spaced so consecutive
    spheres meet in circles; layer 1 and layer k+1 sit on short-latitude
    circles of the end spheres, interior odd layers on the intersection
    circles.  All layers are pairwise disjoint, so the chain count is the
    full product.  The separation certificate runs here, and the adjacency
    it builds stays with the configuration.
    """
    cfg = _3d_even_config(k, delta2, n)
    cfg.adjacency  # a guard-band pair raises CertificationError here
    return cfg


def _3d_even_config(k: int, delta2, n: int) -> LayeredConfig:
    """gen_3d_even without its certificate."""
    if k < 2 or k % 2 != 0:
        raise ValueError("k must be even and >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    if delta2 is None:
        delta2 = [1.0] * k
    delta2 = [float(d) for d in delta2]
    if len(delta2) != k:
        raise ValueError(f"expected {k} squared distances")
    deltas = [math.sqrt(d) for d in delta2]
    pos = {2: 0.0}
    for j in range(2, k - 1, 2):
        pos[j + 2] = pos[j] + max(deltas[j - 1], deltas[j])
    layers: dict[int, Layer] = {}
    for j, x in pos.items():
        layers[j] = make_layer([Point((x, 0.0, 0.0), 0)], j)
    d1 = deltas[0]
    back = Circle3D(Point((pos[2] - 0.4 * d1, 0.0, 0.0)), (1.0, 0.0, 0.0), d1 * d1 * 0.84)
    layers[1] = make_layer(sample_circle_3d(back, n, phase=0.1), 1)
    for i in range(3, k, 2):
        circ = sphere_sphere_intersection_circle(
            layers[i - 1].points[0], delta2[i - 2], layers[i + 1].points[0], delta2[i - 1]
        )
        if circ is None:
            raise ConstructionError(f"spheres around joints {i-1},{i+1} do not meet")
        layers[i] = make_layer(sample_circle_3d(circ, n, phase=0.2 + 0.01 * i), i)
    dk = deltas[-1]
    front = Circle3D(
        Point((pos[k] + 0.4 * dk, 0.0, 0.0)), (1.0, 0.0, 0.0), dk * dk * 0.84
    )
    layers[k + 1] = make_layer(sample_circle_3d(front, n, phase=0.3), k + 1)
    ordered = [layers[i] for i in range(1, k + 2)]
    if not _disjoint(ordered):
        raise ConstructionError("layers are not pairwise disjoint")
    return make_config(ordered, delta2, eps=TOLERANCE)


@dataclass(frozen=True)
class PeelResult:
    layer: Layer
    initial_edges: int
    vertex_count: int
    min_degree: int

    @property
    def threshold(self) -> Fraction:
        return Fraction(self.initial_edges, 2 * self.vertex_count)


def peel_min_degree(P: Layer, d2, spec: DistanceSpec) -> PeelResult:
    """Iteratively drop vertices of distance-graph degree below E0/(2N).

    E0 is the initial unordered edge count and N the original vertex count;
    the threshold is frozen up front.  The survivors are nonempty with
    minimum degree at least E0/(2N).
    """
    [(offsets, nbs)] = _certified_pairs(spec, [(P, P, d2)])
    n, e0 = len(P), len(nbs) // 2
    if e0 < 1:
        raise ValueError("the distance graph has no edges")
    rows = np.repeat(np.arange(n), np.diff(offsets))
    # drop the survivors of degree < E0/(2N) among the survivors (2*N*degree
    # < E0 in integers) until none is left: the fixpoint, the largest set
    # of minimum degree >= E0/(2N), does not depend on the order of drops
    keep = np.ones(n, bool)
    while True:
        degs = np.bincount(rows[keep[rows] & keep[nbs]], minlength=n)
        drop = keep & (2 * n * degs < e0)
        if not drop.any():
            break
        keep &= ~drop
    survivors = np.flatnonzero(keep).tolist()
    if not survivors:
        raise ConstructionError("peeling emptied the set despite positive edge count")
    return PeelResult(make_layer(map(P.coords.rows.__getitem__, survivors), P.label), e0, n, int(degs[keep].min()))


@dataclass(frozen=True)
class Odd3dRegularResult:
    config: LayeredConfig
    popular_d2: Fraction
    core: Layer
    initial_edges: int
    min_degree: int
    floor: int


def gen_3d_odd_regular(k: int, n: int) -> Odd3dRegularResult:
    """Odd-k chains on the min-degree core of an integer grid.

    The grid's most popular squared distance becomes every chain distance;
    the core is replicated as all k+1 layers.  When the core's min degree
    exceeds k, the chain count is at least |core| * (min_degree - k)^k.
    """
    if k < 3 or k % 2 != 1:
        raise ValueError("k must be odd and >= 3")
    if n < 8:
        raise ValueError("need n >= 8 grid points")
    side = round(n ** (1 / 3))
    while side**3 < n:
        side += 1
    coords = [(i % side, (i // side) % side, i // (side * side)) for i in range(n)]
    popular = Fraction(_popular_sq_distance(coords)[0])
    pts = make_layer(coords, 1)
    spec = DistanceSpec((popular,), None)
    peel = peel_min_degree(pts, popular, spec)
    core = peel.layer
    cfg = make_config([core] * (k + 1), (popular,) * k)
    floor = len(core) * max(peel.min_degree - k, 0) ** k
    return Odd3dRegularResult(cfg, popular, core, peel.initial_edges, peel.min_degree, floor)


def _circle_bouquet(n: int, center: Point) -> tuple[list[Point], list[Point]]:
    """Sphere incidences: ~sqrt(n) unit spheres whose centers sit off the
    sphere, each contributing ~sqrt(n) points of its intersection circle,
    for at least ~n incidences."""
    s = max(1, isqrt(n))
    cx, cy, cz = (float(c) for c in center.coords)
    xs: list[Point] = []
    ys: list[Point] = []
    for j in range(s):
        th = -0.4 + 0.8 * (j + 0.5) / s
        u = (math.cos(th), math.sin(th), 0.0)
        cj = Point((cx + 1.2 * u[0], cy + 1.2 * u[1], cz + 1.2 * u[2]), j)
        circ = sphere_sphere_intersection_circle(center, 1.0, cj, 1.0)
        if circ is None:
            raise ConstructionError("bouquet sphere missed the unit sphere")
        xs.extend(sample_circle_3d(circ, s, phase=0.3 + 0.05 * j, id_base=len(xs)))
        ys.append(cj)
    return xs, ys


@dataclass(frozen=True)
class Odd3dSphereResult:
    config: LayeredConfig
    sphere_incidences: int
    floor: int


def gen_3d_odd_sphere(k: int, n: int) -> Odd3dSphereResult:
    """Odd-k chains ending in a point-on-sphere incidence pair.

    Layers 1..k-1 come from the even construction with unit distances; a
    bouquet of circles provides n-scale sets X on the unit sphere around the
    last joint and free points Y.  Count is at least n^((k-1)/2) * incidences(X, Y).
    The one certificate covers the pairs kept from the even construction.
    """
    if k < 3 or k % 2 != 1:
        raise ValueError("k must be odd and >= 3")
    inner = _3d_even_config(k - 1, [1.0] * (k - 1), n)
    keep = list(inner.layers[: k - 1])
    center_layer = inner.layers[k - 2]
    if len(center_layer.points) != 1:
        raise ConstructionError("expected a single joint before the sphere layer")
    center = center_layer.points[0]
    xs, ys = _circle_bouquet(n, center)
    for p in xs:
        if abs(float(squared_distance(p, center)) - 1.0) > TOLERANCE:
            raise ValueError("bouquet returned a point off the unit sphere")
    layers = keep + [make_layer(xs, k), make_layer(ys, k + 1)]
    if not _disjoint(layers):
        raise ConstructionError("bouquet points coincide with each other or with the chain scaffold")
    cfg = make_config(layers, [1.0] * k, eps=TOLERANCE)
    inc = cfg.adjacency.edge_count(k - 1)
    return Odd3dSphereResult(cfg, inc, n ** ((k - 1) // 2) * inc)


# ---------------------------------------------------------------------------
# dimension four and trees


@dataclass(frozen=True)
class OrthogonalResult:
    config: LayeredConfig
    closed_form: int


def gen_orthogonal_circles(d: int, k: int, n: int) -> OrthogonalResult:
    """Two orthogonal circles of squared radius 1/2 through exact rational
    points; every cross pair is at squared distance exactly 1.

    Chains alternate between the circles, so the count has the closed form
    2 * ff(n/2, ceil((k+1)/2)) * ff(n/2, floor((k+1)/2)) with ff the
    falling factorial.
    """
    if d < 4:
        raise ValueError("needs dimension at least 4")
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be even and >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    m = n // 2
    half = Fraction(1, 2)
    seed = (half, half)
    origin = exact_point((0, 0))
    pad, zero = (Fraction(0),) * (d - 4), (Fraction(0), Fraction(0))
    arc = list(_rotated_coords(origin, seed, ((j, 4 * m) for j in range(1, m + 1))))
    coords = [c + zero + pad for c in arc] + [zero + c + pad for c in arc]
    layer = make_layer(coords, 1)
    cfg = make_config([layer] * (k + 1), (Fraction(1),) * k)
    closed = 2 * math.perm(m, (k + 2) // 2) * math.perm(m, (k + 1) // 2)
    return OrthogonalResult(cfg, closed)


@dataclass(frozen=True)
class StarResult:
    layers: list[Layer]
    tree: LabeledTree
    spec: DistanceSpec
    closed_form: int


def gen_star(l: int, n: int) -> StarResult:
    """A star: one center, l concentric circles of n/l exact points each.

    The squared radii 1, 4, ..., l^2 are distinct, which keeps the circles
    disjoint, so the embedding count is exactly (n/l)^l.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if n % l != 0:
        raise ValueError("n must be divisible by l")
    radii2 = [Fraction((i + 1) ** 2) for i in range(l)]
    per = n // l
    origin = exact_point((0, 0))
    layers = [make_layer([origin], 1)]
    for i, r2 in enumerate(radii2):
        pts = rational_circle_points(origin, r2, per)
        layers.append(make_layer(pts, i + 2))
    tree = LabeledTree(l + 1, tuple((0, i + 1, radii2[i]) for i in range(l)))
    tree.validate()
    spec = DistanceSpec(tuple(radii2), None)
    return StarResult(layers, tree, spec, per**l)


def star_of_paths_tree(l: int, edge_d2s) -> LabeledTree:
    """The star of l three-vertex paths: center 0, arm j has vertices
    1+3j, 2+3j, 3+3j; edge_d2s holds (center-arm, inner, leaf) per arm."""
    edges = []
    for j in range(l):
        a, b, e = 1 + 3 * j, 2 + 3 * j, 3 + 3 * j
        ca, ab, be = edge_d2s[j]
        edges.extend([(0, a, ca), (a, b, ab), (b, e, be)])
    tree = LabeledTree(3 * l + 1, tuple(edges))
    tree.validate()
    return tree


@dataclass(frozen=True)
class StarOfPathsResult:
    layers: list[Layer]
    tree: LabeledTree
    spec: DistanceSpec
    variant: str
    floor: int
    count: int


def gen_star_of_paths(
    l: int, n: int, variant: str = "joints-fixed", seed: int = 0, grid_m: int | None = None
) -> StarOfPathsResult:
    """The two lower-bound configurations for the star of three-vertex paths.

    "joints-fixed" pins each leaf-neighbor, giving at least n^(l+1)
    embeddings; "center-fixed" hangs a compressed distance-rich pair off
    every arm, giving at least the product of the preserved incidences.
    The measured embedding count is returned alongside the floor.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    variant = variant.lower()
    if variant not in ("joints-fixed", "center-fixed"):
        raise ValueError("variant must be 'joints-fixed' or 'center-fixed'")
    if variant == "joints-fixed":
        layers, tree, floor = _star_of_paths_joints_fixed(l, n)
    else:
        layers, tree, floor = _star_of_paths_center_fixed(l, n, seed, grid_m)
    spec = DistanceSpec((1.0,), TOLERANCE)
    count = count_tree_embeddings(layers, tree, spec)
    if count < floor:
        raise ConstructionError(f"measured count {count} below the floor {floor}")
    return StarOfPathsResult(layers, tree, spec, variant, floor, count)


def _star_of_paths_joints_fixed(l: int, n: int):
    h = 0.002 / n
    cluster = Layer(_Coords(rows=[(j * h, 0.0) for j in range(n)]), 1)
    layers, edge_d2s = [cluster], []
    for j in range(l):
        phi = 2.0 * math.pi * j / l + 0.35
        b = (1.5 * math.cos(phi), 1.5 * math.sin(phi))
        joint = Layer((Point(b),))
        matched = _matched(cluster.coords.axes, 1.0, joint.coords.axes, 1.0)
        if matched is None:
            raise ConstructionError("arm joint out of reach of the cluster")
        for layer in (Layer(_Coords(rows=list(matched))), joint, _float_arc(b, 1.0, n, 0.01, phi + 0.9)):
            layers.append(Layer(layer.coords, len(layers) + 1))
        edge_d2s.append((1.0, 1.0, 1.0))
    if not _disjoint(layers):
        raise ConstructionError("arm points collide with each other or with the cluster")
    tree = star_of_paths_tree(l, edge_d2s)
    return layers, tree, n ** (l + 1)


def _star_of_paths_center_fixed(l: int, n: int, seed: int, grid_m: int | None):
    m = grid_m or n
    center = Layer((Point((0.0, 0.0)),), 1)
    layers = [center]
    existing = set(center.coords.keyset)
    edge_d2s = []
    floor = 1
    for j in range(l):
        grid = gen_unit_rich_grid(m)
        split = split_and_translate(
            grid.points, grid.points, grid.popular_d2, 1.0, seed=31 * seed + j + 1
        )
        phi = 2.0 * math.pi * j / l + 0.2
        off = (60.0 * math.cos(phi), 60.0 * math.sin(phi))
        b, e = (
            Layer(_Coords(rows=[(float(p.coords[0]) + off[0], float(p.coords[1]) + off[1]) for p in side]))
            for side in (split.x1, split.x2)
        )
        dmax = max(math.hypot(*c) for c in b.coords.rows)
        radius = dmax / 2.0 + 1.0
        r2 = radius * radius
        matched = _matched(center.coords.axes, r2, b.coords.axes, r2)
        if matched is None:
            raise ConstructionError("arm pair out of reach of the center")
        seen = matched.keys()
        b_coords, e_coords = b.coords.keyset, e.coords.keyset
        if (seen | b_coords | e_coords) & existing or seen & (b_coords | e_coords):
            raise ConstructionError("arm collides with previous arms")
        existing |= seen | b_coords | e_coords
        for layer in (Layer(_Coords(rows=list(matched))), b, e):
            layers.append(Layer(layer.coords, len(layers) + 1))
        edge_d2s.append((r2, r2, float(split.d2)))
        floor *= split.preserved_incidences
    tree = star_of_paths_tree(l, edge_d2s)
    return layers, tree, floor
