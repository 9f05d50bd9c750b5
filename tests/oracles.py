"""Independent oracles for the tests.

The library counts chains and tree embeddings by dynamic programming with
a Möbius correction; these oracles count them one at a time instead, by
depth-first backtracking with a visited set (the library's former
counters) and by full product enumeration.  The library runs the covering
search on index arrays over one adjacency; `covering_oracle` is its former
search, which builds every filtered sub-layer and asks the pair kernel for
its degrees afresh.  The library builds rational circle points from
integers; `circle_point_oracle` and `circle_points_oracle` are its former
generators, one `Fraction` operation at a time.  The library keeps its
adjacency as CSR arrays; `adjacency_oracle` decides every pair with
`matches_distance`, the former pair-by-pair predicate, `neighbors` lists
an adjacency's arrays as tuples, and `restrict_oracle` is the former
restriction of adjacency lists.  The library intersects circles and
builds planar arcs as float arrays; `circle_circle_intersection`,
`float_arc_oracle` and `exact_arc_oracle` are the former scalar
intersection and the former arcs of Points, one point at a time.
`reversed_config` reverses a configuration's layers and distances, and
`filtering_children` lists the one-pass children of a configuration from
the library's filtering.  The library builds float planar bases from the circle
kernel's integers; `to_float_layers` is the former route, `Point.as_float`
of every point of the exact base.  The library reads exact point files
into reduced integer pairs; `read_points_oracle` is the former reader, one
`Fraction` or int per token and one Point per line.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from fractions import Fraction
from itertools import product

from chain_census.constructions import _dyadic_below
from chain_census.geometry import DistanceSpec, Point, rational_point_on_circle, squared_distance
from chain_census.io import _parse_exact
from chain_census.layered import Layer, LayeredConfig, build_adjacency
from chain_census.richness import CoveringClass, DecompositionSequence, _Filtering, degree_vector


def matches_distance(p: Point, q: Point, d2, spec: DistanceSpec) -> bool:
    """Whether p and q realize squared distance d2 under the spec's mode.

    Tolerant mode reads every coordinate as a float first, as the pair
    kernel does, so on rational points both decide margin pairs alike."""
    if spec.eps is None:
        return squared_distance(p, q) == d2
    return abs(squared_distance(p.as_float(), q.as_float()) - float(d2)) <= spec.eps


def circle_circle_intersection(c1: Point, r1sq, c2: Point, r2sq) -> list[Point]:
    """Real intersection points of two circles, to float precision, one
    scalar operation at a time: 0, 1 (tangency) or 2 points; concentric
    circles are an error."""
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


def float_arc_oracle(center, r: float, n: int, eps: float, phase: float) -> list[Point]:
    """The former float arc, point by point: n float points on an arc of
    diameter <= eps starting at angle phase."""
    span = min(1.0, eps / (2.0 * r))
    cx, cy = center
    pts = []
    for j in range(n):
        th = phase + span * (j + 1) / (n + 1)
        pts.append(Point((cx + r * math.cos(th), cy + r * math.sin(th)), j))
    return pts


def exact_arc_oracle(center: Point, r2, n: int, eps: float, window: int, div) -> list[Point]:
    """The former rational arc, point by point: n points on an arc of chord
    diameter <= eps around the circle of squared radius r2, in Fraction
    arithmetic, each coordinate then div(numerator, denominator)."""
    t_hi = _dyadic_below(min(1.0, eps / (4.0 * math.sqrt(float(r2)))))
    lo = t_hi * 2 * window
    exact = Point(tuple(map(Fraction, center.coords)))
    pts = circle_points_oracle(exact, rational_point_on_circle(r2), n, (lo, lo + t_hi))
    return [Point(tuple(div(c.numerator, c.denominator) for c in p.coords), p.id) for p in pts]


def circle_point_oracle(center: Point, seed: tuple, t) -> Point:
    """The seed rotated by the tangent half-angle map at t, then translated
    to the center, in Fraction arithmetic."""
    t = Fraction(t)
    den = 1 + t * t
    c = (1 - t * t) / den
    s = 2 * t / den
    x0, y0 = seed
    return Point((center.coords[0] + x0 * c - y0 * s, center.coords[1] + x0 * s + y0 * c))


def circle_points_oracle(center: Point, seed: tuple, m: int, t_range, id_base: int = 0) -> list[Point]:
    """The m points at t = lo + (hi-lo)*j/(m+1), j = 1..m, ids from id_base."""
    lo, hi = Fraction(t_range[0]), Fraction(t_range[1])
    seed = (Fraction(seed[0]), Fraction(seed[1]))
    return [
        Point(circle_point_oracle(center, seed, lo + (hi - lo) * Fraction(j + 1, m + 1)).coords, id_base + j)
        for j in range(m)
    ]


def read_points_oracle(path) -> list[Point]:
    """The Points of a well-formed exact point file, ids 0, 1, ..., each
    token parsed on its own: an int, or for p/q the Fraction p/q."""
    with open(path) as fh:
        _, *lines = filter(str.strip, fh.read().split("\n"))
    return [Point(tuple(map(_parse_exact, ln.split())), i) for i, ln in enumerate(lines)]


def to_float_layers(layers) -> list[Layer]:
    return [Layer(tuple(p.as_float() for p in layer.points), layer.label) for layer in layers]


def adjacency_oracle(config: LayeredConfig) -> tuple:
    """neighbors[i][p]: the indices of the points of layer i+1 at the i-th
    squared distance from point p of layer i, pair by pair."""
    return tuple(
        tuple(tuple(j for j, q in enumerate(b.points) if matches_distance(p, q, d2, config.spec)) for p in a.points)
        for a, b, d2 in zip(config.layers, config.layers[1:], config.spec.delta2)
    )


def neighbors(adjacency) -> tuple:
    """neighbors(adjacency)[i][p]: the indices of pair i's row p, as a tuple."""
    out = []
    for offsets, indices in adjacency.pairs:
        cuts, flat = offsets.tolist(), indices.tolist()
        out.append(tuple(tuple(flat[lo:hi]) for lo, hi in zip(cuts, cuts[1:])))
    return tuple(out)


def reversed_config(config: LayeredConfig) -> LayeredConfig:
    """The layers and squared distances of config in reverse order."""
    return LayeredConfig(
        tuple(reversed(config.layers)),
        DistanceSpec(tuple(reversed(config.spec.delta2)), config.spec.eps),
    )


def filtering_children(config: LayeredConfig, cuts, parity: int) -> list:
    """(class indices, configuration) of every pass over config under the
    richness cutoffs cuts that leaves every layer nonempty, from the
    library's _Filtering (see its expand)."""
    filtering = _Filtering(config, cuts)
    _, vectors, kids = filtering.expand(filtering.level(filtering.whole), parity)
    picks = filtering.picks([(kids, range(len(vectors)))])
    return [(tuple(v), config.restrict(p)) for v, p in zip(vectors.tolist(), picks)]


def restrict_oracle(lists, picks) -> tuple:
    """Adjacency lists among the points picks[i] of each layer i, renumbered
    0, 1, ... in pick order."""
    out = []
    for nbs, rows, cols in zip(lists, picks, picks[1:]):
        rank = {q: j for j, q in enumerate(cols)}
        out.append(tuple(tuple(sorted(rank[q] for q in nbs[p] if q in rank)) for p in rows))
    return tuple(out)


def _classes(layers):
    ids: dict[tuple, int] = {}
    return [[ids.setdefault(p.coords, len(ids)) for p in layer.points] for layer in layers], len(ids)


def backtrack_chains(config: LayeredConfig) -> int:
    """Chains by backtracking over the adjacency, one chain at a time."""
    classes, n_classes = _classes(config.layers)
    if config.k == 0:
        return len(set(classes[0]))
    adjacency = neighbors(build_adjacency(config))
    k = config.k
    visited = bytearray(n_classes)

    def rec(i: int, p: int) -> int:
        if i == k:
            return 1
        total = 0
        nxt = classes[i + 1]
        for q in adjacency[i][p]:
            c = nxt[q]
            if not visited[c]:
                visited[c] = 1
                total += rec(i + 1, q)
                visited[c] = 0
        return total

    total = 0
    for p, c in enumerate(classes[0]):
        visited[c] = 1
        total += rec(0, p)
        visited[c] = 0
    return total


def _tree_layers(layers, tree):
    if isinstance(layers, Layer):
        layers = [layers] * tree.vertex_count
    return list(layers)


def backtrack_tree_embeddings(layers, tree, spec) -> int:
    """Tree embeddings by backtracking in BFS order, scanning each layer."""
    tree.validate()
    layers = _tree_layers(layers, tree)
    classes, n_classes = _classes(layers)
    order = tree.traversal()
    visited = bytearray(n_classes)
    placed: dict = {}

    def rec(step: int) -> int:
        if step == len(order):
            return 1
        v, parent, d2 = order[step]
        total = 0
        for idx, p in enumerate(layers[v].points):
            c = classes[v][idx]
            if visited[c] or (parent is not None and not matches_distance(p, placed[parent], d2, spec)):
                continue
            visited[c] = 1
            placed[v] = p
            total += rec(step + 1)
            visited[c] = 0
        return total

    return rec(0)


def product_tree_embeddings(layers, tree, spec) -> int:
    """Tree embeddings by enumerating every tuple of points, one per vertex."""
    layers = _tree_layers(layers, tree)
    total = 0
    for pts in product(*(layer.points for layer in layers)):
        if len({p.coords for p in pts}) != len(pts):
            continue
        if all(matches_distance(pts[a], pts[b], d2, spec) for a, b, d2 in tree.edges):
            total += 1
    return total


def _pair_tables(config: LayeredConfig):
    """Per consecutive layer pair: a boolean matrix of the distance predicate.

    Memoizes the (at most) |P_i|*|P_{i+1}| evaluations so the exhaustive
    oracles below stay usable at 10^5-tuple scale.
    """
    spec = config.spec
    tables = []
    for i in range(config.k):
        pa = config.layers[i].points
        pb = config.layers[i + 1].points
        d2 = spec.delta2[i]
        tables.append(
            [[matches_distance(p, q, d2, spec) for q in pb] for p in pa]
        )
    return tables


def enumerate_chains(config: LayeredConfig) -> set[tuple]:
    """Brute-force set of chain tuples (as coordinate tuples).

    Exhaustive product enumeration over all index tuples; the independent
    oracle for the counters at desk scale.
    """
    tables = _pair_tables(config)
    ranges = [range(len(layer.points)) for layer in config.layers]
    layers = [layer.points for layer in config.layers]
    out = set()
    for tup in product(*ranges):
        if all(tables[i][tup[i]][tup[i + 1]] for i in range(config.k)):
            coords = tuple(layers[i][j].coords for i, j in enumerate(tup))
            if len(set(coords)) == len(coords):
                out.add(coords)
    return out


def enumerate_walks_count(config: LayeredConfig) -> int:
    """Brute-force walk count by full product enumeration."""
    tables = _pair_tables(config)
    ranges = [range(len(layer.points)) for layer in config.layers]
    total = 0
    for tup in product(*ranges):
        if all(tables[i][tup[i]][tup[i + 1]] for i in range(config.k)):
            total += 1
    return total


def thresholds_oracle(n: int, eps) -> list[int]:
    """Every richness cutoff T_0..T_{M+1}, M = floor(1/eps), by its
    definition in Fractions: T_i is the smallest integer t >= n^(i eps),
    t^q >= n^(i p) for eps = p/q, scanning up from T_{i-1}; the top one
    at least n + 1."""
    eps, cuts, t = Fraction(eps), [], 1
    for i in range(math.floor(1 / eps) + 2):
        while Fraction(t) ** eps.denominator < Fraction(n) ** (i * eps.numerator):
            t += 1
        cuts.append(t)
    cuts[-1] = max(cuts[-1], n + 1)
    return cuts


def _class_index(cuts, degree: int) -> int:
    m = bisect_right(cuts, degree) - 1
    if not 0 <= m < len(cuts) - 1:
        raise AssertionError(f"degree {degree} outside threshold range {cuts}")
    return m


def _nonempty_children(config: LayeredConfig, parity: int, cuts):
    """All (exponent indices, filtered layers) with every filtered layer
    nonempty; parity 0 is the parity-1 pass over the reversed
    configuration, read back in reverse."""
    if parity == 0:
        return [
            (idx[::-1], filt[::-1]) for idx, filt in _nonempty_children(reversed_config(config), 1, cuts)
        ]
    layers, spec = config.layers, config.spec
    partials = [([0], [layers[0]])]
    for i in range(1, config.k + 1):
        nxt = []
        for idx_prefix, filt in partials:
            buckets: dict[int, list[Point]] = {}
            degs = degree_vector(layers[i], filt[-1], spec.delta2[i - 1], spec)
            for p, d in zip(layers[i].points, degs):
                if d >= 1:
                    buckets.setdefault(_class_index(cuts, d), []).append(p)
            for m in sorted(buckets):
                nxt.append((idx_prefix + [m], filt + [Layer(tuple(buckets[m]), layers[i].label)]))
        partials = nxt
    return [(tuple(idx), tuple(filt)) for idx, filt in partials]


def covering_oracle(config: LayeredConfig, eps) -> list[CoveringClass]:
    """stable_covering by building every filtered sub-layer as points."""
    eps = Fraction(eps)
    n = max((len(layer) for layer in config.layers), default=0)
    if n == 0:
        return []
    cuts = thresholds_oracle(n, eps)
    where = [{p.coords: j for j, p in enumerate(layer.points)} for layer in config.layers]
    results = []
    queue = deque([((), tuple(config.layers), math.prod(map(len, config.layers)), ())])
    while queue:
        prefix, layers, size, sizes = queue.popleft()
        parity = (len(prefix) + 1) % 2
        for idx_vec, filt in _nonempty_children(LayeredConfig(layers, config.spec), parity, cuts):
            new_size = math.prod(map(len, filt))
            child = prefix + (tuple(m * eps for m in idx_vec),)
            if new_size**eps.denominator * n**eps.numerator >= size**eps.denominator:
                seq = DecompositionSequence(child, sizes + (new_size,))
                picks = tuple(tuple(w[p.coords] for p in layer.points) for w, layer in zip(where, filt))
                results.append(CoveringClass(seq, picks, config))
                assert results[-1].config == LayeredConfig(filt, config.spec)  # the picks name the filtered layers
            else:
                queue.append((child, filt, new_size, sizes + (new_size,)))
    results.sort(key=lambda cc: cc.sequence.vectors)
    return results
