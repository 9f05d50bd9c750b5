"""Layered distance configurations and exact counting.

A configuration is k+1 point layers plus k squared distances; the objects
counted are walks (consecutive distances match, repeats allowed), chains
(additionally all points pairwise distinct) and embeddings of a
distance-labeled tree.  All counts are exact Python integers.

All three are counted by one engine (see "the counting engine" below): a
dynamic program over adjacency lists counts homomorphisms, and a Möbius
correction over coincidence patterns removes tuples that reuse a point.
Enumeration of single tuples survives only in the exhaustive oracles at
the end of this module.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import product

from .geometry import (
    CertificationError,
    DistanceSpec,
    Point,
    matches_distance,
    squared_distance,
)


@dataclass(frozen=True)
class Layer:
    points: tuple[Point, ...]
    label: int = 0

    def __len__(self) -> int:
        return len(self.points)

    def coord_set(self) -> set:
        return {p.coords for p in self.points}

    def validate(self) -> None:
        ids = [p.id for p in self.points]
        if len(set(ids)) != len(ids):
            raise ValueError(f"layer {self.label}: point ids are not unique")
        coords = [p.coords for p in self.points]
        if len(set(coords)) != len(coords):
            raise ValueError(f"layer {self.label}: duplicate point coordinates")


def make_layer(points, label: int = 0) -> Layer:
    pts = tuple(
        p if isinstance(p, Point) else Point(tuple(p), i) for i, p in enumerate(points)
    )
    # re-id when the caller gave raw tuples or ids collide
    if len({p.id for p in pts}) != len(pts):
        pts = tuple(Point(p.coords, i) for i, p in enumerate(pts))
    return Layer(pts, label)


@dataclass(frozen=True)
class LayeredConfig:
    layers: tuple[Layer, ...]
    spec: DistanceSpec

    @property
    def k(self) -> int:
        return len(self.layers) - 1

    @property
    def dim(self) -> int:
        for layer in self.layers:
            if layer.points:
                return layer.points[0].dim
        return 0

    def validate(self) -> None:
        if len(self.layers) != self.spec.k + 1:
            raise ValueError(
                f"{len(self.layers)} layers but {self.spec.k} squared distances"
            )
        dim = None
        for layer in self.layers:
            layer.validate()
            for p in layer.points:
                if dim is None:
                    dim = p.dim
                elif p.dim != dim:
                    raise ValueError("layers mix dimensions")
                exact = p.is_exact()
                if self.spec.exact and not exact:
                    raise ValueError("exact spec requires rational coordinates")
                if not self.spec.exact and exact:
                    raise ValueError("tolerant spec requires float coordinates")

    def reversed(self) -> "LayeredConfig":
        return LayeredConfig(
            tuple(reversed(self.layers)),
            DistanceSpec(tuple(reversed(self.spec.delta2)), self.spec.eps),
        )


def make_config(layers, delta2, eps: float | None = None) -> LayeredConfig:
    lys = tuple(
        ly if isinstance(ly, Layer) else make_layer(ly, i + 1) for i, ly in enumerate(layers)
    )
    lys = tuple(Layer(ly.points, i + 1) for i, ly in enumerate(lys))
    cfg = LayeredConfig(lys, DistanceSpec(tuple(delta2), eps))
    cfg.validate()
    return cfg


@dataclass(frozen=True)
class BipartiteAdjacency:
    """Per consecutive layer pair: neighbors[i][p] lists the indices (into
    layer i+1) of points at the i-th squared distance from point p."""

    neighbors: tuple[tuple[tuple[int, ...], ...], ...]

    def edge_count(self, i: int) -> int:
        return sum(len(nb) for nb in self.neighbors[i])

    def total_edges(self) -> int:
        return sum(self.edge_count(i) for i in range(len(self.neighbors)))


def _exact_cell(r2) -> tuple[int, int]:
    """Integers (w, den) with w/den >= sqrt(r2), within 2**-20 of it."""
    num, den = r2.as_integer_ratio()
    scale = 1 << 20
    return math.isqrt(num * den * scale * scale) + 1, den * scale


def _grid_candidates(points_a, points_b, reach2, exact: bool):
    """Candidate index pairs within squared distance `reach2` via uniform
    grid hashing.

    Yields (i, j) supersets of all pairs at squared distance <= reach2;
    exactness is left to the caller's distance predicate.  Exact rational
    coordinates get their cell keys by exact floor division, so no float
    rounding can put two neighbours two cells apart.
    """
    if not points_a or not points_b:
        return
    if exact:
        width, den = _exact_cell(reach2)

        def key(p):
            return tuple((c * den) // width for c in p.coords)

    else:
        cell = math.sqrt(max(reach2, 0.0)) * (1.0 + 1e-9)
        if cell <= 0.0:
            cell = 1.0

        def key(p):
            return tuple(math.floor(float(c) / cell) for c in p.coords)

    buckets: dict[tuple, list[int]] = defaultdict(list)
    for j, q in enumerate(points_b):
        buckets[key(q)].append(j)
    offsets = list(product((-1, 0, 1), repeat=points_a[0].dim))
    for i, p in enumerate(points_a):
        base = key(p)
        for off in offsets:
            bucket = buckets.get(tuple(b + o for b, o in zip(base, off)))
            if bucket:
                for j in bucket:
                    yield i, j


def _pair_lists(pa, pb, d2, spec: DistanceSpec, strategy: str = "auto", offenders=None):
    """lists[a]: sorted indices b with pa[a], pb[b] at squared distance d2.

    The one pairwise kernel: only ``spec.eps`` is read, so the spec may
    carry other distances.  "brute" tests every pair, "grid" only the
    pairs a uniform grid puts in neighbouring cells, "auto" picks grid for
    more than 4096 pairs.  With an `offenders` list, tolerant pairs in the
    guard band (eps, 100*eps] are appended to it.
    """
    eps = spec.eps
    certify = offenders is not None and bool(eps)
    if strategy == "grid" or (strategy == "auto" and len(pa) * len(pb) > 4096):
        if eps is None:
            reach2 = d2
        else:
            reach2 = float(d2) + (100.0 * eps if certify else eps)
        pairs = _grid_candidates(pa, pb, reach2, exact=eps is None)
    else:
        pairs = product(range(len(pa)), range(len(pb)))
    lists: list[list[int]] = [[] for _ in pa]
    for a, b in pairs:
        p, q = pa[a], pb[b]
        if matches_distance(p, q, d2, spec):
            lists[a].append(b)
        elif certify:
            gap = abs(float(squared_distance(p.as_float(), q.as_float())) - float(d2))
            if eps < gap <= 100.0 * eps:
                offenders.append((p, q, gap))
    return tuple(tuple(sorted(nb)) for nb in lists)


def build_adjacency(
    config: LayeredConfig, strategy: str = "auto", certify: bool | None = None
) -> BipartiteAdjacency:
    """Adjacency lists for every consecutive layer pair.

    Strategies "brute" and "grid" must agree exactly; "auto" picks grid for
    large pairs.  In tolerant mode the guard-band certificate runs alongside
    (disable with certify=False); failures raise CertificationError.
    """
    if certify is None:
        certify = not config.spec.exact
    offenders: list | None = [] if certify else None
    levels = tuple(
        _pair_lists(
            config.layers[i].points,
            config.layers[i + 1].points,
            config.spec.delta2[i],
            config.spec,
            strategy,
            offenders,
        )
        for i in range(config.k)
    )
    if offenders:
        raise CertificationError(offenders)
    return BipartiteAdjacency(levels)


def certify_config(config: LayeredConfig) -> None:
    """Raise CertificationError if any consecutive pair sits in the guard band."""
    build_adjacency(config, strategy="auto", certify=True)


def _coord_classes(layers) -> list[list[int]]:
    """Map coordinates to dense integer classes shared across layers."""
    ids: dict[tuple, int] = {}
    return [[ids.setdefault(p.coords, len(ids)) for p in layer.points] for layer in layers]


# ---------------------------------------------------------------------------
# the counting engine
#
# Every count runs over a rooted tree whose vertex v draws its point from one
# layer (a chain is a path rooted at its last position).  classes[v][i] is
# the coordinate class of point i of v's layer, shared across layers, and
# lists[v][i] holds the indices of the parent-layer points adjacent to it.
#
# Homomorphisms (walks, for a path) come from one bottom-up product-of-sums
# pass over the adjacency lists, O(E).  Injective counts (chains,
# embeddings) follow by Möbius inversion on the lattice of set partitions:
#
#     injective = sum over coincidence patterns pi of mu(pi) * homs(pi),
#     mu(pi) = product over blocks B of (-1)^(|B|-1) (|B|-1)!,
#
# where homs(pi) counts homomorphisms that give all vertices of each block
# one coordinate class.  A pattern can count anything only if each block's
# layers share a class and no block holds two tree neighbours, unless some
# point is adjacent to a point of its own class along their edge (possible
# only in tolerant mode with eps >= d2).  With pairwise-disjoint layers the
# trivial pattern is the only one and a count is a single O(E) pass; in
# general it costs O(E) per pattern and pinned class, and the number of
# patterns grows like a Bell number when every vertex draws from one set.


def _merge(a: tuple, b: tuple):
    """Union of two block-class assignments, or None if they disagree."""
    if a == b:
        return a
    out = []
    for x, y in zip(a, b):
        if x is None:
            out.append(y)
        elif y is None or x == y:
            out.append(x)
        else:
            return None
    return tuple(out)


def _add(into: dict, counts: dict) -> None:
    for a, x in counts.items():
        into[a] = into.get(a, 0) + x


class _CountTree:
    """A rooted tree of layers joined by adjacency lists, and its counts."""

    def __init__(self, classes, parent, lists, order):
        self.classes = classes
        self.parent = parent
        self.lists = lists
        self.order = list(order)  # every child before its parent, root last
        self.kids: list[list[int]] = [[] for _ in classes]
        self.below: list[set] = [set() for _ in classes]
        for v in self.order:
            if parent[v] >= 0:
                self.kids[parent[v]].append(v)
            self.below[v] = {v}.union(*(self.below[u] for u in self.kids[v]))
        self._reverse: dict[int, list[list[int]]] = {}
        self._where: dict[int, dict[int, list[int]]] = {}
        self._self_adjacent: dict[int, bool] = {}

    # -- coincidence patterns ----------------------------------------------

    def _may_share(self, u: int, v: int) -> bool:
        """Whether vertices u and v can take points of one class."""
        if self.parent[v] == u:
            u, v = v, u
        elif self.parent[u] != v:
            return True
        if u not in self._self_adjacent:
            own, up = self.classes[u], self.classes[v]
            self._self_adjacent[u] = any(
                up[p] == own[q] for q, ps in enumerate(self.lists[u]) for p in ps
            )
        return self._self_adjacent[u]

    def patterns(self):
        """(mu, blocks) for each coincidence pattern whose count may be
        nonzero; blocks are its non-singleton (members, shared classes)."""
        sets = [set(c) for c in self.classes]
        blocks: list[list] = []

        def place(v: int):
            if v == len(sets):
                big = [(tuple(m), s) for m, s in blocks if len(m) > 1]
                mu = math.prod((-1) ** (len(m) - 1) * math.factorial(len(m) - 1) for m, _ in big)
                yield mu, big
                return
            for block in blocks:
                members, shared = block
                common = shared & sets[v]
                if common and all(self._may_share(u, v) for u in members):
                    members.append(v)
                    block[1] = common
                    yield from place(v + 1)
                    members.pop()
                    block[1] = shared
            blocks.append([[v], sets[v]])
            yield from place(v + 1)
            blocks.pop()

        return place(0)

    # -- homomorphism counts -----------------------------------------------

    def homs(self, blocks=()) -> int:
        """Homomorphisms that give all members of each block one class.

        The first block is pinned to each of its shared classes in turn;
        the state of a vertex maps each of its points to counts per
        assignment of classes to the other blocks still open there.
        """
        pinned, shared = blocks[0] if blocks else ((), (None,))
        carried = [m for m, _ in blocks[1:]]
        slot = [-1] * len(self.classes)
        closing: dict[int, list[int]] = {}
        for j, members in enumerate(carried):
            for v in members:
                slot[v] = j
            top = next(v for v in self.order if self.below[v].issuperset(members))
            closing.setdefault(top, []).append(j)
        unset = (None,) * len(carried)
        return sum(self._pass(slot, closing, unset, pinned, c) for c in sorted(shared))

    def _pass(self, slot, closing, unset, pinned, pin_class) -> int:
        classes = self.classes
        states: dict[int, dict] = {}
        for v in self.order:
            allowed = self._points_of(v, pin_class) if v in pinned else None
            state = None
            for u in self.kids[v]:
                if allowed is None:
                    part = self._push(u, states.pop(u))
                else:
                    part = self._pull(u, states.pop(u), allowed)
                state = part if state is None else self._join(state, part)
            if state is None:
                unit = {unset: 1}
                state = {p: unit for p in (range(len(classes[v])) if allowed is None else allowed)}
            if slot[v] >= 0 or v in closing:
                state = self._settle(state, slot[v], classes[v], closing.get(v, ()))
            if not state:
                return 0
            states[v] = state
        return sum(x for counts in states[v].values() for x in counts.values())

    def _points_of(self, v: int, c: int) -> list[int]:
        if v not in self._where:
            where: dict[int, list[int]] = {}
            for p, cp in enumerate(self.classes[v]):
                where.setdefault(cp, []).append(p)
            self._where[v] = where
        return self._where[v].get(c, [])

    def _push(self, u: int, state: dict) -> dict:
        """Carry the child's counts to every adjacent parent point."""
        lists = self.lists[u]
        out: dict[int, dict] = {}
        for q, counts in state.items():
            for p in lists[q]:
                if p in out:
                    _add(out[p], counts)
                else:
                    out[p] = dict(counts)
        return out

    def _pull(self, u: int, state: dict, allowed) -> dict:
        """Gather the child's counts into the few allowed parent points."""
        if u not in self._reverse:
            rev: list[list[int]] = [[] for _ in self.classes[self.parent[u]]]
            for q, ps in enumerate(self.lists[u]):
                for p in ps:
                    rev[p].append(q)
            self._reverse[u] = rev
        rev = self._reverse[u]
        out: dict[int, dict] = {}
        for p in allowed:
            counts: dict = {}
            for q in rev[p]:
                if q in state:
                    _add(counts, state[q])
            if counts:
                out[p] = counts
        return out

    @staticmethod
    def _join(left: dict, right: dict) -> dict:
        """Pointwise product of two children's contributions."""
        out = {}
        for p, a_counts in left.items():
            b_counts = right.get(p)
            if b_counts is None:
                continue
            counts: dict = {}
            for a, x in a_counts.items():
                for b, y in b_counts.items():
                    ab = _merge(a, b)
                    if ab is not None:
                        counts[ab] = counts.get(ab, 0) + x * y
            if counts:
                out[p] = counts
        return out

    @staticmethod
    def _settle(state: dict, j: int, cls, done) -> dict:
        """Give block j (if any) the class of the vertex's own point, and
        forget the classes of the blocks in `done`, whose members all lie
        in this vertex's subtree."""
        out = {}
        for p, counts in state.items():
            c = cls[p]
            settled: dict = {}
            for a, x in counts.items():
                if j >= 0:
                    if a[j] is None:
                        a = a[:j] + (c,) + a[j + 1 :]
                    elif a[j] != c:
                        continue
                if done:
                    a = tuple(None if i in done else ci for i, ci in enumerate(a))
                settled[a] = settled.get(a, 0) + x
            if settled:
                out[p] = settled
        return out

    def injective(self) -> int:
        """Homomorphisms that give distinct vertices distinct classes."""
        return sum(mu * self.homs(blocks) for mu, blocks in self.patterns())


def _chain_tree(config: LayeredConfig, adjacency: BipartiteAdjacency | None) -> _CountTree:
    adj = adjacency or build_adjacency(config)
    k = config.k
    return _CountTree(
        _coord_classes(config.layers),
        list(range(1, k + 1)) + [-1],
        list(adj.neighbors) + [None],
        range(k + 1),
    )


def count_walks(config: LayeredConfig, adjacency: BipartiteAdjacency | None = None) -> int:
    """Tuples with matching consecutive distances, repetitions allowed.

    One layer-by-layer dynamic programming pass over the adjacency, O(E);
    the distinct-free upper surrogate for count_chains.
    """
    if config.k == 0:
        return len(config.layers[0])
    return _chain_tree(config, adjacency).homs()


def count_chains(config: LayeredConfig, adjacency: BipartiteAdjacency | None = None) -> int:
    """Tuples with matching consecutive distances and all points distinct.

    The walk DP with a Möbius correction over coincidence patterns: blocks
    of non-consecutive positions whose layers share coordinates.  O(E)
    when no two such layers share a point; otherwise O(E) per pattern and
    pinned shared point.
    """
    if config.k == 0:
        return len(config.layers[0].coord_set())
    return _chain_tree(config, adjacency).injective()


def count_incidences(P: Layer, Q: Layer, d2, spec: DistanceSpec, strategy: str = "auto") -> int:
    """Ordered pairs (p, q) in P x Q realizing squared distance d2."""
    cfg = LayeredConfig((Layer(P.points, 1), Layer(Q.points, 2)), DistanceSpec((d2,), spec.eps))
    adj = build_adjacency(cfg, strategy=strategy, certify=False)
    return adj.edge_count(0)


@dataclass(frozen=True)
class LabeledTree:
    """A tree on vertices 0..vertex_count-1 with a squared distance per edge."""

    vertex_count: int
    edges: tuple[tuple[int, int, object], ...]

    def validate(self) -> None:
        if len(self.edges) != self.vertex_count - 1:
            raise ValueError("edge list is not a tree (wrong edge count)")
        seen = {0}
        adj = defaultdict(list)
        for a, b, d2 in self.edges:
            if not (0 <= a < self.vertex_count and 0 <= b < self.vertex_count):
                raise ValueError(f"edge ({a},{b}) out of vertex range")
            if not d2 > 0:
                raise ValueError("edge squared distances must be positive")
            adj[a].append(b)
            adj[b].append(a)
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) != self.vertex_count:
            raise ValueError("edge list is disconnected or cyclic")

    def traversal(self):
        """(vertex, parent, d2) in BFS order from vertex 0; root has parent None."""
        adj = defaultdict(list)
        for a, b, d2 in self.edges:
            adj[a].append((b, d2))
            adj[b].append((a, d2))
        order = [(0, None, None)]
        seen = {0}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for w, d2 in adj[v]:
                if w not in seen:
                    seen.add(w)
                    order.append((w, v, d2))
                    queue.append(w)
        return order


def path_tree(delta2) -> LabeledTree:
    edges = tuple((i, i + 1, d2) for i, d2 in enumerate(delta2))
    return LabeledTree(len(edges) + 1, edges)


def count_tree_embeddings(layers, tree: LabeledTree, spec: DistanceSpec) -> int:
    """Tuples of distinct points realizing every labeled tree edge.

    `layers` is one Layer per tree vertex, or a single Layer replicated.
    Only ``spec.eps`` is read; the distances come from the tree.  A
    bottom-up product-of-sums DP over per-edge adjacency with the Möbius
    correction of count_chains; for a path this equals count_chains.
    """
    tree.validate()
    if isinstance(layers, Layer):
        layers = [layers] * tree.vertex_count
    layers = list(layers)
    if len(layers) != tree.vertex_count:
        raise ValueError("need one layer per tree vertex")
    order = tree.traversal()
    parent = [-1] * tree.vertex_count
    lists: list = [None] * tree.vertex_count
    for v, u, d2 in order[1:]:
        parent[v] = u
        lists[v] = _pair_lists(layers[v].points, layers[u].points, d2, spec)
    counter = _CountTree(_coord_classes(layers), parent, lists, [v for v, _, _ in reversed(order)])
    return counter.injective()


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
