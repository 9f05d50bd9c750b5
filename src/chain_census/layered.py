"""Layered distance configurations and exact counting.

A configuration is k+1 point layers plus k squared distances; the objects
counted are walks (consecutive distances match, repeats allowed), chains
(additionally all points pairwise distinct) and embeddings of a
distance-labeled tree.  All counts are exact Python integers.

All three are counted by one engine (see "the counting engine" below): a
dynamic program over CSR adjacency arrays counts homomorphisms, and a Möbius
correction over coincidence patterns removes tuples that reuse a point.
No tuple is ever enumerated; the exhaustive oracles live with the tests.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .geometry import CertificationError, DistanceSpec, Point, _rational


@dataclass(frozen=True)
class Layer:
    points: tuple[Point, ...]
    label: int = 0

    def __len__(self) -> int:
        return len(self.points)

    def coord_set(self) -> set:
        return {p.coords for p in self.points}

    def validate(self) -> set:
        """Check ids and coordinates are unique; the set of coordinate types."""
        ids = [p.id for p in self.points]
        if len(set(ids)) != len(ids):
            raise ValueError(f"layer {self.label}: point ids are not unique")
        coords = [p.coords for p in self.points]
        types = {type(c) for cs in coords for c in cs}
        if all(map(_rational, types)):
            # normalised Fractions and ints are equal iff their (numerator,
            # denominator) pairs are, and the pairs hash far faster
            coords = [tuple([(c.numerator, c.denominator) for c in cs]) for cs in coords]
        if len(set(coords)) != len(coords):
            raise ValueError(f"layer {self.label}: duplicate point coordinates")
        return types


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
        dims, types_of = set(), {}  # Layer.validate once per point tuple
        for layer in self.layers:
            if id(layer.points) not in types_of:
                types_of[id(layer.points)] = layer.validate()
            types = types_of[id(layer.points)]
            dims.update(len(p.coords) for p in layer.points)
            if len(dims) > 1:
                raise ValueError("layers mix dimensions")
            if self.spec.exact:
                if not all(map(_rational, types)):
                    raise ValueError("exact spec requires rational coordinates")
            # a point is exact iff all its coordinates (perhaps none) are rational
            elif (0 in dims or any(map(_rational, types))) and any(p.is_exact() for p in layer.points):
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


@dataclass(frozen=True, eq=False)
class BipartiteAdjacency:
    """The edges of every consecutive layer pair as CSR arrays: pairs[i] is
    (offsets, indices), and indices[offsets[p]:offsets[p + 1]] are the
    ascending indices (into layer i+1) of the points at the i-th squared
    distance from point p of layer i.  The counting engine and the
    covering search read the arrays; `neighbors` lists them as tuples."""

    pairs: tuple

    @property
    def neighbors(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """neighbors[i][p]: the indices of pair i's row p, as a tuple."""
        out = []
        for offsets, indices in self.pairs:
            cuts, flat = offsets.tolist(), indices.tolist()
            out.append(tuple(tuple(flat[lo:hi]) for lo, hi in zip(cuts, cuts[1:])))
        return tuple(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, BipartiteAdjacency) and self.neighbors == other.neighbors

    def edge_count(self, i: int) -> int:
        return int(self.pairs[i][0][-1])

    def total_edges(self) -> int:
        return sum(map(self.edge_count, range(len(self.pairs))))

    def restrict(self, picks) -> "BipartiteAdjacency":
        """The adjacency among the points picks[i] (distinct indices) of
        each layer i, which become points 0, 1, ... of the new layers."""
        import numpy as np

        out = []
        for (offsets, indices), rows, cols in zip(self.pairs, picks, picks[1:]):
            rows, cols = np.asarray(rows, np.intp), np.asarray(cols, np.intp)
            sizes = offsets[rows + 1] - offsets[rows]
            q = indices[_ranges(offsets[rows], sizes)]
            keep = np.isin(q, cols)  # edges of picked rows into picked columns
            by = np.argsort(cols)
            a, b = np.repeat(np.arange(len(rows)), sizes)[keep], by[np.searchsorted(cols[by], q[keep])]
            order = np.lexsort((b, a))
            out.append((np.searchsorted(a[order], np.arange(len(rows) + 1)), b[order]))
        return BipartiteAdjacency(tuple(out))


# Pairs tested per row tile or block of index pairs: enough to amortize
# numpy's per-call cost.  Larger ones are no faster, and their temporaries
# (a few arrays of _BLOCK numbers per axis) raise a run's peak RSS.
_BLOCK = 1 << 12


@functools.cache
def _primes(count: int) -> tuple[int, ...]:
    """The `count` largest primes below 2^31, by Miller-Rabin with the bases
    2, 3, 5 and 7, which decides every n below 3.2e9 (Jaeschke 1993)."""
    out, n = [], (1 << 31) + 1
    while len(out) < count:
        n -= 2
        s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
        runs = ([pow(a, (n - 1) >> s << i, n) for i in range(s)] for a in (2, 3, 5, 7))
        if all(run[0] == 1 or n - 1 in run for run in runs):
            out.append(n)
    return tuple(out)


class _Side:
    """One point sequence in the pair kernel's array form, built once per
    layer however many pairs it belongs to: float64 axes in tolerant mode;
    in exact mode each point's denominator D_p, its integers N_p = D_p * p
    per axis, and each axis's floor of its minimum."""

    def __init__(self, points, eps):
        import numpy as np

        self.points = points
        self.dim = dim = len(points[0].coords) if points else 0
        if any(len(p.coords) != dim for p in points):
            raise ValueError("dimension mismatch between the two point sets")
        if not points:
            return
        if eps is not None:
            self.axes = np.array([float(c) for p in points for c in p.coords]).reshape(-1, dim).T.copy()
            return
        ratios = [c.as_integer_ratio() for p in points for c in p.coords]
        axes = [tuple(zip(*ratios[c::dim])) for c in range(dim)]  # (numerators, denominators)
        self.dens = list(map(math.lcm, *(ds for _, ds in axes)))
        self.nums = [[D // d * n for n, d, D in zip(ns, ds, self.dens)] for ns, ds in axes]
        self.lows = [min(map(operator.floordiv, ns, ds)) for ns, ds in axes]

    def __len__(self) -> int:
        return len(self.points)


class _PairView:
    """Both sides of a layer pair as arrays, one row per axis, and the one
    distance predicate on them.

    Tolerant mode reads coordinates as float64 (``float`` of a Fraction is
    correctly rounded) and sums squared differences axis by axis in the
    order of ``geometry.squared_distance``, bit for bit on float points.

    Exact mode reads each coordinate as the rational it is (a float too)
    and shifts each axis by the floor of its minimum, which keeps every
    denominator.  Point p gets its own denominator D_p and integers
    N_p = D_p * p >= 0; with d2 = num/den, p and q match iff
    den * |D_q N_p - D_p N_q|^2 == num * D_p^2 * D_q^2.  Both sides lie in
    [0, B], B from the largest D_p and N_p, and every value on the way is
    no larger in size: products and differences at most sqrt(B), squares,
    partial sums and (D_p D_q)^2 num (num >= 1 as d2 > 0) at most B.  So
    they are compared in int32 when B < 2^31, in int64 when B < 2^63, and
    otherwise modulo primes below 2^31, enough that their product exceeds
    2B, and equal residues mean equal sides by the Chinese remainder
    theorem (Brönnimann, Emiris, Pan and Pion, SoCG 1997).  ``a`` and
    ``b`` hold the first prime's operands, ``more`` the further primes'.
    """

    def __init__(self, pa, pb, d2, eps):
        """pa and pb are point sequences or their _Side forms."""
        import numpy as np  # at call time: a module-level import raised peak RSS

        sa, sb = (side if isinstance(side, _Side) else _Side(side, eps) for side in (pa, pb))
        if sa.dim != sb.dim:
            raise ValueError("dimension mismatch between the two point sets")
        self.dim = dim = sa.dim
        self.eps, self.split, self.more = eps, len(sa), ()
        self.points = sa.points, sb.points
        if eps is not None:
            self.a, self.b, self.target = sa.axes, sb.axes, float(d2)
            return
        dens = sa.dens + sb.dens
        cols = [
            [n - low * D for n, D in zip(na + nb, dens)]
            for na, nb, low in zip(sa.nums, sb.nums, map(min, sa.lows, sb.lows))
        ]
        self.ints = cols, dens
        num, den = d2.as_integer_ratio()
        # one denominator D for all points, as on integer layers: D^2 moves
        # into d2 and the row of D_p = 1 is left out, whose products would
        # add about a third to those layers' adjacency time
        shared = len(set(dens)) == 1
        if shared:
            num, dens = num * dens[0] ** 2, [1]
        dmax, nmax = max(dens), max(1, *map(max, cols))
        bound = max(den * dim * (dmax * nmax) ** 2, num * dmax**4)
        # each prime exceeds 2^30, so their product exceeds 2 * bound
        self.primes = _primes(-(-(2 * bound).bit_length() // 30)) if bound >> 63 else ()
        rows = cols if shared else [*cols, dens]  # N_p per axis, then D_p
        ratios = [(mod, num % mod, den % mod) for mod in self.primes] or [(0, num, den)]
        values = [[[v % mod for v in row] for row in rows] if mod else rows for mod, _, _ in ratios]
        values = np.array(values, np.int64 if self.primes or bound >> 31 else np.int32)
        sides = [(ratio, v[:, : len(pa)], v[:, len(pa) :]) for ratio, v in zip(ratios, values)]
        (self.ratio, self.a, self.b), *self.more = sides

    def test(self, x, y):
        """(matches, gaps) for operands x and y, ``a`` and ``b`` gathered at
        index pairs or broadcast over a tile; gaps are the float
        |d2(p, q) - d2| in tolerant mode, None in exact mode (first prime)."""
        import numpy as np

        if self.eps is None:
            return self._agree(self.ratio, x, y), None
        s = 0
        for c in range(self.dim):
            diff = x[c] - y[c]
            s = s + diff * diff
        gap = np.abs(s - self.target)
        return gap <= self.eps, gap

    def _agree(self, ratio, x, y):
        """Whether the two sides of the exact predicate are equal for the
        operands x and y of one modulus `mod` (plain integers when 0)."""
        mod, num, den = ratio
        dd = 1
        if len(x) > self.dim:  # D_p in the last row: compare D_q N_p with D_p N_q
            dd, x, y = x[-1] * y[-1], x[:-1] * y[-1], y[:-1] * x[-1]
        diff = x - y  # all axes at once: integer sums need no order
        if mod:
            s = ((diff % mod) ** 2 % mod).sum(axis=0)
            return s % mod * den % mod == (dd % mod) ** 2 % mod * num % mod
        s = (diff * diff).sum(axis=0, dtype=diff.dtype)
        return s * den == dd * dd * num

    def cell_codes(self, reach2, auto=False):
        """(code_a, code_b, offsets): an int64 cell code per point of each
        side, for cells of side at least sqrt(reach2), and the code offsets
        of a cell's 3^dim neighbours; None when there are too many cells for
        int64 codes, or, with `auto`, when no axis has more than two cells
        (every cell then neighbours every other).  Coordinates are shifted
        to be nonnegative first, and exact ones are divided as integers,
        point by point, so no rounding can put two neighbours two cells
        apart."""
        import numpy as np

        if self.eps is not None:
            both = np.hstack((self.a, self.b))
            width = math.sqrt(reach2) * (1 + 2**-20)  # above the rounding of float distances and keys
            keys = np.floor((both - both.min(axis=1)[:, None]) / width)
            tops = keys.max(axis=1).tolist()
        else:
            # cells of side width / scale >= sqrt(reach2), within 2^-20 of it
            cols, dens = self.ints
            num, den = Fraction(reach2).as_integer_ratio()
            # every N_p / D_p is at most max N / min D: below 2 sqrt(reach2), each key is 0 or 1
            if auto and max(map(max, cols), default=0) ** 2 * den < 4 * num * min(dens) ** 2:
                return None
            scale = 1 << max(0, (42 + den.bit_length() - num.bit_length()) // 2)
            width = math.isqrt(num * scale * scale // den) + 1
            keys = [[n * scale // (d * width) for n, d in zip(col, dens)] for col in cols]
            tops = list(map(max, keys))
        # digits 1..max+1 per axis, so neighbours' digits stay in 0..max+2
        sizes = [int(top) + 3 for top in tops]
        if math.prod(sizes) >= 1 << 62 or (auto and max(sizes, default=3) <= 4):
            return None
        stride = np.cumprod([1, *sizes[:-1]])
        offsets = np.array(list(product((-1, 0, 1), repeat=self.dim))) @ stride
        codes = (np.array(keys, np.int64) + 1).T @ stride
        return codes[: self.split], codes[self.split :], offsets


def _cell_blocks(code_a, code_b, offsets):
    """The index pairs (a, b) whose cell codes differ by one of `offsets`,
    ordered by a, in blocks of about _BLOCK pairs."""
    import numpy as np

    order = np.argsort(code_b, kind="stable")
    sorted_b = code_b[order]
    near = (code_a[:, None] + offsets).ravel()
    first = np.searchsorted(sorted_b, near)
    sizes = np.searchsorted(sorted_b, near, "right") - first
    hit = np.flatnonzero(sizes)
    qa, first, sizes = hit // len(offsets), first[hit], sizes[hit]
    # a block starts at each query whose first pair opens a new _BLOCK
    starts = np.cumsum(sizes) - sizes
    cuts = np.flatnonzero(np.diff(starts // _BLOCK, prepend=-1)).tolist()
    for lo, hi in zip(cuts, [*cuts[1:], len(hit)]):
        n = sizes[lo:hi]
        yield np.repeat(qa[lo:hi], n), order[_ranges(first[lo:hi], n)]


def _pair_lists(pa, pb, d2, spec: DistanceSpec, strategy: str = "auto", offenders=None):
    """CSR arrays (offsets, indices): indices[offsets[a]:offsets[a + 1]]
    are the ascending indices b with pa[a], pb[b] at squared distance d2.

    The one kernel that decides point pairs (see _PairView), on point
    sequences or their _Side forms: only ``spec.eps`` is read, so the spec
    may carry other distances.  "brute" tests every pair, rows of pa
    against all of pb by broadcasting, "grid" only the pairs a uniform grid
    puts in neighbouring cells ("brute" when there are too many cells to
    code in int64), "auto" picks grid for more than 4096 pairs when it puts
    more than two cells on some axis.  Each tile or block holds about
    _BLOCK pairs, so a call costs a few array operations per tile plus
    Python work per coordinate not yet converted.  With an `offenders`
    list, tolerant pairs in the guard band (eps, 100*eps] are appended to
    it as (p, q, gap) in (a, b) order: the separation certificate that
    tolerant counting is stable.
    """
    import numpy as np

    na, nb = len(pa), len(pb)
    none = np.zeros(0, dtype=np.intp)
    if not na or not nb:
        return np.zeros(na + 1, np.intp), none
    eps = spec.eps
    certify = offenders is not None and bool(eps)
    view = _PairView(pa, pb, d2, eps)
    cells = None
    if strategy == "grid" or (strategy == "auto" and na * nb > 4096):
        reach2 = d2 if eps is None else float(d2) + (100.0 * eps if certify else eps)
        cells = view.cell_codes(reach2, strategy == "auto")
    # a pair's flat index a * nb + b orders pairs by (a, b)
    if cells is None:  # row tiles lo:hi, with their flat indices as a (rows, nb) block
        step, all_b = max(1, _BLOCK // nb), view.b[..., None, :]
        cuts = [(lo, min(lo + step, na)) for lo in range(0, na, step)]
        tiles = ((np.arange(lo * nb, hi * nb).reshape(-1, nb), view.a[..., lo:hi, None], all_b) for lo, hi in cuts)
    else:
        tiles = ((ia * nb + ib, view.a.take(ia, -1), view.b.take(ib, -1)) for ia, ib in _cell_blocks(*cells))
    hits, band = [none], [(none, np.zeros(0))]
    for flat, x, y in tiles:
        match, gap = view.test(x, y)
        hits.append(flat[match])
        if certify:
            near = ~match & (gap > eps) & (gap <= 100.0 * eps)
            band.append((flat[near], gap[near]))
    hits, (band, gap) = np.concatenate(hits), map(np.concatenate, zip(*band))
    if cells is not None:  # blocks hold a row's pairs in cell order
        order = np.argsort(band)
        hits, band, gap = np.sort(hits), band[order], gap[order]
    for ratio, a, b in view.more:  # each further prime tests the pairs the earlier ones kept
        hits = hits[view._agree(ratio, a.take(hits // nb, -1), b.take(hits % nb, -1))]
    if certify:
        (pts_a, pts_b), (rows, cols) = view.points, (side.tolist() for side in np.divmod(band, nb))
        offenders.extend((pts_a[p], pts_b[q], g) for p, q, g in zip(rows, cols, gap.tolist()))
    return np.searchsorted(hits, np.arange(0, (na + 1) * nb, nb)), hits % nb


def _pair_runs(spec: DistanceSpec, strategy: str = "auto", offenders=None):
    """_pair_lists as a function (pa, pb, d2) of point tuples, run once per
    distinct (pa, pb, d2) with tuples told apart by identity: calls with
    one key share one _Side per tuple and one pair of read-only CSR arrays,
    and each call appends the pair's guard-band offenders, as a run would."""
    sides, runs = {}, {}

    def run(pa, pb, d2):
        key = id(pa), id(pb), d2
        if key not in runs:
            for pts in (pa, pb):
                if id(pts) not in sides:
                    sides[id(pts)] = _Side(pts, spec.eps)
            band = None if offenders is None else []
            runs[key] = _pair_lists(sides[id(pa)], sides[id(pb)], d2, spec, strategy, band), band
            for arr in runs[key][0]:
                arr.flags.writeable = False
        csr, band = runs[key]
        if band:
            offenders.extend(band)
        return csr

    return run


def build_adjacency(
    config: LayeredConfig, strategy: str = "auto", certify: bool | None = None
) -> BipartiteAdjacency:
    """The CSR adjacency of every consecutive layer pair, each distinct
    pair of point tuples and distance decided once (see _pair_runs).

    Strategies "brute" and "grid" must agree exactly; "auto" picks grid for
    large pairs.  In tolerant mode the guard-band certificate runs alongside
    (disable with certify=False); failures raise CertificationError.
    """
    if certify is None:
        certify = not config.spec.exact
    offenders: list | None = [] if certify else None
    run = _pair_runs(config.spec, strategy, offenders)
    points = [ly.points for ly in config.layers]
    pairs = tuple(map(run, points, points[1:], config.spec.delta2))
    if offenders:
        raise CertificationError(offenders)
    return BipartiteAdjacency(pairs)


def certify_config(config: LayeredConfig) -> BipartiteAdjacency:
    """The adjacency built with the separation certificate: raise
    CertificationError if any consecutive pair sits in the guard band."""
    return build_adjacency(config, strategy="auto", certify=True)


def _coord_classes(layers) -> list[list[int]]:
    """Map coordinates to dense integer classes shared across layers, one
    list per distinct point tuple."""
    ids: dict[tuple, int] = {}
    lists: dict[int, list[int]] = {}
    for layer in layers:
        if id(layer.points) not in lists:
            lists[id(layer.points)] = [ids.setdefault(p.coords, len(ids)) for p in layer.points]
    return [lists[id(layer.points)] for layer in layers]


# ---------------------------------------------------------------------------
# the counting engine
#
# Every count runs over a rooted tree whose vertex v draws its point from one
# layer (a chain is a path rooted at its last position).  classes[v][i] is
# the coordinate class of point i of v's layer, shared across layers, and
# pairs[v] holds the CSR arrays of v's edges: offsets over v's points and
# indices into its parent's layer.
#
# Homomorphisms (walks, for a path) come from one bottom-up pass of segment
# sums over the edges sorted by parent point, O(E).  Injective counts
# (chains, embeddings) follow by Möbius inversion on the partition lattice:
#
#     injective = sum over coincidence patterns pi of mu(pi) * homs(pi),
#     mu(pi) = product over blocks B of (-1)^(|B|-1) (|B|-1)!,
#
# where homs(pi) counts homomorphisms that give all vertices of each block
# one coordinate class.  A vertex's state counts assignments of its subtree
# per point and per shared class of each block open there (members inside
# and outside its subtree) that its own point does not fix: a dense array
# over the points when no block is open, otherwise only the entries its
# edges reach, as ascending int64 keys point * cols + flat axis index (axes
# in block order) and their values.  A push that opens a block emits one
# entry per edge, one that carries a block expands each entry of a row
# along the row's edges, and one that closes a block looks up the entry at
# the parent point's class, so a pattern costs the entries its edges reach.
# Patterns grow vertex by vertex, and a prefix with no homomorphism ends
# its branch, as merging blocks only adds constraints (Curticapean, Dell
# and Marx, STOC 2017); so two vertices no homomorphism puts on one class,
# such as tree neighbours in exact mode, never share a block.  Every state
# entry counts assignments of a subtree: int64 holds them while the product
# of the layer sizes is below 2^63, Python ints in object arrays otherwise.

# Entries gathered per chunk of edges: a push's transient arrays stay near
# this size however many entries a row holds.
_CHUNK = 1 << 15


def _ranges(first, sizes):
    """The indices first[t], first[t] + 1, ..., first[t] + sizes[t] - 1."""
    import numpy as np

    out = np.repeat(first - np.cumsum(sizes) + sizes, sizes)
    out += np.arange(len(out))
    return out


def _ascending(keys, vals):
    """Distinct keys and their values, in key order."""
    import numpy as np

    by = np.argsort(keys)
    return keys[by], vals[by]


def _rekey(keys, axes, new, width):
    """The keys of a state over `axes` as keys over the axes `new`: axes not
    in `new` dropped, axes not in `axes` at index 0."""
    import numpy as np

    coords = {}
    for j in reversed(axes):
        keys, coords[j] = np.divmod(keys, width[j])
    for j in new:
        keys = keys * width[j] + coords.get(j, 0)
    return keys


class _CountTree:
    """A rooted tree of layers joined by CSR adjacency, and its counts."""

    def __init__(self, classes, parent, pairs, order):
        import numpy as np

        self.parent = parent
        self.order = list(order)  # every child before its parent, root last
        self.kids: list[list[int]] = [[] for _ in classes]
        self.below = [1 << v for v in range(len(classes))]  # bit masks of subtrees
        for v in self.order:
            if parent[v] >= 0:
                self.kids[parent[v]].append(v)
                self.below[parent[v]] |= self.below[v]
        arrays: dict = {}  # one array and one set per distinct class list
        for c in classes:
            if id(c) not in arrays:
                arrays[id(c)] = np.array(c, dtype=np.intp), frozenset(c)
        self.classes, self.sets = ([arrays[id(c)][i] for c in classes] for i in (0, 1))
        self.class_count = 1 + max((max(c) for c in classes if c), default=-1)
        self.dtype = np.int64 if math.prod(map(len, classes)) < 1 << 63 else object
        # per child u: its edges (q, p) to the parent, p ascending and then
        # the class of q ascending, and the order that lists them as the
        # CSR arrays do (by q, then p); sorted once per distinct pair
        self.edges: list = [None] * len(classes)
        runs: dict = {}
        for u, v in enumerate(parent):
            key = id(pairs[u]), id(classes[u])
            if v >= 0 and key not in runs:
                offsets, p = pairs[u]
                q = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
                by = np.lexsort((self.classes[u][q], p))
                csr = np.empty_like(by)
                csr[by] = np.arange(len(by))
                runs[key] = q[by], p[by], csr
            self.edges[u] = runs.get(key)
        self._memo: dict = {}  # pushes reused across patterns, oldest first
        self._stored = 0
        self._luts: dict = {}  # shared classes -> class -> axis index
        self._pairs: dict = {}

    def _pair(self, u: int, v: int) -> int:
        """Homomorphisms that give vertices u < v one class: when there are
        none, no pattern may put them in one block.  Tree neighbours have
        none unless an edge joins two points of one class."""
        import numpy as np

        if (u, v) not in self._pairs:
            child = u if self.parent[u] == v else v if self.parent[v] == u else None
            if child is not None:
                q, p, _ = self.edges[child]
                loops = np.any(self.classes[child][q] == self.classes[self.parent[child]][p])
            shared = self.sets[u] & self.sets[v]
            self._pairs[u, v] = self.homs([((u, v), shared)]) if child is None or loops else 0
        return self._pairs[u, v]

    def injective(self, homs: int | None = None) -> int:
        """Homomorphisms that give distinct vertices distinct classes;
        `homs`, when given, is self.homs(), the sum's first term.

        Vertex v joins each block it may share a class with, or opens its
        own; a join whose pattern (later vertices alone) has no
        homomorphism ends that branch, as every completion only adds
        constraints.
        """
        blocks: list[list] = []  # [members, shared classes]
        total = self.homs() if homs is None else homs

        def place(v: int) -> None:
            nonlocal total
            if v == len(self.sets):
                return
            for block in blocks:
                members, shared = block
                common = shared & self.sets[v]
                if common and all(self._pair(u, v) for u in members):
                    members.append(v)
                    block[1] = common
                    big = [(tuple(m), s) for m, s in blocks if len(m) > 1]
                    h = self._pair(*big[0][0]) if len(big) == 1 and len(members) == 2 else self.homs(big)
                    if h:
                        mu = math.prod((-1) ** (len(m) - 1) * math.factorial(len(m) - 1) for m, _ in big)
                        total += mu * h
                        place(v + 1)
                    members.pop()
                    block[1] = shared
            blocks.append([[v], self.sets[v]])
            place(v + 1)
            blocks.pop()

        if total:
            place(0)
        return total

    def homs(self, blocks=()) -> int:
        """Homomorphisms that give all members of each block one class."""
        import numpy as np

        own = [-1] * len(self.sets)
        masks, top, pos = [], [], []  # members; their lowest common vertex; class -> axis index
        for j, (members, shared) in enumerate(blocks):
            for v in members:
                own[v] = j
            masks.append(sum(1 << v for v in members))
            top.append(next(v for v in self.order if masks[j] & ~self.below[v] == 0))
            if shared not in self._luts:
                lut = self._luts[shared] = np.full(self.class_count, -1, np.intp)
                lut[sorted(shared)] = np.arange(len(shared))
            pos.append(self._luts[shared])
        width = [len(shared) for _, shared in blocks]
        if max(map(len, self.classes)) * math.prod(width) >> 63:  # keys point * cols + flat
            raise OverflowError("too many shared classes to index a state in int64")

        # top down: the pushes to compute, those of children whose push no
        # earlier pattern left in the memo; it depends only on the blocks
        # inside the child's subtree: their members there, their classes,
        # whether they close there, and which one the parent's point reads
        parts, todo, keys = {}, {self.order[-1]}, {}
        for v in reversed(self.order):
            if v not in todo:
                continue
            for u in self.kids[v]:
                below = self.below[u]
                inside = [j for j, m in enumerate(masks) if m & below]
                key = (u, *(
                    (masks[j] & below, blocks[j][1], masks[j] & ~below == 0, j == own[v]) for j in inside
                ))
                hit = self._memo.get(key)
                if hit is None:
                    todo.add(u)
                    keys[u] = key, inside
                else:
                    parts[u] = tuple(inside[r] for r in hit[0]), hit[1]
        # bottom up: each vertex joins its children's pushes and pushes on
        for v in self.order:
            if v not in todo:
                continue
            kids = [parts.pop(u) for u in self.kids[v]]
            axes, state = kids[0] if kids else ((), (None, np.ones(len(self.classes[v]), self.dtype)))
            for part in kids[1:]:
                axes, state = self._join(axes, state, *part, width)
            if self.parent[v] < 0:  # every block closes at the root
                return int(state[1].sum())
            part_axes, part = parts[v] = self._push(v, axes, state, own, top, pos, width)
            key, inside = keys[v]
            if len(part[1]) <= _CHUNK:  # kept for later patterns, within _CHUNK entries in all
                self._memo[key] = tuple(map(inside.index, part_axes)), part
                self._stored += len(part[1])
                while self._stored > _CHUNK:
                    self._stored -= len(self._memo.pop(next(iter(self._memo)))[1][1])

    def _join(self, axes, state, part_axes, part, width):
        """The product of two states of one vertex: the entries that agree
        on its point and on the axes both have, multiplied."""
        import numpy as np

        if not {*part_axes} <= {*axes}:  # the one with more axes first
            axes, state, part_axes, part = part_axes, part, axes, state
        keys, vals = state
        if not part_axes:  # a dense part: one value per point
            points = keys // math.prod(width[j] for j in axes) if axes else slice(None)
            return axes, (keys, vals * part[1][points])
        if {*part_axes} <= {*axes}:  # each entry meets at most one of part's
            want = keys if part_axes == axes else _rekey(keys, axes, part_axes, width)
            first = np.searchsorted(part[0], want)
            hit = np.flatnonzero(part[0].take(first, mode="clip") == want) if len(part[0]) else first[:0]
            return axes, (keys[hit], vals[hit] * part[1][first[hit]])
        both = [j for j in axes if j in part_axes]
        joined = tuple(sorted({*axes, *part_axes}))
        other = _rekey(part[0], part_axes, both, width)
        by = np.argsort(other)
        other, want = other[by], _rekey(keys, axes, both, width)
        first = np.searchsorted(other, want)
        sizes = np.searchsorted(other, want, "right") - first
        ia, ib = np.repeat(np.arange(len(want)), sizes), by[_ranges(first, sizes)]
        # keys are sums over the axes: each side's, less those both have
        mine, theirs = _rekey(keys, axes, joined, width), _rekey(part[0], part_axes, joined, width)
        joined_keys = mine[ia] + theirs[ib] - _rekey(want, both, joined, width)[ia]
        return joined, _ascending(joined_keys, vals[ia] * part[1][ib])

    def _push(self, u, axes, state, own, top, pos, width):
        """(axes, state) of the parent: the child's counts summed over its
        edges into each parent point, and over the classes of the blocks
        whose members all lie below the child.  The parent's own block is
        read at the class of the parent's point; the child's own block,
        when open above the child, becomes an axis indexed by the class of
        the child's point."""
        import numpy as np

        v = self.parent[u]
        q, p, csr = self.edges[u]
        ju, jv = own[u], own[v]
        grow = ju >= 0 and ju != jv and top[ju] != u
        if jv >= 0 and jv == ju:  # neighbours in one block: equal classes
            cq = self.classes[u][q]
            keep = (cq == self.classes[v][p]) & (pos[jv][cq] >= 0)
            q, p = q[keep], p[keep]
        keys, vals = state
        n = len(self.classes[v])
        rest = tuple(j for j in axes if j != jv)  # the axes of the run an edge reads
        span = math.prod(width[j] for j in rest)
        if jv in axes:  # with the parent's block first among the axes, an
            # edge reads the entries of its row at its parent point's class
            if axes[0] != jv:
                keys, vals = _ascending(_rekey(keys, axes, (jv, *rest), width), vals)
            at = pos[jv][self.classes[v][p]]
            start = (q * width[jv] + at) * span
            first, sizes = np.empty_like(start), np.empty_like(start)
            first[csr] = np.searchsorted(keys, start[csr])  # needles mostly ascending: far faster
            if rest:
                sizes[csr] = np.searchsorted(keys, start[csr] + span)
                sizes -= first
            else:  # a run of one entry at most
                sizes = keys.take(first, mode="clip") == start if len(keys) else np.zeros(len(q), bool)
            sizes[at < 0] = 0
        elif axes:  # an edge reads its whole row
            start = q * span
            bounds = np.searchsorted(keys, np.arange(len(self.classes[u]) + 1) * span)
            first, sizes = bounds[q], bounds[q + 1] - bounds[q]
        if not rest:  # each edge reads one entry: its child point's, or the
            rows = q  # one a closing block's lookup finds
            if axes:
                hit = np.flatnonzero(sizes)
                q, p, rows = q[hit], p[hit], first[hit]
            if not grow:  # segment sums over the edges, sorted by p
                out = np.zeros(n, self.dtype)
                for lo in range(0, len(q), _CHUNK):
                    k = p[lo : lo + _CHUNK]
                    starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
                    out[k[starts]] += np.add.reduceat(vals[rows[lo : lo + _CHUNK]], starts)
                return (), (None, out)
            # an opening block: each point of a layer has its own class, so
            # each edge gives one entry, in key order
            c = pos[ju][self.classes[u][q]]
            return (ju,), (p[c >= 0] * width[ju] + c[c >= 0], vals[rows[c >= 0]])
        # carrying open blocks: the runs are summed into windows, the rows
        # of a few parent points, at most _CHUNK entries (a row at least)
        # from about _CHUNK read; the windows' nonzero entries fill arrays
        # sized for the fewer of one per entry read and one per point and
        # axis index, whose pages beyond them stay untouched
        out = tuple(sorted({j for j in rest if top[j] != u} | ({ju} if grow else set())))
        cols = math.prod(width[j] for j in out)
        if grow:  # the new axis's index, times its stride
            c = pos[ju][self.classes[u][q]]
            sizes[c < 0] = 0
            c *= math.prod(width[j] for j in out if j > ju)
        edge_at = np.searchsorted(p, np.arange(n + 1))  # each point's first edge
        reach = np.concatenate(([0], np.cumsum(sizes)))[edge_at]
        chunk = np.arange(n) // max(1, _CHUNK // cols) * (reach[-1] // _CHUNK + 1) + reach[:-1] // _CHUNK
        tops = [0, *(np.flatnonzero(chunk[1:] != chunk[:-1]) + 1).tolist(), n]
        bound = min(int(reach[-1]), n * cols)
        ks, vs, used = np.empty(bound, np.int64), np.empty(bound, self.dtype), 0
        for a, b in zip(tops, tops[1:]):
            lo, hi = edge_at[a], edge_at[b]
            got = sizes[lo:hi]
            run = _ranges(first[lo:hi], got)
            if out == rest:  # the index over `rest` is the new state's
                at_run = keys[run]
                at_run += np.repeat((p[lo:hi] - a) * cols - start[lo:hi], got)
            else:  # closing blocks summed, the new one at its place
                at_run = _rekey(keys[run] - np.repeat(start[lo:hi], got), rest, out, width)
                at_run += np.repeat((p[lo:hi] - a) * cols + (c[lo:hi] if grow else 0), got)
            window = np.zeros((b - a) * cols, self.dtype)
            np.add.at(window, at_run, vals[run])
            nonzero = np.flatnonzero(window != 0)  # far faster than on int64
            ks[used : used + len(nonzero)] = nonzero + a * cols
            vs[used : used + len(nonzero)] = window[nonzero]
            used += len(nonzero)
        if not out:  # every axis summed: a dense array
            dense = np.zeros(n, self.dtype)
            dense[ks[:used]] = vs[:used]
            return (), (None, dense)
        return out, (ks[:used], vs[:used])


def _chain_tree(config: LayeredConfig, adjacency: BipartiteAdjacency | None) -> _CountTree:
    adj = adjacency or build_adjacency(config)
    k = config.k
    return _CountTree(
        _coord_classes(config.layers),
        list(range(1, k + 1)) + [-1],
        [*adj.pairs, None],
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
    when no two such layers share a point; otherwise, per pattern with a
    homomorphism, each push moves the (point, shared point) entries a
    child's edges reached along those edges, not a row of every shared
    point per edge.
    """
    return count_chains_and_walks(config, adjacency)[0]


def count_chains_and_walks(config: LayeredConfig, adjacency: BipartiteAdjacency | None = None) -> tuple[int, int]:
    """(count_chains, count_walks) from one counting engine: the walk count
    is the first term of the chain count's Möbius sum."""
    if config.k == 0:
        return len(config.layers[0].coord_set()), len(config.layers[0])
    tree = _chain_tree(config, adjacency)
    walks = tree.homs()
    return tree.injective(walks), walks


def count_incidences(P: Layer, Q: Layer, d2, spec: DistanceSpec, strategy: str = "auto") -> int:
    """Ordered pairs (p, q) in P x Q realizing squared distance d2."""
    return len(_pair_runs(spec, strategy)(P.points, Q.points, d2)[1])


@dataclass(frozen=True)
class LabeledTree:
    """A tree on vertices 0..vertex_count-1 with a squared distance per edge."""

    vertex_count: int
    edges: tuple[tuple[int, int, object], ...]

    def validate(self) -> None:
        if len(self.edges) != self.vertex_count - 1:
            raise ValueError("edge list is not a tree (wrong edge count)")
        for a, b, d2 in self.edges:
            if not (0 <= a < self.vertex_count and 0 <= b < self.vertex_count):
                raise ValueError(f"edge ({a},{b}) out of vertex range")
            if not d2 > 0:
                raise ValueError("edge squared distances must be positive")
        if len(self.traversal()) != self.vertex_count:
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
    correction of count_chains, at its cost per pattern; for a path this
    equals count_chains.
    """
    return _tree_counter(layers, tree, spec).injective()


def _tree_counter(layers, tree: LabeledTree, spec: DistanceSpec) -> _CountTree:
    tree.validate()
    if isinstance(layers, Layer):
        layers = [layers] * tree.vertex_count
    layers = list(layers)
    if len(layers) != tree.vertex_count:
        raise ValueError("need one layer per tree vertex")
    order = tree.traversal()
    parent = [-1] * tree.vertex_count
    pairs: list = [None] * tree.vertex_count
    run = _pair_runs(spec)  # one run per distinct (vertex set, parent set, d2)
    for v, u, d2 in order[1:]:
        parent[v] = u
        pairs[v] = run(layers[v].points, layers[u].points, d2)
    return _CountTree(_coord_classes(layers), parent, pairs, [v for v, _, _ in reversed(order)])
