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
from itertools import accumulate, chain

from .geometry import CertificationError, DistanceSpec, Point, ResolutionError, _rational


def _key(c):
    """A coordinate as a key equal to another's iff they are equal numbers,
    fast to hash: a Fraction becomes its int, the float equal to it, or
    else its (numerator, denominator), which no int or float equals."""
    return _pair_key(*c.as_integer_ratio()) if isinstance(c, Fraction) else c


def _pair_key(num: int, den: int):
    """_key of the Fraction num/den (reduced, den > 0)."""
    if den == 1:
        return num
    if den & (den - 1) or abs(num) >> 53 or den.bit_length() > 1075:  # not a float64
        return num, den
    return num / den


class _Coords:
    """The coordinates of one point sequence, shared by the layers holding
    them (relabelled or repeated), given as Points, coordinate tuples
    (`rows`), float64 `axes` (one row per axis) or, from the exact reader,
    `pairs` (numerators, denominators, whether each is a Fraction); every
    other form is built on first read, Points with ids 0, 1, ... and
    Python numbers.  `dim`, when given, is the dimension even of no points."""

    def __init__(self, points=None, rows=None, axes=None, pairs=None, dim=None):
        if points is not None:
            self.points = tuple(points)
            rows = [p.coords for p in self.points]
        elif axes is not None:
            self.axes, rows = axes, list(zip(*axes.tolist()))
        if pairs is not None:
            *self.pairs, self._fracs = pairs
            self.n, self.types = len(self._fracs) // (dim or 1), {Fraction if f else int for f in set(self._fracs)}
        else:
            self.rows, self.n, self.types = rows, len(rows), set(map(type, chain.from_iterable(rows)))
        self.dims = set(map(len, rows)) if dim is None else {dim} - {0}

    def __eq__(self, other) -> bool:  # as the Points would be, whose ids do not count
        return self is other or isinstance(other, _Coords) and self.keys == other.keys

    def __hash__(self) -> int:
        return hash(tuple(self.keys))

    def __repr__(self) -> str:
        return repr(self.points)

    @functools.cached_property
    def rows(self) -> list[tuple]:
        (nums, dens), dim = self.pairs, min(self.dims, default=1)
        flat = [Fraction(n, d) if f else n for n, d, f in zip(nums, dens, self._fracs)]
        return list(zip(*[iter(flat)] * dim))

    @functools.cached_property
    def points(self) -> tuple[Point, ...]:
        return tuple(map(Point, self.rows, range(self.n)))

    @functools.cached_property
    def pairs(self) -> list[list]:
        """The coordinates' reduced numerators and positive denominators, point by point."""
        return list(map(list, zip(*(c.as_integer_ratio() for c in chain.from_iterable(self.rows))))) or [[], []]

    @functools.cached_property
    def keys(self) -> list[tuple]:
        """Each point's coordinates as _key tuples."""
        if not any(issubclass(t, Fraction) for t in self.types):
            return self.rows
        (nums, dens), dim = self.pairs, min(self.dims)
        flat = [n if d == 1 else _pair_key(n, d) for n, d in zip(nums, dens)]
        return list(zip(*[iter(flat)] * dim))

    @functools.cached_property
    def keyset(self) -> set[tuple]:
        """The keys, hashed once for every duplicate or collision test."""
        return set(self.keys)

    @functools.cached_property
    def axes(self):
        """The pair kernel's tolerant form (``float`` rounds a Fraction correctly)."""
        import numpy as np

        dim = min(self.dims)  # fromiter: far faster than np.array on tuples
        return np.fromiter(chain.from_iterable(self.rows), float, self.n * dim).reshape(self.n, dim).T.copy()

    @functools.cached_property
    def ratios(self) -> tuple:
        """The pair kernel's exact form: each point's denominator D_p, its
        integers N_p = D_p * p per axis, and each axis's floor of its
        minimum, as arrays: int64 when every D_p and |N_p| is below 2^31,
        so that no product or difference the kernel forms with them
        overflows, else of Python ints.  Integer points are the rational
        case with D_p = 1, their axes taken as they are."""
        import numpy as np

        dim = min(self.dims)
        if self.types == {int}:
            nums = list(zip(*self.rows))
            dens, lows = [1] * self.n, list(map(min, nums))
        else:
            nums, dens = self.pairs
            axes = [(nums[c::dim], dens[c::dim]) for c in range(dim)]
            dens = list(map(math.lcm, *(ds for _, ds in axes)))
            nums = [[D // d * n for n, d, D in zip(ns, ds, dens)] for ns, ds in axes]
            lows = [min(map(operator.floordiv, ns, ds)) for ns, ds in axes]
        small = max(dens) >> 31 == 0 and -(1 << 31) < min(map(min, nums)) and max(map(max, nums)) < 1 << 31
        kind = np.int64 if small else object
        return np.array(dens, kind), np.array(nums, kind), np.array(lows, kind)

    def exact(self) -> "_Coords":
        """These coordinates as Fractions, each the rational it is (a float's exact value)."""
        return _Coords(pairs=(*self.pairs, [True] * len(self.pairs[0])), dim=min(self.dims, default=0))


@dataclass(frozen=True)
class Layer:
    """A point layer: its coordinates (a _Coords, or Points kept as given) and a label."""

    coords: _Coords
    label: int = 0

    def __post_init__(self):
        if not isinstance(self.coords, _Coords):
            object.__setattr__(self, "coords", _Coords(self.coords))

    @property
    def points(self) -> tuple[Point, ...]:
        return self.coords.points

    def __len__(self) -> int:
        return self.coords.n

    def validate(self) -> set:
        """Check ids and coordinates are unique, naming the layer in an
        error; the set of coordinate types."""
        c = self.coords
        if "points" in c.__dict__ and len({p.id for p in c.points}) != c.n:  # Points given, or built with ids 0, 1, ...
            raise ValueError(f"layer {self.label}: point ids are not unique")
        if len(c.keyset) != c.n:
            raise ValueError(f"layer {self.label}: duplicate point coordinates")
        return c.types


def make_layer(points, label: int = 0) -> Layer:
    """A layer of Points, their ids kept when unique, else of their (or
    coordinate tuples') coordinates, ids 0, 1, ..."""
    pts = tuple(points)
    if all(isinstance(p, Point) for p in pts) and len({p.id for p in pts}) == len(pts):
        return Layer(pts, label)
    return Layer(_Coords(rows=[p.coords if isinstance(p, Point) else tuple(p) for p in pts]), label)


@dataclass(frozen=True)
class LayeredConfig:
    layers: tuple[Layer, ...]
    spec: DistanceSpec

    @property
    def k(self) -> int:
        return len(self.layers) - 1

    @property
    def dim(self) -> int:
        return next((min(ly.coords.dims) for ly in self.layers if ly.coords.dims), 0)

    def validate(self) -> None:
        if len(self.layers) != self.spec.k + 1:
            raise ValueError(
                f"{len(self.layers)} layers but {self.spec.k} squared distances"
            )
        dims, types_of = set(), {}  # Layer.validate and dimensions once per coordinate store
        for layer in self.layers:
            if id(layer.coords) not in types_of:
                dims |= layer.coords.dims  # first: a store's keys are cut into points of one dimension
                if len(dims) > 1:
                    raise ValueError("layers mix dimensions")
                types_of[id(layer.coords)] = layer.validate()
            types = types_of[id(layer.coords)]
            if self.spec.exact:
                if not all(map(_rational, types)):
                    raise ValueError("exact spec requires rational coordinates")
            # a point is exact iff all its coordinates (perhaps none) are rational
            elif (0 in dims or any(map(_rational, types))) and any(p.is_exact() for p in layer.points):
                raise ValueError("tolerant spec requires float coordinates")

    @functools.cached_property
    def adjacency(self) -> "BipartiteAdjacency":
        """The certified adjacency of the layer pairs, built on first read
        (see build_adjacency) unless the configuration was made with it."""
        return build_adjacency(self)

    def restrict(self, picks) -> "LayeredConfig":
        """The configuration of the points picks[i] (distinct indices) of
        each layer i, with this one's adjacency restricted to them."""
        layers = (Layer(tuple(map(ly.points.__getitem__, pick)), ly.label) for ly, pick in zip(self.layers, picks))
        return _with_adjacency(LayeredConfig(tuple(layers), self.spec), self.adjacency.restrict(picks).pairs)


def make_config(layers, delta2, eps: float | None = None) -> LayeredConfig:
    # layer i + 1: a Layer relabelled (its coordinates shared) or a new one
    lys = tuple(Layer((ly if isinstance(ly, Layer) else make_layer(ly)).coords, i + 1) for i, ly in enumerate(layers))
    cfg = LayeredConfig(lys, DistanceSpec(tuple(delta2), eps))
    cfg.validate()
    return cfg


@dataclass(frozen=True, eq=False)
class BipartiteAdjacency:
    """The edges of every consecutive layer pair as CSR arrays: pairs[i] is
    (offsets, indices), and indices[offsets[p]:offsets[p + 1]] are the
    ascending indices (into layer i+1) of the points at the i-th squared
    distance from point p of layer i."""

    pairs: tuple

    def __eq__(self, other) -> bool:
        import numpy as np

        same = isinstance(other, BipartiteAdjacency) and len(self.pairs) == len(other.pairs)
        return same and all(np.array_equal(a, b) for x, y in zip(self.pairs, other.pairs) for a, b in zip(x, y))

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


# Pairs tested per row tile: enough to amortize numpy's per-call cost.
# Larger tiles are no faster, and their temporaries (a few arrays of
# _BLOCK numbers per axis) raise a run's peak RSS.
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
        """pa and pb are Layers or point sequences."""
        import numpy as np  # at call time: a module-level import raised peak RSS

        self.sides = sa, sb = [x.coords if isinstance(x, Layer) else _Coords(x) for x in (pa, pb)]
        if len(sa.dims | sb.dims) > 1:
            raise ValueError("dimension mismatch between the two point sets")
        self.dim = dim = min(sa.dims | sb.dims)
        self.eps, self.more = eps, ()
        if eps is not None:
            self.a, self.b, self.target = sa.axes, sb.axes, float(d2)
            return
        (dens_a, nums_a, lows_a), (dens_b, nums_b, lows_b) = sa.ratios, sb.ratios
        dens = np.concatenate((dens_a, dens_b))
        rows = np.concatenate((nums_a, nums_b), axis=1) - np.minimum(lows_a, lows_b)[:, None] * dens
        num, den = d2.as_integer_ratio()
        nmax, dmax = max(1, int(rows.max())), int(dens.max())
        # one denominator D for all points, as on integer layers: each axis
        # shifts by one integer, D^2 moves into d2 and the row of D_p = 1 is
        # left out, whose products would add about a third to those layers'
        # adjacency time
        if dmax == dens.min():
            num, dmax = num * dmax**2, 1
        else:
            rows = np.concatenate((rows, dens[None]))  # N_p per axis, then D_p
        bound = max(den * dim * (dmax * nmax) ** 2, num * dmax**4)
        # each prime exceeds 2^30, so their product exceeds 2 * bound
        self.primes = _primes(-(-(2 * bound).bit_length() // 30)) if bound >> 63 else ()
        ratios = [(mod, num % mod, den % mod) for mod in self.primes] or [(0, num, den)]
        values = [rows % mod if mod else rows for mod, _, _ in ratios]
        values = np.array(values, np.int64 if self.primes or bound >> 31 else np.int32)
        sides = [(ratio, v[:, : len(pa)], v[:, len(pa) :]) for ratio, v in zip(ratios, values)]
        (self.ratio, self.a, self.b), *self.more = sides

    def test(self, x, y):
        """For operands x and y, ``a`` and ``b`` broadcast over a row tile:
        whether each pair matches in exact mode (first prime), its float
        gap |d2(p, q) - d2| in tolerant mode."""
        import numpy as np

        if self.eps is None:
            return self._agree(self.ratio, x, y)
        s = x[0] - y[0]
        s *= s
        for c in range(1, self.dim):  # in place: temporaries are most of a tile's time
            diff = x[c] - y[c]
            diff *= diff
            s += diff
        s -= self.target
        return np.abs(s, out=s)

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


def _pair_lists(pa, pb, d2, spec: DistanceSpec, offenders=None):
    """CSR arrays (offsets, indices): indices[offsets[a]:offsets[a + 1]]
    are the ascending indices b with pa[a], pb[b] at squared distance d2.

    The one kernel that decides point pairs (see _PairView), on Layers or
    point sequences: only ``spec.eps`` is read, so the spec may carry other
    distances.  It tests every pair, O(|pa| |pb|), in row tiles of pa
    against all of pb by broadcasting, each tile about _BLOCK pairs, so a
    call costs a few array operations per tile plus Python work per
    coordinate not yet in array form.  With an `offenders` list,
    tolerant pairs in the guard band (eps, 100*eps] are appended to it as
    (p, q, gap) in (a, b) order: the separation certificate that tolerant
    counting is stable.  It runs where the band lies below d2, eps <
    d2/100 as DistanceSpec asks of a spec's distances; a coarser
    tolerance, which `--mode tol:<eps>` may give, decides pairs uncertified.
    A certified pair with no offender raises ResolutionError if eps <=
    (dim + 2) u d2, u = 2^-53, which bounds the rounding of a computed
    squared distance near d2 (gamma_{dim+2}, Higham, ch. 3): a band that
    narrow certifies nothing, unless float64 computes every squared
    distance and its gap to d2 exactly: integer coordinates, with the sum
    over the axes of (max - min)^2 and d2 integers of at most 2^53.
    """
    import numpy as np

    na, nb = len(pa), len(pb)
    none = np.zeros(0, dtype=np.intp)
    if not na or not nb:
        return np.zeros(na + 1, np.intp), none
    eps = spec.eps
    certify = offenders is not None and bool(eps) and eps < float(d2) / 100
    view = _PairView(pa, pb, d2, eps)
    # rows lo:hi of pa against all of pb; a pair's flat index a * nb + b
    # orders pairs by (a, b)
    step, all_b = max(1, _BLOCK // nb), view.b[..., None, :]
    hits, band = [none], [(none, np.zeros(0))]
    limit = 100.0 * eps if certify else eps
    for lo in range(0, na, step):
        out = view.test(view.a[..., lo : lo + step, None], all_b)
        if eps is None:
            hits.append(np.flatnonzero(out) + lo * nb)
            continue
        # the pairs within the widest gap sought, split into hits and band
        near = np.flatnonzero(out <= limit)
        gap = out.take(near)
        hit = gap <= eps
        hits.append(near[hit] + lo * nb)
        if certify:
            band.append((near[~hit] + lo * nb, gap[~hit]))
    hits, (band, gap) = np.concatenate(hits), map(np.concatenate, zip(*band))
    if certify and not len(band) and eps <= (bound := (view.dim + 2) * 2.0**-53 * float(d2)):
        both, (num, den) = np.concatenate((view.a, view.b), axis=1), d2.as_integer_ratio()
        span2 = sum(int(s) ** 2 for s in (both.max(axis=1) - both.min(axis=1)).tolist())
        if den != 1 or max(num, span2) > 1 << 53 or not (both == np.trunc(both)).all():
            raise ResolutionError(eps, d2, bound)
    for ratio, a, b in view.more:  # each further prime tests the pairs the earlier ones kept
        hits = hits[view._agree(ratio, a.take(hits // nb, -1), b.take(hits % nb, -1))]
    if len(band):
        (pts_a, pts_b), (rows, cols) = (c.points for c in view.sides), (s.tolist() for s in np.divmod(band, nb))
        offenders.extend((pts_a[p], pts_b[q], g) for p, q, g in zip(rows, cols, gap.tolist()))
    return np.searchsorted(hits, np.arange(0, (na + 1) * nb, nb)), hits % nb


def _certified_pairs(spec: DistanceSpec, triples, band=None) -> list:
    """The CSR arrays of _pair_lists for the pairs (pa, pb, d2) of Layers,
    each distinct (coordinates, coordinates, d2), coordinates told apart
    by identity, decided once: the triples holding it share one pair of
    read-only arrays.  In tolerant mode the guard-band certificate runs alongside:
    each pair's offenders are appended to `band` when it is given, else
    an offender raises CertificationError."""
    offenders = [] if band is None else band
    runs, pairs = {}, []
    for pa, pb, d2 in triples:
        key = id(pa.coords), id(pb.coords), d2
        if key not in runs:
            runs[key] = _pair_lists(pa, pb, d2, spec, found := []), found
            for arr in runs[key][0]:
                arr.flags.writeable = False
        csr, found = runs[key]
        offenders += found
        pairs.append(csr)
    if offenders and band is None:
        raise CertificationError(offenders)
    return pairs


def build_adjacency(config: LayeredConfig) -> BipartiteAdjacency:
    """The certified CSR adjacency of every consecutive layer pair (see
    _certified_pairs)."""
    layers = config.layers
    return BipartiteAdjacency(tuple(_certified_pairs(config.spec, zip(layers, layers[1:], config.spec.delta2))))


def _with_adjacency(config: LayeredConfig, pairs, band=()) -> LayeredConfig:
    """`config`, its adjacency the CSR arrays `pairs` of its layer pairs as
    decided where it was built, unless `band` holds guard-band offenders
    of those decisions, which raise CertificationError."""
    if band:
        raise CertificationError(band)
    config.__dict__["adjacency"] = BipartiteAdjacency(tuple(pairs))
    return config


def _disjoint(layers) -> bool:
    """Whether no coordinates repeat within or across the layers' distinct
    coordinate stores: their key sets, whose hashes are kept, join to a set
    as large as the stores."""
    distinct = {id(layer.coords): layer.coords for layer in layers}.values()
    return len(set().union(*(c.keyset for c in distinct))) == sum(c.n for c in distinct)


def _coord_classes(layers) -> list:
    """Map coordinates to dense integer classes shared across layers, in
    order of first appearance, one array per distinct coordinate store:
    an np.arange run per store when no coordinates repeat (see _disjoint)."""
    import numpy as np

    distinct = {id(layer.coords): layer.coords for layer in layers}
    if _disjoint(layers):
        starts = dict(zip(distinct, accumulate((c.n for c in distinct.values()), initial=0)))
        arrays = {i: np.arange(starts[i], starts[i] + c.n) for i, c in distinct.items()}
    else:
        ids: dict[tuple, int] = {}
        arrays = {i: np.fromiter((ids.setdefault(k, len(ids)) for k in c.keys), int, c.n) for i, c in distinct.items()}
    return [arrays[id(layer.coords)] for layer in layers]


# ---------------------------------------------------------------------------
# the counting engine
#
# Every count runs over a rooted tree whose vertex v draws its point from one
# layer (a chain is a path rooted at its last position).  classes[v][i] is
# the coordinate class of point i of v's layer, shared across layers, and
# pairs[v] holds the CSR arrays of v's edges: offsets over v's points and
# indices into its parent's layer.
#
# Homomorphisms (walks, for a path) come from one bottom-up pass that adds
# each child's counts over its CSR arrays as given into the parent's points
# (np.add.at), O(E).  Injective counts (chains, embeddings) follow by
# Möbius inversion on the partition lattice:
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
# A carry whose one remaining block closes at the next vertex up, through
# a vertex with no other child, does that vertex's push too: each window
# of carried rows is read at the classes of that vertex's edges and summed
# into the closing vertex's points, so the carried state is never stored.
# Those pushes read a pair's edges sorted by parent point (see run), built
# on first need like the class sets; when no two vertices may share a class
# the walk pass is the count.
# Patterns grow vertex by vertex, and a prefix with no homomorphism ends
# its branch, as merging blocks only adds constraints (Curticapean, Dell
# and Marx, STOC 2017); so two vertices no homomorphism puts on one class,
# such as tree neighbours in exact mode, never share a block.  Every state
# entry counts assignments of a subtree: int64 holds them while the product
# of the layer sizes is below 2^63, Python ints in object arrays otherwise.

# Entries gathered per chunk of edges: a push's transient arrays stay near
# this size however many entries a row holds.  As int64, 2^14 entries is
# glibc's initial 128 KB mmap threshold: a larger temporary is a fresh
# mapping, page faults included, unless some earlier, larger free raised
# that threshold, so 2^15 made a push's cost depend on the process's past.
_CHUNK = 1 << 14


def _ranges(first, sizes):
    """The indices first[t], first[t] + 1, ..., first[t] + sizes[t] - 1."""
    import numpy as np

    out = np.repeat(first - np.cumsum(sizes) + sizes, sizes)
    out += np.arange(len(out))
    return out


def _transpose(offsets, indices, n: int):
    """A pair's CSR arrays read from the other side, whose n points become
    the rows, and the permutation `by` that lists the edges in that order
    (by index, then by row): a stable counting sort of the indices, which
    numpy runs as a radix sort below 2^16 points."""
    import numpy as np

    by = np.argsort(indices.astype(np.min_scalar_type(n)), kind="stable")
    rows = np.arange(len(offsets) - 1).repeat(np.diff(offsets))
    return np.concatenate(([0], np.bincount(indices, minlength=n).cumsum())), rows[by], by


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

        self.parent, self.pairs = parent, pairs
        self.order = list(order)  # every child before its parent, root last
        self.kids: list[list[int]] = [[] for _ in classes]
        self.below = [1 << v for v in range(len(classes))]  # bit masks of subtrees
        for v in self.order:
            if parent[v] >= 0:
                self.kids[parent[v]].append(v)
                self.below[parent[v]] |= self.below[v]
        self.classes = classes  # as _coord_classes gives them: one array per distinct store
        arrays = {id(c): c for c in classes}
        self.class_count = 1 + max((int(c.max()) for c in arrays.values() if len(c)), default=-1)
        # classes are dense: as many as the lists' points when no two share one
        self.coincide = len(arrays) < len(classes) or self.class_count < sum(map(len, arrays.values()))
        self.dtype = np.int64 if math.prod(map(len, classes)) < 1 << 63 else object
        self._runs: dict = {}  # sorted edges per distinct (pair, class list)
        self._memo: dict = {}  # pushes reused across patterns, oldest first
        self._stored = 0
        self._luts: dict = {}  # shared classes -> class -> axis index
        self._pairs: dict = {}

    @functools.cached_property
    def sets(self) -> list[frozenset]:
        """Each vertex's classes as a set, one per distinct class array."""
        made = {id(c): c for c in self.classes}
        made = {i: frozenset(c.tolist()) for i, c in made.items()}
        return [made[id(c)] for c in self.classes]

    def run(self, u: int) -> tuple:
        """Child u's edges (q, p) to its parent, by p and then the class of
        q, and the order `csr` that lists them as the CSR arrays do: sorted
        once per distinct (pair, class list), on first use.  The transpose
        lists them by p, then q: that order when classes ascend with q."""
        import numpy as np

        key = id(self.pairs[u]), id(self.classes[u])
        if key not in self._runs:
            offsets, p = self.pairs[u]
            _, q, by = _transpose(offsets, p, len(self.classes[self.parent[u]]))
            cu = self.classes[u]
            if np.any(cu[1:] < cu[:-1]):  # each p's run by the class of q
                sub = np.lexsort((cu[q], p[by]))
                q, by = q[sub], by[sub]
            csr = np.empty_like(by)
            csr[by] = np.arange(len(by))
            self._runs[key] = q, p[by], csr
        return self._runs[key]

    def _pair(self, u: int, v: int) -> int:
        """Homomorphisms that give vertices u < v one class: when there are
        none, no pattern may put them in one block.  Tree neighbours have
        none unless an edge joins two points of one class."""
        import numpy as np

        if (u, v) not in self._pairs:
            child = u if self.parent[u] == v else v if self.parent[v] == u else None
            if child is not None:
                offsets, p = self.pairs[child]
                loops = np.any(np.repeat(self.classes[child], np.diff(offsets)) == self.classes[self.parent[child]][p])
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
            if v == len(self.classes):
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

        if total and self.coincide:
            place(0)
        del place  # the closure refers to itself: free the tree now, not at a gc pass
        return total

    def homs(self, blocks=()) -> int:
        """Homomorphisms that give all members of each block one class."""
        import numpy as np

        own = [-1] * len(self.classes)
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
            done, part_axes, part = self._push(v, axes, state, own, top, pos, width)
            if done != v:  # v's parent pushed too (a fused close): it is done
                todo.remove(done)
            parts[done] = part_axes, part
            key, inside = keys[done]
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
        """(u, axes, state) with the parent's state: the child's counts
        summed over its edges into each parent point, and over the classes
        of the blocks whose members all lie below the child.  The parent's
        own block is read at the class of the parent's point; the child's
        own block, when open above the child, becomes an axis indexed by
        the class of the child's point.  A fused close returns (v, (),
        state) with the state of v's parent instead: v's push done too."""
        import numpy as np

        v = self.parent[u]
        ju, jv = own[u], own[v]
        grow = ju >= 0 and ju != jv and top[ju] != u
        if not (axes or grow or (jv >= 0 and jv == ju)):  # no block to carry, open or keep:
            offsets, p = self.pairs[u]  # each edge reads its child point's count, as the CSR arrays list it
            out = np.zeros(len(self.classes[v]), self.dtype)
            np.add.at(out, p, np.repeat(state[1], np.diff(offsets)))
            return u, (), (None, out)
        q, p, csr = self.run(u)  # otherwise the edges sorted by parent point
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
            if not grow:  # summed over the edges into their parent points
                out = np.zeros(n, self.dtype)
                np.add.at(out, p, vals[rows])
                return u, (), (None, out)
            # an opening block: each point of a layer has its own class, so
            # each edge gives one entry, in key order
            c = pos[ju][self.classes[u][q]]
            return u, (ju,), (p[c >= 0] * width[ju] + c[c >= 0], vals[rows[c >= 0]])
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
        # a fused close: when the one axis left is the block of v's parent w,
        # which closes at w, u is v's only child and v owns no block, each
        # window is read at the classes of v's edges into w and summed into
        # w's points, so v's state is never stored and v's push is done
        w = self.parent[v]
        if fuse := jv < 0 and w >= 0 and out == (own[w],) and top[own[w]] == w and self.kids[v] == [u]:
            offsets, into = self.pairs[v]
            at = pos[own[w]][self.classes[w][into]]
            keep = at >= 0
            flat = (np.arange(n).repeat(np.diff(offsets)) * cols + at)[keep]
            into, edge_at_v = into[keep], np.concatenate(([0], np.cumsum(keep)))[offsets]
            closed = np.zeros(len(self.classes[w]), self.dtype)
        bound = 0 if fuse else min(int(reach[-1]), n * cols)
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
            if fuse:
                e, f = edge_at_v[a], edge_at_v[b]
                np.add.at(closed, into[e:f], window[flat[e:f] - a * cols])
                continue
            nonzero = np.flatnonzero(window != 0)  # far faster than on int64
            ks[used : used + len(nonzero)] = nonzero + a * cols
            vs[used : used + len(nonzero)] = window[nonzero]
            used += len(nonzero)
        if fuse:
            return v, (), (None, closed)
        if not out:  # every axis summed: a dense array
            dense = np.zeros(n, self.dtype)
            dense[ks[:used]] = vs[:used]
            return u, (), (None, dense)
        return u, out, (ks[:used], vs[:used])


def _chain_tree(config: LayeredConfig) -> _CountTree:
    k = config.k
    return _CountTree(
        _coord_classes(config.layers),
        list(range(1, k + 1)) + [-1],
        [*config.adjacency.pairs, None],
        range(k + 1),
    )


def count_walks(config: LayeredConfig) -> int:
    """Tuples with matching consecutive distances, repetitions allowed.

    One layer-by-layer dynamic programming pass over the adjacency, O(E);
    the distinct-free upper surrogate for count_chains.
    """
    return _chain_tree(config).homs()


def count_chains(config: LayeredConfig) -> int:
    """Tuples with matching consecutive distances and all points distinct.

    The walk DP with a Möbius correction over coincidence patterns: blocks
    of non-consecutive positions whose layers share coordinates.  O(E)
    when no two such layers share a point; otherwise, per pattern with a
    homomorphism, each push moves the (point, shared point) entries a
    child's edges reached along those edges, not a row of every shared
    point per edge.
    """
    return count_chains_and_walks(config)[0]


def count_chains_and_walks(config: LayeredConfig) -> tuple[int, int]:
    """(count_chains, count_walks) from one counting engine: the walk count
    is the first term of the chain count's Möbius sum."""
    tree = _chain_tree(config)
    walks = tree.homs()
    return tree.injective(walks), walks


def count_incidences(P: Layer, Q: Layer, d2, spec: DistanceSpec) -> int:
    """Ordered pairs (p, q) in P x Q realizing squared distance d2; a
    tolerant pair in the guard band raises CertificationError."""
    return len(_certified_pairs(spec, [(P, Q, d2)])[0][1])


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
            if not 0 < d2 < math.inf:
                raise ValueError(f"edge squared distances must be {'positive' if d2 <= 0 else 'finite'}")
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
    parent, pairs = [-1] * tree.vertex_count, [None] * tree.vertex_count
    # one run per distinct (vertex set, parent set, d2)
    decided = _certified_pairs(spec, ((layers[v], layers[u], d2) for v, u, d2 in order[1:]))
    for (v, u, _), csr in zip(order[1:], decided):
        parent[v], pairs[v] = u, csr
    return _CountTree(_coord_classes(layers), parent, pairs, [v for v, _, _ in reversed(order)])
