"""Richness classes and the stable covering decomposition.

A point is r-rich with respect to a reference layer and a distance when its
sphere of that radius contains at least r reference points.  This module
provides the rich-point selectors and the recursive covering by stable
filtering sequences whose classes jointly contain every chain.

Richness thresholds are absolute integers internally; the exponent form
n^a is presentation only, with n the maximum layer size of the original
configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .geometry import DistanceSpec
from .layered import BipartiteAdjacency, Layer, LayeredConfig, _pair_lists, _ranges, build_adjacency


def degree_vector(target: Layer, reference: Layer, d2, spec: DistanceSpec) -> list[int]:
    """Number of reference points at the given distance from each target point."""
    import numpy as np

    return np.diff(_pair_lists(target.points, reference.points, d2, spec)[0]).tolist()


def rich_points(target: Layer, reference: Layer, d2, r: int, spec: DistanceSpec) -> Layer:
    """The sub-layer of target points with at least r reference neighbors."""
    if r < 1:
        raise ValueError("richness threshold must be >= 1")
    degs = degree_vector(target, reference, d2, spec)
    pts = tuple(p for p, d in zip(target.points, degs) if d >= r)
    return Layer(pts, target.label)


def richness_thresholds(n: int, eps: Fraction) -> list[int]:
    """Integer cutoffs T_0..T_{M+1} tiling [1, n] by richness exponent steps.

    The class at exponent index i is [T_i, T_{i+1}); T_0 = 1 and the top
    cutoff exceeds n so every positive degree lands in exactly one class.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    m_top = math.floor(1 / eps)
    cuts = []
    for i in range(m_top + 2):
        expo = float(i * eps)
        cuts.append(max(1, math.ceil(n**expo - 1e-9)))
    cuts[0] = 1
    cuts[-1] = max(cuts[-1], n + 1)
    for i in range(1, len(cuts)):
        if cuts[i] < cuts[i - 1]:
            cuts[i] = cuts[i - 1]
    return cuts


# A chunk of partial passes gathers about this many neighbours and dense
# (partial, point) counts at once, or those of one partial if more.
_BUDGET = 1 << 16


class _Filtering:
    """The filtering passes of a configuration, on one adjacency.

    A sub-layer is a subset of the points of its layer.  A level holds the
    sub-layers of many configurations: per layer a matrix of bit rows, one
    row per configuration, and the number of points of each (row, layer).
    Degrees into a sub-layer are counted on the adjacency's CSR rows; no
    point pair is tested again.
    """

    def __init__(self, config: LayeredConfig, cuts, adjacency=None):
        import numpy as np

        self.config = config
        self.sizes = [len(layer) for layer in config.layers]
        pairs = (adjacency or build_adjacency(config, certify=False)).pairs
        # (ref, i): offsets, indices and row lengths of the neighbours in layer i of layer ref's points
        self.csr = {(i, i + 1): (offsets, indices, np.diff(offsets)) for i, (offsets, indices) in enumerate(pairs)}
        self.flipped = {}  # transposes, by the id of the indices they transpose
        self.whole = tuple(map(np.arange, self.sizes))
        self.cuts = np.array(cuts)
        # object arrays of the points, so a sub-layer's points are one gather
        self.objects = [np.fromiter(layer.points, object, len(layer)) for layer in config.layers]

    def _neighbours(self, ref: int, i: int):
        """The CSR from layer ref to layer i.  A right-to-left one is the
        transpose, built once per distinct pair by a stable counting sort
        of the neighbour indices (numpy's radix sort below 2^16 points)."""
        import numpy as np

        if (ref, i) not in self.csr:
            offsets, indices, lengths = self.csr[i, ref]
            if id(indices) not in self.flipped:
                by = np.argsort(indices.astype(np.min_scalar_type(self.sizes[ref])), kind="stable")
                counts = np.bincount(indices, minlength=self.sizes[ref])
                rows = np.arange(self.sizes[i]).repeat(lengths)
                self.flipped[id(indices)] = np.concatenate(([0], counts.cumsum())), rows[by], counts
            self.csr[ref, i] = self.flipped[id(indices)]
        return self.csr[ref, i]

    def level(self, subs):
        """The level of the one configuration whose sub-layers are the
        index arrays subs."""
        import numpy as np

        bits = tuple(np.packbits(np.bincount(s, minlength=n) > 0)[None] for s, n in zip(subs, self.sizes))
        return bits, np.array([list(map(len, subs))])

    def children(self, subs, parity: int):
        """(class indices, configuration) of every pass over the
        configuration subs that leaves every layer nonempty (see expand)."""
        _, vectors, kids = self.expand(self.level(subs), parity)
        return list(zip(map(tuple, vectors.tolist()), self.configs(kids, range(len(vectors)))))

    def expand(self, level, parity: int):
        """Every pass over every configuration of a level that leaves every
        layer nonempty.  Each layer step runs on all partial passes at once:
        one bincount of (partial, point) keys over the neighbours of their
        filtered layers, masked to each configuration's own sub-layer, then
        one grouping of the kept points by (partial, class).

        parity=1 keeps the first layer whole and filters left to right:
        layer i keeps its points whose degree into the filtered layer i-1
        (at the (i-1)-th distance) lies in the chosen class.  parity=0 is
        the mirror, right to left.  The whole layer's class index is 0.
        Returns per child its configuration's index in the level and its
        class indices (a row, in layer order), and the children as a level.
        """
        import numpy as np

        (bits, lengths), cuts, width = level, self.cuts, len(self.cuts) - 1
        order = list(range(len(bits)))[:: 1 if parity else -1]
        node = np.arange(len(lengths))  # the configuration of each partial
        # the points of each partial's last filtered layer, and their partial
        own, pts = np.unpackbits(bits[order[0]], axis=1, count=self.sizes[order[0]]).nonzero()
        fend, steps = np.concatenate(([0], lengths[:, order[0]].cumsum())), []
        for ref, i in zip(order, order[1:]):
            n, (aoff, aidx, reach) = self.sizes[i], self._neighbours(ref, i)
            reach, starts = reach[pts], [0]
            if reach.sum() + n * len(node) > _BUDGET:  # chunks that fit: their neighbours and dense entries
                cost = np.concatenate(([0], reach.cumsum()))[fend] + n * np.arange(len(fend))
                starts = np.unique(cost.searchsorted(np.arange(0, cost[-1], _BUDGET), "right") - 1).tolist()
            out, base = [], 0
            for q0, q1 in zip(starts, [*starts[1:], len(node)]):
                f = slice(fend[q0], fend[q1])
                if q1 - q0 == 1 and f.stop - f.start == len(aoff) - 1:  # one partial, all of layer ref
                    keys = aidx
                else:  # in place: a few arrays of one entry per neighbour at a time
                    keys = aidx[_ranges(aoff[pts[f]], reach[f])]
                    keys += ((own[f] - q0) * n).repeat(reach[f])
                count = np.bincount(keys, minlength=(q1 - q0) * n).reshape(q1 - q0, n)
                count *= np.unpackbits(bits[i][node[q0:q1]], axis=1, count=n)  # each partial's sub-layer i
                part, point = count.nonzero()
                deg = count[part, point]
                cls = cuts.searchsorted(deg, "right") - 1
                if len(cls) and cls.max() >= width:
                    raise AssertionError(f"degree {deg.max()} outside threshold range {cuts.tolist()}")
                # the new partials: the (partial, class) groups of the kept points
                key = part * width + cls
                tally = np.bincount(key, minlength=(q1 - q0) * width)  # points per group
                group = tally.nonzero()[0]
                kid = np.arange(len(group)).repeat(tally[group])
                point = point[key.argsort(kind="stable")]
                rows = np.zeros((len(group), n), bool)
                rows[kid, point] = True
                out.append((group + q0 * width, np.packbits(rows, axis=1), tally[group], kid + base, point))
                base += len(group)
            key, packed, lens, own, pts = out[0] if len(out) == 1 else map(np.concatenate, zip(*out))
            src, m = np.divmod(key, width)
            fend, node = np.concatenate(([0], lens.cumsum())), node[src]
            steps.append((src, m, packed, lens))
        vectors = np.zeros((len(node), len(bits)), np.intp)
        kids, sizes, at = list(bits), lengths[node], np.arange(len(node))
        for i, (src, m, packed, lens) in zip(order[:0:-1], steps[::-1]):
            vectors[:, i], kids[i], sizes[:, i], at = m[at], packed[at], lens[at], src[at]
        kids[order[0]] = bits[order[0]][node]
        return node, vectors, (tuple(kids), sizes)

    def configs(self, level, picks) -> list[LayeredConfig]:
        """The configurations picks of a level, with their points."""
        import numpy as np

        (bits, lengths), picks = level, list(picks)
        layers = []
        for b, obj, ly, ends in zip(bits, self.objects, self.config.layers, lengths[picks].T.cumsum(1).tolist()):
            pts = obj[np.unpackbits(b[picks], axis=1, count=len(obj)).nonzero()[1]].tolist()
            layers.append([Layer(tuple(pts[lo:hi]), ly.label) for lo, hi in zip([0, *ends], ends)])
        return [LayeredConfig(pick, self.config.spec) for pick in zip(*layers)]


@dataclass(frozen=True)
class DecompositionSequence:
    """A filtering sequence: one exponent vector per pass, odd passes left
    to right, even passes right to left."""

    vectors: tuple[tuple[Fraction, ...], ...]
    class_sizes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class CoveringClass:
    sequence: DecompositionSequence
    config: LayeredConfig


def stable_covering(config: LayeredConfig, eps, adjacency: BipartiteAdjacency | None = None) -> list[CoveringClass]:
    """The set of maximal unstable-then-stable filtering sequences.

    Starting from the full configuration, repeatedly apply the richness
    filter with alternating parity.  A step is stable when the product-set
    size drops by a factor smaller than n^eps.  Sequences stop at their
    first stable step; every chain of the input lies in exactly one
    returned class, and no sequence is longer than (k+1)/eps + 1.  The
    search runs on one adjacency, built here when not given.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    n = max((len(layer) for layer in config.layers), default=0)
    if n == 0:
        return []
    cuts = richness_thresholds(n, eps)
    filtering = _Filtering(config, cuts, adjacency)
    exponent = [m * eps for m in range(len(cuts))]  # class index -> exponent
    p_num, p_den = eps.numerator, eps.denominator
    max_len = math.floor((config.k + 1) / eps) + 1

    def is_stable(old_size: int, new_size: int) -> bool:
        # new >= old * n^(-eps)  <=>  new^den * n^num >= old^den
        return new_size**p_den * n**p_num >= old_size**p_den

    # one BFS depth at a time: its sequences share one parity, so one
    # expand filters all of them
    found, configs, nodes = [], [], [((), (), math.prod(map(len, config.layers)))]  # (prefix, sizes, size)
    level, parity = filtering.level(filtering.whole), 1
    while nodes:
        node, vectors, kids = filtering.expand(level, parity)
        stable, keep, queued = [], [], []
        for j, (p, vec, lens) in enumerate(zip(node.tolist(), vectors.tolist(), kids[1].tolist())):
            prefix, sizes, size = nodes[p]
            child, new_size = prefix + (tuple(vec),), math.prod(lens)
            if is_stable(size, new_size):
                stable.append(j)
                found.append((child, sizes + (new_size,)))
            elif len(child) > max_len:
                raise AssertionError("unstable sequence exceeded the guaranteed length bound")
            else:
                keep.append(j)
                queued.append((child, sizes + (new_size,), new_size))
        configs += filtering.configs(kids, stable) if stable else []
        nodes, parity = queued, 1 - parity
        level = tuple(b[keep] for b in kids[0]), kids[1][keep]
    found = sorted(zip(found, configs), key=lambda item: item[0][0])  # m * eps rises with m
    return [
        CoveringClass(DecompositionSequence(tuple(tuple(map(exponent.__getitem__, vec)) for vec in child), sizes), sub)
        for (child, sizes), sub in found
    ]
