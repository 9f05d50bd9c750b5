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

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .geometry import DistanceSpec
from .layered import Layer, LayeredConfig, _certified_pairs, _ranges, _transpose


def degree_vector(target: Layer, reference: Layer, d2, spec: DistanceSpec) -> list[int]:
    """Number of reference points at the given distance from each target
    point; a tolerant pair in the guard band raises CertificationError."""
    import numpy as np

    return np.diff(_certified_pairs(spec, [(target, reference, d2)])[0][0]).tolist()


def rich_points(target: Layer, reference: Layer, d2, r: int, spec: DistanceSpec) -> Layer:
    """The sub-layer of target points with at least r reference neighbors."""
    if r < 1:
        raise ValueError("richness threshold must be >= 1")
    degs = degree_vector(target, reference, d2, spec)
    pts = tuple(p for p, d in zip(target.points, degs) if d >= r)
    return Layer(pts, target.label)


def _at_least(t: int, q: int, n: int, m: int) -> bool:
    """Whether t^q >= n^m, for integers t >= 1, n, q, m >= 0, without
    forming either power.  Equal powers are powers of one base s: t = s^b
    and n = s^a, a/b being q/m in lowest terms.  Unequal ones differ in
    q log t - m log n, which floats decide outside their rounding bound (as
    in _is_stable), and decimal logarithms to ever more digits inside it."""
    if m == 0 or n <= 1 or t == 1 or q == 0:
        return m == 0 or n <= 1
    a, b = q // math.gcd(q, m), m // math.gcd(q, m)
    if a <= n.bit_length() and b <= t.bit_length() and (s := round(n ** (1 / a))) ** a == n and s**b == t:
        return True
    size = q * (math.log2(t) + 1) + m * (math.log2(n) + 1)
    gap, digits = q * math.log2(t) - m * math.log2(n), 15
    while abs(gap) <= size * 10.0 ** (3 - digits):
        import decimal  # on first need: importing it costs every process a few ms

        digits *= 2
        with decimal.localcontext() as context:
            context.prec = digits
            gap = q * decimal.Decimal(t).ln() - m * decimal.Decimal(n).ln()
    return gap > 0


def _ceil_root(n: int, m: int, q: int, low: int = 1) -> int:
    """The smallest t >= low with t^q >= n^m: a float guess, corrected."""
    t = max(low, math.ceil(n ** (m / q)))
    while t > low and _at_least(t - 1, q, n, m):
        t -= 1
    while not _at_least(t, q, n, m):
        t += 1
    return t


def richness_thresholds(n: int, eps: Fraction) -> tuple[list[int], list[int]]:
    """The distinct integer cutoffs of the richness classes, ascending, and
    the last exponent index of each.

    For eps = p/q the cutoff at exponent index i, 0 <= i <= M + 1 with
    M = floor(1/eps), is T_i = ceil(n^(i eps)): the smallest t with
    t^q >= n^(i p), decided in integers.  The class at index i is [T_i,
    T_{i+1}).  T_0 = 1, and the top cutoff T_{M+1} is at least n + 1, so
    every degree from 1 to n lands in one class.  Only the indices where
    T_i changes are visited, at most n + 2: O(min(n, 1/eps)) steps.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    p, q, top = eps.numerator, eps.denominator, math.floor(1 / eps) + 1
    cuts, last, i = [], [], 0
    while i < top:
        t = _ceil_root(n, i * p, q)
        # the last index below the top whose cutoff is t: n^(j p) <= t^q
        j = top - 1 if n <= 1 else min(top - 1, math.floor(q * math.log(t) / (p * math.log(n))))
        while j + 1 < top and _at_least(t, q, n, (j + 1) * p):
            j += 1
        while j > i and not _at_least(t, q, n, j * p):
            j -= 1
        cuts.append(t)
        last.append(j)
        i = j + 1
    return [*cuts, _ceil_root(n, top * p, q, n + 1)], [*last, top]


# A chunk of partial passes gathers about this many neighbours and dense
# (partial, point) counts at once, or those of one partial if more.
_BUDGET = 1 << 16


class _Filtering:
    """The filtering passes of a configuration, on its adjacency.

    A sub-layer is a subset of the points of its layer.  A level holds the
    sub-layers of many configurations: per layer a matrix of bit rows, one
    row per configuration, and the number of points of each (row, layer).
    Degrees into a sub-layer are counted on the adjacency's CSR rows; no
    point pair is tested again.
    """

    def __init__(self, config: LayeredConfig, cuts):
        import numpy as np

        self.sizes = [len(layer) for layer in config.layers]
        # (ref, i): offsets, indices and row lengths of the neighbours in layer i of layer ref's points
        self.csr, flipped = {}, {}  # right to left: the transpose, once per distinct pair
        for i, (offsets, indices) in enumerate(config.adjacency.pairs):
            if id(indices) not in flipped:
                back_offsets, back_indices, _ = _transpose(offsets, indices, self.sizes[i + 1])
                flipped[id(indices)] = back_offsets, back_indices, np.diff(back_offsets)
            self.csr[i, i + 1] = offsets, indices, np.diff(offsets)
            self.csr[i + 1, i] = flipped[id(indices)]
        self.whole = tuple(map(np.arange, self.sizes))
        self.cuts = np.array(cuts)

    def level(self, subs):
        """The level of the one configuration whose sub-layers are the
        index arrays subs."""
        import numpy as np

        bits = tuple(np.packbits(np.bincount(s, minlength=n) > 0)[None] for s, n in zip(subs, self.sizes))
        return bits, np.array([list(map(len, subs))])

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
            n, (aoff, aidx, reach) = self.sizes[i], self.csr[ref, i]
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

    def picks(self, parts) -> list[tuple]:
        """Per configuration `rows` of each (level, rows) in parts, in turn,
        the ascending indices of the points of each of its sub-layers, as
        read-only arrays."""
        import numpy as np

        lengths = np.concatenate([level[1][rows] for level, rows in parts])
        layers = []
        for i, (n, ends) in enumerate(zip(self.sizes, lengths.T.cumsum(1).tolist())):
            bits = np.concatenate([level[0][i][rows] for level, rows in parts])
            idx = np.flatnonzero(np.unpackbits(bits, axis=1, count=n).view(bool)) % n
            idx.flags.writeable = False
            layers.append([idx[lo:hi] for lo, hi in zip([0, *ends], ends)])
        return list(zip(*layers))


@dataclass(frozen=True)
class DecompositionSequence:
    """A filtering sequence: one exponent vector per pass, odd passes left
    to right, even passes right to left."""

    vectors: tuple[tuple[Fraction, ...], ...]
    class_sizes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True, eq=False)
class CoveringClass:
    """A stable sequence and its class: picks[i] holds the ascending indices
    (an array or a tuple) of the class's points in layer i of the
    configuration `source`."""

    sequence: DecompositionSequence
    picks: tuple
    source: LayeredConfig = field(repr=False)

    @functools.cached_property
    def config(self) -> LayeredConfig:
        """The class's points as a configuration, built on first use."""
        return self.source.restrict(self.picks)

    def __eq__(self, other) -> bool:  # picks compare as index lists, arrays or tuples
        same = isinstance(other, CoveringClass) and (self.sequence, self.source) == (other.sequence, other.source)
        return same and list(map(list, self.picks)) == list(map(list, other.picks))


def _is_stable(old_size: int, new_size: int, n: int, eps: Fraction) -> bool:
    """Whether a step from old_size to new_size (both >= 1) is stable:
    new >= old n^-eps, that is new^den n^num >= old^den for eps = num/den."""
    num, den = eps.numerator, eps.denominator
    # math.log2 of an int is within 2^-50 (|log2 x| + 1) of the truth, and
    # each float conversion, product or difference adds a relative 2^-53;
    # so the margin num log2 n - den log2(old/new) is within 2^-48 (num
    # (log2 n + 1) + den (log2 old + log2 new + 2)) of the true one, and its
    # sign decides outside 8 times that.  Inside, the integers decide, at a
    # cost that grows with den
    log_n, log_old, log_new = math.log2(n), math.log2(old_size), math.log2(new_size)
    margin = num * log_n - den * (log_old - log_new)
    if abs(margin) > 2**-45 * (num * (log_n + 1) + den * (log_old + log_new + 2)):
        return margin > 0
    return new_size**den * n**num >= old_size**den


def stable_covering(config: LayeredConfig, eps) -> list[CoveringClass]:
    """The set of maximal unstable-then-stable filtering sequences.

    Starting from the full configuration, repeatedly apply the richness
    filter with alternating parity.  A step is stable when the product-set
    size drops by a factor smaller than n^eps.  Sequences stop at their
    first stable step; every chain of the input lies in exactly one
    returned class, and no sequence is longer than (k+1)/eps + 1.  The
    search runs on the configuration's adjacency.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    n = max((len(layer) for layer in config.layers), default=0)
    if n == 0:
        return []
    import numpy as np

    # the filter reads each distinct cutoff once; its class takes the index
    # of the cutoff's last repeat, as a degree's search in all cutoffs does,
    # and a whole layer keeps index 0
    cuts, last = richness_thresholds(n, eps)
    filtering, last = _Filtering(config, cuts), np.array(last)
    expo = {m: m * eps for m in [0, *last.tolist()]}  # class index -> exponent
    max_len = math.floor((config.k + 1) / eps) + 1

    # one BFS depth at a time: its sequences share one parity, so one
    # expand filters all of them
    found, done, nodes = [], [], [((), (), math.prod(map(len, config.layers)))]  # (prefix, sizes, size)
    level, parity = filtering.level(filtering.whole), 1
    while nodes:
        node, vectors, kids = filtering.expand(level, parity)
        vectors = last[vectors]
        vectors[:, 0 if parity else -1] = 0
        stable, keep, queued = [], [], []
        for j, (p, vec, lens) in enumerate(zip(node.tolist(), vectors.tolist(), kids[1].tolist())):
            prefix, sizes, size = nodes[p]
            child, new_size = prefix + (tuple(vec),), math.prod(lens)
            if _is_stable(size, new_size, n, eps):
                stable.append(j)
                found.append((child, sizes + (new_size,)))
            elif len(child) > max_len:
                raise AssertionError("unstable sequence exceeded the guaranteed length bound")
            else:
                keep.append(j)
                queued.append((child, sizes + (new_size,), new_size))
        done += [(kids, stable)] if stable else []
        nodes, parity = queued, 1 - parity
        level = tuple(b[keep] for b in kids[0]), kids[1][keep]
    found = sorted(zip(found, filtering.picks(done) if done else []), key=lambda item: item[0][0])  # m*eps rises
    return [
        CoveringClass(DecompositionSequence(tuple(tuple(map(expo.__getitem__, v)) for v in child), sizes), p, config)
        for (child, sizes), p in found
    ]
