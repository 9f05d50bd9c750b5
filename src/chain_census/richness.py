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
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .geometry import DistanceSpec
from .layered import BipartiteAdjacency, Layer, LayeredConfig, _pair_lists, build_adjacency


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


class _Filtering:
    """The layers of a configuration as index arrays over one adjacency.

    A sub-layer is the ascending indices of its points in the original
    layer.  The degree of every point of layer i into a sub-layer of a
    neighbouring layer is one bincount over the edges of that layer pair
    whose reference end the sub-layer holds; no point pair is tested again.
    """

    def __init__(self, config: LayeredConfig, cuts, adjacency=None):
        import numpy as np

        self.config = config
        self.edges = [
            (np.repeat(np.arange(len(offsets) - 1), np.diff(offsets)), indices)
            for offsets, indices in (adjacency or build_adjacency(config, certify=False)).pairs
        ]
        self.whole = tuple(np.arange(len(layer)) for layer in config.layers)
        self.cuts = np.array(cuts)

    def children(self, subs, parity: int):
        """(class indices, sub-layers) for every pass that leaves every
        layer nonempty.

        parity=1 keeps the first layer whole and filters left to right:
        layer i keeps its points whose degree into the filtered layer i-1
        (at the (i-1)-th distance) lies in the chosen class.  parity=0 is
        the mirror, right to left.  The whole layer's class index is 0.
        """
        import numpy as np

        cuts, step = self.cuts, 1 if parity else -1
        order = list(range(len(subs)))[::step]
        partials = [((0,), (subs[order[0]],))]
        for ref, i in zip(order, order[1:]):
            a, b = self.edges[min(i, ref)]
            tgt, src = (b, a) if parity else (a, b)
            mask = np.zeros(len(self.whole[ref]), bool)
            nxt = []
            for ms, filt in partials:
                mask[:] = False
                mask[filt[-1]] = True
                deg = np.bincount(tgt[mask[src]], minlength=len(self.whole[i]))[subs[i]]
                cls = np.searchsorted(cuts, deg, "right") - 1  # -1 for degree 0
                counts = np.bincount(cls + 1)[1:]  # points per class
                if len(counts) >= len(cuts):
                    raise AssertionError(f"degree {deg.max()} outside threshold range {cuts.tolist()}")
                found = np.flatnonzero(counts).tolist()
                nxt += [(ms + (m,), filt + (subs[i][cls == m],)) for m in found]
            partials = nxt
        return [(ms[::step], filt[::step]) for ms, filt in partials]

    def config_of(self, subs) -> LayeredConfig:
        pick = [Layer(tuple(map(ly.points.__getitem__, s.tolist())), ly.label) for ly, s in zip(self.config.layers, subs)]
        return LayeredConfig(tuple(pick), self.config.spec)


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
    filtering = _Filtering(config, richness_thresholds(n, eps), adjacency)
    p_num, p_den = eps.numerator, eps.denominator
    max_len = math.floor((config.k + 1) / eps) + 1

    def is_stable(old_size: int, new_size: int) -> bool:
        # new >= old * n^(-eps)  <=>  new^den * n^num >= old^den
        return new_size**p_den * n**p_num >= old_size**p_den

    found = []
    queue = deque([((), filtering.whole, math.prod(map(len, config.layers)), ())])
    while queue:
        prefix, subs, size, sizes = queue.popleft()
        parity = (len(prefix) + 1) % 2
        for idx_vec, filt in filtering.children(subs, parity):
            new_size = math.prod(map(len, filt))
            child = prefix + (tuple(m * eps for m in idx_vec),)
            child_sizes = sizes + (new_size,)
            if is_stable(size, new_size):
                found.append((child, child_sizes, filt))
            else:
                if len(child) > max_len:
                    raise AssertionError(
                        "unstable sequence exceeded the guaranteed length bound"
                    )
                queue.append((child, filt, new_size, child_sizes))
    found.sort(key=lambda item: item[0])
    return [
        CoveringClass(DecompositionSequence(child, child_sizes), filtering.config_of(filt))
        for child, child_sizes, filt in found
    ]
