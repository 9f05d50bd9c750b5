"""Richness classes and the stable covering decomposition.

A point is r-rich with respect to a reference layer and a distance when its
sphere of that radius contains at least r reference points.  This module
provides the rich-point selectors, dyadic richness classes, the two-sided
richness filter over a layered configuration, and the recursive covering by
stable filtering sequences whose classes jointly contain every chain.

Richness thresholds are absolute integers internally; the exponent form
n^a is presentation only, with n the maximum layer size of the original
configuration.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .geometry import DistanceSpec, Point
from .layered import Layer, LayeredConfig, _pair_lists


def degree_vector(target: Layer, reference: Layer, d2, spec: DistanceSpec) -> list[int]:
    """Number of reference points at the given distance from each target point."""
    return [len(nb) for nb in _pair_lists(target.points, reference.points, d2, spec)]


def rich_points(target: Layer, reference: Layer, d2, r: int, spec: DistanceSpec) -> Layer:
    """The sub-layer of target points with at least r reference neighbors."""
    if r < 1:
        raise ValueError("richness threshold must be >= 1")
    degs = degree_vector(target, reference, d2, spec)
    pts = tuple(p for p, d in zip(target.points, degs) if d >= r)
    return Layer(pts, target.label)


@dataclass(frozen=True)
class RichnessClass:
    """Points whose richness lies in [lo, hi); exponent labels the class
    when it comes from an exponent grid, else None."""

    lo: int
    hi: int
    points: tuple[Point, ...]
    exponent: Fraction | None = None


def dyadic_partition(target: Layer, reference: Layer, d2, spec: DistanceSpec) -> list[RichnessClass]:
    """Disjoint classes with richness in [2^i, 2^(i+1)).

    Together the classes cover exactly the target points with at least one
    reference neighbor.
    """
    degs = degree_vector(target, reference, d2, spec)
    buckets: dict[int, list[Point]] = {}
    for p, d in zip(target.points, degs):
        if d >= 1:
            buckets.setdefault(d.bit_length() - 1, []).append(p)
    return [
        RichnessClass(1 << i, 1 << (i + 1), tuple(buckets[i]))
        for i in sorted(buckets)
    ]


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


def exponent_grid(eps: Fraction) -> list[Fraction]:
    eps = Fraction(eps)
    return [i * eps for i in range(math.floor(1 / eps) + 1)]


def richness_filter(
    parity: int,
    config: LayeredConfig,
    exponents: tuple,
    eps,
    n: int | None = None,
) -> LayeredConfig:
    """One filtering pass over the layers by richness class.

    parity=1 keeps layer 1 whole and filters left to right: layer i keeps
    the points whose richness with respect to the already-filtered layer
    i-1 (at the (i-1)-th distance) lies in [n^e_i, n^(e_i+eps)) for the
    i-th exponent e_i.  parity=0 is the mirrored right-to-left pass.
    Output layers are subsets of the input layers.
    """
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    if parity == 0:
        return richness_filter(1, config.reversed(), tuple(exponents)[::-1], eps, n).reversed()
    eps = Fraction(eps)
    k = config.k
    if len(exponents) != k + 1:
        raise ValueError(f"exponents must have {k + 1} entries")
    if n is None:
        n = max((len(layer) for layer in config.layers), default=0)
    cuts = richness_thresholds(n, eps)
    idx = []
    for a in exponents:
        a = Fraction(a)
        q = a / eps
        if q.denominator != 1 or not 0 <= a <= 1:
            raise ValueError(f"exponent entry {a} is not a multiple of eps in [0,1]")
        idx.append(int(q))
    spec, layers = config.spec, config.layers
    out = [layers[0]]
    for i in range(1, k + 1):
        lo, hi = cuts[idx[i]], cuts[idx[i] + 1]
        degs = degree_vector(layers[i], out[i - 1], spec.delta2[i - 1], spec)
        pts = tuple(p for p, d in zip(layers[i].points, degs) if lo <= d < hi)
        out.append(Layer(pts, layers[i].label))
    return LayeredConfig(tuple(out), spec)


@dataclass(frozen=True)
class DecompositionSequence:
    """A filtering sequence: one exponent vector per pass, odd passes left
    to right, even passes right to left."""

    vectors: tuple[tuple[Fraction, ...], ...]
    stable_at_last: bool
    class_sizes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class CoveringClass:
    sequence: DecompositionSequence
    config: LayeredConfig


def _product_size(layers) -> int:
    size = 1
    for layer in layers:
        size *= len(layer)
    return size


def _nonempty_children(config: LayeredConfig, parity: int, cuts):
    """All (exponent indices, filtered layers) with every filtered layer nonempty.

    Branches by the realized richness class at each stage, so only exponent
    vectors with nonempty classes are produced; the unused slot (first layer
    for parity 1, last for parity 0) is pinned to index 0.  Parity 0 is the
    parity-1 pass over the reversed configuration, read back in reverse.
    """
    if parity == 0:
        return [
            (idx[::-1], filt[::-1]) for idx, filt in _nonempty_children(config.reversed(), 1, cuts)
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


def _class_index(cuts, degree: int) -> int:
    m = bisect_right(cuts, degree) - 1
    if not 0 <= m < len(cuts) - 1:
        raise AssertionError(f"degree {degree} outside threshold range {cuts}")
    return m


def stable_covering(config: LayeredConfig, eps) -> list[CoveringClass]:
    """The set of maximal unstable-then-stable filtering sequences.

    Starting from the full configuration, repeatedly apply the richness
    filter with alternating parity.  A step is stable when the product-set
    size drops by a factor smaller than n^eps.  Sequences stop at their
    first stable step; every chain of the input lies in at least one
    returned class, and no sequence is longer than (k+1)/eps + 1.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    n = max((len(layer) for layer in config.layers), default=0)
    if n == 0:
        return []
    cuts = richness_thresholds(n, eps)
    k = config.k
    p_num, p_den = eps.numerator, eps.denominator
    max_len = math.floor((k + 1) / eps) + 1

    def is_stable(old_size: int, new_size: int) -> bool:
        # new >= old * n^(-eps)  <=>  new^den * n^num >= old^den
        return new_size**p_den * n**p_num >= old_size**p_den

    results: list[CoveringClass] = []
    queue = deque()
    queue.append(((), tuple(config.layers), _product_size(config.layers), ()))
    while queue:
        prefix, layers, size, sizes = queue.popleft()
        step = len(prefix) + 1
        parity = step % 2
        for idx_vec, filt in _nonempty_children(LayeredConfig(layers, config.spec), parity, cuts):
            new_size = _product_size(filt)
            exp_vec = tuple(m * eps for m in idx_vec)
            child = prefix + (exp_vec,)
            child_sizes = sizes + (new_size,)
            if is_stable(size, new_size):
                seq = DecompositionSequence(child, True, child_sizes)
                results.append(CoveringClass(seq, LayeredConfig(filt, config.spec)))
            else:
                if len(child) > max_len:
                    raise AssertionError(
                        "unstable sequence exceeded the guaranteed length bound"
                    )
                queue.append((child, filt, new_size, child_sizes))
    results.sort(key=lambda cc: cc.sequence.vectors)
    return results


@dataclass(frozen=True)
class RichnessBoundReport:
    entries: tuple[tuple[int, int, int], ...]  # (r, class size, incidences into class)
    total_incidences: int
    tightest: Fraction


def check_richness_bound(P: Layer, Q: Layer, d2, spec: DistanceSpec) -> RichnessBoundReport:
    """Verify r * |r-rich points of Q| <= incidences(P, rich subset) <= total.

    This is a counting identity: each r-rich point of Q contributes at
    least r incidences with P.  A violation indicates a bug, not data.
    """
    degs = degree_vector(Q, P, d2, spec)
    total = sum(degs)
    realized = sorted({d for d in degs if d >= 1})
    entries = []
    tightest = Fraction(0)
    for r in realized:
        members = [d for d in degs if d >= r]
        size = len(members)
        inc = sum(members)
        if not (r * size <= inc <= total):
            raise RuntimeError(
                f"richness bound violated at r={r}: {r}*{size} vs {inc} vs {total}"
            )
        entries.append((r, size, inc))
        if inc:
            tightest = max(tightest, Fraction(r * size, inc))
    return RichnessBoundReport(tuple(entries), total, tightest)
