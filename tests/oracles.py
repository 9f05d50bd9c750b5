"""Independent counting oracles for the tests.

The library counts chains and tree embeddings by dynamic programming with
a Möbius correction; these oracles count them one at a time instead, by
depth-first backtracking with a visited set (the library's former
counters) and by full product enumeration.
"""

from __future__ import annotations

from itertools import product

from chain_census.geometry import matches_distance
from chain_census.layered import Layer, LayeredConfig, build_adjacency


def _classes(layers):
    ids: dict[tuple, int] = {}
    return [[ids.setdefault(p.coords, len(ids)) for p in layer.points] for layer in layers], len(ids)


def backtrack_chains(config: LayeredConfig) -> int:
    """Chains by backtracking over the adjacency, one chain at a time."""
    classes, n_classes = _classes(config.layers)
    if config.k == 0:
        return len(set(classes[0]))
    neighbors = build_adjacency(config).neighbors
    k = config.k
    visited = bytearray(n_classes)

    def rec(i: int, p: int) -> int:
        if i == k:
            return 1
        total = 0
        nxt = classes[i + 1]
        for q in neighbors[i][p]:
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
