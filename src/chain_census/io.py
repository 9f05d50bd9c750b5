"""Line-based file formats for point sets, configurations and trees.

Point files: a header ``dim <d> count <m> mode <exact|float>`` followed by
one point per line, coordinates whitespace-separated, rationals written as
``p/q`` (bare integers for whole values) and floats as shortest round-trip
decimals.  Writing then re-reading a written file reproduces it byte for
byte.

Manifests tie layers to point files::

    k 2
    dim 2
    mode exact
    delta2 1 4
    layer 1 layer1.pts
    layer 2 layer2.pts
    layer 3 layer1.pts

Layers may alias one file (repeated-layer configurations).
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import os
from fractions import Fraction
from itertools import chain

from .geometry import Point
from .layered import LabeledTree, Layer, LayeredConfig, make_config


class FileFormatError(ValueError):
    pass


def _names_file(read):
    """`read(path, ...)` with the ValueErrors of a bad file (a token that
    is no number, a repeated point, a tree that is no tree) raised as
    FileFormatErrors that name the file."""

    @functools.wraps(read)
    def wrapped(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except FileFormatError:
            raise
        except ValueError as exc:
            raise FileFormatError(f"{path}: {exc}") from exc

    return wrapped


def _format_exact(c) -> str:
    if not isinstance(c, (int, Fraction)):  # ints and Fractions print from their own parts
        c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _parse_exact(tok: str):
    if "/" in tok:
        num, _, den = tok.partition("/")
        try:
            n, d = int(num), int(den)
        except ValueError as exc:
            raise ValueError(f"bad rational {tok!r}") from exc
        if d == 0:
            raise ValueError(f"zero denominator in {tok!r}")
        return Fraction(n, d)
    try:
        return int(tok)
    except ValueError as exc:
        raise ValueError(f"bad integer {tok!r}") from exc


def write_points(path, points, mode: str, dim: int | None = None) -> None:
    """Write the points under a header of their dimension, or of `dim`
    (0 if not given) when there are none."""
    if mode not in ("exact", "float"):
        raise ValueError("mode must be 'exact' or 'float'")
    coords = [p.coords for p in points]
    if mode == "float":
        rows = (map(repr, map(float, cs)) for cs in coords)
    elif set(map(type, chain.from_iterable(coords))) <= {int, Fraction}:  # str gives their exact form
        rows = (map(str, cs) for cs in coords)
    else:
        rows = (map(_format_exact, cs) for cs in coords)
    head = f"dim {len(coords[0]) if coords else dim or 0} count {len(coords)} mode {mode}"
    with open(path, "w") as fh:
        fh.write("\n".join([head, *map(" ".join, rows)]) + "\n")


@_names_file
def read_coords(path) -> tuple[Layer, str]:
    """A point file as a layer, of the header's dimension (an empty file's
    too), and its mode; a file that repeats a point is refused.  No Point
    or Fraction is built until the layer's points or rows are read (see
    _exact_coords)."""
    with open(path) as fh:
        lines = list(filter(str.strip, fh.read().split("\n")))
    if not lines:
        raise ValueError("empty file")
    head = lines[0].split()
    if len(head) != 6 or head[0] != "dim" or head[2] != "count" or head[4] != "mode":
        raise ValueError(f"malformed header {lines[0]!r}")
    try:
        dim, count = int(head[1]), int(head[3])
    except ValueError as exc:
        raise ValueError(f"malformed header {lines[0]!r}") from exc
    mode = head[5]
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(lines) - 1 != count:
        raise ValueError(f"header says {count} points, found {len(lines) - 1}")
    rows = list(map(str.split, lines[1:]))
    layer = None
    if mode == "exact" and not set(map(len, rows)) - {dim}:
        with contextlib.suppress(ValueError):  # else the first fault, line by line, below
            layer = _exact_coords(list(chain.from_iterable(rows)), dim)
    if layer is None:
        values, parse = [], _parse_exact if mode == "exact" else float
        for i, toks in enumerate(rows, 2):
            if len(toks) != dim:
                raise ValueError(f"line {i} has {len(toks)} coords, want {dim}")
            try:
                row = list(map(parse, toks))
            except ValueError as exc:  # _parse_exact names the token
                raise ValueError(f"line {i}: {exc if mode == 'exact' else 'bad float'}") from exc
            if mode == "float" and not all(map(math.isfinite, row)):
                raise ValueError(f"line {i}: non-finite coordinate")
            values += row
        layer = Layer(rows=list(zip(*[iter(values)] * dim)), dim=dim)
    layer.validate()  # a repeated point is refused
    return layer, mode


def _exact_coords(toks: list[str], dim: int) -> Layer:
    """The layer of exact tokens, p/q as its reduced (numerator,
    denominator), an integer n as (n, 1); ValueError at a bad token."""
    if not any("/" in tok for tok in toks):  # every token a whole number: ints in one pass
        return Layer(rows=list(zip(*[iter(map(int, toks))] * dim)), dim=dim)
    parts = [tok.partition("/") for tok in toks]
    nums = [int(n) for n, _, _ in parts]
    dens = [int(d) if s else 1 for _, s, d in parts]
    if 0 in dens:
        raise ValueError
    gcds = list(map(math.gcd, nums, dens))
    if gcds.count(1) != len(gcds) or min(dens) < 0:  # to lowest terms, denominators positive
        gcds = [g if d > 0 else -g for g, d in zip(gcds, dens)]
        nums, dens = list(map(operator.floordiv, nums, gcds)), list(map(operator.floordiv, dens, gcds))
    return Layer(pairs=(nums, dens, [bool(s) for _, s, _ in parts]), dim=dim)


def read_points(path) -> tuple[list[Point], str]:
    """A point file's Points, ids 0, 1, ..., and its mode."""
    layer, mode = read_coords(path)
    return list(layer.points), mode


def write_manifest(path, config: LayeredConfig, directory=None) -> str:
    """Write the config as a manifest plus point files next to it.

    Layers with identical coordinate tuples share one file.  Returns the
    manifest path.
    """
    directory = directory or os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    mode = "exact" if config.spec.exact else "float"
    # a repeated layer is one object: its coordinates are keyed once
    distinct = {id(layer): layer for layer in config.layers}
    file_of: dict[tuple, str] = {}
    by_id: dict[int, str] = {}
    for i, layer in distinct.items():
        known = len(file_of)
        by_id[i] = fname = file_of.setdefault(tuple(layer.keys), f"layer{known + 1}.pts")
        if len(file_of) > known:
            write_points(os.path.join(directory, fname), layer.points, mode, config.dim)
    layer_files = [by_id[id(layer)] for layer in config.layers]
    lines = [f"k {config.k}", f"dim {config.dim}"]
    if config.spec.exact:
        lines.append("mode exact")
        lines.append("delta2 " + " ".join(_format_exact(d) for d in config.spec.delta2))
    else:
        lines.append(f"mode tol {config.spec.eps!r}")
        lines.append("delta2 " + " ".join(repr(float(d)) for d in config.spec.delta2))
    for i, fname in enumerate(layer_files):
        lines.append(f"layer {i + 1} {fname}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


@_names_file
def read_manifest(path) -> LayeredConfig:
    base = os.path.dirname(os.path.abspath(path))
    fields: dict[str, str] = {}
    layer_paths: dict[int, str] = {}
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln:
                continue
            key, _, rest = ln.partition(" ")
            seen = fields
            if key == "layer":
                idx_s, _, rest = rest.partition(" ")
                seen, key = layer_paths, int(idx_s)
                if not rest:
                    raise FileFormatError(f"{path}: layer {key} is missing a file path")
            elif key not in ("k", "dim", "mode", "delta2"):
                raise FileFormatError(f"{path}: unknown line {ln!r}")
            if key in seen:
                raise FileFormatError(f"{path}: repeated {ln.split()[0]} line {ln!r}")
            seen[key] = rest
    for req in ("k", "dim", "mode", "delta2"):
        if req not in fields:
            raise FileFormatError(f"{path}: missing {req!r} line")
    k = int(fields["k"])
    dim = int(fields["dim"])
    mode_toks = fields["mode"].split()
    if mode_toks[0] == "exact":
        eps = None
    elif mode_toks[0] == "tol" and len(mode_toks) == 2:
        eps = float(mode_toks[1])
    else:
        raise FileFormatError(f"{path}: bad mode line {fields['mode']!r}")
    d2_toks = fields["delta2"].split()
    if len(d2_toks) != k:
        raise FileFormatError(f"{path}: {len(d2_toks)} distances for k={k}")
    if eps is None:
        delta2 = tuple(_parse_exact(t) for t in d2_toks)
    else:
        delta2 = tuple(float(t) for t in d2_toks)
    missing = [i for i in range(1, k + 2) if i not in layer_paths]
    if missing:
        raise FileFormatError(f"{path}: missing layer(s) {missing}")
    extra = sorted(set(layer_paths) - set(range(1, k + 2)))
    if extra:
        raise FileFormatError(f"{path}: layer(s) {extra} beyond 1..{k + 1}")
    cache: dict[str, Layer] = {}  # layers aliasing one file are one layer
    layers = []
    for i in range(1, k + 2):
        fname = layer_paths[i]
        full = fname if os.path.isabs(fname) else os.path.join(base, fname)
        if full not in cache:
            layer, pmode = read_coords(full)
            want = "exact" if eps is None else "float"
            if pmode != want:
                raise FileFormatError(f"{full}: mode {pmode}, manifest wants {want}")
            if layer.dims - {dim}:  # the header's, of an empty file too
                raise FileFormatError(f"{full}: dim {min(layer.dims)}, manifest says {dim}")
            cache[full] = layer
        layers.append(cache[full])
    return make_config(layers, delta2, eps)


def write_tree(path, tree: LabeledTree, mode: str = "exact") -> None:
    lines = [f"vertices {tree.vertex_count}"]
    for a, b, d2 in tree.edges:
        val = _format_exact(d2) if mode == "exact" else repr(float(d2))
        lines.append(f"edge {a + 1} {b + 1} {val}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@_names_file
def read_tree(path, exact: bool = True) -> LabeledTree:
    vertices = None
    edges = []
    with open(path) as fh:
        for ln in fh:
            toks = ln.split()
            if not toks:
                continue
            if toks[0] == "vertices" and len(toks) == 2:
                vertices = int(toks[1])
            elif toks[0] == "edge" and len(toks) == 4:
                d2 = _parse_exact(toks[3]) if exact else float(toks[3])
                edges.append((int(toks[1]) - 1, int(toks[2]) - 1, d2))
            else:
                raise FileFormatError(f"{path}: bad line {ln.rstrip()!r}")
    if vertices is None:
        raise FileFormatError(f"{path}: missing vertices line")
    tree = LabeledTree(vertices, tuple(edges))
    tree.validate()
    return tree
