"""Command-line interface.

One verb per concept: generate, count, count-tree, incidences, rich,
decompose, experiment, verify.  Logs go to stderr; data (counts, CSV,
point files, reports) to stdout or files.  Every subcommand exits nonzero
on a failed verification.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from fractions import Fraction

from . import constructions as cons
from .experiment import (
    CONSTRUCTIONS,
    report_csv,
    run_experiment,
    verify_closed_form,
    verify_covering,
    verify_floor,
    verify_richness,
    write_scatter_svg,
)
from .geometry import DistanceSpec
from .io import read_manifest, read_points, read_tree, write_manifest, write_points
from .layered import (
    Layer,
    build_adjacency,
    count_chains,
    count_incidences,
    count_tree_embeddings,
    count_walks,
    make_layer,
)
from .richness import rich_points, stable_covering

log = logging.getLogger("chain_census")


def _parse_mode(text: str) -> float | None:
    if text == "exact":
        return None
    if text.startswith("tol:"):
        return float(text[4:])
    raise argparse.ArgumentTypeError("mode must be 'exact' or 'tol:<eps>'")


def _parse_d2(text: str):
    if "/" in text:
        return Fraction(text)
    try:
        return int(text)
    except ValueError:
        return float(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="chain-census")
    ap.add_argument("--seed", type=int, default=0, help="u64 seed for randomized steps")
    ap.add_argument("--eps", type=float, default=0.25, help="diameter / decomposition step")
    ap.add_argument("--mode", type=_parse_mode, default=None, help="exact or tol:<eps>")
    ap.add_argument("--out", default=None, help="output path (file or directory)")
    ap.add_argument("-v", "--verbose", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a construction as manifest + point files")
    g.add_argument("--construction", required=True)
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--n", type=int, default=10)
    g.add_argument("--l", type=int, default=1)
    g.add_argument("--d", type=int, default=4)
    g.add_argument("--variant", default="joints-fixed")
    g.add_argument("--delta2", default=None, help="comma list of squared distances")

    c = sub.add_parser("count", help="count chains (and walks) of a manifest config")
    c.add_argument("--manifest", required=True)
    c.add_argument("--walks", action="store_true", help="also print the walk count")

    t = sub.add_parser("count-tree", help="count labeled-tree embeddings")
    t.add_argument("--tree", required=True)
    t.add_argument("--layer", action="append", default=[], help="one point file per tree vertex")
    t.add_argument("--set", dest="single_set", default=None, help="single point file for all vertices")

    i = sub.add_parser("incidences", help="pairs of two point sets at one distance")
    i.add_argument("--a", required=True)
    i.add_argument("--b", required=True)
    i.add_argument("--d2", required=True)

    r = sub.add_parser("rich", help="points of a set with at least r neighbors in a reference set")
    r.add_argument("--target", required=True)
    r.add_argument("--ref", required=True)
    r.add_argument("--d2", required=True)
    r.add_argument("--r", type=int, required=True)

    d = sub.add_parser("decompose", help="stable covering classes of a manifest config")
    d.add_argument("--manifest", required=True)

    e = sub.add_parser("experiment", help="scaling sweep with exponent fit")
    e.add_argument("--construction", required=True, choices=CONSTRUCTIONS)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--n-list", required=True, help="comma list of sizes")
    e.add_argument("--slope-tol", type=float, default=0.2)
    e.add_argument("--svg", default=None, help="also write a log-log scatter SVG")
    e.add_argument("--timings", action="store_true", help="append a wall-seconds CSV column")

    v = sub.add_parser("verify", help="run a certified check")
    v.add_argument("--claim", required=True, choices=["closed-form", "floor", "covering", "richness"])
    v.add_argument("--construction", default=None)
    v.add_argument("--k", type=int, default=2)
    v.add_argument("--n", type=int, default=10)
    v.add_argument("--manifest", default=None)
    v.add_argument("--a", default=None)
    v.add_argument("--b", default=None)
    v.add_argument("--d2", default=None)
    return ap


def _cmd_generate(args) -> int:
    name = args.construction
    k, n, seed, eps = args.k, args.n, args.seed, args.eps
    delta2 = [_parse_d2(t) for t in args.delta2.split(",")] if args.delta2 else None
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    tree = None
    extras = []
    if name == "planar-chain":
        cfg = cons.gen_planar_chain(k, delta2 or cons.default_delta2(k), n, eps, seed=seed)
    elif name == "planar-k1":
        res = cons.gen_planar_k1mod3(k, n, eps, seed=seed)
        cfg = res.config
        extras.append(f"preserved_incidences {res.preserved_incidences}")
    elif name == "3d-even":
        cfg = cons.gen_3d_even(k, delta2 or [1.0] * k, n)
    elif name == "3d-odd-regular":
        res = cons.gen_3d_odd_regular(k, n)
        cfg = res.config
        extras.append(f"min_degree {res.min_degree} floor {res.floor}")
    elif name == "3d-odd-sphere":
        res = cons.gen_3d_odd_sphere(k, n)
        cfg = res.config
        extras.append(f"sphere_incidences {res.sphere_incidences} floor {res.floor}")
    elif name == "orthogonal":
        res = cons.gen_orthogonal_circles(args.d, k, n)
        cfg = res.config
        extras.append(f"closed_form {res.closed_form}")
    elif name == "star":
        res = cons.gen_star(args.l, n)
        from .io import write_tree

        mpath = os.path.join(out, "star.tree")
        write_tree(mpath, res.tree, "exact")
        for idx, layer in enumerate(res.layers):
            write_points(os.path.join(out, f"star-layer{idx + 1}.pts"), layer.points, "exact")
        print(mpath)
        return 0
    elif name == "star-paths":
        res = cons.gen_star_of_paths(args.l, n, args.variant, seed=seed)
        from .io import write_tree

        mpath = os.path.join(out, "star-paths.tree")
        write_tree(mpath, res.tree, "float")
        for idx, layer in enumerate(res.layers):
            write_points(os.path.join(out, f"star-paths-layer{idx + 1}.pts"), layer.points, "float")
        log.info("measured %d floor %d", res.count, res.floor)
        print(mpath)
        return 0
    else:
        raise SystemExit(f"unknown construction {name!r}")
    mpath = os.path.join(out, "manifest.txt")
    write_manifest(mpath, cfg, out)
    for line in extras:
        log.info("%s", line)
    print(mpath)
    return 0


def _layer_from_file(path) -> tuple[Layer, str]:
    pts, mode = read_points(path)
    return make_layer(pts), mode


def _cmd_count(args) -> int:
    cfg = read_manifest(args.manifest)
    adj = build_adjacency(cfg)
    chains = count_chains(cfg, adjacency=adj)
    if args.walks:
        print(f"chains {chains}")
        print(f"walks {count_walks(cfg, adjacency=adj)}")
    else:
        print(chains)
    return 0


def _cmd_count_tree(args) -> int:
    if bool(args.layer) == bool(args.single_set):
        raise SystemExit("give either --set or one --layer per tree vertex")
    if args.single_set:
        layer, mode = _layer_from_file(args.single_set)
        layers: object = layer
    else:
        loaded = [_layer_from_file(p) for p in args.layer]
        layers = [l for l, _ in loaded]
        mode = loaded[0][1]
    tree = read_tree(args.tree, exact=(mode == "exact"))
    eps = args.mode if args.mode is not None else (None if mode == "exact" else 1e-9)
    spec = DistanceSpec((), eps)
    print(count_tree_embeddings(layers, tree, spec))
    return 0


def _cmd_incidences(args) -> int:
    la, mode_a = _layer_from_file(args.a)
    lb, mode_b = _layer_from_file(args.b)
    d2 = _parse_d2(args.d2)
    eps = args.mode if args.mode is not None else (None if mode_a == "exact" else 1e-9)
    print(count_incidences(la, lb, d2, DistanceSpec((), eps)))
    return 0


def _cmd_rich(args) -> int:
    lt, mode_t = _layer_from_file(args.target)
    lr, _ = _layer_from_file(args.ref)
    d2 = _parse_d2(args.d2)
    eps = args.mode if args.mode is not None else (None if mode_t == "exact" else 1e-9)
    sub = rich_points(lt, lr, d2, args.r, DistanceSpec((), eps))
    print(len(sub.points))
    for p in sub.points:
        print(" ".join(str(c) for c in p.coords))
    return 0


def _cmd_decompose(args) -> int:
    cfg = read_manifest(args.manifest)
    classes = stable_covering(cfg, Fraction(args.eps))
    print(f"classes {len(classes)}")
    for cc in classes:
        steps = ";".join(",".join(str(a) for a in vec) for vec in cc.sequence.vectors)
        sizes = ",".join(str(s) for s in cc.sequence.class_sizes)
        print(f"sequence {steps} sizes {sizes}")
    return 0


def _cmd_experiment(args) -> int:
    ns = [int(t) for t in args.n_list.split(",")]
    report = run_experiment(
        args.construction,
        args.k,
        ns,
        seed=args.seed,
        eps=args.eps,
        slope_tol=args.slope_tol,
    )
    csv = report_csv(report, timings=args.timings)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    if args.svg:
        write_scatter_svg(report, args.svg)
    if report.fit:
        log.info(
            "slope %.4f theory %s verdict %s",
            report.fit.slope,
            report.theory_exponent,
            report.verdict,
        )
    if report.notice:
        log.info("%s", report.notice)
    return 0 if report.verdict != "FAIL" else 1


def _cmd_verify(args) -> int:
    if args.claim == "closed-form":
        res = verify_closed_form(args.construction, args.k, args.n, args.eps, args.seed)
    elif args.claim == "floor":
        res = verify_floor(args.construction, args.k, args.n, args.eps, args.seed)
    elif args.claim == "covering":
        if not args.manifest:
            raise SystemExit("covering verification needs --manifest")
        cfg = read_manifest(args.manifest)
        res = verify_covering(cfg, Fraction(args.eps))
    else:
        if not (args.a and args.b and args.d2):
            raise SystemExit("richness verification needs --a, --b and --d2")
        la, mode_a = _layer_from_file(args.a)
        lb, _ = _layer_from_file(args.b)
        eps = args.mode if args.mode is not None else (None if mode_a == "exact" else 1e-9)
        res = verify_richness(lb, la, _parse_d2(args.d2), DistanceSpec((), eps))
    print(f"{res.verdict} computed={res.computed} expected={res.expected} ({res.detail})")
    return 0 if res.passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    handlers = {
        "generate": _cmd_generate,
        "count": _cmd_count,
        "count-tree": _cmd_count_tree,
        "incidences": _cmd_incidences,
        "rich": _cmd_rich,
        "decompose": _cmd_decompose,
        "experiment": _cmd_experiment,
        "verify": _cmd_verify,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
