"""Command-line interface.

One verb per concept: generate, count, count-tree, incidences, rich,
decompose, experiment, verify.  Logs go to stderr; data (counts, CSV,
point files, reports) to stdout or files.  Every subcommand exits nonzero
on a failed verification.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import os
import sys
from fractions import Fraction

from .experiment import (
    REGISTRY,
    report_csv,
    run_experiment,
    verify_closed_form,
    verify_covering,
    verify_floor,
)
from .geometry import DistanceSpec, exact_point
from .io import FileFormatError, _parse_exact, read_manifest, read_points, read_tree, write_manifest, write_points, write_tree
from .layered import (
    Layer,
    count_chains,
    count_chains_and_walks,
    count_incidences,
    count_tree_embeddings,
    make_layer,
)
from .richness import rich_points, stable_covering

log = logging.getLogger("chain_census")

# generate flags that only some constructions read (Construction.reads),
# with the values used when they are not given
GENERATE_OPTIONAL = {"l": 1, "d": 4, "delta2": None, "variant": "joints-fixed"}
# the flags each verify claim reads, with their defaults
VERIFY_READS = {
    "closed-form": {"construction": None, "k": 2, "n": 10},
    "floor": {"construction": None, "k": 2, "n": 10},
    "covering": {"manifest": None},
}
# the verbs that read each global flag, with its default; the others refuse it
GLOBAL_READS = {
    "mode": (("count-tree", "incidences", "rich"), None),
    "eps": (("generate", "decompose", "experiment", "verify"), Fraction(1, 4)),
    "out": (("generate", "experiment"), None),
}


def _parse_mode(text: str) -> str | float:
    if text == "exact":
        return text
    with contextlib.suppress(ValueError):  # float() refusing the text is the error below
        if text.startswith("tol:") and 0 < (eps := float(text[4:])) < math.inf:
            return eps
    raise argparse.ArgumentTypeError("mode must be 'exact' or 'tol:<eps>' with a finite eps > 0")


def _parse_eps(text: str) -> Fraction:
    """--eps as the number its text names: 0.1 is 1/10, not the double nearest it."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"eps must be a finite number, got {text!r}") from None


def _parse_d2(text: str):
    """A squared distance: p/q or an integer as in exact point files, else
    a float.  Text that is none of them exits with one error line."""
    try:
        if "/" in text:
            return _parse_exact(text)
        try:
            return int(text)
        except ValueError:
            return float(text)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


class _Verb(argparse.ArgumentParser):
    """A verb's parser that records its arguments and adds them, after its
    -h, when argparse dispatches to it (once per parser), so that a call
    builds only the verb it runs."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, **kwargs)
        self.todo = [(("-h", "--help"), {"action": "help", "help": "show this help message and exit"})]

    def add_argument(self, *args, **kwargs):
        self.todo.append((args, kwargs))

    def parse_known_args(self, args=None, namespace=None):
        for a, kw in self.todo:
            super().add_argument(*a, **kw)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="chain-census")
    ap.add_argument("--seed", type=int, default=0, help="u64 seed for randomized steps")
    ap.add_argument("--eps", type=_parse_eps, help="diameter / decomposition step (default 0.25)")
    ap.add_argument("--mode", type=_parse_mode, help="exact or tol:<eps>; for count-tree, incidences and rich")
    ap.add_argument("--out", help="output path (file or directory)")
    ap.add_argument("-v", "--verbose", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Verb)

    g = sub.add_parser("generate", help="emit a construction as manifest + point files")
    g.add_argument(
        "--construction", required=True, choices=[n for n, c in REGISTRY.items() if c.files]
    )
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--n", type=int, default=10)
    g.add_argument("--l", type=int, help="arm count of a tree construction (default 1)")
    g.add_argument("--d", type=int, help="dimension of orthogonal (default 4)")
    g.add_argument("--variant", help="star-paths variant (default joints-fixed)")
    g.add_argument("--delta2", help="comma list of squared distances")

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
    e.add_argument(
        "--construction", required=True, choices=[n for n, c in REGISTRY.items() if c.files == "manifest"]
    )
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--n-list", required=True, help="comma list of sizes")
    e.add_argument("--slope-tol", type=float, default=0.2)
    e.add_argument("--timings", action="store_true", help="append a wall-seconds CSV column")

    v = sub.add_parser("verify", help="run a certified check")
    v.add_argument("--claim", required=True, choices=list(VERIFY_READS))
    v.add_argument("--construction", choices=list(REGISTRY), help="closed-form and floor")
    v.add_argument("--k", type=int, help="closed-form and floor (default 2)")
    v.add_argument("--n", type=int, help="closed-form and floor (default 10)")
    v.add_argument("--manifest", help="covering")
    return ap


def _cmd_generate(args) -> int:
    entry = REGISTRY[args.construction]
    try:
        args.delta2 = [_parse_d2(t) for t in args.delta2.split(",")] if args.delta2 else None
        args.eps = float(args.eps)
        res = entry.build(args)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    if entry.files == "manifest":
        mpath = os.path.join(out, "manifest.txt")
        write_manifest(mpath, getattr(res, "config", res), out)
    else:
        mpath = os.path.join(out, f"{args.construction}.tree")
        write_tree(mpath, res.tree, entry.files)
        for idx, layer in enumerate(res.layers):
            lpath = os.path.join(out, f"{args.construction}-layer{idx + 1}.pts")
            write_points(lpath, layer.points, entry.files)
    if entry.note:
        log.info("%s", entry.note(res))
    print(mpath)
    return 0


def _read_layers(args, *paths) -> tuple[list[Layer], DistanceSpec, str]:
    """Layers from point files, the spec (eps only) to compare them under,
    and the first file's mode.  The spec follows --mode when given, else
    the first file: exact, or tolerance 1e-9 for a float file.  Under
    --mode exact float coordinates become Fractions, losslessly, so no
    float decides a count."""
    loaded = [read_points(path) for path in paths]
    mode = loaded[0][1]
    if args.mode == "exact":
        eps = None
        loaded = [([exact_point(p.coords, p.id) for p in pts], m) for pts, m in loaded]
    elif args.mode is None:
        eps = None if mode == "exact" else 1e-9
    else:
        eps = args.mode
    return [make_layer(pts) for pts, _ in loaded], DistanceSpec((), eps), mode


def _cmd_count(args) -> int:
    cfg = read_manifest(args.manifest)
    if args.walks:
        chains, walks = count_chains_and_walks(cfg)
        print(f"chains {chains}")
        print(f"walks {walks}")
    else:
        print(count_chains(cfg))
    return 0


def _cmd_count_tree(args) -> int:
    if bool(args.layer) == bool(args.single_set):
        raise SystemExit("give either --set or one --layer per tree vertex")
    layers, spec, mode = _read_layers(args, *([args.single_set] if args.single_set else args.layer))
    tree = read_tree(args.tree, exact=(mode == "exact"))
    print(count_tree_embeddings(layers[0] if args.single_set else layers, tree, spec))
    return 0


def _cmd_incidences(args) -> int:
    (la, lb), spec, _ = _read_layers(args, args.a, args.b)
    print(count_incidences(la, lb, _parse_d2(args.d2), spec))
    return 0


def _cmd_rich(args) -> int:
    (lt, lr), spec, _ = _read_layers(args, args.target, args.ref)
    sub = rich_points(lt, lr, _parse_d2(args.d2), args.r, spec)
    print(len(sub.points))
    for p in sub.points:
        print(" ".join(str(c) for c in p.coords))
    return 0


def _cmd_decompose(args) -> int:
    cfg = read_manifest(args.manifest)
    classes = stable_covering(cfg, args.eps)
    print(f"classes {len(classes)}")
    for cc in classes:
        steps = ";".join(",".join(str(a) for a in vec) for vec in cc.sequence.vectors)
        sizes = ",".join(str(s) for s in cc.sequence.class_sizes)
        print(f"sequence {steps} sizes {sizes}")
    return 0


def _cmd_experiment(args) -> int:
    try:
        ns = [int(t) for t in args.n_list.split(",")]
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    report = run_experiment(
        args.construction,
        args.k,
        ns,
        seed=args.seed,
        eps=float(args.eps),
        slope_tol=args.slope_tol,
    )
    csv = report_csv(report, timings=args.timings)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
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
    if args.claim in ("closed-form", "floor"):
        if not args.construction:
            raise SystemExit(f"{args.claim} verification needs --construction")
        verify = verify_closed_form if args.claim == "closed-form" else verify_floor
        try:
            res = verify(args.construction, args.k, args.n, float(args.eps), args.seed)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    else:
        if not args.manifest:
            raise SystemExit("covering verification needs --manifest")
        cfg = read_manifest(args.manifest)
        res = verify_covering(cfg, args.eps)
    print(f"{res.verdict} computed={res.computed} expected={res.expected} ({res.detail})")
    return 0 if res.passed else 1


def _parse_args(argv):
    # apart from main so the parser is garbage before the verb runs; kept
    # alive across the verb, it made peak RSS creep from call to call
    ap = build_parser()
    args = ap.parse_args(argv)
    verb = args.command + (f" --claim {args.claim}" if args.command == "verify" else "")
    # a flag either takes effect or is refused; the flags read get defaults
    for flag, (verbs, default) in GLOBAL_READS.items():
        if args.command not in verbs and getattr(args, flag) is not None:
            ap.error(f"--{flag} has no effect on {verb}")
        if getattr(args, flag) is None:
            setattr(args, flag, default)
    if args.command == "generate":
        verb += f" --construction {args.construction}"
        known = GENERATE_OPTIONAL
        read = {f: v for f, v in known.items() if f in REGISTRY[args.construction].reads}
    elif args.command == "verify":
        known = {f: None for flags in VERIFY_READS.values() for f in flags}
        read = VERIFY_READS[args.claim]
    else:
        return args
    unread = [f"--{f}" for f in known if f not in read and getattr(args, f) is not None]
    if unread:
        ap.error(f"{', '.join(unread)} {'has' if len(unread) == 1 else 'have'} no effect on {verb}")
    for flag, default in read.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
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
    try:
        return handlers[args.command](args)
    except (OSError, FileFormatError) as exc:  # a missing or malformed input file
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":
    raise SystemExit(main())
