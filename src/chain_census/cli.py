"""Command-line interface.

One verb per concept: generate, count, count-tree, incidences, rich,
decompose, experiment, verify.  Logs go to stderr; data (counts, CSV,
point files, reports) to stdout or files.  Every subcommand exits nonzero
on a failed verification.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import logging
import math
import os
import sys
from fractions import Fraction

from .geometry import TOLERANCE, CertificationError, DistanceSpec
from .io import _parse_exact, read_coords, read_manifest, read_tree, write_manifest, write_points, write_tree
from .layered import (
    Layer,
    count_chains,
    count_chains_and_walks,
    count_incidences,
    count_tree_embeddings,
)
from .richness import rich_points, stable_covering

# last, as numpy comes with it (through constructions): a module compiled
# once numpy is resident (with no bytecode cache) leaves the compiler's
# freed heap, up to 3.5 MB, resident in the process
from .experiment import (
    REGISTRY,
    report_csv,
    run_experiment,
    verify_closed_form,
    verify_covering,
    verify_floor,
)
from .constructions import ConstructionError

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
# the most coordinates a generated layer may hold, --n times the
# dimension, and the largest --d: far more than the pair kernel, which
# tests every point pair, can count in reasonable time, far less than what
# would exhaust memory before any other check
MAX_COORDINATES = 1 << 20
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


def _parse_slope_tol(text: str) -> float:
    with contextlib.suppress(ValueError):  # float() refusing the text is the error below
        if 0 <= (tol := float(text)) < math.inf:
            return tol
    raise argparse.ArgumentTypeError(f"slope tolerance must be a finite number >= 0, got {text!r}")


def _parse_eps(text: str) -> Fraction:
    """--eps as the number its text names: 0.1 is 1/10, not the double nearest it."""
    with contextlib.suppress(ValueError, ZeroDivisionError):  # Fraction refusing the text is the error below
        return Fraction(text)
    raise argparse.ArgumentTypeError(f"eps must be a finite number, got {text!r}")


def _parse_d2(text: str, to_float: bool = False):
    """A squared distance: p/q or an integer as in exact point files, else
    a float.  ValueError for text that is none of them, or a value that is
    not finite and positive, or on a float path (`to_float`) above the
    largest float."""
    if "/" in text:
        d2 = _parse_exact(text)
    else:
        d2 = float(text)  # its ValueError names text that is no number
        with contextlib.suppress(ValueError):  # an integer stays one
            d2 = int(text)
    if not 0 < d2 < (sys.float_info.max if to_float else math.inf):
        raise ValueError(f"squared distances must be {'positive' if d2 <= 0 else 'finite'}")
    return d2


class _Verb(argparse.ArgumentParser):
    """A verb's parser that records its keywords and arguments and builds
    itself, -h first, the first time argparse dispatches to it, so that a
    process builds only the verbs it runs."""

    def __init__(self, **kwargs):
        self.kwargs = kwargs
        self.todo = [(("-h", "--help"), {"action": "help", "help": "show this help message and exit"})]

    def add_argument(self, *args, **kwargs):
        self.todo.append((args, kwargs))

    def parse_known_args(self, args=None, namespace=None):
        if self.todo:  # not built yet
            super().__init__(add_help=False, **self.kwargs)
            for a, kw in self.todo:
                super().add_argument(*a, **kw)
            self.todo = None
        return super().parse_known_args(args, namespace)


@functools.cache  # one parser a process, built by the first main call
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
    e.add_argument("--slope-tol", type=_parse_slope_tol, default=0.2)
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
    # the constructions that read --delta2 take square roots in floats
    args.delta2 = [_parse_d2(t, True) for t in args.delta2.split(",")] if args.delta2 else None
    args.eps = float(args.eps)
    dim = args.d if "d" in entry.reads else entry.dim
    if max(dim, args.n * dim) > MAX_COORDINATES:
        raise ValueError(f"--n {args.n} in dimension {dim} exceeds {MAX_COORDINATES} coordinates per layer")
    res = entry.build(args)
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
    the first file: exact, or TOLERANCE for a float file.  Under
    --mode exact float coordinates become Fractions, losslessly, so no
    float decides a count."""
    loaded = [read_coords(path) for path in paths]
    mode = loaded[0][1]
    if args.mode == "exact":
        eps = None
        loaded = [(c.exact() if m == "float" else c, m) for c, m in loaded]
    elif args.mode is None:
        eps = None if mode == "exact" else TOLERANCE
    else:
        eps = args.mode
    layers = [layer for layer, _ in loaded]
    sized = [(path, *ly.dims) for path, ly in zip(paths, layers) if ly.dims]
    for path, dim in sized:  # no two files differ in dimension
        if dim != sized[0][1]:
            raise ValueError(f"{path}: dim {dim}, {sized[0][0]} has dim {sized[0][1]}")
    return layers, DistanceSpec((), eps), mode


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
        raise ValueError("give either --set or one --layer per tree vertex")
    layers, spec, mode = _read_layers(args, *([args.single_set] if args.single_set else args.layer))
    tree = read_tree(args.tree, exact=(mode == "exact"))
    print(count_tree_embeddings(layers[0] if args.single_set else layers, tree, spec))
    return 0


def _cmd_incidences(args) -> int:
    (la, lb), spec, _ = _read_layers(args, args.a, args.b)
    print(count_incidences(la, lb, _parse_d2(args.d2, spec.eps is not None), spec))
    return 0


def _cmd_rich(args) -> int:
    (lt, lr), spec, _ = _read_layers(args, args.target, args.ref)
    sub = rich_points(lt, lr, _parse_d2(args.d2, spec.eps is not None), args.r, spec)
    print(len(sub.points))
    for p in sub.points:
        print(" ".join(str(c) for c in p.coords))
    return 0


def _cmd_decompose(args) -> int:
    cfg = read_manifest(args.manifest)
    classes = stable_covering(cfg, args.eps)
    print(f"classes {len(classes)}")
    for cc in classes:
        steps = ";".join(",".join(map(str, vec)) for vec in cc.sequence.vectors)
        sizes = ",".join(map(str, cc.sequence.class_sizes))
        print(f"sequence {steps} sizes {sizes}")
    return 0


def _cmd_experiment(args) -> int:
    ns = [int(t) for t in args.n_list.split(",")]
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
    failed = [r for r in report.rows if r.status != "ok"]
    for r in failed:
        log.error("n=%d: %s", r.n, r.status.removeprefix("error: "))
    if report.fit:
        log.info(
            "slope %.4f theory %s verdict %s",
            report.fit.slope,
            report.theory_exponent,
            report.verdict,
        )
    if report.notice:
        log.info("%s", report.notice)
    return 1 if report.verdict == "FAIL" or len(failed) == len(report.rows) else 0


def _cmd_verify(args) -> int:
    flag = "manifest" if args.claim == "covering" else "construction"
    if not getattr(args, flag):
        raise ValueError(f"{args.claim} verification needs --{flag}")
    if args.claim == "covering":
        res = verify_covering(read_manifest(args.manifest), args.eps)
    else:
        verify = verify_closed_form if args.claim == "closed-form" else verify_floor
        res = verify(args.construction, args.k, args.n, float(args.eps), args.seed)
    print(f"{res.verdict} computed={res.computed} expected={res.expected} ({res.detail})")
    return 0 if res.passed else 1


def _parse_args(argv):
    # the parser is shared by every call, so what a call sets goes on its
    # own Namespace, never on the parser
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


@functools.cache
def _keep_freed_memory() -> None:
    """Let glibc keep freed heap memory, up to 32 MB, for the next arrays.
    By default it maps each array above 128 KB afresh and trims the heap
    top behind the smaller ones, until some large free raises both limits,
    so a count's many window temporaries cost page faults, about a third
    of a count, depending on what ran before.  A C library without
    mallopt is left as it is."""
    import ctypes

    with contextlib.suppress(AttributeError, OSError, TypeError):
        libc = ctypes.CDLL(None)
        libc.mallopt(-1, 1 << 25)  # M_TRIM_THRESHOLD
        libc.mallopt(-3, 1 << 25)  # M_MMAP_THRESHOLD, its largest value


def main(argv=None) -> int:
    args = _parse_args(argv)
    _keep_freed_memory()
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
    # a missing or malformed input file (FileFormatError is a ValueError),
    # a bad value, points in the guard band, or a construction that could
    # not be built: one error line
    except (OSError, ValueError, CertificationError, ConstructionError) as exc:
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":
    raise SystemExit(main())
