"""Experiment sweeps, exponent fitting and claim verification.

``REGISTRY`` holds every construction once: how to build it, the
certificates it supports and its theoretical exponent; the CLI, the
sweeps and the verifiers all read it.  An experiment generates one chain
construction at several sizes, counts chains, walks and adjacency
incidences, fits a log-log slope and compares it to the theoretical
exponent.  CSV output is byte-deterministic for a given (construction,
parameters, seed); wall-clock seconds live in the report object and are
appended to the CSV only on request, since timings cannot be
deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import constructions as cons
from .layered import LayeredConfig, count_chains, count_chains_and_walks, count_tree_embeddings
from .richness import stable_covering


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r2: float
    used: int
    excluded: int


def fit_exponent(rows) -> FitResult:
    """Ordinary least squares of ln(count) against ln(n).

    Rows with nonpositive counts are excluded (and reported in the result);
    at least 3 usable rows are required.
    """
    rows = list(rows)
    usable = [(n, c) for n, c in rows if c and c > 0]
    excluded = len(rows) - len(usable)
    if len(usable) < 3:
        raise ValueError(f"need at least 3 rows with positive counts, have {len(usable)}")
    xs = [math.log(n) for n, _ in usable]
    ys = [math.log(c) for _, c in usable]
    m = len(xs)
    mx = sum(xs) / m
    my = sum(ys) / m
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0:
        raise ValueError("all sizes are equal; slope undefined")
    slope = sxy / sxx
    intercept = my - slope * mx
    syy = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 if syy == 0 else (sxy * sxy) / (sxx * syy)
    return FitResult(slope, intercept, r2, m, excluded)


@dataclass
class ExperimentRow:
    construction: str
    k: int
    n: int
    chains: int | None
    walks: int | None
    incidences: int | None
    seconds: float
    status: str = "ok"


@dataclass
class ExperimentReport:
    construction: str
    k: int
    rows: list[ExperimentRow] = field(default_factory=list)
    fit: FitResult | None = None
    theory_exponent: Fraction | None = None
    slope_tol: float = 0.2
    verdict: str = "SKIPPED"
    notice: str = ""


def _chains(res) -> int:
    return count_chains(getattr(res, "config", res))


class Construction(NamedTuple):
    """One construction.  ``build`` maps parameters (k, n, l, d, delta2,
    variant, seed, eps) to the generator's result, which ``count``
    measures; ``files`` is "manifest" for chains, a tree's point-file mode,
    or None when ``generate`` does not write it; ``note`` is the line
    ``generate`` logs.  Each certificate maps (result, parameters) to
    (expected, detail), or to None where the claim does not hold there.
    ``exponent`` maps k to the theoretical exponent, only a lower bound
    when ``floor_only``.  ``reads`` names the parameters among l, d,
    delta2 and variant that ``build`` uses; ``generate`` refuses the
    others.  ``dim`` is the dimension of its points, unless it reads d."""

    build: Callable
    files: str | None
    certs: dict[str, Callable]
    note: Callable | None = None
    exponent: Callable | None = None
    floor_only: bool = False
    count: Callable = _chains
    reads: tuple[str, ...] = ()
    dim: int = 2


REGISTRY = {
    "planar-chain": Construction(
        lambda p: cons.gen_planar_chain(p.k, p.delta2, p.n, p.eps, p.seed),
        "manifest",
        {"closed-form": lambda r, p: (p.n * p.n, "planar k=2 count = n^2") if p.k == 2 else None,
         "floor": lambda r, p: (p.n ** ((p.k + 1) // 3 + 1), "count >= n^(floor((k+1)/3)+1)")},
        exponent=lambda k: Fraction((k + 1) // 3 + 1),
        reads=("delta2",),
    ),
    "planar-k1": Construction(
        lambda p: cons.gen_planar_k1mod3(p.k, p.n, p.eps, seed=p.seed),
        "manifest",
        {"floor": lambda r, p: (p.n ** ((p.k - 1) // 3) * r.preserved_incidences,
                                "count >= n^((k-1)/3) * preserved incidences")},
        note=lambda r: f"preserved_incidences {r.preserved_incidences}",
        exponent=lambda k: Fraction(k - 1, 3) + 1,
        floor_only=True,
    ),
    "3d-even": Construction(
        lambda p: cons.gen_3d_even(p.k, p.delta2, p.n),
        "manifest",
        {"closed-form": lambda r, p: (p.n ** (p.k // 2 + 1), "3d even count = n^(k/2+1)")},
        exponent=lambda k: Fraction(k, 2) + 1,
        reads=("delta2",),
        dim=3,
    ),
    "3d-odd-regular": Construction(
        lambda p: cons.gen_3d_odd_regular(p.k, p.n),
        "manifest",
        {"floor": lambda r, p: (r.floor, "count >= |core|*(min_degree-k)^k")},
        note=lambda r: f"min_degree {r.min_degree} floor {r.floor}",
        dim=3,
    ),
    "3d-odd-sphere": Construction(
        lambda p: cons.gen_3d_odd_sphere(p.k, p.n),
        "manifest",
        {"floor": lambda r, p: (r.floor, "count >= n^((k-1)/2) * sphere incidences")},
        note=lambda r: f"sphere_incidences {r.sphere_incidences} floor {r.floor}",
        dim=3,
    ),
    "orthogonal": Construction(
        lambda p: cons.gen_orthogonal_circles(p.d, p.k, p.n),
        "manifest",
        {"closed-form": lambda r, p: (r.closed_form, "alternating tuple formula")},
        note=lambda r: f"closed_form {r.closed_form}",
        exponent=lambda k: Fraction(k + 1),
        reads=("d",),
    ),
    "star": Construction(
        lambda p: cons.gen_star(p.l, p.n),
        "exact",
        {"closed-form": lambda r, p: (r.closed_form, "star count = (n/l)^l")},
        count=lambda r: count_tree_embeddings(r.layers, r.tree, r.spec),
        reads=("l",),
    ),
    "star-paths": Construction(
        lambda p: cons.gen_star_of_paths(p.l, p.n, p.variant, seed=p.seed),
        "float",
        {"floor": lambda r, p: (r.floor, f"{r.variant} floor")},
        note=lambda r: f"measured {r.count} floor {r.floor}",
        count=lambda r: r.count,
        reads=("l", "variant"),
    ),
    "split": Construction(
        lambda p: cons.split_and_translate((g := cons.gen_unit_rich_grid(p.n).points), g, 1, p.eps, p.seed),
        None,
        {"floor": lambda r, p: (
            r.floor, f"preserved >= E/(2*ceil(2.2*{r.spacing}/eps)^2), diameter bound verified on return"
        )},
        count=lambda r: r.preserved_incidences,
    ),
}


def _entry(construction: str) -> Construction:
    if construction not in REGISTRY:
        raise ValueError(f"unknown construction {construction!r}; choose from {', '.join(REGISTRY)}")
    return REGISTRY[construction]


def _params(k: int, n: int, eps: float, seed: int) -> SimpleNamespace:
    """Library defaults for the parameters only `generate` exposes; the arm
    count l of a tree construction is k."""
    return SimpleNamespace(k=k, n=n, l=k, d=4, delta2=None, variant="joints-fixed", seed=seed, eps=eps)


def run_experiment(
    construction: str,
    k: int,
    n_values,
    seed: int = 0,
    eps: float = 0.25,
    slope_tol: float = 0.2,
) -> ExperimentReport:
    """Generate the chain construction at each size and count its chains,
    walks and adjacency edges on the configuration's adjacency (its
    certificate's, where one ran).  A size that fails becomes an error
    row; the fit and verdict come from the rows that succeed."""
    entry = _entry(construction)
    if entry.files != "manifest":
        raise ValueError(f"{construction!r} is not a chain construction")
    n_values = sorted(n_values)
    if len(n_values) < 3:
        report = ExperimentReport(construction, k, notice="fit skipped: fewer than 3 sizes")
    else:
        report = ExperimentReport(construction, k)
    report.slope_tol = slope_tol
    report.theory_exponent = entry.exponent(k) if entry.exponent else None
    for n in n_values:
        t0 = time.perf_counter()
        try:
            res = entry.build(_params(k, n, eps, seed))
            cfg = getattr(res, "config", res)
            chains, walks = count_chains_and_walks(cfg)
            inc = cfg.adjacency.total_edges()
            row = ExperimentRow(
                construction, k, n, chains, walks, inc, time.perf_counter() - t0
            )
        except Exception as exc:  # propagate per row, keep the sweep alive
            row = ExperimentRow(
                construction, k, n, None, None, None, time.perf_counter() - t0, f"error: {exc}"
            )
        report.rows.append(row)
    good = [(r.n, r.chains) for r in report.rows if r.status == "ok"]
    if len(good) >= 3:
        try:
            report.fit = fit_exponent(good)
        except ValueError as exc:
            report.notice = f"fit skipped: {exc}"
    elif not report.notice:
        report.notice = "fit skipped: fewer than 3 successful rows"
    if report.fit and report.theory_exponent is not None:
        gap = report.fit.slope - float(report.theory_exponent)
        if entry.floor_only:
            report.verdict = "PASS" if gap >= -slope_tol else "FAIL"
        else:
            report.verdict = "PASS" if abs(gap) <= slope_tol else "FAIL"
    return report


def report_csv(report: ExperimentReport, timings: bool = False) -> str:
    cols = "construction,k,n,chains,walks,incidences"
    if timings:
        cols += ",seconds"
    lines = [cols]
    for r in report.rows:
        cells = [
            r.construction,
            str(r.k),
            str(r.n),
            "" if r.chains is None else str(r.chains),
            "" if r.walks is None else str(r.walks),
            "" if r.incidences is None else str(r.incidences),
        ]
        if timings:
            cells.append(f"{r.seconds:.6f}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class VerifyResult:
    passed: bool
    computed: object
    expected: object
    detail: str

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _certify(claim: str, construction: str, k: int, n: int, eps: float, seed: int) -> VerifyResult:
    entry, params = _entry(construction), _params(k, n, eps, seed)
    if claim not in entry.certs:
        raise ValueError(f"no {claim} registered for {construction!r}")
    res = entry.build(params)
    cert = entry.certs[claim](res, params)
    if cert is None:
        raise ValueError(f"no {claim} registered for {construction!r} at k={k}")
    got, (want, detail) = entry.count(res), cert
    return VerifyResult(got == want if claim == "closed-form" else got >= want, got, want, detail)


def verify_closed_form(construction: str, k: int, n: int, eps: float = 0.25, seed: int = 0) -> VerifyResult:
    """Exact-count certificates: the measured count must equal the formula."""
    return _certify("closed-form", construction, k, n, eps, seed)


def verify_floor(construction: str, k: int, n: int, eps: float = 0.25, seed: int = 0) -> VerifyResult:
    """Inequality certificates: the measured count must dominate the floor."""
    return _certify("floor", construction, k, n, eps, seed)


def verify_covering(config: LayeredConfig, eps) -> VerifyResult:
    """The union of the covering classes' chains must equal the chain set,
    and no sequence may exceed the guaranteed length.

    Certified by counting, not enumeration: each class names distinct
    points of the input layer at each position (its picks), so a class's
    chains are the input's; every two classes hold disjoint point sets at
    some position, so no chain lies in two; and the class chain counts,
    taken on the input's adjacency restricted to each class, sum to the
    input's count.
    """
    classes = stable_covering(config, eps)
    sizes = list(map(len, config.layers))
    # each class's distinct indices into its input layer; those past it are dropped and refuse the class
    picks = [[sorted(j for j in set(map(int, pk)) if 0 <= j < n) for pk, n in zip(cc.picks, sizes)] for cc in classes]
    inside = all(
        len(cc.picks) == len(sizes) and list(map(len, pk)) == list(map(len, cc.picks)) for cc, pk in zip(classes, picks)
    )
    sets = [list(map(set, pk)) for pk in picks]
    disjoint = all(any(s.isdisjoint(t) for s, t in zip(x, y)) for x, y in combinations(sets, 2))
    want = count_chains(config)
    got = sum(count_chains(config.restrict(pk)) for pk in picks)
    max_len = math.floor((config.k + 1) / Fraction(eps)) + 1
    longest = max((len(cc.sequence) for cc in classes), default=0)
    return VerifyResult(
        inside and disjoint and got == want and longest <= max_len,
        (got, longest),
        (want, max_len),
        f"{len(classes)} covering classes",
    )
