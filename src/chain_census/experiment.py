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
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import constructions as cons
from .layered import (
    LayeredConfig,
    build_adjacency,
    count_chains,
    count_tree_embeddings,
    count_walks,
    enumerate_chains,
)
from .richness import check_richness_bound, stable_covering


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

    def residuals(self) -> list[float]:
        """ln(chains) minus the fitted line, for the successful rows."""
        if self.fit is None:
            return []
        return [
            math.log(r.chains) - (self.fit.intercept + self.fit.slope * math.log(r.n))
            for r in self.rows
            if r.status == "ok" and r.chains
        ]


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
    others."""

    build: Callable
    files: str | None
    certs: dict[str, Callable]
    note: Callable | None = None
    exponent: Callable | None = None
    floor_only: bool = False
    count: Callable = _chains
    reads: tuple[str, ...] = ()


REGISTRY = {
    "planar-chain": Construction(
        lambda p: cons.gen_planar_chain(p.k, p.delta2 or cons.default_delta2(p.k), p.n, p.eps, seed=p.seed),
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
        lambda p: cons.gen_3d_even(p.k, p.delta2 or [1.0] * p.k, p.n),
        "manifest",
        {"closed-form": lambda r, p: (p.n ** (p.k // 2 + 1), "3d even count = n^(k/2+1)")},
        exponent=lambda k: Fraction(k, 2) + 1,
        reads=("delta2",),
    ),
    "3d-odd-regular": Construction(
        lambda p: cons.gen_3d_odd_regular(p.k, p.n),
        "manifest",
        {"floor": lambda r, p: (r.floor, "count >= |core|*(min_degree-k)^k")},
        note=lambda r: f"min_degree {r.min_degree} floor {r.floor}",
    ),
    "3d-odd-sphere": Construction(
        lambda p: cons.gen_3d_odd_sphere(p.k, p.n),
        "manifest",
        {"floor": lambda r, p: (r.floor, "count >= n^((k-1)/2) * sphere incidences")},
        note=lambda r: f"sphere_incidences {r.sphere_incidences} floor {r.floor}",
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
            adj = build_adjacency(cfg)
            chains = count_chains(cfg, adjacency=adj)
            walks = count_walks(cfg, adjacency=adj)
            inc = adj.total_edges()
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


def write_scatter_svg(report: ExperimentReport, path) -> None:
    """A small self-contained log-log scatter of (n, chains) with the fit line."""
    pts = [(math.log(r.n), math.log(r.chains)) for r in report.rows if r.status == "ok" and r.chains]
    w, h, pad = 480, 360, 40
    if not pts:
        body = ['<text x="20" y="30">no data</text>']
    else:
        xs, ys = zip(*pts)
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        spanx = (x1 - x0) or 1.0
        spany = (y1 - y0) or 1.0

        def sx(x):
            return pad + (x - x0) / spanx * (w - 2 * pad)

        def sy(y):
            return h - pad - (y - y0) / spany * (h - 2 * pad)

        body = [
            f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" y2="{h - pad}" stroke="black"/>',
            f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h - pad}" stroke="black"/>',
        ]
        for x, y in pts:
            body.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="steelblue"/>')
        if report.fit:
            ya = report.fit.intercept + report.fit.slope * x0
            yb = report.fit.intercept + report.fit.slope * x1
            body.append(
                f'<line x1="{sx(x0):.1f}" y1="{sy(ya):.1f}" x2="{sx(x1):.1f}" y2="{sy(yb):.1f}" '
                'stroke="firebrick" stroke-dasharray="4 2"/>'
            )
            body.append(
                f'<text x="{pad}" y="{pad - 10}" font-size="12">slope {report.fit.slope:.3f}'
                f" (r2 {report.fit.r2:.4f})</text>"
            )
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">'
        + "".join(body)
        + "</svg>"
    )
    with open(path, "w") as fh:
        fh.write(svg + "\n")


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
    and no sequence may exceed the guaranteed length."""
    classes = stable_covering(config, eps)
    want = enumerate_chains(config)
    got = set()
    for cc in classes:
        got |= enumerate_chains(cc.config)
    max_len = math.floor((config.k + 1) / Fraction(eps)) + 1
    lengths_ok = all(len(cc.sequence) <= max_len for cc in classes)
    passed = got == want and lengths_ok
    return VerifyResult(
        passed,
        (len(got), max((len(cc.sequence) for cc in classes), default=0)),
        (len(want), max_len),
        f"{len(classes)} covering classes",
    )


def verify_richness(P, Q, d2, spec) -> VerifyResult:
    try:
        report = check_richness_bound(P, Q, d2, spec)
    except RuntimeError as exc:
        return VerifyResult(False, None, 1.0, str(exc))
    return VerifyResult(
        True,
        float(report.tightest),
        1.0,
        f"identity holds for {len(report.entries)} realized richness values",
    )
