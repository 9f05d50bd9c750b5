"""chain-census benchmark: CLI workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload planar-sweep --seed 1 --seconds 40 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory, nothing is built or installed.

Each run is one client in a closed loop, in this one process with no
threads: it runs the workload's CLI steps through
``chain_census.cli.main(argv)`` one after another, each step starting when
the previous one returns, and repeats the whole workload while the next
pass still fits in ``--seconds`` (at least once).  Every step's standard
output is compared with the value the seed commit printed; a mismatch, a
nonzero exit or an exception counts as a failed step and makes the run
exit with status 1.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (importing
chain_census, numpy included, in a fresh interpreter, rescaled by the
reference loop timed in that interpreter; the median of several
sequential child interpreters, each waited for), ``wall_ref``
(all steps of one pass) and ``main_verb_ref`` (the workload's headline
verb, see ``workloads.MAIN_VERB``), each step in units of a reference
loop timed around it (see ``REFERENCE_LOOP``) and the median over
passes, and ``peak_rss_mb`` (the process's maximum resident set).  The
same times in seconds, per verb, are printed above the JSON line.

``--trace 1`` alternates untraced and traced passes and ends with one
counting pass; it reports the per-layer metrics, each time the median over
traced passes, and ``trace.overhead_ratio``, the median over pairs of the
traced over the untraced pass time, both in units of the reference loop.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
print every metric with its unit, the per-verb times and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

SETUP_SAMPLES = 7

# The speed of a shared host drifts by tens of percent over seconds to
# minutes, and a pure-Python loop slows down with it.  Step times are
# therefore also reported in units of this fixed loop ("ref"), timed
# before the first step and after every step, which cancels the drift.
REFERENCE_LOOP = 1_000_000
# The loop's time on the host where baseline.md was measured; setup_s is
# import time rescaled to a host on which the loop takes this long.
REFERENCE_S = 0.07


def reference_s() -> float:
    """Time of a fixed integer loop that does not involve chain_census."""
    t0 = perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i
    return perf_counter() - t0


def metric_units(kind: str) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics that
    BENCHMARK.json lists; baseline.md names the end-to-end metric and
    workload each per-layer metric should move."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@dataclass
class PassResult:
    wall_s: float = 0.0
    verb_s: dict = field(default_factory=dict)
    # Filled only when the pass runs with reference timing.
    wall_ref: float = 0.0
    verb_ref: dict = field(default_factory=dict)
    reference_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


class Runner:
    """Runs workload steps in this process with captured output."""

    def __init__(self, cli, name: str, seed: int, workdir: str, smoke: bool = False):
        self.cli = cli
        self.name = name
        self.seed = seed
        self.steps = workloads.build(name, workdir, seed, smoke)
        # The CLI logs to stderr through the root logger; give it a buffer
        # once, so its own basicConfig call leaves logging to us.
        self.log = io.StringIO()
        handler = logging.StreamHandler(self.log)
        handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
        root = logging.getLogger()
        root.handlers[:] = [handler]
        root.setLevel(logging.INFO)

    def run_pass(self, tracer: tracing.Tracer | None = None, reference: bool = False) -> PassResult:
        """Run every step once; with reference, also time the reference
        loop before the first step and after each step."""
        res = PassResult()
        if reference:
            res.reference_s.append(reference_s())
        for index, step in enumerate(self.steps):
            out = io.StringIO()
            self.log.seek(0)
            self.log.truncate()
            error = None
            if tracer is not None:
                tracer.install()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = self.cli.main(list(step.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                error = traceback.format_exc()
            finally:
                elapsed = perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
            res.wall_s += elapsed
            res.verb_s[step.verb] = res.verb_s.get(step.verb, 0.0) + elapsed
            if reference:
                res.reference_s.append(reference_s())
                units = elapsed / (sum(res.reference_s[-2:]) / 2)
                res.wall_ref += units
                res.verb_ref[step.verb] = res.verb_ref.get(step.verb, 0.0) + units
            res.attempted += 1
            text = out.getvalue()
            if error is None and code != 0:
                error = f"exit status {code!r}"
            if error is None and text != step.expect:
                error = "wrong output: " + first_difference(step.expect, text)
            if error is not None:
                res.failed += 1
                print(f"FAIL {self.name} step {index + 1} ({step.verb}) "
                      f"argv={' '.join(step.argv)}\n{error}\n{self.log.getvalue()}",
                      file=sys.stderr)
            elif step.shuffle_dir:
                workloads.shuffle_point_files(step.shuffle_dir, self.seed)
        return res


def first_difference(want: str, got: str) -> str:
    want_lines, got_lines = want.splitlines(), got.splitlines()
    for i in range(max(len(want_lines), len(got_lines))):
        w = want_lines[i] if i < len(want_lines) else "<missing>"
        g = got_lines[i] if i < len(got_lines) else "<missing>"
        if w != g:
            return f"line {i + 1}: expected {w!r}, got {g!r}"
    return "trailing whitespace differs"


def file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def import_probe() -> str:
    """Child program: times the import of chain_census.cli between two
    timings of the reference loop."""
    return (
        "from time import perf_counter\n"
        f"REFERENCE_LOOP = {REFERENCE_LOOP}\n"
        + inspect.getsource(reference_s)
        + "before = reference_s()\n"
        "t0 = perf_counter()\n"
        "import chain_census.cli\n"
        "elapsed = perf_counter() - t0\n"
        "print(repr(elapsed), repr(before), repr(reference_s()))\n"
    )


def measure_setup(samples: int) -> list[float]:
    """Import time of chain_census in fresh interpreters, one at a time,
    each rescaled by the reference loop timed around it in the same
    interpreter (see REFERENCE_S)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = import_probe()
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, before, after = map(float, proc.stdout.split())
        times.append(elapsed * REFERENCE_S / ((before + after) / 2))
    return times


def loop(seconds: float, body) -> list:
    """Call body() while the next call is expected to end within seconds."""
    start = perf_counter()
    results = []
    while True:
        t0 = perf_counter()
        results.append(body())
        last = perf_counter() - t0
        if perf_counter() - start + last > seconds:
            return results


def end_to_end(runner: Runner, seconds: float, setup: list[float]):
    """End-to-end metrics, plus the seconds behind them for the report."""
    passes = loop(seconds, lambda: runner.run_pass(reference=True))
    main = workloads.MAIN_VERB[runner.name]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_ref": statistics.median(p.wall_ref for p in passes),
        "main_verb_ref": statistics.median(p.verb_ref[main] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    seconds_report = {
        "reference_s": statistics.median(r for p in passes for r in p.reference_s),
        "wall_s": statistics.median(p.wall_s for p in passes),
    }
    for verb in passes[0].verb_s:
        name = f"{verb.replace('-', '_')}_s"
        seconds_report[name] = statistics.median(p.verb_s[verb] for p in passes)
    return metrics, seconds_report, passes


def traced_pass(runner: Runner, timed: bool):
    """One pass with a fresh tracer; checks every original is restored.
    A timed pass is also timed in units of the reference loop."""
    before = tracing.function_bindings()
    tracer = tracing.Tracer(timed=timed)
    res = runner.run_pass(tracer, reference=timed)
    if tracing.function_bindings() != before:
        raise RuntimeError("tracer left wrapped functions behind")
    return res, tracer


def layer_metrics(res: PassResult, tr: tracing.Tracer) -> dict:
    """Per-layer metrics of one timed traced pass (counting metrics excluded)."""
    read_s = tr.self_s("io.read_")
    return {
        "trace.wall_s": res.wall_s,
        "cli.self_s": res.wall_s - tr.top_level_s,
        "geometry.self_s": tr.self_s("geometry."),
        "geometry.separation_certificate.self_s": tr.stat("geometry.separation_certificate").self_s,
        "layered.self_s": tr.self_s("layered."),
        "layered.build_adjacency.self_s": tr.stat("layered.build_adjacency").self_s,
        "layered.build_adjacency.calls": tr.stat("layered.build_adjacency").calls,
        "layered.certify_config.total_s": tr.stat("layered.certify_config").total_s,
        "layered.count_chains.self_s": tr.stat("layered.count_chains").self_s,
        "layered.count_walks.self_s": tr.stat("layered.count_walks").self_s,
        "layered.count_tree_embeddings.self_s": tr.stat("layered.count_tree_embeddings").self_s,
        "layered.edges": tr.edges,
        "layered.walk_chain_ratio": tr.walks / tr.chains if tr.chains else 0.0,
        "richness.self_s": tr.self_s("richness."),
        "richness.degree_vector.self_s": tr.stat("richness.degree_vector").self_s,
        "richness.degree_vector.calls": tr.stat("richness.degree_vector").calls,
        "richness.stable_covering.self_s": tr.stat("richness.stable_covering").self_s,
        "richness.covering.classes": tr.covering_classes,
        "richness.covering.max_len": tr.covering_max_len,
        "constructions.self_s": tr.self_s("constructions."),
        "io.read.self_s": read_s,
        "io.write.self_s": tr.self_s("io.") - read_s,
        "io.bytes_read": file_bytes(tr.paths_read),
        "io.bytes_written": file_bytes(tr.paths_written),
        "experiment.self_s": tr.self_s("experiment."),
    }


def per_layer(runner: Runner, seconds: float):
    untraced: list[PassResult] = []
    traced: list[tuple[PassResult, tracing.Tracer]] = []

    def pair():
        # Alternate which side runs first, and time both in units of the
        # reference loop, so drift in machine speed does not read as
        # tracing overhead.
        if len(traced) % 2:
            traced.append(traced_pass(runner, timed=True))
            untraced.append(runner.run_pass(reference=True))
        else:
            untraced.append(runner.run_pass(reference=True))
            traced.append(traced_pass(runner, timed=True))

    # Leave a quarter of the time for the counting pass, which is slower.
    loop(0.75 * seconds, pair)
    per_pass = [layer_metrics(res, tr) for res, tr in traced]
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["trace.overhead_ratio"] = statistics.median(
        t.wall_ref / u.wall_ref for u, (t, _) in zip(untraced, traced)
    )
    counted, ctr = traced_pass(runner, timed=False)
    metrics["geometry.matches_distance.calls"] = ctr.stat("geometry.matches_distance").calls
    metrics["layered.adjacency.hit_ratio"] = (
        ctr.edges / ctr.pair_calls_in_adjacency if ctr.pair_calls_in_adjacency else 0.0
    )
    passes = untraced + [res for res, _ in traced] + [counted]
    return {name: metrics[name] for name in metric_units("per_layer")}, passes


def environment() -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    return ap.parse_args(argv)


def import_cli():
    if not (SRC / "chain_census" / "cli.py").is_file():
        raise SystemExit(f"error: no chain_census package under {SRC}")
    sys.path.insert(0, str(SRC))
    import chain_census.cli

    return chain_census.cli


def main(argv=None) -> int:
    args = parse_args(argv)
    # A plain single-threaded baseline: the benchmark never passes --threads.
    os.environ.pop("CHAIN_CENSUS_THREADS", None)
    cli = import_cli()
    env = environment()
    setup = [] if args.trace else measure_setup(SETUP_SAMPLES)
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        runner = Runner(cli, args.workload, args.seed, workdir, args.smoke)
        if args.trace:
            metrics, passes = per_layer(runner, args.seconds)
            units, extra = metric_units("per_layer"), {}
        else:
            metrics, extra, passes = end_to_end(runner, args.seconds, setup)
            units = metric_units("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"# workload {args.workload} seed {args.seed} passes {len(passes)} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{name} {value:.6g} s")
    print(f"fail_ratio {failed / attempted:.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
