"""Smoke tests of the benchmark itself, at tiny sizes, untraced and traced.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import re
import shutil
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

cli = run.import_cli()

# Self-time metrics that together partition the traced wall time.
SELF_TIME_PARTS = (
    "cli.self_s",
    "geometry.self_s",
    "layered.self_s",
    "richness.self_s",
    "constructions.self_s",
    "io.read.self_s",
    "io.write.self_s",
    "experiment.self_s",
)


class SmokeTest(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
        self.addCleanup(shutil.rmtree, self.workdir, True)

    def runner(self, name: str) -> run.Runner:
        return run.Runner(cli, name, 5, self.workdir, smoke=True)

    def test_metric_names_and_units(self):
        units = [run.metric_units("end_to_end"), run.metric_units("per_layer")]
        self.assertFalse(units[0].keys() & units[1].keys())
        for name, unit in (units[0] | units[1]).items():
            self.assertRegex(name, NAME)
            self.assertRegex(unit, UNIT)

    def test_untraced_passes_the_gate(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                metrics, verbs, passes = run.end_to_end(self.runner(name), 0, [0.25])
                self.assertEqual([p.failed for p in passes], [0])
                self.assertEqual(list(metrics), list(run.metric_units("end_to_end")))
                self.assertTrue(all(v > 0 for v in metrics.values()), metrics)
                for verb in verbs:
                    self.assertRegex(verb, NAME)

    def test_traced_pass_unwraps_and_partitions_wall_time(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                before = tracing.function_bindings()
                metrics, passes = run.per_layer(self.runner(name), 0)
                self.assertEqual(tracing.function_bindings(), before)
                self.assertEqual(sum(p.failed for p in passes), 0)
                self.assertEqual(list(metrics), list(run.metric_units("per_layer")))
                # One traced pass, so the parts must add up to its wall time.
                parts = sum(metrics[key] for key in SELF_TIME_PARTS)
                self.assertAlmostEqual(parts, metrics["trace.wall_s"], delta=1e-6)
                self.assertGreater(metrics["geometry.matches_distance.calls"], 0)

    def test_counts_seen_by_the_trace(self):
        metrics, _ = run.per_layer(self.runner("exact-census"), 0)
        self.assertEqual(metrics["layered.build_adjacency.calls"], 5)
        self.assertEqual(metrics["richness.covering.classes"], 8)
        self.assertAlmostEqual(metrics["layered.walk_chain_ratio"], (2592 + 49920) / (1800 + 39744))
        self.assertGreater(metrics["layered.adjacency.hit_ratio"], 0)
        self.assertGreater(metrics["io.bytes_read"], 0)

    def test_tracer_unwraps_after_a_failing_step(self):
        runner = self.runner("exact-census")
        runner.steps = [dataclasses.replace(
            runner.steps[1], argv=("count", "--manifest", str(Path(self.workdir) / "missing")))]
        before = tracing.function_bindings()
        with contextlib.redirect_stderr(io.StringIO()):
            res, _ = run.traced_pass(runner, timed=True)
        self.assertEqual(res.failed, 1)
        self.assertEqual(tracing.function_bindings(), before)

    def test_wrong_output_fails_the_run(self):
        wrong = dict(workloads.SIZES["smoke"], star_count=126)
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(workloads.SIZES, smoke=wrong), \
                mock.patch.object(run, "SETUP_SAMPLES", 1), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run.main(["--workload", "trees", "--seed", "1", "--seconds", "0",
                             "--trace", "0", "--smoke"])
        self.assertEqual(code, 1)
        self.assertIn('"failed": 1', out.getvalue().splitlines()[-1])
        self.assertIn("expected '126', got '125'", err.getvalue())

    def test_shuffle_is_a_seeded_permutation(self):
        path = Path(self.workdir) / "a.pts"
        text = "dim 1 count 5 mode exact\n1\n2\n3\n4\n5\n"
        orders = []
        for seed in (1, 1, 2):
            path.write_text(text)
            workloads.shuffle_point_files(self.workdir, seed)
            header, *lines = path.read_text().splitlines()
            self.assertEqual(header, "dim 1 count 5 mode exact")
            self.assertEqual(sorted(lines), ["1", "2", "3", "4", "5"])
            orders.append(lines)
        self.assertEqual(orders[0], orders[1])
        self.assertNotEqual(orders[0], orders[2])


if __name__ == "__main__":
    unittest.main()
