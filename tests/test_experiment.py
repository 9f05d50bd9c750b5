import math
from dataclasses import replace
from fractions import Fraction

import pytest

from chain_census import experiment, layered
from chain_census.experiment import (
    fit_exponent,
    report_csv,
    run_experiment,
    verify_closed_form,
    verify_covering,
    verify_floor,
)
from chain_census.constructions import gen_3d_odd_regular
from chain_census.layered import count_chains_and_walks, make_config
from chain_census.richness import stable_covering


class TestFitExponent:
    def test_exact_square_power(self):
        fit = fit_exponent([(n, n * n) for n in (4, 8, 16, 32)])
        assert abs(fit.slope - 2.0) <= 1e-9
        assert fit.r2 == pytest.approx(1.0)

    def test_constant_counts(self):
        fit = fit_exponent([(n, 7) for n in (4, 8, 16)])
        assert fit.slope == pytest.approx(0.0)

    def test_cubic_with_constant(self):
        fit = fit_exponent([(n, 2 * n**3) for n in (4, 8, 16, 32)])
        assert fit.slope == pytest.approx(3.0)
        assert fit.intercept == pytest.approx(math.log(2))

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            fit_exponent([(4, 16), (8, 64)])

    def test_zero_counts_excluded(self):
        fit = fit_exponent([(4, 16), (8, 64), (16, 256), (32, 0)])
        assert fit.excluded == 1
        assert fit.slope == pytest.approx(2.0)


class TestRunExperiment:
    def test_3d_even_sharp_slope(self):
        rep = run_experiment("3d-even", 4, [8, 16, 32], seed=1)
        assert rep.verdict == "PASS"
        assert abs(rep.fit.slope - 3.0) <= 0.05

    def test_single_n_skips_fit(self):
        rep = run_experiment("planar-chain", 2, [10], seed=1)
        assert rep.fit is None
        assert "fit skipped" in rep.notice
        assert rep.verdict == "SKIPPED"

    def test_csv_deterministic(self):
        a = report_csv(run_experiment("planar-chain", 2, [8, 16, 32], seed=4))
        b = report_csv(run_experiment("planar-chain", 2, [8, 16, 32], seed=4))
        assert a == b
        assert a.splitlines()[0] == "construction,k,n,chains,walks,incidences"

    def test_generator_failure_reported_per_row(self):
        rep = run_experiment("orthogonal", 1, [7, 8, 16, 32], seed=0)
        bad = [r for r in rep.rows if r.status != "ok"]
        assert len(bad) == 1 and bad[0].n == 7
        assert rep.fit is not None  # three good rows remain

    def test_planar_k1_slope_floor(self):
        rep = run_experiment("planar-k1", 4, [16, 32, 64, 128], seed=0)
        assert rep.fit.slope >= 2.0 - 0.2
        assert rep.verdict == "PASS"  # one-sided for floor-type constructions


class TestVerify:
    def test_closed_form_planar(self):
        res = verify_closed_form("planar-chain", 2, 50)
        assert res.passed and res.computed == 2500

    def test_closed_form_orthogonal(self):
        res = verify_closed_form("orthogonal", 3, 12)
        assert res.passed

    def test_closed_form_star(self):
        res = verify_closed_form("star", 3, 12)
        assert res.passed and res.computed == 64

    def test_floor_split(self):
        res = verify_floor("split", 0, 100, eps=1.0)
        assert res.passed

    def test_floor_planar_k1(self):
        res = verify_floor("planar-k1", 4, 16)
        assert res.passed

    def test_covering(self):
        cfg = make_config([[(0, 0), (1, 1)], [(1, 0), (0, 1)], [(0, 0), (1, 1)]], (1, 1))
        res = verify_covering(cfg, "1/2")
        assert res.passed


def test_one_configuration_builds_its_adjacency_once(monkeypatch):
    calls, build = [], layered.build_adjacency
    monkeypatch.setattr(layered, "build_adjacency", lambda cfg: calls.append(cfg) or build(cfg))
    cfg = gen_3d_odd_regular(3, 64).config
    assert count_chains_and_walks(cfg) == (39744, 49920)
    assert len(stable_covering(cfg, Fraction(1, 4))) == 8
    assert verify_covering(cfg, Fraction(1, 4)).passed
    assert calls == [cfg]


class TestCoveringCertificate:
    """verify_covering must refuse a covering whose classes do not
    partition the chain set, whichever of its checks catches it."""

    def verify_edited(self, monkeypatch, edit):
        real = experiment.stable_covering
        monkeypatch.setattr(experiment, "stable_covering", lambda *a, **kw: edit(real(*a, **kw)))
        return verify_covering(gen_3d_odd_regular(3, 64).config, Fraction(1, 4))

    def test_unedited_passes(self, monkeypatch):
        res = self.verify_edited(monkeypatch, lambda classes: classes)
        assert res.passed and res.computed == (39744, 3)

    def test_dropped_class_fails(self, monkeypatch):
        res = self.verify_edited(monkeypatch, lambda classes: classes[1:])
        assert res.passed is False

    def test_duplicated_class_fails(self, monkeypatch):
        res = self.verify_edited(monkeypatch, lambda classes: classes + classes[:1])
        assert res.passed is False

    def test_point_outside_input_fails(self, monkeypatch):
        # an index past the input layer names no point, so it adds no chain:
        # only the subset check sees it
        def add_point(classes):
            first = classes[0]
            picks = ((*first.picks[0], 10**6), *first.picks[1:])
            return [replace(first, picks=picks), *classes[1:]]

        res = self.verify_edited(monkeypatch, add_point)
        assert res.passed is False
        assert res.computed == (39744, 3)

    def test_repeated_point_fails(self, monkeypatch):
        # a class naming one point twice counts its chains once: only the subset check sees it
        def repeat_point(classes):
            first = classes[0]
            return [replace(first, picks=((*first.picks[0], first.picks[0][0]), *first.picks[1:])), *classes[1:]]

        res = self.verify_edited(monkeypatch, repeat_point)
        assert res.passed is False
        assert res.computed == (39744, 3)

    def test_overlapping_classes_fail(self, monkeypatch):
        # two copies of a class holding one of two chains: the counts sum to
        # the chain count, so only the disjointness check sees the overlap
        cfg = make_config([[(0, 0)], [(1, 0), (0, 1)]], (1,))
        first = experiment.stable_covering(cfg, Fraction(1, 2))[0]
        half = replace(first, picks=((0,), (0,)))
        monkeypatch.setattr(experiment, "stable_covering", lambda *a, **kw: [half, half])
        res = verify_covering(cfg, Fraction(1, 2))
        assert res.passed is False
        assert res.computed[0] == res.expected[0] == 2
