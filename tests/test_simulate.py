"""Simulation harness: generation, metrics, summaries, theorem checks."""

import numpy as np
import pytest

from mcd.errors import ConfigurationError, UndefinedMetricError
from mcd.grid import Grid, ScaleLadder, WindowSpec
from mcd.simulate import (
    Metrics,
    SimConfig,
    auc,
    roc_curve,
    run_experiment,
    sensitivity_specificity,
    simulate_grid,
    theorem_checks,
)
from mcd.stats import ModelSpec, stat_field
from mcd.threshold import neighborhood_variability
from oracles import window_offset_set


def small_config(**overrides):
    base = dict(dims=(30, 30), family="binomial", shape="disc", disc_radius=6.0,
                null_param=0.2, alt_param=0.5, trials=50, replicates=3, seed=42)
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    def test_alternative_must_exceed_null(self):
        with pytest.raises(ConfigurationError):
            small_config(alt_param=0.2)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            small_config(methods=("mcd", "bogus"))

    @pytest.mark.parametrize("key", ["fdr_alpha", "fdr_lambda"])
    @pytest.mark.parametrize("value", [0.0, 1.0, 1.5, float("nan")])
    def test_fdr_knobs_validated(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            small_config(methods=("mcd",), **{key: value})

    def test_binomial_rates_validated(self):
        with pytest.raises(ConfigurationError):
            small_config(null_param=0.0, alt_param=0.3)


class TestSimulateGrid:
    def test_determinism(self):
        cfg = small_config()
        g1, t1 = simulate_grid(cfg, 5)
        g2, t2 = simulate_grid(cfg, 5)
        np.testing.assert_array_equal(g1.values, g2.values)
        np.testing.assert_array_equal(t1, t2)

    def test_replicates_differ(self):
        cfg = small_config()
        g1, _ = simulate_grid(cfg, 0)
        g2, _ = simulate_grid(cfg, 1)
        assert (g1.values != g2.values).any()

    def test_background_grand_mean(self):
        cfg = SimConfig(dims=(100, 100), family="binomial", shape="lshape",
                        null_param=0.2, alt_param=0.25, trials=100, replicates=2, seed=9)
        grid, truth = simulate_grid(cfg, 0)
        bg = grid.values[~truth]
        assert bg.mean() == pytest.approx(20.0, abs=0.1)

    def test_signal_cells_elevated(self):
        cfg = small_config(alt_param=0.8)
        grid, truth = simulate_grid(cfg, 0)
        assert grid.values[truth].mean() > grid.values[~truth].mean() + 10

    def test_poisson_and_normal_families(self):
        gp, _ = simulate_grid(small_config(family="poisson", null_param=2.0, alt_param=6.0), 0)
        assert gp.is_integer()
        gn, tn = simulate_grid(
            small_config(family="normal", null_param=0.0, alt_param=2.0, sigma=1.0), 0
        )
        assert not gn.is_integer()
        assert gn.values[tn].mean() > 1.0


class TestMetrics:
    def test_perfect_and_empty_detection(self):
        truth = np.zeros((10, 10), dtype=bool)
        truth[2:5, 2:5] = True
        perfect = sensitivity_specificity(truth, truth)
        assert (perfect.sensitivity, perfect.specificity) == (1.0, 1.0)
        empty = sensitivity_specificity(np.zeros_like(truth), truth)
        assert (empty.sensitivity, empty.specificity) == (0.0, 1.0)

    def test_partial_counts(self):
        truth = np.zeros((100, 100), dtype=bool)
        truth.ravel()[:400] = True
        detected = np.zeros_like(truth)
        detected.ravel()[:200] = True  # half the truth
        detected.ravel()[400:496] = True  # 96 false positives
        m = sensitivity_specificity(detected, truth)
        assert m.sensitivity == pytest.approx(0.5)
        assert m.specificity == pytest.approx(9504 / 9600)

    def test_degenerate_truth_rejected(self):
        with pytest.raises(UndefinedMetricError):
            sensitivity_specificity(np.zeros((3, 3), dtype=bool), np.zeros((3, 3), dtype=bool))
        with pytest.raises(UndefinedMetricError):
            sensitivity_specificity(np.ones((3, 3), dtype=bool), np.ones((3, 3), dtype=bool))

    def test_metrics_bounds_enforced(self):
        with pytest.raises(UndefinedMetricError):
            Metrics(sensitivity=1.2, specificity=0.5)


class TestRunExperiment:
    def test_deterministic_summaries(self):
        cfg = small_config(replicates=2, methods=("mcd", "fdr"))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for m in cfg.methods:
            assert a.methods[m].sens_mean == b.methods[m].sens_mean
            assert a.methods[m].spec_std == b.methods[m].spec_std
            np.testing.assert_array_equal(a.methods[m].prob_map, b.methods[m].prob_map)

    def test_probability_map_bounds_and_meaning(self):
        cfg = small_config(replicates=4, alt_param=0.9)
        summary = run_experiment(cfg)
        pm = summary.methods["mcd"].prob_map
        assert pm.min() >= 0.0 and pm.max() <= 1.0
        # strong signal: cluster interior should be detected in every replicate
        assert pm[summary.truth].mean() > 0.8

    def test_strong_signal_metrics(self):
        cfg = small_config(replicates=3, alt_param=0.8, methods=("mcd", "fdr", "scan"),
                           scan_radii=(3, 4, 5, 6, 7, 8), scan_reps=19)
        summary = run_experiment(cfg)
        for m in cfg.methods:
            assert summary.methods[m].sens_mean > 0.7, m
            assert summary.methods[m].spec_mean > 0.8, m

    def test_replicate_failures_annotated(self):
        # normal family with alt barely above null on a tiny grid can
        # produce a constant statistic only in contrived cases; instead
        # force an error through an invalid fdr_alpha reaching storey_fdr,
        # set past the check that SimConfig makes on construction
        cfg = small_config(methods=("fdr",), replicates=2)
        object.__setattr__(cfg, "fdr_alpha", 2.0)
        with pytest.raises(ConfigurationError, match="replicate 0"):
            run_experiment(cfg)

    def test_minimum_replicates(self):
        with pytest.raises(ConfigurationError, match="replicates must be >= 2, got 1"):
            run_experiment(small_config(replicates=1))


class TestRocCurve:
    def test_perfect_separation_passes_through_0_1(self):
        truth = np.zeros((20, 20), dtype=bool)
        truth[5:10, 5:10] = True
        t = np.where(truth, 10.0, 0.0)
        pts = roc_curve(t, truth, points=21)
        assert any(np.isclose(fpr, 0.0) and np.isclose(sens, 1.0) for fpr, sens in pts)
        assert auc(pts) == pytest.approx(1.0)

    def test_independent_statistic_gives_half_area(self):
        rng = np.random.default_rng(419)
        truth = np.zeros((100, 100), dtype=bool)
        truth[rng.random((100, 100)) < 0.3] = True
        t = rng.normal(size=(100, 100))
        pts = roc_curve(t, truth, points=201)
        assert auc(pts) == pytest.approx(0.5, abs=0.05)

    def test_monotone_and_anchored(self):
        rng = np.random.default_rng(421)
        truth = rng.random((15, 15)) < 0.4
        t = rng.normal(size=(15, 15)) + truth
        pts = roc_curve(t, truth, points=31)
        assert pts[0, 0] == 0.0 and pts[-1, 0] == 1.0
        assert np.all(np.diff(pts[:, 0]) >= 0)
        assert np.all(np.diff(pts[:, 1]) >= -1e-12)

    def test_points_validated(self):
        with pytest.raises(Exception):
            roc_curve(np.ones((3, 3)), np.eye(3, dtype=bool), points=1)


class TestTheorem1:
    def test_ordering_holds_with_strong_signal(self):
        report = theorem_checks(delta=3.0, dims=(40, 40), shape="disc", radius=9.0,
                                seed=1, reps=20)
        assert report.ordered.mean() >= 0.95
        ave_n, ave_b, ave_s = report.ave_stat
        assert ave_n < ave_b < ave_s

    def test_partition_counts_consistent(self):
        report = theorem_checks(delta=1.0, dims=(30, 30), shape="disc", radius=7.0,
                                seed=2, reps=5)
        assert report.n_noise + report.n_boundary + report.n_signal == 900
        assert 0.0 < report.n_boundary / 900 < 0.5

    def test_negative_delta_rejected(self):
        with pytest.raises(ConfigurationError):
            theorem_checks(delta=-1.0, dims=(20, 20), shape="disc", radius=5.0, reps=2)

    def test_zero_delta_runs_at_chance(self):
        # without signal the three class averages are exchangeable, so the
        # strict ordering holds ~1/6 of the time, far from the >=95% regime
        report = theorem_checks(delta=0.0, dims=(30, 30), shape="disc", radius=7.0,
                                seed=11, reps=60)
        assert 0.0 <= report.ordered.mean() < 0.6

    def test_degenerate_partition_rejected(self):
        # on a 20x20 grid the y-shape's arms are all boundary: no signal interior
        with pytest.raises(ConfigurationError, match="degenerate partition"):
            theorem_checks(delta=1.0, dims=(20, 20), shape="yshape", reps=2)


class TestTheorem2:
    def test_boundary_variability_dominates(self):
        report = theorem_checks(delta=2.0, dims=(40, 40), shape="disc", radius=9.0,
                                seed=3, reps=20)
        assert report.dominant.mean() >= 0.95
        assert report.ave_var_boundary > report.ave_var_rest

    def test_vtilde_matches_noncentral_expectation(self):
        report = theorem_checks(delta=1.5, dims=(50, 50), shape="disc", radius=12.0,
                                seed=4, reps=200)
        se = 4.0 * np.sqrt(2.0 / (report.n_boundary * report.replicates))  # rough scale
        assert report.vtilde_boundary == pytest.approx(report.vtilde_expected, abs=10 * se)

    def test_zero_delta_no_dominance(self):
        report = theorem_checks(delta=0.0, dims=(30, 30), shape="disc", radius=7.0,
                                seed=13, reps=100)
        assert 0.25 < report.dominant.mean() < 0.75
        assert report.vtilde_expected == pytest.approx(4.0)

    def test_single_k2_cell_closed_form(self):
        # 3x3 grid, two signal cells adjacent to the center: the center is
        # a type k=2 boundary cell; E[4 V(center)] = 4 + 2 d^2 - 4 d^2 / 5
        delta = 1.0
        truth = np.zeros((3, 3), dtype=bool)
        truth[0, 1] = truth[1, 0] = True
        reps = 4000
        vals = np.zeros(reps)
        model = ModelSpec("normal", sigma=1.0)
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence((907, rep)))
            y = rng.normal(truth * delta, 1.0)
            vals[rep] = 4.0 * neighborhood_variability(Grid(y), model).values[1, 1]
        expected = 4.0 + 2.0 * delta**2 - 4.0 * delta**2 / 5.0
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - expected) <= 3.0 * se


def test_theorem_ladder_is_cross_shaped():
    # the theorem setting aggregates the pixel plus its 4-neighbors at the
    # second scale: x_2 for an interior pixel sums exactly 5 cells
    ladder = ScaleLadder((WindowSpec("square", 0), WindowSpec("circle", 1)))
    assert len(window_offset_set(ladder.windows[1])) == 5
    values = np.zeros((5, 5))
    values[2, 2] = 1.0
    t = stat_field(Grid(values), ModelSpec("normal", sigma=1.0), ladder)
    assert t.values.shape == (5, 5)
