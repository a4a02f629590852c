"""Per-pixel testing with FDR control, and the circular scan."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import stats as sps

from mcd.baselines import (
    PValueField,
    circular_scan,
    pixel_pvalues,
    storey_fdr,
)
from mcd.baselines import _zone_llr_fields, _zone_llrs, scan_zones
from mcd.errors import ConfigurationError
from mcd.grid import Grid, WindowSpec
from mcd.shapes import gen_shape
from mcd.stats import ModelSpec, estimate_null
from oracles import (
    oracle_binom_sf,
    oracle_poisson_sf,
    oracle_storey,
    oracle_zone_llr,
)


def circle_mask(shape, center, radius):
    ii, jj = np.indices(shape)
    return (ii - center[0]) ** 2 + (jj - center[1]) ** 2 <= radius**2


class TestPixelPvalues:
    def test_binomial_tail_hand_value(self):
        y = np.full((3, 3), 20)
        n = Grid(np.full((3, 3), 100))
        p = pixel_pvalues(Grid(y), ModelSpec("binomial", trials=n), null_param=0.2)
        assert p.values[0, 0] == pytest.approx(0.5398, abs=2e-4)
        assert p.values[0, 0] == pytest.approx(oracle_binom_sf(20, 100, 0.2), rel=1e-12)

    def test_normal_at_null_mean_is_half(self):
        y = np.zeros((4, 4))
        y[0, 0] = 3.0
        p = pixel_pvalues(Grid(y), ModelSpec("normal", sigma=1.0), null_param=0.0)
        assert p.values[1, 1] == pytest.approx(0.5)
        assert p.values[0, 0] < 0.01

    def test_poisson_zero_count_full_tail(self):
        y = np.zeros((3, 3), dtype=int)
        y[1, 1] = 4
        p = pixel_pvalues(Grid(y), ModelSpec("poisson"), null_param=2.0)
        assert p.values[0, 0] == 1.0
        assert p.values[1, 1] == pytest.approx(oracle_poisson_sf(4, 2.0), rel=1e-12)

    def test_matches_oracles_on_random_grids(self):
        rng = np.random.default_rng(211)
        n = rng.integers(5, 60, size=(6, 6))
        y = rng.binomial(n, 0.3)
        p = pixel_pvalues(Grid(y), ModelSpec("binomial", trials=Grid(n)), null_param=0.3)
        expected = [[oracle_binom_sf(int(y[i, j]), int(n[i, j]), 0.3) for j in range(6)] for i in range(6)]
        np.testing.assert_allclose(p.values, expected, rtol=1e-10)

        lam = 3.7
        yp = rng.poisson(lam, size=(6, 6))
        pp = pixel_pvalues(Grid(yp), ModelSpec("poisson"), null_param=lam)
        expected = [[oracle_poisson_sf(int(yp[i, j]), lam) for j in range(6)] for i in range(6)]
        np.testing.assert_allclose(pp.values, expected, rtol=1e-10)

    def test_default_null_matches_estimate_null(self):
        rng = np.random.default_rng(223)
        y = rng.binomial(40, 0.25, size=(7, 7))
        model = ModelSpec("binomial", trials=Grid(np.full((7, 7), 40)))
        auto = pixel_pvalues(Grid(y), model)
        manual = pixel_pvalues(Grid(y), model, null_param=estimate_null(Grid(y), model))
        np.testing.assert_array_equal(auto.values, manual.values)

    def test_normal_approximation_tracks_exact(self):
        rng = np.random.default_rng(227)
        y = rng.binomial(400, 0.2, size=(8, 8))
        model = ModelSpec("binomial", trials=Grid(np.full((8, 8), 400)))
        exact = pixel_pvalues(Grid(y), model, null_param=0.2)
        approx = pixel_pvalues(Grid(y), model, null_param=0.2, approx=True)
        np.testing.assert_allclose(approx.values, exact.values, atol=0.01)

    @given(data=st.data(), approx=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_binomial_tail_is_binom_sf(self, data, approx):
        n = np.array(data.draw(st.lists(st.integers(1, 400), min_size=1, max_size=12)))
        y = np.array([data.draw(st.integers(0, int(k))) for k in n])
        # y = 0 and y = n at the largest trial count, every example
        n = np.concatenate([n, [n.max(), n.max()]]).reshape(1, -1)
        y = np.concatenate([y, [0, n.max()]]).reshape(1, -1)
        p0 = data.draw(st.floats(1e-6, 1 - 1e-6))
        got = pixel_pvalues(Grid(y), ModelSpec("binomial", trials=Grid(n)), p0, approx).values
        if approx:
            want = sps.norm.sf((y - 0.5 - n * p0) / np.sqrt(n * p0 * (1.0 - p0)))
        else:
            want = sps.binom.sf(y - 1, n, p0)
        np.testing.assert_array_equal(got, want)

    @given(y=st.lists(st.integers(0, 400), min_size=1, max_size=12),
           lam=st.floats(1e-3, 150.0), approx=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_poisson_tail_is_poisson_sf(self, y, lam, approx):
        y = np.array([0] + y).reshape(1, -1)
        got = pixel_pvalues(Grid(y), ModelSpec("poisson"), lam, approx).values
        if approx:
            want = sps.norm.sf((y - 0.5 - lam) / np.sqrt(lam))
        else:
            want = sps.poisson.sf(y - 1, lam)
        np.testing.assert_array_equal(got, want)

    @given(y=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12),
           mu=st.floats(-100.0, 100.0), sigma=st.floats(1e-3, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_normal_tail_is_norm_sf(self, y, mu, sigma):
        y = np.array(y).reshape(1, -1)
        got = pixel_pvalues(Grid(y), ModelSpec("normal", sigma=sigma), mu).values
        np.testing.assert_array_equal(got, sps.norm.sf((y - mu) / sigma))

    @given(data=st.data(), family=st.sampled_from(("binomial", "poisson")))
    @settings(max_examples=60, deadline=None)
    def test_count_tails_once_per_distinct_input_match_per_cell(self, data, family):
        # cells repeat a few (count, trials) pairs, so the tail is shared; trial
        # counts of 2**40 overflow the pair key and are evaluated cell by cell
        from scipy.special import betainc, gammainc

        size = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        pool = data.draw(st.lists(st.sampled_from((1, 7, 400, 2**40)), min_size=1, max_size=3))
        n = np.array([data.draw(st.sampled_from(pool)) for _ in range(size[0] * size[1])])
        y = np.array([data.draw(st.sampled_from((0, 1, 2, int(k)))) for k in n])
        y = np.minimum(y, n).reshape(size)
        n = n.reshape(size)
        null = data.draw(st.floats(1e-6, 1 - 1e-6))
        if family == "binomial":
            got = pixel_pvalues(Grid(y), ModelSpec("binomial", trials=Grid(n)), null).values
            want = np.where(y >= 1, betainc(np.maximum(y, 1), n - y + 1, null), 1.0)
        else:
            y = y % 500  # Poisson counts need no trials; keep gammainc quick
            got = pixel_pvalues(Grid(y), ModelSpec("poisson"), 100 * null).values
            want = np.where(y >= 1, gammainc(np.maximum(y, 1), 100 * null), 1.0)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_invalid_null_rejected(self):
        y = Grid(np.ones((3, 3), dtype=int))
        with pytest.raises(ConfigurationError):
            pixel_pvalues(y, ModelSpec("binomial", trials=Grid(np.full((3, 3), 10))), null_param=1.5)
        with pytest.raises(ConfigurationError):
            pixel_pvalues(y, ModelSpec("poisson"), null_param=0.0)
        with pytest.raises(ConfigurationError):
            pixel_pvalues(y, ModelSpec("normal"), null_param=np.inf)


class TestStoreyFdr:
    def test_all_ones_rejects_nothing(self):
        p = PValueField(values=np.ones((5, 5)))
        res = storey_fdr(p, alpha=0.6)
        assert res.pi0_hat == 1.0
        assert res.rejected_count == 0
        assert res.gamma == 0.0

    def test_spiked_small_pvalues_all_kept(self):
        rng = np.random.default_rng(229)
        p = rng.uniform(size=10_000)
        p[:50] = 0.001
        res = storey_fdr(PValueField(values=p.reshape(100, 100)), alpha=0.6)
        assert res.mask.ravel()[:50].all()

    def test_matches_oracle_on_random_fields(self):
        rng = np.random.default_rng(233)
        for _ in range(5):
            p = rng.beta(0.4, 1.0, size=(12, 12))
            res = storey_fdr(PValueField(values=p), alpha=0.3)
            pi0, gamma, mask = oracle_storey(p, alpha=0.3)
            assert res.pi0_hat == pytest.approx(pi0, rel=1e-12)
            assert res.gamma == pytest.approx(gamma, rel=1e-12)
            np.testing.assert_array_equal(res.mask, mask)

    @given(p=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12),
                    elements=st.one_of(st.sampled_from([0.0, 0.001, 0.01, 0.05, 0.5, 1.0]),
                                       st.floats(0.0, 1.0))),
           alphas=st.lists(st.floats(0.001, 0.999), min_size=2, max_size=6),
           lam=st.sampled_from([0.2, 0.5, 0.8]))
    @example(p=np.random.default_rng(239).uniform(size=(20, 20)) ** 2,
             alphas=[0.05, 0.1, 0.2, 0.4, 0.6, 0.8], lam=0.5)
    @settings(max_examples=60, deadline=None)
    def test_mask_monotone_in_alpha(self, p, alphas, lam):
        # the sampled pool gives tied and repeated p-values
        prev = np.zeros(p.shape, dtype=bool)
        for alpha in sorted(alphas):
            mask = storey_fdr(PValueField(values=p), alpha=alpha, lam=lam).mask
            assert np.all(mask[prev])  # earlier rejections stay rejected
            prev = mask

    def test_pi0_lower_clip(self):
        p = PValueField(values=np.full((4, 4), 0.01))
        res = storey_fdr(p, alpha=0.5)
        assert res.pi0_hat == pytest.approx(1.0 / (0.5 * 16))
        assert res.rejected_count == 16

    def test_estimated_fdr_at_gamma_within_alpha(self):
        rng = np.random.default_rng(241)
        p = rng.uniform(size=(30, 30))
        p[:5, :5] = rng.uniform(0, 0.01, size=(5, 5))
        res = storey_fdr(PValueField(values=p), alpha=0.25)
        if res.gamma > 0:
            n_le = (p <= res.gamma).sum()
            assert res.pi0_hat * res.gamma * p.size / n_le <= 0.25 + 1e-12

    def test_parameters_validated(self):
        p = PValueField(values=np.ones((2, 2)))
        with pytest.raises(ConfigurationError):
            storey_fdr(p, alpha=0.0)
        with pytest.raises(ConfigurationError):
            storey_fdr(p, alpha=0.5, lam=1.0)


class TestZoneLlrs:
    def test_matches_oracle_all_families(self):
        rng = np.random.default_rng(251)
        shape = (9, 9)
        n = rng.integers(10, 40, size=shape)
        data = {
            "binomial": (rng.binomial(n, 0.3).astype(float), n.astype(float)),
            "poisson": (rng.poisson(4.0, size=shape).astype(float), np.ones(shape)),
            "normal": (rng.normal(1.0, 2.0, size=shape), np.ones(shape)),
        }
        models = {
            "binomial": ModelSpec("binomial", trials=Grid(n)),
            "poisson": ModelSpec("poisson"),
            "normal": ModelSpec("normal", sigma=2.0),
        }
        for family, (y, exposure) in data.items():
            for center in ((4, 4), (0, 0), (8, 3)):
                for radius in (1, 2, 3):
                    zone = circle_mask(shape, center, radius)
                    y_in = y[zone].sum()
                    e_in = exposure[zone].sum()
                    got = _zone_llrs(models[family], np.array([[y_in]]), np.array([[e_in]]),
                                     y.sum(), exposure.sum())[0, 0]
                    want = oracle_zone_llr(y, exposure, family, zone, sigma=2.0)
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestCircularScan:
    def test_null_calibration(self):
        # data generated under the null: the most likely cluster should
        # rarely be called significant
        high = 0
        for run in range(20):
            rng = np.random.default_rng((307, run))
            y = rng.binomial(30, 0.25, size=(20, 20))
            res = circular_scan(Grid(y), ModelSpec("binomial", trials=Grid(np.full((20, 20), 30))),
                                radii=(1, 2, 3), mc_reps=99, seed=run)
            if res.clusters and res.clusters[0].p_value > 0.05:
                high += 1
        assert high >= 18  # >= 90% of runs

    def test_disc_recovered_with_high_jaccard(self):
        rng = np.random.default_rng(311)
        truth = circle_mask((100, 100), (50, 50), 19)
        probs = np.where(truth, 0.25, 0.20)
        y = rng.binomial(100, probs)
        res = circular_scan(Grid(y), ModelSpec("binomial", trials=Grid(np.full((100, 100), 100))),
                            radii=range(3, 21), mc_reps=99, seed=7)
        assert res.clusters and res.clusters[0].p_value <= 0.05
        inter = (res.mask & truth).sum()
        union = (res.mask | truth).sum()
        assert inter / union >= 0.8

    def test_uniform_grid_scores_zero(self):
        y = np.full((10, 10), 6)
        res = circular_scan(Grid(y), ModelSpec("poisson"), radii=(1, 2, 3), mc_reps=19, seed=1)
        assert not res.clusters  # clusters are reported only for a positive LLR
        assert not res.mask.any()

    def test_two_separated_clusters_reported_disjoint(self):
        rng = np.random.default_rng(313)
        probs = np.full((40, 40), 0.2)
        probs[circle_mask((40, 40), (10, 10), 5)] = 0.55
        probs[circle_mask((40, 40), (30, 30), 5)] = 0.55
        y = rng.binomial(50, probs)
        res = circular_scan(Grid(y), ModelSpec("binomial", trials=Grid(np.full((40, 40), 50))),
                            radii=(3, 4, 5, 6, 7), mc_reps=19, seed=3)
        assert len(res.clusters) >= 2
        first, second = res.clusters[0], res.clusters[1]
        assert first.llr >= second.llr
        assert not (first.mask & second.mask).any()
        centers = {tuple(np.round(c.center, -1)) for c in res.clusters[:2]}
        assert centers == {(10, 10), (30, 30)}

    def test_overlap_is_tested_on_the_circle_not_its_box(self):
        # the discs' bounding boxes share cells (12..13, 12..13), one of which
        # lies in the first circle, but the circles themselves are disjoint
        y = np.full((40, 40), 2)
        y[circle_mask((40, 40), (10, 10), 3)] = 20
        y[circle_mask((40, 40), (15, 15), 3)] = 15
        res = circular_scan(Grid(y), ModelSpec("poisson"), radii=(1, 2, 3), mc_reps=19, seed=5)
        got = [(c.center, c.radius) for c in res.clusters[:2]]
        assert got == [((10, 10), 3), ((15, 15), 3)]
        for c in res.clusters:
            np.testing.assert_array_equal(c.mask, circle_mask((40, 40), c.center, c.radius))

    def test_determinism(self):
        rng = np.random.default_rng(317)
        y = rng.poisson(3.0, size=(15, 15))
        a = circular_scan(Grid(y), ModelSpec("poisson"), radii=(1, 2), mc_reps=19, seed=11)
        b = circular_scan(Grid(y), ModelSpec("poisson"), radii=(1, 2), mc_reps=19, seed=11)
        assert [(c.center, c.radius, c.llr, c.p_value) for c in a.clusters] == [
            (c.center, c.radius, c.llr, c.p_value) for c in b.clusters
        ]
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_pvalue_validity_under_null(self):
        # empirical size: P(p <= alpha) <= alpha + 1/(mc_reps+1)
        alpha = 0.05
        hits = 0
        runs = 200
        for run in range(runs):
            rng = np.random.default_rng((331, run))
            y = rng.poisson(5.0, size=(12, 12))
            res = circular_scan(Grid(y), ModelSpec("poisson"), radii=(1, 2), mc_reps=19, seed=run)
            if res.clusters and res.clusters[0].p_value <= alpha:
                hits += 1
        assert hits / runs <= alpha + 1.0 / 20 + 0.02  # small slack for MC noise

    def test_radii_past_the_exposure_cap_change_nothing(self):
        # on this 45x38 grid no zone wider than about radius 40 stays within
        # half the exposure; those radii score 0 everywhere and are dropped
        truth = gen_shape("disc", (45, 38), radius=7.0)
        grid = Grid(np.random.default_rng(31).poisson(np.where(truth, 9.0, 4.0)))
        zones, _ = scan_zones(None, (45, 38), range(1, 201))
        last = max(window.radius for window, _, allowed in zones if allowed.any())
        assert last < 200
        wide, kept = (circular_scan(grid, ModelSpec("poisson"), radii=range(1, top + 1), mc_reps=19,
                                    cluster_alpha=0.5, seed=5) for top in (200, last))
        assert [(c.center, c.radius, c.llr, c.p_value) for c in wide.clusters] == \
            [(c.center, c.radius, c.llr, c.p_value) for c in kept.clusters]
        for a, b in zip(wide.clusters, kept.clusters):
            np.testing.assert_array_equal(a.mask, b.mask)
        np.testing.assert_array_equal(wide.mask, kept.mask)

    def test_exact_tie_goes_to_the_last_zone(self):
        # every radius-1 zone holding one 9 scores the same; the last of
        # them in (radius, row, col) order is (15, 14), below the second 9
        y = np.full((30, 30), 2)
        y[5, 5] = y[14, 14] = 9
        res = circular_scan(Grid(y), ModelSpec("poisson"), radii=(1, 2, 3), mc_reps=19, seed=1,
                            cluster_alpha=0.5)
        assert (res.clusters[0].center, res.clusters[0].radius) == ((15, 14), 1)

    @given(family=st.sampled_from(["binomial", "poisson", "normal"]),
           shape=st.tuples(st.integers(4, 12), st.integers(4, 12)),
           radii=st.sets(st.integers(1, 4), min_size=1, max_size=3),
           per_cell_trials=st.booleans(),
           cluster_alpha=st.sampled_from([0.05, 0.5, 0.95]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_clusters_are_the_best_open_zones(self, family, shape, radii, per_cell_trials,
                                              cluster_alpha, seed):
        # small values and rounded normals make exactly tied LLRs common
        rng = np.random.default_rng(seed)
        hot = rng.random(shape) < 0.15
        if family == "binomial":
            exposure = rng.integers(1, 5, size=shape) if per_cell_trials else np.full(shape, 3)
            y = rng.binomial(exposure, np.where(hot, 0.8, 0.3))
            model = ModelSpec("binomial", trials=Grid(exposure))
        elif family == "poisson":
            y = rng.poisson(np.where(hot, 4.0, 1.0))
            model = ModelSpec("poisson")
        else:
            y = np.round(rng.normal(np.where(hot, 2.0, 0.0)), 1)
            model = ModelSpec("normal", sigma=1.0)
        radii = sorted(radii)
        try:
            zones, e_tot = scan_zones(model.trials, shape, radii)
        except ConfigurationError:
            return  # every zone over the cap; circular_scan refuses it too
        llrs = np.array(list(_zone_llr_fields(model, Grid(y).values, zones, e_tot)))
        res = circular_scan(Grid(y), model, radii=radii, mc_reps=19, cluster_alpha=cluster_alpha,
                            seed=seed)
        rows, cols = shape
        zone_masks = np.array([[[circle_mask(shape, (i, j), r) for j in range(cols)]
                                for i in range(rows)] for r in radii])
        claimed = np.zeros(shape, dtype=bool)
        for n, c in enumerate(res.clusters):
            assert 1 / 20 <= c.p_value <= 1.0
            assert c.p_value <= cluster_alpha or n == 0
            open_llrs = np.where((zone_masks & claimed).any(axis=(3, 4)), -np.inf, llrs)
            best = open_llrs.max()
            k, i, j = np.argwhere(open_llrs == best)[-1]
            assert c.llr == best > 0.0
            assert (c.center, c.radius) == ((i, j), radii[k])
            np.testing.assert_array_equal(c.mask, zone_masks[k, i, j])
            assert not (claimed & c.mask).any()
            claimed |= c.mask
        if not res.clusters:
            assert llrs.max() <= 0.0
        elif res.clusters[0].p_value > cluster_alpha:
            assert len(res.clusters) == 1 and not res.mask.any()
        else:
            np.testing.assert_array_equal(res.mask, claimed)

    def test_full_grid_zones_warn_nothing(self):
        # radii up to 20 give zones with no cell outside them (e_out = 0)
        y = np.random.default_rng(0).normal(0, 1, (12, 12))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            circular_scan(Grid(y), ModelSpec("normal"), radii=range(1, 21), mc_reps=19)

    def test_exposure_cap_blocks_oversized_zones(self):
        y = np.arange(49).reshape(7, 7)
        res = circular_scan(Grid(y), ModelSpec("poisson"), radii=(1, 20), mc_reps=19, seed=5)
        for c in res.clusters:
            assert c.cell_count <= 0.5 * 49

    def test_parameters_validated(self):
        y = Grid(np.ones((5, 5), dtype=int))
        with pytest.raises(ConfigurationError):
            circular_scan(y, ModelSpec("poisson"), mc_reps=10)
        with pytest.raises(ConfigurationError):
            circular_scan(y, ModelSpec("poisson"), radii=(), mc_reps=19)
        with pytest.raises(ConfigurationError):
            circular_scan(y, ModelSpec("poisson"), radii=(0, 1), mc_reps=19)

    def test_llr_depends_only_on_zone(self):
        # two center/radius pairs whose clipped zones coincide score identically
        y = np.zeros((4, 4), dtype=int)
        y[0, 0] = 9
        grid = Grid(y + 1)
        big = WindowSpec("circle", 9)  # clipped: covers the whole grid from any center
        from mcd.grid import window_sums

        s1 = next(window_sums(grid.values, [big]))
        assert s1.min() == s1.max()  # same zone -> same sum regardless of center
