"""Variability field, belt scan, and detection mask semantics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcd.baselines import circular_scan, pixel_pvalues
from mcd.errors import InvalidInputError, NoSignalError
from mcd.grid import CROSS_OFFSETS, Grid, ScaleLadder
from mcd.stats import ModelSpec, StatField
from mcd.threshold import (
    DetectionResult,
    VarField,
    auto_min_belt_count,
    neighborhood_variability,
    run_detection,
    scan_thresholds,
)
from oracles import oracle_variability

POISSON = ModelSpec("poisson")
LADDER = ScaleLadder.default_two_scale()


def make_stat(values) -> StatField:
    return StatField(values=np.asarray(values, dtype=float), model=POISSON, ladder=LADDER)


class TestNeighborhoodVariability:
    def test_constant_grid_is_zero(self):
        v = neighborhood_variability(Grid(np.full((6, 6), 3)), POISSON)
        assert np.all(v.values == 0.0)

    def test_interior_cross_hand_value(self):
        y = np.zeros((5, 5), dtype=int)
        y[2, 2] = 4
        v = neighborhood_variability(Grid(y), POISSON)
        # values (4,0,0,0,0): mean 0.8, sum of squares 12.8, ddof=1 -> 3.2
        assert v.values[2, 2] == pytest.approx(3.2)

    def test_corner_clipped_to_three_values(self):
        y = np.zeros((4, 4))
        y[0, 0], y[0, 1], y[1, 0] = 1.0, 2.0, 3.0
        v = neighborhood_variability(Grid(y), ModelSpec("normal"))
        assert v.values[0, 0] == pytest.approx(1.0)

    def test_matches_oracle_raw(self):
        rng = np.random.default_rng(97)
        y = rng.poisson(3.0, size=(9, 12))
        v = neighborhood_variability(Grid(y), POISSON)
        np.testing.assert_allclose(v.values, oracle_variability(y), rtol=1e-12, atol=1e-12)

    def test_binomial_uses_adjusted_proportions(self):
        rng = np.random.default_rng(101)
        n = rng.integers(10, 60, size=(8, 8))
        y = rng.binomial(n, 0.3)
        model = ModelSpec("binomial", trials=Grid(n))
        v = neighborhood_variability(Grid(y), model)
        padj = (y + 1.0) / (n + 2.0)
        np.testing.assert_allclose(v.values, oracle_variability(y, padj), rtol=1e-12, atol=1e-12)

    @given(rows=st.integers(2, 12), cols=st.integers(2, 12), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bits_match_nanvar_of_the_cross(self, rows, cols, seed):
        # the field is np.nanvar(ddof=1) over a NaN-padded stack of the 5-point
        # cross, bit for bit; signed zeros and repeats are in the values
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(rows, cols))
        y[rng.random((rows, cols)) < 0.2] = -0.0
        y[rng.random((rows, cols)) < 0.2] = 0.5
        padded = np.pad(y, 1, constant_values=np.nan)
        stack = np.stack([padded[1 + di:1 + di + rows, 1 + dj:1 + dj + cols]
                          for di, dj in CROSS_OFFSETS])
        want = np.nanvar(stack, axis=0, ddof=1)
        got = neighborhood_variability(Grid(y), ModelSpec("normal")).values
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_small_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            neighborhood_variability(Grid(np.array([[1, 2, 3]])), POISSON)


class TestScanThresholds:
    def test_two_level_field_splits_between_levels(self):
        t = np.zeros((6, 6))
        t[:, 3:] = 10.0
        # variability peaks on the column adjacent to the jump
        v = np.zeros((6, 6))
        v[:, 2:4] = 5.0
        v[:, 4] = 1.0
        scan = scan_thresholds(make_stat(t), VarField(values=v), threshold_count=11)
        assert 0.0 < scan.t_star < 10.0
        mask = make_stat(t).values > scan.t_star
        np.testing.assert_array_equal(mask, t == 10.0)

    def test_brute_force_belt_means(self):
        rng = np.random.default_rng(103)
        t = rng.uniform(0, 7, size=(10, 10))
        v = rng.uniform(0, 2, size=(10, 10))
        K = 9
        scan = scan_thresholds(make_stat(t), VarField(values=v), threshold_count=K)
        ts = np.linspace(t.min(), t.max(), K)
        np.testing.assert_allclose(scan.thresholds, ts)
        best = (-np.inf, None)
        for k in range(K - 1):
            sel = (t > ts[k]) & (t <= ts[k + 1])
            assert scan.belt_counts[k] == sel.sum()
            if sel.any():
                mean = v[sel].mean()
                assert scan.belt_means[k] == pytest.approx(mean, rel=1e-12)
                if mean > best[0]:
                    best = (mean, k)
            else:
                assert np.isnan(scan.belt_means[k])
        assert scan.k_star == best[1]
        assert scan.t_star == pytest.approx(0.5 * (ts[best[1]] + ts[best[1] + 1]))

    def test_tie_break_prefers_lowest_belt(self):
        # one pixel per belt, constant V: every belt mean ties at 1.0
        t = np.array([[0.0, 0.2, 0.4], [0.6, 0.8, 1.0]])
        v = np.ones((2, 3))
        scan = scan_thresholds(make_stat(t), VarField(values=v), threshold_count=6)
        assert scan.k_star == 0
        assert scan.t_star == pytest.approx(0.1)

    def test_min_value_pixels_fall_in_no_belt(self):
        t = np.array([[0.0, 0.0, 1.0, 2.0]] * 2)
        v = np.ones((2, 4))
        scan = scan_thresholds(make_stat(t), VarField(values=v), threshold_count=5)
        assert scan.belt_counts.sum() == 4  # the four pixels with T > min

    def test_constant_field_raises(self):
        with pytest.raises(NoSignalError):
            scan_thresholds(make_stat(np.full((4, 4), 2.0)), VarField(values=np.ones((4, 4))))

    def test_threshold_count_validated(self):
        t = make_stat(np.arange(9.0).reshape(3, 3))
        with pytest.raises(InvalidInputError):
            scan_thresholds(t, VarField(values=np.ones((3, 3))), threshold_count=2)

    def test_shape_mismatch_rejected(self):
        t = make_stat(np.arange(9.0).reshape(3, 3))
        with pytest.raises(InvalidInputError):
            scan_thresholds(t, VarField(values=np.ones((3, 4))))

    def test_peak_ratio_near_one_on_flat_variability(self):
        rng = np.random.default_rng(107)
        t = rng.uniform(0, 5, size=(30, 30))
        v = np.ones((30, 30))
        scan = scan_thresholds(make_stat(t), VarField(values=v))
        assert scan.peak_ratio == pytest.approx(1.0)

    def test_occupancy_floor_excludes_sparse_belt(self):
        # a lone pixel at the top of the T range posts the largest belt
        # mean; with a floor of 2 the argmax must ignore it
        t = np.zeros((4, 4))
        t[0, :] = [1.0, 1.1, 1.2, 9.0]
        t[1, :] = [1.3, 1.4, 1.1, 1.2]
        v = np.ones((4, 4))
        v[0, 3] = 50.0
        v[1, 0] = 2.0
        lone = scan_thresholds(make_stat(t), VarField(values=v), threshold_count=10)
        floored = scan_thresholds(
            make_stat(t), VarField(values=v), threshold_count=10, min_belt_count=2
        )
        assert lone.belt_counts[lone.k_star] == 1
        assert lone.t_star > 5.0
        assert floored.belt_counts[floored.k_star] >= 2
        assert floored.t_star < 5.0

    def test_floor_falls_back_to_nonempty(self):
        rng = np.random.default_rng(139)
        t = rng.uniform(0, 4, size=(5, 5))
        v = rng.uniform(size=(5, 5))
        literal = scan_thresholds(make_stat(t), VarField(values=v), threshold_count=8)
        floored = scan_thresholds(
            make_stat(t), VarField(values=v), threshold_count=8, min_belt_count=10_000
        )
        assert floored.k_star == literal.k_star
        assert floored.t_star == literal.t_star

    def test_min_belt_count_validated(self):
        t = make_stat(np.arange(9.0).reshape(3, 3))
        with pytest.raises(InvalidInputError):
            scan_thresholds(t, VarField(values=np.ones((3, 3))), min_belt_count=0)


def test_auto_min_belt_count_scaling():
    assert auto_min_belt_count(10_000) == 20
    assert auto_min_belt_count(2_500) == 5
    assert auto_min_belt_count(100) == 1
    assert auto_min_belt_count(1) == 1


def detect(stat: StatField, t_star: float) -> DetectionResult:
    """The mask rule of `run_detection`: T strictly above the threshold."""
    return DetectionResult(stat, VarField(np.zeros(stat.values.shape)), stat.values > t_star, t_star)


class TestDetect:
    def test_extreme_thresholds(self):
        t = make_stat(np.arange(16.0).reshape(4, 4))
        assert detect(t, 15.0).detected_count == 0
        assert detect(t, 16.0).detected_count == 0
        assert detect(t, -0.5).detected_count == 16

    def test_strictness_at_median(self):
        rng = np.random.default_rng(109)
        vals = rng.normal(size=(7, 7))
        t = make_stat(vals)
        med = float(np.median(vals))
        res = detect(t, med)
        assert res.detected_count == int((vals > med).sum())

    def test_monotone_nesting(self):
        rng = np.random.default_rng(113)
        vals = rng.uniform(0, 3, size=(8, 8))
        t = make_stat(vals)
        lo = detect(t, 1.0).mask
        hi = detect(t, 2.0).mask
        assert np.all(lo[hi])  # {T > 2} subset of {T > 1}


class TestRunDetection:
    def test_disc_signal_normal(self):
        # 100x100 standard-normal noise plus a delta=2 disc: the selected
        # threshold should isolate the disc nearly perfectly
        rng = np.random.default_rng(127)
        y = rng.normal(size=(100, 100))
        ii, jj = np.mgrid[:100, :100]
        disc = (ii - 50.0) ** 2 + (jj - 50.0) ** 2 <= 15.0**2
        y[disc] += 2.0
        res = run_detection(Grid(y), ModelSpec("normal", sigma=1.0))
        tp = (res.mask & disc).sum() / disc.sum()
        tn = (~res.mask & ~disc).sum() / (~disc).sum()
        assert tp > 0.9 and tn > 0.9
        assert res.scan is not None and res.scan.peak_ratio > 1.2
        np.testing.assert_array_equal(res.mask, res.stat.values > res.t_star)
        assert res.var.values.shape == res.mask.shape

    def test_constant_field_gives_empty_mask(self):
        res = run_detection(Grid(np.full((12, 12), 5)), POISSON)
        assert res.scan is None and np.isnan(res.t_star)
        assert res.detected_count == 0 and res.mask.shape == (12, 12)
        assert np.all(res.stat.values == 0.0)

    def test_boundary_variability_dominates(self):
        # two-region field: mean V on region-boundary pixels should beat
        # the mean elsewhere in nearly all replicates
        ii, jj = np.mgrid[:100, :100]
        disc = (ii - 50.0) ** 2 + (jj - 50.0) ** 2 <= 20.0**2
        cross = np.zeros((100, 100), dtype=bool)
        boundary = np.zeros((100, 100), dtype=bool)
        for di, dj in ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)):
            shifted = np.roll(disc, (di, dj), axis=(0, 1))
            cross |= shifted != disc
        boundary = cross
        wins = 0
        reps = 20
        for rep in range(reps):
            rng = np.random.default_rng((131, rep))
            y = rng.normal(size=(100, 100)) + disc * 1.0
            v = neighborhood_variability(Grid(y), ModelSpec("normal")).values
            wins += v[boundary].mean() > v[~boundary].mean()
        assert wins >= 18


def test_belt_partition_property():
    rng = np.random.default_rng(137)
    t = rng.exponential(2.0, size=(15, 15))
    v = rng.uniform(size=(15, 15))
    scan = scan_thresholds(make_stat(t), VarField(values=v), threshold_count=25)
    assert scan.belt_counts.sum() == int((t > t.min()).sum())


@given(seed=st.integers(0, 2**31 - 1), k=st.integers(3, 40))
@settings(max_examples=30, deadline=None)
def test_scan_invariants_random(seed, k):
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(8, 8))
    if t.max() == t.min():  # pragma: no cover - essentially impossible
        return
    v = rng.uniform(size=(8, 8))
    scan = scan_thresholds(make_stat(t), VarField(values=v), threshold_count=k)
    assert t.min() < scan.t_star < t.max() or scan.t_star == pytest.approx(t.min()) or scan.t_star == pytest.approx(t.max())
    nonempty = scan.belt_counts > 0
    assert nonempty[scan.k_star]
    assert np.nanmax(np.where(nonempty, scan.belt_means, np.nan)) == scan.belt_means[scan.k_star]


def test_varfield_rejects_negative():
    with pytest.raises(Exception):
        VarField(values=np.array([[-1.0, 0.0], [0.0, 0.0]]))


def test_detection_result_shape():
    res = detect(make_stat(np.zeros((2, 2))), 1.0)
    assert res.detected_count == 0


# counts the trials cannot hold, with the cause each command names
BAD_BINOMIAL = {
    "counts-above-trials": ((3, 3, 31), np.full((20, 20), 30), "counts exceed trials"),
    "negative-count": ((3, 3, -1), np.full((20, 20), 30), "nonnegative integers"),
    "trials-shape": (None, np.full((20, 21), 30), r"trials shape \(20, 21\) != grid shape"),
    "zero-trials": (None, np.full((20, 20), 0), "trials must be integers >= 1"),
    "non-integer-trials": (None, np.full((20, 20), 30.5), "trials must be integers >= 1"),
}


def bad_binomial_counts(cell):
    counts = np.random.default_rng(5).binomial(30, 0.2, size=(20, 20))
    if cell is not None:
        counts[cell[:2]] = cell[2]
    return counts


@pytest.mark.parametrize("run", [
    lambda grid, model: run_detection(grid, model),
    lambda grid, model: pixel_pvalues(grid, model),
    lambda grid, model: circular_scan(grid, model, radii=(1, 2), mc_reps=19),
], ids=["run_detection", "pixel_pvalues", "circular_scan"])
@pytest.mark.parametrize("case", sorted(BAD_BINOMIAL))
def test_binomial_counts_the_trials_cannot_hold_are_refused(run, case):
    cell, trials, cause = BAD_BINOMIAL[case]
    with pytest.raises(InvalidInputError, match=cause):
        run(Grid(bad_binomial_counts(cell)), ModelSpec("binomial", trials=Grid(trials)))


def detection_inputs(n):
    """Seeded n x n inputs of every family, with a raised block."""
    rng = np.random.default_rng(600)
    inside = np.zeros((n, n), dtype=bool)
    inside[n // 4:n // 2, n // 4:3 * n // 4] = True
    header = np.full((n, n), 100)  # what a rows,cols,trials header gives
    per_cell = rng.integers(50, 150, size=(n, n))
    return {
        "binomial-header": (rng.binomial(header, np.where(inside, 0.3, 0.2)),
                            ModelSpec("binomial", trials=Grid(header))),
        "binomial-per-cell": (rng.binomial(per_cell, np.where(inside, 0.3, 0.2)),
                              ModelSpec("binomial", trials=Grid(per_cell))),
        "poisson": (rng.poisson(np.where(inside, 6.0, 4.0)), ModelSpec("poisson")),
        "normal": (rng.normal(np.where(inside, 1.0, 0.0), 1.0), ModelSpec("normal")),
    }


# traced peak bytes per cell of a default 600x600 `run_detection`: the measured
# 130.4, 139.7, 105.4 and 112.7, plus under 3, so one more field held across the
# ladder (8 bytes per cell) fails
PEAK_BYTES_PER_CELL = {"binomial-header": 133, "binomial-per-cell": 142, "poisson": 108,
                       "normal": 115}


def test_detection_peak_memory_per_cell():
    n = 600
    peaks = {}
    for name, (values, model) in detection_inputs(n).items():
        grid = Grid(values)
        tracemalloc.start()
        try:
            run_detection(grid, model)
            peaks[name] = tracemalloc.get_traced_memory()[1] / (n * n)
        finally:
            tracemalloc.stop()
    assert all(peaks[name] <= PEAK_BYTES_PER_CELL[name] for name in peaks), peaks
