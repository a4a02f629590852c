"""Statistic fields against hand-computed values and the likelihood oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcd.errors import ConfigurationError, DegenerateDataError, InvalidInputError
from mcd.grid import Grid, ScaleLadder, exposure_sums, window_sums
from mcd.stats import (
    FAMILIES,
    ModelSpec,
    adjusted_proportions,
    estimate_null,
    robust_sigma,
    stat_field,
)
from oracles import oracle_estimates, oracle_stat_grid
from test_median import ladders

TWO_SCALE = ScaleLadder.default_two_scale()


class TestModelSpec:
    def test_binomial_requires_trials(self):
        with pytest.raises(ConfigurationError):
            ModelSpec("binomial")
        with pytest.raises(ConfigurationError):
            ModelSpec("poisson", trials=Grid(np.full((2, 2), 10)))

    def test_trials_must_be_a_grid(self):
        with pytest.raises(ConfigurationError):
            ModelSpec("binomial", trials=100)
        with pytest.raises(ConfigurationError):
            ModelSpec("binomial", trials=np.full((2, 2), 10))

    def test_sigma_only_for_normal(self):
        ModelSpec("normal", sigma=2.0)
        with pytest.raises(ConfigurationError):
            ModelSpec("poisson", sigma=1.0)
        for sigma in (0.0, np.inf, np.nan):
            with pytest.raises(ConfigurationError, match="sigma must be positive and finite"):
                ModelSpec("normal", sigma=sigma)

    def test_unknown_family(self):
        with pytest.raises(ConfigurationError):
            ModelSpec("gamma")

    def test_cell_values(self):
        y = Grid(np.array([[0, 3], [5, 1]]))
        n = Grid(np.full((2, 2), 8))
        np.testing.assert_array_equal(ModelSpec("binomial", trials=n).cell_values(y),
                                      adjusted_proportions(y, n))
        vals = ModelSpec("poisson").cell_values(y)
        assert vals.dtype == np.float64
        np.testing.assert_array_equal(vals, y.values)

    def test_noise_sigma(self):
        rng = np.random.default_rng(19)
        g = Grid(rng.normal(size=(9, 9)))
        assert ModelSpec("normal", sigma=2.5).noise_sigma(g) == 2.5
        assert ModelSpec("normal").noise_sigma(g) == robust_sigma(g.values)
        with pytest.raises(DegenerateDataError):
            ModelSpec("normal").noise_sigma(Grid(np.ones((5, 5))))

    def test_sample_matches_direct_generator_calls(self):
        # the simulation draws around a per-cell mean, the scan's null around
        # one pooled value; both streams must stay what these calls give
        def rng():
            return np.random.default_rng(np.random.SeedSequence((7, 3)))

        shape = (12, 15)
        mean = np.where(np.arange(180).reshape(shape) % 7 == 0, 0.3, 0.2)
        n = np.random.default_rng(5).integers(50, 151, size=shape)
        binom = ModelSpec("binomial", trials=Grid(np.full(shape, 100)))
        np.testing.assert_array_equal(binom.sample(rng(), mean), rng().binomial(100, mean))
        binom = ModelSpec("binomial", trials=Grid(n))
        np.testing.assert_array_equal(binom.sample(rng(), np.full(shape, 0.21)),
                                      rng().binomial(n, 0.21))
        poisson = ModelSpec("poisson")
        np.testing.assert_array_equal(poisson.sample(rng(), mean * 20), rng().poisson(mean * 20))
        np.testing.assert_array_equal(poisson.sample(rng(), np.full(shape, 4.3)),
                                      rng().poisson(4.3, size=shape))
        normal = ModelSpec("normal", sigma=1.7)
        assert normal.sample(rng(), mean).tobytes() == rng().normal(mean, 1.7).tobytes()
        assert (normal.sample(rng(), np.full(shape, 0.12)).tobytes()
                == rng().normal(0.12, 1.7, size=shape).tobytes())


class TestLlr:
    """`ModelSpec.llr` against per-cell scipy log-likelihoods."""

    @given(family=st.sampled_from(FAMILIES), cells=st.integers(1, 30),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_log_likelihoods(self, family, cells, seed):
        from scipy import stats as sps

        rng = np.random.default_rng(seed)
        if family == "binomial":
            theta0, theta1 = rng.uniform(0.001, 0.999, size=2)
            n = rng.integers(1, 60, size=cells)
            y = rng.binomial(n, theta1)
            model = ModelSpec("binomial", trials=Grid(n[None, :]))
            e = n.sum()
            want = sps.binom.logpmf(y, n, theta1).sum() - sps.binom.logpmf(y, n, theta0).sum()
        elif family == "poisson":
            theta0, theta1 = rng.uniform(0.01, 20.0, size=2)
            y = rng.poisson(theta1, size=cells)
            model, e = ModelSpec("poisson"), cells
            want = sps.poisson.logpmf(y, theta1).sum() - sps.poisson.logpmf(y, theta0).sum()
        else:
            theta0, theta1 = rng.normal(0.0, 5.0, size=2)
            sigma = rng.uniform(0.1, 4.0)
            y = rng.normal(theta1, sigma, size=cells)
            model, e = ModelSpec("normal", sigma=sigma), cells
            want = sigma**2 * (sps.norm.logpdf(y, theta1, sigma).sum()
                               - sps.norm.logpdf(y, theta0, sigma).sum())
        got = model.llr(float(y.sum()), float(e), theta1, theta0)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_zero_counts_at_boundary_rates_are_finite(self):
        binom = ModelSpec("binomial", trials=Grid(np.full((1, 1), 10)))
        # y = 0 at rate 0, and y = e at rate 1: the empty term contributes 0
        assert binom.llr(0.0, 10.0, 0.0, 0.2) == pytest.approx(-10 * math.log(0.8))
        assert binom.llr(10.0, 10.0, 1.0, 0.2) == pytest.approx(-10 * math.log(0.2))
        assert ModelSpec("poisson").llr(0.0, 4.0, 0.0, 1.5) == pytest.approx(6.0)


class TestEstimateNull:
    def test_constant_binomial(self):
        y = Grid(np.full((4, 4), 20))
        n = Grid(np.full((4, 4), 100))
        assert estimate_null(y, ModelSpec("binomial", trials=n)) == pytest.approx(21 / 102)

    def test_even_count_median_is_midpoint(self):
        g = Grid(np.array([[1, 2], [3, 4]]))
        assert estimate_null(g, ModelSpec("poisson")) == 2.5

    def test_binomial_median_is_13th_order_statistic(self):
        rng = np.random.default_rng(31)
        y = rng.integers(0, 101, size=(5, 5))
        n = np.full((5, 5), 100)
        padj = np.sort(((y + 1) / 102).ravel())
        got = estimate_null(Grid(y), ModelSpec("binomial", trials=Grid(n)))
        assert got == padj[12]


class TestEstimateScales:
    """The per-scale estimates of the oracle that the statistic is checked against."""

    def test_identical_cells_clip_to_null(self):
        g = Grid(np.full((9, 9), 7))
        null = estimate_null(g, ModelSpec("poisson"))
        _, est = oracle_estimates(g.values, "poisson", TWO_SCALE, (4, 4))
        assert np.all(np.array(est) == null)

    def test_unclipped_annulus_mean(self):
        # the annulus for ladder [0, 2] is the full 5x5 window minus the center
        vals = np.full((11, 11), 0.2)
        ladder = ScaleLadder.of("square", [0, 2])
        vals[3:8, 3:8] = 1.7
        vals[5, 5] = 0.2
        null, est = oracle_estimates(vals, "normal", ladder, (5, 5))
        assert null == 0.2
        assert est[1] == pytest.approx(1.7)

    def test_binomial_annulus_median_enumeration(self):
        rng = np.random.default_rng(37)
        y = rng.integers(0, 101, size=(7, 7))
        n = np.full((7, 7), 100)
        model = ModelSpec("binomial", trials=Grid(n))
        ladder = ScaleLadder.of("square", [0, 2])
        null = estimate_null(Grid(y), model)
        _, est = oracle_estimates(y, "binomial", ladder, (3, 3), trials=n)
        ring = [
            (3 + di, 3 + dj)
            for di in range(-2, 3)
            for dj in range(-2, 3)
            if max(abs(di), abs(dj)) == 2
        ]
        assert len(ring) == 16
        want = max(np.median([(y[c] + 1) / 102 for c in ring]), null)
        assert est[1] == pytest.approx(want, rel=1e-14)

    def test_matches_oracle(self):
        # the pooled annulus means stat_field fits: windowed-sum increments
        rng = np.random.default_rng(41)
        y = rng.poisson(4.0, size=(10, 10))
        ladder = ScaleLadder.of("circle", [0, 1, 3])
        model = ModelSpec("poisson")
        null = estimate_null(Grid(y), model)
        x = np.stack(list(window_sums(y, ladder.windows)))
        m = np.stack(list(exposure_sums(None, y.shape, ladder.windows)))
        dx, dm = np.diff(x, axis=0, prepend=0), np.diff(m, axis=0, prepend=0)
        for pixel in [(0, 0), (5, 5), (9, 2)]:
            want_null, want = oracle_estimates(y, "poisson", ladder, pixel)
            assert null == want_null
            got = np.maximum(dx[:, pixel[0], pixel[1]] / dm[:, pixel[0], pixel[1]], null)
            assert got == pytest.approx(want, rel=1e-12)


class TestStatBinomial:
    def test_constant_grid_is_zero(self):
        y = Grid(np.full((12, 12), 20))
        n = Grid(np.full((12, 12), 100))
        field = stat_field(y, ModelSpec("binomial", trials=n), TWO_SCALE)
        assert np.all(field.values == 0.0)

    def test_center_bump_frozen_value(self):
        # one cell at 30 in a sea of 20, trials 100: second scale clips to the
        # null, so only the radius-0 term contributes at the bump
        y = np.full((11, 11), 20)
        y[5, 5] = 30
        n = np.full((11, 11), 100)
        field = stat_field(Grid(y), ModelSpec("binomial", trials=Grid(n)), TWO_SCALE)
        p0, p1 = 21 / 102, 31 / 102
        want = -2 * (
            30 * (math.log(p0) - math.log(p1))
            + 70 * (math.log1p(-p0) - math.log1p(-p1))
        )
        assert want == pytest.approx(4.920187137346112, rel=1e-12)
        assert field.values[5, 5] == pytest.approx(want, rel=1e-12)

    def test_matches_likelihood_oracle(self):
        rng = np.random.default_rng(47)
        y = rng.binomial(60, 0.3, size=(9, 9))
        n = np.full((9, 9), 60)
        ladder = ScaleLadder.of("square", [0, 1, 3])
        field = stat_field(Grid(y), ModelSpec("binomial", trials=Grid(n)), ladder)
        want = oracle_stat_grid(y, "binomial", ladder, trials=n)
        np.testing.assert_allclose(field.values, want, rtol=1e-9, atol=1e-9)

    def test_heterogeneous_trials(self):
        rng = np.random.default_rng(53)
        n = rng.integers(20, 200, size=(8, 8))
        y = rng.binomial(n, 0.25)
        field = stat_field(Grid(y), ModelSpec("binomial", trials=Grid(n)), TWO_SCALE)
        want = oracle_stat_grid(y, "binomial", TWO_SCALE, trials=n)
        np.testing.assert_allclose(field.values, want, rtol=1e-9, atol=1e-9)


class TestStatPoisson:
    def test_constant_grid_is_zero(self):
        field = stat_field(Grid(np.full((10, 10), 3)), ModelSpec("poisson"), TWO_SCALE)
        assert np.all(field.values == 0.0)

    def test_single_scale_frozen_value(self):
        y = np.full((3, 3), 2)
        y[2, 2] = 7
        field = stat_field(Grid(y), ModelSpec("poisson"), ScaleLadder.of("square", [0]))
        # -2[7(log 2 - log 7) + (7 - 2)] = 14 log(7/2) - 10
        assert field.values[2, 2] == pytest.approx(7.538681558935153, rel=1e-12)
        assert field.values[0, 0] == 0.0

    def test_matches_likelihood_oracle(self):
        rng = np.random.default_rng(59)
        y = rng.poisson(3.0, size=(10, 10))
        field = stat_field(Grid(y), ModelSpec("poisson"), TWO_SCALE)
        want = oracle_stat_grid(y, "poisson", TWO_SCALE)
        np.testing.assert_allclose(field.values, want, rtol=1e-9, atol=1e-9)

    def test_zero_median_refused_unless_offset(self):
        y = np.zeros((6, 6), dtype=int)
        y[0, 0] = 4
        with pytest.raises(DegenerateDataError):
            stat_field(Grid(y), ModelSpec("poisson"), TWO_SCALE)

    def test_rejects_negative_or_real_input(self):
        ladder = ScaleLadder.of("square", [0, 1])
        with pytest.raises(InvalidInputError):
            stat_field(Grid(np.array([[1, -1], [2, 3]])), ModelSpec("poisson"), ladder)
        with pytest.raises(InvalidInputError):
            stat_field(Grid(np.ones((3, 3)) * 1.5), ModelSpec("poisson"), ladder)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.poisson(5.0, size=(9, 9))
        field = stat_field(Grid(y), ModelSpec("poisson"), ScaleLadder.of("square", [0, 2, 4]))
        assert np.all(field.values >= -1e-10)


class TestStatNormal:
    def test_constant_grid_with_sigma_is_zero(self):
        field = stat_field(Grid(np.full((8, 8), 1.5)), ModelSpec("normal", sigma=1.0), TWO_SCALE)
        assert np.all(field.values == 0.0)

    def test_single_scale_identity(self):
        y = np.zeros((3, 3))
        y[1, 1] = 2.0
        field = stat_field(Grid(y), ModelSpec("normal", sigma=1.0), ScaleLadder.of("square", [0]))
        assert field.values[1, 1] == pytest.approx(4.0)  # (mu1 - mu0)^2
        assert field.values[0, 0] == 0.0

    def test_matches_likelihood_oracle(self):
        rng = np.random.default_rng(61)
        y = rng.normal(size=(12, 12))
        field = stat_field(Grid(y), ModelSpec("normal", sigma=1.0), TWO_SCALE)
        want = oracle_stat_grid(y, "normal", TWO_SCALE, sigma=1.0)
        np.testing.assert_allclose(field.values, want, rtol=1e-9, atol=1e-9)

    def test_reduction_to_weighted_squares(self):
        # with clipped estimates the long form collapses to
        # sum_r dm_r (mu_r - mu0)^2 / sigma^2 identically
        rng = np.random.default_rng(67)
        y = rng.normal(size=(10, 10))
        ladder = ScaleLadder.of("square", [0, 2, 5])
        sigma = 0.8
        field = stat_field(Grid(y), ModelSpec("normal", sigma=sigma), ladder)
        model = ModelSpec("normal", sigma=sigma)
        mu0 = estimate_null(Grid(y), model)
        for i in range(10):
            for j in range(10):
                _, est = oracle_estimates(y, "normal", ladder, (i, j))
                dm = []
                prev = 0
                for r in range(ladder.scale_count):
                    cells = [
                        (i + di, j + dj)
                        for di, dj in ladder.annulus_offsets(r)
                        if 0 <= i + di < 10 and 0 <= j + dj < 10
                    ]
                    dm.append(len(cells))
                want = sum(m * (e - mu0) ** 2 for m, e in zip(dm, est)) / sigma**2
                assert field.values[i, j] == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_robust_sigma_used_when_absent(self):
        rng = np.random.default_rng(71)
        y = rng.normal(size=(15, 15))
        sig = robust_sigma(y)
        a = stat_field(Grid(y), ModelSpec("normal"), TWO_SCALE)
        b = stat_field(Grid(y), ModelSpec("normal", sigma=sig), TWO_SCALE)
        np.testing.assert_array_equal(a.values, b.values)

    def test_degenerate_sigma_refused(self):
        with pytest.raises(DegenerateDataError):
            stat_field(Grid(np.ones((5, 5))), ModelSpec("normal"), TWO_SCALE)

    def test_monotone_response_in_center_value(self):
        prev = -np.inf
        for bump in (1.0, 2.0, 3.0):
            y = np.zeros((13, 13))
            y[6, 6] = bump
            t = stat_field(Grid(y), ModelSpec("normal", sigma=1.0), TWO_SCALE).values[6, 6]
            assert t > prev
            prev = t

    def test_translation_covariance(self):
        rng = np.random.default_rng(73)
        y = rng.normal(size=(11, 11))
        a = stat_field(Grid(y), ModelSpec("normal", sigma=1.0), TWO_SCALE)
        b = stat_field(Grid(y + 100.0), ModelSpec("normal", sigma=1.0), TWO_SCALE)
        np.testing.assert_allclose(a.values, b.values, rtol=1e-9, atol=1e-9)


class TestZeroOnClip:
    """Wherever every annulus estimate clips to the null, T is exactly 0."""

    def test_all_families(self):
        rng = np.random.default_rng(79)
        y = rng.integers(0, 8, size=(11, 11))
        n = np.full((11, 11), 40)
        ladder = ScaleLadder.of("square", [0, 2])
        cases = [
            stat_field(Grid(y), ModelSpec("binomial", trials=Grid(n)), ladder),
            stat_field(Grid(np.maximum(y, 1)), ModelSpec("poisson"), ladder),
            stat_field(Grid(y.astype(float)), ModelSpec("normal", sigma=1.0), ladder),
        ]
        grids = [y, np.maximum(y, 1), y]
        models = [
            ModelSpec("binomial", trials=Grid(n)),
            ModelSpec("poisson"),
            ModelSpec("normal", sigma=1.0),
        ]
        for field, vals, model in zip(cases, grids, models):
            g = Grid(vals)
            null = estimate_null(g, model)
            trials = None if model.trials is None else model.trials.values
            clipped_everywhere = 0
            for i in range(11):
                for j in range(11):
                    _, est = oracle_estimates(vals, model.family, ladder, (i, j), trials=trials)
                    if np.all(np.array(est) == null):
                        clipped_everywhere += 1
                        assert field.values[i, j] == 0.0
            assert clipped_everywhere > 0  # the check must actually bite

    def test_no_negative_zero(self):
        rng = np.random.default_rng(79)
        y = rng.integers(0, 8, size=(11, 11))
        ladder = ScaleLadder.of("square", [0, 2])
        cases = [
            stat_field(Grid(y), ModelSpec("binomial", trials=Grid(np.full((11, 11), 40))), ladder),
            stat_field(Grid(np.maximum(y, 1)), ModelSpec("poisson"), ladder),
            stat_field(Grid(y - 7.0), ModelSpec("normal", sigma=1.0), ladder),
        ]
        for field in cases:
            zeros = field.values == 0.0
            assert zeros.any()
            assert not np.signbit(field.values[zeros]).any(), field.model.family


def random_family_data(family, rows, cols, rng):
    """Values, trials (Binomial) and sigma (Normal) with per-cell rates or means."""
    trials = sigma = None
    if family == "binomial":
        trials = rng.integers(1, 40, size=(rows, cols))
        y = rng.binomial(trials, rng.uniform(0.05, 0.95, size=(rows, cols)))
    elif family == "poisson":
        y = rng.poisson(rng.uniform(1.0, 8.0, size=(rows, cols)))
        assume(np.median(y) > 0)  # a null rate of 0 admits no likelihood ratio
    else:
        sigma = float(rng.uniform(0.5, 2.0))
        y = rng.normal(rng.uniform(-1.0, 1.0, size=(rows, cols)), sigma)
    return y, trials, sigma


def family_model(family, trials, sigma):
    return ModelSpec(family, trials=None if trials is None else Grid(trials), sigma=sigma)


@given(
    family=st.sampled_from(FAMILIES),
    rows=st.integers(6, 9),  # at least twice the largest radius: no annulus clips to empty
    cols=st.integers(6, 9),
    ladder=ladders(max_radius=3),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_stat_field_matches_oracle_property(family, rows, cols, ladder, seed):
    y, trials, sigma = random_family_data(family, rows, cols, np.random.default_rng(seed))
    field = stat_field(Grid(y), family_model(family, trials, sigma), ladder)
    want = oracle_stat_grid(y, family, ladder, trials=trials, sigma=sigma)
    np.testing.assert_allclose(field.values, want, rtol=1e-9, atol=1e-9)


@given(
    family=st.sampled_from(FAMILIES),
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_estimate_null_invariant_under_cell_permutation(family, rows, cols, seed):
    rng = np.random.default_rng(seed)
    y, trials, sigma = random_family_data(family, rows, cols, rng)
    order = rng.permutation(rows * cols)

    def permuted(a):
        return None if a is None else a.ravel()[order].reshape(rows, cols)

    want = estimate_null(Grid(y), family_model(family, trials, sigma))
    got = estimate_null(Grid(permuted(y)), family_model(family, permuted(trials), sigma))
    assert got.hex() == want.hex()


@given(
    family=st.sampled_from(FAMILIES),
    ladder=ladders(max_radius=3),
    extra=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    shift=st.tuples(st.integers(0, 30), st.integers(0, 30)),
    known_sigma=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_stat_is_translation_equivariant(family, ladder, extra, shift, known_sigma, seed):
    # T at a pixel reads its widest window plus grid-wide estimates that no
    # permutation changes, so a pixel whose widest window lies inside the grid
    # before and after np.roll keeps its T. Sides of 4 * reach + 2 or more
    # leave some pixel inside in both positions
    reach = ladder.windows[-1].radius
    rows, cols = 4 * reach + 2 + extra[0], 4 * reach + 2 + extra[1]
    y, trials, sigma = random_family_data(family, rows, cols, np.random.default_rng(seed))
    if not known_sigma:
        sigma = None  # the robust estimate for Normal; unused otherwise

    def stat(roll):
        moved = [None if a is None else np.roll(a, roll, (0, 1)) for a in (y, trials)]
        return stat_field(Grid(moved[0]), family_model(family, moved[1], sigma), ladder).values

    def inside(n, step):
        i = np.arange(n)
        ok = (i >= reach) & (i < n - reach)
        return ok & ok[(i + step) % n]

    keep = np.outer(inside(rows, shift[0]), inside(cols, shift[1]))
    assert keep.any()
    want = stat((0, 0))[keep]
    got = np.roll(stat(shift), (-shift[0], -shift[1]), (0, 1))[keep]
    if family == "normal":  # real sums; seen bit-equal too on these grids
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    else:  # integer window sums are exact, so T is too
        np.testing.assert_array_equal(got, want)


def test_adjusted_proportions_strictly_inside_unit_interval():
    y = np.array([[0, 10], [5, 0]])
    n = np.array([[10, 10], [10, 10]])
    p = adjusted_proportions(Grid(y), Grid(n))
    assert np.all((p > 0) & (p < 1))
    assert p[0, 0] == pytest.approx(1 / 12)
    assert p[0, 1] == pytest.approx(11 / 12)


def test_robust_sigma_known_values():
    v = np.array([1.0, 1.0, 1.0, 1.0, 9.0])
    # median 1, abs deviations (0,0,0,0,8), MAD 0 -> sigma 0
    assert robust_sigma(v) == 0.0
    v = np.array([0.0, 1.0, 2.0, 3.0, 100.0])
    assert robust_sigma(v) == pytest.approx(1.4826)
