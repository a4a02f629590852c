"""Seeded simulation experiments, metrics, ROC curves, and theorem checks.

Every output is a pure function of the configuration and seed: replicate
r draws from a generator keyed by (seed, r), and summaries are ordered
reductions over replicates, so execution order cannot change results.
`theorem_checks` reads both theory checks off each replicate it draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import check_radii, circular_scan, pixel_pvalues, scan_zones, storey_fdr
from .errors import (
    ConfigurationError,
    InvalidInputError,
    UndefinedMetricError,
)
from .grid import Grid, ScaleLadder, WindowSpec
from .shapes import boundary_partition, boundary_type_counts, gen_shape
from .stats import FAMILIES, ModelSpec, stat_field
from .threshold import neighborhood_variability, run_detection

METHODS = ("mcd", "fdr", "scan")

# numpy's Poisson sampler refuses a mean above about 9.22e18
POISSON_MAX_RATE = 9e18


@dataclass(frozen=True)
class SimConfig:
    """One simulation setting: grid, model, signal, methods, seed."""

    dims: tuple[int, int] = (100, 100)
    family: str = "binomial"
    shape: str = "lshape"
    null_param: float = 0.2
    alt_param: float = 0.25
    trials: int = 100
    sigma: float = 1.0
    replicates: int = 100
    seed: int = 0
    methods: tuple[str, ...] = ("mcd",)
    ladder: ScaleLadder = ScaleLadder.default_two_scale()
    threshold_count: int = 100
    min_belt_count: int | None = None
    fdr_alpha: float = 0.6
    fdr_lambda: float = 0.5
    scan_radii: tuple[int, ...] = tuple(range(1, 21))
    scan_reps: int = 99
    cluster_alpha: float = 0.05
    disc_radius: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown family {self.family!r}")
        if not -np.inf < self.null_param < self.alt_param < np.inf:
            raise ConfigurationError("null_param and alt_param must be finite, with alt_param above "
                                     f"null_param (got {self.null_param}, {self.alt_param})")
        if self.family == "binomial" and not (0.0 < self.null_param < self.alt_param < 1.0):
            raise ConfigurationError("binomial rates must satisfy 0 < null_param < alt_param < 1")
        if self.family == "poisson" and not self.null_param > 0.0:
            raise ConfigurationError(f"poisson null_param must be positive, got {self.null_param}")
        if self.family == "poisson" and self.alt_param > POISSON_MAX_RATE:
            raise ConfigurationError(
                f"poisson alt_param must be at most {POISSON_MAX_RATE:g}, got {self.alt_param}")
        if self.family == "binomial" and self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")
        if self.replicates < 2:  # the summaries report a sample standard deviation
            raise ConfigurationError(f"replicates must be >= 2, got {self.replicates}")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigurationError(
                    f"methods: unknown method {m!r}; expected subset of {METHODS}")
        if self.threshold_count < 3:
            raise ConfigurationError(f"threshold_count must be >= 3, got {self.threshold_count}")
        if self.min_belt_count is not None and self.min_belt_count < 1:
            raise ConfigurationError(
                f"min_belt_count must be >= 1 or auto, got {self.min_belt_count}")
        if self.scan_reps < 19:
            raise ConfigurationError(
                f"scan_reps must be >= 19 for usable p-values, got {self.scan_reps}")
        if not 0.0 < self.cluster_alpha < 1.0:
            raise ConfigurationError(f"cluster_alpha must be in (0,1), got {self.cluster_alpha}")
        if not 0.0 < self.fdr_alpha < 1.0:
            raise ConfigurationError(f"fdr_alpha must be in (0,1), got {self.fdr_alpha}")
        if not 0.0 < self.fdr_lambda < 1.0:
            raise ConfigurationError(f"fdr_lambda must be in (0,1), got {self.fdr_lambda}")
        radii = check_radii(self.scan_radii, "scan_radii")
        rows, cols = self.dims
        if rows < 1 or cols < 1:
            raise ConfigurationError(f"dims must be positive, got {rows}x{cols}")
        self.ladder.check_fits(self.dims)
        try:
            self.truth_mask()
        except InvalidInputError as exc:
            raise ConfigurationError(
                f"cannot draw the truth mask from shape, dims and disc_radius: {exc}") from None
        if "scan" in self.methods:  # the zone table depends only on dims and the trials
            trials = self.model().trials
            try:
                scan_zones(trials, self.dims, radii)
            except ConfigurationError as exc:
                raise ConfigurationError(f"scan_radii: {exc}") from None

    def truth_mask(self) -> np.ndarray:
        return gen_shape(self.shape, self.dims, radius=self.disc_radius)

    def model(self) -> ModelSpec:
        trials = Grid(np.full(self.dims, self.trials)) if self.family == "binomial" else None
        sigma = self.sigma if self.family == "normal" else None
        return ModelSpec(self.family, trials=trials, sigma=sigma)


@dataclass(frozen=True)
class Metrics:
    sensitivity: float
    specificity: float

    def __post_init__(self):
        for v in (self.sensitivity, self.specificity):
            if not 0.0 <= v <= 1.0:
                raise UndefinedMetricError(f"metric outside [0,1]: {v}")


@dataclass(frozen=True)
class MethodSummary:
    """Replicate-aggregated performance of one method."""

    sens_mean: float
    sens_std: float
    spec_mean: float
    spec_std: float
    prob_map: np.ndarray
    sensitivities: np.ndarray
    specificities: np.ndarray


@dataclass(frozen=True)
class ExperimentSummary:
    config: SimConfig
    truth: np.ndarray
    methods: dict[str, MethodSummary]


@dataclass(frozen=True)
class TheoremReport:
    """Monte Carlo record of both theorem checks over the same replicates."""

    n_noise: int
    n_boundary: int
    n_signal: int
    replicates: int
    ordered: np.ndarray  # per-replicate theorem 1 indicator: noise < boundary < signal
    dominant: np.ndarray  # per-replicate theorem 2 indicator: boundary V above the rest
    ave_stat: tuple[float, float, float]  # (noise, boundary, signal)
    ave_var_boundary: float
    ave_var_rest: float
    vtilde_boundary: float
    vtilde_expected: float

    def __post_init__(self):
        if self.n_noise + self.n_boundary + self.n_signal <= 0:
            raise ConfigurationError("empty pixel partition")


def simulate_grid(config: SimConfig, replicate_index: int):
    """Data grid and truth mask for one replicate; keyed by (seed, index)."""
    truth = config.truth_mask()
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, replicate_index)))
    mean = np.where(truth, config.alt_param, config.null_param)
    return Grid(config.model().sample(rng, mean)), truth


def sensitivity_specificity(detected: np.ndarray, truth: np.ndarray) -> Metrics:
    """Fraction of signal cells found and noise cells left alone."""
    detected = np.asarray(detected, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if detected.shape != truth.shape:
        raise InvalidInputError(f"shape mismatch: {detected.shape} vs {truth.shape}")
    n_signal = int(truth.sum())
    n_noise = truth.size - n_signal
    if n_signal == 0 or n_noise == 0:
        raise UndefinedMetricError("truth mask must contain both signal and noise cells")
    sens = float((detected & truth).sum() / n_signal)
    spec = float((~detected & ~truth).sum() / n_noise)
    return Metrics(sensitivity=sens, specificity=spec)


def _detect_one(config: SimConfig, method: str, grid: Grid, model: ModelSpec,
                replicate_index: int) -> np.ndarray:
    if method == "mcd":
        return run_detection(
            grid, model,
            ladder=config.ladder,
            threshold_count=config.threshold_count,
            min_belt_count=config.min_belt_count,
        ).mask
    if method == "fdr":
        pvals = pixel_pvalues(grid, model)
        return storey_fdr(pvals, alpha=config.fdr_alpha, lam=config.fdr_lambda).mask
    scan_seed = int(np.random.SeedSequence((config.seed, replicate_index)).generate_state(1)[0])
    return circular_scan(
        grid, model,
        radii=config.scan_radii,
        mc_reps=config.scan_reps,
        cluster_alpha=config.cluster_alpha,
        seed=scan_seed,
    ).mask


def run_experiment(config: SimConfig) -> ExperimentSummary:
    """Replicated detection with per-method metric summaries and maps."""
    truth = config.truth_mask()
    model = config.model()
    sens = {m: [] for m in config.methods}
    spec = {m: [] for m in config.methods}
    counts = {m: np.zeros(config.dims, dtype=np.int64) for m in config.methods}
    for rep in range(config.replicates):
        grid, _ = simulate_grid(config, rep)
        for method in config.methods:
            try:
                mask = _detect_one(config, method, grid, model, rep)
            except Exception as exc:
                raise type(exc)(f"replicate {rep}, method {method}: {exc}") from exc
            metrics = sensitivity_specificity(mask, truth)
            sens[method].append(metrics.sensitivity)
            spec[method].append(metrics.specificity)
            counts[method] += mask
    summaries = {}
    for method in config.methods:
        s = np.asarray(sens[method])
        p = np.asarray(spec[method])
        summaries[method] = MethodSummary(
            sens_mean=float(s.mean()), sens_std=float(s.std(ddof=1)),
            spec_mean=float(p.mean()), spec_std=float(p.std(ddof=1)),
            prob_map=counts[method] / config.replicates,
            sensitivities=s, specificities=p,
        )
    return ExperimentSummary(config=config, truth=truth, methods=summaries)


def roc_curve(stat, truth: np.ndarray, points: int = 101) -> np.ndarray:
    """(1 - specificity, sensitivity) pairs over a threshold sweep.

    Thresholds run over [min T, max T]; the fixed endpoints (0,0) and
    (1,1) are appended so the curve spans the unit square. Rows are
    sorted by false-positive rate.
    """
    if points < 2:
        raise InvalidInputError(f"points must be >= 2, got {points}")
    t_vals = np.asarray(stat.values if hasattr(stat, "values") else stat, dtype=float)
    truth = np.asarray(truth, dtype=bool)
    n_signal = int(truth.sum())
    n_noise = truth.size - n_signal
    if n_signal == 0 or n_noise == 0:
        raise UndefinedMetricError("truth mask must contain both signal and noise cells")
    thresholds = np.linspace(t_vals.min(), t_vals.max(), points)
    pairs = [(0.0, 0.0), (1.0, 1.0)]
    for t in thresholds:
        mask = t_vals > t
        pairs.append((float((mask & ~truth).sum() / n_noise), float((mask & truth).sum() / n_signal)))
    pts = np.array(sorted(pairs))
    return pts


def auc(points: np.ndarray) -> float:
    """Trapezoidal area under an ROC point list."""
    pts = np.asarray(points, dtype=float)
    return float(np.trapezoid(pts[:, 1], pts[:, 0]))


def theorem_checks(delta: float, dims=(100, 100), shape: str = "disc", seed: int = 0,
                   reps: int = 200, radius=None) -> TheoremReport:
    """Both theory checks on the same replicates: normal data, unit noise.

    Theorem 1: class averages of T on the cross-shaped ladder are ordered
    noise < boundary < signal. Theorem 2: mean V is higher over boundary
    cells than elsewhere; Vtilde = 4V over boundary cells is reported with
    its expectation 4 + mean_k(k delta^2 - k^2 delta^2 / 5) over the shape's
    boundary-type mix.
    """
    # delta = 0 is allowed: the checks then measure the chance-level
    # baseline (the theorems' hypotheses exclude it, the machinery does not)
    if not 0 <= delta < np.inf:
        raise ConfigurationError(f"delta must be nonnegative and finite, got {delta}")
    try:
        truth = gen_shape(shape, dims, radius=radius)
    except InvalidInputError as exc:
        raise ConfigurationError(str(exc)) from None
    noise_in, boundary, signal_in = boundary_partition(truth)
    if not boundary.any() or not noise_in.any() or not signal_in.any():
        raise ConfigurationError("degenerate partition: need noise, boundary, and signal cells")
    ladder = ScaleLadder((WindowSpec("square", 0), WindowSpec("circle", 1)))
    model = ModelSpec("normal", sigma=1.0)
    aves = np.zeros((reps, 3))
    ave_b = np.zeros(reps)
    ave_rest = np.zeros(reps)
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence((seed, rep)))
        grid = Grid(model.sample(rng, truth * delta))
        t = stat_field(grid, model, ladder).values
        v = neighborhood_variability(grid, model).values
        aves[rep] = (t[noise_in].mean(), t[boundary].mean(), t[signal_in].mean())
        ave_b[rep] = v[boundary].mean()
        ave_rest[rep] = v[~boundary].mean()
    n_b = int(boundary.sum())
    c_bar = sum(cnt * (k * delta**2 - k**2 * delta**2 / 5.0)
                for k, cnt in boundary_type_counts(truth).items()) / n_b
    mean_aves = aves.mean(axis=0)
    return TheoremReport(
        n_noise=int(noise_in.sum()), n_boundary=n_b, n_signal=int(signal_in.sum()),
        replicates=reps,
        ordered=(aves[:, 0] < aves[:, 1]) & (aves[:, 1] < aves[:, 2]),
        dominant=ave_b > ave_rest,
        ave_stat=(float(mean_aves[0]), float(mean_aves[1]), float(mean_aves[2])),
        ave_var_boundary=float(ave_b.mean()), ave_var_rest=float(ave_rest.mean()),
        vtilde_boundary=4.0 * float(ave_b.mean()), vtilde_expected=float(4.0 + c_bar),
    )
