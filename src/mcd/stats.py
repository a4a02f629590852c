"""Per-pixel multi-scale likelihood-ratio statistic T(s) = -2 log Lambda.

Three observation models are supported on the same machinery:

* Binomial counts with a per-cell trials map; cell-level proportions are
  shrunk as (Y+1)/(N+2) before any median is taken.
* Poisson counts with unit exposure per cell.
* Normal observations with known (or robustly estimated) sigma.

The null parameter is the grid-wide median; alternative estimates per
scale come from the annulus D_r \\ D_{r-1} of the window ladder
(median of adjusted proportions for Binomial, pooled mean otherwise),
clipped below by the null estimate so the alternative can only be an
elevation. The Binomial annulus median is exact (it agrees with
np.median over the enumerated annulus) and is found by rank selection on
the distinct cell values, in O(rows * cols) memory whatever the annulus
size; level indices, counts and ranks are held in the narrowest unsigned
dtypes that fit (one byte per pixel for up to 255 levels or annulus
cells). Scale weights are increment cardinalities, so a radius-0
first scale contributes with weight 1.

T is built in one pass over the ladder: each scale's window sums come
from summed-area tables, and only the previous scale's sums and the
running total are kept, so memory is linear in the grid and does not
depend on the number of scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateDataError,
    InternalInvariantError,
    InvalidInputError,
)
from .grid import Grid, ScaleLadder, build_sat, shifted_slices, validate_trials, window_sum_field

FAMILIES = ("binomial", "poisson", "normal")

# MAD-to-sigma factor for the Normal family (1/Phi^{-1}(3/4))
MAD_SCALE = 1.4826


@dataclass(frozen=True)
class ModelSpec:
    """Observation model: family plus its family-specific parameters.

    Everything else that differs between families lives here too: the
    per-cell values, the Normal noise scale and the per-cell sampler.
    """

    family: str
    trials: Grid | None = None
    sigma: float | None = None

    def __post_init__(self):
        family = self.family.lower()
        object.__setattr__(self, "family", family)
        if family not in FAMILIES:
            raise ConfigurationError(f"unknown model family {self.family!r}")
        if (family == "binomial") != (self.trials is not None):
            raise ConfigurationError("trials map is required for Binomial and forbidden otherwise")
        if self.trials is not None and not isinstance(self.trials, Grid):
            raise ConfigurationError(f"trials must be a Grid, got {type(self.trials).__name__}")
        if self.sigma is not None:
            if family != "normal":
                raise ConfigurationError("sigma only applies to the Normal family")
            if not (self.sigma > 0):
                raise ConfigurationError(f"sigma must be positive, got {self.sigma}")

    def check_counts(self, grid: Grid) -> None:
        """Refuse a grid the family cannot model.

        Binomial counts must fit the trials map; Poisson counts must be
        nonnegative integers. Normal values are unconstrained.
        """
        if self.family == "binomial":
            validate_trials(grid, self.trials)
        elif self.family == "poisson" and (not grid.is_integer() or np.any(grid.values < 0)):
            raise InvalidInputError("Poisson model needs nonnegative integer counts")

    def cell_values(self, grid: Grid) -> np.ndarray:
        """Per-cell values the null and the annulus estimates run over.

        Adjusted proportions (Y+1)/(N+2) for Binomial, the raw values otherwise.
        """
        if self.family == "binomial":
            return adjusted_proportions(grid, self.trials)
        return np.asarray(grid.values, dtype=float)

    def noise_sigma(self, grid: Grid) -> float:
        """Normal noise scale: the given sigma, else the MAD estimate of the grid."""
        sigma = self.sigma if self.sigma is not None else robust_sigma(grid.values)
        if sigma == 0.0:
            raise DegenerateDataError("robust sigma estimate is 0; supply sigma explicitly")
        return sigma

    def sample(self, rng: np.random.Generator, mean: np.ndarray) -> np.ndarray:
        """One draw per cell with mean `mean` (a success probability for Binomial).

        Normal draws use `sigma`, which must be set.
        """
        if self.family == "binomial":
            return rng.binomial(self.trials.values, mean)
        if self.family == "poisson":
            return rng.poisson(mean)
        return rng.normal(mean, self.sigma)

    def llr(self, y, e, theta1, theta0):
        """Log-likelihood ratio l(theta1) - l(theta0) of a total `y` over exposure `e`.

        Exposure is the trials for Binomial and the cell count otherwise. For
        Normal the result is sigma^2 times the ratio, so callers divide by
        sigma^2. A term whose count is 0 contributes 0 whatever its rate (the
        xlogy convention), which keeps rates of 0 or 1 finite.
        """
        if self.family == "normal":
            return y * (theta1 - theta0) + e * (theta0 * theta0 - theta1 * theta1) / 2
        with np.errstate(divide="ignore", invalid="ignore"):
            llr = _xlogratio(y, np.log(theta1), np.log(theta0))
            if self.family == "binomial":
                return llr + _xlogratio(e - y, np.log1p(-theta1), np.log1p(-theta0))
        return llr - e * (theta1 - theta0)


def _xlogratio(count, log1, log0):
    """count * (log1 - log0), and 0 where the count is 0."""
    return np.where(count == 0, 0.0, count * (log1 - log0))


@dataclass(frozen=True)
class StatField:
    """Grid-shaped field of T(s) values for a fitted model and ladder."""

    values: np.ndarray
    model: ModelSpec
    ladder: ScaleLadder

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise InternalInvariantError("statistic field contains non-finite entries")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def adjusted_proportions(counts: Grid, trials: Grid) -> np.ndarray:
    """Shrunk per-cell proportions (Y+1)/(N+2), always strictly inside (0, 1)."""
    validate_trials(counts, trials)
    return (counts.values + 1.0) / (trials.values + 2.0)


def robust_sigma(values: np.ndarray) -> float:
    """MAD-based scale estimate, resistant to a localized signal region."""
    v = np.asarray(values, dtype=float)
    return MAD_SCALE * float(np.median(np.abs(v - np.median(v))))


def estimate_null(grid: Grid, model: ModelSpec) -> float:
    """Grid-wide null parameter: the median cell value (adjusted for Binomial).

    A Poisson null rate of 0 (median count 0) admits no likelihood ratio
    and raises DegenerateDataError.
    """
    null = float(np.median(model.cell_values(grid)))
    if model.family == "poisson" and null == 0.0:
        raise DegenerateDataError("null rate estimate is 0 (median count is 0)")
    return null


def _rank_level(idx: np.ndarray, pairs, rank: np.ndarray, top: int) -> np.ndarray:
    """Per pixel, the smallest level index q with more than `rank` annulus cells idx <= q.

    Bisection on [0, top]: each probe counts the annulus cells at or below
    the probe with one compare per offset, so memory stays a few fields.
    Levels keep the dtype of `idx` and counts that of `rank`, so the caller
    picks dtypes that hold `top + 1` and the largest annulus size.
    """
    lo = np.zeros(idx.shape, dtype=idx.dtype)
    hi = np.full(idx.shape, top, dtype=idx.dtype)
    count = np.empty(idx.shape, dtype=rank.dtype)
    for _ in range(top.bit_length()):  # ceil(log2(top + 1)) halvings
        mid = lo + ((hi - lo) >> 1)
        count.fill(0)
        for dst, src in pairs:
            count[dst] += idx[src] <= mid[dst]
        above = count > rank
        np.copyto(hi, mid, where=above)
        np.copyto(lo, mid + 1, where=~above)
    return lo


def _annulus_medians(cellvals: np.ndarray, ladder: ScaleLadder):
    """Clipped-annulus median of `cellvals` around every pixel, yielded scale by scale.

    Exact: the median of c values is the mean of the order statistics of
    ranks (c-1)//2 and c//2, each selected on the indices of the distinct
    cell values, so no stack of annulus values, or of scales, is built.
    """
    levels, idx = np.unique(cellvals, return_inverse=True)
    # the narrowest unsigned dtypes that hold every level index and count:
    # the bisection is memory-bound, so fewer bytes per pixel run faster
    idx = idx.reshape(cellvals.shape).astype(np.min_scalar_type(levels.size))
    yield cellvals  # the radius-0 annulus is the pixel itself
    for r in range(1, ladder.scale_count):
        pairs = shifted_slices(cellvals.shape, ladder.annulus_offsets(r))
        size = np.zeros(cellvals.shape, dtype=np.min_scalar_type(len(pairs)))
        for dst, _ in pairs:
            size[dst] += 1
        if np.any(size == 0):
            raise InternalInvariantError(f"annulus {r} clips to empty somewhere on the grid")
        q_lo = _rank_level(idx, pairs, (size - 1) // 2, levels.size - 1)
        q_hi = _rank_level(idx, pairs, size // 2, levels.size - 1)
        yield (levels[q_lo] + levels[q_hi]) / 2


def stat_field(grid: Grid, model: ModelSpec, ladder: ScaleLadder) -> StatField:
    """T(s) = 2 * sum_r [l(alt_r) - l(null)] over the ladder's annuli.

    The alternative at scale r is the annulus median of the cell values
    for Binomial and the pooled annulus mean otherwise, clipped below by
    the null; the likelihood ratio is `ModelSpec.llr` on the annulus
    totals, which are each scale's window sums less the previous scale's.
    """
    model.check_counts(grid)
    null = estimate_null(grid, model)
    sigma = model.noise_sigma(grid) if model.family == "normal" else 1.0
    binomial = model.family == "binomial"
    sat = build_sat(grid)
    trials_sat = build_sat(model.trials) if binomial else None
    medians = _annulus_medians(model.cell_values(grid), ladder) if binomial else None
    total = np.zeros(grid.shape)
    x_prev = e_prev = 0
    for window in ladder.windows:
        x, e = window_sum_field(sat, window)  # exposure e is the cell count,
        if binomial:  # or the trials
            e, _ = window_sum_field(trials_sat, window)
        dx, de = x.astype(np.float64) - x_prev, e.astype(np.float64) - e_prev
        if np.any(de == 0):
            raise InternalInvariantError("a ladder annulus clips to empty on this grid")
        alt = dx / de if medians is None else next(medians)
        # scale by scale, the same additions as summing a stack over its scale axis
        total += model.llr(dx, de, np.maximum(alt, null), null)
        x_prev, e_prev = x, e
    # dividing by sigma^2 after the sum (1 for the count families) keeps T exact
    return StatField(values=2.0 * total / (sigma * sigma), model=model, ladder=ladder)
