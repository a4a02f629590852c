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
elevation. Scale weights are increment cardinalities, so a radius-0
first scale contributes with weight 1.

The Binomial annulus median is exact: it agrees with np.median over the
enumerated annulus, and memory stays a few bytes per pixel whatever the
annulus size. Each cell is replaced by its level, the index of its value
among the distinct cell values, in the narrowest unsigned dtype that
also holds the sentinel level `levels.size`. The level grid is padded
with the sentinel by the widest radius, at most the grid's longer side
less 1, in rows above and below and in columns left of every row
(flattened, these also follow the row above, so they pad its right end
too), and flattened. Each annulus offset (di, dj) with |di| < rows and
|dj| < cols (no other reaches a cell) is one contiguous slice, shifted
by di * width + dj, and a neighbour off the grid reads the sentinel.
Pixels in the pad columns compute values that are dropped.

The median of c cells is the mean of the levels of ranks (c-1)//2 and
c//2. A bisection over the levels finds the first: each probe compares
one slice per offset with the pixel's probe level and adds up the
results. Only probes above every real level, which count all c cells
anyway, can count the sentinel, so it never decides a step. The
bisection also keeps the count at the top of its range, which ends as
the number of cells at or below the level found. Rank c//2 is on that
same level when the count exceeds c//2; otherwise it is on the next
level present in the annulus, found in one pass as the minimum over the
annulus of the unsigned gap idx - q - 1, in which cells at or below q
wrap past every real gap and the sentinel's gap is the largest.

T is built in one pass over the ladder: each scale's window sums come
from `grid.window_sums`, its exposure from `grid.exposure_sums`, and
only the previous scale's sums and the running total are kept, so memory
is linear in the grid and does not depend on the number of scales.
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
from .grid import Grid, ScaleLadder, exposure_sums, validate_trials, window_sums

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
            if not 0.0 < self.sigma < np.inf:
                raise ConfigurationError(f"sigma must be positive and finite, got {self.sigma}")

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
        xlogy convention), which keeps rates of 0 or 1 finite. An overflow
        is left to the caller, which refuses a non-finite result.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.family == "normal":
                return y * (theta1 - theta0) + e * (theta0 * theta0 - theta1 * theta1) / 2
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


def _annulus_median(flat, levels, shifts, shape, width):
    """Exact median of `levels[flat]` over the annulus `shifts`, around every pixel.

    `flat` is the padded, flattened grid of level indices and each shift
    is one annulus offset; see the module docstring. Returns a (rows,
    cols) field; every per-pixel temporary is freed on return.
    """
    rows, cols = shape
    n = rows * width
    median = np.empty(shape)  # allocated before the temporaries, which then free as one block
    real = (flat < levels.size).view(np.uint8)
    size = np.zeros(n, dtype=np.min_scalar_type(len(shifts)))
    for s in shifts:
        size += real[s:s + n]
    if np.any(size.reshape(rows, width)[:, :cols] == 0):
        raise InternalInvariantError("an annulus clips to empty somewhere on the grid")
    # bisection for q, the level of rank (size-1)//2: the smallest level
    # with more than that many annulus cells at or below it. q lies in
    # [lo, lo + 2 * step - 1]; count_hi is the count at the top of that range
    rank = (size - 1) // 2
    lo = np.zeros(n, dtype=flat.dtype)
    count_hi = size.copy()
    count = np.empty_like(size)
    le = np.empty(n, dtype=bool)
    for bit in reversed(range((levels.size - 1).bit_length())):
        step = lo.dtype.type(1 << bit)
        probe = lo + (step - 1)
        count.fill(0)
        for s in shifts:
            np.less_equal(flat[s:s + n], probe, out=le)
            count += le.view(np.uint8)
        np.greater(count, rank, out=le)  # q is at or below the probe
        count_hi += (count - count_hi) * le
        lo += (~le).view(np.uint8) * step
    # rank size//2 is on the next level in the annulus, q + 1 + min(idx - q - 1)
    # in unsigned arithmetic, where at most size//2 cells lie at or below q
    q_hi = lo
    upper = count_hi <= size // 2
    if upper.any():
        nxt = lo + 1
        gap = np.full(n, np.iinfo(flat.dtype).max, dtype=flat.dtype)
        diff = np.empty_like(gap)
        for s in shifts:
            np.subtract(flat[s:s + n], nxt, out=diff)
            np.minimum(gap, diff, out=gap)
        q_hi = lo + (gap + 1) * upper
    cells = np.s_[:, :cols]
    # every index is in range; "clip" lets take write into `median` unbuffered
    levels.take(lo.reshape(rows, width)[cells], out=median, mode="clip")
    median += levels[q_hi.reshape(rows, width)[cells]]
    median /= 2
    return median


def _annulus_medians(cellvals: np.ndarray, ladder: ScaleLadder):
    """Clipped-annulus median of `cellvals` around every pixel, yielded scale by scale.

    Exact: the median of c values is the mean of the order statistics of
    ranks (c-1)//2 and c//2, each selected on the indices of the distinct
    cell values, so no stack of annulus values, or of scales, is built.
    """
    levels, idx = np.unique(cellvals, return_inverse=True)
    rows, cols = cellvals.shape
    pad = min(ladder.windows[-1].radius, max(rows, cols) - 1)
    width = cols + pad  # a row's pad columns also pad the end of the row above
    start = pad * width + pad  # flat position of cell (0, 0)
    # the sentinel levels.size marks off-grid cells; the narrowest unsigned
    # dtype that holds it also holds every level index: the selection is
    # memory-bound, so fewer bytes per pixel run faster
    flat = np.full(rows * width + 2 * start, levels.size, dtype=np.min_scalar_type(levels.size))
    flat[start:start + rows * width].reshape(rows, width)[:, :cols] = idx.reshape(rows, cols)
    del idx
    yield cellvals  # the radius-0 annulus is the pixel itself
    for r in range(1, ladder.scale_count):
        shifts = [start + di * width + dj for di, dj in ladder.annulus_offsets(r, (rows, cols))]
        yield _annulus_median(flat, levels, shifts, (rows, cols), width)


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
    medians = _annulus_medians(model.cell_values(grid), ladder) if model.family == "binomial" else None
    total = np.zeros(grid.shape)
    x_prev = e_prev = 0
    exposures = exposure_sums(model.trials, grid.shape, ladder.windows)
    for x, e in zip(window_sums(grid.values, ladder.windows), exposures):  # e: counts or trials
        dx, de = x.astype(np.float64) - x_prev, e.astype(np.float64) - e_prev
        if np.any(de == 0):
            raise InternalInvariantError("a ladder annulus clips to empty on this grid")
        alt = dx / de if medians is None else next(medians)
        # scale by scale, the same additions as summing a stack over its scale axis
        total += model.llr(dx, de, np.maximum(alt, null), null)
        x_prev, e_prev = x, e
    # dividing by sigma^2 after the sum (1 for the count families) keeps T exact
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        values = 2.0 * total / (sigma * sigma)
    if not np.isfinite(values).all():  # finite input, so the float range ran out
        raise DegenerateDataError("the statistic overflows double precision: the values are "
                                  "too large, or sigma too small, for this model")
    return StatField(values=values, model=model, ladder=ladder)
