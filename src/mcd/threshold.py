"""Threshold selection by neighborhood variability.

The statistic field T(s) separates cluster from background, but its
null distribution is unusable for calibration. Instead: compute a
local-variability field V(s) (boundaries of a true cluster light up),
lay an arithmetic ladder of K thresholds over [min T, max T], average V
within each belt {t_k < T <= t_{k+1}}, and put the cut where that
average peaks — the belt that straddles the cluster boundary. The final
mask keeps pixels with T strictly above the midpoint of the winning
belt.

Belt means are sample averages, so a belt holding one or two pixels can
post an arbitrarily large mean by luck and hijack the argmax. The scan
therefore takes an occupancy floor: belts with fewer pixels than the
floor are left out of the argmax (they still appear in the diagnostics).
The low-level default of 1 keeps every non-empty belt eligible;
`run_detection` scales the floor with the grid size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError, InvalidInputError, NoSignalError
from .grid import CROSS_OFFSETS, Grid, ScaleLadder, shifted_slices
from .stats import ModelSpec, StatField, stat_field

CONSTANT_FIELD = "statistic field is constant; no threshold separates anything"


@dataclass(frozen=True)
class VarField:
    """Grid-shaped neighborhood-variability field V(s) >= 0."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise InternalInvariantError("variability field must be finite and nonnegative")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ThresholdScan:
    """Belt diagnostics of one threshold scan.

    `thresholds` has K entries; belt k (0-based, k = 0..K-2) spans
    (thresholds[k], thresholds[k+1]]. Pixels sitting exactly at the
    minimum statistic fall in no belt. `belt_means` holds NaN for empty
    belts; belts below the occupancy floor used by the scan are excluded
    from the argmax but their means are still reported. `peak_ratio` is
    the winning belt mean over the global mean of V — a rough no-signal
    diagnostic (near 1 on pure noise), not a calibrated test.
    """

    thresholds: np.ndarray
    belt_means: np.ndarray
    belt_counts: np.ndarray
    k_star: int
    t_star: float
    peak_ratio: float

    def __post_init__(self):
        t = self.thresholds
        if np.any(np.diff(t) <= 0):
            raise InternalInvariantError("thresholds must be strictly increasing")
        if not self.belt_counts[self.k_star]:
            raise InternalInvariantError("chosen belt is empty")
        if not math.isclose(self.t_star, 0.5 * (t[self.k_star] + t[self.k_star + 1])):
            raise InternalInvariantError("t_star is not the midpoint of the chosen belt")


@dataclass(frozen=True)
class DetectionResult:
    """Final detection: mask = {s : T(s) > t_star}, with the fields behind it.

    When T is constant no threshold separates anything: the mask is empty,
    `t_star` is NaN and `scan` is None.
    """

    stat: StatField
    var: VarField
    mask: np.ndarray
    t_star: float
    scan: ThresholdScan | None = None

    @property
    def detected_count(self) -> int:
        return int(self.mask.sum())


def neighborhood_variability(grid: Grid, model: ModelSpec) -> VarField:
    """Sample variance of each pixel with its in-grid 4-neighbors.

    ddof=1 with the clipped neighbor count (3 to 5 values after edge
    clipping). Binomial grids are converted to adjusted proportions
    first so uneven trial counts do not read as spatial structure.
    """
    if grid.rows < 2 or grid.cols < 2:
        raise InvalidInputError("variability needs a grid of at least 2x2")
    cellvals = model.cell_values(grid)
    pairs = shifted_slices(cellvals.shape, CROSS_OFFSETS)
    # np.nanvar's additions, in its order: count and total, the mean, then
    # the squared deviations, each summed over the offsets in turn
    count = np.zeros(cellvals.shape, dtype=np.uint8)
    total = np.zeros(cellvals.shape)
    for dst, src in pairs:
        count[dst] += 1
        total[dst] += cellvals[src]
    mean = total / count
    squares = np.zeros(cellvals.shape)
    for dst, src in pairs:
        dev = cellvals[src] - mean[dst]
        squares[dst] += dev * dev
    return VarField(values=squares / (count - 1))


def auto_min_belt_count(n_pixels: int) -> int:
    """Occupancy floor scaled to the grid: 0.2% of pixels, at least 1."""
    return max(1, round(0.002 * n_pixels))


def scan_thresholds(
    stat: StatField,
    var: VarField,
    threshold_count: int = 100,
    min_belt_count: int = 1,
) -> ThresholdScan:
    """Arithmetic threshold ladder, belt means of V, and the winning belt.

    Belts holding fewer than `min_belt_count` pixels are ineligible for
    the argmax; if no belt qualifies, eligibility falls back to every
    non-empty belt. Ties go to the smallest k (the lower threshold).
    """
    if threshold_count < 3:
        raise InvalidInputError(f"threshold_count must be >= 3, got {threshold_count}")
    if min_belt_count < 1:
        raise InvalidInputError(f"min_belt_count must be >= 1, got {min_belt_count}")
    t_vals = stat.values
    v_vals = var.values
    if t_vals.shape != v_vals.shape:
        raise InvalidInputError(f"shape mismatch: T {t_vals.shape} vs V {v_vals.shape}")
    t_min = float(t_vals.min())
    t_max = float(t_vals.max())
    if t_min == t_max:
        raise NoSignalError(CONSTANT_FIELD)
    thresholds = np.linspace(t_min, t_max, threshold_count)
    # belt of value v: first k with v <= t_{k+1}; exactly-min values land in belt -1
    belt = np.searchsorted(thresholds, t_vals.ravel(), side="left") - 1
    in_belt = belt >= 0
    n_belts = threshold_count - 1
    counts = np.bincount(belt[in_belt], minlength=n_belts)
    sums = np.bincount(belt[in_belt], weights=v_vals.ravel()[in_belt], minlength=n_belts)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    eligible = counts >= min_belt_count
    if not eligible.any():
        eligible = counts > 0
    ranked = np.where(eligible, means, -np.inf)
    k_star = int(np.argmax(ranked))  # first occurrence wins ties
    if not np.isfinite(ranked[k_star]):
        raise InternalInvariantError("no non-empty belt found")
    t_star = 0.5 * (thresholds[k_star] + thresholds[k_star + 1])
    return ThresholdScan(
        thresholds=thresholds,
        belt_means=means,
        belt_counts=counts,
        k_star=k_star,
        t_star=float(t_star),
        peak_ratio=float(means[k_star] / v_vals.mean()),
    )


def run_detection(
    grid: Grid,
    model: ModelSpec,
    ladder: ScaleLadder = ScaleLadder.default_two_scale(),
    threshold_count: int = 100,
    min_belt_count: int | None = None,
) -> DetectionResult:
    """Full pipeline: statistic, variability, threshold scan, mask.

    `min_belt_count=None` scales the occupancy floor with the grid
    (`auto_min_belt_count`); pass 1 to keep every non-empty belt
    eligible. A constant statistic field (e.g. data that clips to the
    null everywhere) gives an empty mask, `t_star` NaN and no scan.
    """
    if min_belt_count is None:
        min_belt_count = auto_min_belt_count(grid.rows * grid.cols)
    stat = stat_field(grid, model, ladder)
    var = neighborhood_variability(grid, model)
    try:
        scan = scan_thresholds(stat, var, threshold_count, min_belt_count=min_belt_count)
    except NoSignalError:
        return DetectionResult(stat, var, np.zeros(grid.shape, dtype=bool), math.nan)
    return DetectionResult(stat, var, stat.values > scan.t_star, scan.t_star, scan)
