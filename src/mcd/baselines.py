"""Comparison methods: per-pixel tests with FDR control, and a circular scan.

Two alternatives to the multiscale detector, for benchmarking:

* single-scale testing — an exact one-sided p-value per pixel against a
  global null rate, with the rejection cutoff chosen by Storey's direct
  false-discovery-rate estimate;
* a circular scan statistic — the maximum likelihood-ratio over circles
  of varying center and radius, calibrated by Monte Carlo replication
  under the fitted null.

The scan's zone sums, and the dilations that retire the zones a cluster
touches, come from `grid.window_sums`, the one home for window sums.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DegenerateDataError, InternalInvariantError
from .grid import Grid, WindowSpec, exposure_sums, window_sums
from .stats import ModelSpec, estimate_null


@dataclass(frozen=True)
class PValueField:
    """Per-pixel one-sided (upper tail) p-values in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if not np.all((v >= 0.0) & (v <= 1.0)):
            raise InternalInvariantError("p-values must lie in [0, 1]")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class FdrResult:
    """Storey FDR decision: mask = {p <= gamma}."""

    mask: np.ndarray
    gamma: float
    pi0_hat: float
    alpha: float

    @property
    def rejected_count(self) -> int:
        return int(self.mask.sum())


@dataclass(frozen=True)
class ScanCluster:
    """One reported scan zone: a circle with its evidence."""

    center: tuple[int, int]
    radius: int
    mask: np.ndarray
    llr: float
    p_value: float

    @property
    def cell_count(self) -> int:
        return int(self.mask.sum())


@dataclass(frozen=True)
class ScanResult:
    """Ranked disjoint clusters plus the significance-filtered mask."""

    clusters: tuple[ScanCluster, ...]
    mask: np.ndarray
    mc_reps: int
    cluster_alpha: float

    def __post_init__(self):
        llrs = [c.llr for c in self.clusters]
        if any(a < b for a, b in zip(llrs, llrs[1:])):
            raise InternalInvariantError("cluster LLRs must be nonincreasing")
        claimed = np.zeros_like(self.mask, dtype=bool)
        for c in self.clusters:
            if (claimed & c.mask).any():
                raise InternalInvariantError("reported clusters must be disjoint")
            claimed |= c.mask


def pixel_pvalues(
    grid: Grid,
    model: ModelSpec,
    null_param: float | None = None,
    approx: bool = False,
) -> PValueField:
    """One-sided upper-tail p-value of each pixel against a global null.

    Exact tails in closed form from `scipy.special`: Binomial
    P(X >= y | N, p0) = betainc(y, N - y + 1, p0), Poisson
    P(X >= y | lam0) = gammainc(y, lam0), both 1 at y = 0; Normal
    1 - Phi((y - mu0)/sigma) = ndtr(-(y - mu0)/sigma). These equal
    `scipy.stats` `binom.sf(y - 1, ...)`, `poisson.sf(y - 1, ...)` and
    `norm.sf` bit for bit, without importing `scipy.stats`; each exact
    count tail is evaluated once per distinct count (Poisson) or (count,
    trials) pair (Binomial) and gathered back to the cells. `null_param`
    defaults to the same null estimate the statistic uses: the grid-wide
    median cell value for every family (of the adjusted proportions for
    Binomial). `approx=True` switches the two count families to a
    continuity-corrected normal tail, for cross-checking against the
    exact computation.
    """
    from scipy.special import betainc, gammainc, ndtr  # local, so detect never loads scipy

    model.check_counts(grid)
    if null_param is None:
        null_param = estimate_null(grid, model)
    null_param = float(null_param)
    y = grid.values
    if model.family == "binomial":
        if not 0.0 < null_param < 1.0:
            raise ConfigurationError(f"binomial null rate must be in (0,1), got {null_param}")
        n = model.trials.values
        if approx:
            mu = n * null_param
            sd = np.sqrt(n * null_param * (1.0 - null_param))
            p = ndtr(-((y - 0.5 - mu) / sd))
        else:
            p = _per_distinct(lambda yk, nk: np.where(
                yk >= 1, betainc(np.maximum(yk, 1), nk - yk + 1, null_param), 1.0), y, n)
    elif model.family == "poisson":
        if not null_param > 0.0:
            raise ConfigurationError(f"poisson null rate must be positive, got {null_param}")
        if approx:
            p = ndtr(-((y - 0.5 - null_param) / np.sqrt(null_param)))
        else:
            p = _per_distinct(lambda yk, _: np.where(
                yk >= 1, gammainc(np.maximum(yk, 1), null_param), 1.0), y)
    else:
        if not np.isfinite(null_param):
            raise ConfigurationError(f"normal null mean must be finite, got {null_param}")
        p = ndtr(-((y - null_param) / model.noise_sigma(grid)))
    return PValueField(values=np.clip(p, 0.0, 1.0))


def _per_distinct(tail, y, n=None):
    """`tail(y, n)` for every cell, evaluated once per distinct input and gathered back.

    Each cell's input is a slot in a table with one slot per (y, n) pair
    in the grid's count and trials ranges (per count without trials).
    When that table would hold more slots than the grid has cells, every
    cell is evaluated on its own, so no table or key outgrows the grid.
    """
    y0, n0 = int(y.min()), 0 if n is None else int(n.min())
    n_span = 1 if n is None else int(n.max()) - n0 + 1
    slots = (int(y.max()) - y0 + 1) * n_span
    if slots > y.size:
        return tail(y, n)
    slot = y - y0
    if n is not None:
        slot *= n_span
        slot += n
        slot -= n0
    present = np.zeros(slots, dtype=bool)
    present[slot] = True
    distinct = np.flatnonzero(present)
    yk, nk = np.divmod(distinct, n_span)
    table = np.empty(slots)
    table[distinct] = tail(yk + y0, nk + n0)
    return table[slot]


def storey_fdr(pvals: PValueField, alpha: float, lam: float = 0.5) -> FdrResult:
    """Rejection cutoff with estimated false discovery rate <= alpha.

    pi0 is estimated from the p-value mass above `lam` and clipped to
    (0, 1] (lower clip: the value corresponding to a single p-value
    above lam, so an empty upper tail does not zero the estimate). The
    cutoff gamma is the largest observed p-value whose estimated FDR
    pi0 * gamma * m / #{p <= gamma} stays within alpha; if none
    qualifies, gamma = 0 and nothing is rejected.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must be in (0,1), got {alpha}")
    if not 0.0 < lam < 1.0:
        raise ConfigurationError(f"lambda must be in (0,1), got {lam}")
    p = pvals.values
    m = p.size
    floor = 1.0 / ((1.0 - lam) * m)
    pi0 = (p > lam).sum() / ((1.0 - lam) * m)
    pi0 = float(min(1.0, max(pi0, floor)))
    flat = np.sort(p.ravel())
    ranks = np.searchsorted(flat, flat, side="right")  # #{p <= p_(i)} with ties
    ok = pi0 * flat * m / ranks <= alpha
    gamma = float(flat[ok][-1]) if ok.any() else 0.0
    return FdrResult(mask=p <= gamma if gamma > 0.0 else np.zeros_like(p, dtype=bool),
                     gamma=gamma, pi0_hat=pi0, alpha=float(alpha))


def _zone_llrs(model, y_in, e_in, y_tot, e_tot):
    """Vectorized one-sided log likelihood ratios for circular zones.

    `e_in`/`e_tot` is the zone/total exposure: trials for Binomial, cell
    count for Poisson/Normal. Inside and outside are each fitted at their
    own rate against the pooled one; zones whose rate does not exceed the
    outside rate score 0. A Normal model must carry its sigma.
    """
    y_out = y_tot - y_in
    e_out = e_tot - e_in
    r_all = y_tot / e_tot
    # a zone covering the grid has e_out = 0; an overflow leaves a non-finite LLR, which
    # `circular_scan` refuses (numpy's power, the same C pow as Python's, gives inf, not an error)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r_in = y_in / e_in
        r_out = y_out / e_out
        llr = model.llr(y_in, e_in, r_in, r_all) + model.llr(y_out, e_out, r_out, r_all)
        llr /= np.float64(model.sigma or 1.0) ** 2
    return np.where(r_in > r_out, llr, 0.0)


def _zone_llr_fields(model, values, zones, e_tot):
    """One zone-LLR field per radius of one data field, 0 where a zone exceeds half the exposure.

    `zones` holds (window, e_in, allowed) per radius. Count grids (and
    their replicates) stay integer, so their zone sums are exact int64,
    while Normal grids sum in extended precision.
    """
    y_tot = float(values.sum())  # used after the first zone sums, which refuse a total past int64
    for (_, e_in, allowed), y_in in zip(zones, window_sums(values, [w for w, _, _ in zones])):
        yield np.where(allowed, _zone_llrs(model, y_in.astype(np.float64), e_in, y_tot, e_tot), 0.0)


def scan_zones(trials: Grid | None, shape: tuple[int, int], radii) -> tuple[list, float]:
    """The scan's zone table and the total exposure.

    The table holds (window, e_in, allowed) per radius: its circle, each
    centre's zone exposure and whether that zone stays within half the
    total exposure. Exposure is the trials for Binomial and the cell count
    otherwise, from `grid.exposure_sums`, so the table never depends on the
    data. Radii whose zones all exceed the cap are refused.
    """
    windows = [WindowSpec("circle", r) for r in radii]
    e_ins = [e.astype(np.float64) for e in exposure_sums(trials, shape, windows)]
    # taken after the exposures, whose checks make this int64 sum exact
    e_tot = float(shape[0] * shape[1] if trials is None else trials.values.sum())
    zones = [(window, e_in, e_in <= 0.5 * e_tot) for window, e_in in zip(windows, e_ins)]
    if not any(allowed.any() for _, _, allowed in zones):
        raise ConfigurationError("every zone exceeds half the total exposure; reduce radii")
    return zones, e_tot


def check_radii(radii, name: str = "radii") -> list[int]:
    """Scan radii as a sorted list of distinct integers, refusing an empty list or one below 1."""
    radii = sorted({int(r) for r in radii})
    if not radii:
        raise ConfigurationError(f"{name} must be nonempty")
    if radii[0] < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {radii[0]}")
    return radii


def circular_scan(
    grid: Grid,
    model: ModelSpec,
    radii=tuple(range(1, 21)),
    mc_reps: int = 99,
    cluster_alpha: float = 0.05,
    seed: int = 0,
) -> ScanResult:
    """Circle-zone scan with Monte Carlo calibration of the max LLR.

    Evaluates every grid cell as a center with every radius in `radii`
    (circles clipped at the grid edge, zones capped at half the total
    exposure), ranks zones by likelihood ratio, and assigns p-values by
    regenerating the grid `mc_reps` times under the fitted null:
    p = (1 + #{replicate max >= zone LLR}) / (mc_reps + 1). Clusters are
    reported greedily in LLR order, skipping zones that overlap an
    already-reported cluster, stopping once significance is lost; of
    zones with exactly equal LLRs, the last in (radius, row, col) order
    comes first. The mask is the union of clusters with p <= cluster_alpha.
    """
    if mc_reps < 19:
        raise ConfigurationError(f"mc_reps must be >= 19 for usable p-values, got {mc_reps}")
    radii = check_radii(radii)
    if not 0.0 < cluster_alpha < 1.0:
        raise ConfigurationError(f"cluster_alpha must be in (0,1), got {cluster_alpha}")
    model.check_counts(grid)

    rows, cols = grid.shape
    if model.family == "normal":
        model = replace(model, sigma=model.noise_sigma(grid))
    zones, e_tot = scan_zones(model.trials, (rows, cols), radii)
    while not zones[-1][2].any():  # zone exposure grows with the radius: every wider one
        del zones[-1], radii[-1]  # is over the cap too, and its LLRs are all 0

    # observed zone LLRs, kept per radius for the greedy cluster pass; `stack`
    # holds them last zone first, so its argmax picks the last of equal maxima
    stack = np.empty(len(zones) * rows * cols)
    obs_llrs = stack[::-1].reshape(len(zones), rows, cols)
    for k, llr in enumerate(_zone_llr_fields(model, grid.values, zones, e_tot)):
        obs_llrs[k] = llr
    if not np.isfinite(stack).all():  # finite input, so the float range ran out
        raise DegenerateDataError("zone log-likelihood ratios overflow double precision: the "
                                  "values are too large, or sigma too small, for this model")
    # taken after the observed SAT, which refuses an integer total past int64
    y_tot = float(grid.values.sum())
    # the fitted null: one pooled rate (or mean) per unit of exposure
    null_mean = np.full((rows, cols), y_tot / e_tot)

    # Monte Carlo distribution of the max LLR under the fitted null; each
    # replicate gets its own deterministic stream. The running maximum
    # starts at 0 and skips a NaN field maximum
    rep_max = np.empty(mc_reps)
    for rep in range(mc_reps):
        rng = np.random.default_rng(np.random.SeedSequence((seed, rep)))
        sim = model.sample(rng, null_mean)
        rep_max[rep] = max(0.0, *(float(llr.max())
                                  for llr in _zone_llr_fields(model, sim, zones, e_tot)))

    def dilate(cells, window):
        """Centres whose `window` holds a cell of `cells`."""
        return next(window_sums(cells, [window])) > 0

    # greedy clusters: the open zone with the largest LLR, an exact tie going
    # to the last zone in (radius, row, col) order; a reported cluster closes
    # every zone that touches it, whose centres are its dilation by their circle
    clusters: list[ScanCluster] = []
    detection = np.zeros((rows, cols), dtype=bool)
    while True:
        last = int(np.argmax(stack))
        llr = float(stack[last])
        at = stack.size - 1 - last
        if llr <= 0.0:
            break
        p = float((1 + (rep_max >= llr).sum()) / (mc_reps + 1))
        if clusters and p > cluster_alpha:
            break
        k, i, j = (int(v) for v in np.unravel_index(at, obs_llrs.shape))
        # the centres of every zone that can touch this cluster
        reach = radii[k] + radii[-1]
        box = slice(max(0, i - reach), i + reach + 1), slice(max(0, j - reach), j + reach + 1)
        centre = np.zeros_like(detection[box])
        centre[i - box[0].start, j - box[1].start] = True
        cells = dilate(centre, zones[k][0])
        mask = np.zeros_like(detection)
        mask[box] = cells
        clusters.append(ScanCluster(center=(i, j), radius=radii[k], mask=mask, llr=llr, p_value=p))
        if p > cluster_alpha:
            break
        detection |= mask
        for (window, _, _), llrs in zip(zones, obs_llrs):
            llrs[box][dilate(cells, window)] = -np.inf
    return ScanResult(clusters=tuple(clusters), mask=detection,
                      mc_reps=mc_reps, cluster_alpha=float(cluster_alpha))
