"""Independent reference implementations used to validate the fast paths.

Everything here is deliberately naive: annulus membership by direct
offset enumeration, window offsets by testing every cell of the bounding
square and annuli as set differences of them, estimates from first
principles, and T(s) as -2 (log L0 - log L1) with per-cell scipy
log-likelihoods. No closed-form cancellation; the one summed-area-table
routine is the index-gather form of the window sums, kept to pin the
sliced form bit for bit, and the grid CSV reader is the row-at-a-time
parser, kept to pin the C-parsed one.
"""

import numpy as np
from scipy import stats as sps


def annulus_cells(ladder, pixel, r, shape):
    """In-grid cells of the r-th annulus around `pixel` (0-based scale index)."""
    rows, cols = shape
    i, j = pixel
    return [
        (i + di, j + dj)
        for di, dj in ladder.annulus_offsets(r)
        if 0 <= i + di < rows and 0 <= j + dj < cols
    ]


def window_offset_set(window):
    """Every (di, dj) in a window, by testing each cell of its bounding square."""
    r = window.radius
    if window.shape == "square":
        return {(di, dj) for di in range(-r, r + 1) for dj in range(-r, r + 1)}
    return {(di, dj) for di in range(-r, r + 1) for dj in range(-r, r + 1) if di * di + dj * dj <= r * r}


def ladder_nested(windows):
    """Whether each window's offset set strictly contains the one before it."""
    sets = [window_offset_set(w) for w in windows]
    return all(a < b for a, b in zip(sets, sets[1:]))


def annulus_offset_list(windows, r, shape=None):
    """Window r's offsets less window r-1's, by set difference, row-major.

    With `shape` = (rows, cols), only offsets with |di| < rows and |dj| < cols are kept.
    """
    rows, cols = shape or (float("inf"), float("inf"))
    inner = window_offset_set(windows[r - 1]) if r else set()
    return sorted((di, dj) for di, dj in window_offset_set(windows[r]) - inner
                  if abs(di) < rows and abs(dj) < cols)


def gather_window_sum_field(values, window):
    """Window sums and counts by clipped fancy-index gathers on an unpadded SAT of `values`.

    The table is built here, int64 for integers and longdouble otherwise,
    and the four-term arithmetic and the order of the additions are those
    of `mcd.grid.window_sums`, so both give the same bits, longdouble sums
    included.
    """
    values = np.asarray(values)
    rows, cols = values.shape
    integer = values.dtype.kind in "biu"
    t = np.zeros((rows + 1, cols + 1), dtype=np.int64 if integer else np.longdouble)
    t[1:, 1:] = np.cumsum(np.cumsum(values.astype(t.dtype), axis=0), axis=1)
    ii = np.arange(rows)[:, None]
    jj = np.arange(cols)[None, :]
    sums = np.zeros((rows, cols), dtype=t.dtype)
    counts = np.zeros((rows, cols), dtype=np.int64)
    for di, hw in window.row_halfwidths():
        src = ii + di
        valid = (src >= 0) & (src < rows)
        r = np.where(valid, src, 0)
        c0 = np.clip(jj - hw, 0, cols - 1)
        c1 = np.clip(jj + hw, 0, cols - 1)
        seg = t[r + 1, c1 + 1] - t[r, c1 + 1] - t[r + 1, c0] + t[r, c0]
        sums += np.where(valid, seg, 0)
        counts += np.where(valid, c1 - c0 + 1, 0)
    if not integer:
        sums = sums.astype(np.float64)
    return sums, counts


def oracle_null(values, family, trials=None):
    if family == "binomial":
        return float(np.median((values + 1.0) / (trials + 2.0)))
    return float(np.median(values))


def oracle_estimates(values, family, ladder, pixel, trials=None):
    """(null, per-scale clipped estimates) by direct enumeration."""
    if family == "binomial":
        cell = (values + 1.0) / (trials + 2.0)
    else:
        cell = np.asarray(values, dtype=float)
    null = float(np.median(cell))
    ests = []
    for r in range(ladder.scale_count):
        vals = np.array([cell[c] for c in annulus_cells(ladder, pixel, r, values.shape)])
        agg = np.median(vals) if family == "binomial" else np.mean(vals)
        ests.append(max(float(agg), null))
    return null, ests


def oracle_stat_pixel(values, family, ladder, pixel, trials=None, sigma=None):
    """T(s) at one pixel via log-likelihood sums under null and alternative."""
    null, ests = oracle_estimates(values, family, ladder, pixel, trials=trials)
    ll0 = 0.0
    ll1 = 0.0
    for r, est in enumerate(ests):
        cells = annulus_cells(ladder, pixel, r, values.shape)
        idx = tuple(np.array(cells).T)
        y = values[idx]
        if family == "binomial":
            n = trials[idx]
            ll0 += sps.binom.logpmf(y, n, null).sum()
            ll1 += sps.binom.logpmf(y, n, est).sum()
        elif family == "poisson":
            ll0 += sps.poisson.logpmf(y, null).sum()
            ll1 += sps.poisson.logpmf(y, est).sum()
        else:
            ll0 += sps.norm.logpdf(y, loc=null, scale=sigma).sum()
            ll1 += sps.norm.logpdf(y, loc=est, scale=sigma).sum()
    return -2.0 * (ll0 - ll1)


def oracle_stat_grid(values, family, ladder, trials=None, sigma=None):
    rows, cols = values.shape
    out = np.empty((rows, cols))
    for i in range(rows):
        for j in range(cols):
            out[i, j] = oracle_stat_pixel(
                values, family, ladder, (i, j), trials=trials, sigma=sigma
            )
    return out


def oracle_variability(values, cellvals=None):
    """Sample variance of each pixel with its in-grid 4-neighbors (ddof=1)."""
    if cellvals is None:
        cellvals = np.asarray(values, dtype=float)
    rows, cols = cellvals.shape
    out = np.empty((rows, cols))
    for i in range(rows):
        for j in range(cols):
            vals = [cellvals[i, j]]
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                if 0 <= i + di < rows and 0 <= j + dj < cols:
                    vals.append(cellvals[i + di, j + dj])
            out[i, j] = np.var(vals, ddof=1)
    return out


def oracle_binom_sf(y, n, p):
    """P(X >= y) for X ~ Bin(n, p) by direct summation with exact combs."""
    import math

    if y <= 0:
        return 1.0
    if y > n:
        return 0.0
    return float(sum(math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(y, n + 1)))


def oracle_poisson_sf(y, lam):
    """P(X >= y) for X ~ Poisson(lam) by direct pmf accumulation."""
    import math

    if y <= 0:
        return 1.0
    cdf = 0.0
    pmf = math.exp(-lam)
    for k in range(y):
        cdf += pmf
        pmf *= lam / (k + 1)
    return float(max(0.0, 1.0 - cdf))


def oracle_storey(pvals, alpha, lam=0.5):
    """(pi0_hat, gamma, mask) by explicit search over observed p-values."""
    p = np.asarray(pvals, dtype=float).ravel()
    m = p.size
    pi0 = (p > lam).sum() / ((1.0 - lam) * m)
    pi0 = min(1.0, max(pi0, 1.0 / ((1.0 - lam) * m)))
    gamma = 0.0
    for cand in sorted(p):
        n_le = (p <= cand).sum()
        if pi0 * cand * m / n_le <= alpha and cand > gamma:
            gamma = cand
    mask = p <= gamma if gamma > 0 else np.zeros_like(p, dtype=bool)
    return pi0, gamma, mask.reshape(np.asarray(pvals).shape)


def oracle_zone_llr(values, exposure, family, zone, sigma=None):
    """One-sided LLR of a single zone (boolean mask) from first principles."""
    import math

    y = np.asarray(values, dtype=float)
    e = np.asarray(exposure, dtype=float)
    y_in, e_in = y[zone].sum(), e[zone].sum()
    y_out, e_out = y[~zone].sum(), e[~zone].sum()

    def plogp(count, rate):
        return count * math.log(rate) if count > 0 else 0.0

    if family == "binomial":
        p_in, p_out = y_in / e_in, (y_out / e_out if e_out > 0 else 0.0)
        p_all = (y_in + y_out) / (e_in + e_out)
        if p_in <= p_out:
            return 0.0
        ll_alt = (plogp(y_in, p_in) + plogp(e_in - y_in, 1 - p_in)
                  + plogp(y_out, p_out) + plogp(e_out - y_out, 1 - p_out))
        ll_null = plogp(y_in + y_out, p_all) + plogp(e_in + e_out - y_in - y_out, 1 - p_all)
        return ll_alt - ll_null
    if family == "poisson":
        total = y_in + y_out
        exp_in = total * e_in / (e_in + e_out)
        if y_in <= exp_in:
            return 0.0
        return plogp(y_in, y_in / exp_in) + plogp(y_out, y_out / (total - exp_in))
    mean_in = y_in / e_in
    mean_out = y_out / e_out if e_out > 0 else 0.0
    mean_all = (y_in + y_out) / (e_in + e_out)
    if mean_in <= mean_all:
        return 0.0
    bss = e_in * (mean_in - mean_all) ** 2 + e_out * (mean_out - mean_all) ** 2
    return bss / (2.0 * sigma**2)


def read_pgm(path):
    """A binary P5 file with a bare header, as `gridio` writes it, as a uint8 array."""
    with open(path, "rb") as fh:
        magic, size, maxval, raster = fh.read().split(b"\n", 3)
    cols, rows = (int(v) for v in size.split())
    if magic != b"P5" or maxval != b"255" or len(raster) != rows * cols:
        raise ValueError(f"{path}: not a {rows}x{cols} binary PGM")
    return np.frombuffer(raster, dtype=np.uint8).reshape(rows, cols)


class CsvParseError(ValueError):
    """A parse failure of `read_grid_csv_rows`, worded as `mcd` words its own."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def read_grid_csv_rows(path):
    """(values, trials or None) of a grid CSV, every token through Python's int/float.

    Integer-ness is decided over the whole grid; lines are numbered by
    their place in the file, blank lines included.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CsvParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"cannot read {path}: not UTF-8 text (byte {exc.start})") from None
    if not lines:
        raise CsvParseError("empty file", line=1)
    head = lines[0].split(",")
    if len(head) not in (2, 3):
        raise CsvParseError(f"header must be rows,cols[,trials]; got {lines[0]!r}", line=1)
    try:
        rows, cols = int(head[0]), int(head[1])
        trials = int(head[2]) if len(head) == 3 else None
    except ValueError:
        raise CsvParseError(f"non-integer header field in {lines[0]!r}", line=1) from None
    if rows < 1 or cols < 1 or (trials is not None and trials < 1):
        raise CsvParseError(f"header values must be positive; got {lines[0]!r}", line=1)
    body = [(i, ln) for i, ln in enumerate(lines[1:], start=2) if ln.strip() != ""]
    if len(body) != rows:
        raise CsvParseError(f"expected {rows} data lines, found {len(body)}", line=len(lines))

    tokens = []
    for line, text in body:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != cols:
            raise CsvParseError(f"expected {cols} values, found {len(parts)}", line=line)
        tokens.append(parts)
    try:
        ints = [list(map(int, parts)) for parts in tokens]
    except ValueError:
        ints = None
    values = np.empty((rows, cols), dtype=np.int64 if ints is not None else np.float64)
    for i, ((line, _), parts) in enumerate(zip(body, tokens)):
        try:
            values[i] = ints[i] if ints is not None else list(map(float, parts))
        except OverflowError:
            raise CsvParseError("integer value outside the int64 range", line=line) from None
        except ValueError:
            bad = next(tok for tok in parts if not _parses_as_float(tok))
            raise CsvParseError(f"bad numeric value {bad!r}", line=line) from None
    if not np.all(np.isfinite(values)):
        raise CsvParseError("grid values must be finite")
    return values, trials


def _parses_as_float(token):
    try:
        float(token)
    except ValueError:
        return False
    return True
