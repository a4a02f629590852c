"""Grid containers, window geometry, and exact windowed aggregation.

Window sums have one home, `window_sums`, which serves every window of
a list from one summed-area table (SAT): any axis-aligned rectangle is
four lookups. Circles are evaluated as a stack of per-row rectangle
segments, so they are exact too. Windows overlapping the grid edge are
clipped, and only window rows that reach the grid are listed. Exposure
(clipped cell counts, or trials) has one home, `exposure_sums`.

Integer grids accumulate in int64, exact below an absolute total of 2**63
(`check_integer_total` refuses more); real grids accumulate in extended
precision so SAT queries do not drift relative to direct sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DegenerateDataError, InvalidInputError


def _as_grid_values(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidInputError(f"grid values must be a non-empty 2-D array, got shape {arr.shape}")
    if np.issubdtype(arr.dtype, np.integer) or np.issubdtype(arr.dtype, np.bool_):
        arr = arr.astype(np.int64)
    elif np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("grid values must be finite")
    else:
        raise InvalidInputError(f"grid values must be numeric, got dtype {arr.dtype}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Grid:
    """A 2-D field of observations (counts or reals), immutable once built."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_grid_values(self.values))

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def is_integer(self) -> bool:
        return np.issubdtype(self.values.dtype, np.integer)


def validate_trials(grid: Grid, trials: Grid) -> None:
    """Check a trials map against its paired count grid."""
    if trials.shape != grid.shape:
        raise InvalidInputError(f"trials shape {trials.shape} != grid shape {grid.shape}")
    if not trials.is_integer() or np.any(trials.values < 1):
        raise InvalidInputError("trials must be integers >= 1")
    if not grid.is_integer() or np.any(grid.values < 0):
        raise InvalidInputError("count grid must hold nonnegative integers")
    if np.any(grid.values > trials.values):
        raise InvalidInputError("counts exceed trials")


@dataclass(frozen=True)
class WindowSpec:
    """A centered window: square (Chebyshev ball) or circle (Euclidean ball).

    Radius 0 is exactly the center cell for both shapes; a circle of
    radius 1 is the 5-cell cross (center plus the 4 nearest neighbors).
    """

    shape: str  # "square" | "circle"
    radius: int

    def __post_init__(self):
        if self.shape not in ("square", "circle"):
            raise InvalidInputError(f"unknown window shape {self.shape!r}")
        if self.radius < 0 or int(self.radius) != self.radius:
            raise InvalidInputError(f"window radius must be a nonnegative integer, got {self.radius}")

    def row_halfwidths(self, reach=math.inf) -> list[tuple[int, int]]:
        """(di, halfwidth) of the rows with |di| < reach; row di covers |dj| <= halfwidth."""
        r = self.radius
        di_range = range(-min(r, reach - 1), min(r, reach - 1) + 1)
        if self.shape == "square":
            return [(di, r) for di in di_range]
        return [(di, math.isqrt(r * r - di * di)) for di in di_range]


@dataclass(frozen=True)
class ScaleLadder:
    """An increasing sequence of windows inducing nested regions per pixel.

    The first window must have radius 0 (the pixel itself). Mixed
    square/circle ladders are allowed as long as each window contains the
    previous one; radii increase, so only a square inside a circle can
    fail, when its corner lies outside: 2 r_in**2 > r_out**2.
    """

    windows: tuple[WindowSpec, ...] = field(default=())

    def __post_init__(self):
        windows = tuple(self.windows)
        object.__setattr__(self, "windows", windows)
        if not windows:
            raise InvalidInputError("scale ladder must have at least one window")
        if windows[0].radius != 0:
            raise InvalidInputError("first ladder entry must have radius 0")
        radii = [w.radius for w in windows]
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise InvalidInputError(f"ladder radii must be strictly increasing, got {radii}")
        for inner, w in zip(windows, windows[1:]):  # wider, so containment is strict
            corner_out = 2 * inner.radius**2 > w.radius**2
            if inner.shape == "square" and w.shape == "circle" and corner_out:
                raise InvalidInputError(f"ladder windows must be strictly nested; "
                                        f"{w} does not contain its predecessor")

    @classmethod
    def of(cls, shape: str, radii) -> ScaleLadder:
        return cls(tuple(WindowSpec(shape, int(r)) for r in radii))

    @classmethod
    def default_two_scale(cls) -> ScaleLadder:
        """Radius-0 plus an 11x11 square: the default maximum scale."""
        return cls.of("square", [0, 5])

    @classmethod
    def five_scale(cls) -> ScaleLadder:
        return cls.of("square", [0, 1, 2, 3, 4, 5])

    def __str__(self) -> str:
        """The ladder in the ``kind:radius,...`` form that `config.parse_ladder` reads."""
        return ",".join(f"{w.shape}:{w.radius}" for w in self.windows)

    @property
    def scale_count(self) -> int:
        return len(self.windows)

    def check_fits(self, shape: tuple[int, int]) -> None:
        """Refuse a grid on which some annulus clips to empty around some pixel.

        Annuli are symmetric in each coordinate, so the central pixel, whose
        reach is the shortest, loses one first: annulus r is empty somewhere
        exactly when it is empty clipped to that reach, with no grid pass.
        """
        rows, cols = shape
        for r in range(1, self.scale_count):
            if not self.annulus_offsets(r, (rows // 2 + 1, cols // 2 + 1)):
                raise ConfigurationError(
                    f"ladder {self} is too wide for a {rows}x{cols} grid: the annulus of "
                    f"{self.windows[r].shape}:{self.windows[r].radius} holds no cell "
                    f"around the central pixel")

    def annulus_offsets(self, r: int, shape=None) -> list[tuple[int, int]]:
        """Offsets in window r but not window r-1 (0-based; r=0 is the innermost), row-major.

        With `shape` = (rows, cols), only offsets with |di| < rows and |dj| < cols are kept.
        """
        rows, cols = shape or (math.inf, math.inf)
        inner = dict(self.windows[r - 1].row_halfwidths(rows)) if r else {}
        return [(di, dj) for di, hw in self.windows[r].row_halfwidths(rows)
                for dj in range(-min(hw, cols - 1), min(hw, cols - 1) + 1)
                if abs(dj) > inner.get(di, -1)]


# a pixel and its 4 nearest neighbors, the pixel first
CROSS_OFFSETS = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))


def shifted_slices(shape: tuple[int, int], offsets):
    """Edge-clipped (dst, src) slice pairs, one per offset that reaches the grid.

    For offset (di, dj), field[src] holds the (i + di, j + dj) neighbors of
    the pixels field[dst]; pixels whose neighbor falls outside the grid are
    left out. Offsets that reach no pixel are skipped.
    """
    rows, cols = shape
    pairs = []
    for di, dj in offsets:
        i0, i1 = max(0, -di), min(rows, rows - di)
        j0, j1 = max(0, -dj), min(cols, cols - dj)
        if i0 < i1 and j0 < j1:
            pairs.append(((slice(i0, i1), slice(j0, j1)),
                          (slice(i0 + di, i1 + di), slice(j0 + dj, j1 + dj))))
    return pairs


def check_integer_total(total: int) -> None:
    """Refuse an integer total from 2**63 on, where the int64 sums that hold it wrap.

    It checks each integer grid a summed-area table is built from (by its
    absolute total) and a uniform trials map's trials times cells; the
    scan's grid and exposure totals are taken after those checks.
    """
    if total >= 2**63:
        raise DegenerateDataError(f"integer values total {float(total):.4g}, past 2**63, the "
                                  "limit of exact int64 sums: the values are too large")


def window_sums(values, windows):
    """Each window's sums around every pixel, in order: int64 for integers, float64 otherwise.

    The SAT is built once, padded by the widest radius, at most the longer grid
    side (wider half-widths are clamped and read the same entries): zeros above
    and left, the last row and column repeated below and right, so each window
    row is four slices, t[r+1, c1+1] - t[r, c1+1] - t[r+1, c0] + t[r, c0], with
    no index arrays. Between yields only the table and the last field are held.
    """
    values = np.asarray(values)
    rows, cols = values.shape
    integer = values.dtype.kind in "biu"
    if integer:
        magnitudes = np.abs(values.astype(np.int64, copy=False)).view(np.uint64)  # -2**63 too
        if magnitudes.sum(dtype=np.float64) >= 2.0**62:  # near the limit, so add exactly
            check_integer_total(int(magnitudes.sum(dtype=object)))
        del magnitudes
    pad = min(max((w.radius for w in windows), default=0), max(rows, cols))
    t = np.zeros((rows + 1 + 2 * pad, cols + 1 + 2 * pad), np.int64 if integer else np.longdouble)
    table = t[pad + 1:pad + 1 + rows, pad + 1:pad + 1 + cols]
    table[...] = values
    np.cumsum(table, axis=0, out=table)
    np.cumsum(table, axis=1, out=table)
    t[pad + 1 + rows:, pad + 1:pad + 1 + cols] = table[-1]
    t[:, pad + 1 + cols:] = t[:, pad + cols:pad + 1 + cols]
    for window in windows:
        sums = np.zeros((rows, cols), dtype=t.dtype)
        seg = np.empty_like(sums)
        for di, hw in window.row_halfwidths(rows):
            hw = min(hw, pad)
            top, bottom = t[pad + di:pad + di + rows], t[pad + di + 1:pad + di + 1 + rows]
            c0, c1 = slice(pad - hw, pad - hw + cols), slice(pad + hw + 1, pad + hw + 1 + cols)
            np.subtract(bottom[:, c1], top[:, c1], out=seg)
            np.subtract(seg, bottom[:, c0], out=seg)
            np.add(seg, top[:, c0], out=seg)
            sums += seg
        del seg
        if not integer:
            sums = sums.astype(np.float64)  # the longdouble sums are freed before the yield
        yield sums


def exposure_sums(trials: Grid | None, shape: tuple[int, int], windows):
    """Each window's exposure around every pixel, as int64, window by window.

    That is the clipped cell count, c times it when every cell holds c trials, or
    a varying trials map's window sums, the only case that builds a summed-area table.
    """
    rows, cols = shape
    c = 1 if trials is None else int(trials.values.flat[0])
    if trials is not None and np.any(trials.values != c):
        yield from window_sums(trials.values, windows)
        return
    check_integer_total(c * rows * cols)
    jj = np.arange(cols)
    for window in windows:
        # rows of one half-width share their clipped column widths, so this is one small product:
        # rows_per_hw[k, i] is c times the number of window rows of half-width hws[k] reaching row i
        halfwidths = window.row_halfwidths(rows)
        hws = sorted({hw for _, hw in halfwidths})
        rows_per_hw = np.zeros((len(hws), rows), dtype=np.int64)
        for di, hw in halfwidths:
            rows_per_hw[hws.index(hw), max(0, -di):min(rows, rows - di)] += c
        widths = [np.minimum(jj + hw, cols - 1) - np.maximum(jj - hw, 0) + 1 for hw in hws]
        yield rows_per_hw.T @ np.array(widths)
