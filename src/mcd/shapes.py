"""Signal-region generators and the boundary partition.

The shapes of `SHAPE_KINDS` are fixed geometries rasterized onto the
grid, parameterized as fractions of the grid dimensions so they scale.
On a 100x100 grid the default pixel counts are: lshape 400, oval 1144,
triangle 864, yshape 1340, disc 1257.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .grid import CROSS_OFFSETS, shifted_slices

SHAPE_KINDS = ("lshape", "oval", "triangle", "yshape", "disc")


def _index_grids(dims):
    return np.mgrid[0:dims[0], 0:dims[1]]


def _lshape(dims):
    rows, cols = dims
    mask = np.zeros(dims, dtype=bool)
    r0, r1 = round(0.35 * rows), round(0.65 * rows)
    c0, c1 = round(0.35 * cols), round(0.45 * cols)
    mask[r0:r1, c0:c1] = True  # vertical bar
    f0 = round(0.55 * rows)
    mask[f0:r1, c1 : round(0.55 * cols)] = True  # horizontal foot
    return mask


def _oval(dims):
    rr, cc = _index_grids(dims)
    rows, cols = dims
    a, b = 0.22 * rows, 0.165 * cols
    mid_r, mid_c = (rows - 1) / 2.0, (cols - 1) / 2.0
    return ((rr - mid_r) / a) ** 2 + ((cc - mid_c) / b) ** 2 <= 1.0


def _triangle(dims):
    rr, cc = _index_grids(dims)
    rows, cols = dims
    apex = round(0.30 * rows)
    height = round(0.34 * rows)
    slope = 0.77 * cols / rows
    dr = rr - apex
    mid_c = (cols - 1) / 2.0
    return (dr >= 0) & (dr < height) & (np.abs(cc - mid_c) <= slope * dr)


def _yshape(dims):
    rr, cc = _index_grids(dims)
    rows, cols = dims
    mid_c = (cols - 1) / 2.0
    junction = round(0.52 * rows)
    stem_len = round(0.36 * rows)
    stem_hw = 0.045 * cols
    arm_len = 0.34 * rows
    arm_hw = 0.05 * cols
    mask = (rr >= junction) & (rr < junction + stem_len) & (np.abs(cc - mid_c) <= stem_hw)
    for sign in (-1, 1):
        # nearest point on the diagonal segment from the junction
        t = np.clip((junction - rr + sign * (cc - mid_c)) / 2.0, 0.0, arm_len)
        dist = np.hypot(rr - (junction - t), cc - (mid_c + sign * t))
        mask |= dist <= arm_hw
    return mask


def _disc(dims, radius=None):
    rows, cols = dims
    if radius is None:
        radius = 0.2 * min(rows, cols)
    if not radius > 0:
        raise InvalidInputError(f"disc radius must be positive, got {radius}")
    if 2 * radius > min(rows, cols):  # the centred disc reaches past a grid edge
        raise InvalidInputError("disc extends beyond the grid")
    rr, cc = _index_grids(dims)
    return (rr - (rows - 1) / 2.0) ** 2 + (cc - (cols - 1) / 2.0) ** 2 <= radius**2


def gen_shape(kind: str, dims=(100, 100), radius=None) -> np.ndarray:
    """Boolean signal mask for a named shape on a grid of at least 2x2 `dims`.

    Only `disc` takes a radius, which defaults to a fifth of the shorter side.
    """
    kind = str(kind).lower()
    if kind not in SHAPE_KINDS:
        raise InvalidInputError(f"unknown shape {kind!r}; expected one of {SHAPE_KINDS}")
    rows, cols = dims
    if rows < 2 or cols < 2:
        raise InvalidInputError(f"grid dims must be at least 2x2, got {rows}x{cols}")
    if radius is not None and kind != "disc":
        raise InvalidInputError(f"a radius applies to shape 'disc' only, not {kind!r}")
    if kind == "disc":
        out = _disc(dims, radius=radius)
    else:
        out = {"lshape": _lshape, "oval": _oval, "triangle": _triangle, "yshape": _yshape}[kind](dims)
    if not out.any():
        raise InvalidInputError(f"shape {kind!r} does not fit a grid of dims {tuple(dims)}")
    if out.all():
        raise InvalidInputError(f"shape {kind!r} covers the whole grid; no background remains")
    return out


def boundary_partition(truth: np.ndarray):
    """Split pixels into (noise interior, boundary, signal interior).

    A boundary pixel is one whose 5-point cross (itself plus in-grid
    4-neighbors) contains cells from both groups.
    """
    truth = np.asarray(truth, dtype=bool)
    any_signal = truth.copy()
    any_noise = ~truth
    for dst, src in shifted_slices(truth.shape, CROSS_OFFSETS[1:]):
        any_signal[dst] |= truth[src]
        any_noise[dst] |= ~truth[src]
    boundary = any_signal & any_noise
    return ~truth & ~boundary, boundary, truth & ~boundary


def boundary_type_counts(truth: np.ndarray) -> dict[int, int]:
    """Histogram of boundary pixels by k = other-group cells in the cross."""
    truth = np.asarray(truth, dtype=bool)
    other = np.zeros(truth.shape, dtype=np.int64)
    for dst, src in shifted_slices(truth.shape, CROSS_OFFSETS):
        other[dst] += truth[dst] != truth[src]
    _, boundary, _ = boundary_partition(truth)
    ks = other[boundary]
    return {int(k): int((ks == k).sum()) for k in np.unique(ks)}
