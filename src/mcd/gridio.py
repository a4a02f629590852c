"""Bit-exact file formats: CSV grids and binary PGM masks/maps.

CSV grid layout: a header line ``rows,cols`` (optionally
``rows,cols,trials_uniform`` when every cell shares one trial count),
then `rows` lines of `cols` comma-separated values in row-major order.
Integer grids round-trip exactly; reals are written with 17 significant
digits, which round-trips IEEE doubles exactly as well.

Masks and probability maps go to binary PGM (P5): 0 = background,
255 = detected; probability maps scale [0, 1] linearly onto 0..255.
"""

from __future__ import annotations

import numpy as np

from .errors import GridParseError, InvalidInputError
from .grid import Grid


def write_grid_csv(path, grid: Grid, trials_uniform: int | None = None) -> None:
    """Write a grid, optionally recording a uniform per-cell trial count."""
    header = f"{grid.rows},{grid.cols}"
    if trials_uniform is not None:
        if int(trials_uniform) < 1:
            raise InvalidInputError(f"trials_uniform must be >= 1, got {trials_uniform}")
        header += f",{int(trials_uniform)}"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        np.savetxt(fh, grid.values, fmt="%d" if grid.is_integer() else "%.17g", delimiter=",")


def write_array_csv(path, values: np.ndarray) -> None:
    """Write a bare 2-d array (statistic/variability fields, ROC tables)."""
    write_grid_csv(path, Grid(np.asarray(values, dtype=np.float64)))


def read_grid_csv(path) -> tuple[Grid, int | None]:
    """Read a grid CSV; returns (grid, trials_uniform or None).

    All tokens must parse as numbers; every data line must carry exactly
    `cols` values. Violations raise GridParseError naming the 1-based
    offending line.
    """
    try:
        with open(path, "r") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise GridParseError(f"cannot read {path}: {exc.strerror}") from None
    if not lines:
        raise GridParseError("empty file", line=1)
    head = lines[0].split(",")
    if len(head) not in (2, 3):
        raise GridParseError(f"header must be rows,cols[,trials]; got {lines[0]!r}", line=1)
    try:
        rows, cols = int(head[0]), int(head[1])
        trials = int(head[2]) if len(head) == 3 else None
    except ValueError:
        raise GridParseError(f"non-integer header field in {lines[0]!r}", line=1) from None
    if rows < 1 or cols < 1 or (trials is not None and trials < 1):
        raise GridParseError(f"header values must be positive; got {lines[0]!r}", line=1)
    body = [ln for ln in lines[1:] if ln.strip() != ""]
    if len(body) != rows:
        raise GridParseError(f"expected {rows} data lines, found {len(body)}", line=len(lines))

    tokens: list[list[str]] = []
    for i, ln in enumerate(body, start=2):
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) != cols:
            raise GridParseError(f"expected {cols} values, found {len(parts)}", line=i)
        tokens.append(parts)

    try:
        ints = [list(map(int, parts)) for parts in tokens]
    except ValueError:
        ints = None  # some token is not an integer: a real-valued grid
    values = np.empty((rows, cols), dtype=np.int64 if ints is not None else np.float64)
    for i, parts in enumerate(tokens):
        try:
            values[i] = ints[i] if ints is not None else list(map(float, parts))
        except OverflowError:
            raise GridParseError("integer value outside the int64 range", line=i + 2) from None
        except ValueError:
            for tok in parts:
                try:
                    float(tok)
                except ValueError:
                    raise GridParseError(f"bad numeric value {tok!r}", line=i + 2) from None
            raise  # unreachable: some token of this row must have failed above
    if not np.all(np.isfinite(values)):
        raise GridParseError("grid values must be finite")
    return Grid(values), trials


def write_mask_pgm(path, mask: np.ndarray) -> None:
    """Binary P5 mask: 255 where True, 0 elsewhere."""
    m = np.asarray(mask)
    if m.ndim != 2 or m.dtype != np.bool_:
        raise InvalidInputError("mask must be a 2-d boolean array")
    _write_pgm(path, np.where(m, 255, 0).astype(np.uint8))


def write_prob_pgm(path, prob: np.ndarray) -> None:
    """Binary P5 probability map: [0, 1] scaled to 0..255 (round half up)."""
    p = np.asarray(prob, dtype=np.float64)
    if p.ndim != 2 or np.any(p < 0) or np.any(p > 1) or not np.all(np.isfinite(p)):
        raise InvalidInputError("probability map must be 2-d with values in [0, 1]")
    _write_pgm(path, np.floor(p * 255.0 + 0.5).astype(np.uint8))


def _write_pgm(path, pixels: np.ndarray) -> None:
    rows, cols = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())

