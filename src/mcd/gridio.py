"""Bit-exact file formats: CSV grids and binary PGM masks/maps.

CSV grid layout: a header line ``rows,cols`` (the reader also takes
``rows,cols,trials_uniform`` when every cell shares one trial count),
then `rows` lines of `cols` comma-separated values in row-major order.
A UTF-8 byte-order mark before the header is ignored.
Integer grids round-trip exactly; reals are written with 17 significant
digits, which round-trips IEEE doubles exactly as well.

Writing: every cell is ``"%d" % x`` (integer grids) or ``"%.17g" % x``
(real grids), the bytes ``np.savetxt`` wrote, so a value's text depends
on its bits alone. A grid with few distinct bit patterns (at most a third
of its cells; ``-0.0`` and ``0.0`` differ) has each pattern formatted
once and its cells gather the strings; any other grid is formatted a
block of rows per ``%`` call, which is faster where every value differs.
Both write a block of rows at a time, and the distinct patterns are
counted block by block, stopping once they pass a third of the cells,
so no temporary grows with the grid beyond the few-value strings.

Reading: the data lines (blank ones dropped, the rest numbered by their
place in the file) go, when all are ASCII, to numpy's C parser, first as
int64, then as float64. On ASCII text these parsers accept exactly the
tokens Python's ``int``/``float`` accept, less ``_`` separators, and give
the same values, so the int64 result, taken when its shape matches the
header, is the row parser's. The float64 result is taken when its shape
matches and every value is below 2**63 in magnitude: the int64 parse
failed, no integer that small can have failed it, so some token is not
an integer and the row parser reads float64 too. Everything else goes to
the row parser, the only source of error messages: non-ASCII lines (numpy
misreads some non-ASCII characters as digits), tokens only Python reads
(``1_000``), integers outside int64 and every malformed file.

Masks and probability maps go to binary PGM (P5): 0 = background,
255 = detected; probability maps scale [0, 1] linearly onto 0..255.
"""

from __future__ import annotations

import numpy as np

from .errors import GridParseError, InvalidInputError
from .grid import Grid

_BLOCK_CELLS = 1 << 14  # cells formatted per write; bounds the text held at once


def write_grid_csv(path, grid: Grid) -> None:
    """Write a grid under a ``rows,cols`` header."""
    header = f"{grid.rows},{grid.cols}"
    values, fmt = grid.values, "%d" if grid.is_integer() else "%.17g"
    levels = _distinct_bits(values)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(_blocks_by_row(values, fmt) if levels is None
                      else _blocks_by_level(values, fmt, levels))


def _distinct_bits(values: np.ndarray) -> np.ndarray | None:
    """The sorted distinct bit patterns of `values`, or None once they pass a third of its cells."""
    bits = values.view(np.int64).ravel()
    levels = bits[:0]
    for start in range(0, bits.size, _BLOCK_CELLS):
        merged = np.sort(np.concatenate([levels, bits[start:start + _BLOCK_CELLS]]))
        levels = merged[np.insert(merged[1:] != merged[:-1], 0, True)]
        if 3 * levels.size > bits.size:
            return None
    return levels


def _blocks_by_level(values: np.ndarray, fmt: str, levels: np.ndarray):
    """Format each distinct value once, by one % call; cells gather the strings."""
    rows, cols = values.shape
    strings = np.array(
        ("\n".join([fmt] * levels.size) % tuple(levels.view(values.dtype).tolist())).split("\n"),
        dtype=object)
    bits = values.view(np.int64)
    step = max(1, _BLOCK_CELLS // cols)
    for r in range(0, rows, step):
        cells = strings[np.searchsorted(levels, bits[r:r + step])].tolist()
        yield "".join([",".join(row) + "\n" for row in cells])


def _blocks_by_row(values: np.ndarray, fmt: str):
    """Format a block of rows per % call."""
    rows, cols = values.shape
    line = ",".join([fmt] * cols) + "\n"
    step = max(1, _BLOCK_CELLS // cols)
    for r in range(0, rows, step):
        block = values[r:r + step]
        yield (line * len(block)) % tuple(block.ravel().tolist())


def write_array_csv(path, values: np.ndarray) -> None:
    """Write a bare 2-d array (statistic/variability fields, ROC tables)."""
    write_grid_csv(path, Grid(np.asarray(values, dtype=np.float64)))


def read_grid_csv(path) -> tuple[Grid, int | None]:
    """Read a grid CSV; returns (grid, trials_uniform or None).

    All tokens must parse as numbers; every data line must carry exactly
    `cols` values. Violations raise GridParseError naming the 1-based
    offending line of the file.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
            lines = fh.read().splitlines()
    except OSError as exc:
        raise GridParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise GridParseError(f"cannot read {path}: not UTF-8 text (byte {exc.start})") from None
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
    body = [(i, ln) for i, ln in enumerate(lines[1:], start=2) if ln.strip() != ""]
    if len(body) != rows:
        raise GridParseError(f"expected {rows} data lines, found {len(body)}", line=len(lines))
    ascii_only = all(ln.isascii() for _, ln in body)
    values = _parse_c([ln for _, ln in body], rows, cols) if ascii_only else None
    if values is None:
        values = _parse_rows(body, cols)
    return Grid(values), trials


def _parse_c(lines: list[str], rows: int, cols: int) -> np.ndarray | None:
    """The grid as numpy's C parser reads ASCII lines, or None where the row parser must decide."""
    for dtype in (np.int64, np.float64):
        try:
            values = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            continue
        if values.shape != (rows, cols):
            return None
        if dtype is np.float64 and not np.all(np.abs(values) < 2.0**63):
            return None  # an integer outside int64 may be what failed the int64 parse
        return values
    return None


def _parse_rows(body: list[tuple[int, str]], cols: int) -> np.ndarray:
    """Parse (line number, text) rows with Python's int/float; raise naming the line."""
    tokens: list[list[str]] = []
    for line, text in body:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != cols:
            raise GridParseError(f"expected {cols} values, found {len(parts)}", line=line)
        tokens.append(parts)

    try:
        ints = [list(map(int, parts)) for parts in tokens]
    except ValueError:
        ints = None  # some token is not an integer: a real-valued grid
    values = np.empty((len(body), cols), dtype=np.int64 if ints is not None else np.float64)
    for i, ((line, _), parts) in enumerate(zip(body, tokens)):
        try:
            values[i] = ints[i] if ints is not None else list(map(float, parts))
        except OverflowError:
            raise GridParseError("integer value outside the int64 range", line=line) from None
        except ValueError:
            for tok in parts:
                try:
                    float(tok)
                except ValueError:
                    raise GridParseError(f"bad numeric value {tok!r}", line=line) from None
            raise  # unreachable: some token of this row must have failed above
    if not np.all(np.isfinite(values)):
        raise GridParseError("grid values must be finite")
    return values


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

