"""Binomial annulus median: exact agreement with enumeration; statistic memory
linear in cells and flat in the number of scales."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcd.errors import ConfigurationError, InternalInvariantError, InvalidInputError
from mcd.grid import Grid, ScaleLadder, WindowSpec
from mcd.stats import ModelSpec, _annulus_medians, adjusted_proportions, stat_field
from oracles import annulus_cells

# Peak traced bytes per cell allowed for the statistic on any ladder. Run
# scale by scale it peaks near 150 B/cell at 300x300 whatever the ladder;
# the stacked version it replaced needed about 580 B/cell on five-scale and
# grew by about 100 B/cell with every added scale. The NaN-padded
# (120, rows, cols) median stack before that peaked near 4,300 B/cell.
STAT_BYTES_PER_CELL = 400


def median_fields(cellvals, ladder):
    """The generator's per-scale medians, stacked for comparison."""
    return np.stack(list(_annulus_medians(cellvals, ladder)))


def enumerated_medians(cellvals, ladder):
    """Per-pixel np.median over the in-grid annulus cells, or None if one is empty."""
    rows, cols = cellvals.shape
    out = np.empty((ladder.scale_count, rows, cols))
    for r in range(ladder.scale_count):
        for i in range(rows):
            for j in range(cols):
                cells = annulus_cells(ladder, (i, j), r, cellvals.shape)
                if not cells:
                    return None
                out[r, i, j] = np.median([cellvals[c] for c in cells])
    return out


@st.composite
def ladders(draw, max_radius=6):
    """Nested ladders of up to four windows: square, circle or mixed."""
    count = draw(st.integers(1, 4))
    radii = [0] + sorted(draw(st.sets(st.integers(1, max_radius), min_size=count - 1,
                                      max_size=count - 1)))
    shapes = draw(st.lists(st.sampled_from(("square", "circle")), min_size=count, max_size=count))
    try:
        return ScaleLadder(tuple(WindowSpec(s, r) for s, r in zip(shapes, radii)))
    except InvalidInputError:  # a square not inside the next circle
        assume(False)


def binomial_cellvals(rows, cols, per_cell_trials, seed):
    rng = np.random.default_rng(seed)
    if per_cell_trials:
        n = rng.integers(1, 200, size=(rows, cols))  # many distinct levels
    else:
        n = np.full((rows, cols), int(rng.integers(1, 20)))  # few levels
    y = rng.binomial(n, rng.uniform(0.05, 0.95))
    return adjusted_proportions(Grid(y), Grid(n))


@given(
    rows=st.integers(1, 25),
    cols=st.integers(1, 25),
    ladder=ladders(),
    per_cell_trials=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_matches_enumerated_median(rows, cols, ladder, per_cell_trials, seed):
    cellvals = binomial_cellvals(rows, cols, per_cell_trials, seed)
    want = enumerated_medians(cellvals, ladder)
    if want is None:
        with pytest.raises(InternalInvariantError):
            median_fields(cellvals, ladder)
    else:
        np.testing.assert_array_equal(median_fields(cellvals, ladder), want)


def test_even_and_clipped_annuli():
    # the square:1 ring holds 8 cells inside (even), 3 at a corner and 5 on
    # an edge (odd); the square:3 ring clips from 40 cells to 12 at a corner
    cellvals = binomial_cellvals(7, 7, True, 5)
    ladder = ScaleLadder.of("square", [0, 1, 3])
    sizes = {len(annulus_cells(ladder, p, 1, (7, 7))) for p in ((3, 3), (0, 0), (0, 3))}
    assert sizes == {8, 3, 5}
    assert len(annulus_cells(ladder, (0, 0), 2, (7, 7))) == 12
    np.testing.assert_array_equal(
        median_fields(cellvals, ladder), enumerated_medians(cellvals, ladder)
    )


@pytest.mark.parametrize("level_count", [255, 256, 257])
def test_level_index_dtype_boundary(level_count):
    # level indices switch from one byte to two at 256 distinct values; the
    # bisection's `mid + 1` must not wrap on either side of the switch
    rng = np.random.default_rng(level_count)
    cellvals = rng.permutation(np.arange(20 * 20) % level_count).reshape(20, 20) / level_count
    assert np.unique(cellvals).size == level_count
    ladder = ScaleLadder.of("square", [0, 1, 3])
    np.testing.assert_array_equal(
        median_fields(cellvals, ladder), enumerated_medians(cellvals, ladder)
    )


def test_annulus_wider_than_a_byte():
    # the square:0..square:8 ring holds 288 cells, so counts and ranks need
    # two bytes; the 20x20 grid clips it to fewer than 256 at the edges
    cellvals = binomial_cellvals(20, 20, True, 9)
    ladder = ScaleLadder.of("square", [0, 8])
    assert len(ladder.annulus_offsets(1)) == 288
    np.testing.assert_array_equal(
        median_fields(cellvals, ladder), enumerated_medians(cellvals, ladder)
    )


def test_single_level_grid():
    cellvals = np.full((6, 5), 0.25)
    fields = median_fields(cellvals, ScaleLadder.of("circle", [0, 2, 3]))
    assert np.all(fields == 0.25)


def test_annulus_clipping_to_empty_raises():
    # at the center of a 3x3 grid the square:1..square:3 ring lies off the grid
    cellvals = binomial_cellvals(3, 3, False, 1)
    with pytest.raises(InternalInvariantError):
        median_fields(cellvals, ScaleLadder.of("square", [0, 1, 3]))


def test_medians_are_yielded_one_scale_at_a_time():
    # the generator has not looked past the first scale when the caller
    # takes it, so an annulus that clips to empty further up raises late
    cellvals = binomial_cellvals(3, 3, False, 1)
    medians = _annulus_medians(cellvals, ScaleLadder.of("square", [0, 1, 3]))
    np.testing.assert_array_equal(next(medians), cellvals)
    assert next(medians).shape == (3, 3)
    with pytest.raises(InternalInvariantError):
        next(medians)


@pytest.mark.parametrize("ring, want", [
    # ranks 3 and 4 of the 8-cell ring are 0.1 and 0.3; 0.2 lies elsewhere
    # on the grid, so rank 4 is the next level in the ring, not the next level
    ((0.1, 0.3, 0.1, 0.3, 0.1, 0.3, 0.1, 0.3), (0.1 + 0.3) / 2),
    # ranks 3 and 4 both lie on 0.3, with one more level above it in the ring
    ((0.1, 0.5, 0.1, 0.3, 0.5, 0.3, 0.1, 0.5), 0.3),
], ids=["next-level", "same-level"])
def test_even_annulus_upper_middle(ring, want):
    ladder = ScaleLadder.of("square", [0, 1])
    cellvals = np.full((5, 5), 0.2)
    for (di, dj), value in zip(ladder.annulus_offsets(1), ring):
        cellvals[2 + di, 2 + dj] = value
    fields = median_fields(cellvals, ladder)
    assert fields[1, 2, 2] == want
    np.testing.assert_array_equal(fields, enumerated_medians(cellvals, ladder))


@pytest.mark.parametrize("seed", range(4))
def test_many_levels_on_the_cross(seed):
    # the circle:1 ring holds 4 cells (2 or 3 at edges), so both middle ranks
    # are selected often; more than 256 levels need two-byte indices
    cellvals = binomial_cellvals(30, 30, True, seed)
    assert np.unique(cellvals).size > 256
    ladder = ScaleLadder((WindowSpec("square", 0), WindowSpec("circle", 1)))
    np.testing.assert_array_equal(
        median_fields(cellvals, ladder), enumerated_medians(cellvals, ladder)
    )


@pytest.mark.parametrize("shape", [(1, 15), (15, 1), (2, 11), (11, 2)])
@pytest.mark.parametrize("radii", [(0, 2, 4), (0, 1, 3, 5)])
def test_grids_narrower_than_the_widest_radius(shape, radii):
    # the padding is wider than the grid along one axis, and every pixel's
    # annuli clip on that axis
    cellvals = binomial_cellvals(*shape, True, sum(shape) + len(radii))
    ladder = ScaleLadder.of("circle", radii)
    want = enumerated_medians(cellvals, ladder)
    assert want is not None
    np.testing.assert_array_equal(median_fields(cellvals, ladder), want)


@given(rows=st.integers(1, 14), cols=st.integers(1, 14), ladder=ladders())
@settings(max_examples=80, deadline=None)
def test_check_fits_refuses_exactly_the_grids_with_an_empty_annulus(rows, cols, ladder):
    empty = any(
        not annulus_cells(ladder, (i, j), r, (rows, cols))
        for r in range(ladder.scale_count) for i in range(rows) for j in range(cols)
    )
    if empty:
        with pytest.raises(ConfigurationError, match=f"too wide for a {rows}x{cols} grid"):
            ladder.check_fits((rows, cols))
    else:
        ladder.check_fits((rows, cols))


def traced_peak(grid, model, ladder):
    tracemalloc.start()
    try:
        stat_field(grid, model, ladder)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def memory_case(family, dims=(300, 300)):
    rng = np.random.default_rng(3)
    if family == "binomial":
        n = np.full(dims, 100)
        return Grid(rng.binomial(n, 0.2)), ModelSpec("binomial", trials=Grid(n))
    if family == "poisson":
        return Grid(rng.poisson(4.0, size=dims)), ModelSpec("poisson")
    return Grid(rng.normal(size=dims)), ModelSpec("normal")


def test_stat_field_memory_is_linear_in_cells():
    grid, model = memory_case("binomial")
    assert traced_peak(grid, model, ScaleLadder.default_two_scale()) < \
        STAT_BYTES_PER_CELL * grid.values.size


@pytest.mark.parametrize("ladder", [ScaleLadder.five_scale(), ScaleLadder.of("square", range(9))],
                         ids=["five-scale", "square-0-8"])
@pytest.mark.parametrize("family", ["binomial", "poisson", "normal"])
def test_stat_field_memory_does_not_grow_with_scales(family, ladder):
    grid, model = memory_case(family)
    assert traced_peak(grid, model, ladder) < STAT_BYTES_PER_CELL * grid.values.size
