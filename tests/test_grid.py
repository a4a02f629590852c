"""Windowed aggregation against brute-force offset enumeration."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcd import baselines, stats
from mcd import grid as grid_module
from mcd.baselines import scan_zones
from mcd.config import parse_ladder
from mcd.errors import ConfigurationError, DegenerateDataError, InvalidInputError
from mcd.grid import (
    Grid,
    ScaleLadder,
    WindowSpec,
    exposure_sums,
    shifted_slices,
    window_sums,
)
from mcd.stats import ModelSpec, stat_field
from oracles import annulus_offset_list, gather_window_sum_field, ladder_nested, window_offset_set


def sums_and_counts(values, window):
    """The window sums, and the clipped counts from `exposure_sums` with no trials map."""
    return next(window_sums(values, [window])), next(exposure_sums(None, values.shape, [window]))


def brute_window_sum(values, center, window):
    """Oracle: enumerate offsets, clip to the grid, sum directly."""
    rows, cols = values.shape
    i, j = center
    total = 0
    count = 0
    for di, dj in sorted(window_offset_set(window)):
        r, c = i + di, j + dj
        if 0 <= r < rows and 0 <= c < cols:
            total += values[r, c]
            count += 1
    return total, count


def field_window_sum(values, center, window):
    """(sum, count) of one window, read off `window_sums` and `exposure_sums`."""
    sums, counts = sums_and_counts(values, window)
    return sums[center], counts[center]


class TestWindowSpec:
    def test_radius0_is_center_only(self):
        for shape in ("square", "circle"):
            assert window_offset_set(WindowSpec(shape, 0)) == {(0, 0)}

    def test_circle_radius1_is_cross(self):
        got = window_offset_set(WindowSpec("circle", 1))
        assert got == {(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)}

    def test_circle_radius5_has_81_cells(self):
        assert len(window_offset_set(WindowSpec("circle", 5))) == 81

    def test_square_cell_counts(self):
        for r in range(6):
            assert len(window_offset_set(WindowSpec("square", r))) == (2 * r + 1) ** 2

    def test_row_halfwidths_match_offsets(self):
        for shape in ("square", "circle"):
            for r in range(7):
                w = WindowSpec(shape, r)
                from_rows = {
                    (di, dj) for di, hw in w.row_halfwidths() for dj in range(-hw, hw + 1)
                }
                assert from_rows == window_offset_set(w)
                for reach in (0, 1, 2, 5, 9):  # only the rows with |di| < reach, in order
                    assert w.row_halfwidths(reach) == [
                        (di, hw) for di, hw in w.row_halfwidths() if abs(di) < reach]

    def test_rejects_bad_shape_and_radius(self):
        with pytest.raises(InvalidInputError):
            WindowSpec("hex", 1)
        with pytest.raises(InvalidInputError):
            WindowSpec("square", -1)


class TestScaleLadder:
    def test_requires_radius0_start(self):
        with pytest.raises(InvalidInputError):
            ScaleLadder.of("square", [1, 2])

    def test_requires_strict_increase(self):
        with pytest.raises(InvalidInputError):
            ScaleLadder.of("square", [0, 2, 2])

    def test_mixed_shapes_allowed_when_nested(self):
        ladder = ScaleLadder((WindowSpec("square", 0), WindowSpec("circle", 2), WindowSpec("square", 4)))
        assert ladder.scale_count == 3

    def test_non_nested_mixed_ladder_rejected(self):
        # circle r4 lacks the (3, 3) corner of square r3, so radii increase
        # but the offset sets are not nested
        with pytest.raises(InvalidInputError):
            ScaleLadder((WindowSpec("square", 0), WindowSpec("square", 3), WindowSpec("circle", 4)))

    @given(first=st.sampled_from(("square", "circle")),
           rest=st.lists(st.tuples(st.sampled_from(("square", "circle")), st.integers(1, 30)),
                         max_size=3, unique_by=lambda w: w[1]),
           rows=st.integers(1, 40), cols=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_geometry_matches_offset_sets(self, first, rest, rows, cols):
        # nesting, annuli, clipped annuli and the fit verdict, all read from
        # row half-widths, against set differences of every window offset
        windows = [WindowSpec(first, 0)] + [WindowSpec(s, r) for s, r in sorted(rest, key=lambda w: w[1])]
        if not ladder_nested(windows):
            with pytest.raises(InvalidInputError, match="strictly nested"):
                ScaleLadder(tuple(windows))
            return
        ladder = ScaleLadder(tuple(windows))
        for r in range(ladder.scale_count):
            assert ladder.annulus_offsets(r) == annulus_offset_list(windows, r)
            assert ladder.annulus_offsets(r, (rows, cols)) == annulus_offset_list(windows, r, (rows, cols))
        reach = (rows // 2 + 1, cols // 2 + 1)
        if all(annulus_offset_list(windows, r, reach) for r in range(1, len(windows))):
            ladder.check_fits((rows, cols))
        else:
            with pytest.raises(ConfigurationError, match=f"too wide for a {rows}x{cols} grid"):
                ladder.check_fits((rows, cols))

    def test_wide_ladder_costs_what_the_grid_holds(self):
        # no set or full list of a 1201x1201 window's offsets is built
        tracemalloc.start()
        try:
            parse_ladder("square:0,square:600").check_fits((50, 50))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_nesting_matches_offset_sets_exhaustively(self):
        # every shape pair and radius pair up to 30, against set containment
        shapes = ("square", "circle")
        sets = {(k, r): window_offset_set(WindowSpec(k, r)) for k in shapes for r in range(31)}
        for (kind_in, r_in), inner in sets.items():
            for (kind_out, r_out), outer in sets.items():
                if r_out <= r_in:
                    continue
                windows = ((WindowSpec("square", 0),) if r_in else ()) + (
                    WindowSpec(kind_in, r_in), WindowSpec(kind_out, r_out))
                if inner < outer:
                    ScaleLadder(windows)
                else:
                    with pytest.raises(InvalidInputError, match="strictly nested"):
                        ScaleLadder(windows)

    def test_nesting_check_lists_no_window_rows(self):
        # nesting is read from the radii, so a wide inner window costs nothing
        tracemalloc.start()
        try:
            ladder = parse_ladder("square:0,square:3000000,square:3000001")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ladder.scale_count == 3
        assert peak < 2**20

    def test_annulus_offsets_partition_window(self):
        ladder = ScaleLadder.five_scale()
        union = []
        for r in range(ladder.scale_count):
            union.extend(ladder.annulus_offsets(r))
        assert sorted(union) == sorted(window_offset_set(ladder.windows[-1]))
        assert len(set(union)) == len(union)


class TestWindowSum:
    def test_ones_3x3_square1(self):
        total, count = field_window_sum(np.ones((3, 3), dtype=int), (1, 1), WindowSpec("square", 1))
        assert total == 9 and count == 9

    def test_single_cell_grid(self):
        assert field_window_sum(np.array([[5]]), (0, 0), WindowSpec("square", 0)) == (5, 1)

    def test_corner_clipping(self):
        ones = np.ones((8, 8), dtype=int)
        total, count = field_window_sum(ones, (0, 0), WindowSpec("square", 1))
        assert total == 4 and count == 4
        total, count = field_window_sum(ones, (7, 7), WindowSpec("square", 5))
        assert total == 36 and count == 36

    def test_random_rectangles_exact(self):
        # a square window is the rectangle it clips to at every centre
        rng = np.random.default_rng(7)
        values = rng.integers(0, 1000, size=(20, 20))
        radii = range(0, 22, 3)
        for r, sums in zip(radii, window_sums(values, [WindowSpec("square", r) for r in radii])):
            for i in range(20):
                for j in range(0, 20, 3):
                    rect = values[max(0, i - r):i + r + 1, max(0, j - r):j + r + 1]
                    assert sums[i, j] == rect.sum()

    @pytest.mark.parametrize("shape,radius", [("square", 2), ("circle", 3), ("circle", 5)])
    def test_matches_brute_force_int(self, shape, radius):
        rng = np.random.default_rng(11)
        values = rng.integers(0, 50, size=(12, 9))
        w = WindowSpec(shape, radius)
        sums, counts = sums_and_counts(values, w)
        for i in range(12):
            for j in range(9):
                assert (sums[i, j], counts[i, j]) == brute_window_sum(values, (i, j), w)

    def test_matches_brute_force_float(self):
        rng = np.random.default_rng(13)
        values = rng.normal(size=(10, 14)) * 1e3
        w = WindowSpec("circle", 4)
        sums, counts = sums_and_counts(values, w)
        for i in range(10):
            for j in range(14):
                want, wcount = brute_window_sum(values, (i, j), w)
                assert counts[i, j] == wcount
                assert sums[i, j] == pytest.approx(want, rel=1e-12)


class TestExposureSums:
    @given(dims=st.tuples(st.integers(1, 12), st.integers(1, 12)),
           windows=st.lists(st.tuples(st.sampled_from(["square", "circle"]), st.integers(0, 16)),
                            min_size=1, max_size=3),
           trials=st.sampled_from(["none", "uniform", "per-cell"]),
           seed=st.integers(0, 2**16))
    @example(dims=(1, 9), windows=[("square", 0), ("circle", 3), ("square", 12)], trials="per-cell",
             seed=1)
    @example(dims=(9, 1), windows=[("circle", 0), ("square", 2), ("circle", 13)], trials="uniform",
             seed=2)
    @settings(max_examples=80, deadline=None)
    def test_counts_times_trials_or_window_sums(self, dims, windows, trials, seed):
        # radii reach past every grid side; the windows need not nest
        rng = np.random.default_rng(seed)
        windows = [WindowSpec(shape, radius) for shape, radius in windows]
        c = int(rng.integers(1, 10**6))
        trial_map = {"none": None, "uniform": Grid(np.full(dims, c)),
                     "per-cell": Grid(rng.integers(1, 50, size=dims))}[trials]
        got = list(exposure_sums(trial_map, dims, windows))
        assert len(got) == len(windows)
        ones = np.ones(dims, dtype=np.int64)
        for window, e in zip(windows, got):
            if trials == "per-cell":
                want = gather_window_sum_field(trial_map.values, window)[0]
            else:
                want = gather_window_sum_field(ones, window)[1] * (c if trials == "uniform" else 1)
            assert e.dtype == np.int64 and e.shape == dims
            np.testing.assert_array_equal(e, want)

    @pytest.mark.parametrize("per_cell", [False, True], ids=["uniform", "per-cell"])
    def test_only_a_varying_trials_map_builds_a_sat(self, monkeypatch, per_cell):
        # each `window_sums` call builds one table, for all of its windows
        rng = np.random.default_rng(3)
        trials = Grid(rng.integers(20, 40, size=(12, 10)) if per_cell else np.full((12, 10), 30))
        counts = Grid(rng.binomial(trials.values, 0.3))
        built = []
        real = grid_module.window_sums
        for module in (grid_module, stats, baselines):
            monkeypatch.setattr(module, "window_sums", lambda v, ws: built.append(v) or real(v, ws))
        stat_field(counts, ModelSpec("binomial", trials=trials), ScaleLadder.five_scale())
        assert [v is trials.values for v in built] == ([False, True] if per_cell else [False])
        built.clear()
        scan_zones(trials, (12, 10), [1, 2, 3])
        assert [v is trials.values for v in built] == ([True] if per_cell else [])

    def test_integer_totals_stop_below_2_63(self):
        window = [WindowSpec("square", 0)]
        next(window_sums(np.array([[2**62, 2**62 - 1]]), window))  # totals 2**63 - 1
        for values in ([[2**62, 2**62]], [[-2**62, -2**62]], [[-2**63]], [[-1, 2**63 - 1]]):
            with pytest.raises(DegenerateDataError, match=r"past 2\*\*63"):
                next(window_sums(np.array(values), window))
        next(exposure_sums(Grid(np.full((1, 2), 2**62 - 1)), (1, 2), window))
        with pytest.raises(DegenerateDataError, match=r"past 2\*\*63"):
            next(exposure_sums(Grid(np.full((1, 2), 2**62)), (1, 2), window))


class TestWindowSumField:
    """Fields of window sums from `window_sums`, against gathers and brute force."""

    @pytest.mark.parametrize("dims", [(17, 23), (1, 9), (9, 1), (1, 1), (4, 6)])
    @pytest.mark.parametrize("real", [False, True], ids=["int", "real"])
    def test_bit_identical_to_gathers(self, dims, real):
        rng = np.random.default_rng(dims[0] * 100 + dims[1])
        if real:
            values = rng.normal(loc=1e3, scale=7.0, size=dims) * rng.choice([1.0, 1e-6, 1e6], size=dims)
        else:
            values = rng.integers(-10**12, 10**12, size=dims)
        # radii from none to past every grid side
        for radius in (0, 1, 3, max(dims) - 1, max(dims), max(dims) + 4):
            for shape in ("square", "circle"):
                got = sums_and_counts(values, WindowSpec(shape, radius))
                want = gather_window_sum_field(values, WindowSpec(shape, radius))
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (shape, radius)

    @pytest.mark.parametrize("dims", [(17, 23), (1, 9), (9, 1), (4, 6)])
    @pytest.mark.parametrize("real", [False, True], ids=["int", "real"])
    def test_one_table_serves_windows_in_any_order(self, dims, real):
        # wide, narrow and past the grid, squares and circles: one table padded
        # by the widest radius gives each window the bits of its own gathers
        rng = np.random.default_rng(dims[0] * 31 + dims[1])
        values = rng.normal(size=dims) * 1e6 if real else rng.integers(-10**12, 10**12, size=dims)
        side = max(dims)
        windows = [WindowSpec("circle", side + 7), WindowSpec("square", 1), WindowSpec("circle", 0),
                   WindowSpec("square", side), WindowSpec("circle", 3), WindowSpec("square", 0)]
        got = list(window_sums(values, windows))
        assert len(got) == len(windows)
        for window, g in zip(windows, got):
            w = gather_window_sum_field(values, window)[0]
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), window

    @pytest.mark.parametrize("shape,radius", [("square", 0), ("square", 5), ("circle", 1), ("circle", 4)])
    def test_field_matches_pointwise(self, shape, radius):
        rng = np.random.default_rng(17)
        values = rng.integers(0, 30, size=(11, 13))
        w = WindowSpec(shape, radius)
        sums, counts = sums_and_counts(values, w)
        for i in range(11):
            for j in range(13):
                assert (sums[i, j], counts[i, j]) == brute_window_sum(values, (i, j), w)

    def test_field_float_accuracy(self):
        rng = np.random.default_rng(19)
        values = rng.normal(loc=1e6, scale=1.0, size=(15, 15))
        sums, counts = sums_and_counts(values, WindowSpec("square", 5))
        for i in range(15):
            for j in range(15):
                want, wcount = brute_window_sum(values, (i, j), WindowSpec("square", 5))
                assert counts[i, j] == wcount
                assert sums[i, j] == pytest.approx(want, rel=1e-9)


def aggregate(grid, ladder):
    """(scales, rows, cols) stacks of window sums x and clipped counts m, one window at a time."""
    x = list(window_sums(grid.values, ladder.windows))
    m = list(exposure_sums(None, grid.shape, ladder.windows))
    return np.stack(x), np.stack(m)


class TestAggregateScales:
    """The per-scale aggregation vectors that `stat_field` reads one window at a time."""

    def test_constant_grid_two_scale(self):
        c = 3
        grid = Grid(np.full((15, 15), c))
        x, m = aggregate(grid, ScaleLadder.default_two_scale())
        assert x[0, 7, 7] == c and x[1, 7, 7] == 121 * c
        assert m[0, 7, 7] == 1 and m[1, 7, 7] == 121
        # corner: the 11x11 window clips to 6x6
        assert m[1, 0, 0] == 36 and x[1, 0, 0] == 36 * c

    def test_with_trials(self):
        rng = np.random.default_rng(23)
        n = np.full((9, 9), 10)
        y = rng.integers(0, 11, size=(9, 9))
        ladder = ScaleLadder.of("square", [0, 2])
        x, m = aggregate(Grid(y), ladder)
        ntot, _ = aggregate(Grid(n), ladder)
        assert ntot[1, 4, 4] == 250
        assert x[1, 4, 4] == y[2:7, 2:7].sum()
        assert m[1, 4, 4] == 25

    def test_mixed_ladder_matches_brute_force(self):
        rng = np.random.default_rng(29)
        values = rng.integers(0, 20, size=(15, 15))
        ladder = ScaleLadder((WindowSpec("square", 0), WindowSpec("circle", 2), WindowSpec("square", 4)))
        x, m = aggregate(Grid(values), ladder)
        for r, w in enumerate(ladder.windows):
            for i in range(0, 15, 2):
                for j in range(0, 15, 2):
                    want = brute_window_sum(values, (i, j), w)
                    assert (x[r, i, j], m[r, i, j]) == want

    def test_trials_validation(self):
        # the statistic checks the trials map before it sums either grid
        y = Grid(np.full((3, 3), 5))
        ladder = ScaleLadder.of("square", [0, 1])
        for trials in (np.full((3, 3), 4), np.full((4, 3), 10)):
            with pytest.raises(InvalidInputError):
                stat_field(y, ModelSpec("binomial", trials=Grid(trials)), ladder)


@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    radius=st.integers(0, 4),
    shape=st.sampled_from(["square", "circle"]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_window_sum_property(rows, cols, radius, shape, seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(-100, 100, size=(rows, cols))
    w = WindowSpec(shape, radius)
    i = int(rng.integers(0, rows))
    j = int(rng.integers(0, cols))
    assert field_window_sum(values, (i, j), w) == brute_window_sum(values, (i, j), w)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_scale_monotonicity(seed):
    """For nonnegative data, windowed sums and cardinalities grow with scale."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 40, size=(13, 13))
    x, m = aggregate(Grid(values), ScaleLadder.five_scale())
    assert np.all(np.diff(x, axis=0) >= 0)
    assert np.all(np.diff(m, axis=0) >= 1)


def test_grid_immutable_and_validated():
    g = Grid(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        g.values[0, 0] = 1.0
    with pytest.raises(InvalidInputError):
        Grid(np.array([1.0, 2.0]))
    with pytest.raises(InvalidInputError):
        Grid(np.array([[np.nan]]))


def test_shifted_slices_pair_each_pixel_with_its_neighbor():
    field = np.arange(20).reshape(4, 5)
    offsets = [(0, 0), (1, -2), (-3, 4), (4, 0), (0, -5)]
    pairs = shifted_slices(field.shape, offsets)
    assert len(pairs) == 3  # (4, 0) and (0, -5) reach no pixel
    for (di, dj), (dst, src) in zip(offsets, pairs):
        want = np.full(field.shape, -1)
        for i in range(4):
            for j in range(5):
                if 0 <= i + di < 4 and 0 <= j + dj < 5:
                    want[i, j] = field[i + di, j + dj]
        got = np.full(field.shape, -1)
        got[dst] = field[src]
        np.testing.assert_array_equal(got, want)
