"""CSV grid and PGM round-trips, parse errors with line numbers, and both
CSV paths against their one-cell-at-a-time references."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mcd import gridio
from mcd.errors import GridParseError, InvalidInputError
from mcd.grid import Grid
from mcd.gridio import read_grid_csv, write_grid_csv, write_mask_pgm, write_prob_pgm
from oracles import CsvParseError, read_grid_csv_rows, read_pgm


class TestCsvRoundTrip:
    def test_integer_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        grid = Grid(rng.integers(0, 1000, size=(7, 11)))
        path = tmp_path / "g.csv"
        write_grid_csv(path, grid)
        back, trials = read_grid_csv(path)
        assert trials is None
        assert back.is_integer()
        np.testing.assert_array_equal(back.values, grid.values)

    def test_float_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        grid = Grid(rng.normal(size=(5, 9)) * 1e7)
        path = tmp_path / "g.csv"
        write_grid_csv(path, grid)
        back, _ = read_grid_csv(path)
        # 17 significant digits round-trip IEEE doubles bit for bit
        np.testing.assert_array_equal(back.values, grid.values)

    def test_float_bytes_are_17_significant_digits(self, tmp_path):
        values = np.array([
            [1e300, -1e-300, -0.0, 0.0],
            [5e-324, 2.2250738585072014e-308 / 3, 1.2e17, -1.2e17],
            [0.1, 1 / 3, -123456789.123, 1e-5],
        ])
        path = tmp_path / "g.csv"
        write_grid_csv(path, Grid(values))
        want = "3,4\n" + "".join(",".join(format(float(x), ".17g") for x in row) + "\n"
                                 for row in values)
        assert path.read_bytes() == want.encode()

    def test_integer_bytes(self, tmp_path):
        values = np.array([[0, -7, 2**62], [-(2**63), 10**17, 1]], dtype=np.int64)
        path = tmp_path / "g.csv"
        write_grid_csv(path, Grid(values))
        want = "2,3\n" + "".join(",".join(str(int(x)) for x in row) + "\n" for row in values)
        assert path.read_bytes() == want.encode()

    def test_trials_header(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("3,4,50\n" + "".join(f"{4 * i},{4 * i + 1},{4 * i + 2},{4 * i + 3}\n"
                                              for i in range(3)))
        back, trials = read_grid_csv(path)
        assert trials == 50
        np.testing.assert_array_equal(back.values, np.arange(12).reshape(3, 4))

    @pytest.mark.parametrize("text", ["3,4,50\n", "3,4\n"], ids=["trials-header", "plain"])
    def test_byte_order_mark_ignored(self, tmp_path, text):
        body = "".join(f"{4 * i},{4 * i + 1},{4 * i + 2},{4 * i + 3}\n" for i in range(3))
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text + body)
        marked.write_bytes(b"\xef\xbb\xbf" + (text + body).encode())
        (want, want_trials), (got, got_trials) = read_grid_csv(plain), read_grid_csv(marked)
        assert got_trials == want_trials
        np.testing.assert_array_equal(got.values, want.values)

    def test_negative_zero_kept_apart_from_zero(self, tmp_path):
        # two distinct bit patterns in six cells: each is formatted once
        path = tmp_path / "g.csv"
        write_grid_csv(path, Grid(np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]])))
        assert path.read_bytes() == b"2,3\n-0,0,-0\n0,-0,0\n"


SPECIAL_REALS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
                 float(2**63 - 1), float(-(2**63)), 0.1, 1 / 3, 1.0, -2.5, 1e17]
INT64_EXTREMES = [-(2**63), 2**63 - 1, -(2**63) + 1, 0, -1, 1]
SHAPES = {
    "1x1": st.just((1, 1)),
    "1xn": st.tuples(st.just(1), st.integers(2, 30)),
    "nx1": st.tuples(st.integers(2, 30), st.just(1)),
    "rxc": st.tuples(st.integers(2, 9), st.integers(2, 9)),
}


@st.composite
def grids(draw, shape):
    """A grid whose cells repeat a pool of values; the pool size spans the one-third rule."""
    rows, cols = draw(shape)
    if draw(st.booleans()):
        dtype, element = np.int64, st.one_of(st.sampled_from(INT64_EXTREMES),
                                             st.integers(-(2**63), 2**63 - 1))
    else:
        dtype, element = np.float64, st.one_of(
            st.sampled_from(SPECIAL_REALS), st.floats(allow_nan=False, allow_infinity=False))
    pool = draw(st.lists(element, min_size=1, max_size=rows * cols))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows * cols,
                          max_size=rows * cols))
    return np.array([pool[i] for i in picks], dtype=dtype).reshape(rows, cols)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_writer_bytes_are_each_cell_formatted_alone(tmp_path, shape, data):
    values = data.draw(grids(SHAPES[shape]))
    block = data.draw(st.sampled_from([1, 2, 5, gridio._BLOCK_CELLS]))
    path = tmp_path / "g.csv"
    with mock.patch.object(gridio, "_BLOCK_CELLS", block):
        write_grid_csv(path, Grid(values))
    cell = str if values.dtype == np.int64 else (lambda x: format(x, ".17g"))
    want = f"{values.shape[0]},{values.shape[1]}\n" + "".join(
        ",".join(map(cell, row)) + "\n" for row in values.tolist())
    assert path.read_bytes() == want.encode()


class TestCsvParseErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        return path

    def test_short_row_names_line(self, tmp_path):
        path = self.write(tmp_path, "2,3\n1,2,3\n4,5\n")
        with pytest.raises(GridParseError, match="line 3"):
            read_grid_csv(path)

    def test_bad_token_names_line(self, tmp_path):
        path = self.write(tmp_path, "2,2\n1,2\n3,oops\n")
        with pytest.raises(GridParseError, match="line 3"):
            read_grid_csv(path)

    @pytest.mark.parametrize("token", ["99999999999999999999999", "-9223372036854775809",
                                       "9223372036854775808"])
    def test_int64_overflow_names_line(self, tmp_path, token):
        path = self.write(tmp_path, f"3,2\n1,2\n3,4\n{token},5\n")
        with pytest.raises(GridParseError, match="line 4: integer value outside the int64 range"):
            read_grid_csv(path)

    def test_int64_extremes_parse(self, tmp_path):
        path = self.write(tmp_path, "1,2\n-9223372036854775808,9223372036854775807\n")
        grid, _ = read_grid_csv(path)
        assert grid.values.tolist() == [[-(2**63), 2**63 - 1]]

    def test_large_integer_in_real_grid_parses_as_float(self, tmp_path):
        path = self.write(tmp_path, "2,2\n99999999999999999999999,1\n2,0.5\n")
        grid, _ = read_grid_csv(path)
        np.testing.assert_array_equal(grid.values, [[1e23, 1.0], [2.0, 0.5]])

    def test_missing_file_names_path(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(GridParseError, match=re.escape(f"cannot read {path}: No such file")):
            read_grid_csv(path)

    def test_non_utf8_file_names_path(self, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
        with pytest.raises(GridParseError, match=re.escape(f"cannot read {path}: not UTF-8 text")):
            read_grid_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("2,2\n\n1,2\n3,x\n", "line 4: bad numeric value 'x'"),
        ("2,3\n1,2,3\n  \n\n4,5\n", "line 5: expected 3 values, found 2"),
        ("2,2\n1,2\n\n3,99999999999999999999999\n", "line 4: integer value outside the int64 range"),
    ], ids=["bad-token", "short-row", "int64-overflow"])
    def test_line_numbers_count_blank_lines(self, tmp_path, text, message):
        path = self.write(tmp_path, text)
        with pytest.raises(GridParseError, match=re.escape(message)):
            read_grid_csv(path)

    def test_non_ascii_letter_is_not_a_digit(self, tmp_path):
        # numpy's int64 parser reads "\u01fe5" as 4625; Python's int refuses it
        path = tmp_path / "bad.csv"
        path.write_bytes("1,2\n\u01fe5,1\n".encode())
        with pytest.raises(GridParseError, match=re.escape("line 2: bad numeric value '\u01fe5'")):
            read_grid_csv(path)

    def test_missing_rows(self, tmp_path):
        path = self.write(tmp_path, "3,2\n1,2\n3,4\n")
        with pytest.raises(GridParseError, match="expected 3 data lines"):
            read_grid_csv(path)

    def test_bad_header(self, tmp_path):
        for header in ("", "5", "a,b", "2,2,2,2", "0,3", "2,2,0"):
            path = self.write(tmp_path, header + "\n")
            with pytest.raises(GridParseError, match="line 1"):
                read_grid_csv(path)

    def test_nonfinite_rejected(self, tmp_path):
        path = self.write(tmp_path, "1,2\ninf,1\n")
        with pytest.raises(GridParseError):
            read_grid_csv(path)

    def test_mixed_int_float_parses_as_float(self, tmp_path):
        path = self.write(tmp_path, "1,3\n1,2.5,3\n")
        grid, _ = read_grid_csv(path)
        assert not grid.is_integer()
        np.testing.assert_array_equal(grid.values, [[1.0, 2.5, 3.0]])


PLAIN_INT = st.integers(-(10**6), 10**6).map(str)
PLAIN_REAL = st.floats(allow_nan=False, allow_infinity=False).flatmap(
    lambda x: st.sampled_from([format(x, ".17g"), repr(x), format(x, ".3g")]))
INTEGRAL_REAL = st.integers(-(10**6), 10**6).map(lambda i: f"{i}.0")
ODD_TOKENS = st.sampled_from([
    "9223372036854775807", "-9223372036854775808", "9223372036854775808",
    "-9223372036854775809", "99999999999999999999999", "-0", "+7", "0007", "1_000", "-1_0",
    "\u0661\u0662\u0663", "\uff15", "nan", "-inf", "inf", "Infinity", "+nan", "1.0", "-2.0",
    "3.", "1e3", "1E-3", ".5", "1e400", "1e-400", "-0.0", "x", "", "1 2", "0x10", "1.5_0", "--1",
    "\u01fe5", "5\u0903", "1e19", "-9.3e18", "9.2e18",
])
PADDING = st.sampled_from(["", "", " ", "\t", "  ", "\xa0", "\u2003", "\u3000", "\x1f", "\u200b"])


@st.composite
def grid_texts(draw):
    """Grid CSV text: plain integer, real or integer-valued real tokens, in half the grids with odd tokens and
    padding among them, blank lines, and now and then a row of the wrong length or a
    header that miscounts the rows."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    plain = draw(st.sampled_from([PLAIN_INT, PLAIN_REAL, INTEGRAL_REAL,
                                  st.one_of(PLAIN_INT, PLAIN_REAL, INTEGRAL_REAL)]))
    if draw(st.booleans()):
        token = st.tuples(PADDING, st.one_of(plain, plain, plain, ODD_TOKENS), PADDING)
    else:
        token = st.tuples(st.sampled_from(["", " ", "\t"]), plain, st.just(""))
    token = token.map("".join)
    lines = []
    for _ in range(rows):
        width = cols + draw(st.sampled_from([0] * 12 + [-1, 1]))
        lines.append(",".join(draw(st.lists(token, min_size=width, max_size=width))))
        lines += draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=1))
    extra_row = draw(st.sampled_from([0] * 12 + [-1, 1]))
    header = f"{max(rows + extra_row, 1)},{cols}" + draw(st.sampled_from(["", "", ",100"]))
    return header + "\n" + "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def read_outcome(reader, path):
    """What a reader makes of a file: dtype, value bits and trials, or its error."""
    try:
        values, trials = reader(path)
    except (GridParseError, CsvParseError) as exc:
        return ("error", str(exc), exc.line)
    values = getattr(values, "values", values)
    return ("grid", values.dtype.str, values.shape, values.tobytes(), trials)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=grid_texts())
def test_reader_matches_row_parser(tmp_path, text):
    path = tmp_path / "g.csv"
    path.write_bytes(text.encode("utf-8"))
    assert read_outcome(read_grid_csv, path) == read_outcome(read_grid_csv_rows, path)


class TestPgm:
    def test_mask_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        mask = rng.random((9, 13)) < 0.4
        path = tmp_path / "m.pgm"
        write_mask_pgm(path, mask)
        pixels = read_pgm(path)
        assert set(np.unique(pixels)) <= {0, 255}
        np.testing.assert_array_equal(pixels == 255, mask)

    def test_prob_scaling(self, tmp_path):
        prob = np.array([[0.0, 0.5, 1.0], [0.25, 0.75, 0.999]])
        path = tmp_path / "p.pgm"
        write_prob_pgm(path, prob)
        pixels = read_pgm(path)
        np.testing.assert_array_equal(pixels, [[0, 128, 255], [64, 191, 255]])

    def test_header_is_plain_p5(self, tmp_path):
        write_mask_pgm(tmp_path / "m.pgm", np.zeros((2, 3), dtype=bool))
        raw = (tmp_path / "m.pgm").read_bytes()
        assert raw == b"P5\n3 2\n255\n" + bytes(6)

    def test_invalid_inputs(self, tmp_path):
        with pytest.raises(InvalidInputError):
            write_mask_pgm(tmp_path / "m.pgm", np.zeros((2, 2)))  # not boolean
        with pytest.raises(InvalidInputError):
            write_prob_pgm(tmp_path / "p.pgm", np.array([[0.0, 1.5]]))
