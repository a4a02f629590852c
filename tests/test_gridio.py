"""CSV grid and PGM round-trips, parse errors with line numbers."""

import re

import numpy as np
import pytest

from mcd.errors import GridParseError, InvalidInputError
from mcd.grid import Grid
from mcd.gridio import read_grid_csv, write_grid_csv, write_mask_pgm, write_prob_pgm
from oracles import read_pgm


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
        write_grid_csv(path, Grid(values), trials_uniform=9)
        want = "2,3,9\n" + "".join(",".join(str(int(x)) for x in row) + "\n" for row in values)
        assert path.read_bytes() == want.encode()

    def test_trials_header(self, tmp_path):
        grid = Grid(np.arange(12).reshape(3, 4))
        path = tmp_path / "g.csv"
        write_grid_csv(path, grid, trials_uniform=50)
        back, trials = read_grid_csv(path)
        assert trials == 50
        np.testing.assert_array_equal(back.values, grid.values)

    def test_bad_trials_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            write_grid_csv(tmp_path / "g.csv", Grid(np.ones((2, 2))), trials_uniform=0)


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
