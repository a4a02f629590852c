"""CLI contract: exit codes, artifacts, determinism, env fallback, start-up imports."""

import contextlib
import hashlib
import io
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcd import cli
from mcd.cli import main
from mcd.config import CONVERTERS
from mcd.grid import Grid
from mcd.gridio import read_grid_csv, write_grid_csv
from mcd.shapes import gen_shape
from oracles import read_pgm

FIXTURE = "data/disc_counts.csv"


def run(*argv):
    return main([str(a) for a in argv])


def artifact_bytes(out_dir):
    return {f.name: f.read_bytes() for f in sorted(Path(out_dir).iterdir())}


def write_with_trials_header(path, values, trials):
    """A count grid under a ``rows,cols,trials`` header, which the reader accepts."""
    write_grid_csv(path, Grid(values))
    rows, cols = np.shape(values)
    text = path.read_text()
    path.write_text(f"{rows},{cols},{trials}" + text[text.index("\n"):])
    return path


def write_constant(tmp_path, value=20, trials=100, dims=(30, 30)):
    return write_with_trials_header(tmp_path / "const.csv", np.full(dims, value), trials)


# (dims, ladder) pairs where some annulus clips to empty around the central pixel
TOO_WIDE = [((13, 9), ",".join(f"square:{r}" for r in range(9)))] + [
    (dims, "five-scale") for dims in ((1, 7), (7, 1), (2, 2), (3, 3), (5, 4))]


class TestDetect:
    def test_fixture_recovers_disc(self, tmp_path):
        out = tmp_path / "out"
        assert run("detect", FIXTURE, "--family", "binomial", "--out-dir", out) == 0
        for name in ("stat.csv", "var.csv", "mask.csv", "mask.pgm", "detection.txt"):
            assert (out / name).exists(), name
        mask, _ = read_grid_csv(out / "mask.csv")
        detected = mask.values.astype(bool)
        truth = gen_shape("disc", (50, 50), radius=10.0)
        jaccard = (detected & truth).sum() / (detected | truth).sum()
        assert jaccard >= 0.8
        np.testing.assert_array_equal(read_pgm(out / "mask.pgm") == 255, detected)

    def test_constant_grid_writes_empty_mask(self, tmp_path, capsys):
        path = write_constant(tmp_path)
        out = tmp_path / "out"
        assert run("detect", path, "--family", "binomial", "--out-dir", out) == 0
        assert "warning" in capsys.readouterr().err
        mask, _ = read_grid_csv(out / "mask.csv")
        assert mask.values.sum() == 0
        assert "detected_cells=0" in (out / "detection.txt").read_text()

    def test_short_row_exits_2_naming_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("2,3\n1,2,3\n4,5\n")
        assert run("detect", path, "--family", "poisson", "--out-dir", tmp_path) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["input", "--trials-file"])
    def test_missing_path_exits_2_naming_it(self, tmp_path, capsys, flag):
        missing = tmp_path / "absent.csv"
        if flag == "input":
            argv = ("detect", missing, "--family", "poisson")
        else:
            argv = ("detect", FIXTURE, "--family", "binomial", "--trials-file", missing)
        assert run(*argv, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"cannot read {missing}: No such file or directory" in err
        assert "Traceback" not in err

    def test_int64_overflow_exits_2_naming_line(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("2,2\n1,2\n3,99999999999999999999999\n")
        assert run("detect", path, "--family", "poisson", "--out-dir", tmp_path) == 2
        assert "line 3: integer value outside the int64 range" in capsys.readouterr().err

    def test_constant_normal_grid_exits_3(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        write_grid_csv(path, Grid(np.full((20, 20), 1.5)))
        assert run("detect", path, "--family", "normal", "--out-dir", tmp_path) == 3
        assert "degenerate" in capsys.readouterr().err

    def test_binomial_without_trials_exits_2(self, tmp_path):
        path = tmp_path / "g.csv"
        write_grid_csv(path, Grid(np.full((10, 10), 5)))
        assert run("detect", path, "--family", "binomial", "--out-dir", tmp_path) == 2

    def test_unknown_family_exits_2(self, tmp_path):
        assert run("detect", FIXTURE, "--family", "cauchy") == 2

    def test_bad_min_belt_count_exits_2(self, tmp_path):
        assert run("detect", FIXTURE, "--family", "binomial",
                   "--min-belt-count", "soon", "--out-dir", tmp_path) == 2

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_min_belt_count_below_1_exits_2(self, tmp_path, capsys, value):
        assert run("detect", FIXTURE, "--family", "binomial",
                   "--min-belt-count", value, "--out-dir", tmp_path) == 2
        assert f"--min-belt-count: must be >= 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "stat.csv").exists()

    def test_byte_order_mark_grid_same_artifacts(self, tmp_path):
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(FIXTURE).read_bytes())
        for path, out in ((FIXTURE, tmp_path / "a"), (marked, tmp_path / "b")):
            assert run("detect", path, "--family", "binomial", "--out-dir", out) == 0
        assert artifact_bytes(tmp_path / "a") == artifact_bytes(tmp_path / "b")

    @pytest.mark.parametrize("dims, ladder", TOO_WIDE)
    def test_ladder_too_wide_for_the_grid_exits_2(self, tmp_path, capsys, dims, ladder):
        path = tmp_path / "small.csv"
        write_grid_csv(path, Grid(np.arange(dims[0] * dims[1]).reshape(dims) % 5 + 1))
        out = tmp_path / "out"
        assert run("detect", path, "--family", "poisson", "--ladder", ladder, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert "ladder square:0,square:1,square:2,square:3,square:4,square:5" in err
        assert f"is too wide for a {dims[0]}x{dims[1]} grid" in err
        assert "Traceback" not in err and not out.exists()

    def test_ladder_wider_than_the_grid_costs_what_the_grid_holds(self, tmp_path):
        # either square covers the whole 50x50 grid from every pixel
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        for radius in (300, 49):
            subprocess.run([sys.executable, "-m", "mcd.cli", "detect", FIXTURE, "--family", "binomial",
                            "--ladder", f"square:0,square:{radius}", "--out-dir", str(tmp_path / str(radius))],
                           cwd=root, env=env, check=True, capture_output=True, timeout=60)
        for name in ("stat.csv", "var.csv", "mask.csv", "mask.pgm"):
            assert (tmp_path / "300" / name).read_bytes() == (tmp_path / "49" / name).read_bytes(), name

    @pytest.mark.parametrize("argv, code", [
        (("detect", "--ladder", "square:0,square:100000000"), 0),
        (("scan", "--radii", "100000000", "--mc-reps", "19"), 2),
    ], ids=["detect", "scan"])
    def test_radius_of_1e8_costs_what_the_grid_holds(self, tmp_path, argv, code):
        # only window rows that reach the 50x50 grid are listed; listing all
        # 2 * 10**8 + 1 rows would need tens of GB, far past this 1 GB limit
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        out = tmp_path / "wide"
        proc = subprocess.run([sys.executable, "-m", "mcd.cli", argv[0], FIXTURE, "--family", "binomial",
                               *argv[1:], "--out-dir", str(out)], cwd=root, env=env,
                              preexec_fn=limit_memory, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        if argv[0] == "scan":  # every zone is over the exposure cap, as at any radius past 100
            assert "every zone exceeds half the total exposure; reduce radii" in proc.stderr
            return
        # the same files as a square that just covers the grid, except the ladder's name
        assert run("detect", FIXTURE, "--family", "binomial", "--ladder", "square:0,square:49",
                   "--out-dir", tmp_path / "49") == 0
        for name in ("stat.csv", "var.csv", "mask.csv", "mask.pgm"):
            assert (out / name).read_bytes() == (tmp_path / "49" / name).read_bytes(), name
        assert ((out / "detection.txt").read_text().replace("100000000", "49")
                == (tmp_path / "49" / "detection.txt").read_text())

    def test_threshold_count_below_3_exits_2(self, tmp_path, capsys):
        assert run("detect", FIXTURE, "--family", "binomial",
                   "--threshold-count", "2", "--out-dir", tmp_path) == 2
        assert "--threshold-count: must be >= 3" in capsys.readouterr().err
        assert not (tmp_path / "stat.csv").exists()

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run("detect", FIXTURE, "--family", "binomial", "--out-dir", out) == 0
        for name in ("stat.csv", "var.csv", "mask.csv", "mask.pgm", "detection.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_stat_csv_has_no_negative_zero(self, tmp_path):
        # pixels whose every scale clips to the null score exactly +0
        assert run("detect", FIXTURE, "--family", "binomial", "--out-dir", tmp_path) == 0
        lines = (tmp_path / "stat.csv").read_text().splitlines()[1:]
        tokens = [tok for line in lines for tok in line.split(",")]
        assert "0" in tokens and "-0" not in tokens


class TestPathErrors:
    BINARY = b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256))
    ARGV = {
        "detect": ("detect", FIXTURE, "--family", "binomial"),
        "fdr": ("fdr", FIXTURE, "--family", "binomial", "--alpha", "0.05"),
        "scan": ("scan", FIXTURE, "--family", "binomial", "--radii", "1-3", "--mc-reps", "19"),
        "simulate": ("simulate", "--config", "data/table2_lshape.cfg"),
    }

    @pytest.mark.parametrize("command", ["detect", "fdr", "scan", "trials-file"])
    def test_non_utf8_grid_exits_2_naming_it(self, tmp_path, capsys, command):
        path = tmp_path / "bin.csv"
        path.write_bytes(self.BINARY)
        if command == "trials-file":
            argv = (*self.ARGV["detect"], "--trials-file", path)
        else:
            argv = (command, path, *self.ARGV[command][2:])
        assert run(*argv, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"cannot read {path}: not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["detect", "fdr", "scan", "simulate"])
    def test_out_dir_naming_a_file_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                            command, under):
        taken = tmp_path / "ok.csv"
        taken.write_text("1,1\n1\n")
        out = taken / "sub" if under else taken

        def no_work(*args):
            raise AssertionError("input read before --out-dir was checked")

        monkeypatch.setattr(cli, "read_grid_csv", no_work)
        monkeypatch.setattr(cli, "load_config_file", no_work)
        assert run(*self.ARGV[command], "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert f"cannot create output directory {out}: " in err
        assert "Traceback" not in err

    def test_unmakeable_out_dir_exits_2(self, tmp_path, capsys):
        # a dangling symlink passes the up-front check; making the directory fails
        out = tmp_path / "link"
        out.symlink_to(tmp_path / "missing" / "target")
        assert run(*self.ARGV["detect"], "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert f"cannot create output directory {out}: File exists" in err
        assert "Traceback" not in err


class TestSimulate:
    def config(self, tmp_path, **extra):
        lines = ["dims = 30x30", "family = binomial", "shape = disc",
                 "disc_radius = 6", "null_param = 0.2", "alt_param = 0.5",
                 "trials = 50", "replicates = 2", "seed = 5", "methods = mcd,fdr"]
        lines += [f"{k} = {v}" for k, v in extra.items()]
        path = tmp_path / "sim.cfg"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_scan_radii_range_stops_at_the_grid(self, tmp_path):
        # a circle of radius rows + cols = 40 holds the whole 20x20 grid, over the
        # exposure cap, so the range stops there instead of expanding to 10**8 radii
        # (about 9 GB of integers, far past this run's 1 GB limit)
        root = Path(__file__).resolve().parents[1]
        cfg = self.config(tmp_path, scan_reps=19)
        argv = ["simulate", "--config", str(cfg), "--set", "methods=mcd,scan", "--set", "dims=20x20",
                "--set", "disc_radius=4"]
        assert run(*argv, "--set", "scan_radii=1-40", "--out-dir", tmp_path / "40") == 0

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        proc = subprocess.run([sys.executable, "-m", "mcd.cli", *argv, "--set", "scan_radii=1-100000000",
                               "--out-dir", str(tmp_path / "wide")],
                              cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
                              preexec_fn=limit_memory, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert artifact_bytes(tmp_path / "wide") == artifact_bytes(tmp_path / "40")

    def test_rerun_byte_identical(self, tmp_path):
        cfg = self.config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run("simulate", "--config", cfg, "--roc", "51", "--out-dir", out) == 0
        names = ["summary.json", "prob_mcd_0.5.csv", "prob_mcd_0.5.pgm",
                 "prob_fdr_0.5.csv", "roc_0.5.csv"]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_summary_schema(self, tmp_path):
        import json

        cfg = self.config(tmp_path)
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out-dir", out) == 0
        report = json.loads((out / "summary.json").read_text())
        assert set(report) == {"mcd", "fdr"}
        cell = report["mcd"]["0.5"]
        assert set(cell) == {"sensitivity_mean", "sensitivity_std",
                             "specificity_mean", "specificity_std"}
        assert 0.0 <= cell["sensitivity_mean"] <= 1.0

    def test_flag_overrides_win(self, tmp_path):
        import json

        cfg = self.config(tmp_path)
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--set", "methods=mcd",
                   "--set", "alt_param=0.6", "--replicates", "3", "--out-dir", out) == 0
        report = json.loads((out / "summary.json").read_text())
        assert set(report) == {"mcd"}
        assert set(report["mcd"]) == {"0.6"}

    def test_missing_config_exits_2_naming_it(self, tmp_path, capsys):
        missing = tmp_path / "absent.cfg"
        assert run("simulate", "--config", missing, "--out-dir", tmp_path) == 2
        assert f"cannot read {missing}: No such file or directory" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = self.config(tmp_path, widgets=7)
        assert run("simulate", "--config", cfg, "--out-dir", tmp_path) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_invalid_setting_exits_2(self, tmp_path):
        cfg = self.config(tmp_path)
        assert run("simulate", "--config", cfg, "--set", "alt_param=0.1",
                   "--out-dir", tmp_path) == 2  # alternative below null

    @pytest.mark.parametrize("setting, key", [
        ("threshold_count=2", "threshold_count"),
        ("min_belt_count=0", "min_belt_count"),
        ("scan_reps=5", "scan_reps"),
        ("cluster_alpha=1", "cluster_alpha"),
        ("cluster_alpha=0", "cluster_alpha"),
        ("shape=blob", "shape"),
        ("shape=custom", "shape"),
        ("replicates=1", "replicates"),  # a sample standard deviation needs two
        ("disc_radius=0", "disc_radius"),
        ("shape=lshape", "disc_radius"),  # disc_radius = 6 stays in the manifest
        ("fdr_alpha=1.5", "fdr_alpha"),
        ("fdr_alpha=0", "fdr_alpha"),
        ("fdr_lambda=1", "fdr_lambda"),
        ("fdr_lambda=-0.5", "fdr_lambda"),
        ("dims=3x3", "dims"),  # disc_radius = 6 does not fit
        ("disc_radius=80", "disc_radius"),
        ("family=poisson null_param=-1 alt_param=1", "null_param"),
        ("family=poisson null_param=0", "null_param"),
        ("family=poisson alt_param=1e19", "alt_param"),  # past numpy's Poisson sampler
        ("family=normal null_param=0 alt_param=inf", "alt_param"),
        ("null_param=nan", "null_param"),
        ("family=normal sigma=inf", "sigma"),
        ("scan_radii=0", "scan_radii"),  # methods = mcd,fdr never run the scan
        ("methods=scan scan_radii=0", "scan_radii"),
        ("scan_radii=-2,3", "scan_radii"),
        ("scan_radii=x", "scan_radii"),
        ("methods=mcd,scan scan_reps=19 scan_radii=50", "scan_radii"),  # every zone over the cap
        ("methods=mcd,blob", "methods"),
        ("alt_params=x", "alt_params"),
        ("ladder=x:1", "ladder"),
        ("seed=-1", "seed"),
    ])
    def test_bad_knob_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, setting, key):
        from mcd import simulate

        def no_work(*args):
            raise AssertionError("a replicate was simulated before the manifest was checked")

        monkeypatch.setattr(simulate, "simulate_grid", no_work)
        out = tmp_path / "out"
        overrides = [arg for pair in setting.split() for arg in ("--set", pair)]
        assert run("simulate", "--config", self.config(tmp_path), *overrides,
                   "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not (out / "summary.json").exists()

    def test_one_replicate_flag_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        from mcd import simulate

        def no_work(*args):
            raise AssertionError("a replicate was simulated before the manifest was checked")

        monkeypatch.setattr(simulate, "simulate_grid", no_work)
        out = tmp_path / "out"
        assert run("simulate", "--config", self.config(tmp_path), "--replicates", "1",
                   "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert "replicates must be >= 2, got 1" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("dims, ladder", TOO_WIDE)
    def test_ladder_too_wide_for_dims_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                                dims, ladder):
        from mcd import simulate

        def no_work(*args):
            raise AssertionError("a replicate was simulated before the manifest was checked")

        monkeypatch.setattr(simulate, "simulate_grid", no_work)
        out = tmp_path / "out"
        assert run("simulate", "--config", self.config(tmp_path, ladder=ladder),
                   "--set", f"dims={dims[0]}x{dims[1]}", "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert f"is too wide for a {dims[0]}x{dims[1]} grid" in err and "ladder square:0," in err
        assert "Traceback" not in err and not out.exists()

    # per-family rates for the fuzzed manifest, so only the fuzzed value can be wrong
    FUZZ_RATES = {"binomial": "null_param = 0.2\nalt_param = 0.5\ntrials = 50\n",
                  "poisson": "null_param = 4\nalt_param = 9\n",
                  "normal": "null_param = 0\nalt_param = 1\nsigma = 1\n"}

    EXTREME = ("1e-300", "1e300")

    @given(family=st.sampled_from(sorted(FUZZ_RATES)),
           key=st.sampled_from(sorted(set(CONVERTERS) - {"dims", "replicates"})),
           value=st.one_of(st.integers(-50, 50).map(str), st.sampled_from(
               ["nan", "inf", "-inf", "", "abc", "1,x", "x:1", "-", "1-", *EXTREME])))
    @settings(max_examples=60, deadline=None)
    def test_any_override_runs_or_exits_2_before_any_work(self, family, key, value):
        from mcd import simulate

        calls = []
        real = simulate.simulate_grid

        def counting(*args):
            calls.append(args)
            return real(*args)

        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(simulate, "simulate_grid", counting), \
                contextlib.redirect_stderr(io.StringIO()) as err, \
                contextlib.redirect_stdout(io.StringIO()):
            cfg = Path(tmp) / "tiny.cfg"
            cfg.write_text(f"dims = 20x20\nfamily = {family}\n{self.FUZZ_RATES[family]}"
                           "shape = disc\ndisc_radius = 5\nreplicates = 2\nseed = 5\n"
                           "methods = mcd\nscan_reps = 19\nscan_radii = 1-3\n")
            code = run("simulate", "--config", cfg, "--set", f"{key}={value}",
                       "--out-dir", Path(tmp) / "out")
        # an extreme finite value may also leave the float range: exit 3
        assert code in ((0, 2, 3) if value in self.EXTREME else (0, 2)), err.getvalue()
        assert "Traceback" not in err.getvalue(), err.getvalue()
        if code == 2:
            assert key in err.getvalue() and not calls, err.getvalue()

    def test_roc_below_2_points_exits_2_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("simulate", "--config", self.config(tmp_path), "--roc", "1",
                   "--out-dir", out) == 2
        assert "--roc: must be >= 2, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_binary_config_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "bin.cfg"
        path.write_bytes(TestPathErrors.BINARY)
        assert run("simulate", "--config", path, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"cannot read {path}: not UTF-8 text" in err
        assert "Traceback" not in err

    def test_byte_order_mark_manifest_same_artifacts(self, tmp_path):
        cfg = self.config(tmp_path)
        marked = tmp_path / "bom.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
        for path, out in ((cfg, tmp_path / "a"), (marked, tmp_path / "b")):
            assert run("simulate", "--config", path, "--out-dir", out) == 0
        assert artifact_bytes(tmp_path / "a") == artifact_bytes(tmp_path / "b")


class TestScanFdr:
    def test_scan_artifacts_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run("scan", FIXTURE, "--family", "binomial", "--radii", "8-12",
                       "--mc-reps", "19", "--seed", "3", "--out-dir", out) == 0
        for name in ("scan.json", "scan_mask.csv", "scan_mask.pgm"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        import json

        payload = json.loads((out1 / "scan.json").read_text())
        assert payload["mc_reps"] == 19
        assert payload["clusters"][0]["p_value"] <= 0.05

    def test_fdr_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert run("fdr", FIXTURE, "--family", "binomial", "--alpha", "0.1",
                   "--out-dir", out) == 0
        import json

        payload = json.loads((out / "fdr.json").read_text())
        assert payload["rejected"] > 0
        pvals, _ = read_grid_csv(out / "pvalues.csv")
        assert pvals.values.min() >= 0.0 and pvals.values.max() <= 1.0

    def write_normal(self, tmp_path):
        rng = np.random.default_rng(17)
        values = rng.normal(size=(20, 20))
        values[6:12, 6:12] += 3.0
        path = tmp_path / "normal.csv"
        write_grid_csv(path, Grid(values))
        return path

    def test_fdr_normal_estimates_sigma(self, tmp_path):
        import json

        out = tmp_path / "out"
        assert run("fdr", self.write_normal(tmp_path), "--family", "normal",
                   "--alpha", "0.1", "--out-dir", out) == 0
        assert json.loads((out / "fdr.json").read_text())["rejected"] > 0

    def test_scan_normal_estimates_sigma(self, tmp_path):
        import json

        out = tmp_path / "out"
        assert run("scan", self.write_normal(tmp_path), "--family", "normal",
                   "--radii", "1-3", "--mc-reps", "19", "--out-dir", out) == 0
        assert json.loads((out / "scan.json").read_text())["clusters"]

    @pytest.mark.parametrize("command", [
        ("detect",),
        ("fdr", "--alpha", "0.1"),
        ("scan", "--radii", "1-3", "--mc-reps", "19"),
    ])
    def test_infinite_sigma_exits_2(self, tmp_path, capsys, command):
        assert run(command[0], self.write_normal(tmp_path), "--family", "normal", "--sigma", "inf",
                   *command[1:], "--out-dir", tmp_path / "out") == 2
        assert "sigma must be positive and finite, got inf" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [
        ("fdr", "--alpha", "0.1"),
        ("scan", "--radii", "1-3", "--mc-reps", "19"),
    ])
    def test_zero_normal_sigma_estimate_exits_3(self, tmp_path, capsys, command):
        # more than half the cells equal the median, so the MAD is 0
        values = np.zeros((20, 20))
        values[3, 3], values[10, 10] = 5.0, -2.0
        path = tmp_path / "flat.csv"
        write_grid_csv(path, Grid(values))
        assert run(command[0], path, "--family", "normal", *command[1:],
                   "--out-dir", tmp_path / "out") == 3
        assert "sigma estimate is 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("detect", "huge", "--family", "normal"),
        ("scan", "huge", "--family", "normal", "--radii", "1-3", "--mc-reps", "19"),
        ("detect", FIXTURE, "--family", "normal", "--sigma", "1e-300"),
        ("theorems", "--delta", "1e200", "--reps", "2", "--dims", "20x20"),
    ], ids=["detect-huge", "scan-huge", "detect-tiny-sigma", "theorems-huge-delta"])
    def test_normal_overflow_exits_3(self, tmp_path, capsys, argv):
        # finite input whose statistic or zone LLRs leave the float range
        values = np.random.default_rng(0).normal(size=(20, 20)) * 1e160
        huge = _write_text_grid(tmp_path / "huge.csv", "20,20", values, ".17g")
        assert run(*[huge if a == "huge" else a for a in argv], "--out-dir", tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert "double precision" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, code", [
        (("detect",), 3),
        (("scan", "--radii", "1-3", "--mc-reps", "19"), 3),
        (("fdr", "--alpha", "0.1"), 0),
    ], ids=["detect", "scan", "fdr"])
    def test_integer_total_past_int64_exits_3(self, tmp_path, capsys, command, code):
        # 400 Poisson(1e17) counts total about 4e19, past 2**63, where int64 sums
        # wrap; fdr takes no sums, so it still runs
        path = tmp_path / "big.csv"
        write_grid_csv(path, Grid(np.random.default_rng(0).poisson(1e17, size=(20, 20))))
        assert run(command[0], path, "--family", "poisson", *command[1:],
                   "--out-dir", tmp_path / "out") == code
        err = capsys.readouterr().err
        assert ("past 2**63" in err) == (code == 3) and "Traceback" not in err

    def test_radii_range_stops_at_the_grid(self, tmp_path):
        # a circle of radius rows + cols = 100 holds the whole 50x50 grid, over the
        # exposure cap, so the range stops there instead of expanding to 10**8 radii
        outs = []
        for radii in ("1-100", "1-100000000"):
            out = tmp_path / radii
            assert run("scan", FIXTURE, "--family", "binomial", "--radii", radii, "--mc-reps", "19",
                       "--seed", "3", "--out-dir", out) == 0
            outs.append(artifact_bytes(out))
        assert outs[0] == outs[1]

    def test_radius_over_the_cap_exits_2(self, tmp_path, capsys):
        assert run("scan", FIXTURE, "--family", "binomial", "--radii", "500", "--mc-reps", "19",
                   "--out-dir", tmp_path / "out") == 2
        assert "every zone exceeds half the total exposure; reduce radii" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [("detect",), ("fdr", "--alpha", "0.1")])
    def test_zero_poisson_median_exits_3(self, tmp_path, capsys, command):
        counts = np.zeros((20, 20), dtype=int)
        counts[5, 5], counts[6, 6] = 4, 2
        path = tmp_path / "sparse.csv"
        write_grid_csv(path, Grid(counts))
        assert run(command[0], path, "--family", "poisson", *command[1:],
                   "--out-dir", tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert "median count is 0" in err
        assert "count_offset" not in err

    @pytest.mark.parametrize("command", [
        ("detect",),
        ("fdr", "--alpha", "0.1"),
        ("scan", "--radii", "1-3", "--mc-reps", "19"),
    ])
    @pytest.mark.parametrize("shift", [0.5, -3], ids=["real", "negative"])
    def test_poisson_non_counts_exit_3(self, tmp_path, capsys, command, shift):
        counts = np.random.default_rng(7).poisson(4.0, size=(20, 20)) + shift
        path = tmp_path / "bad.csv"
        write_grid_csv(path, Grid(counts))
        assert run(command[0], path, "--family", "poisson", *command[1:],
                   "--out-dir", tmp_path / "out") == 3
        assert "nonnegative integer counts" in capsys.readouterr().err

    def test_fdr_requires_alpha(self):
        assert run("fdr", FIXTURE, "--family", "binomial") == 2

    @pytest.mark.parametrize("command", [
        ("detect",),
        ("fdr", "--alpha", "0.1"),
        ("scan", "--radii", "1-3", "--mc-reps", "19"),
    ])
    @pytest.mark.parametrize("family", ["poisson", "normal"])
    @pytest.mark.parametrize("flag", ["--trials", "--trials-file"])
    def test_trials_flags_refused_unless_binomial(self, tmp_path, capsys, command, family, flag):
        counts = np.random.default_rng(5).poisson(4.0, size=(20, 20))
        path = tmp_path / "counts.csv"
        write_grid_csv(path, Grid(counts))
        trials = tmp_path / "trials.csv"
        write_grid_csv(trials, Grid(np.full((20, 20), 30)))
        value = "30" if flag == "--trials" else str(trials)
        assert run(command[0], path, "--family", family, flag, value, *command[1:],
                   "--out-dir", tmp_path / "out") == 2
        assert "forbidden otherwise" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # (count set at cell (3, 3), trials flag, message); a trials file is (shape, value)
    BAD_BINOMIAL = {
        "counts-above-trials": (31, ("--trials", "30"), "counts exceed trials"),
        "negative-count": (-1, ("--trials", "30"), "count grid must hold nonnegative integers"),
        "trials-shape": (None, ("--trials-file", (20, 21), 30),
                         "trials shape (20, 21) != grid shape (20, 20)"),
        "zero-trials": (None, ("--trials-file", (20, 20), 0), "trials must be integers >= 1"),
        "non-integer-trials": (None, ("--trials-file", (20, 20), 30.5), "trials must be integers >= 1"),
    }

    @pytest.mark.parametrize("command", [
        ("detect",),
        ("fdr", "--alpha", "0.1"),
        ("scan", "--radii", "1-3", "--mc-reps", "19"),
    ], ids=["detect", "fdr", "scan"])
    @pytest.mark.parametrize("case", sorted(BAD_BINOMIAL))
    def test_binomial_counts_the_trials_cannot_hold_exit_3(self, tmp_path, capsys, command, case):
        cell, flag, cause = self.BAD_BINOMIAL[case]
        counts = np.random.default_rng(5).binomial(30, 0.2, size=(20, 20))
        if cell is not None:
            counts[3, 3] = cell
        path = tmp_path / "counts.csv"
        write_grid_csv(path, Grid(counts))
        if flag[0] == "--trials-file":
            trials = tmp_path / "trials.csv"
            write_grid_csv(trials, Grid(np.full(flag[1], flag[2])))
            flag = ("--trials-file", trials)
        assert run(command[0], path, "--family", "binomial", *flag, *command[1:],
                   "--out-dir", tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert cause in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_header_trials_ignored_unless_binomial(self, tmp_path):
        counts = np.random.default_rng(5).poisson(4.0, size=(20, 20))
        path = write_with_trials_header(tmp_path / "counts.csv", counts, 30)
        assert run("detect", path, "--family", "poisson", "--out-dir", tmp_path / "out") == 0


class TestTheorems:
    def test_missing_delta_exits_2(self, tmp_path):
        assert run("theorems", "--reps", "5", "--out-dir", tmp_path) == 2

    def test_zero_delta_reports_with_note(self, tmp_path, capsys):
        assert run("theorems", "--delta", "0", "--reps", "5",
                   "--dims", "20x20", "--out-dir", tmp_path) == 0
        assert "exclude delta = 0" in capsys.readouterr().out
        assert (tmp_path / "theorems.json").exists()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        out_env, out_flag = tmp_path / "env", tmp_path / "flag"
        monkeypatch.setenv("MCD_SEED", "11")
        assert run("theorems", "--delta", "1", "--reps", "5",
                   "--dims", "20x20", "--out-dir", out_env) == 0
        monkeypatch.delenv("MCD_SEED")
        assert run("theorems", "--delta", "1", "--reps", "5",
                   "--dims", "20x20", "--seed", "11", "--out-dir", out_flag) == 0
        assert (out_env / "theorems.json").read_bytes() == \
            (out_flag / "theorems.json").read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (("--dims", "1x5"), "grid dims must be at least 2x2, got 1x5"),
        (("--radius", "0"), "disc radius must be positive, got 0.0"),
        (("--shape", "oval", "--radius", "3"), "a radius applies to shape 'disc' only, not 'oval'"),
        (("--seed", "-1"), "seed must be >= 0, got -1"),
        (("--delta", "nan"), "delta must be nonnegative and finite, got nan"),
        (("--delta", "inf"), "delta must be nonnegative and finite, got inf"),
    ])
    def test_bad_flag_exits_2(self, tmp_path, capsys, argv, message):
        assert run("theorems", "--delta", "1", "--reps", "2", *argv,
                   "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("MCD_SEED", "99")
        assert run("theorems", "--delta", "1", "--reps", "5",
                   "--dims", "20x20", "--seed", "11", "--out-dir", out_a) == 0
        monkeypatch.setenv("MCD_SEED", "11")
        assert run("theorems", "--delta", "1", "--reps", "5",
                   "--dims", "20x20", "--out-dir", out_b) == 0
        assert (out_a / "theorems.json").read_bytes() == (out_b / "theorems.json").read_bytes()


# SHA-256 of artifacts as the gather-based window sums, the int32 median
# bisection and the row-at-a-time CSV writer wrote them; the sliced sums,
# the narrow-dtype bisection, the integer scan tables and both branches of
# the CSV writer (each distinct value formatted once, or a block of rows
# at a time) must reproduce every byte. The Poisson circle, per-cell trials
# and normal five-scale cases were recorded from the stacked statistic
# (every scale's sums held at once) that the scale-by-scale loop replaced.
# The Poisson and normal scans were recorded before the scan's observed
# and Monte Carlo zone passes were merged into one generator.
# The digests hold on one machine, not across CPUs: numpy's SIMD `log`,
# `log1p` and `exp` give other last bits under other dispatch. With
# NPY_DISABLE_CPU_FEATURES="AVX512_ICL AVX512_SPR X86_V4" on an AVX-512
# host, stat.csv of detect, detect-five-scale and
# detect-trials-file-five-scale and the last digits of one LLR in
# scan.json differ, while every mask and cluster choice stays the same
ARTIFACT_DIGESTS = {
    "detect": {
        "detection.txt": "4405008db18714f00c7c7fb29a420fd0a0b492e912cf420670a4d29c151b7c2b",
        "mask.csv": "b94c0c68859667be796700ed9e2745d1def4b5902b9c59ec291864e1b38ba019",
        "mask.pgm": "8634340e02bbc0477e1aeb24584fc9dbf4828582bd0cc2b6eb1d45b097142535",
        "stat.csv": "79537d2478665bb93a25eaa4a1e7af776bad0cc0123ce516fc498b2ae58e8ad5",
        "var.csv": "a51da7fc6deb0beb20d97ee6abb10238f10db4780ab1067971e09d3caf6f5a61",
    },
    "detect-five-scale": {
        "detection.txt": "c59065a415d4211185e885d0dc6180a27db63ecae72d779103a7615713454941",
        "mask.csv": "ed8726fb300fef637abad6ab1ce948ec95e507473c29663bc0edde6ac146a73a",
        "mask.pgm": "64fa2ca0f3e7891c216891dfa8b932f2540a14c4dec2e574b4bfd25716f872d6",
        "stat.csv": "f9a58c363ccfc8bf2c4ea33d3621f3acf6c372a83c9e5885a86bd6623f6d7f5f",
        "var.csv": "a51da7fc6deb0beb20d97ee6abb10238f10db4780ab1067971e09d3caf6f5a61",
    },
    "detect-normal": {
        "detection.txt": "33c066b6d2227dcd845ffa381765c3ffc3a01c869a4440d32ccb1ffcd3fd5d9b",
        "mask.csv": "48762f9d06b829ec02ee87e10e16eedefbd4fe9ca822bea7e7b1476373c11077",
        "stat.csv": "d9206b181661b3df271173a5cf47717c6124878b520c26dc25a761c7851aba3b",
        "var.csv": "bd60d8266738d470d09f26a9c604377c6250d1913230a80e43fcd8b0888b0632",
    },
    "detect-normal-five-scale": {
        "detection.txt": "bc6634616479826247c3cb0ab2e84692415f00750176281ba1a0d9a90edc69a5",
        "mask.csv": "f2d77d067c18be017749b671e83911f0408ae72f9d0a0bf07aae12ca207995cf",
        "mask.pgm": "d4858b90d0735adbe3abb98f7383c3ca80c3ba431f43724fc01785b84d3b9744",
        "stat.csv": "7ce27d5a19d0065bde07fb950bb515cc3fc61eae99ac9b1664e578565b38cb5b",
        "var.csv": "bd60d8266738d470d09f26a9c604377c6250d1913230a80e43fcd8b0888b0632",
    },
    "detect-poisson-circles": {
        "detection.txt": "4da9f9d1d18a6dc372eafedd475844d59302664895528f130155965d4004b982",
        "mask.csv": "b4969b3f40adf60ba098bfe784451994eb0422b712cd7c8597e5bf62be943f8e",
        "mask.pgm": "138d453ab22851de4f88dda431c3b87b7cabd0cc73393f525267ca50d0bb0902",
        "stat.csv": "ef05035383173cb4e180bfd157038c90062fe9a98542aa4c8c1ce67752d0aad7",
        "var.csv": "04c6aa698caa3ec42cd0d383750f0f626a93f961ecfb55b7ddb1db5496f470f4",
    },
    "detect-trials-file-five-scale": {
        "detection.txt": "8a3d025972bf96c0cc4488aba687a214274cf439204952ec5741899a1680a4f9",
        "mask.csv": "0bebed65189d012f55a2d97e6049bc4dba5ecd2b641ed7e48b1b122a30a6ecbb",
        "mask.pgm": "03fcc182917266625ef2e80ca1d9b9c7e9ec1dec4620bb1c8e33a4ce6018c837",
        "stat.csv": "4d35110748fb2920819aee115ed1a48ae2df3bda935ee90a3606736c0e9c79bd",
        "var.csv": "6eda0d8b7069d9629dcf28acc2ad67570cb06fcbb90e38c41c356508ecd7fa35",
    },
    "fdr": {
        "fdr.json": "6a1847052f3d987e915764e239b05c1c7e4219a5349c119901d449b0e6e81a4e",
        "fdr_mask.csv": "e22bd922f8d73b0bd9a390cd5a0b6dfd0409639a0d379e33daf9d5a617076960",
        "fdr_mask.pgm": "8518d7cb39efcbe5971c055ade27800b8efaefdf27ed95a699092c0fb7b9b57d",
        "pvalues.csv": "952edaca22ecbd5308491406375baca2c1df891977db15e65f79cb5c398dd072",
    },
    "fdr-approx": {
        "fdr.json": "498ff2f9f84e56b3639b691b0cec9824909d433e124ff18d4307e35fc60f56da",
        "fdr_mask.csv": "73118cfba52d6922b322ae562ed9798cbe10d7fed5aedb7e5ae3ca0d44740384",
        "fdr_mask.pgm": "c5bebc89a140ac101fcf933d7d94173ceb336e683f1822355d94f8e3c943c7dc",
        "pvalues.csv": "35d343f6da97a0fcef1496090719473dd564672536d948ded8c16f2faa299c5f",
    },
    "scan": {
        "scan.json": "909b891471ea9b94bf8ccd836211bbfb92fb38dbf7989dacf9aa04fa41f9605e",
        "scan_mask.csv": "0d331dcc93d68057cc35f93550e6cbdf9743c11cefe6609cbd268192d5576896",
        "scan_mask.pgm": "1bbc176c551ff10b668f3fe7697d4fb01bc33251acf0d5e8bfc4fdb512c2fa36",
    },
    "scan-normal": {
        "scan.json": "8b3da9926b2233c974c1aecfc76c5792a82acff0ba1befe6f9f09bb0c0f629b3",
        "scan_mask.csv": "67ed73cfed3b7b52a0e2c131a6051b9755093de9b9d650f961ad152408b4f0c0",
        "scan_mask.pgm": "570d1160fb01b08756bf78b0c2479405f273a0e396a4bc245d8931442b838f20",
    },
    "scan-poisson": {
        "scan.json": "3c3d39a4e6375e9c5e5ef9c4d6de60d9c7528c26345ac0c16b898bb4754c0cbc",
        "scan_mask.csv": "7abf69b34fe3cf70eb7c8593fe03fe8492740bc04bc0a4472c6af38d597d2f4a",
        "scan_mask.pgm": "7cbb46af02f286cc51191b3951818b16209ef17fe5fdcefff5cef504b8d85db9",
    },
    "simulate": {
        "prob_fdr_0.25.csv": "e731ebee1cec5abc1b3bad77ea9d355eed73e52938107120fe6c3fc4773192b9",
        "prob_mcd_0.25.csv": "03815cc0dd671ac2453a7ce64e9863bd5810b918b430b8e30320b77ada2f41bf",
        "roc_0.25.csv": "7e4c1945a5ccae85ce4db7ff8fa35b886ed602bf7bf160e5cec02d7e1e498753",
        "summary.json": "548693ba7a74c07266adbe43996a889d3ae7c8e2404c4750276aa1208a2c7b0a",
    },
    # both success fractions (0.85 and 0.40) lie strictly inside (0, 1), so
    # swapping the two checks' per-replicate indicators changes the bytes
    "theorems": {
        "theorems.json": "eb22da00b43b80ffc3903cbb3fa1b0e3c216eacbb48435782d2c7e63503da222",
    },
}


def normal_input(directory):
    """A seeded 40x40 normal grid written with `.17g`, independently of mcd's writer."""
    truth = gen_shape("disc", (40, 40), radius=8.0)
    values = np.random.default_rng(17).normal(np.where(truth, 0.8, 0.0), 1.0)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "normal.csv"
    path.write_text("40,40\n" + "".join(",".join(format(float(x), ".17g") for x in row) + "\n"
                                        for row in values))
    return path


def _write_text_grid(path, header, values, fmt):
    path.write_text(header + "\n" + "".join(",".join(format(x, fmt) for x in row.tolist()) + "\n"
                                           for row in values))
    return path


def poisson_input(directory):
    """A seeded 45x38 Poisson grid with a raised disc, written independently of mcd's writer."""
    truth = gen_shape("disc", (45, 38), radius=7.0)
    counts = np.random.default_rng(31).poisson(np.where(truth, 9.0, 4.0))
    directory.mkdir(parents=True, exist_ok=True)
    return _write_text_grid(directory / "poisson.csv", "45,38", counts, "d")


def binomial_trials(directory):
    """Seeded per-cell trials (1 to 60) for `binomial_counts`, so there are many levels."""
    trials = np.random.default_rng(37).integers(1, 61, size=(33, 41))
    directory.mkdir(parents=True, exist_ok=True)
    return _write_text_grid(directory / "trials.csv", "33,41", trials, "d")


def binomial_counts(directory):
    """Seeded binomial counts over `binomial_trials`, with a raised disc."""
    trials = np.random.default_rng(37).integers(1, 61, size=(33, 41))
    truth = gen_shape("disc", (33, 41), radius=6.0)
    counts = np.random.default_rng(41).binomial(trials, np.where(truth, 0.45, 0.25))
    directory.mkdir(parents=True, exist_ok=True)
    return _write_text_grid(directory / "counts.csv", "33,41", counts, "d")


ARTIFACT_ARGV = {
    "detect": ("detect", FIXTURE, "--family", "binomial"),
    "detect-five-scale": ("detect", FIXTURE, "--family", "binomial", "--ladder", "five-scale"),
    "detect-normal": ("detect", normal_input, "--family", "normal"),
    "detect-normal-five-scale": ("detect", normal_input, "--family", "normal",
                                 "--ladder", "five-scale"),
    "detect-poisson-circles": ("detect", poisson_input, "--family", "poisson",
                               "--ladder", "circle:0,circle:3,circle:6"),
    "detect-trials-file-five-scale": ("detect", binomial_counts, "--family", "binomial",
                                      "--trials-file", binomial_trials, "--ladder", "five-scale"),
    "fdr": ("fdr", FIXTURE, "--family", "binomial", "--alpha", "0.05"),
    "fdr-approx": ("fdr", FIXTURE, "--family", "binomial", "--alpha", "0.05", "--approx"),
    "scan": ("scan", FIXTURE, "--family", "binomial", "--radii", "1-20", "--mc-reps", "19",
             "--seed", "3"),
    "scan-normal": ("scan", normal_input, "--family", "normal", "--radii", "1-6",
                    "--mc-reps", "19", "--seed", "5", "--cluster-alpha", "0.5"),
    "scan-poisson": ("scan", poisson_input, "--family", "poisson", "--radii", "1-6",
                     "--mc-reps", "19", "--seed", "5", "--cluster-alpha", "0.5"),
    "simulate": ("simulate", "--config", "data/table2_lshape.cfg", "--set", "dims=40x40",
                 "--set", "methods=mcd,fdr", "--replicates", "3", "--seed", "11", "--roc", "20"),
    "theorems": ("theorems", "--delta", "0.3", "--reps", "20", "--dims", "40x40", "--seed", "3"),
}


@pytest.mark.parametrize("name", sorted(ARTIFACT_DIGESTS))
def test_fixture_artifacts_byte_identical(tmp_path, name):
    argv = [a(tmp_path / "in") if callable(a) else a for a in ARTIFACT_ARGV[name]]
    assert run(*argv, "--out-dir", tmp_path / "out") == 0
    got = {f: hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest()
           for f in ARTIFACT_DIGESTS[name]}
    assert got == ARTIFACT_DIGESTS[name]


def test_scan_clusters_do_not_depend_on_simd_dispatch(tmp_path):
    # clusters 3 and 4 of this scan tie exactly; an unstable sort of the
    # zones ordered them by the CPU features numpy dispatched on
    import json

    root = Path(__file__).resolve().parents[1]
    argv = [str(a(tmp_path / "in")) if callable(a) else a for a in ARTIFACT_ARGV["scan-poisson"]]
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = str(root / "src")
    found = []
    for disabled in ({}, {"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL AVX512_SPR X86_V4"}):
        out = tmp_path / f"out{len(found)}"
        proc = subprocess.run([sys.executable, "-m", "mcd.cli", *argv, "--out-dir", str(out)],
                              cwd=root, env={**env, **disabled}, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "scan.json").read_text())
        found.append([(c["center"], c["radius"]) for c in report["clusters"]])
    assert found[0] == found[1]


class TestStartup:
    @pytest.mark.parametrize("argv", [
        ["detect", FIXTURE, "--family", "binomial"],
        ["theorems", "--delta", "0.5", "--reps", "2", "--dims", "20x20"],
        ["scan", FIXTURE, "--family", "binomial", "--radii", "1-3", "--mc-reps", "19"],
    ], ids=["detect", "theorems", "scan"])
    def test_loads_no_scipy(self, tmp_path, argv):
        root = Path(__file__).resolve().parents[1]
        code = (
            "import sys\n"
            "def scipy_modules():\n"
            "    return [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "import mcd.cli\n"
            "assert not scipy_modules(), scipy_modules()\n"
            "assert mcd.cli.main(sys.argv[1:]) == 0\n"
            "assert not scipy_modules(), scipy_modules()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv, "--out-dir", str(tmp_path)], cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src")}, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
