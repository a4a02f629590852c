"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line with the measured quantities
and the acceptance window (run with ``pytest tests/test_acceptance.py -v -s``
from the repository root to see the lines as they complete). The heavy
tests are the replicated simulation studies (a2 and a4); the whole file
takes roughly fifteen minutes.

a3 is expected to fail: the measured operating point of a level-0.60
false-discovery-rate procedure with calibrated p-values is reproducibly
far from the reference window encoded in the test. The analysis of why
no valid procedure can reach that window is summarized in the README
under "Acceptance status".
"""

import time
from pathlib import Path

import numpy as np
import pytest

from mcd.baselines import pixel_pvalues
from mcd.cli import main as cli_main
from mcd.grid import (
    Grid,
    ScaleLadder,
    WindowSpec,
    exposure_sums,
    window_sums,
)
from mcd.simulate import (
    SimConfig,
    auc,
    roc_curve,
    run_experiment,
    simulate_grid,
    theorem_checks,
)
from mcd.stats import ModelSpec, stat_field
from mcd.threshold import neighborhood_variability

from oracles import oracle_stat_grid, window_offset_set

FIXTURE = "data/disc_counts.csv"

# pixel plus 4-neighborhood at the second scale; dilutes lone outlier cells
CROSS_LADDER = ScaleLadder((WindowSpec("square", 0), WindowSpec("circle", 1)))


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_a1_strong_signal_means():
    t0 = time.monotonic()
    summary = run_experiment(SimConfig(replicates=100, seed=0))
    m = summary.methods["mcd"]
    dt = time.monotonic() - t0
    ok = (
        abs(m.sens_mean - 0.9723) <= 0.05
        and abs(m.spec_mean - 0.9856) <= 0.05
        and dt < 300.0
    )
    _verdict(
        "a1 strong-signal means",
        ok,
        f"sens {m.sens_mean:.4f} (ref 0.9723 +-0.05), "
        f"spec {m.spec_mean:.4f} (ref 0.9856 +-0.05), {dt:.0f}s (<300)",
    )


def test_a2_weak_signal_trend():
    levels = (0.21, 0.22, 0.23, 0.24, 0.25)
    means, stds = [], []
    for p1 in levels:
        cfg = SimConfig(
            shape="oval",
            alt_param=p1,
            replicates=100,
            seed=2024,
            ladder=CROSS_LADDER,
            threshold_count=30,
            min_belt_count=8,
        )
        m = run_experiment(cfg).methods["mcd"]
        means.append(m.sens_mean)
        stds.append(m.sens_std)
    steps = np.diff(means)
    ok = means[0] >= 0.25 and stds[0] >= 0.2 and bool(np.all(steps >= -0.03))
    _verdict(
        "a2 weak-signal trend",
        ok,
        "sens " + "/".join(f"{v:.3f}" for v in means)
        + f" at p1 0.21..0.25, sd@0.21 {stds[0]:.3f} (>=0.2), "
        f"sens@0.21 {means[0]:.3f} (>=0.25), min step {steps.min():+.3f} (>=-0.03)",
    )


def test_a3_fdr_operating_point():
    cfg = SimConfig(alt_param=0.25, replicates=100, seed=0, methods=("fdr",), fdr_alpha=0.6)
    m = run_experiment(cfg).methods["fdr"]
    ok = abs(m.spec_mean - 0.7208) <= 0.05 and abs(m.sens_mean - 0.7272) <= 0.07
    detail = (
        f"spec {m.spec_mean:.4f} (ref 0.7208 +-0.05), "
        f"sens {m.sens_mean:.4f} (ref 0.7272 +-0.07)"
    )
    if not ok:
        detail += (
            "; the reference point implies a realized false-discovery proportion"
            " near 0.9, which a level-0.60 procedure with calibrated p-values"
            " cannot produce (README, acceptance status)"
        )
    _verdict("a3 fdr operating point", ok, detail)


def test_a4_scan_oval():
    t0 = time.monotonic()
    cfg = SimConfig(shape="oval", alt_param=0.22, replicates=20, seed=0, methods=("scan",))
    m = run_experiment(cfg).methods["scan"]
    dt = time.monotonic() - t0
    ok = abs(m.sens_mean - 0.9087) <= 0.07 and m.spec_mean >= 0.95 and dt < 1800.0
    _verdict(
        "a4 scan oval",
        ok,
        f"sens {m.sens_mean:.4f} (ref 0.9087 +-0.07), "
        f"spec {m.spec_mean:.4f} (>=0.95), {dt:.0f}s (<1800)",
    )


@pytest.fixture(scope="module")
def theorem_report():
    # a5 and a6 read the two checks of one pass over the same replicates
    return theorem_checks(delta=1.0, dims=(100, 100), shape="disc", seed=0, reps=200)


def test_a5_stat_ordering(theorem_report):
    report = theorem_report
    ok = report.ordered.mean() >= 0.95
    lo, mid, hi = report.ave_stat
    _verdict(
        "a5 stat ordering",
        ok,
        f"noise<boundary<signal held in {report.ordered.mean():.1%} of "
        f"{report.replicates} replicates (>=95%), "
        f"mean stats {lo:.2f}/{mid:.2f}/{hi:.2f}",
    )


def test_a6_variability_dominance(theorem_report):
    report = theorem_report

    # single-configuration closed form: 3x3 grid, two signal cells adjacent
    # to the center, so the center is a k=2 boundary cell and
    # E[4 V(center)] = 4 + 2 d^2 - 4 d^2 / 5
    delta = 1.0
    truth = np.zeros((3, 3), dtype=bool)
    truth[0, 1] = truth[1, 0] = True
    model = ModelSpec("normal", sigma=1.0)
    reps = 4000
    vals = np.empty(reps)
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence((907, rep)))
        y = rng.normal(truth * delta, 1.0)
        vals[rep] = 4.0 * neighborhood_variability(Grid(y), model).values[1, 1]
    expected = 4.0 + 2.0 * delta**2 - 4.0 * delta**2 / 5.0
    se = vals.std(ddof=1) / np.sqrt(reps)
    gap = abs(vals.mean() - expected)
    ok = report.dominant.mean() >= 0.95 and gap <= 3.0 * se
    _verdict(
        "a6 variability dominance",
        ok,
        f"boundary>rest held in {report.dominant.mean():.1%} of "
        f"{report.replicates} replicates (>=95%); k=2 cell mean {vals.mean():.4f} "
        f"vs {expected:.4f} closed form, gap {gap:.4f} <= 3se {3 * se:.4f}",
    )


def _brute_window_sums(values: np.ndarray, window: WindowSpec):
    rows, cols = values.shape
    sums = np.zeros((rows, cols), dtype=np.int64)
    counts = np.zeros((rows, cols), dtype=np.int64)
    offs = sorted(window_offset_set(window))
    for i in range(rows):
        for j in range(cols):
            s = c = 0
            for di, dj in offs:
                r, q = i + di, j + dj
                if 0 <= r < rows and 0 <= q < cols:
                    s += int(values[r, q])
                    c += 1
            sums[i, j] = s
            counts[i, j] = c
    return sums, counts


def test_a7_oracle_equivalence():
    rng = np.random.default_rng(2718)
    ladder = ScaleLadder.default_two_scale()
    rtol, atol = 1e-9, 1e-12
    worst = 0.0
    for family in ("binomial", "poisson", "normal"):
        for _ in range(100):
            if family == "binomial":
                n = np.full((15, 15), 50)
                y = rng.binomial(50, 0.3, size=(15, 15))
                model = ModelSpec("binomial", trials=Grid(n))
                want = oracle_stat_grid(np.asarray(y, float), family, ladder, trials=n)
            elif family == "poisson":
                y = rng.poisson(12.0, size=(15, 15))
                model = ModelSpec("poisson")
                want = oracle_stat_grid(np.asarray(y, float), family, ladder)
            else:
                y = rng.normal(3.0, 2.0, size=(15, 15))
                model = ModelSpec("normal", sigma=2.0)
                want = oracle_stat_grid(y, family, ladder, sigma=2.0)
            got = stat_field(Grid(y), model, ladder).values
            ratio = np.max(np.abs(got - want) / (atol + rtol * np.abs(want)))
            worst = max(worst, float(ratio))
            np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)

    vals = rng.integers(0, 1000, size=(23, 17))
    windows = (
        WindowSpec("square", 0),
        WindowSpec("square", 3),
        WindowSpec("circle", 4),
        WindowSpec("circle", 7),
    )
    sums_exact = True
    for window, sums in zip(windows, window_sums(vals, windows)):  # one table for all four
        assert sums.dtype == np.int64
        counts = next(exposure_sums(None, vals.shape, [window]))
        want_s, want_c = _brute_window_sums(vals, window)
        sums_exact = sums_exact and bool(np.array_equal(sums, want_s))
        sums_exact = sums_exact and bool(np.array_equal(counts, want_c))
    ok = worst <= 1.0 and sums_exact
    _verdict(
        "a7 oracle equivalence",
        ok,
        f"300 grids, worst stat error {worst:.3f}x the rtol=1e-9 allowance (<=1); "
        f"window sums exact: {sums_exact}",
    )


def test_a8_scale_ladder_auc():
    cfg = SimConfig(alt_param=0.22, replicates=20, seed=0)
    truth = cfg.truth_mask()
    model = cfg.model()
    ladders = {
        "single": ScaleLadder.of("square", [0]),
        "two": ScaleLadder.default_two_scale(),
        "five": ScaleLadder.five_scale(),
    }
    scores = {name: [] for name in (*ladders, "pvalue")}
    for rep in range(cfg.replicates):
        grid, _ = simulate_grid(cfg, rep)
        for name, ladder in ladders.items():
            t = stat_field(grid, model, ladder)
            scores[name].append(auc(roc_curve(t, truth, points=201)))
        pv = pixel_pvalues(grid, model)
        scores["pvalue"].append(auc(roc_curve(-pv.values, truth, points=201)))
    mean = {name: float(np.mean(v)) for name, v in scores.items()}
    ok = (
        mean["five"] >= mean["two"] - 0.02
        and mean["two"] > mean["single"]
        and mean["two"] > mean["pvalue"]
    )
    _verdict(
        "a8 scale-ladder auc",
        ok,
        f"mean AUC single {mean['single']:.4f} / single p-value {mean['pvalue']:.4f}"
        f" / two {mean['two']:.4f} / five {mean['five']:.4f}; "
        f"need five >= two-0.02 and two > both single scores",
    )


def _collect_tree(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def test_a9_cli_determinism(tmp_path):
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text(
        "dims = 30x30\nfamily = binomial\nshape = disc\ndisc_radius = 6\n"
        "null_param = 0.2\nalt_param = 0.3\ntrials = 50\nreplicates = 3\n"
        "methods = mcd\nthreshold_count = 20\nmin_belt_count = 2\nseed = 9\n"
    )
    invocations = {
        "detect": ["detect", FIXTURE, "--family", "binomial"],
        "simulate": ["simulate", "--config", str(sim_cfg), "--roc", "21"],
        "scan": [
            "scan", FIXTURE, "--family", "binomial",
            "--radii", "1-6", "--mc-reps", "19", "--seed", "5",
        ],
        "fdr": ["fdr", FIXTURE, "--family", "binomial", "--alpha", "0.05"],
        "theorems": [
            "theorems", "--delta", "1", "--reps", "5",
            "--dims", "30x30", "--shape", "disc", "--radius", "6", "--seed", "3",
        ],
    }
    identical = True
    files_seen = []
    for name, argv in invocations.items():
        trees = []
        for attempt in (1, 2):
            out = tmp_path / f"{name}{attempt}"
            out.mkdir()
            assert cli_main(argv + ["--out-dir", str(out)]) == 0, name
            trees.append(_collect_tree(out))
        assert trees[0], f"{name} produced no files"
        identical = identical and trees[0] == trees[1]
        files_seen.append(f"{name}:{len(trees[0])}")
    _verdict(
        "a9 cli determinism",
        identical,
        "reran every subcommand with fixed seeds; outputs byte-identical "
        f"({', '.join(files_seen)} files)",
    )
