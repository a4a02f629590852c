"""Command-line front end: detect / simulate / scan / fdr / theorems.

Exit codes: 0 success (possibly with warnings on stderr), 2 usage or
parse problems, 3 degenerate data, 4 internal errors. All outputs are
pure functions of (inputs, config, seed), so re-running a subcommand
reproduces files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback

import numpy as np

from .baselines import circular_scan, pixel_pvalues, storey_fdr
from .config import (
    load_config_file,
    parse_dims,
    parse_int_list,
    parse_ladder,
    parse_override,
    sim_configs,
)
from .errors import (
    ConfigurationError,
    DegenerateDataError,
    GridParseError,
    InvalidInputError,
    UndefinedMetricError,
)
from .grid import Grid
from .gridio import (
    read_grid_csv,
    write_array_csv,
    write_grid_csv,
    write_mask_pgm,
    write_prob_pgm,
)
from .shapes import SHAPE_KINDS
from .simulate import roc_curve, simulate_grid, theorem_checks
from .stats import ModelSpec, stat_field
from .threshold import CONSTANT_FIELD, auto_min_belt_count, run_detection


def _int_at_least(minimum: int):
    """argparse type for an integer no smaller than `minimum`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return value

    parse.__name__ = "int"  # argparse quotes it in "invalid int value"
    return parse


_positive_int = _int_at_least(1)


def _auto_or_positive_int(text: str) -> int | None:
    """argparse type for a belt floor: 'auto' (None) or an integer >= 1."""
    return None if text.strip().lower() == "auto" else _positive_int(text)


_auto_or_positive_int.__name__ = "int or 'auto'"  # argparse quotes it in "invalid ... value"


def _resolve_seed(flag_value: int | None, config_value: int | None = None) -> int:
    """Precedence: explicit flag, config file, MCD_SEED env, 0; refused below 0."""
    seed = flag_value if flag_value is not None else config_value
    env = os.environ.get("MCD_SEED")
    if seed is None and env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigurationError(f"MCD_SEED must be an integer, got {env!r}") from None
    if seed is not None and seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    return seed or 0


def _write_json(path, payload) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_input(args) -> tuple[Grid, ModelSpec]:
    """The input grid and its model, from flags plus whatever the grid header declared.

    Trials flags reach `ModelSpec` for every family, which refuses them
    unless the family is Binomial; a header trial count is used only by
    Binomial.
    """
    grid, trials_uniform = read_grid_csv(args.input)
    trials = None
    if args.trials_file:
        trials, _ = read_grid_csv(args.trials_file)
    elif args.trials is not None:
        trials = Grid(np.full(grid.shape, args.trials, dtype=np.int64))
    elif args.family == "binomial":
        if trials_uniform is None:
            raise ConfigurationError(
                "binomial input needs trial counts: a rows,cols,trials header, "
                "--trials N, or --trials-file PATH"
            )
        trials = Grid(np.full(grid.shape, trials_uniform, dtype=np.int64))
    # each command's `ModelSpec.check_counts` checks the counts against the trials
    return grid, ModelSpec(args.family, trials=trials, sigma=args.sigma)


def _check_out_dir(path: str) -> None:
    """Refuse an --out-dir that names a file or lies under one, before any work.

    The directory is made when the first artifact is written, so a run
    refused for any other reason leaves nothing behind.
    """
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigurationError(f"cannot create output directory {path}: {probe} is not a directory")


def _out(args, name: str) -> str:
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot create output directory {args.out_dir}: {exc.strerror}") from None
    return os.path.join(args.out_dir, name)


def _write_mask(args, stem: str, mask: np.ndarray) -> None:
    write_grid_csv(_out(args, stem + ".csv"), Grid(mask.astype(np.int64)))
    write_mask_pgm(_out(args, stem + ".pgm"), mask)


# ---------------------------------------------------------------- detect

def _cmd_detect(args) -> int:
    grid, model = _load_input(args)
    ladder = parse_ladder(args.ladder)
    ladder.check_fits(grid.shape)
    floor = args.min_belt_count
    if floor is None:
        floor = auto_min_belt_count(grid.rows * grid.cols)
    result = run_detection(grid, model, ladder=ladder, threshold_count=args.threshold_count,
                           min_belt_count=floor)
    scan = result.scan
    lines = [
        f"family={model.family}",
        f"ladder={args.ladder}",
        f"threshold_count={args.threshold_count}",
        f"min_belt_count={floor}",
        f"t_star={result.t_star:.17g}",
        f"k_star={scan.k_star if scan else -1}",
        f"peak_ratio={scan.peak_ratio if scan else math.nan:.17g}",
        f"detected_cells={result.detected_count}",
    ]
    if scan is None:
        lines.append(f"note={CONSTANT_FIELD}")
        print(f"warning: {CONSTANT_FIELD}; writing an empty mask", file=sys.stderr)
    write_array_csv(_out(args, "stat.csv"), result.stat.values)
    write_array_csv(_out(args, "var.csv"), result.var.values)
    _write_mask(args, "mask", result.mask)
    with open(_out(args, "detection.txt"), "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"detected {result.detected_count} of {result.mask.size} cells -> {args.out_dir}")
    return 0


# -------------------------------------------------------------- simulate

def _cmd_simulate(args) -> int:
    values = load_config_file(args.config)
    for override in args.set or []:
        key, val = parse_override(override)
        values[key] = val
    if args.replicates is not None:
        values["replicates"] = args.replicates
    values["seed"] = _resolve_seed(args.seed, values.get("seed"))

    from .simulate import auc, run_experiment  # heavy import kept local

    report: dict[str, dict[str, dict[str, float]]] = {}
    for label, cfg in sim_configs(values):
        summary = run_experiment(cfg)
        for method, ms in summary.methods.items():
            cell = {
                "sensitivity_mean": ms.sens_mean,
                "sensitivity_std": ms.sens_std,
                "specificity_mean": ms.spec_mean,
                "specificity_std": ms.spec_std,
            }
            report.setdefault(method, {})[label] = cell
            print(
                f"{method} alt={label}: sens {ms.sens_mean:.4f} ({ms.sens_std:.4f}) "
                f"spec {ms.spec_mean:.4f} ({ms.spec_std:.4f})"
            )
            stem = f"prob_{method}_{label}"
            write_array_csv(_out(args, stem + ".csv"), ms.prob_map)
            write_prob_pgm(_out(args, stem + ".pgm"), ms.prob_map)
        if args.roc:
            grid, truth = simulate_grid(cfg, 0)
            stat = stat_field(grid, cfg.model(), cfg.ladder)
            points = roc_curve(stat, truth, points=args.roc)
            write_array_csv(_out(args, f"roc_{label}.csv"), points)
            print(f"roc alt={label}: auc {auc(points):.4f}")
    _write_json(_out(args, "summary.json"), report)
    return 0


# ------------------------------------------------------------------ scan

def _cmd_scan(args) -> int:
    grid, model = _load_input(args)
    result = circular_scan(
        grid,
        model,
        # a circle of radius rows + cols holds the whole grid, over the exposure cap,
        # as does every wider one, so a range need not expand past it
        radii=parse_int_list(args.radii, cap=grid.rows + grid.cols),
        mc_reps=args.mc_reps,
        cluster_alpha=args.cluster_alpha,
        seed=_resolve_seed(args.seed),
    )
    payload = {
        "mc_reps": result.mc_reps,
        "cluster_alpha": result.cluster_alpha,
        "clusters": [
            {
                "center": list(c.center),
                "radius": c.radius,
                "cells": c.cell_count,
                "llr": c.llr,
                "p_value": c.p_value,
            }
            for c in result.clusters
        ],
    }
    _write_json(_out(args, "scan.json"), payload)
    _write_mask(args, "scan_mask", result.mask)
    for c in result.clusters:
        print(
            f"cluster center={c.center} radius={c.radius} cells={c.cell_count} "
            f"llr={c.llr:.4f} p={c.p_value:.4f}"
        )
    print(f"significant cells: {int(result.mask.sum())} -> {args.out_dir}")
    return 0


# ------------------------------------------------------------------- fdr

def _cmd_fdr(args) -> int:
    grid, model = _load_input(args)
    pvals = pixel_pvalues(grid, model, approx=args.approx)
    result = storey_fdr(pvals, alpha=args.alpha, lam=args.fdr_lambda)
    write_array_csv(_out(args, "pvalues.csv"), pvals.values)
    _write_mask(args, "fdr_mask", result.mask)
    _write_json(
        _out(args, "fdr.json"),
        {
            "alpha": result.alpha,
            "lambda": args.fdr_lambda,
            "pi0_hat": result.pi0_hat,
            "gamma": result.gamma,
            "rejected": result.rejected_count,
        },
    )
    print(f"rejected {result.rejected_count} of {grid.rows * grid.cols} cells "
          f"(pi0_hat={result.pi0_hat:.4f}, gamma={result.gamma:.6g})")
    return 0


# -------------------------------------------------------------- theorems

def _cmd_theorems(args) -> int:
    report = theorem_checks(args.delta, dims=args.dims, shape=args.shape,
                            seed=_resolve_seed(args.seed), reps=args.reps, radius=args.radius)
    if args.delta == 0:
        print("note: theorem hypotheses exclude delta = 0; "
              "reported fractions are chance-level baselines")
    counts = {"n_noise": report.n_noise, "n_boundary": report.n_boundary,
              "n_signal": report.n_signal, "replicates": report.replicates}
    t1 = {**counts, "success_fraction": float(report.ordered.mean()),
          "ave_stat": list(report.ave_stat)}
    t2 = {**counts, "success_fraction": float(report.dominant.mean()),
          "ave_var_boundary": report.ave_var_boundary, "ave_var_rest": report.ave_var_rest,
          "vtilde_boundary": report.vtilde_boundary, "vtilde_expected": report.vtilde_expected}
    _write_json(_out(args, "theorems.json"), {"delta": args.delta, "theorem1": t1, "theorem2": t2})
    lo, mid, hi = report.ave_stat
    print(f"theorem1 ordering fraction: {t1['success_fraction']:.3f} "
          f"(ave T: {lo:.3f} < {mid:.3f} < {hi:.3f})")
    print(f"theorem2 dominance fraction: {t2['success_fraction']:.3f} "
          f"(Vtilde boundary {t2['vtilde_boundary']:.3f} vs expected {t2['vtilde_expected']:.3f})")
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcd",
        description="Multiresolution cluster detection on regular grids, "
        "with FDR and scan-statistic baselines.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".", help="directory for output files")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: config value, then $MCD_SEED, then 0)")

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("input", help="grid CSV (header rows,cols[,trials])")
    model.add_argument("--family", required=True,
                       choices=("binomial", "poisson", "normal"))
    model.add_argument("--trials", type=_positive_int, default=None,
                       help="uniform per-cell trial count (binomial)")
    model.add_argument("--trials-file", default=None,
                       help="companion CSV of per-cell trial counts (binomial)")
    model.add_argument("--sigma", type=float, default=None,
                       help="known noise scale (normal; default: robust estimate)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", parents=[common, model],
                       help="run the multiresolution detector on a grid")
    p.add_argument("--ladder", default="square:0,square:5",
                   help="scales, e.g. square:0,square:5 or five-scale")
    p.add_argument("--threshold-count", type=_int_at_least(3), default=100,
                   help="number of thresholds in the belt ladder (at least 3)")
    p.add_argument("--min-belt-count", type=_auto_or_positive_int, default="auto",
                   help="belt occupancy floor for threshold choice (int or 'auto')")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("simulate", parents=[common, seeded],
                       help="run a simulation experiment from a manifest")
    p.add_argument("--config", required=True, help="key = value manifest file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a manifest entry (repeatable)")
    p.add_argument("--replicates", type=_positive_int, default=None)
    p.add_argument("--roc", type=_int_at_least(2), default=None, metavar="POINTS",
                   help="also write an ROC curve from replicate 0")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("scan", parents=[common, seeded, model],
                       help="circular scan statistic with Monte Carlo p-values")
    p.add_argument("--radii", default="1-20", help="e.g. 1-20 or 2,4,8")
    p.add_argument("--mc-reps", type=_positive_int, default=99)
    p.add_argument("--cluster-alpha", type=float, default=0.05)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("fdr", parents=[common, model],
                       help="per-cell p-values with a Storey FDR cutoff")
    p.add_argument("--alpha", type=float, required=True, help="FDR level")
    p.add_argument("--fdr-lambda", type=float, default=0.5,
                   help="null-fraction tuning parameter")
    p.add_argument("--approx", action="store_true",
                   help="normal-approximation tails instead of exact")
    p.set_defaults(func=_cmd_fdr)

    p = sub.add_parser("theorems", parents=[common, seeded],
                       help="Monte Carlo checks of the two limit theorems")
    p.add_argument("--delta", type=float, required=True, help="signal amplitude")
    p.add_argument("--reps", type=_positive_int, default=200)
    p.add_argument("--dims", type=_dims_arg, default=(100, 100), metavar="RxC")
    p.add_argument("--shape", default="disc", choices=SHAPE_KINDS)
    p.add_argument("--radius", type=float, default=None,
                   help="disc radius in cells (disc shape only)")
    p.set_defaults(func=_cmd_theorems)
    return parser


def _dims_arg(text: str):
    try:
        return parse_dims(text)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_out_dir(args.out_dir)
        return args.func(args)
    except (GridParseError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateDataError, InvalidInputError, UndefinedMetricError) as exc:
        print(f"error: degenerate input: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary: McdError and anything else
        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
