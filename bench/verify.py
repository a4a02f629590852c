"""Checks of one op's outputs against the generated inputs and tests/oracles.py.

Values are parsed and compared, never bytes, so a change of float format
in mcd's writers is not a failure. Each check returns a list of problems;
an empty list means the op's outputs are correct.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from workloads import Op

# agreement with the oracles; the program and the oracles sum in different orders
RTOL = 1e-7
ATOL = 1e-9
MAD_SCALE = 1.4826
SAMPLE_PIXELS = 12

ARTIFACTS = {
    "detect": ("stat.csv", "var.csv", "mask.csv", "mask.pgm", "detection.txt"),
    "fdr": ("pvalues.csv", "fdr_mask.csv", "fdr_mask.pgm", "fdr.json"),
    "simulate": ("summary.json",),
}


def load_oracles(root: Path):
    """Import tests/oracles.py by path, without touching the test package."""
    spec = importlib.util.spec_from_file_location("mcd_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class SquareLadder:
    """Nested centred squares; the interface the oracles need from a ladder."""

    def __init__(self, radii):
        self.radii = tuple(radii)

    @property
    def scale_count(self) -> int:
        return len(self.radii)

    def annulus_offsets(self, r: int):
        outer, inner = self.radii[r], self.radii[r - 1] if r else -1
        return [(di, dj) for di in range(-outer, outer + 1) for dj in range(-outer, outer + 1)
                if max(abs(di), abs(dj)) > inner]


DEFAULT_LADDER = SquareLadder((0, 5))


def read_csv(path: Path) -> np.ndarray:
    head, _, body = path.read_text().partition("\n")
    rows, cols = (int(v) for v in head.split(",")[:2])
    tokens = [tok for line in body.splitlines() if line.strip() for tok in line.split(",")]
    if len(tokens) != rows * cols:
        raise ValueError(f"{path.name}: {len(tokens)} values for a {rows}x{cols} grid")
    return np.array(tokens, dtype=float).reshape(rows, cols)


def read_pgm(path: Path) -> np.ndarray:
    data = path.read_bytes()
    magic, size, maxval, raster = data.split(b"\n", 3)
    cols, rows = (int(v) for v in size.split())
    if magic != b"P5" or maxval != b"255" or len(raster) != rows * cols:
        raise ValueError(f"{path.name}: not a {rows}x{cols} binary PGM")
    return np.frombuffer(raster, dtype=np.uint8).reshape(rows, cols)


def read_mask(out: Path, stem: str, shape) -> tuple[np.ndarray, list[str]]:
    """A mask from its CSV, checked against its PGM twin."""
    values = read_csv(out / f"{stem}.csv")
    problems = []
    if values.shape != shape:
        problems.append(f"{stem}.csv shape {values.shape} != {shape}")
        return values.astype(bool), problems
    if not np.isin(values, (0.0, 1.0)).all():
        problems.append(f"{stem}.csv holds values other than 0 and 1")
    mask = values == 1.0
    if not np.array_equal(read_pgm(out / f"{stem}.pgm"), np.where(mask, 255, 0)):
        problems.append(f"{stem}.pgm differs from {stem}.csv")
    return mask, problems


def sample_pixels(grid, seed: int) -> list[tuple[int, int]]:
    """Corners, cluster cells and random cells, fixed by `seed`."""
    rng = np.random.default_rng(seed)
    rows, cols = grid.values.shape
    picks = [(0, 0), (rows - 1, cols - 1), (0, cols - 1)]
    inside = np.argwhere(grid.truth)
    for k in rng.choice(len(inside), size=min(3, len(inside)), replace=False):
        picks.append(tuple(int(v) for v in inside[k]))
    while len(picks) < SAMPLE_PIXELS:
        picks.append((int(rng.integers(rows)), int(rng.integers(cols))))
    return picks


def robust_sigma(values: np.ndarray) -> float:
    v = np.asarray(values, dtype=float)
    return MAD_SCALE * float(np.median(np.abs(v - np.median(v))))


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)


def check_detect(op: Op, out: Path, oracles, seed: int) -> list[str]:
    g = op.grid
    stat = read_csv(out / "stat.csv")
    var = read_csv(out / "var.csv")
    if stat.shape != g.values.shape or var.shape != g.values.shape:
        return [f"stat/var shapes {stat.shape}/{var.shape} != {g.values.shape}"]
    mask, problems = read_mask(out, "mask", g.values.shape)
    lines = dict(ln.split("=", 1) for ln in (out / "detection.txt").read_text().splitlines())
    t_star = float(lines["t_star"])
    want = np.zeros_like(mask) if math.isnan(t_star) else stat > t_star
    if not np.array_equal(mask, want):
        problems.append(f"mask != (stat > t*={t_star}) at {int((mask != want).sum())} cells")
    if int(lines["detected_cells"]) != int(mask.sum()):
        problems.append(f"detected_cells={lines['detected_cells']} but mask has {int(mask.sum())}")
    values = np.asarray(g.values, dtype=float)
    trials = None if g.trials is None else np.asarray(g.trials, dtype=float)
    sigma = robust_sigma(values) if g.family == "normal" else None
    cellvals = g.cell_values()
    rows, cols = values.shape
    for i, j in sample_pixels(g, seed):
        t_want = oracles.oracle_stat_pixel(values, g.family, DEFAULT_LADDER, (i, j),
                                           trials=trials, sigma=sigma)
        if not _close(stat[i, j], t_want):
            problems.append(f"T{(i, j)}={stat[i, j]!r}, oracle {t_want!r}")
        r0, c0 = max(i - 1, 0), max(j - 1, 0)
        crop = cellvals[r0 : min(i + 2, rows), c0 : min(j + 2, cols)]
        v_want = oracles.oracle_variability(crop, crop)[i - r0, j - c0]
        if not _close(var[i, j], v_want):
            problems.append(f"V{(i, j)}={var[i, j]!r}, oracle {v_want!r}")
    return problems


def _oracle_pvalue(oracles, g, null: float, i: int, j: int) -> float:
    y = g.values[i, j]
    if g.family == "binomial":
        return oracles.oracle_binom_sf(int(y), int(g.trials[i, j]), null)
    if g.family == "poisson":
        return oracles.oracle_poisson_sf(int(y), null)
    z = (float(y) - null) / robust_sigma(g.values)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def check_fdr(op: Op, out: Path, oracles, seed: int) -> list[str]:
    g = op.grid
    p = read_csv(out / "pvalues.csv")
    if p.shape != g.values.shape:
        return [f"pvalues shape {p.shape} != {g.values.shape}"]
    mask, problems = read_mask(out, "fdr_mask", g.values.shape)
    if not ((p >= 0.0) & (p <= 1.0)).all():
        problems.append("p-values outside [0, 1]")
    meta = json.loads((out / "fdr.json").read_text())
    gamma = float(meta["gamma"])
    want = p <= gamma if gamma > 0.0 else np.zeros_like(mask)
    if not np.array_equal(mask, want):
        problems.append(f"fdr mask != (p <= gamma={gamma}) at {int((mask != want).sum())} cells")
    if int(meta["rejected"]) != int(mask.sum()):
        problems.append(f"rejected={meta['rejected']} but mask has {int(mask.sum())}")
    if float(meta["alpha"]) != op.params["alpha"]:
        problems.append(f"alpha {meta['alpha']} != {op.params['alpha']}")
    trials = None if g.trials is None else np.asarray(g.trials, dtype=float)
    null = oracles.oracle_null(np.asarray(g.values, dtype=float), g.family, trials=trials)
    for i, j in sample_pixels(g, seed):
        p_want = _oracle_pvalue(oracles, g, null, i, j)
        if not math.isclose(p[i, j], p_want, rel_tol=RTOL, abs_tol=1e-12):
            problems.append(f"p{(i, j)}={p[i, j]!r}, oracle {p_want!r}")
    return problems


def check_simulate(op: Op, out: Path, oracles, seed: int) -> list[str]:
    report = json.loads((out / "summary.json").read_text())
    methods, labels = op.params["methods"], op.params["labels"]
    problems = []
    if sorted(report) != sorted(methods):
        return [f"summary methods {sorted(report)} != {sorted(methods)}"]
    for method in methods:
        if sorted(report[method]) != sorted(labels):
            problems.append(f"{method}: settings {sorted(report[method])} != {sorted(labels)}")
            continue
        for label in labels:
            cell = report[method][label]
            for key in ("sensitivity_mean", "sensitivity_std",
                        "specificity_mean", "specificity_std"):
                if not 0.0 <= cell[key] <= 1.0:
                    problems.append(f"{method} alt={label}: {key}={cell[key]} outside [0, 1]")
            prob = read_csv(out / f"prob_{method}_{label}.csv")
            hits = prob * op.params["replicates"]
            if not ((prob >= 0.0) & (prob <= 1.0)).all() or not np.allclose(hits, np.round(hits)):
                problems.append(f"prob_{method}_{label}.csv is not a replicate fraction map")
            read_pgm(out / f"prob_{method}_{label}.pgm")
    return problems


CHECKS = {"detect": check_detect, "fdr": check_fdr, "simulate": check_simulate}


def verify(op: Op, out: Path, oracles, seed: int) -> list[str]:
    """Problems with the outputs of a successful op (empty when correct)."""
    missing = [name for name in ARTIFACTS[op.kind] if not (out / name).is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"]
    try:
        return CHECKS[op.kind](op, out, oracles, seed)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
