"""Seeded inputs and op lists of the benchmark's workloads.

Inputs are written by this module's own CSV writer, not by `mcd.gridio`,
so a change to mcd's I/O layer cannot move the benchmark's set-up time.
The program under test sees only the files; the arrays stay in memory
for the verifier.

Why each workload was chosen:

* binomial-600 -- `detect` on one 600x600 binomial grid (100 uniform
  trials in the header, 0.20 background, an L-shaped cluster at 0.25).
  The 120-offset annulus median in `stats` and its 1.6 GB NaN stack
  dominate; the grid has only ~40 distinct adjusted proportions.
* mixed-600 -- `detect` and `fdr --alpha 0.05` on three 600x600 grids:
  binomial with per-cell trials 50-150 (`--trials-file`, ~2,000 distinct
  levels), Poisson (4 vs 6) and normal (0 vs 0.5, sigma 1, no --sigma).
  Start-up, CSV parse/format, SAT aggregation and exact tails carry the
  time. A level-count median cannot apply to the many-level grid, so its
  prediction is no change. `fdr --family normal` without `--sigma` is a
  known defect (exit 4) and stays in the list: it is 1 failed op in 6.
* simulate-100 -- `simulate` on the two shipped manifests with
  `methods=mcd,fdr`: the only workload that runs `simulate`, `shapes` and
  `config`, the only small-grid many-calls regime, and the only one with
  the circle ladder.

There is no `scan` workload. One `scan` at its defaults on a 100x100
grid is a single op of about 28 s on 2 cores, so a run holds only one
sample of it, and with it the runs of four workloads do not fit the
benchmark's time budget (about 3,400 s for all runs of all workloads)
with the repeated passes that keep binomial-600 steady.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NAMES = ("binomial-600", "mixed-600", "simulate-100")

SIMULATE_CONFIGS = ("weak_signal_oval.cfg", "table2_lshape.cfg")


@dataclass
class GridInput:
    """One generated grid: the arrays the verifier needs and the files mcd reads."""

    name: str
    family: str
    values: np.ndarray
    truth: np.ndarray
    path: Path
    trials: np.ndarray | None = None
    trials_path: Path | None = None

    def cell_values(self) -> np.ndarray:
        """Values the detector's medians run over: (Y+1)/(N+2) for binomial."""
        if self.family == "binomial":
            return (self.values + 1.0) / (self.trials + 2.0)
        return np.asarray(self.values, dtype=float)

    def record(self) -> dict:
        size = self.path.stat().st_size
        if self.trials_path is not None:
            size += self.trials_path.stat().st_size
        return {
            "name": self.name,
            "shape": "x".join(map(str, self.values.shape)),
            "family": self.family,
            "distinct_levels": int(np.unique(self.cell_values()).size),
            "bytes": size,
        }


@dataclass
class Op:
    """One CLI call: `python -m mcd.cli <argv> --out-dir DIR`."""

    label: str
    kind: str  # detect | fdr | simulate
    argv: list[str]
    cells: int
    grid: GridInput | None = None
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    inputs: list[GridInput]
    ops: list[Op]
    manifests: list[dict] = field(default_factory=list)

    def records(self) -> list[dict]:
        """Shape, family, distinct levels and bytes of every input."""
        return [g.record() for g in self.inputs] + self.manifests


def derived_seed(seed: int, salt: str) -> int:
    """A 31-bit seed for the program, derived from the workload seed."""
    state = np.random.SeedSequence([seed, zlib.crc32(salt.encode())]).generate_state(1)
    return int(state[0] & 0x7FFFFFFF)


def _rng(seed: int, salt: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(salt.encode())]))


def lshape(rows: int, cols: int) -> np.ndarray:
    mask = np.zeros((rows, cols), dtype=bool)
    r0, r1 = round(0.35 * rows), round(0.65 * rows)
    c0, c1 = round(0.35 * cols), round(0.45 * cols)
    mask[r0:r1, c0:c1] = True
    mask[round(0.55 * rows) : r1, c1 : round(0.55 * cols)] = True
    return mask


def write_csv(path: Path, values: np.ndarray, trials_uniform: int | None = None) -> None:
    """Grid CSV: header rows,cols[,trials]; ints as ints, floats as repr()."""
    rows, cols = values.shape
    head = f"{rows},{cols}" + (f",{trials_uniform}" if trials_uniform is not None else "")
    fmt = str if np.issubdtype(values.dtype, np.integer) else repr
    with open(path, "w", newline="\n") as fh:
        fh.write(head + "\n")
        fh.writelines(",".join(map(fmt, row)) + "\n" for row in values.tolist())


def read_manifest(path: Path) -> dict[str, str]:
    """The `key = value` lines of a simulation manifest."""
    out = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _binomial_uniform(dest: Path, name: str, rng, truth, p0: float, p1: float,
                      trials: int) -> GridInput:
    n = np.full(truth.shape, trials, dtype=np.int64)
    y = rng.binomial(n, np.where(truth, p1, p0))
    g = GridInput(name, "binomial", y, truth, dest / f"{name}.csv", trials=n)
    write_csv(g.path, y, trials_uniform=trials)
    return g


def _binomial_600(dest: Path, seed: int, tiny: bool) -> Workload:
    size = 40 if tiny else 600
    g = _binomial_uniform(dest, "binomial", _rng(seed, "binomial-600"),
                          lshape(size, size), 0.20, 0.25, 100)
    op = Op("detect-binomial", "detect", ["detect", str(g.path), "--family", "binomial"],
            cells=g.values.size, grid=g)
    return Workload("binomial-600", [g], [op])


def _mixed_600(dest: Path, seed: int, tiny: bool) -> Workload:
    size = 40 if tiny else 600
    rng = _rng(seed, "mixed-600")
    truth = lshape(size, size)
    n = rng.integers(50, 151, size=truth.shape)
    y = rng.binomial(n, np.where(truth, 0.25, 0.20))
    binom = GridInput("binomial-trials", "binomial", y, truth, dest / "binomial-trials.csv",
                      trials=n, trials_path=dest / "binomial-trials.trials.csv")
    write_csv(binom.path, y)
    write_csv(binom.trials_path, n)
    pois = GridInput("poisson", "poisson", rng.poisson(np.where(truth, 6.0, 4.0)), truth,
                     dest / "poisson.csv")
    write_csv(pois.path, pois.values)
    norm = GridInput("normal", "normal", rng.normal(np.where(truth, 0.5, 0.0), 1.0), truth,
                     dest / "normal.csv")
    write_csv(norm.path, norm.values)
    ops = []
    for g in (binom, pois, norm):
        model = ["--family", g.family]
        if g.trials_path is not None:
            model += ["--trials-file", str(g.trials_path)]
        ops.append(Op(f"detect-{g.family}", "detect", ["detect", str(g.path)] + model,
                      cells=g.values.size, grid=g))
        ops.append(Op(f"fdr-{g.family}", "fdr", ["fdr", str(g.path)] + model + ["--alpha", "0.05"],
                      cells=g.values.size, grid=g, params={"alpha": 0.05}))
    return Workload("mixed-600", [binom, pois, norm], ops)


def _simulate_100(data_dir: Path, seed: int, tiny: bool) -> Workload:
    ops, manifests = [], []
    for cfg_name in SIMULATE_CONFIGS:
        cfg = data_dir / cfg_name
        manifest = read_manifest(cfg)
        argv = ["simulate", "--config", str(cfg), "--set", "methods=mcd,fdr",
                "--seed", str(derived_seed(seed, cfg_name))]
        dims = manifest["dims"]
        replicates = int(manifest["replicates"])
        if tiny:
            dims, replicates = "30x30", 3
            argv += ["--set", f"dims={dims}", "--replicates", str(replicates)]
        rows, cols = (int(v) for v in dims.split("x"))
        alts = manifest.get("alt_params", manifest.get("alt_param"))
        labels = [format(float(a), "g") for a in alts.split(",")]
        ops.append(Op(f"simulate-{cfg.stem}", "simulate", argv,
                      cells=replicates * len(labels) * rows * cols,
                      params={"labels": labels, "methods": ["mcd", "fdr"],
                              "replicates": replicates}))
        # the grids are drawn inside mcd, so their levels are not known here
        manifests.append({"name": cfg.name, "shape": dims, "family": manifest["family"],
                          "replicates": replicates, "settings": len(labels),
                          "bytes": cfg.stat().st_size})
    return Workload("simulate-100", [], ops, manifests)


def build(name: str, seed: int, dest: Path, data_dir: Path, tiny: bool = False) -> Workload:
    """Generate workload `name` for `seed` into `dest`; `tiny` shrinks every op."""
    dest.mkdir(parents=True, exist_ok=True)
    if name == "binomial-600":
        return _binomial_600(dest, seed, tiny)
    if name == "mixed-600":
        return _mixed_600(dest, seed, tiny)
    if name == "simulate-100":
        return _simulate_100(data_dir, seed, tiny)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
