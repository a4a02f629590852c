"""Traced child process: one mcd CLI call with spans around each layer's entry points.

    python bench/tracer.py SPANS_PATH OP_ID -- <mcd arguments>

Each public function is wrapped where its caller looks it up (for
example `mcd.cli.stat_field` and `mcd.threshold.stat_field` are two
sites of one function), then `mcd.cli.main(argv)` runs. Spans (name,
site, start, end, parent, op id, plus counts taken at the boundary) are
kept in memory and written as JSON lines when the call ends. No file of
the program is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _path_bytes(args) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _stat_field_before(fn, args, kwargs) -> dict:
    grid, model, ladder = args[:3]
    out = {"rss_before_mb": _peak_rss_mb()}
    if model.family == "binomial":
        import numpy as np

        rows, cols = grid.values.shape
        padj = (grid.values + 1.0) / (model.trials.values + 2.0)
        out["distinct_levels"] = int(np.unique(padj).size)
        widest = max(len(ladder.annulus_offsets(r)) for r in range(ladder.scale_count))
        out["median_stack_bytes"] = 8 * widest * rows * cols
    return out


def _stat_field_after(args) -> dict:
    return {"rss_after_mb": _peak_rss_mb()}


# (module, attribute, span name, probe before the call, probe after the call);
# probes return counts to store on the span and run outside its timed interval
TARGETS = [
    ("mcd.cli", "read_grid_csv", "gridio.read", None, _path_bytes),
    ("mcd.cli", "write_grid_csv", "gridio.write", None, _path_bytes),
    ("mcd.cli", "write_array_csv", "gridio.write", None, _path_bytes),
    ("mcd.cli", "write_mask_pgm", "gridio.write", None, _path_bytes),
    ("mcd.cli", "write_prob_pgm", "gridio.write", None, _path_bytes),
    ("mcd.cli", "stat_field", "stats.stat_field", _stat_field_before, _stat_field_after),
    ("mcd.threshold", "stat_field", "stats.stat_field", _stat_field_before, _stat_field_after),
    ("mcd.stats", "aggregate_scales", "grid.aggregate_scales", None, None),
    ("mcd.grid", "window_sum_field", "grid.window_sum_field", None, None),
    ("mcd.baselines", "window_sum_field", "grid.window_sum_field", None, None),
    ("mcd.grid", "build_sat", "grid.build_sat", None, None),
    ("mcd.baselines", "build_sat", "grid.build_sat", None, None),
    ("mcd.cli", "neighborhood_variability", "threshold.variability", None, None),
    ("mcd.threshold", "neighborhood_variability", "threshold.variability", None, None),
    ("mcd.cli", "scan_thresholds", "threshold.scan_thresholds", None, None),
    ("mcd.threshold", "scan_thresholds", "threshold.scan_thresholds", None, None),
    ("mcd.simulate", "run_detection", "threshold.run_detection", None, None),
    ("mcd.cli", "pixel_pvalues", "baselines.pixel_pvalues", None, None),
    ("mcd.simulate", "pixel_pvalues", "baselines.pixel_pvalues", None, None),
    ("mcd.cli", "storey_fdr", "baselines.storey_fdr", None, None),
    ("mcd.simulate", "storey_fdr", "baselines.storey_fdr", None, None),
    ("mcd.simulate", "run_experiment", "simulate.run_experiment", None, None),
    ("mcd.simulate", "simulate_grid", "simulate.simulate_grid", None, None),
    ("mcd.simulate", "sensitivity_specificity", "simulate.sensitivity_specificity", None, None),
    ("mcd.simulate", "gen_shape", "shapes.gen_shape", None, None),
]


class Tracer:
    """Spans of one op, in memory until `write`."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.unresolved: list[str] = []

    def record(self, name: str, site: str, start: float, end: float, parent) -> None:
        self.spans.append({"id": len(self.spans), "op": self.op_id, "name": name, "site": site,
                           "start": start, "end": end, "parent": parent})

    def wrap(self, fn, name: str, site: str, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = before(fn, args, kwargs) if before else {}
            idx = len(self.spans)
            self.spans.append(None)  # reserve the id so children can name their parent
            parent = self.stack[-1] if self.stack else None
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = {"id": idx, "op": self.op_id, "name": name, "site": site,
                                   "start": start, "end": end, "parent": parent, **extra}
            if after:
                self.spans[idx].update(after(args))
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, before, after in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.unresolved.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name, module_name, before, after))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
            for target in self.unresolved:
                fh.write(json.dumps({"op": self.op_id, "unresolved": target}) + "\n")


def main(argv: list[str]) -> int:
    spans_path, op_id, sep, *mcd_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_PATH OP_ID -- <mcd arguments>")
    tracer = Tracer(op_id)
    start = time.perf_counter()
    cli = importlib.import_module("mcd.cli")
    tracer.record("cli.import", "mcd.cli", start, time.perf_counter(), None)
    tracer.install()
    try:
        return tracer.wrap(cli.main, "cli.main", "mcd.cli")(mcd_argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
