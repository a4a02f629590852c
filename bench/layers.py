"""Per-layer metrics of the traced run, with the interaction map.

Each metric names the end-to-end metric it should move and the workload
on which it should move it; on every other workload the prediction is
no change (for the `stats` metrics that includes simulate-100 and the
many-level binomial grid of mixed-600). A metric whose wrapped functions
were never entered is missing (None), never 0, so a function that a
later change renames or stops calling cannot read as free. The result
line needs a number for every metric; it gives a missing one as -1,
which no measured value of these metrics can take.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

DETECTORS = ("threshold.run_detection", "baselines.pixel_pvalues", "baselines.storey_fdr")


class Spans:
    """Spans of one traced pass, with each span's self time."""

    def __init__(self, records: list[dict]):
        self.spans = [r for r in records if "name" in r]
        self.unresolved = sorted({r["unresolved"] for r in records if "unresolved" in r})
        children = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[(s["op"], s["parent"])].append(s)
        for s in self.spans:
            s["self"] = (s["end"] - s["start"]) - _covered(s, children[(s["op"], s["id"])])

    def named(self, name: str, site: str | None = None) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and site in (None, s["site"])]


def _covered(span: dict, kids: list[dict]) -> float:
    """Seconds of `span` covered by the union of its children's intervals."""
    total, reach = 0.0, span["start"]
    for k in sorted(kids, key=lambda k: k["start"]):
        lo, hi = max(k["start"], reach), min(k["end"], span["end"])
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _sum(spans: list[dict], value) -> float | None:
    return sum(value(s) for s in spans) if spans else None


def total_s(name: str):
    return lambda t: _sum(t.named(name), lambda s: s["end"] - s["start"])


def self_s(name: str):
    return lambda t: _sum(t.named(name), lambda s: s["self"])


def calls(name: str):
    return lambda t: len(t.named(name)) or None


def field_sum(name: str, key: str):
    return lambda t: _sum(t.named(name), lambda s: s[key])


def field_max(name: str, key: str):
    def compute(t: Spans):
        values = [s[key] for s in t.named(name) if key in s]
        return max(values) if values else None

    return compute


def rss_rise_mb(t: Spans):
    spans = t.named("stats.stat_field")
    return max(s["rss_after_mb"] - s["rss_before_mb"] for s in spans) if spans else None


def simulate_detect_s(t: Spans):
    spans = [s for name in DETECTORS for s in t.named(name, site="mcd.simulate")]
    return _sum(spans, lambda s: s["end"] - s["start"])


def gen_shape_useful_ratio(t: Spans):
    settings, shapes = len(t.named("simulate.run_experiment")), len(t.named("shapes.gen_shape"))
    return settings / shapes if settings and shapes else None


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # end-to-end metric it should move
    on: str  # workloads where it should move it
    compute: Callable[[Spans], float | None] | None  # None: filled in by the runner


MIX, SIM, BIN = "mixed-600", "simulate-100", "binomial-600"

METRICS = [
    LayerMetric("cli.import_s", "s", "lower", "cells_per_s", f"{MIX}, {SIM}",
                total_s("cli.import")),
    LayerMetric("cli.self_s", "s", "lower", "cells_per_s", f"{MIX}, {SIM}", self_s("cli.main")),
    LayerMetric("gridio.read_s", "s", "lower", "cells_per_s", MIX, total_s("gridio.read")),
    LayerMetric("gridio.read_bytes", "bytes", "lower", "cells_per_s", MIX,
                field_sum("gridio.read", "bytes")),
    LayerMetric("gridio.write_s", "s", "lower", "cells_per_s", MIX, total_s("gridio.write")),
    LayerMetric("gridio.write_bytes", "bytes", "lower", "cells_per_s", MIX,
                field_sum("gridio.write", "bytes")),
    LayerMetric("grid.aggregate_s", "s", "lower", "cells_per_s", MIX,
                total_s("grid.aggregate_scales")),
    LayerMetric("grid.window_sum_field_s", "s", "lower", "cells_per_s", SIM,
                total_s("grid.window_sum_field")),
    LayerMetric("grid.window_sum_field_calls", "count", "lower", "cells_per_s", SIM,
                calls("grid.window_sum_field")),
    LayerMetric("grid.build_sat_calls", "count", "lower", "cells_per_s", SIM,
                calls("grid.build_sat")),
    LayerMetric("stats.stat_field_s", "s", "lower", "cells_per_s, peak_rss_mb", BIN,
                self_s("stats.stat_field")),
    LayerMetric("stats.distinct_levels", "count", "lower", "cells_per_s, peak_rss_mb", BIN,
                field_max("stats.stat_field", "distinct_levels")),
    LayerMetric("stats.median_stack_bytes", "bytes", "lower", "cells_per_s, peak_rss_mb", BIN,
                field_max("stats.stat_field", "median_stack_bytes")),
    LayerMetric("stats.rss_rise_mb", "MB", "lower", "cells_per_s, peak_rss_mb", BIN, rss_rise_mb),
    LayerMetric("threshold.variability_s", "s", "lower", "none (<1% everywhere)", "-",
                total_s("threshold.variability")),
    LayerMetric("threshold.scan_thresholds_s", "s", "lower", "none (<1% everywhere)", "-",
                total_s("threshold.scan_thresholds")),
    LayerMetric("baselines.pvalues_s", "s", "lower", "cells_per_s", f"{MIX}, {SIM}",
                total_s("baselines.pixel_pvalues")),
    LayerMetric("baselines.storey_s", "s", "lower", "cells_per_s", f"{MIX}, {SIM}",
                total_s("baselines.storey_fdr")),
    LayerMetric("simulate.replicates", "count", "higher", "cells_per_s", SIM,
                calls("simulate.simulate_grid")),
    LayerMetric("simulate.simulate_grid_s", "s", "lower", "cells_per_s", SIM,
                total_s("simulate.simulate_grid")),
    LayerMetric("simulate.detect_s", "s", "lower", "cells_per_s", SIM, simulate_detect_s),
    LayerMetric("simulate.metrics_s", "s", "lower", "cells_per_s", SIM,
                total_s("simulate.sensitivity_specificity")),
    LayerMetric("shapes.gen_shape_calls", "count", "lower", "cells_per_s", SIM,
                calls("shapes.gen_shape")),
    LayerMetric("shapes.gen_shape_useful_ratio", "ratio", "higher", "cells_per_s", SIM,
                gen_shape_useful_ratio),
    LayerMetric("trace.overhead_ratio", "ratio", "lower", "none", "all", None),
]
