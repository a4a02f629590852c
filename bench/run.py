"""Closed-loop benchmark of the mcd CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

One client runs a workload's fixed list of CLI ops one at a time; each op
is a fresh `python -m mcd.cli ...` child with the checkout's `src` on
PYTHONPATH (mcd is not installed). Every op's outputs are verified. With
`--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
runs one untraced and one traced pass and prints the per-layer metrics;
one whose functions were never entered reads -1 (missing), not 0.
`--smoke` shrinks every input to a few seconds of work. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Scratch files live in `.bench_work/` and are removed at exit, except the
traced run's spans, kept as `.bench_work/spans-<workload>-seed<seed>.jsonl`.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # importing tests/oracles.py must leave tests/ untouched

import numpy as np  # noqa: E402

import layers  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUPS = 3  # set-ups per untraced run; setup_s is their median
RUN_LIMIT_S = 170.0  # every op of a run must end by then

END_TO_END = {"setup_s": "s", "cells_per_s": "1/s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
MISSING = -1  # a per-layer metric never entered, in the result line


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, or a failed warm-up)."""


@dataclass
class OpResult:
    label: str
    rc: int
    wall_s: float
    rss_mb: float
    cells: int
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problems


@dataclass
class PassResult:
    ops: list[OpResult]
    spans: list[dict]

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.ops)

    @property
    def cells_per_s(self) -> float:
        return sum(r.cells for r in self.ops if r.ok) / self.wall_s


def environment() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ops": "python -m mcd.cli, with src on PYTHONPATH",
        "mcd_installed": importlib.util.find_spec("mcd") is not None,
    }


def run_op(op: workloads.Op, out: Path, deadline: float, spans_path: Path | None) -> OpResult:
    """Run one op as a child process; wall time and peak RSS come from wait4."""
    out.mkdir(parents=True)
    argv = op.argv + ["--out-dir", str(out)]
    if spans_path is None:
        cmd = [sys.executable, "-m", "mcd.cli", *argv]
    else:
        tracer = str(ROOT / "bench" / "tracer.py")
        cmd = [sys.executable, tracer, str(spans_path), op.label, "--", *argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        start = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                 stdout=so, stderr=se)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    return OpResult(op.label, child.returncode, wall, usage.ru_maxrss / 1024.0, op.cells)


def run_pass(wl: workloads.Workload, pass_dir: Path, oracles, seed: int, deadline: float,
             traced: bool = False, before_verify=None) -> PassResult:
    """All ops of `wl` once, in order; outputs are verified, then deleted."""
    results, spans = [], []
    for k, op in enumerate(wl.ops):
        out = pass_dir / f"{k}-{op.label}"
        spans_path = pass_dir / f"{k}.spans.jsonl" if traced else None
        res = run_op(op, out, deadline, spans_path)
        if res.rc == 0:
            if before_verify is not None:
                before_verify(op, out)
            res.problems = verify.verify(op, out, oracles, seed * 1000 + k)
        else:
            tail = (out / "stderr.txt").read_text(errors="replace").strip().splitlines()
            res.problems = [f"exit {res.rc}: {tail[-1] if tail else 'no message'}"]
        if traced and spans_path.is_file():
            spans += [json.loads(line) for line in spans_path.read_text().splitlines()]
        shutil.rmtree(out)
        results.append(res)
        if time.monotonic() > deadline:
            break
    return PassResult(results, spans)


def setup(name: str, seed: int, run_dir: Path, oracles, tiny: bool, deadline: float):
    """Generate the inputs, then run and verify one untimed warm-up op.

    The warm-up op is the workload's first op at smoke size: it loads the
    interpreter, numpy, scipy and mcd into the page cache and proves the
    op runs, without costing a full op.
    """
    start = time.perf_counter()
    wl = workloads.build(name, seed, run_dir / "inputs", ROOT / "data", tiny=tiny)
    warm = workloads.build(name, seed, run_dir / "warm-inputs", ROOT / "data", tiny=True)
    warm_up(warm, run_dir / "warm", oracles, seed, deadline)
    return wl, time.perf_counter() - start


def warm_up(wl: workloads.Workload, out: Path, oracles, seed: int, deadline: float) -> OpResult:
    """Run and verify the first op of `wl`, untimed; raise if it fails."""
    res = run_pass(workloads.Workload(wl.name, wl.inputs, wl.ops[:1]), out,
                   oracles, seed, deadline).ops[0]
    if not res.ok:
        raise BenchError(f"warm-up op {res.label} failed: {'; '.join(res.problems)}")
    return res


def _fmt(value) -> str:
    return "missing" if value is None else f"{value:.6g}"


def print_ops(p: PassResult, tag: str) -> None:
    for r in p.ops:
        state = "ok" if r.ok else "FAILED " + "; ".join(r.problems[:3])
        print(f"op {tag} {r.label}: {r.wall_s:.3f} s, peak rss {r.rss_mb:.1f} MB, {state}")


def measure(wl, run_dir, oracles, seed, seconds, deadline) -> tuple[dict, list[OpResult]]:
    """Whole untraced passes while the next one should end within `seconds`.

    At least one pass runs; the longest pass so far predicts the next.
    """
    passes, longest = [], 0.0
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(wl, run_dir / f"pass{len(passes)}", oracles, seed, deadline))
        longest = max(longest, time.perf_counter() - t0)
        print_ops(passes[-1], f"pass{len(passes) - 1}")
        if (time.perf_counter() - begin + longest > seconds
                or time.monotonic() + 1.5 * longest > deadline):
            break
    rates = [p.cells_per_s for p in passes]
    ops = [r for p in passes for r in p.ops]
    print(f"passes {len(passes)}: cells/s per pass {', '.join(f'{v:.6g}' for v in rates)}")
    return {
        "cells_per_s": statistics.median(rates),
        "peak_rss_mb": max(r.rss_mb for r in ops),
        "ok_ratio": sum(r.ok for r in ops) / len(ops),
    }, ops


def trace(wl, run_dir, oracles, seed, deadline) -> tuple[dict, list[OpResult]]:
    """One untraced and one traced pass; per-layer metrics from the traced spans."""
    plain = run_pass(wl, run_dir / "plain", oracles, seed, deadline)
    print_ops(plain, "untraced")
    traced = run_pass(wl, run_dir / "traced", oracles, seed, deadline, traced=True)
    print_ops(traced, "traced")
    (WORK / f"spans-{wl.name}-seed{seed}.jsonl").write_text(
        "".join(json.dumps(s) + "\n" for s in traced.spans))
    spans = layers.Spans(traced.spans)
    for target in spans.unresolved:
        print(f"trace: {target} does not exist; its metrics are missing")
    values = {m.name: m.compute(spans) for m in layers.METRICS if m.compute is not None}
    values["trace.overhead_ratio"] = traced.wall_s / plain.wall_s - 1.0
    for m in layers.METRICS:
        print(f"layer {m.name} {_fmt(values[m.name])} {m.unit}"
              f"  (should move {m.moves} on {m.on})")
    return values, plain.ops + traced.ops


def run(args) -> dict:
    if not (ROOT / "src" / "mcd" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'mcd'} is missing")
    deadline = time.monotonic() + RUN_LIMIT_S
    print("env " + json.dumps(environment(), sort_keys=True))
    oracles = verify.load_oracles(ROOT)
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(1 if args.trace or args.smoke else SETUPS):
            shutil.rmtree(run_dir, ignore_errors=True)
            wl, seconds = setup(args.workload, args.seed, run_dir, oracles, args.smoke, deadline)
            setups.append(seconds)
        for record in wl.records():
            print("input " + json.dumps(record, sort_keys=True))
        # the first full-size op after set-up runs about 10% slower than the
        # ones after it, so one runs untimed before any timed pass
        res = warm_up(wl, run_dir / "warm-full", oracles, args.seed, deadline)
        print(f"op warm-up {res.label}: {res.wall_s:.3f} s, peak rss {res.rss_mb:.1f} MB, ok")
        if args.trace:
            values, ops = trace(wl, run_dir, oracles, args.seed, deadline)
            units = {m.name: m.unit for m in layers.METRICS}
        else:
            values, ops = measure(wl, run_dir, oracles, args.seed, args.seconds, deadline)
            values["setup_s"] = statistics.median(setups)
            units = END_TO_END
            print(f"setups {len(setups)}: " + ", ".join(f"{s:.4f}" for s in setups) + " s")
            for name, unit in units.items():
                print(f"metric {name} {_fmt(values[name])} {unit}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "correct": not any(r.rc == 0 and r.problems for r in ops),
        "attempted": len(ops),
        "failed": sum(not r.ok for r in ops),
        "metrics": {name: {"value": MISSING if values[name] is None else values[name],
                           "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
