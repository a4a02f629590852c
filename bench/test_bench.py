"""Self-tests of the benchmark at smoke size.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import layers
import run
import verify
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.METRICS]


def _not_json(constant: str):
    raise ValueError(f"{constant} is not a JSON number")


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1], parse_constant=_not_json)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    expected = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    tag = "layer" if trace == "1" else "metric"
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        printed = [ln.split() for ln in lines if ln.startswith(f"{tag} {m['name']} ")]
        assert printed and printed[0][3] == m["unit"], m["name"]
    assert result["correct"] is True
    if trace == "0":  # a metric that reads 0 has no spread relative to its median
        assert all(v["value"] > 0 for v in result["metrics"].values())
    # known defect: `fdr --family normal` without --sigma exits 4 (one op per mixed-600 pass)
    per_pass = 1 if workload == "mixed-600" else 0
    assert result["failed"] == per_pass * (2 if trace == "1" else 1)


def test_corrupted_mask_is_a_failed_op():
    work = run.WORK / "test-corrupt"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = workloads.build("binomial-600", 5, work / "inputs", run.ROOT / "data", tiny=True)
        oracles = verify.load_oracles(run.ROOT)

        def flip_one_cell(op, out):
            path = out / "mask.csv"
            head, body = path.read_text().split("\n", 1)
            first = "1" if body[0] == "0" else "0"
            path.write_text(head + "\n" + first + body[1:])

        deadline = time.monotonic() + 120
        clean = run.run_pass(wl, work / "clean", oracles, 5, deadline)
        bad = run.run_pass(wl, work / "bad", oracles, 5, deadline, before_verify=flip_one_cell)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert clean.ops[0].ok and clean.cells_per_s > 0
    assert bad.ops[0].rc == 0 and not bad.ops[0].ok
    assert any("mask" in p for p in bad.ops[0].problems)
    assert bad.cells_per_s == 0.0


def test_fails_without_the_program():
    bare = run.WORK / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = _bench("--workload", "binomial-600", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
