"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``.

They are not part of the package's test suite (``testpaths`` is
``tests``), because two of them run the benchmark end to end.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mpcost
import run
import workloads
from oracle import CostOracle, Infeasible, close

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, trace: int, report: Path | None = None):
    argv = [sys.executable, "perfbench/run.py", "--workload", "case-studies",
            "--seed", str(workloads.DEFAULT_SEED), "--seconds", "0",
            "--trace", str(trace)]
    if report is not None:
        argv += ["--report", str(report)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for trace in (0, 1):
        report = tmp_path_factory.mktemp("bench") / "report.json"
        proc = run_bench(ROOT, trace, report)
        assert proc.returncode == 0, proc.stderr
        out[trace] = (proc.stdout, json.loads(report.read_text(encoding="utf-8")))
    return out


def test_generators_give_the_stated_node_counts():
    large = workloads.large_synthetic(workloads.DEFAULT_SEED)
    counts = {label: len(c.nodes) for label, c in large.circuits.items()}
    assert counts == {
        "biometric-1000x10": 43009,
        f"random-{workloads.DEFAULT_SEED}-{workloads.LARGE_RANDOM_OPS}": 34408,
        "chain-mul-20000": 40002,
    }


def test_oracle_matches_total_cost_and_rejects_unsupported_schemes():
    circuit = mpcost.gen_biometric(mpcost.BiometricSpec(rows=2, attrs=2))
    path = ROOT / ".perfbench_work" / "oracle-test.json"
    path.parent.mkdir(exist_ok=True)
    mpcost.save_circuit(circuit, path)
    profile_path = ROOT / "src/mpcost/profiles/data/inter-m3.medium.json"
    try:
        oracle = CostOracle(path, profile_path)
    finally:
        path.unlink()
    profile = mpcost.load_profile(profile_path)
    result = mpcost.best_of(circuit, profile)
    assert close(oracle.total(result.assignment), result.report.total)
    arithmetic = {i: "arithmetic" for i in range(len(circuit.nodes))}
    with pytest.raises(Infeasible):
        oracle.total(arithmetic)  # arithmetic sharing cannot run ge or mux


def test_printed_metric_names_match_benchmark_json(runs):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        stdout, report = runs[trace]
        result = json.loads(stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
        report_only = set(report["metrics"]) - set(declared)
        raw_walls = {m["name"] + ".wall" for m in SPEC["end_to_end"]}
        assert report_only <= set(run.REPORT_ONLY_UNITS) | raw_walls


def test_traced_run_leaves_assignments_byte_identical(runs):
    untraced = runs[0][1]["digests"]
    traced = runs[1][1]["digests"]
    common = set(untraced) & set(traced)
    # best_of and the pure-yao baseline on each of the six pairs.
    assert len(common) == 12
    assert {k: untraced[k] for k in common} == {k: traced[k] for k in common}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
