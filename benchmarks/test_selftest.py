"""Self-test of the benchmark on the N = 8 stand-in configs in configs/toy.

    python3 -m pytest benchmarks/test_selftest.py

Records toy references, then checks that every metric of BENCHMARK.json is
printed with its unit in both modes, that the correctness gate trips on a
deliberately wrong reference, and that the benchmark refuses to run without
the package sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TOY = BENCH / "configs" / "toy"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("compare_n128", "relax_hotspot_n64", "coefficients_sweep")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=170,
    )


def toy_run(workload: str, trace: int, references: Path, seed: int = 3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                 "--trace", str(trace), "--configs", str(TOY), "--references", str(references))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc, result


@pytest.fixture(scope="module")
def toy_references(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("refs") / "references.json"
    subprocess.run(
        [sys.executable, str(BENCH / "record_references.py"), "--configs", str(TOY), "--out", str(path)],
        cwd=ROOT, check=True, capture_output=True, timeout=170,
    )
    return path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace, toy_references):
    proc, result = toy_run(workload, trace, toy_references)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    table = proc.stdout.splitlines()[:-1]
    for m in expected:
        pattern = rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}(\s|$)"
        assert any(re.match(pattern, line) for line in table), m["name"]
    assert any(line.split()[:1] == ["error_rate"] for line in table)


@pytest.mark.parametrize("workload,key", [
    ("compare_n128", "slope_over_predicted"),
    ("relax_hotspot_n64", "final_max_deviation_from_gibbs"),
    ("coefficients_sweep", "source_over_newton_limit_at_t_max"),
])
def test_gate_trips_on_wrong_reference(workload, key, toy_references, tmp_path):
    refs = json.loads(toy_references.read_text())
    variant = refs["workloads"][workload]["3"]
    variant["summary"][key] *= 1.0 + 1e-5
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(refs))
    proc, result = toy_run(workload, 0, wrong)
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert f"summary.{key}" in proc.stderr


def test_gate_trips_on_wrong_last_row(toy_references, tmp_path):
    refs = json.loads(toy_references.read_text())
    refs["workloads"]["coefficients_sweep"]["3"]["last_rows"]["coefficients.csv"][1] *= 1.001
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(refs))
    proc, result = toy_run("coefficients_sweep", 0, wrong)
    assert result["correct"] is False
    assert "coefficients.csv: last row" in proc.stderr


def test_high_temperature_oracle(toy_references, tmp_path, monkeypatch):
    """The closed-form check needs no recorded value: it accepts the real
    sweep's last row and rejects one with D_xx off by 1e-4."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import gate

    toy_run("coefficients_sweep", 0, toy_references)
    produced = ROOT / ".bench_out" / "toy" / "coefficients_sweep"
    assert gate.check_high_temperature(produced / "out" / "coefficients.csv",
                                       produced / "config.ini") == []
    lines = (produced / "out" / "coefficients.csv").read_text().splitlines()
    last = lines[-1].split(",")
    last[1] = repr(float(last[1]) * (1.0 + 1e-4))
    bad = tmp_path / "coefficients.csv"
    bad.write_text("\n".join(lines[:-1] + [",".join(last)]) + "\n")
    problems = gate.check_high_temperature(bad, produced / "config.ini")
    assert len(problems) == 1 and "D_xx" in problems[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "compare_n128", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
