"""Tests of the benchmark itself: report schema, output check, missing sources.

    python3 -m pytest perfbench/tests -q

The schema tests run each workload with ``--seconds 0`` (one op, two when
traced), about two minutes in all.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_run_reports_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == (2 if trace else 1) and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])

    report = json.loads(lines[-2])["report"]
    assert report["seed"] == 3 and report["failed_frac"] == 0.0
    assert "commit" in report and len(report["setup_samples_s"]) == run.SETUP_SAMPLES
    # the kernel is timed before every op and after the last one
    assert len(report["cal_seconds"]) == result["attempted"] + 1 and min(report["cal_seconds"]) > 0
    env = report["environment"]
    assert {"python", "numpy", "scipy", "cpu_count", "blas_threads"} <= set(env)
    if trace:
        assert report["spans_file"].startswith(".perfbench_work/")
        # the set-up is traced: only recon2d estimates the norm and factorises there
        runs_estimate = workload == "recon2d"
        assert result["metrics"]["inversion.estimate_m_calls"]["value"] == int(runs_estimate)
        assert result["metrics"]["setup.factor_calls"]["value"] == int(runs_estimate)
        assert (report["setup_layers"]["inversion.estimate_m_s"] > 0) == runs_estimate


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "recon2d", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reconstruction_check_reports_a_perturbed_reference(tmp_path):
    wl = workloads.WORKLOADS["recon2d"]
    ref = wl.load_reference()
    out = wl.run(ref["seeds"][0], str(tmp_path))
    assert wl.check(out, ref) == []

    f_bad = ref["f"].copy()
    f_bad[0] *= 1.0 + 1e-6
    assert wl.check(out, dict(ref, f=f_bad))
    k_bad = ref["K"].copy()
    k_bad[0] += 1
    assert wl.check(out, dict(ref, K=k_bad))
    conv_bad = ~ref["converged"]
    assert wl.check(out, dict(ref, converged=conv_bad))

    m = float(ref["estimate_m"])
    assert wl.check_setup({"estimate_m": m * (1 + 1e-4)}, ref) == []
    assert wl.check_setup({"estimate_m": m * (1 + 2e-3)}, ref)


def test_table_check_reports_a_perturbed_reference():
    wl = workloads.WORKLOADS["tables"]
    ref = wl.load_reference()
    seed = ref["seeds"][0]
    rows = ref["rows"][str(seed)]
    out = {"seed": seed, "rows": json.loads(json.dumps(rows))}
    assert wl.check(out, ref) == []

    diverged = next(i for i, (_, err) in enumerate(rows["2"]) if err == "")
    converged = next(i for i, (_, err) in enumerate(rows["1"]) if err != "")
    for table, row, change in [
        ("1", converged, lambda r: [r[0], repr(float(r[1]) * (1 + 1e-6))]),
        ("1", converged, lambda r: [r[0] + 1, r[1]]),
        ("2", diverged, lambda r: [r[0] - 1, r[1]]),
        ("2", diverged, lambda r: [r[0], "1.0"]),
    ]:
        bad = json.loads(json.dumps(rows))
        bad[table][row] = change(bad[table][row])
        assert wl.check(out, {"rows": {str(seed): bad}}), (table, row)
    assert wl.check({"seed": seed, "rows": {"1": rows["1"], "2": rows["2"][:-1]}}, ref)
