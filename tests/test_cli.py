import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import fracsource
from fracsource import cli
from fracsource.cli import main

from conftest import subprocess_env


def test_forward_writes_csv(tmp_path):
    out = tmp_path / "u.csv"
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["forward", "--preset", "5.1a", "--n-per-axis", "11", "--n-steps", "5",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x1,value"
    assert len(lines) == 1 + 6 * 11


def test_reconstruct_preset_with_overrides(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["reconstruct", "--preset", "5.1a", "--seed", "1", "--m", "4.0",
         "--eps", "5e-3", "--outdir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "5.1a_summary.csv").exists()
    assert "err=" in result.output and "status=converged" in result.output


def test_reconstruct_from_config_file(tmp_path):
    cfg = {
        "preset": "5.1a", "m": 4.0, "eps": 5e-3, "n_per_axis": 21,
        "n_steps": 10, "outdir": str(tmp_path),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    runner = CliRunner()
    result = runner.invoke(main, ["reconstruct", "--config", str(path)])
    assert result.exit_code == 0, result.output


def test_reconstruct_requires_source(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["reconstruct", "--outdir", str(tmp_path)])
    assert result.exit_code != 0


def test_preset_and_config_are_exclusive(tmp_path):
    # both flags would name two runs (the config's 5.1a and the flag's 5.3a),
    # and neither names none: each is one Error: line with status 1, and
    # status 2 stays with a run that did not converge
    path = _write_config(tmp_path)
    out = tmp_path / "u.csv"
    runs = [
        ["forward", "--preset", "5.3a", "--config", path, "--out", str(out)],
        ["forward", "--out", str(out)],
        ["reconstruct", "--preset", "5.3a", "--config", path],
        ["reconstruct", "--outdir", str(tmp_path / "out")],
    ]
    for args in runs:
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
        assert result.output == "Error: provide exactly one of --preset and --config\n", result.output
    assert not out.exists() and not (tmp_path / "out").exists()


def test_table_smoke_deterministic(tmp_path):
    runner = CliRunner()
    r1 = runner.invoke(
        main, ["table", "--id", "2", "--seed", "3", "--smoke",
               "--outdir", str(tmp_path / "a")],
    )
    r2 = runner.invoke(
        main, ["table", "--id", "2", "--seed", "3", "--smoke",
               "--outdir", str(tmp_path / "b")],
    )
    assert r1.exit_code == 0 and r2.exit_code == 0
    a = (tmp_path / "a" / "table2_seed3_smoke.csv").read_bytes()
    b = (tmp_path / "b" / "table2_seed3_smoke.csv").read_bytes()
    assert a == b


def test_verify():
    runner = CliRunner()
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 0, result.output
    assert result.output.count("[PASS]") == 11
    assert "[FAIL]" not in result.output
    assert result.output.splitlines()[-1] == "all 11 checks passed"


def test_reconstruct_reports_why_a_run_stopped(tmp_path):
    # a capped run and a diverged one both exit 2, but print different statuses
    runner = CliRunner()
    runs = [
        (["--preset", "5.1a", "--max-iter", "5"], "K=5 err=n/a status=max_iter"),
        (["--preset", "5.1b"], "K=21 err=n/a status=diverged"),
    ]
    for args, line in runs:
        result = runner.invoke(main, ["reconstruct", *args, "--outdir", str(tmp_path)])
        assert line in result.output, result.output
        assert result.exit_code == 2


def test_invalid_config_is_an_error_not_a_traceback(tmp_path, caplog):
    cases = [
        # on 11 nodes every node of 5.1a's omega is isolated: a zero-measure mask
        ({"preset": "5.1a", "n_per_axis": 11}, "zero"),
        ({"preset": "5.1a", "foo": 1}, "foo"),
        ({"preset": "5.1a", "alpha": "0.3"}, "alpha must be a finite number"),
        ({"preset": "5.1a", "omega": 5}, "omega must be"),
        ({"preset": ["5.1a"]}, "preset must be a string"),
        ({"preset": "5.1a", "dim": 2, "omega": "frame_0.1_0.9"}, "is 1-D, but dim is 2"),
        ({"preset": "5.3a", "dim": 1, "omega": "edges_0.05"}, "is 2-D, but dim is 1"),
        ({"preset": "5.1a", "label": str(tmp_path / "escaped")}, "plain file-name stem"),
        ([1, 2], "JSON object"),
        # ExperimentConfig passes on the message of the type that owns the field
        ({"preset": "5.1a", "T": 0}, "finite T > 0"),
        ({"preset": "5.1a", "n_steps": 0}, "integer n_steps >= 1, got 0"),
        ({"preset": "5.1a", "rho": True}, "rho must be finite and positive, got True"),
    ]
    runs = [
        (["reconstruct", "--preset", "5.1a", "--alpha", "1.5", "--outdir", str(tmp_path)], "fractional order"),
        (["reconstruct", "--preset", "5.1a", "--m", "-1", "--outdir", str(tmp_path)],
         "m must be finite and positive, got -1.0"),
        (["reconstruct", "--preset", "5.1a", "--max-iter", "0", "--outdir", str(tmp_path)],
         "max_iter must be an integer >= 1, got 0"),
    ]
    for i, (payload, message) in enumerate(cases):
        if isinstance(payload, dict):
            payload["outdir"] = str(tmp_path)
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(payload))
        runs.append((["reconstruct", "--config", str(path)], message))
    # a regular file where the output directory should be: every write fails
    blocker = tmp_path / "file"
    blocker.write_text("")
    runs += [
        (["reconstruct", "--preset", "5.1a", "--outdir", str(blocker / "x")], str(blocker)),
        (["table", "--id", "2", "--smoke", "--outdir", str(blocker / "x")], str(blocker)),
        (["forward", "--preset", "5.1a", "--out", str(blocker / "x" / "u.csv")], str(blocker)),
    ]
    runner = CliRunner()
    for args, message in runs:
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Error:" in result.output and message in result.output
        assert "Traceback" not in result.output
        assert len(result.output.splitlines()) == 1, result.output
    # every run above fails before it iterates
    assert not any("diverged" in r.getMessage() for r in caplog.records)


@pytest.mark.parametrize(
    "command, patched, error, message",
    [
        (["reconstruct", "--preset", "5.3a"], "run_experiment",
         MemoryError("Unable to allocate 2.98 GiB for an array"),
         "ran out of memory: Unable to allocate 2.98 GiB for an array"),
        (["forward", "--preset", "5.1a"], "build_forward_problem", MemoryError(),
         "ran out of memory: the problem is too large"),
    ],
    ids=["reconstruct", "forward-bare"],
)
def test_memory_error_is_one_line(tmp_path, monkeypatch, command, patched, error, message):
    # a config too large for the machine ends in one Error: line, not a traceback;
    # the patched call raises at once, so nothing large is allocated
    def raise_error(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, patched, raise_error)
    monkeypatch.chdir(tmp_path)  # the default output paths, were anything written
    result = CliRunner().invoke(main, command)
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    assert result.output == f"Error: {message}\n", result.output


def test_zero_source_reports_no_error_not_a_traceback(tmp_path):
    # the relative error of a source that is identically zero is undefined
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {"preset": "5.1a", "f_true": "0.0*x1", "max_iter": 5, "outdir": str(tmp_path)}
    ))
    result = CliRunner().invoke(main, ["reconstruct", "--config", str(path)])
    assert isinstance(result.exception, SystemExit) and result.exit_code == 2
    assert "K=5 err=n/a status=max_iter" in result.output, result.output
    assert "Traceback" not in result.output
    with open(tmp_path / "5.1a_summary.csv", newline="") as fh:
        header, row = csv.reader(fh)
    assert header[2] == "err_percent" and row[2] == ""


def _write_config(tmp_path, **fields):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": "5.1a", "outdir": str(tmp_path / "out"), **fields}))
    return str(path)


@pytest.mark.parametrize(
    "fields, message",
    [
        # a config that fails only when its mask is built makes no outdir either
        ({"omega": []}, "no grid node"),
        ({"omega": [[[0.51, 0.52]]]}, "no grid node"),
        # parse errors and deep trees
        ({"f_true": "x1 +"}, "'x1 +' cannot be evaluated: invalid syntax"),
        ({"f_true": "(" * 300 + "x1" + ")" * 300}, "too many nested parentheses"),
        ({"f_true": "-" * 100_000 + "x1"}, "cannot be evaluated: MemoryError"),
        ({"f_true": "-" * 5_000 + "x1"}, "cannot be evaluated: RecursionError"),
        # samples that are not all finite, real or not real at all
        ({"f_true": "exp(1000*x1)"}, "'exp(1000*x1)' is not finite"),
        ({"f_true": "1/(x1-x1)"}, "is not finite"),
        ({"f_true": "x1**-1"}, "is not finite"),
        ({"f_true": "10**400*x1"}, "is not finite"),
        ({"f_true": "(-8)**(1/3) + x1"}, "is not finite"),
        # a rejected node is quoted cut short, like the expression above
        ({"f_true": "abs(x1" + ",x1" * 10_000 + ")"}, "may not contain 'abs(x1, x1,"),
    ],
    ids=[
        "omega-empty", "omega-between-nodes", "syntax", "nested-parens",
        "unary-minus-100000", "unary-minus-5000", "exp-overflow", "zero-division",
        "pole", "power-overflow", "complex-power", "long-rejected-node",
    ],
)
def test_rejected_config_is_one_line_and_makes_no_outdir(tmp_path, fields, message):
    result = CliRunner().invoke(main, ["reconstruct", "--config", _write_config(tmp_path, **fields)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    assert result.output.startswith("Error: ") and result.output.count("\n") == 1, result.output
    assert message in result.output, result.output
    assert len(result.output) <= 200, result.output[:300]
    assert not (tmp_path / "out").exists()


def test_integer_power_tower_is_rejected_at_once(tmp_path):
    # 9**9**9**9 in integer arithmetic would not finish; in float64 it is inf.
    # A child process with a timeout makes a regression fail instead of hang.
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(fracsource.__file__))}
    result = subprocess.run(
        [sys.executable, "-m", "fracsource.cli", "reconstruct",
         "--config", _write_config(tmp_path, f_true="9**9**9**9 + x1")],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert result.returncode == 1, result.stderr
    assert result.stderr == "Error: f_true '9**9**9**9 + x1' is not finite at every grid node\n"
    assert not (tmp_path / "out").exists()


def test_outputs_do_not_depend_on_blas_thread_count(tmp_path):
    # the misfit sums q n_nodes = 7 * 1681 terms, past the 10,000 above which
    # OpenBLAS splits a dot across threads, so it must be cut into BLAS dots of
    # at most 10,000 terms; on the 101^2 grid the 101 x 101 x 101 transform
    # products would split too, and over 60 steps so would each step's dots of
    # N = 10,201 terms, unless cut by grid line.  At
    # 21^2 x 400 the time factor's QR, SVD and a^T x split, so only K, the
    # status and f_k to rounding are independent of it
    grid_101 = {"preset": "5.3a", "n_per_axis": 101, "n_steps": 10, "m": 16.8}
    long_21 = {"preset": "5.3a", "n_per_axis": 21, "n_steps": 400, "m": 16.8}
    cases = [
        ({"dim": 2, "alpha": 0.8, "f_true": "exp_ridge_2d", "omega": "frame_0.05_0.95",
          "delta": 0.01, "m": 2.0, "eps": 0.002}, "K=28 ", 0),
        (grid_101, "K=23 ", 0),
        ({**grid_101, "eps": 1e-9, "max_iter": 60}, "K=60 ", 2),
        (long_21, "K=23 err=7.15% status=converged ", 0),
    ]
    for case, (fields, stdout, returncode) in enumerate(cases):
        outputs = []
        for threads in ("1", "2"):
            outdir = tmp_path / f"case{case}_threads{threads}"
            path = tmp_path / f"case{case}_threads{threads}.json"
            path.write_text(json.dumps({**fields, "outdir": str(outdir)}))
            result = subprocess.run(
                [sys.executable, "-m", "fracsource.cli", "reconstruct", "--config", str(path)],
                capture_output=True, text=True, timeout=120,
                env={**subprocess_env(), "OPENBLAS_NUM_THREADS": threads},
            )
            assert result.returncode == returncode, result.stderr
            assert result.stdout.startswith(stdout), result.stdout
            outputs.append({p.name: p.read_bytes() for p in outdir.glob("*.csv")})
        assert len(outputs[0]) == 3
        if fields is not long_21:
            assert outputs[0] == outputs[1], fields
            continue
        profiles = [csv.DictReader(io.StringIO(out["5.3a_profile.csv"].decode())) for out in outputs]
        f_k = [np.array([float(row["f_k"]) for row in rows]) for rows in profiles]
        assert np.max(np.abs(f_k[0] - f_k[1])) <= 1e-13 * np.max(np.abs(f_k[0])), fields
