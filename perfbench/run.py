"""fracsource benchmark: time to a checked reconstruction, end to end and per layer.

Usage, from the root of a checkout that has ``src/fracsource``:

    python3 perfbench/run.py --workload recon2d --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seconds 0   # one op each: a smoke run

Each workload runs in fresh interpreters (``worker.py``): set-up samples
first, then one process that sets up again and runs ops for ``--seconds``.
Every op's output is checked against the reference recorded from the seed
code. Between ops a fixed calibration kernel (``calibrate.py``) is timed,
and the gated op times are in units of it. The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it is the full report (environment, samples,
wall-time op figures, tail latency, failures). A traced run also writes its
spans to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("recon2d", "history_long", "tables")

SETUP_SAMPLES = 5  # fresh interpreters whose set-up time is measured, medianed
# Nominal time of one calibration pass: converts the calibrated set-up time
# from calibration units to seconds, so that setup_s stays a time.
CAL_SECONDS = 0.05
DEADLINE_S = 170.0  # every run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "ops_per_cal": "1/cal", "op_p50_cal": "cal", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "setup.after_import_s": "s",
    "inversion.estimate_m_calls": "count",
    "setup.factor_calls": "count",
    "experiments.build_problem_s": "s",
    "experiments.build_problem_calls": "count",
    "forward.factor_s": "s",
    "forward.factor_calls": "count",
    "forward.lu_nnz": "count",
    "forward.solve_s": "s",
    "forward.solve_calls": "count",
    "adjoint.solve_s": "s",
    "adjoint.solve_calls": "count",
    "forward.trisolve_flops": "flop",
    "forward.history_flops": "flop",
    "forward.history_bytes": "B",
    "experiments.synthesize_s": "s",
    "experiments.noise_draws": "count",
    "inversion.iterate_s": "s",
    "inversion.iterate_self_s": "s",
    "inversion.iterations": "count",
    "inversion.diverged_iter_frac": "ratio",
    "experiments.self_s": "s",
    "experiments.csv_bytes": "B",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def git_commit() -> str | None:
    """HEAD of the checkout's own repository; never of a repository above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_worker(job: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(job)], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it, or None if too few."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10  # 1-based rank of the sample with ten above it
    return {"value": sorted(samples)[rank - 1], "percentile": 100.0 * rank / n, "samples": n}


def bench(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full report)."""
    deadline = time.monotonic() + DEADLINE_S
    base = {"root": str(ROOT), "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace}
    # set-up samples before and after the main worker, so that they span the
    # host's speed phases over the whole run and not only its first seconds
    before = (SETUP_SAMPLES - 1) // 2
    samples = [run_worker(dict(base, setup_only=True), deadline) for _ in range(before)]
    main = run_worker(dict(base, setup_only=False), deadline)
    samples += [main] + [run_worker(dict(base, setup_only=True), deadline)
                         for _ in range(SETUP_SAMPLES - 1 - before)]
    setups = [s["setup_s"] for s in samples]
    imports = [s["import_s"] for s in samples]

    ops = main["op_seconds"]
    cal = main["cal_seconds"]
    # each op in units of the calibration kernel timed just before and after it
    rel = [t / ((before + after) / 2) for t, before, after in zip(ops, cal, cal[1:])]
    plain = [t for t, traced in zip(ops, main["traced"]) if not traced]
    traced = [t for t, on in zip(ops, main["traced"]) if on]
    if trace:
        if not main["layers"]:
            raise BenchError("no traced op completed: " + "; ".join(main["failures"]))
        layers = dict(main["layers"])
        layers["cli.import_s"] = statistics.median(imports)
        layers["setup.after_import_s"] = statistics.median(s - i for s, i in zip(setups, imports))
        # calls in the traced set-up plus the median per traced op
        layers["inversion.estimate_m_calls"] += main["setup_layers"]["inversion.estimate_m_calls"]
        layers["setup.factor_calls"] = main["setup_layers"]["forward.factor_calls"]
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(setups) / statistics.median(cal) * CAL_SECONDS,
            "ops_per_cal": len(rel) / sum(rel),
            "op_p50_cal": statistics.median(rel),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    result = {
        "correct": not main["failures"],
        "attempted": main["ops"],
        "failed": main["failed_ops"],
        "metrics": metrics,
    }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(),
        "environment": main["environment"],
        "failed_frac": main["failed_ops"] / main["ops"],
        "failures": main["failures"],
        "setup_samples_s": setups,
        "setup_wall_s": statistics.median(setups),
        "import_samples_s": imports,
        "setup_values": main["setup_values"],
        "op_seconds": ops,
        "cal_seconds": cal,
        "ops_per_s": len(ops) / sum(ops),
        "op_p50_s": statistics.median(plain),
        "op_tail_s": tail(plain),
    }
    if trace:
        report["traced_op_p50_s"] = statistics.median(traced)
        report["setup_layers"] = main["setup_layers"]
        spans_path = ROOT / ".perfbench_work" / f"spans-{workload}-seed{seed}.json"
        spans_path.parent.mkdir(exist_ok=True)
        spans_path.write_text(json.dumps(main["spans"]))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    return result, report


def print_table(workload: str, result: dict, report: dict) -> None:
    print(f"{workload}: {result['attempted']} ops, {result['failed']} failed, "
          f"correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'setup_wall_s':32s} {report['setup_wall_s']:.6g} s  (wall time, not calibrated)")
    print(f"  {'ops_per_s':32s} {report['ops_per_s']:.6g} 1/s  (wall time, not calibrated)")
    print(f"  {'op_p50_s':32s} {report['op_p50_s']:.6g} s  (wall time, not calibrated)")
    print(f"  {'failed_frac':32s} {report['failed_frac']:.6g}  (failed / attempted)")
    if report["op_tail_s"]:
        t = report["op_tail_s"]
        print(f"  {'op_tail_s':32s} {t['value']:.6g} s  (p{t['percentile']:.1f} of {t['samples']} ops)")
    for line in report["failures"]:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0, help="workload seed: order of the inputs")
    parser.add_argument("--seconds", type=float, default=45.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fracsource" / "__init__.py").is_file():
        print(f"perfbench: no fracsource sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, report = bench(name, args.seed, args.seconds, bool(args.trace))
            print_table(name, result, report)
            print(json.dumps({"report": report}))
            results[name] = result
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
