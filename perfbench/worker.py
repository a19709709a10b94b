"""One benchmark process: set up a workload in a fresh interpreter, run its ops.

Run by ``run.py`` as ``python3 perfbench/worker.py '<json job>'``; prints one
JSON line. The job holds ``root`` (the checkout), ``workload``, ``seed``,
``seconds``, ``trace`` and ``setup_only``.

Set-up time runs from ``import fracsource.cli`` to the first op being ready.
The timed phase starts ops while fewer than ``seconds`` have passed, and runs
at least one op (two when traced). With tracing on, the set-up is traced as
op -1 and ops alternate untraced and traced, so the tracing overhead is
measured on the same process and the same stretch of time.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

CAL_SHARE = 0.1  # calibration time between ops, as a share of the last op's time


def blas_threads() -> dict:
    """Thread settings of the BLAS in effect: environment and OpenBLAS's own count."""
    import numpy
    import scipy

    info = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    fn = getattr(lib, symbol)
                    fn.restype = ctypes.c_int
                    info[f"{package.__name__}:{Path(path).name}"] = fn()
                    break
    return info


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "blas_threads": blas_threads(),
    }


def run_ops(wl, noise_seeds: list, job: dict, workdir: str, tracer) -> tuple[list, list]:
    """The timed phase: returns per-op records and calibration times.

    The calibration kernel runs before every op and after the last one, for
    CAL_SHARE of the previous op's time, so op ``i`` has calibration times
    ``i`` and ``i + 1`` around it.
    """
    from calibrate import Calibration  # numpy and scipy only after the timed import

    calibration = Calibration()
    records, cal_seconds = [], []
    min_ops = 1 if tracer is None else 2  # a traced run needs one op of each kind
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < job["seconds"]:
        cal_seconds.append(calibration.measure(CAL_SHARE * (records[-1]["seconds"] if records else 0.0)))
        traced = tracer is not None and i % 2 == 1
        noise_seed = noise_seeds[i % len(noise_seeds)]
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.traced_op(i):
                    out = wl.run(noise_seed, workdir)
            else:
                out = wl.run(noise_seed, workdir)
            error = None
        except Exception:  # a failed op counts as failed; the run goes on
            out, error = None, traceback.format_exc(limit=3)
        records.append({"op": i, "seed": noise_seed, "seconds": time.perf_counter() - t0,
                        "traced": traced, "out": out, "error": error})
        i += 1
    cal_seconds.append(calibration.measure(CAL_SHARE * records[-1]["seconds"]))
    return records, cal_seconds


def main() -> None:
    job = json.loads(sys.argv[1])
    root = Path(job["root"])
    src = root / "src"
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import fracsource.cli  # noqa: F401  (the import a user of the command pays)
    import_s = time.perf_counter() - t0

    if not Path(fracsource.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"fracsource imported from {fracsource.__file__}, not from {src}")

    import workloads

    wl = workloads.WORKLOADS[job["workload"]]
    os.makedirs(root / ".perfbench_work", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=root / ".perfbench_work")
    try:
        tracer = None
        if job["trace"] and not job["setup_only"]:
            from spans import Tracer

            tracer = Tracer()
            with tracer.traced_op(-1):
                setup = wl.setup(workdir)
        else:
            setup = wl.setup(workdir)
        setup_s = time.perf_counter() - t0
        result = {"import_s": import_s, "setup_s": setup_s}
        if job["setup_only"]:
            print(json.dumps(result))
            return

        ref = wl.load_reference()
        noise_seeds = [ref["seeds"][j] for j in workloads.op_order(len(ref["seeds"]), job["seed"])]
        records, cal_seconds = run_ops(wl, noise_seeds, job, workdir, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f"set-up: {p}" for p in wl.check_setup(setup, ref)]
    failed_ops = 0
    for rec in records:
        problems = [rec["error"]] if rec["error"] else wl.check(rec["out"], ref)
        if problems:
            failed_ops += 1
            failures.append(f"op {rec['op']} (noise seed {rec['seed']}): " + "; ".join(problems))

    result.update(
        ops=len(records),
        failed_ops=failed_ops,
        failures=failures,
        op_seconds=[r["seconds"] for r in records],
        cal_seconds=cal_seconds,
        traced=[r["traced"] for r in records],
        peak_rss_mb=peak_rss_mb,
        setup_values={k: float(v) for k, v in setup.items()},
        environment=environment(),
    )
    if tracer is not None:
        layers = []
        for rec in records:
            if rec["traced"] and rec["out"] is not None:
                metrics = tracer.op_metrics(rec["op"])
                metrics["experiments.csv_bytes"] = rec["out"]["csv_bytes"]
                layers.append(metrics)
        result["layers"] = {k: statistics.median(m[k] for m in layers) for k in layers[0]} if layers else {}
        result["setup_layers"] = tracer.op_metrics(-1)
        result["spans"] = tracer.spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
