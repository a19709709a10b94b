"""The benchmark workloads: their set-up, one op, and the check of its output.

Every op drives fracsource through its public functions only, with configs
generated here from a noise seed. Noise seeds come from a fixed pool per
workload, because each op's output is checked against a reference recorded
for that seed (``reference/``, written by ``record_reference.py``). The
workload seed of a run only chooses the order in which the pool is visited.

This module is imported after the worker has timed ``import fracsource.cli``,
so importing numpy here adds nothing to the measured import.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from pathlib import Path

import numpy as np

from fracsource import experiments, inversion

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# 1.2 x the certified squared operator norm (about 14.0) of the 5.3a problem:
# a stable M, so every reconstruction converges with the same K on every seed.
M_STABLE = 16.8
ESTIMATE_ITERS = 60

# Tolerances of the output check, fixed before any reference was recorded.
F_REL_TOL = 1e-9
ERR_REL_TOL = 1e-9
ESTIMATE_REL_TOL = 1e-3

_POOL_MASTER_SEED = 160705917


def pool_seeds(name: str, size: int) -> list[int]:
    """The fixed noise-seed pool of a workload (distinct 31-bit seeds)."""
    return random.Random(f"{_POOL_MASTER_SEED}:{name}").sample(range(2**31), size)


def op_order(pool_size: int, workload_seed: int) -> list[int]:
    """Pool indices in the order a run with ``workload_seed`` visits them."""
    order = list(range(pool_size))
    random.Random(workload_seed).shuffle(order)
    return order


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


class Reconstruction:
    """One ``run_experiment`` of preset 5.3a at the stable M per op."""

    def __init__(self, name: str, pool_size: int, overrides: dict, estimate: bool):
        self.name = name
        self.pool_size = pool_size
        self.overrides = overrides
        self.estimate = estimate

    def config(self, noise_seed: int, outdir: str):
        return experiments.config_from_preset(
            "5.3a", m=M_STABLE, seed=noise_seed, outdir=outdir, **self.overrides
        )

    def setup(self, outdir: str) -> dict:
        """Work done once before the first op; returns values to check."""
        if not self.estimate:
            return {}
        # the stability check the README prescribes: ||A||^2 estimate of the
        # op's problem, which also builds and factorises that problem once
        spec, _, mask = experiments.build_problem(self.config(0, outdir))
        return {"estimate_m": inversion.estimate_m(spec, mask, iters=ESTIMATE_ITERS)}

    def run(self, noise_seed: int, outdir: str) -> dict:
        cfg = self.config(noise_seed, outdir)
        result = experiments.run_experiment(cfg)
        prefix = os.path.join(outdir, cfg.label)
        return {
            "seed": noise_seed,
            "K": result.iterations,
            "converged": result.converged,
            "f": result.f_k.values.copy(),
            "csv_bytes": _file_bytes(
                f"{prefix}_{part}.csv" for part in ("profile", "iterations", "summary")
            ),
        }

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.npz"

    def save_reference(self, outputs: list[dict], setup: dict) -> None:
        extra = {"estimate_m": np.float64(setup["estimate_m"])} if self.estimate else {}
        np.savez_compressed(
            self.reference_path(),
            seeds=np.array([o["seed"] for o in outputs], dtype=np.int64),
            K=np.array([o["K"] for o in outputs], dtype=np.int64),
            converged=np.array([o["converged"] for o in outputs], dtype=bool),
            f=np.stack([o["f"] for o in outputs]),
            **extra,
        )

    def load_reference(self) -> dict:
        with np.load(self.reference_path(), allow_pickle=False) as data:
            ref = {key: data[key] for key in data.files}
        ref["seeds"] = [int(s) for s in ref["seeds"]]
        return ref

    def check_setup(self, setup: dict, ref: dict) -> list[str]:
        if not self.estimate:
            return []
        got, want = setup["estimate_m"], float(ref["estimate_m"])
        if not abs(got - want) <= ESTIMATE_REL_TOL * abs(want):
            return [f"estimate_m {got!r} differs from reference {want!r}"]
        return []

    def check(self, out: dict, ref: dict) -> list[str]:
        """Problems with one op's output; an empty list means it is correct."""
        j = ref["seeds"].index(out["seed"])
        problems = []
        if out["K"] != int(ref["K"][j]):
            problems.append(f"K={out['K']} but reference K={int(ref['K'][j])}")
        if out["converged"] != bool(ref["converged"][j]):
            problems.append(f"converged={out['converged']} differs from reference")
        f_ref = ref["f"][j]
        if out["f"].shape != f_ref.shape:
            problems.append(f"f has shape {out['f'].shape}, reference {f_ref.shape}")
        else:
            rel = float(np.linalg.norm(out["f"] - f_ref) / np.linalg.norm(f_ref))
            if not rel <= F_REL_TOL:
                problems.append(f"||f - f_ref|| / ||f_ref|| = {rel:.3e} > {F_REL_TOL:g}")
        return problems


class Tables:
    """``run_table(1, s)`` then ``run_table(2, s)`` with the published pinned M."""

    name = "tables"
    pool_size = 12

    def setup(self, outdir: str) -> dict:
        return {}

    def run(self, noise_seed: int, outdir: str) -> dict:
        rows, paths = {}, []
        for table_id in (1, 2):
            path = experiments.run_table(table_id, seed=noise_seed, outdir=outdir)
            paths.append(path)
            with open(path, newline="") as fh:
                body = list(csv.DictReader(fh))
            rows[str(table_id)] = [[int(r["K"]), r["err_percent"]] for r in body]
        return {"seed": noise_seed, "rows": rows, "csv_bytes": _file_bytes(paths)}

    def reference_path(self) -> Path:
        return REFERENCE_DIR / "tables.json"

    def save_reference(self, outputs: list[dict], setup: dict) -> None:
        data = {"seeds": [o["seed"] for o in outputs],
                "rows": {str(o["seed"]): o["rows"] for o in outputs}}
        with open(self.reference_path(), "w") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")

    def load_reference(self) -> dict:
        with open(self.reference_path()) as fh:
            return json.load(fh)

    def check_setup(self, setup: dict, ref: dict) -> list[str]:
        return []

    def check(self, out: dict, ref: dict) -> list[str]:
        """K exact, empty err cells exact, err_percent within ERR_REL_TOL.

        A pinned-M row that diverges as the reference does (same K at the
        bail-out, empty err cell) is a correct output.
        """
        want_tables = ref["rows"][str(out["seed"])]
        problems = []
        for table_id, want in want_tables.items():
            got = out["rows"].get(table_id, [])
            if len(got) != len(want):
                problems.append(f"table {table_id}: {len(got)} rows, reference {len(want)}")
                continue
            for i, ((k, err), (k_ref, err_ref)) in enumerate(zip(got, want)):
                where = f"table {table_id} row {i + 1}"
                if k != k_ref:
                    problems.append(f"{where}: K={k} but reference K={k_ref}")
                if (err == "") != (err_ref == ""):
                    problems.append(f"{where}: err cell {err!r}, reference {err_ref!r}")
                elif err_ref and not _close(float(err), float(err_ref), ERR_REL_TOL):
                    problems.append(f"{where}: err_percent {err} vs reference {err_ref}")
        return problems


def _close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * abs(b)


WORKLOADS = {
    # everyday 2D reconstruction at paper size (41^2 x 40); SuperLU
    # triangular solves dominate, and the set-up carries the norm estimate
    "recon2d": Reconstruction("recon2d", 32, {}, estimate=True),
    # same problem on the 21^2 grid with 400 steps: the O(n_t^2 N) L1
    # history sum dominates and no norm estimate runs
    "history_long": Reconstruction(
        "history_long", 12, {"n_per_axis": 21, "n_steps": 400}, estimate=False
    ),
    # the published tables as users run them: 14 set-ups per op, 8 rows
    # diverging at the pinned M, two CSVs
    "tables": Tables(),
}
