"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 6, 7 and 8 assert published reconstruction values whose settings are
mutually inconsistent with the stated problem (the pinned tuning constant M
violates the 2M stability bound of the thresholding iteration for the
certified operator norm in several cases); those tests fail by design and the
blocking analysis lives in docs/decisions.md.  Everything else passes.
"""

import csv
import math
import pathlib
import statistics
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from fracsource import (
    Field,
    FractionalOrder,
    ObservationMask,
    SpaceGrid,
    SpaceTimeField,
    TimeGrid,
    caputo_l1,
    estimate_m,
    gradient,
    inner_product,
    masked_inner_product,
    mittag_leffler,
    norm_l2,
    objective,
    rl_integral,
    solve_adjoint,
    solve_forward,
)
from fracsource.inversion import ReconstructionConfig, iterate, threshold_update
from fracsource.oracle import duhamel_check, eigen_forward, modes_up_to
from fracsource.experiments import (
    TABLE_ROWS,
    config_from_preset,
    run_reconstruction,
    table_base_config,
)

from conftest import MU_STD, cos_field, edge_mask, make_spec, subprocess_env

DATA = pathlib.Path(__file__).parent / "data"


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")


def rel_l2_q(a: SpaceTimeField, b: SpaceTimeField) -> float:
    full = ObservationMask(a.grid, np.ones(a.grid.n_nodes))
    diff = SpaceTimeField(a.grid, a.tgrid, a.values - b.values)
    return math.sqrt(
        masked_inner_product(diff, diff, full) / masked_inner_product(b, b, full)
    )


def test_criterion_1_mittag_leffler_accuracy():
    """|E - frozen high-precision reference| <= 1e-10 on [-50, 0]; E_11 = exp."""
    t0 = time.time()
    worst = 0.0
    with open(DATA / "ml_reference.csv") as fh:
        for row in csv.DictReader(fh):
            got = mittag_leffler(float(row["alpha"]), float(row["beta"]), float(row["z"]))
            worst = max(worst, abs(got - float(row["value"])))
    worst_exp = max(
        abs(mittag_leffler(1.0, 1.0, z) - math.exp(z))
        for z in np.linspace(-10.0, 1.0, 221)
    )
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and worst_exp <= 1e-12 and elapsed < 5.0
    report(1, ok, f"max |err| = {worst:.2e} (<=1e-10), E_11 err = {worst_exp:.2e} "
                  f"(<=1e-12), runtime {elapsed:.2f}s (<5s)")
    assert worst <= 1e-10
    assert worst_exp <= 1e-12
    assert elapsed < 5.0


def test_criterion_2_fractional_operator_checks():
    """Analytic power formulas with temporal order >= 1.3 at alpha = 0.5."""
    alpha = FractionalOrder(0.5)
    errs_c, errs_j, exact_linear = [], [], 0.0
    for n in (40, 80, 160):
        t = np.linspace(0.0, 1.0, n + 1)
        cap_lin = caputo_l1(alpha, t.copy(), t)
        exact_linear = max(
            exact_linear,
            float(np.max(np.abs(cap_lin[1:] - t[1:] ** 0.5 / math.gamma(1.5)))),
        )
        cap = caputo_l1(alpha, t**2, t)
        errs_c.append(float(np.max(np.abs(cap[1:] - 2.0 * t[1:] ** 1.5 / math.gamma(2.5)))))
        jj = rl_integral(0.5, t**2, t)
        exact_j = math.gamma(3.0) / math.gamma(3.5) * t**2.5
        errs_j.append(float(np.max(np.abs(jj[1:] - exact_j[1:]))))
    order_c = min(math.log2(a / b) for a, b in zip(errs_c, errs_c[1:]))
    order_j = min(math.log2(a / b) for a, b in zip(errs_j, errs_j[1:]))
    ok = exact_linear <= 1e-12 and order_c >= 1.3 and order_j >= 1.3
    report(2, ok, f"d^0.5 t exact to {exact_linear:.1e}; orders caputo {order_c:.2f}, "
                  f"rl_integral {order_j:.2f} (>=1.3)")
    assert exact_linear <= 1e-12
    assert order_c >= 1.3
    assert order_j >= 1.3


def test_criterion_3_forward_oracle_agreement():
    """solve_forward vs eigen_forward <= 1e-2 at 41x41, decreasing to 81x161."""
    t0 = time.time()
    coarse, fine = {}, {}
    for a in (0.3, 0.5, 0.8):
        alpha = FractionalOrder(a)
        for label, (nx, nt) in (("c", (41, 40)), ("f", (81, 160))):
            grid = SpaceGrid(1, nx)
            tg = TimeGrid(1.0, nt)
            spec = make_spec(a, grid, n_steps=nt)
            f = cos_field(grid)
            u = solve_forward(spec, f)
            ue = eigen_forward(alpha, modes_up_to(1, 2), f, spec.mu, tg)
            (coarse if label == "c" else fine)[a] = rel_l2_q(u, ue)
    elapsed = time.time() - t0
    ok = all(coarse[a] <= 1e-2 and fine[a] < coarse[a] for a in coarse) and elapsed < 30.0
    detail = ", ".join(
        f"alpha={a}: {coarse[a]:.1e} -> {fine[a]:.1e}" for a in sorted(coarse)
    )
    report(3, ok, f"{detail}; runtime {elapsed:.1f}s (<30s)")
    for a in coarse:
        assert coarse[a] <= 1e-2
        assert fine[a] < coarse[a]
    assert elapsed < 30.0


def test_criterion_4_duhamel_identity():
    """duhamel_check <= 1e-2 at 41x41, monotone decrease over 3 levels."""
    alpha = FractionalOrder(0.5)
    vals = []
    for nx, nt in ((41, 40), (57, 80), (81, 160)):
        grid = SpaceGrid(1, nx)
        vals.append(duhamel_check(alpha, cos_field(grid), MU_STD, TimeGrid(1.0, nt), grid))
    ok = vals[0] <= 1e-2 and vals[0] > vals[1] > vals[2]
    report(4, ok, "discrepancies " + " -> ".join(f"{v:.2e}" for v in vals)
                  + " (first <=1e-2, monotone)")
    assert vals[0] <= 1e-2
    assert vals[0] > vals[1] > vals[2]


def test_criterion_5_adjoint_pairing_and_gradient():
    """Pairing identity and gradient-vs-finite-difference, both <= 1e-2."""
    grid = SpaceGrid(1, 21)
    spec = make_spec(0.5, grid, n_steps=20)
    mask = edge_mask(grid)
    rng = np.random.default_rng(2024)
    worst_pairing = 0.0
    for _ in range(10):
        f = Field(grid, rng.standard_normal(21))
        g = Field(grid, rng.standard_normal(21))
        r = SpaceTimeField(grid, spec.tgrid, solve_forward(spec, f).values)
        lhs = masked_inner_product(solve_forward(spec, g), r, mask)
        rhs = inner_product(g, solve_adjoint(spec, r, mask))
        worst_pairing = max(worst_pairing, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))

    rho = 1e-5
    u_obs = solve_forward(spec, Field(grid, rng.standard_normal(21)))
    f = Field(grid, rng.standard_normal(21))
    g = Field(grid, rng.standard_normal(21))
    predicted = 2.0 * inner_product(gradient(spec, f, u_obs, mask, rho), g)
    worst_fd = 0.0
    for eps in (1e-2, 1e-3, 1e-4):
        fp = Field(grid, f.values + eps * g.values)
        fm = Field(grid, f.values - eps * g.values)
        fd = (
            objective(spec, fp, u_obs, mask, rho)
            - objective(spec, fm, u_obs, mask, rho)
        ) / (2.0 * eps)
        worst_fd = max(worst_fd, abs(fd - predicted) / abs(fd))
    ok = worst_pairing <= 1e-2 and worst_fd <= 1e-2
    report(5, ok, f"pairing {worst_pairing:.2e}, gradient-vs-FD {worst_fd:.2e} (<=1e-2)")
    assert worst_pairing <= 1e-2
    assert worst_fd <= 1e-2


def test_criterion_6_example_51_reproduction():
    """Example 5.1 bands: (a) err in [2,9]%, K in [8,40]; (b) err in [2.5,10]%, K in [25,100]."""
    t0 = time.time()
    panels = {}
    for name in ("5.1a", "5.1b"):
        panels[name] = [
            run_reconstruction(config_from_preset(name, seed=seed))[0]
            for seed in range(5)
        ]
    elapsed = time.time() - t0
    bands = {"5.1a": ((0.02, 0.09), (8, 40)), "5.1b": ((0.025, 0.10), (25, 100))}
    in_band = {}
    detail = []
    for name, results in panels.items():
        (elo, ehi), (klo, khi) = bands[name]
        hits = sum(
            r.err is not None
            and np.isfinite(r.err)
            and elo <= r.err <= ehi
            and klo <= r.iterations <= khi
            for r in results
        )
        in_band[name] = hits
        errs = [
            100.0 * r.err if r.err is not None and np.isfinite(r.err) else float("inf")
            for r in results
        ]
        detail.append(
            f"{name}: errs {['%.2f' % e for e in errs]}%, K {[r.iterations for r in results]}, "
            f"{hits}/5 seeds in band"
        )
    ok = all(v >= 3 for v in in_band.values()) and elapsed < 120.0
    report(6, ok, "; ".join(detail) + f"; runtime {elapsed:.0f}s (<120s)")
    assert elapsed < 120.0
    if not ok:
        pytest.fail(
            "criterion 6 is unattainable with the published settings: the certified "
            "operator norm ||A||^2 is 3.914 (case a) and 3.013 (case b) while the "
            "pinned M = 2 / M = 1 give stability bounds 2M = 4 (marginal: slow "
            "contraction 0.957, K = 191, err ~ 1.1%) and 2M = 2 (expansive: the "
            "iteration (j2) provably diverges). See docs/decisions.md. "
            + "; ".join(detail)
        )


def test_criterion_7_table_1_reproduction():
    """Per-row median err within 2x of the published value; err monotone in delta per seed."""
    t0 = time.time()
    base = table_base_config(1)
    medians = {}
    per_seed = {}
    for delta, omega, ref_err, _ in TABLE_ROWS[1]:
        errs = []
        for seed in range(5):
            cfg = replace(base, delta=delta, omega=omega, seed=seed)
            res, _, _ = run_reconstruction(cfg)
            errs.append(
                100.0 * res.err
                if res.err is not None and np.isfinite(res.err) and res.converged
                else float("inf")
            )
        medians[(delta, omega)] = (statistics.median(errs), ref_err)
        per_seed[(delta, omega)] = errs
    elapsed = time.time() - t0
    trend_ok = all(
        per_seed[(0.005, "edges_0.05")][s] <= per_seed[(0.04, "edges_0.05")][s]
        for s in range(5)
    )
    row_ok = {k: med <= 2.0 * ref for k, (med, ref) in medians.items()}
    detail = ", ".join(
        f"d={k[0]:g}/{k[1]}: median {med:.2f}% vs published {ref}%"
        for k, (med, ref) in medians.items()
    )
    ok = all(row_ok.values()) and trend_ok and elapsed < 300.0
    report(7, ok, detail + f"; per-seed trend ok: {trend_ok}; runtime {elapsed:.0f}s (<300s)")
    assert elapsed < 300.0
    if not ok:
        failing = [k for k, v in row_ok.items() if not v]
        pytest.fail(
            f"criterion 7 is unattainable as stated. Rows {failing} diverge: "
            "omega = (0,0.2)u(0.8,1) and (0,0.1)u(0.9,1) have certified ||A||^2 of "
            "7.66 and 3.85, above the 2M = 2 stability bound of the pinned M = 1 "
            "(the remaining five rows pass, medians 1.3-1.6% <= 2x published). The "
            f"per-seed delta-monotonicity (trend ok: {trend_ok}) also fails for "
            "near-tie realizations: with the stated per-sample iid noise the "
            "reconstruction error is regularization-bias dominated (~1.35%); between "
            "delta = 0.5% and 4% it moves by +0.035, +0.360, -0.016, +0.162 and "
            "+0.222 percentage points on seeds 0-4, so a seed with a small move "
            "(seed 2) can flip sign by luck. See docs/decisions.md."
        )


def test_criterion_8_table_2_and_2d_reproduction(tmp_path):
    """2D cases: 5.3(a) err <= 12%, Table 2 delta=4% err <= 20%; smoke profile timing."""
    t0 = time.time()
    errs_a, errs_t2 = [], []
    for seed in range(3):
        res, _, _ = run_reconstruction(config_from_preset("5.3a", seed=seed))
        errs_a.append(
            100.0 * res.err
            if res.err is not None and np.isfinite(res.err) and res.converged
            else float("inf")
        )
    base = table_base_config(2)
    for seed in range(3):
        cfg = replace(base, delta=0.04, eps=0.04 / 5.0, seed=seed)
        res, _, _ = run_reconstruction(cfg)
        errs_t2.append(
            100.0 * res.err
            if res.err is not None and np.isfinite(res.err) and res.converged
            else float("inf")
        )
    med_a = statistics.median(errs_a)
    med_t2 = statistics.median(errs_t2)
    elapsed = time.time() - t0

    t1 = time.time()
    from fracsource.experiments import run_table

    run_table(2, seed=0, outdir=str(tmp_path), smoke=True)
    smoke_elapsed = time.time() - t1

    ok = med_a <= 12.0 and med_t2 <= 20.0 and elapsed < 1200.0 and smoke_elapsed < 120.0
    report(
        8,
        ok,
        f"5.3a median err {med_a:.6g}% (<=12%), T2 delta=4% median err {med_t2:.6g}% "
        f"(<=20%); panel {elapsed:.0f}s (<1200s), smoke {smoke_elapsed:.1f}s (<120s)",
    )
    assert elapsed < 1200.0
    assert smoke_elapsed < 120.0
    if not (med_a <= 12.0 and med_t2 <= 20.0):
        pytest.fail(
            "criterion 8 is unattainable with the published settings: certified "
            "||A||^2 at the 41^2 x 41 grid is 14.0 for Example 5.3(a) and 6.9 for the "
            "Table 2 frame rows, far above the 2M = 4 stability bound of the pinned "
            "M = 2, so the iteration (j2) provably diverges for both asserted cases. "
            "See docs/decisions.md."
        )


def test_criterion_9_algorithmic_properties():
    """Phi monotone with M >= 1.2 * estimate; fixed point and scaling exact."""
    grid = SpaceGrid(1, 21)
    worst_phi_increase = -math.inf
    for a in (0.3, 0.8):
        spec = make_spec(a, grid, n_steps=20)
        mask = edge_mask(grid)
        f_true = Field.from_function(grid, lambda x: np.sin(np.pi * x) + x - 3.0)
        u_obs = SpaceTimeField(
            grid, spec.tgrid,
            solve_forward(spec, f_true).values * mask.indicator[None, :],
        )
        m_safe = 1.2 * estimate_m(spec, mask, iters=50)
        cfg = ReconstructionConfig(
            rho=1e-5, m=m_safe, eps=1e-8, f0=Field.constant(grid, 2.0), max_iter=150
        )
        res = iterate(spec, u_obs, mask, cfg)
        worst_phi_increase = max(worst_phi_increase, float(np.max(np.diff(res.phi_history))))

    rng = np.random.default_rng(0)
    fvals = rng.standard_normal(41)
    fp_dev = float(
        np.max(np.abs(threshold_update(fvals, -1e-5 * fvals, 2.0, 1e-5) - fvals))
    ) / float(np.max(np.abs(fvals)))
    sc = threshold_update(2.0 * fvals, 2.0 * rng.standard_normal(41), 1.5, 1e-5)
    # scaling covariance on the full loop is exercised in test_inversion; here
    # verify the update's exact 2-homogeneity with a shared direction
    d = rng.standard_normal(41)
    sc_dev = float(
        np.max(
            np.abs(
                threshold_update(2.0 * fvals, 2.0 * d, 1.5, 1e-5)
                - 2.0 * threshold_update(fvals, d, 1.5, 1e-5)
            )
        )
    )
    ok = worst_phi_increase <= 1e-10 and fp_dev <= 1e-12 and sc_dev == 0.0
    report(
        9,
        ok,
        f"max Phi increase {worst_phi_increase:.1e} (<=1e-10), fixed-point dev "
        f"{fp_dev:.1e} (<=1e-12), scaling dev {sc_dev:.1e}",
    )
    assert worst_phi_increase <= 1e-10
    assert fp_dev <= 1e-12
    assert sc_dev == 0.0


def test_criterion_10_cli_determinism(tmp_path):
    """`table --id 1 --seed 7` twice produces bitwise-identical CSVs."""
    outs = []
    for sub in ("a", "b"):
        outdir = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "fracsource.cli", "table", "--id", "1",
             "--seed", "7", "--outdir", str(outdir)],
            capture_output=True, text=True, timeout=600, env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append((outdir / "table1_seed7.csv").read_bytes())
    ok = outs[0] == outs[1]
    report(10, ok, f"two runs, {len(outs[0])} bytes each, identical: {ok}")
    assert ok
