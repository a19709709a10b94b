import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracsource import (
    Field,
    FractionalOrder,
    ObservationMask,
    ProblemSpec,
    ReconstructionConfig,
    SpaceGrid,
    SpaceTimeField,
    TimeGrid,
    estimate_m,
    gradient,
    inner_product,
    iterate,
    masked_inner_product,
    norm_l2,
    objective,
    solve_adjoint,
    solve_forward,
)
from fracsource import forward, inversion
from fracsource.experiments import (
    build_problem,
    config_from_preset,
    run_reconstruction,
    synthesize_observation,
    table_base_config,
)
from fracsource.inversion import threshold_update

from conftest import dense_normal, edge_mask, make_spec
from test_adjoint import dense_forward_map


class TestObjective:
    def test_zero_everything(self, grid21):
        spec = make_spec(0.5, grid21, n_steps=20)
        zero_obs = SpaceTimeField.zeros(grid21, spec.tgrid)
        val = objective(spec, Field.constant(grid21, 0.0), zero_obs, edge_mask(grid21), 1e-5)
        assert val == 0.0

    def test_zero_source_gives_data_norm(self, grid21):
        spec = make_spec(0.5, grid21, n_steps=20)
        mask = edge_mask(grid21)
        rng = np.random.default_rng(2)
        obs = SpaceTimeField(grid21, spec.tgrid, rng.standard_normal((21, 21)))
        val = objective(spec, Field.constant(grid21, 0.0), obs, mask, 0.1)
        assert_allclose(val, masked_inner_product(obs, obs, mask), rtol=1e-12)

    def test_directional_derivative_matches_gradient(self, grid21):
        # Phi is quadratic in f, so the central difference is exact up to rounding
        spec = make_spec(0.5, grid21, n_steps=20)
        mask = edge_mask(grid21)
        rho = 1e-5
        rng = np.random.default_rng(9)
        u_obs = solve_forward(spec, Field(grid21, rng.standard_normal(21)))
        f = Field(grid21, rng.standard_normal(21))
        g = Field(grid21, rng.standard_normal(21))
        grad = gradient(spec, f, u_obs, mask, rho)
        predicted = 2.0 * inner_product(grad, g)
        for eps in (1e-2, 1e-3, 1e-4):
            fp = Field(grid21, f.values + eps * g.values)
            fm = Field(grid21, f.values - eps * g.values)
            fd = (
                objective(spec, fp, u_obs, mask, rho)
                - objective(spec, fm, u_obs, mask, rho)
            ) / (2.0 * eps)
            assert abs(fd - predicted) / abs(fd) <= 1e-2

    @pytest.mark.parametrize("preset, overrides", [("5.1a", {}), ("5.3a", {"n_per_axis": 21})])
    def test_matches_nodal_definition(self, preset, overrides):
        # objective and gradient run on the modal operator, through only the q
        # time modes above rounding (q < r on 5.3a); the reference is Phi and
        # A^T (A f - u_obs) by a forward and an adjoint solve on the full grid
        cfg = config_from_preset(preset, **overrides)
        spec, f_true, mask = build_problem(cfg)
        u_obs = synthesize_observation(spec, f_true, mask, cfg.delta, cfg.seed)
        rng = np.random.default_rng(12)
        noise = rng.standard_normal((2, spec.grid.n_nodes))
        for values in (noise[0], f_true.values + 0.1 * noise[1]):
            f = Field(spec.grid, values)
            r = nodal_residual(spec, f, u_obs)
            assert_allclose(
                objective(spec, f, u_obs, mask, cfg.rho), nodal_phi(f, r, mask, cfg.rho),
                rtol=1e-12,
            )
            grad = gradient(spec, f, u_obs, mask, cfg.rho)
            ref = Field(spec.grid, solve_adjoint(spec, r, mask).values + cfg.rho * f.values)
            # near the minimiser the gradient is a difference of larger terms,
            # so it is compared in norm rather than node by node
            assert norm_l2(Field(spec.grid, grad.values - ref.values)) <= 1e-12 * norm_l2(ref)


    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_observation_on_omega(self, bad):
        # a NaN or inf of u_obs on omega reaches the misfit's constant term and
        # is rejected there; off omega u_obs is never read
        cfg = config_from_preset("5.1a")
        spec, f_true, mask = build_problem(cfg)
        u_obs = synthesize_observation(spec, f_true, mask, cfg.delta, cfg.seed)
        f0 = Field.constant(spec.grid, cfg.f0)
        inside, outside = mask.weighted_nodes[0], np.flatnonzero(mask.quad_weights == 0.0)[0]
        off = SpaceTimeField(spec.grid, spec.tgrid, u_obs.values.copy())
        off.values[5, outside] = bad
        assert objective(spec, f0, off, mask, cfg.rho) == objective(spec, f0, u_obs, mask, cfg.rho)
        u_obs.values[5, inside] = bad
        for call in (objective, gradient):
            with pytest.raises(ValueError, match="u_obs must be finite on omega"):
                call(spec, f0, u_obs, mask, cfg.rho)


class TestGradient:
    def test_exact_data_leaves_regularizer(self, grid21):
        spec = make_spec(0.3, grid21, n_steps=20)
        mask = edge_mask(grid21)
        rng = np.random.default_rng(4)
        f = Field(grid21, rng.standard_normal(21))
        u_obs = solve_forward(spec, f)
        rho = 1e-3
        grad = gradient(spec, f, u_obs, mask, rho)
        assert_allclose(grad.values, rho * f.values, atol=1e-14)

    def test_zero_case(self, grid21):
        spec = make_spec(0.5, grid21, n_steps=20)
        zero_obs = SpaceTimeField.zeros(grid21, spec.tgrid)
        grad = gradient(
            spec, Field.constant(grid21, 0.0), zero_obs, edge_mask(grid21), 0.0
        )
        assert np.all(grad.values == 0.0)


class TestReconstructionConfig:
    def test_validation(self, grid21):
        f0 = Field.constant(grid21, 2.0)
        for bad in (
            dict(rho=0.0, m=1.0, eps=1e-3),
            dict(rho=1e-5, m=-1.0, eps=1e-3),
            dict(rho=1e-5, m=1.0, eps=0.0),
            dict(rho=math.nan, m=1.0, eps=1e-3),
            dict(rho=1e-5, m=math.nan, eps=1e-3),
            dict(rho=1e-5, m=math.inf, eps=1e-3),
            dict(rho=1e-5, m=1.0, eps=math.nan),
            # wrong types fail at construction, not as a TypeError in iterate
            dict(rho=True, m=1.0, eps=1e-3),
            dict(rho=1e-5, m="2", eps=1e-3),
            dict(rho=1e-5, m=1.0, eps=1e-3, max_iter=2.5),
            dict(rho=1e-5, m=1.0, eps=1e-3, max_iter=True),
            dict(rho=1e-5, m=1.0, eps=1e-3, f0=2.0),
            dict(rho=1e-5, m=1.0, eps=1e-3, f0=f0.values),
            # a non-finite start would end the run as "diverged", blaming M
            dict(rho=1e-5, m=1.0, eps=1e-3, f0=Field.constant(grid21, math.nan)),
            dict(rho=1e-5, m=1.0, eps=1e-3, f0=Field.constant(grid21, -math.inf)),
        ):
            with pytest.raises(ValueError):
                ReconstructionConfig(**{"f0": f0, "max_iter": 10, **bad})
        with pytest.raises(ValueError):
            ReconstructionConfig(rho=1e-5, m=1.0, eps=1e-3, f0=f0, max_iter=0)

    def test_message_names_the_field(self, grid21):
        # the CLI prints these messages as they are
        good = dict(rho=1e-5, m=1.0, eps=1e-3, f0=Field.constant(grid21, 2.0), max_iter=10)
        for name, value, message in (
            ("rho", True, "rho must be finite and positive, got True"),
            ("m", -1.0, "m must be finite and positive, got -1.0"),
            ("eps", math.inf, "eps must be finite and positive, got inf"),
            ("max_iter", 0, "max_iter must be an integer >= 1, got 0"),
            ("f0", Field.constant(grid21, math.inf), "f0 must have finite values"),
        ):
            with pytest.raises(ValueError) as exc:
                ReconstructionConfig(**{**good, name: value})
            assert str(exc.value) == message


class TestThresholdUpdate:
    def test_fixed_point_exact(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(31)
        m, rho = 2.0, 1e-5
        # the variational equation gives data_term = -rho f at a minimizer
        out = threshold_update(f, -rho * f, m, rho)
        assert np.max(np.abs(out - f)) <= 1e-12 * np.max(np.abs(f))

    def test_scaling_covariance_exact(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(31)
        d = rng.standard_normal(31)
        out1 = threshold_update(f, d, 1.5, 1e-5)
        out2 = threshold_update(2.0 * f, 2.0 * d, 1.5, 1e-5)
        assert np.array_equal(out2, 2.0 * out1)


class TestIterate:
    def test_zero_data_zero_start(self, grid21):
        spec = make_spec(0.5, grid21, n_steps=20)
        cfg = ReconstructionConfig(
            rho=1e-5, m=1.0, eps=1e-3, f0=Field.constant(grid21, 0.0), max_iter=50
        )
        res = iterate(spec, SpaceTimeField.zeros(grid21, spec.tgrid), edge_mask(grid21), cfg)
        assert res.iterations == 1
        assert res.converged
        assert np.all(res.f_k.values == 0.0)
        assert len(res.phi_history) == res.iterations + 1

    def test_recovers_smooth_source_noise_free(self, grid41):
        # noise-free exact-data limit on the first example's geometry:
        # err drops below 2% within 500 iterations at rho = 1e-8
        spec = make_spec(0.3, grid41, n_steps=40)
        mask = edge_mask(grid41)
        f_true = Field.from_function(
            grid41, lambda x: np.sin(np.pi * x) + x - 3.0
        )
        u_obs = SpaceTimeField(
            grid41, spec.tgrid,
            solve_forward(spec, f_true).values * mask.indicator[None, :],
        )
        cfg = ReconstructionConfig(
            rho=1e-8, m=2.0, eps=1e-12, f0=Field.constant(grid41, 2.0), max_iter=500
        )
        res = iterate(spec, u_obs, mask, cfg, f_true=f_true)
        assert res.err < 0.02

    def test_scaling_covariance_full_loop(self, grid21):
        spec = make_spec(0.5, grid21, n_steps=20)
        mask = edge_mask(grid21)
        rng = np.random.default_rng(8)
        f_true = Field(grid21, rng.standard_normal(21))
        u_obs_vals = solve_forward(spec, f_true).values * mask.indicator[None, :]
        results = []
        for c in (1.0, 2.0):
            cfg = ReconstructionConfig(
                rho=1e-5, m=2.0, eps=1e-4,
                f0=Field.constant(grid21, c * 0.5), max_iter=40,
            )
            obs = SpaceTimeField(grid21, spec.tgrid, c * u_obs_vals)
            results.append(iterate(spec, obs, mask, cfg))
        assert results[0].iterations == results[1].iterations
        assert_allclose(
            results[1].f_k.values, 2.0 * results[0].f_k.values, rtol=1e-12
        )

    def test_divergence_guard_reports(self, grid21, caplog):
        # M far below the stability threshold: bail out with converged=False
        # and a warning that names the bound and where it is derived
        spec = make_spec(0.5, grid21, n_steps=20)
        mask = edge_mask(grid21)
        f_true = Field.constant(grid21, 2.0)
        u_obs = SpaceTimeField(
            grid21, spec.tgrid,
            solve_forward(spec, f_true).values * mask.indicator[None, :],
        )
        cfg = ReconstructionConfig(
            rho=1e-5, m=0.05, eps=1e-6, f0=Field.constant(grid21, 0.0), max_iter=1000
        )
        with caplog.at_level(logging.WARNING, logger="fracsource.inversion"):
            res = iterate(spec, u_obs, mask, cfg)
        assert not res.converged
        assert res.iterations < 1000
        [record] = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert record.getMessage().endswith(
            "M is too small for this operator: it converges only if "
            "||A||^2 < 2M + rho. See docs/decisions.md."
        )

    def test_divergence_warning_names_the_reported_k(self, caplog):
        # table 1's edges_0.2 row bails out at the check K = 10 that finds Phi(f_9)
        # past the bound: the warning states the K the table and the CLI report
        cfg = replace(table_base_config(1), delta=0.02, omega="edges_0.2")
        with caplog.at_level(logging.WARNING, logger="fracsource.inversion"):
            res = run_reconstruction(cfg)[0]
        assert (res.status, res.iterations) == ("diverged", 10)
        [record] = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert record.getMessage().startswith(
            f"iteration diverged at K=10, which counts this check (Phi(f_9)={res.phi_history[-1]:.3e}); "
        )

    def test_zero_source_has_no_relative_error(self, grid21):
        # ||f_K - f_true|| / ||f_true|| is undefined for f_true = 0
        spec = make_spec(0.5, grid21, n_steps=20)
        zero = Field.constant(grid21, 0.0)
        cfg = ReconstructionConfig(
            rho=1e-5, m=2.0, eps=1e-6, f0=Field.constant(grid21, 1.0), max_iter=5
        )
        u_obs = SpaceTimeField.zeros(grid21, spec.tgrid)
        res = iterate(spec, u_obs, edge_mask(grid21), cfg, f_true=zero)
        assert res.err is None
        assert (res.iterations, res.status) == (5, "max_iter")

    def test_first_phi_is_objective(self):
        # the loop and objective evaluate the one statement of Phi
        cfg = config_from_preset("5.3a", n_per_axis=21, m=16.8)
        spec, f_true, mask = build_problem(cfg)
        u_obs = synthesize_observation(spec, f_true, mask, cfg.delta, cfg.seed)
        f0 = Field.constant(spec.grid, cfg.f0)
        rcfg = ReconstructionConfig(rho=cfg.rho, m=cfg.m, eps=cfg.eps, f0=f0, max_iter=3)
        res = iterate(spec, u_obs, mask, rcfg)
        assert res.phi_history[0] == objective(spec, f0, u_obs, mask, cfg.rho)

    def test_steps_dispatch_no_product_helper(self, monkeypatch):
        # the step runs plans built once per call, so a run makes as many calls
        # to forward's product helpers at 50 steps as at 5 (5.3a at M = 16.8
        # converges at K = 23 and never re-anchors)
        calls = []
        for name in ("_matmul", "_along_axes"):
            def recording(*args, helper=getattr(forward, name)):
                calls.append(helper)
                return helper(*args)

            monkeypatch.setattr(forward, name, recording)
        cfg = config_from_preset("5.3a", m=16.8)
        spec, f_true, mask = build_problem(cfg)
        u_obs = synthesize_observation(spec, f_true, mask, cfg.delta, cfg.seed)
        counts = []
        for max_iter in (5, 50):
            calls.clear()
            rcfg = ReconstructionConfig(cfg.rho, cfg.m, cfg.eps, Field.constant(spec.grid, cfg.f0), max_iter)
            counts.append((iterate(spec, u_obs, mask, rcfg).iterations, len(calls)))
        assert counts[0][0] == 5 and counts[1][0] == 23
        assert counts[0][1] == counts[1][1] > 0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_runs_without_time_modes(self, dim):
        # mu = 0 leaves the time factor no rows (q = r = 0), so Phi is the
        # data's norm plus rho ||f||^2 and the data term vanishes; the block
        # and dot rules take the empty products
        grid, tgrid = SpaceGrid(dim, 11), TimeGrid(1.0, 10)
        spec = ProblemSpec(FractionalOrder(0.5), tgrid, grid, np.zeros(11))
        mask = ObservationMask.from_boxes(grid, [[[0.0, 0.3]] + [[0.0, 1.0]] * (dim - 1)])
        u_obs = SpaceTimeField(grid, tgrid, np.ones((11, grid.n_nodes)))
        f0 = Field.constant(grid, 2.0)
        phi0 = masked_inner_product(u_obs, u_obs, mask) + 1e-5 * norm_l2(f0) ** 2
        assert objective(spec, f0, u_obs, mask, 1e-5) == pytest.approx(phi0, rel=1e-14)
        assert_allclose(gradient(spec, f0, u_obs, mask, 1e-5).values, 1e-5 * f0.values, rtol=1e-14)
        res = iterate(spec, u_obs, mask, ReconstructionConfig(1e-5, 1.0, 1e-3, f0, 50))
        assert (res.iterations, res.status) == (1, "converged")

    def test_non_finite_observation_is_not_reported_as_divergence(self, caplog):
        # one NaN of u_obs on omega used to end the run as "diverged" at K = 1,
        # blaming M; it is an input error and fails before the first step
        cfg = config_from_preset("5.1a")
        spec, f_true, mask = build_problem(cfg)
        u_obs = synthesize_observation(spec, f_true, mask, cfg.delta, cfg.seed)
        u_obs.values[7, mask.weighted_nodes[-1]] = math.nan
        rcfg = ReconstructionConfig(cfg.rho, cfg.m, cfg.eps, Field.constant(spec.grid, cfg.f0))
        with caplog.at_level(logging.WARNING, logger="fracsource.inversion"):
            with pytest.raises(ValueError, match="u_obs must be finite on omega"):
                iterate(spec, u_obs, mask, rcfg)
        assert not caplog.records

    def test_rejects_true_source_on_another_grid(self):
        # a 1D grid with the node count of 41^2 would be compared node by node,
        # and a coarser grid would fail in numpy only after the whole run; an
        # initial guess on either grid fails in the transform to modal coordinates
        cfg = config_from_preset("5.3a", m=16.8)
        spec, _, mask = build_problem(cfg)
        u_obs = SpaceTimeField.zeros(spec.grid, spec.tgrid)
        rcfg = ReconstructionConfig(
            rho=cfg.rho, m=cfg.m, eps=cfg.eps, f0=Field.constant(spec.grid, cfg.f0)
        )
        for other in (SpaceGrid(1, 1681), SpaceGrid(2, 21)):
            with pytest.raises(ValueError, match="true source grid"):
                iterate(spec, u_obs, mask, rcfg, f_true=Field.constant(other, 1.0))
            with pytest.raises(ValueError, match="field grid does not match the problem grid"):
                iterate(spec, u_obs, mask, replace(rcfg, f0=Field.constant(other, 1.0)))


def nodal_residual(spec, f, u_obs):
    """u(f) - u_obs on the full space-time grid, by a forward solve."""
    return SpaceTimeField(spec.grid, spec.tgrid, solve_forward(spec, f).values - u_obs.values)


def nodal_phi(f, r, mask, rho):
    """Phi(f) by its definition, for the residual r = u(f) - u_obs."""
    return masked_inner_product(r, r, mask) + rho * inner_product(f, f)


def nodal_iterate(spec, u_obs, mask, cfg):
    """The thresholding loop on nodal values with a full forward and adjoint
    solve per step: the reference :func:`iterate` must reproduce.

    Returns (f_K, K, converged, phi_history).
    """
    grid = spec.grid
    f = Field(grid, cfg.f0.values.copy())
    history = []
    converged = diverged = False
    for k in range(1, cfg.max_iter + 1):
        r = nodal_residual(spec, f, u_obs)
        history.append(nodal_phi(f, r, mask, cfg.rho))
        if not math.isfinite(history[-1]) or history[-1] > 1e12 * (history[0] + 1.0):
            diverged = True
            break
        data_term = solve_adjoint(spec, r, mask).values
        f_next = Field(grid, threshold_update(f.values, data_term, cfg.m, cfg.rho))
        step = norm_l2(Field(grid, f_next.values - f.values))
        threshold = cfg.eps * max(norm_l2(f), 1e-14)
        f = f_next
        if step < threshold:
            converged = True
            break
    history.append(
        history[-1] if diverged else nodal_phi(f, nodal_residual(spec, f, u_obs), mask, cfg.rho)
    )
    return f, k, converged, history


class TestIterateMatchesNodalLoop:
    @pytest.mark.parametrize(
        "preset, overrides, converges",
        [
            ("5.1a", {}, True),
            ("5.1b", {}, False),
            ("5.3a", {"n_per_axis": 21}, False),
            ("5.3a", {"n_per_axis": 21, "m": 16.8}, True),
            # the widest rank cuts, q = 7 of 13 and 6 of 10; M = 4 is stable
            # on the 21^2 grid (||A||^2 = 6.88), the pinned M = 2 diverges
            ("table2", {"n_per_axis": 21, "m": 4.0}, True),
            ("table2", {"n_per_axis": 21}, False),
            ("table1", {}, True),
        ],
    )
    def test_same_iterates(self, preset, overrides, converges):
        if preset.startswith("table"):
            cfg = replace(table_base_config(int(preset[5:])), **overrides)
        else:
            cfg = config_from_preset(preset, **overrides)
        spec, f_true, mask = build_problem(cfg)
        u_obs = synthesize_observation(spec, f_true, mask, cfg.delta, cfg.seed)
        rcfg = ReconstructionConfig(
            rho=cfg.rho, m=cfg.m, eps=cfg.eps, f0=Field.constant(spec.grid, cfg.f0)
        )
        f_ref, k_ref, converged_ref, phi_ref = nodal_iterate(spec, u_obs, mask, rcfg)
        res = iterate(spec, u_obs, mask, rcfg)
        assert converged_ref == converges
        assert (res.iterations, res.converged) == (k_ref, converged_ref)
        # a diverged run has grown by 1e12, which magnifies rounding
        rtol = 1e-12 if converges else 1e-9
        diff = norm_l2(Field(spec.grid, res.f_k.values - f_ref.values))
        assert diff <= rtol * norm_l2(f_ref)
        assert_allclose(res.phi_history, phi_ref, rtol=rtol)


class TestEstimateM:
    def test_zero_mask(self, grid21):
        spec = make_spec(0.5, grid21, n_steps=20)
        mask = ObservationMask(grid21, np.zeros(grid21.n_nodes))
        assert estimate_m(spec, mask, iters=3) == 0.0

    def test_rayleigh_non_decreasing(self, grid21):
        spec = make_spec(0.5, grid21, n_steps=20)
        mask = edge_mask(grid21)
        values = [estimate_m(spec, mask, iters=i, seed=3) for i in (1, 2, 4, 8, 16)]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12

    def test_dominates_random_rayleigh_quotients(self, grid21):
        spec = make_spec(0.5, grid21, n_steps=20)
        mask = edge_mask(grid21)
        est = estimate_m(spec, mask, iters=50)
        rng = np.random.default_rng(17)
        for _ in range(20):
            v = Field(grid21, rng.standard_normal(21))
            u = solve_forward(spec, v)
            q = masked_inner_product(u, u, mask) / inner_product(v, v)
            assert q <= 1.05 * est

    def test_iters_validation(self, grid21):
        spec = make_spec(0.5, grid21, n_steps=20)
        for iters in (0, 2.5, True):
            with pytest.raises(ValueError, match=f"iters must be an integer >= 1, got {iters!r}$"):
                estimate_m(spec, edge_mask(grid21), iters=iters)

    @pytest.mark.parametrize("dim, n_per_axis", [(1, 11), (2, 7)])
    def test_matches_dense_top_eigenvalue(self, dim, n_per_axis):
        spec, mask, a = dense_forward_map(dim, n_per_axis)
        assert estimate_m(spec, mask, iters=60) == pytest.approx(
            dense_norm_sq(spec, mask, a), rel=1e-12, abs=0.0
        )

    @pytest.mark.parametrize(
        "base, omega",
        [
            (config_from_preset("5.1a"), "edges_0.05"),
            (config_from_preset("5.1b"), "edges_0.05"),
            *[(table_base_config(1), omega) for omega in ("edges_0.05", "edges_0.2", "edges_0.1", "edges_0.025")],
            (config_from_preset("5.3a", n_per_axis=21), "frame_0.1_0.9"),
            (table_base_config(2, smoke=True), "three_edges"),
        ],
        ids=["5.1a", "5.1b", "table1-0.05", "table1-0.2", "table1-0.1", "table1-0.025", "5.3a-21", "three_edges-21"],
    )
    def test_matches_exact_top_eigenvalue_of_modal_normal_map(self, base, omega):
        # H = A^T A in modal coordinates has the spectrum of A^T A in the
        # mass-weighted product, so Lanczos stops at its top eigenvalue
        spec, _, mask = build_problem(replace(base, omega=omega))
        exact = np.linalg.eigvalsh(dense_normal(spec, mask))[-1]
        assert estimate_m(spec, mask, iters=60) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_stops_early_on_53a(self, monkeypatch):
        spec, _, mask = build_problem(config_from_preset("5.3a"))
        calls = count_forward_solves(monkeypatch)
        estimate_m(spec, mask, iters=60)
        assert 1 <= len(calls) <= 10

    @pytest.mark.parametrize("n_per_axis", [5, 11])
    def test_more_steps_than_nodes_end_at_breakdown(self, n_per_axis, monkeypatch):
        # the Krylov space cannot outgrow the n_nodes-dimensional space; on
        # 5 nodes the top Ritz value needs all of it
        spec, mask, a = dense_forward_map(1, n_per_axis)
        calls = count_forward_solves(monkeypatch)
        got = estimate_m(spec, mask, iters=50)
        assert len(calls) <= n_per_axis
        assert got == pytest.approx(dense_norm_sq(spec, mask, a), rel=1e-12, abs=0.0)


def dense_norm_sq(spec, mask, a):
    """Top eigenvalue of W^-1 A^T (W_t x W_omega) A, i.e. ||A||^2 in the mass-weighted product."""
    weights = np.outer(spec.tgrid.quad_weights, mask.quad_weights).ravel()
    scale = 1.0 / np.sqrt(spec.grid.quad_weights)
    normal = scale[:, None] * (a.T @ (weights[:, None] * a)) * scale[None, :]
    return float(np.linalg.eigvalsh(normal)[-1])


def count_forward_solves(monkeypatch):
    """Wrap the forward solve ``estimate_m`` calls; returns the list of calls."""
    calls = []

    def counted(spec, f):
        calls.append(f)
        return solve_forward(spec, f)

    monkeypatch.setattr(inversion, "solve_forward", counted)
    return calls


class TestStatus:
    @pytest.mark.parametrize(
        "preset, overrides, status",
        [
            ("5.1a", {}, "converged"),
            ("5.1a", {"max_iter": 5}, "max_iter"),
            ("5.1b", {}, "diverged"),
        ],
    )
    def test_why_the_run_stopped(self, preset, overrides, status):
        result, _, _ = run_reconstruction(config_from_preset(preset, **overrides))
        assert result.status == status
        assert result.converged == (status == "converged")
        assert len(result.phi_history) == result.iterations + 1
        if status == "max_iter":
            assert result.iterations == 5
        if status == "diverged":
            # K counts the bail-out check, one more than the updates made
            assert result.iterations == 21
            assert result.phi_history[-1] == result.phi_history[-2]


class TestObjectiveMonotonicity:
    def test_phi_non_increasing_with_safe_m(self, grid21):
        spec = make_spec(0.3, grid21, n_steps=20)
        mask = edge_mask(grid21)
        f_true = Field.from_function(grid21, lambda x: np.sin(np.pi * x) + x - 3.0)
        u_obs = SpaceTimeField(
            grid21, spec.tgrid,
            solve_forward(spec, f_true).values * mask.indicator[None, :],
        )
        m_safe = 1.2 * estimate_m(spec, mask, iters=50)
        cfg = ReconstructionConfig(
            rho=1e-5, m=m_safe, eps=1e-6, f0=Field.constant(grid21, 2.0), max_iter=120
        )
        res = iterate(spec, u_obs, mask, cfg)
        phi = np.asarray(res.phi_history)
        assert np.all(np.diff(phi) <= 1e-10)
