import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracsource import (
    Field,
    FractionalOrder,
    ObservationMask,
    ProblemSpec,
    SpaceGrid,
    SpaceTimeField,
    TimeGrid,
    masked_inner_product,
    mittag_leffler,
    solve_adjoint,
    solve_forward,
    solve_homogeneous,
)
from fracsource import experiments, forward
from fracsource.experiments import (
    OMEGA_PRESETS,
    build_problem,
    config_from_preset,
    run_experiment,
)
from fracsource.fraccalc import l1_scale, l1_weights
from fracsource.oracle import eigen_forward, modes_up_to

from conftest import MU_STD, cos_field, fd_stiffness, gram_product, make_spec


def l1_history(spec: ProblemSpec, source, initial, step):
    """Reference L1 stepping: u^n = step(beta (u^{n-1} - history) + source^n)."""
    beta = l1_scale(spec.alpha, spec.tgrid.tau)
    b = l1_weights(spec.alpha, spec.tgrid.n_steps)
    u = np.empty((spec.tgrid.n_steps + 1, initial.size))
    u[0] = initial
    for n in range(1, len(u)):
        # history sum_{k=1}^{n-1} b_k (u^{n-k} - u^{n-k-1})
        hist = b[1:n][::-1] @ np.diff(u[:n], axis=0)
        u[n] = step(beta * (u[n - 1] - hist) + source[n])
    return u


def nodal_l1(spec: ProblemSpec, source, initial):
    """Reference nodal L1 stepping, one sparse LU solve of (beta W + M) u^n = W rhs^n per step."""
    return l1_history(
        spec, source, initial, lambda rhs: spec.step_solver.solve(spec.grid.quad_weights * rhs)
    )


def weighted_table(spec: ProblemSpec):
    """X = W_t^1/2 R, R[n, j] the scalar L1 recursion of eigenvalue lambda_j for a unit source."""
    beta = l1_scale(spec.alpha, spec.tgrid.tau)
    lam = spec.grid.eigenvalues
    r = l1_history(spec, spec.mu, np.zeros(lam.size), lambda rhs: rhs / (beta + lam))
    return np.sqrt(spec.tgrid.quad_weights)[:, None] * r


def rel_l2_q(a: SpaceTimeField, b: SpaceTimeField) -> float:
    full = ObservationMask(a.grid, np.ones(a.grid.n_nodes))
    diff = SpaceTimeField(a.grid, a.tgrid, a.values - b.values)
    den = masked_inner_product(b, b, full)
    return math.sqrt(masked_inner_product(diff, diff, full) / den)


class TestProblemSpec:
    def test_mu_validation(self, grid41):
        tg = TimeGrid(1.0, 40)
        with pytest.raises(ValueError):
            ProblemSpec(FractionalOrder(0.5), tg, grid41, np.ones(7))
        with pytest.raises(ValueError):
            ProblemSpec(FractionalOrder(0.5), tg, grid41, np.full(41, np.nan))

    def test_step_solver_cached(self, grid41):
        spec = make_spec(0.5, grid41)
        assert spec.step_solver is spec.step_solver

    def test_step_solver_factors_through_module_splu(self, grid21, monkeypatch):
        # wrapping forward.splu must see the factorization: tracing counts it there
        calls = []
        original = forward.splu

        def counting(matrix):
            calls.append(matrix)
            return original(matrix)

        monkeypatch.setattr(forward, "splu", counting)
        for grid in (grid21, SpaceGrid(2, 7)):
            spec = make_spec(0.5, grid)
            lu = spec.step_solver
            assert spec.step_solver is lu
            n = grid.n_nodes
            assert [m.shape for m in calls] == [(n, n)]
            # the factored matrix is beta W + M of the finite-difference stencil, exactly symmetric
            beta = l1_scale(spec.alpha, spec.tgrid.tau)
            w = np.diag(grid.quad_weights)
            system = beta * w + (fd_stiffness(grid) + w)
            factored = calls.pop().toarray()
            assert np.all(factored == factored.T)
            assert np.max(np.abs(factored - system)) <= 1e-15 * np.max(np.abs(system))
            rhs = np.random.default_rng(0).standard_normal(n)
            dense = np.linalg.solve(system, rhs)
            assert np.linalg.norm(lu.solve(rhs) - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_modal_data_cached(self, monkeypatch):
        # one L1 recursion per spec, over the distinct eigenvalues only
        widths, uniques = [], []
        original, unique = forward._step_l1, np.unique

        def counting(alpha, tgrid, lam, *args):
            widths.append(lam.size)
            return original(alpha, tgrid, lam, *args)

        def recording(*args, **kwargs):
            uniques.append(unique(*args, **kwargs))
            return uniques[-1]

        monkeypatch.setattr(forward, "_step_l1", counting)
        monkeypatch.setattr(forward.np, "unique", recording)
        grid = SpaceGrid(2, 11)
        spec = make_spec(0.5, grid, n_steps=10)
        f = Field.constant(grid, 1.0)
        u = solve_forward(spec, f)
        [(lam, inverse, counts)] = uniques
        assert np.array_equal(lam[inverse], spec.grid.eigenvalues)
        assert counts.sum() == grid.n_nodes and lam.size < grid.n_nodes
        assert widths == [lam.size]
        # later solves on the spec reuse the factor: no np.unique, no L1 recursion
        solve_forward(spec, f)
        solve_adjoint(spec, u, ObservationMask(grid, np.ones(grid.n_nodes)))
        assert widths == [lam.size] and len(uniques) == 1

    def test_equal_problems_share_one_time_factor(self, monkeypatch):
        # a sweep over delta, omega and the noise seed builds one problem many
        # times; every build returns the one spec, so its factor is built once
        experiments._problem.cache_clear()
        calls = []
        original = forward._step_l1

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(forward, "_step_l1", counting)
        first, _, _ = build_problem(config_from_preset("5.3a", n_per_axis=11, n_steps=10))
        second, _, _ = build_problem(
            config_from_preset("5.3a", n_per_axis=11, n_steps=10, delta=0.05, seed=7)
        )
        assert first is second
        assert first.time_factor[1] is second.time_factor[1]
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha", 0.7), ("T", 2.0), ("n_steps", 12), ("n_per_axis", 9), ("dim", 1),
            ("f_true", "x1 + 2.0"),
        ],
    )
    def test_each_value_keys_its_own_time_factor(self, field, value):
        base = {"alpha": 0.5, "T": 1.0, "n_steps": 10, "n_per_axis": 11, "dim": 2, "f_true": "x1 + 1.0"}

        def factor_of(alpha, T, n_steps, n_per_axis, dim, f_true):
            return experiments._problem(dim, n_per_axis, n_steps, T, alpha, f_true).spec.time_factor

        experiments._problem.cache_clear()
        shared = factor_of(**base)
        changed = factor_of(**{**base, field: value})
        assert changed is not shared
        # f_true keys its own problem and factor, equal to the shared one in value
        assert np.array_equal(changed[1], shared[1]) == (field == "f_true")
        experiments._problem.cache_clear()
        cold = factor_of(**{**base, field: value})
        assert cold is not changed
        assert all(np.array_equal(c, w) for c, w in zip(cold, changed))

    def test_time_factor_is_read_only(self):
        # specs of equal values share it, so no spec may write into it
        a, sb = make_spec(0.5, SpaceGrid(2, 11), n_steps=10).time_factor
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
        with pytest.raises(ValueError):
            sb[0, 0] = 1.0

    def test_time_factor_reconstructs_weighted_table(self):
        # the factor built from the distinct eigenvalues spans what a factor
        # of the all-modes table spans; its last direction sits near the
        # rounding of the table, so the projectors are compared on that table
        for preset in ("5.3a", "5.1a"):
            spec, _, _ = build_problem(config_from_preset(preset))
            a, sb = spec.time_factor
            x = weighted_table(spec)
            u, s, _ = np.linalg.svd(x, full_matrices=False)
            a_full = u[:, s > 1e-15 * s[0]]
            assert a.shape == a_full.shape and a.shape[1] < spec.tgrid.n_steps + 1
            assert_allclose(a.T @ a, np.eye(a.shape[1]), atol=1e-14)
            projector_gap = (a @ a.T - a_full @ a_full.T) @ x
            assert np.linalg.norm(projector_gap) <= 1e-14 * np.linalg.norm(x)
            assert np.linalg.norm(a @ sb - x) <= 1e-14 * np.linalg.norm(x)
            assert sb.flags.c_contiguous
            assert spec.time_factor is spec.time_factor
            # u^0 = 0 is built into the factor, not patched into the solves
            assert np.all(a[0] == 0.0)

    @pytest.mark.parametrize("dim, n", [(1, 41), (2, 21)])
    @pytest.mark.parametrize("first", [0, 3])
    def test_transpose_is_the_transpose_of_observe(self, dim, n, first):
        # sum_l observe(f_hat)_l . w_l = f_hat . transpose(w, first) over the
        # rows l = first, first + 1, ... that w holds
        spec = make_spec(0.5, SpaceGrid(dim, n), n_steps=20)
        r = spec.time_factor[1].shape[0]
        rng = np.random.default_rng(3)
        f_hat = rng.standard_normal(spec.grid.n_nodes)
        w = rng.standard_normal((r - first, spec.grid.n_nodes))
        lhs = np.sum(spec.observe(f_hat)[first:] * w)
        rhs = f_hat @ spec.transpose(w, first)
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


class TestSolveForward:
    def test_zero_source(self, grid41):
        spec = make_spec(0.5, grid41)
        u = solve_forward(spec, Field.constant(grid41, 0.0))
        assert np.all(u.values == 0.0)

    def test_linearity(self, grid41):
        spec = make_spec(0.5, grid41)
        rng = np.random.default_rng(3)
        f1 = Field(grid41, rng.standard_normal(41))
        f2 = Field(grid41, rng.standard_normal(41))
        u1 = solve_forward(spec, f1)
        u2 = solve_forward(spec, f2)
        u12 = solve_forward(spec, Field(grid41, f1.values + f2.values))
        scale = np.max(np.abs(u12.values))
        assert np.max(np.abs(u12.values - u1.values - u2.values)) <= 1e-12 * scale

    def test_grid_mismatch(self, grid41):
        spec = make_spec(0.5, grid41)
        with pytest.raises(ValueError, match="grid"):
            solve_forward(spec, Field.constant(SpaceGrid(1, 21), 1.0))
        # the field is rejected before the O(n_t^2 D) time factor is built
        assert "time_factor" not in spec.__dict__

    @pytest.mark.parametrize("dim", [1, 2])
    def test_initial_row_is_positive_zero(self, dim):
        # the forward CSV writes repr, so a -0.0 in u^0 would change its bytes
        grid = SpaceGrid(dim, 11)
        spec = make_spec(0.5, grid, n_steps=10)
        f = Field(grid, np.random.default_rng(4).standard_normal(grid.n_nodes))
        u0 = solve_forward(spec, f).values[0]
        assert np.all(u0 == 0.0) and not np.any(np.signbit(u0))

    @pytest.mark.parametrize(
        "dim, n, n_steps, homogeneous",
        [
            pytest.param(1, 41, 40, False, id="1-41-40"),
            pytest.param(2, 41, 40, False, id="2-41-40"),
            pytest.param(2, 21, 400, False, id="2-21-400"),
            pytest.param(2, 21, 40, True, id="2-21-40-homogeneous"),
        ],
    )
    def test_matches_lu_stepping(self, dim, n, n_steps, homogeneous):
        # the modal solves are the nodal LU scheme in another basis
        grid = SpaceGrid(dim, n)
        spec = make_spec(0.5, grid, n_steps=n_steps)
        f = Field(grid, np.random.default_rng(1).standard_normal(grid.n_nodes))
        if homogeneous:
            want = nodal_l1(spec, np.zeros((n_steps + 1, grid.n_nodes)), f.values)
            got = solve_homogeneous(spec, f).values
        else:
            source = spec.mu[:, None] * f.values[None, :]
            want = nodal_l1(spec, source, np.zeros(grid.n_nodes))
            got = solve_forward(spec, f).values
            assert np.all(got[0] == 0.0)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_against_eigen_oracle(self, grid41, alpha):
        spec = make_spec(alpha, grid41)
        f = cos_field(grid41)
        u = solve_forward(spec, f)
        ue = eigen_forward(
            FractionalOrder(alpha), modes_up_to(1, 2), f, spec.mu, spec.tgrid
        )
        assert rel_l2_q(u, ue) <= 1e-2

    def test_temporal_rate_at_final_time(self):
        # measured at t = T: the global L2(0,T) rate is alpha-limited by the
        # t^alpha start-up layer, but the final-time error converges at
        # min(2-alpha, 1+alpha) = 1.5 for alpha = 0.5.  The oracle runs on an
        # 8x finer grid so its own O(tau^2) quadrature does not contaminate
        # the measured rate.
        grid = SpaceGrid(1, 401)
        f = cos_field(grid)
        tg_fine = TimeGrid(1.0, 640)
        ue = eigen_forward(
            FractionalOrder(0.5), modes_up_to(1, 2), f, MU_STD.sample(tg_fine), tg_fine
        )
        reference = ue.values[-1]
        errs = []
        for n_steps in (10, 20, 40):
            spec = make_spec(0.5, grid, n_steps=n_steps)
            u = solve_forward(spec, f)
            errs.append(
                np.linalg.norm(u.values[-1] - reference) / np.linalg.norm(reference)
            )
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) >= 1.3

    def test_2d_against_eigen_oracle(self):
        # single tensor mode cos(pi x1) cos(pi x2), lambda = 2 pi^2 + 1
        from fracsource.oracle import EigenMode

        rels = []
        for nx, nt in ((21, 20), (41, 40)):
            grid = SpaceGrid(2, nx)
            spec = make_spec(0.5, grid, n_steps=nt)
            f = Field.from_function(
                grid, lambda x1, x2: np.cos(np.pi * x1) * np.cos(np.pi * x2)
            )
            u = solve_forward(spec, f)
            ue = eigen_forward(
                FractionalOrder(0.5), [EigenMode((1, 1))], f, spec.mu, spec.tgrid
            )
            rels.append(rel_l2_q(u, ue))
        assert rels[0] <= 5e-3
        assert rels[1] < rels[0]

    def test_spatial_rate(self):
        errs = []
        for n in (11, 21, 41):
            grid = SpaceGrid(1, n)
            spec = make_spec(0.5, grid, n_steps=640)
            f = cos_field(grid)
            u = solve_forward(spec, f)
            ue = eigen_forward(
                FractionalOrder(0.5), modes_up_to(1, 2), f, spec.mu, spec.tgrid
            )
            errs.append(rel_l2_q(u, ue))
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) >= 1.6


class TestSolveHomogeneous:
    def test_zero_initial(self, grid41):
        spec = make_spec(0.5, grid41)
        v = solve_homogeneous(spec, Field.constant(grid41, 0.0))
        assert np.all(v.values == 0.0)

    def test_constant_mode_decay(self, grid41):
        spec = make_spec(0.5, grid41)
        v = solve_homogeneous(spec, Field.constant(grid41, 1.0))
        exact = np.array(
            [mittag_leffler(0.5, 1.0, -math.sqrt(s)) for s in spec.tgrid.nodes]
        )
        assert abs(v.values[-1, 0] - exact[-1]) <= 5e-3
        # spatially constant at every step
        assert np.max(np.abs(v.values - v.values[:, :1])) <= 1e-12

    def test_cosine_mode(self, grid41):
        spec = make_spec(0.5, grid41)
        v = solve_homogeneous(spec, cos_field(grid41))
        lam = np.pi**2 + 1.0
        exact_t = mittag_leffler(0.5, 1.0, -lam) * np.cos(
            np.pi * grid41.coords[:, 0]
        )
        rel = np.linalg.norm(v.values[-1] - exact_t) / np.linalg.norm(exact_t)
        assert rel <= 1e-2

    def test_monotone_modal_decay(self, grid41):
        # single eigenmode, zero source: amplitude positive, non-increasing
        spec = make_spec(0.3, grid41)
        v = solve_homogeneous(spec, cos_field(grid41))
        amplitude = v.values[:, 0]  # value at x = 0 where cos = 1
        assert np.all(amplitude > 0.0)
        assert np.all(np.diff(amplitude) <= 1e-14)


def test_transforms_multiply_by_c_contiguous_matrices(tmp_path, monkeypatch):
    # numpy's batched matmul takes a slower path for a transposed right operand,
    # so every transform gets its right factor C-contiguous from the grid
    right_factors = []
    along_axes = forward._along_axes

    def recording(grid, right, values, *buffers):
        right_factors.append(right)
        return along_axes(grid, right, values, *buffers)

    monkeypatch.setattr(forward, "_along_axes", recording)
    cfg = config_from_preset("5.3a", n_per_axis=21, m=16.8, outdir=str(tmp_path))
    run_experiment(cfg)
    spec, f_true, mask = build_problem(cfg)
    solve_adjoint(spec, solve_forward(spec, f_true), mask)
    assert right_factors and all(m.flags.c_contiguous for m in right_factors)


@pytest.mark.parametrize("n", [64, 65, 101, 513])
def test_transform_blocks_give_the_plain_product(n):
    # past 64 nodes per axis a 2D transform cuts each n x n x n product into
    # column (then row) blocks of at most 2^18 multiply-adds, the size
    # OpenBLAS runs on one thread, and past 512 into blocks of one column;
    # the blocks give the whole product to rounding
    grid = SpaceGrid(2, n)
    values = np.random.default_rng(n).standard_normal((3 if n < 512 else 1, grid.n_nodes))
    right = grid.axis_synthesis
    got = forward._along_axes(grid, right, values)
    want = (right.T @ (values.reshape(-1, n, n) @ right)).reshape(values.shape)
    assert got.shape == values.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_dot_rule_sums_a_101_squared_grid_by_its_lines():
    # 101^2 = 10,201 terms pass the 10,000 above which OpenBLAS splits a dot
    # across threads, so the sum is one BLAS dot per grid line of 101 terms,
    # the lines' dots then added up by a dot with ones, in a stack or alone
    x, y = np.random.default_rng(101).standard_normal((2, 101**2))
    plan, sums = forward.dot_plan(x, y)
    forward.run_plan(plan)
    lines = np.array([np.dot(a, b) for a, b in zip(x.reshape(101, 101), y.reshape(101, 101))])
    assert plan[0][1].shape[-1] == 101
    assert sums[0] == np.dot(lines, np.ones(101))
    assert forward.dots(np.stack([x, y]), y).tolist() == [sums[0], forward.dots(y, y)[0]]
    assert abs(sums[0] - math.fsum(x * y)) <= 1e-13 * math.fsum(abs(x * y))


_PUBLISHED_MASKS = [(len(p["boxes"][0]), name) for name, p in OMEGA_PRESETS.items()]


@pytest.mark.parametrize(
    "dim, boxes, rank",
    [(dim, OMEGA_PRESETS[name]["boxes"], 1) for dim, name in _PUBLISHED_MASKS]
    + [(2, [[[lo, lo + 0.2]] * 2 for lo in (0.1, 0.4, 0.7)], 3), (2, [[[0.0, 1.0]] * 2], 0)],
    ids=[name for _, name in _PUBLISHED_MASKS] + ["three_diagonal_boxes", "whole_square"],
)
def test_mask_gram_is_the_dense_gram_matrix(dim, boxes, rank):
    # G = P^T W_omega P, applied as s I plus R Kronecker terms by the Gram
    # plan of the thresholding step, against the dense product: one term on
    # every published mask (in 1D, G itself), three for three disjoint boxes
    # and none (G = I) when omega is the whole square
    grid = SpaceGrid(dim, 41)
    mask = ObservationMask.from_boxes(grid, boxes)
    modes = grid.axis_modes if dim == 1 else np.kron(grid.axis_modes, grid.axis_modes)
    dense = modes.T @ (mask.quad_weights[:, None] * modes)
    s, terms = mask.gram
    got = gram_product(mask, np.eye(grid.n_nodes))
    assert len(terms) == rank
    assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))
