import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracsource import (
    Field,
    ObservationMask,
    SpaceGrid,
    SpaceTimeField,
    TimeGrid,
    inner_product,
    masked_inner_product,
    solve_adjoint,
    solve_forward,
)
from fracsource.experiments import build_problem, config_from_preset, table_base_config
from fracsource.forward import NormalOperator

from conftest import edge_mask, gram_product, make_spec


def pairing_discrepancy(spec, mask, seed, n_pairs=10):
    """max over pairs of |<u(g), chi r>_Q - <g, A^T r>_Omega| (relative)."""
    grid = spec.grid
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        f = Field(grid, rng.standard_normal(grid.n_nodes))
        g = Field(grid, rng.standard_normal(grid.n_nodes))
        r = SpaceTimeField(grid, spec.tgrid, solve_forward(spec, f).values)
        lhs = masked_inner_product(solve_forward(spec, g), r, mask)
        rhs = inner_product(g, solve_adjoint(spec, r, mask))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    return worst


def dense_forward_map(dim=1, n_per_axis=11):
    """Spec, mask and the dense matrix A of f -> u(f) on n_per_axis^dim nodes x 10 steps.

    Column j of A is the flattened history of solve_forward for the unit
    vector e_j.  The mask is the bands x1 in [0, 0.35] u [0.65, 1]: on 11
    nodes chi is 1/2 on the last node of each band, and a mask of isolated
    nodes would carry no weight.
    """
    grid = SpaceGrid(dim, n_per_axis)
    spec = make_spec(0.5, grid, n_steps=10)
    rest = [[0.0, 1.0]] * (dim - 1)
    mask = ObservationMask.from_boxes(grid, [[[0.0, 0.35], *rest], [[0.65, 1.0], *rest]])
    columns = [
        solve_forward(spec, Field(grid, e)).values.ravel() for e in np.eye(grid.n_nodes)
    ]
    return spec, mask, np.column_stack(columns)


class TestSolveAdjoint:
    def test_zero_residual(self, grid21):
        spec = make_spec(0.5, grid21, n_steps=20)
        zero = SpaceTimeField.zeros(grid21, spec.tgrid)
        z = solve_adjoint(spec, zero, edge_mask(grid21))
        assert np.all(z.values == 0.0)

    def test_initial_residual_never_enters(self, grid21):
        # the t = 0 sample pairs with u(., 0) = 0, so it cannot reach A^T r
        spec = make_spec(0.5, grid21, n_steps=20)
        mask = edge_mask(grid21)
        rng = np.random.default_rng(0)
        r = rng.standard_normal((21, 21))
        changed = r.copy()
        changed[0] = rng.standard_normal(21)
        a = solve_adjoint(spec, SpaceTimeField(grid21, spec.tgrid, r), mask)
        b = solve_adjoint(spec, SpaceTimeField(grid21, spec.tgrid, changed), mask)
        assert np.array_equal(a.values, b.values)

    def test_linearity_in_residual(self, grid21):
        spec = make_spec(0.3, grid21, n_steps=20)
        mask = edge_mask(grid21)
        rng = np.random.default_rng(5)
        r1 = SpaceTimeField(grid21, spec.tgrid, rng.standard_normal((21, 21)))
        r2 = SpaceTimeField(grid21, spec.tgrid, rng.standard_normal((21, 21)))
        z1 = solve_adjoint(spec, r1, mask)
        z2 = solve_adjoint(spec, r2, mask)
        z12 = solve_adjoint(
            spec, SpaceTimeField(grid21, spec.tgrid, r1.values + r2.values), mask
        )
        assert_allclose(z12.values, z1.values + z2.values, atol=1e-13)

    def test_exact_transpose_of_dense_forward_map(self):
        # A maps f to the full history u(f); A^T r = W^-1 A^T (W_t x W_omega) r
        # with W the spatial mass, W_t the trapezoid weights in time and
        # W_omega the mask quadrature weights of masked_inner_product
        spec, mask, a = dense_forward_map()
        grid = spec.grid
        rng = np.random.default_rng(11)
        r = rng.standard_normal((spec.tgrid.n_steps + 1, grid.n_nodes))
        weights = np.outer(spec.tgrid.quad_weights, mask.quad_weights)
        expected = (a.T @ (weights * r).ravel()) / grid.quad_weights
        got = solve_adjoint(spec, SpaceTimeField(grid, spec.tgrid, r), mask)
        assert_allclose(got.values, expected, rtol=1e-12)

    def test_grid_mismatch(self, grid21):
        spec = make_spec(0.5, grid21, n_steps=20)
        other = SpaceGrid(1, 11)
        bad = SpaceTimeField.zeros(other, spec.tgrid)
        with pytest.raises(ValueError):
            solve_adjoint(spec, bad, edge_mask(grid21))


class TestAdjointPairing:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_pairing_identity(self, grid21, alpha):
        spec = make_spec(alpha, grid21, n_steps=20)
        worst = pairing_discrepancy(spec, edge_mask(grid21), seed=42)
        assert worst <= 1e-2  # holds to rounding with the transpose-consistent source

    def test_pairing_tight_across_refinement(self):
        # the discrete pairing is exact by construction, far inside the
        # O(tau^(2-alpha) + h^2) envelope the continuous derivation allows
        for n in (11, 21, 41):
            grid = SpaceGrid(1, n)
            spec = make_spec(0.5, grid, n_steps=n - 1)
            mask = ObservationMask.from_boxes(grid, [[[0.0, 0.1]], [[0.9, 1.0]]])
            worst = pairing_discrepancy(spec, mask, seed=7, n_pairs=4)
            assert worst <= 1e-10


class TestNormalOperator:
    def test_matches_dense_normal_map_and_misfit(self):
        # with the spec's modal maps, A^T A f = W^-1 A^T (W_t x W_omega) A f
        # and the misfit is the masked space-time norm of A f - u_obs
        spec, mask, a = dense_forward_map()
        grid, tgrid = spec.grid, spec.tgrid
        weights = np.outer(tgrid.quad_weights, mask.quad_weights).ravel()
        rng = np.random.default_rng(12)
        f = Field(grid, rng.standard_normal(grid.n_nodes))
        u_obs = SpaceTimeField(
            grid, tgrid, rng.standard_normal((tgrid.n_steps + 1, grid.n_nodes))
        )
        residual = a @ f.values - u_obs.values.ravel()
        normal = NormalOperator(spec, mask)
        # the dense map's time factor has 7 rows, of which A^T A keeps 4
        assert (spec.normal_rank, spec.time_factor[1].shape[0]) == (4, 7)
        f_hat = spec.to_modal(f)
        assert_allclose(spec.to_nodal(f_hat), f.values, rtol=1e-12)
        # the leading q rows of the history in modal form, e, and G e
        sb = spec.time_factor[1][: spec.normal_rank]
        e = sb * f_hat
        assert_allclose(
            spec.to_nodal(np.einsum("ij,ij->j", sb, gram_product(normal, e))),
            (a.T @ (weights * (a @ f.values))) / grid.quad_weights,
            rtol=1e-12,
        )
        c, t, const = normal.project(u_obs)
        e -= normal.anchor(c, f_hat)
        g = gram_product(normal, e)
        assert_allclose(
            spec.to_nodal(np.einsum("ij,ij->j", sb, g) - t),
            (a.T @ (weights * residual)) / grid.quad_weights,
            rtol=1e-12,
        )
        r = SpaceTimeField(grid, tgrid, residual.reshape(u_obs.values.shape))
        assert_allclose(
            np.sum(e * g) - 2.0 * (f_hat @ t) + const,
            masked_inner_product(r, r, mask),
            rtol=1e-12,
        )

    @pytest.mark.parametrize(
        "config, q, r",
        [(config_from_preset("5.3a"), 4, 8), (table_base_config(2), 7, 13)],
        ids=["5.3a", "table2"],
    )
    def test_rank_cut_is_below_rounding(self, config, q, r):
        # A^T A through the leading q rows of sb, with the tail's data terms
        # folded into t and const, against the same maps over all r rows
        spec, _, mask = build_problem(config)
        normal = NormalOperator(spec, mask)
        a, sb = spec.time_factor
        assert (spec.normal_rank, sb.shape[0]) == (q, r)
        peak = np.max(np.abs(sb), axis=1) ** 2
        assert np.all(peak[q:] <= np.finfo(float).eps * peak[0])
        rng = np.random.default_rng(5)
        shape = (spec.tgrid.n_steps + 1, spec.grid.n_nodes)
        u_obs = SpaceTimeField(spec.grid, spec.tgrid, rng.standard_normal(shape))
        y = np.sqrt(spec.tgrid.quad_weights)[:, None] * u_obs.values
        c = a.T @ y
        c_q, t, const = normal.project(u_obs)
        for _ in range(3):
            f_hat = rng.standard_normal(spec.grid.n_nodes)
            # the leading q rows in modal form, e, and G e against all r rows
            # through the transforms
            e = sb[:q] * f_hat
            full = normal.transpose(spec.observe(f_hat))
            cut = np.einsum("ij,ij->j", sb[:q], gram_product(normal, e))
            assert np.linalg.norm(cut - full) <= 1e-14 * np.linalg.norm(full)
            e -= normal.anchor(c_q, f_hat)
            g = gram_product(normal, e)
            full = normal.transpose(spec.observe(f_hat) - c)
            cut = np.einsum("ij,ij->j", sb[:q], g) - t
            assert np.linalg.norm(cut - full) <= 1e-14 * np.linalg.norm(full)
            full = normal.misfit(spec.observe(f_hat) - c) + normal.misfit(y - a @ c)
            cut = np.sum(e * g) - 2.0 * (f_hat @ t) + const
            assert abs(cut - full) <= 1e-14 * full

    def test_grid_mismatch(self, grid21):
        spec = make_spec(0.5, grid21, n_steps=20)
        with pytest.raises(ValueError):
            NormalOperator(spec, edge_mask(SpaceGrid(1, 41)))
        normal = NormalOperator(spec, edge_mask(grid21))
        with pytest.raises(ValueError):
            normal.project(SpaceTimeField.zeros(grid21, TimeGrid(1.0, 10)))
        with pytest.raises(ValueError):
            spec.to_modal(Field.constant(SpaceGrid(1, 11), 1.0))
