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

from conftest import edge_mask, make_spec


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
        with pytest.raises(ValueError):
            solve_adjoint(spec, SpaceTimeField.zeros(grid21, spec.tgrid), edge_mask(other))


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
        # the dense map's time factor has 7 rows, of which A^T A keeps 4
        assert (spec.normal_rank, spec.time_factor[1].shape[0]) == (4, 7)
        assert_allclose(spec.to_nodal(spec.to_modal(f)), f.values, rtol=1e-12)
        # the data term against u_obs = 0 is A^T A f
        data_term = NormalOperator(spec, mask, SpaceTimeField.zeros(grid, tgrid), f).phi(0.0)[0]
        assert_allclose(
            spec.to_nodal(data_term),
            (a.T @ (weights * (a @ f.values))) / grid.quad_weights,
            rtol=1e-12,
        )
        normal = NormalOperator(spec, mask, u_obs, f)
        data_term, ff, phi = normal.phi(0.0)
        assert_allclose(
            spec.to_nodal(data_term),
            (a.T @ (weights * residual)) / grid.quad_weights,
            rtol=1e-12,
        )
        r = SpaceTimeField(grid, tgrid, residual.reshape(u_obs.values.shape))
        assert_allclose(phi, masked_inner_product(r, r, mask), rtol=1e-12)
        # f_hat . f_hat is ||f||^2 in the mass-weighted product, rho's term
        assert_allclose(ff, inner_product(f, f), rtol=1e-12)
        assert_allclose(normal.phi(0.5)[2], phi + 0.5 * ff, rtol=1e-12)

    @pytest.mark.parametrize(
        "config, q, r",
        [(config_from_preset("5.3a"), 4, 8), (table_base_config(2), 7, 13)],
        ids=["5.3a", "table2"],
    )
    def test_rank_cut_is_below_rounding(self, config, q, r):
        # A^T A through the leading q rows of sb, with the tail's data terms
        # folded into t and const, against the same maps over all r rows
        spec, _, mask = build_problem(config)
        a, sb = spec.time_factor
        assert (spec.normal_rank, sb.shape[0]) == (q, r)
        peak = np.max(np.abs(sb), axis=1) ** 2
        assert np.all(peak[q:] <= np.finfo(float).eps * peak[0])
        rng = np.random.default_rng(5)
        shape = (spec.tgrid.n_steps + 1, spec.grid.n_nodes)
        u_obs = SpaceTimeField(spec.grid, spec.tgrid, rng.standard_normal(shape))
        zero = SpaceTimeField.zeros(spec.grid, spec.tgrid)
        y = np.sqrt(spec.tgrid.quad_weights)[:, None] * u_obs.values
        c = a.T @ y
        w = mask.quad_weights
        for _ in range(3):
            f = Field(spec.grid, rng.standard_normal(spec.grid.n_nodes))
            # phi's leading q rows against all r rows through observe and transpose
            normal = NormalOperator(spec, mask, zero, f)
            full = spec.transpose(w * spec.observe(normal.f_hat))
            cut = normal.phi(0.0)[0]
            assert np.linalg.norm(cut - full) <= 1e-14 * np.linalg.norm(full)
            d = spec.observe(normal.f_hat) - c
            cut, _, phi = NormalOperator(spec, mask, u_obs, f).phi(0.0)
            full = spec.transpose(w * d)
            assert np.linalg.norm(cut - full) <= 1e-14 * np.linalg.norm(full)
            # sum_l ||d_l||^2_omega over all r rows, plus the residual off a's span
            full = np.sum(d * d, axis=0) @ w + np.sum((y - a @ c) ** 2, axis=0) @ w
            assert abs(phi - full) <= 1e-14 * full

    def test_takes_the_observation_on_omegas_columns(self):
        # an (n_t + 1) x |omega| array of u_obs on omega's columns gives the bits of
        # the full-grid field, in either memory order, and is only read
        spec, _, mask = build_problem(config_from_preset("5.3a", n_per_axis=21))
        rng = np.random.default_rng(8)
        u_obs = SpaceTimeField(spec.grid, spec.tgrid, rng.standard_normal((41, spec.grid.n_nodes)))
        f = Field(spec.grid, rng.standard_normal(spec.grid.n_nodes))
        block = u_obs.values[:, mask.weighted_nodes]
        kept = block.copy()
        expected = NormalOperator(spec, mask, u_obs, f).phi(1e-5)
        for given in (np.ascontiguousarray(block), np.asfortranarray(block)):
            data_term, ff, phi = NormalOperator(spec, mask, given, f).phi(1e-5)
            assert (data_term.tobytes(), ff, phi) == (expected[0].tobytes(), expected[1], expected[2])
            assert np.array_equal(given, kept)
        for bad in (block[:, 1:], block[1:], u_obs.values):
            with pytest.raises(ValueError, match="u_obs on omega's columns must have shape"):
                NormalOperator(spec, mask, bad, f)

    def test_grid_mismatch(self, grid21):
        spec = make_spec(0.5, grid21, n_steps=20)
        u_obs, f = SpaceTimeField.zeros(grid21, spec.tgrid), Field.constant(grid21, 1.0)
        with pytest.raises(ValueError):
            NormalOperator(spec, edge_mask(SpaceGrid(1, 41)), u_obs, f)
        with pytest.raises(ValueError):
            NormalOperator(spec, edge_mask(grid21), SpaceTimeField.zeros(grid21, TimeGrid(1.0, 10)), f)
        with pytest.raises(ValueError):
            NormalOperator(spec, edge_mask(grid21), u_obs, Field.constant(SpaceGrid(1, 11), 1.0))
