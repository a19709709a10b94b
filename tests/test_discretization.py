import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.sparse.linalg import eigsh

from fracsource.discretization import (
    Field,
    ObservationMask,
    SpaceGrid,
    SpaceTimeField,
    TimeGrid,
    assemble_operator,
    inner_product,
    masked_inner_product,
    norm_l2,
)


class TestGrids:
    def test_time_grid(self):
        tg = TimeGrid(1.0, 40)
        assert tg.tau == 0.025
        assert tg.nodes.shape == (41,)
        assert_allclose(tg.quad_weights.sum(), 1.0, rtol=1e-14)

    def test_space_grid_2d(self):
        g = SpaceGrid(2, 5)
        assert g.n_nodes == 25
        assert g.coords.shape == (25, 2)
        assert_allclose(g.quad_weights.sum(), 1.0, rtol=1e-14)

    def test_invalid_grids(self):
        with pytest.raises(ValueError):
            SpaceGrid(3, 11)
        with pytest.raises(ValueError):
            SpaceGrid(1, 2)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 10)

    def test_field_shape_check(self):
        g = SpaceGrid(1, 11)
        with pytest.raises(ValueError):
            Field(g, np.zeros(10))


class TestOperator:
    def test_preserves_constants_1d_bitwise(self):
        op = assemble_operator(SpaceGrid(1, 41))
        out = op.apply(np.ones(41))
        assert np.all(out == 1.0)

    def test_preserves_constants_2d(self):
        op = assemble_operator(SpaceGrid(2, 21))
        out = op.apply(np.ones(441))
        assert_allclose(out, 1.0, atol=1e-13)

    def test_weighted_matrix_exactly_symmetric(self):
        for grid in (SpaceGrid(1, 41), SpaceGrid(2, 17)):
            m = assemble_operator(grid).weighted_matrix
            assert abs(m - m.T).max() == 0.0

    def test_three_node_action_row_sums(self):
        op = assemble_operator(SpaceGrid(1, 3))
        action = np.linalg.solve(np.diag(op.mass), op.weighted_matrix.toarray())
        assert_allclose(action.sum(axis=1), 1.0, atol=1e-14)

    def test_cosine_eigenpair(self):
        grid = SpaceGrid(1, 81)
        op = assemble_operator(grid)
        v = np.cos(np.pi * grid.axis_nodes)
        out = op.apply(v)
        lam = np.pi**2 + 1.0
        assert np.max(np.abs(out - lam * v)) / lam <= 2e-4  # O(h^2)

    def test_rayleigh_quotient_convergence(self):
        # discrete eigenvalues approach (k pi)^2 + 1 at second order
        for k in (1, 2):
            lam = (k * np.pi) ** 2 + 1.0
            errs = []
            for n in (21, 41, 81):
                grid = SpaceGrid(1, n)
                op = assemble_operator(grid)
                v = np.cos(k * np.pi * grid.axis_nodes)
                errs.append(abs(op.rayleigh(v) - lam))
            orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
            assert min(orders) >= 1.9

    def test_positive_definite(self):
        # smallest generalized Ritz value of (M, W) is >= 0.99 (exactly >= 1 here)
        from scipy import sparse

        op = assemble_operator(SpaceGrid(2, 15))
        w = sparse.diags(op.mass).tocsc()
        smallest = eigsh(
            op.weighted_matrix.tocsc(), k=1, M=w, sigma=0.0, which="LM",
            return_eigenvectors=False,
        )[0]
        assert smallest >= 0.99

    @pytest.mark.parametrize("n", [3, 11, 41])
    def test_closed_form_basis_matches_eigh(self, n):
        # k1 v = kappa W1 v through the symmetric W1^-1/2 k1 W1^-1/2
        op = assemble_operator(SpaceGrid(1, n))
        s = 1.0 / np.sqrt(op.mass)
        kappa, y = np.linalg.eigh(s[:, None] * op.stiffness.toarray() * s[None, :])
        modes = s[:, None] * y
        assert np.max(np.abs(op.axis_eigenvalues - kappa)) <= 1e-14 * kappa[-1]
        signs = np.sign(np.sum(modes * op.axis_modes, axis=0))
        assert np.max(np.abs(op.axis_modes - signs * modes)) <= 1e-12
        gram = op.axis_modes.T @ (op.mass[:, None] * op.axis_modes)
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-14


class TestInnerProducts:
    def test_unit_measure(self):
        g = SpaceGrid(1, 41)
        one = Field.constant(g, 1.0)
        assert_allclose(inner_product(one, one), 1.0, rtol=1e-14)

    def test_sine_norm(self):
        g = SpaceGrid(1, 201)
        f = Field.from_function(g, lambda x: np.sin(np.pi * x))
        assert abs(inner_product(f, f) - 0.5) <= 1e-4

    def test_zero(self):
        g = SpaceGrid(1, 11)
        z = Field.constant(g, 0.0)
        assert inner_product(z, z) == 0.0
        assert norm_l2(z) == 0.0

    def test_grid_mismatch(self):
        a = Field.constant(SpaceGrid(1, 11), 1.0)
        b = Field.constant(SpaceGrid(1, 21), 1.0)
        with pytest.raises(ValueError):
            inner_product(a, b)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bilinear_symmetric_triangle(self, seed):
        g = SpaceGrid(1, 17)
        rng = np.random.default_rng(seed)
        a = Field(g, rng.standard_normal(17))
        b = Field(g, rng.standard_normal(17))
        c = Field(g, rng.standard_normal(17))
        assert_allclose(inner_product(a, b), inner_product(b, a), rtol=1e-12)
        lhs = inner_product(Field(g, 2.0 * a.values + c.values), b)
        rhs = 2.0 * inner_product(a, b) + inner_product(c, b)
        assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)
        ab = Field(g, a.values + b.values)
        assert norm_l2(ab) <= norm_l2(a) + norm_l2(b) + 1e-12


class TestMask:
    def test_box_membership_closed_intervals(self):
        g = SpaceGrid(1, 41)
        mask = ObservationMask.from_boxes(g, [[[0.0, 0.05]], [[0.95, 1.0]]])
        active = np.flatnonzero(mask.indicator)
        assert list(active) == [0, 1, 2, 38, 39, 40]

    def test_box_face_on_rounded_node(self):
        # linspace puts node 3 of 11 at 0.30000000000000004, just outside [0, 0.3]
        g = SpaceGrid(1, 11)
        assert g.axis_nodes[3] > 0.3
        mask = ObservationMask.from_boxes(g, [[[0.0, 0.3]]])
        assert list(np.flatnonzero(mask.indicator)) == [0, 1, 2, 3]

    def test_empty_mask_rejected(self):
        g = SpaceGrid(1, 11)
        with pytest.raises(ValueError):
            ObservationMask.from_boxes(g, [[[0.401, 0.449]]])

    def test_isolated_nodes_rejected(self):
        # edges_0.025 on 21 nodes keeps nodes 0 and 20 only: no cell of omega,
        # zero quadrature weight, and an observation map that is zero
        g = SpaceGrid(1, 21)
        with pytest.raises(ValueError, match="h = 0.05"):
            ObservationMask.from_boxes(g, [[[0.0, 0.025]], [[0.975, 1.0]]])
        # a single grid line of a 2D grid holds no cell either
        with pytest.raises(ValueError, match="h = 0.1"):
            ObservationMask.from_boxes(SpaceGrid(2, 11), [[[0.0, 1.0], [0.5, 0.5]]])

    def test_quadrature_measure_exact(self):
        g = SpaceGrid(1, 41)
        mask = ObservationMask.from_boxes(g, [[[0.0, 0.05]], [[0.95, 1.0]]])
        assert_allclose(mask.quad_weights.sum(), 0.1, rtol=1e-12)

    def test_full_mask_matches_grid_weights(self):
        g = SpaceGrid(2, 11)
        mask = ObservationMask(g, np.ones(g.n_nodes))
        assert_allclose(mask.quad_weights, g.quad_weights, rtol=1e-13)

    def test_indicator_validation(self):
        g = SpaceGrid(1, 11)
        with pytest.raises(ValueError):
            ObservationMask(g, np.full(11, 0.5))

    def test_weights_built_once_on_a_frozen_copy(self):
        g = SpaceGrid(2, 11)
        passed = np.ones(g.n_nodes)
        mask = ObservationMask(g, passed)
        assert mask.quad_weights is mask.quad_weights
        with pytest.raises(ValueError):
            mask.indicator[0] = 0.0
        with pytest.raises(ValueError):
            mask.quad_weights[0] = 0.0
        passed[0] = 0.0  # the caller's array stays writable and apart from the mask
        assert mask.indicator[0] == 1.0


class TestMaskedInnerProduct:
    def test_full_mask_unit(self):
        g = SpaceGrid(1, 21)
        tg = TimeGrid(1.0, 20)
        mask = ObservationMask(g, np.ones(g.n_nodes))
        one = SpaceTimeField(g, tg, np.ones((21, 21)))
        assert_allclose(masked_inner_product(one, one, mask), 1.0, rtol=1e-13)

    def test_zero_mask(self):
        g = SpaceGrid(1, 21)
        tg = TimeGrid(1.0, 20)
        mask = ObservationMask(g, np.zeros(g.n_nodes))
        one = SpaceTimeField(g, tg, np.ones((21, 21)))
        assert masked_inner_product(one, one, mask) == 0.0

    def test_time_quadrature(self):
        g = SpaceGrid(1, 21)
        tg = TimeGrid(1.0, 40)
        mask = ObservationMask(g, np.ones(g.n_nodes))
        ramp = SpaceTimeField(g, tg, np.repeat(tg.nodes[:, None], g.n_nodes, axis=1))
        val = masked_inner_product(ramp, ramp, mask)
        assert abs(val - 1.0 / 3.0) <= 1e-3  # O(tau^2)
