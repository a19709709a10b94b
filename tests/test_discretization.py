import math
import numbers
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fracsource.discretization import (
    Field,
    ObservationMask,
    SpaceGrid,
    SpaceTimeField,
    TimeGrid,
    inner_product,
    is_a,
    masked_inner_product,
    norm_l2,
)
from fracsource.experiments import config_from_preset
from fracsource.oracle import modes_up_to

from conftest import fd_stiffness


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
        # a bool or non-real T gets the same ValueError, not a grid with T=True
        # or a TypeError from the comparison
        for T in (0.0, math.nan, math.inf, True, "1"):
            with pytest.raises(ValueError, match="finite T > 0"):
                TimeGrid(T, 10)
        # non-integer sizes, bool included, fail at construction, not on first use
        for dim, n in ((1, 5.5), (1.0, 5), (True, 5), (1, True), (2, np.float64(11))):
            with pytest.raises(ValueError, match="must be integers"):
                SpaceGrid(dim, n)
        for n_steps in (2.5, 10.0, True):
            with pytest.raises(ValueError, match="integer n_steps"):
                TimeGrid(1.0, n_steps)
        # each message names the failing field and the value given
        with pytest.raises(ValueError) as exc:
            TimeGrid(0, 10)
        assert str(exc.value) == "TimeGrid requires a finite T > 0, got 0"
        with pytest.raises(ValueError) as exc:
            TimeGrid(1.0, 2.5)
        assert str(exc.value) == "TimeGrid requires an integer n_steps >= 1, got 2.5"

    def test_is_a(self):
        # the one numeric check: finite, of the kind, never a bool
        for value in (3, np.int64(3), 2**70, -5):
            assert is_a(numbers.Integral, value) and is_a(numbers.Real, value)
        for value in (0.5, np.float64(-1e300), Fraction(1, 3)):
            assert is_a(numbers.Real, value) and not is_a(numbers.Integral, value)
        for value in (True, np.bool_(True), math.nan, math.inf, -math.inf, "1", None, 1j):
            assert not is_a(numbers.Real, value) and not is_a(numbers.Integral, value)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", [3, 5])
    def test_node_order_is_axis_0_slowest(self, dim, n):
        # node i*n + k (2D) is (x_i, x_k); weights, eigenvalues and modes follow it
        grid = SpaceGrid(dim, n)
        x, w = grid.axis_nodes, grid.axis_weights
        kappa = grid.axis_eigenvalues
        if dim == 1:
            cells = [(i,) for i in range(n)]
            coords = [[x[i]] for i in range(n)]
            weights = [w[i] for i in range(n)]
            eigenvalues = [1.0 + kappa[i] for i in range(n)]
        else:
            cells = [(i, k) for i in range(n) for k in range(n)]
            coords = [[x[i], x[k]] for i, k in cells]
            weights = [w[i] * w[k] for i, k in cells]
            eigenvalues = [(1.0 + kappa[i]) + kappa[k] for i, k in cells]
        assert np.array_equal(grid.coords, np.array(coords))
        assert np.array_equal(grid.quad_weights, np.array(weights))
        assert np.array_equal(grid.eigenvalues, np.array(eigenvalues))
        assert [mode.index for mode in modes_up_to(dim, n - 1)] == cells

    def test_field_shape_check(self):
        g = SpaceGrid(1, 11)
        with pytest.raises(ValueError):
            Field(g, np.zeros(10))


def dense_modes(grid):
    """P, the tensor-product eigenbasis as a dense matrix, one mode per column."""
    if grid.dim == 1:
        return grid.axis_modes
    return np.kron(grid.axis_modes, grid.axis_modes)


def modal_matrix(grid):
    """W^-1 M rebuilt from the modal data: P diag(eigenvalues) P^T W."""
    p = dense_modes(grid)
    return p @ (grid.eigenvalues[:, None] * p.T) * grid.quad_weights[None, :]


class TestOperator:
    """The closed-form modal data, and its tie to the finite-difference stencil."""

    def test_preserves_constants_1d_bitwise(self):
        # the constant is mode 0 with eigenvalue exactly 1, and the stencil's rows sum to 0
        grid = SpaceGrid(1, 41)
        assert grid.axis_eigenvalues[0] == 0.0 and grid.eigenvalues[0] == 1.0
        assert np.all(grid.axis_modes[:, 0] == 1.0)
        assert np.all(fd_stiffness(grid) @ np.ones(41) == 0.0)

    def test_preserves_constants_2d(self):
        grid = SpaceGrid(2, 21)
        assert grid.eigenvalues[0] == 1.0
        assert np.all(dense_modes(grid)[:, 0] == 1.0)
        assert_allclose(fd_stiffness(grid) @ np.ones(441), 0.0, atol=1e-13)
        assert_allclose(modal_matrix(grid) @ np.ones(441), 1.0, atol=1e-13)

    def test_weighted_matrix_exactly_symmetric(self):
        # M = K + W is symmetric, and so is its modal form W P diag(lambda) P^T W
        for grid in (SpaceGrid(1, 41), SpaceGrid(2, 17)):
            m = fd_stiffness(grid) + np.diag(grid.quad_weights)
            assert np.all(m == m.T)
            modal = grid.quad_weights[:, None] * modal_matrix(grid)
            assert np.max(np.abs(modal - modal.T)) <= 1e-13 * np.max(np.abs(m))

    def test_three_node_action_row_sums(self):
        grid = SpaceGrid(1, 3)
        action = (fd_stiffness(grid) + np.diag(grid.quad_weights)) / grid.quad_weights[:, None]
        assert_allclose(action.sum(axis=1), 1.0, atol=1e-14)
        assert_allclose(modal_matrix(grid), action, atol=1e-14)

    def test_cosine_eigenpair(self):
        # mode k is sqrt 2 cos(k pi x) (cos(k pi x) at k = n - 1), eigenvalue (k pi)^2 + 1 to O(h^2)
        grid = SpaceGrid(1, 81)
        x = grid.axis_nodes
        k = np.arange(81)
        scale = np.where(k == 80, 1.0, np.sqrt(2.0))
        expected = scale * np.cos(np.pi * np.outer(x, k))
        assert np.max(np.abs(grid.axis_modes[:, 1:] - expected[:, 1:])) <= 1e-12
        lam = np.pi**2 + 1.0
        assert abs(grid.eigenvalues[1] - lam) / lam <= 2e-4

    def test_rayleigh_quotient_convergence(self):
        # kappa_k, the stencil's Rayleigh quotient of the sampled cos(k pi x),
        # approaches (k pi)^2 at second order
        for k in (1, 2):
            errs = []
            for n in (21, 41, 81):
                grid = SpaceGrid(1, n)
                v = np.cos(k * np.pi * grid.axis_nodes)
                rayleigh = v @ fd_stiffness(grid) @ v / (v @ (grid.quad_weights * v))
                assert abs(rayleigh - grid.axis_eigenvalues[k]) <= 1e-12 * rayleigh
                errs.append(abs(grid.axis_eigenvalues[k] - (k * np.pi) ** 2))
            orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
            assert min(orders) >= 1.9

    def test_positive_definite(self):
        # every eigenvalue is 1 + kappa_i + kappa_k >= 1, the smallest exactly 1,
        # and so is the smallest of the stencil's W^-1/2 M W^-1/2
        grid = SpaceGrid(2, 15)
        assert np.min(grid.eigenvalues) == 1.0
        s = 1.0 / np.sqrt(grid.quad_weights)
        m = fd_stiffness(grid) + np.diag(grid.quad_weights)
        assert abs(np.linalg.eigvalsh(s[:, None] * m * s[None, :])[0] - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [3, 11, 41])
    def test_closed_form_basis_matches_eigh(self, n):
        # k1 v = kappa W1 v through the symmetric W1^-1/2 k1 W1^-1/2
        grid = SpaceGrid(1, n)
        s = 1.0 / np.sqrt(grid.quad_weights)
        kappa, y = np.linalg.eigh(s[:, None] * fd_stiffness(grid) * s[None, :])
        modes = s[:, None] * y
        assert np.max(np.abs(grid.axis_eigenvalues - kappa)) <= 1e-14 * kappa[-1]
        signs = np.sign(np.sum(modes * grid.axis_modes, axis=0))
        assert np.max(np.abs(grid.axis_modes - signs * modes)) <= 1e-12
        gram = grid.axis_modes.T @ (grid.quad_weights[:, None] * grid.axis_modes)
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-14

    @pytest.mark.parametrize("dim", [1, 2])
    def test_modal_data_cached_and_read_only(self, dim):
        # every spec built on one grid shares these arrays, so none may write them;
        # the transforms multiply by the matrices on the right, fastest when C-contiguous
        grid = SpaceGrid(dim, 7)
        for name in ("axis_modes", "axis_eigenvalues", "axis_synthesis", "axis_analysis"):
            data = getattr(grid, name)
            assert getattr(grid, name) is data
            assert data.flags.c_contiguous
            with pytest.raises(ValueError, match="read-only"):
                data[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                data *= 2.0
        assert grid.axis_eigenvalues[0] == 0.0 and np.all(grid.axis_modes[:, 0] == 1.0)
        assert np.array_equal(grid.axis_synthesis, grid.axis_modes.T)
        assert np.array_equal(grid.axis_analysis, grid.axis_weights[:, None] * grid.axis_modes)

    @pytest.mark.parametrize("n", [3, 7, 11])
    def test_closed_form_basis_diagonalises_2d_stencil(self, n):
        # the 2D eigenvalues repeat, so the tensor basis is checked by
        # P^T M P = diag(eigenvalues) and P^T W P = I rather than against eigh
        grid = SpaceGrid(2, n)
        p = dense_modes(grid)
        m = fd_stiffness(grid) + np.diag(grid.quad_weights)
        assert np.max(np.abs(p.T @ m @ p - np.diag(grid.eigenvalues))) <= 1e-13 * grid.eigenvalues.max()
        assert np.max(np.abs(p.T @ (grid.quad_weights[:, None] * p) - np.eye(grid.n_nodes))) <= 1e-14


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

    def test_box_axes_must_match_grid(self):
        # a one-axis box on a 2D grid would select a band of whole grid lines,
        # a two-axis box on a 1D grid would index a missing coordinate
        with pytest.raises(ValueError, match="2D grid"):
            ObservationMask.from_boxes(SpaceGrid(2, 11), [[[0.0, 0.2]]])
        with pytest.raises(ValueError, match="1D grid"):
            ObservationMask.from_boxes(SpaceGrid(1, 11), [[[0.0, 0.2], [0.0, 0.2]]])

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize(
        "boxes",
        [
            [[[False, 0.05]], [[0.95, True]]],
            [[[0.5, 0.1]]],
            [[[math.nan, 0.1]]],
            [[["0.0", 0.1]]],
            3,
            [[0.0, 0.1]],
            [[[-0.5, 0.05]]],
        ],
        ids=["bool-bound", "inverted", "nan-bound", "str-bound", "not-a-list", "flat", "below-zero"],
    )
    def test_malformed_boxes_rejected(self, dim, boxes):
        # the format is checked before any node is tested: an inverted or NaN
        # interval is malformed, not an omega that happens to hold no node
        if isinstance(boxes, list) and isinstance(boxes[0][0], list):
            boxes = [box + [[0.0, 1.0]] * (dim - 1) for box in boxes]
        message = "^omega (must be a list of|boxes must lie within)"
        with pytest.raises(ValueError, match=message):
            ObservationMask.from_boxes(SpaceGrid(dim, 11), boxes)
        with pytest.raises(ValueError, match=message):
            config_from_preset("5.1a" if dim == 1 else "5.3a", omega=boxes)

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
