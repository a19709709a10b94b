import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracsource import (
    Field,
    FractionalOrder,
    SpaceGrid,
    TimeGrid,
    inner_product,
    mittag_leffler,
)
from fracsource.fraccalc import rl_integral
from fracsource.oracle import (
    EigenMode,
    PolynomialMu,
    duhamel_check,
    duhamel_theta,
    eigen_forward,
    modes_up_to,
)

from conftest import MU_STD, cos_field

ONE_MINUS_E_HALF = 0.572416423844193  # 1 - E_{1/2,1}(-1)
E_HALF_PI2P1 = 0.051688324595059633  # E_{1/2,1}(-(pi^2+1))


class TestEigenModes:
    def test_eigenvalues(self):
        assert EigenMode((0,)).eigenvalue == 1.0
        assert_allclose(EigenMode((1,)).eigenvalue, np.pi**2 + 1.0, rtol=1e-15)
        assert_allclose(
            EigenMode((1, 2)).eigenvalue, np.pi**2 + 4.0 * np.pi**2 + 1.0, rtol=1e-15
        )

    def test_orthonormal_under_trapezoid(self):
        # trapezoid weights give exact discrete cosine orthogonality
        grid = SpaceGrid(1, 41)
        modes = modes_up_to(1, 4)
        for i, m in enumerate(modes):
            for n in modes[i:]:
                val = inner_product(
                    Field(grid, m.values(grid)), Field(grid, n.values(grid))
                )
                expected = 1.0 if m.index == n.index else 0.0
                assert abs(val - expected) <= 1e-12

    def test_mode_count_2d(self):
        assert len(modes_up_to(2, 3)) == 16

    @pytest.mark.parametrize("dim", [3, 0])
    def test_modes_of_unsupported_dim_rejected(self, dim):
        with pytest.raises(ValueError):
            modes_up_to(dim, 1)

    def test_invalid_index(self):
        # (1.5,) is no Neumann eigenfunction, though cos(1.5 pi x) samples fine
        for index in ((-1,), (1.5,), (True,), ("a",), (1, 2.0)):
            with pytest.raises(ValueError):
                EigenMode(index)
        assert EigenMode((np.int64(2),)).eigenvalue == EigenMode((2,)).eigenvalue


class TestEigenForward:
    def test_orthogonal_source_gives_zero(self):
        grid = SpaceGrid(1, 41)
        tg = TimeGrid(1.0, 20)
        f = cos_field(grid, k=3)  # orthogonal to modes 0..2
        u = eigen_forward(
            FractionalOrder(0.5), modes_up_to(1, 2), f, MU_STD.sample(tg), tg
        )
        assert np.max(np.abs(u.values)) <= 1e-12

    def test_constant_mode_closed_form(self):
        # mu = 1, lambda = 1: u(t) = 1 - E_{alpha,1}(-t^alpha), exact for the
        # product-trapezoid rule because mu is linear on every cell
        grid = SpaceGrid(1, 21)
        tg = TimeGrid(1.0, 40)
        mu_one = PolynomialMu((1.0,))
        u = eigen_forward(
            FractionalOrder(0.5), modes_up_to(1, 0), Field.constant(grid, 1.0),
            mu_one.sample(tg), tg,
        )
        assert abs(u.values[-1, 0] - ONE_MINUS_E_HALF) <= 1e-10
        exact = np.array(
            [1.0 - mittag_leffler(0.5, 1.0, -math.sqrt(s)) for s in tg.nodes[1:]]
        )
        assert np.max(np.abs(u.values[1:, 0] - exact)) <= 1e-10

    def test_single_cosine_mode_closed_form(self):
        grid = SpaceGrid(1, 41)
        tg = TimeGrid(1.0, 40)
        lam = np.pi**2 + 1.0
        f = Field(grid, math.sqrt(2.0) * np.cos(np.pi * grid.coords[:, 0]))
        u = eigen_forward(
            FractionalOrder(0.5), [EigenMode((1,))], f, PolynomialMu((1.0,)).sample(tg), tg
        )
        expected = (1.0 - E_HALF_PI2P1) / lam * math.sqrt(2.0)
        assert abs(u.values[-1, 0] - expected) <= 1e-10

    def test_empty_modes_rejected(self):
        grid = SpaceGrid(1, 11)
        tg = TimeGrid(1.0, 10)
        with pytest.raises(ValueError):
            eigen_forward(
                FractionalOrder(0.5), [], Field.constant(grid, 1.0),
                MU_STD.sample(tg), tg,
            )

    def test_mode_truncation_converged_at_40(self):
        # true source of the half-sine/quadratic preset has a slowly converging
        # cosine expansion; the solution expansion converges much faster
        grid = SpaceGrid(1, 41)
        tg = TimeGrid(1.0, 10)
        f = Field.from_function(
            grid, lambda x: -np.sin(np.pi * x / 2.0) - x**2 + 3.0
        )
        alpha = FractionalOrder(0.8)
        mu = MU_STD.sample(tg)
        u20 = eigen_forward(alpha, modes_up_to(1, 20), f, mu, tg)
        u40 = eigen_forward(alpha, modes_up_to(1, 40), f, mu, tg)
        rel = np.max(np.abs(u40.values - u20.values)) / np.max(np.abs(u40.values))
        assert rel <= 1e-4


class TestDuhamelTheta:
    def test_constant_mu(self):
        alpha = FractionalOrder(0.5)
        theta = duhamel_theta(alpha, PolynomialMu((1.0,)))
        assert theta.exponents == (-0.5,)
        assert_allclose(theta.coeffs[0], 1.0 / math.gamma(0.5), rtol=1e-15)
        assert_allclose(theta(1.0), 1.0 / math.gamma(0.5), rtol=1e-14)

    def test_quadratic_mu(self):
        alpha = FractionalOrder(0.3)
        theta = duhamel_theta(alpha, MU_STD)
        assert_allclose(theta.exponents, (-0.7, 1.3), rtol=1e-14)
        assert_allclose(theta.coeffs[0], 1.0 / math.gamma(0.3), rtol=1e-14)
        assert_allclose(
            theta.coeffs[1], 20.0 * math.pi / math.gamma(2.3), rtol=1e-14
        )

    def test_round_trip_reproduces_mu(self):
        # J^{1-alpha} theta = mu, checked away from the endpoint singularity
        tg = TimeGrid(1.0, 400)
        theta = duhamel_theta(FractionalOrder(0.5), MU_STD)
        recovered = rl_integral(0.5, theta.samples_for_quadrature(tg), tg.nodes)
        exact = MU_STD.sample(tg)
        sel = tg.nodes >= 0.25
        rel = np.max(np.abs(recovered[sel] - exact[sel]) / exact[sel])
        assert rel <= 1e-3

    def test_rejects_non_polynomial(self):
        with pytest.raises(TypeError):
            duhamel_theta(FractionalOrder(0.5), lambda t: np.exp(t))


class TestDuhamelCheck:
    def test_zero_source(self):
        grid = SpaceGrid(1, 21)
        f = Field.constant(grid, 0.0)
        val = duhamel_check(FractionalOrder(0.5), f, MU_STD, TimeGrid(1.0, 20), grid)
        assert val == 0.0

    def test_rejects_bad_refine_and_field_grid(self):
        # refine is checked by name before any solve; the problem spec owns the grid check
        grid = SpaceGrid(1, 11)
        tgrid = TimeGrid(1.0, 10)
        f = cos_field(grid)
        for refine in (0, 1.5, True):
            with pytest.raises(ValueError, match=f"refine must be an integer >= 1, got {refine!r}"):
                duhamel_check(FractionalOrder(0.5), f, MU_STD, tgrid, grid, refine=refine)
        with pytest.raises(ValueError, match="grid"):
            duhamel_check(FractionalOrder(0.5), cos_field(SpaceGrid(1, 21)), MU_STD, tgrid, grid)

    def test_published_settings(self):
        grid = SpaceGrid(1, 41)
        val = duhamel_check(
            FractionalOrder(0.5), cos_field(grid), MU_STD, TimeGrid(1.0, 40), grid
        )
        assert val <= 1e-2
