"""Independent semi-analytic solutions used to verify the solvers.

Eigenfunction expansion of -Laplace + 1 with Neumann conditions on [0,1]^d
(tensor cosines), modal Duhamel profiles evaluated through Mittag-Leffler
kernels with exactly integrated singular moments, and the Duhamel identity
u = theta * v linking the inhomogeneous and homogeneous problems.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np
from numpy.typing import NDArray

from .discretization import (
    Field,
    ObservationMask,
    SpaceGrid,
    SpaceTimeField,
    TimeGrid,
    inner_product,
    is_a,
    masked_inner_product,
)
from .fraccalc import FractionalOrder, linear_convolution, mittag_leffler
from .forward import ProblemSpec, solve_forward, solve_homogeneous

__all__ = [
    "EigenMode",
    "PolynomialMu",
    "ThetaFunction",
    "modes_up_to",
    "eigen_forward",
    "duhamel_theta",
    "duhamel_check",
]


@dataclass(frozen=True)
class EigenMode:
    """Neumann eigenpair of -Laplace + 1 on [0,1]^d: tensor cosine modes."""

    index: tuple[int, ...]

    def __post_init__(self) -> None:
        index = self.index
        if len(index) not in (1, 2) or not all(is_a(numbers.Integral, n) and n >= 0 for n in index):
            raise ValueError(f"mode index must be 1 or 2 non-negative integers, got {index!r}")

    @property
    def eigenvalue(self) -> float:
        return sum((n * math.pi) ** 2 for n in self.index) + 1.0

    def values(self, grid: SpaceGrid) -> NDArray[np.float64]:
        """Samples of the L2-normalized eigenfunction on the grid nodes."""
        if grid.dim != len(self.index):
            raise ValueError("mode dimension does not match the grid")
        x = grid.axis_nodes
        axes = [math.sqrt(2.0) * np.cos(n * math.pi * x) if n > 0 else np.ones_like(x)
                for n in self.index]
        return reduce(np.multiply.outer, axes).ravel()


def modes_up_to(dim: int, n_max: int) -> list[EigenMode]:
    """All modes with per-axis index <= n_max, ordered like the grid nodes."""
    return [EigenMode(index) for index in product(range(n_max + 1), repeat=dim)]


@dataclass(frozen=True)
class PolynomialMu:
    """Temporal source factor mu(t) = sum_p coeffs[p] t^p."""

    coeffs: tuple[float, ...]

    def __call__(self, t):
        return sum(c * np.asarray(t, dtype=float) ** p for p, c in enumerate(self.coeffs))

    def sample(self, tgrid: TimeGrid) -> NDArray[np.float64]:
        return np.asarray(self(tgrid.nodes), dtype=float)


@dataclass(frozen=True)
class ThetaFunction:
    """theta(t) = sum_q c_q t^{e_q} with exponents e_q = p + alpha - 1 in (-1, inf).

    Solves J^{1-alpha} theta = mu for polynomial mu; the endpoint singularity
    t^{alpha-1} is kept analytic and only enters through exact interval
    moments.
    """

    coeffs: tuple[float, ...]
    exponents: tuple[float, ...]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return sum(c * t**e for c, e in zip(self.coeffs, self.exponents))

    def moment0(self, x) -> NDArray[np.float64]:
        """Exact integral of theta over [0, x]."""
        x = np.asarray(x, dtype=float)
        return sum(c * x ** (e + 1.0) / (e + 1.0) for c, e in zip(self.coeffs, self.exponents))

    def moment1(self, x) -> NDArray[np.float64]:
        """Exact integral of u * theta(u) over [0, x]."""
        x = np.asarray(x, dtype=float)
        return sum(c * x ** (e + 2.0) / (e + 2.0) for c, e in zip(self.coeffs, self.exponents))

    def samples_for_quadrature(self, tgrid: TimeGrid) -> NDArray[np.float64]:
        """Node samples with theta(0) replaced by a mass-matched finite value.

        The substitute value makes the piecewise-linear interpolant reproduce
        the exact integral of theta over the first cell, so product-trapezoid
        quadratures of theta stay second-order accurate away from t = 0.
        """
        t = tgrid.nodes
        vals = np.empty_like(t)
        vals[1:] = self(t[1:])
        tau = tgrid.tau
        vals[0] = 2.0 / tau * float(self.moment0(tau)) - vals[1]
        return vals


def duhamel_theta(alpha: FractionalOrder, mu: PolynomialMu) -> ThetaFunction:
    """Solve J^{1-alpha} theta = mu analytically for polynomial mu.

    For mu = sum_p c_p t^p the solution is
    theta = sum_p c_p Gamma(p+1)/Gamma(p+alpha) t^{p+alpha-1}.
    """
    if not isinstance(mu, PolynomialMu):
        raise TypeError("the Duhamel oracle only supports polynomial mu")
    a = alpha.alpha
    coeffs = []
    exponents = []
    for p, c in enumerate(mu.coeffs):
        if c == 0.0:
            continue
        coeffs.append(c * math.gamma(p + 1.0) / math.gamma(p + a))
        exponents.append(p + a - 1.0)
    return ThetaFunction(coeffs=tuple(coeffs), exponents=tuple(exponents))


def _modal_profile(
    alpha: float, lam: float, mu_samples: NDArray[np.float64], tgrid: TimeGrid
) -> NDArray[np.float64]:
    """Duhamel convolution int_0^t K(u) mu(t-u) du for one eigenvalue.

    K(u) = u^{alpha-1} E_{alpha,alpha}(-lam u^alpha); mu is taken piecewise
    linear and the singular kernel moments are evaluated exactly through
    M0(x) = x^alpha E_{alpha,alpha+1}(-lam x^alpha) and
    M1(x) = (x/lam) [E_{alpha,2}(-lam x^alpha) - E_{alpha,1}(-lam x^alpha)].
    """
    t = tgrid.nodes
    m0 = np.zeros(t.size)
    m1 = np.zeros(t.size)
    for k in range(1, t.size):
        x = t[k]
        xa = x**alpha
        m0[k] = xa * mittag_leffler(alpha, alpha + 1.0, -lam * xa)
        m1[k] = (x / lam) * (
            mittag_leffler(alpha, 2.0, -lam * xa) - mittag_leffler(alpha, 1.0, -lam * xa)
        )
    return linear_convolution(m0, m1, mu_samples, tgrid.tau)


def eigen_forward(
    alpha: FractionalOrder,
    modes: list[EigenMode],
    f: Field,
    mu_samples: NDArray[np.float64],
    tgrid: TimeGrid,
) -> SpaceTimeField:
    """Eigen-expansion solution of the forward problem, independent of the solver.

    Sums phi_n (f, phi_n) times the modal Duhamel profile over the given modes;
    exact in space for f with a finite cosine expansion, O(tau^2) in time from
    the piecewise-linear treatment of mu.
    """
    if not modes:
        raise ValueError("mode set must not be empty")
    mu_samples = np.asarray(mu_samples, dtype=float)
    if mu_samples.shape != (tgrid.n_steps + 1,):
        raise ValueError("mu must be sampled on the time grid nodes")
    a = alpha.alpha
    grid = f.grid
    u = np.zeros((tgrid.n_steps + 1, grid.n_nodes))
    for mode in modes:
        phi = mode.values(grid)
        cn = inner_product(f, Field(grid, phi))
        if cn == 0.0:
            continue
        profile = _modal_profile(a, mode.eigenvalue, mu_samples, tgrid)
        u += cn * profile[:, None] * phi[None, :]
    return SpaceTimeField(grid, tgrid, u)


def duhamel_check(
    alpha: FractionalOrder,
    f: Field,
    mu: PolynomialMu,
    tgrid: TimeGrid,
    grid: SpaceGrid,
    refine: int = 32,
) -> float:
    """Relative L2(Q) discrepancy of the Duhamel identity u(f) = theta * v(f).

    u(f) is the inhomogeneous L1 solution on ``tgrid``; the homogeneous side
    v(f) and the convolution run on a time grid refined by ``refine``, because
    v carries a t^alpha initial layer that nodal sampling at the coarse step
    cannot represent (the discrepancy would stall near 1e-1 at 40 steps).  The
    analytic theta is integrated exactly against piecewise-linear v, and the
    result is compared on the coarse nodes.
    """
    if not (is_a(numbers.Integral, refine) and refine >= 1):
        raise ValueError(f"refine must be an integer >= 1, got {refine!r}")
    spec = ProblemSpec(alpha=alpha, tgrid=tgrid, grid=grid, mu=mu.sample(tgrid))
    u_direct = solve_forward(spec, f)
    tg_fine = TimeGrid(tgrid.T, tgrid.n_steps * refine)
    spec_fine = ProblemSpec(alpha=alpha, tgrid=tg_fine, grid=grid, mu=mu.sample(tg_fine))
    v = solve_homogeneous(spec_fine, f)
    theta = duhamel_theta(alpha, mu)

    t = tg_fine.nodes
    u_conv = linear_convolution(
        theta.moment0(t), theta.moment1(t), v.values, tg_fine.tau, stride=refine
    )

    full = ObservationMask(grid, np.ones(grid.n_nodes))
    diff = SpaceTimeField(grid, tgrid, u_direct.values - u_conv)
    num = math.sqrt(max(masked_inner_product(diff, diff, full), 0.0))
    den = math.sqrt(max(masked_inner_product(u_direct, u_direct, full), 0.0))
    return num / den if den > 0.0 else 0.0
