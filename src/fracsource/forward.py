"""L1 time-stepping solver for d_t^alpha u + (-Laplace + 1) u = f(x) mu(t).

Each step solves (beta W + M) u^n = W rhs^n with beta = tau^-alpha/Gamma(2-alpha),
where M is the symmetric mass-weighted operator matrix and W the trapezoid mass;
the factorization is computed once per :class:`ProblemSpec` and reused across
steps and across all reconstruction iterations.  The same stepping, run in
reversed time, gives the transpose of the source-to-observation map
(:func:`solve_adjoint`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray
from scipy import sparse
from scipy.sparse.linalg import splu

from .discretization import (
    EllipticOperator,
    Field,
    ObservationMask,
    SpaceTimeField,
    TimeGrid,
)
from .fraccalc import FractionalOrder, l1_scale, l1_weights

__all__ = ["ProblemSpec", "solve_forward", "solve_homogeneous", "solve_adjoint"]


@dataclass(eq=False)
class ProblemSpec:
    """Fractional order, grids, spatial operator and sampled temporal factor."""

    alpha: FractionalOrder
    tgrid: TimeGrid
    op: EllipticOperator
    mu: NDArray[np.float64]

    def __post_init__(self) -> None:
        self.mu = np.asarray(self.mu, dtype=float)
        if self.mu.shape != (self.tgrid.n_steps + 1,):
            raise ValueError("mu must be sampled on the time grid nodes")
        if not np.all(np.isfinite(self.mu)):
            raise ValueError("mu samples must be finite")

    @property
    def grid(self):
        return self.op.grid

    @cached_property
    def weights(self) -> NDArray[np.float64]:
        return l1_weights(self.alpha, self.tgrid.n_steps)

    @cached_property
    def step_solver(self):
        """LU factorization of beta W + M, shared by every step."""
        beta = l1_scale(self.alpha, self.tgrid.tau)
        system = (sparse.diags(beta * self.op.mass) + self.op.weighted_matrix).tocsc()
        lu = splu(system)
        # c0 = 1 makes the system matrix positive definite; a vanishing pivot
        # would mean the assembly is broken, so fail loudly.
        if not np.all(np.isfinite(lu.U.diagonal())) or np.any(lu.U.diagonal() == 0.0):
            raise ArithmeticError("singular implicit system; operator assembly is broken")
        return lu


def _step_l1(
    spec: ProblemSpec,
    source: NDArray[np.float64],
    initial: NDArray[np.float64],
) -> NDArray[np.float64]:
    """Run the implicit L1 scheme with per-step nodal sources.

    ``source[n]`` is the full right-hand side sample at time node n (only
    n >= 1 enters the scheme); ``initial`` is u^0.  Returns the full history
    array of shape (n_steps + 1, n_nodes).
    """
    n_steps = spec.tgrid.n_steps
    n_nodes = spec.grid.n_nodes
    beta = l1_scale(spec.alpha, spec.tgrid.tau)
    b = spec.weights
    mass = spec.op.mass
    lu = spec.step_solver

    u = np.empty((n_steps + 1, n_nodes))
    u[0] = initial
    diffs = np.empty((n_steps, n_nodes))  # diffs[k] = u^{k+1} - u^k
    for n in range(1, n_steps + 1):
        if n > 1:
            # sum_{k=1}^{n-1} b_k (u^{n-k} - u^{n-k-1}) = sum_j b_{n-1-j} diffs[j]
            hist = b[1:n][::-1] @ diffs[: n - 1]
        else:
            hist = 0.0
        rhs = beta * (u[n - 1] - hist) + source[n]
        u[n] = lu.solve(mass * rhs)
        diffs[n - 1] = u[n] - u[n - 1]
    return u


def solve_forward(spec: ProblemSpec, f: Field) -> SpaceTimeField:
    """Solve d_t^alpha u + A u = f mu(t) with u(.,0) = 0, Neumann boundary."""
    if f.grid != spec.grid:
        raise ValueError("source field grid does not match the problem grid")
    source = spec.mu[:, None] * f.values[None, :]
    u = _step_l1(spec, source, np.zeros(spec.grid.n_nodes))
    return SpaceTimeField(spec.grid, spec.tgrid, u)


def solve_homogeneous(spec: ProblemSpec, a: Field) -> SpaceTimeField:
    """Solve d_t^alpha v + A v = 0 with v(.,0) = a, Neumann boundary."""
    if a.grid != spec.grid:
        raise ValueError("initial field grid does not match the problem grid")
    source = np.zeros((spec.tgrid.n_steps + 1, spec.grid.n_nodes))
    v = _step_l1(spec, source, a.values.copy())
    return SpaceTimeField(spec.grid, spec.tgrid, v)


def solve_adjoint(
    spec: ProblemSpec, residual: SpaceTimeField, mask: ObservationMask
) -> Field:
    """A^T r = int_0^T mu z dt, for the adjoint state z driven by chi_omega * r.

    A: f -> u(f)|_omega is :func:`solve_forward` observed on omega; the transpose
    is taken in the mass-weighted L2(Omega) product and the trapezoid-in-time
    pairing of :func:`masked_inner_product`.  ``residual`` is sampled on the
    full space-time grid; values outside omega are ignored.

    With s = T - t the backward derivative -d/dt J^{1-alpha}_{T-} becomes the
    forward Caputo derivative in s, so z is the same L1 scheme run in reversed
    time from z(., T) = 0.  Reversed step p takes the residual at time node
    n_steps + 1 - p times the trapezoid weight ratio wt / tau (1/2 at t = T);
    the t = 0 sample pairs with u(., 0) = 0 and never enters.  The mu integral
    is the left-rectangle rule tau * sum_{n>=1} mu(t_n) z(t_{n-1}), dual to the
    forward scheme's nodal source sampling.  Together they make
    <A f, r> = <f, A^T r> hold to rounding rather than to O(tau).
    """
    if residual.grid != spec.grid or residual.tgrid != spec.tgrid:
        raise ValueError("residual grids do not match the problem spec")
    if mask.grid != spec.grid:
        raise ValueError("mask grid does not match the problem grid")
    tau = spec.tgrid.tau
    # mask.chi is the quadrature-consistent chi_omega (half weight on the box
    # boundary), matching the omega quadrature of masked_inner_product
    wt_frac = spec.tgrid.quad_weights / tau
    weighted = (wt_frac[:, None] * residual.values) * mask.chi[None, :]
    source = np.zeros_like(weighted)
    source[1:] = weighted[1:][::-1]
    # the copy keeps the mu contraction on a contiguous array: the matmul on
    # the reversed view rounds differently
    z = _step_l1(spec, source, np.zeros(spec.grid.n_nodes))[::-1].copy()
    return Field(spec.grid, tau * (spec.mu[1:] @ z[:-1]))
