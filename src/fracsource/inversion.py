"""Tikhonov objective, adjoint gradient and the iterative thresholding loop.

The update f_{k+1} = (M f_k - int_0^T mu z(f_k) dt) / (M + rho) is the
fixed-point form of the regularized normal equations; it converges whenever
the tuning constant M dominates the squared operator norm of f -> u(f)|_omega,
which :func:`estimate_m` approximates by power iteration.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .discretization import (
    Field,
    ObservationMask,
    SpaceTimeField,
    inner_product,
    masked_inner_product,
    norm_l2,
)
from .forward import ProblemSpec, solve_adjoint, solve_forward

__all__ = [
    "ReconstructionConfig",
    "ReconstructionResult",
    "objective",
    "gradient",
    "threshold_update",
    "iterate",
    "estimate_m",
]

logger = logging.getLogger(__name__)

_ZERO_NORM_FLOOR = 1e-14


@dataclass
class ReconstructionConfig:
    """Knobs of the thresholding iteration: rho, M, eps, f0 and the step cap."""

    rho: float
    m: float
    eps: float
    f0: Field
    max_iter: int = 1000

    def __post_init__(self) -> None:
        if self.rho <= 0.0 or self.m <= 0.0 or self.eps <= 0.0:
            raise ValueError("rho, M and eps must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class ReconstructionResult:
    f_k: Field
    iterations: int
    err: float | None
    phi_history: list[float] = field(repr=False)
    converged: bool = True


def _residual(spec: ProblemSpec, f: Field, u_obs: SpaceTimeField) -> SpaceTimeField:
    """u(f) - u_obs on the full space-time grid."""
    u = solve_forward(spec, f)
    return SpaceTimeField(spec.grid, spec.tgrid, u.values - u_obs.values)


def _misfit(residual: SpaceTimeField, mask: ObservationMask) -> float:
    return masked_inner_product(residual, residual, mask)


def objective(
    spec: ProblemSpec,
    f: Field,
    u_obs: SpaceTimeField,
    mask: ObservationMask,
    rho: float,
) -> float:
    """Phi(f) = ||u(f) - u_obs||^2 over omega x (0,T) plus rho ||f||^2."""
    residual = _residual(spec, f, u_obs)
    return _misfit(residual, mask) + rho * inner_product(f, f)


def gradient(
    spec: ProblemSpec,
    f: Field,
    u_obs: SpaceTimeField,
    mask: ObservationMask,
    rho: float,
) -> Field:
    """int_0^T mu z(f) dt + rho f, i.e. half the Frechet derivative of Phi."""
    residual = _residual(spec, f, u_obs)
    return Field(spec.grid, solve_adjoint(spec, residual, mask).values + rho * f.values)


def threshold_update(
    f: NDArray[np.float64], data_term: NDArray[np.float64], m: float, rho: float
) -> NDArray[np.float64]:
    """One thresholding step: (M f - data_term) / (M + rho)."""
    return (m * f - data_term) / (m + rho)


def iterate(
    spec: ProblemSpec,
    u_obs: SpaceTimeField,
    mask: ObservationMask,
    cfg: ReconstructionConfig,
    f_true: Field | None = None,
) -> ReconstructionResult:
    """Run the thresholding iteration until the relative update drops below eps.

    Stops when ||f_{k+1} - f_k|| < eps * max(||f_k||, 1e-14) or after
    ``cfg.max_iter`` updates; the returned ``phi_history`` holds Phi at f_0
    through f_K.  When M is below half the squared operator norm the update
    map is expansive and the iterates grow geometrically; the loop then bails
    out once the objective has grown by 1e12 and reports ``converged=False``
    rather than looping to the cap.
    """
    if cfg.f0.grid != spec.grid:
        raise ValueError("initial guess grid does not match the problem grid")
    f = Field(spec.grid, cfg.f0.values.copy())
    phi_history: list[float] = []
    converged = diverged = False
    k = 0
    for k in range(1, cfg.max_iter + 1):
        residual = _residual(spec, f, u_obs)
        phi_history.append(_misfit(residual, mask) + cfg.rho * inner_product(f, f))
        if not math.isfinite(phi_history[-1]) or (
            phi_history[-1] > 1e12 * (phi_history[0] + 1.0)
        ):
            logger.warning(
                "iteration diverged at k=%d (phi=%.3e); M is too small for this operator",
                k - 1,
                phi_history[-1],
            )
            diverged = True
            break
        data_term = solve_adjoint(spec, residual, mask).values
        f_next = Field(spec.grid, threshold_update(f.values, data_term, cfg.m, cfg.rho))
        step = norm_l2(Field(spec.grid, f_next.values - f.values))
        # stopping ratio ||f_{k+1}-f_k|| / ||f_k|| with a floor at f_k = 0
        threshold = cfg.eps * max(norm_l2(f), _ZERO_NORM_FLOOR)
        logger.info(
            "k=%d phi=%.6e step_ratio=%.3e",
            k - 1,
            phi_history[-1],
            step / max(norm_l2(f), _ZERO_NORM_FLOOR),
        )
        f = f_next
        if step < threshold:
            converged = True
            break
    # a diverged run stops before updating f, so its last phi is already Phi(f_K)
    phi_history.append(
        phi_history[-1] if diverged else objective(spec, f, u_obs, mask, cfg.rho)
    )
    err = None
    if f_true is not None:
        err = norm_l2(Field(spec.grid, f.values - f_true.values)) / norm_l2(f_true)
    return ReconstructionResult(
        f_k=f, iterations=k, err=err, phi_history=phi_history, converged=converged
    )


def estimate_m(
    spec: ProblemSpec, mask: ObservationMask, iters: int, seed: int = 0
) -> float:
    """Power-iteration estimate of ||A||_op^2 for A: f -> u(f)|_{omega x (0,T)}.

    Iterates f <- A*(A f) using the adjoint solver and returns the Rayleigh
    quotient ||A f||^2 / ||f||^2 of the last iterate, a lower estimate of the
    squared operator norm that the tuning constant M must dominate.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    v = Field(spec.grid, np.random.default_rng(seed).standard_normal(spec.grid.n_nodes))
    v = Field(spec.grid, v.values / norm_l2(v))
    q = 0.0
    for _ in range(iters):
        u = solve_forward(spec, v)
        av2 = masked_inner_product(u, u, mask)
        q = av2 / inner_product(v, v)
        if av2 == 0.0:
            return 0.0
        w = solve_adjoint(spec, u, mask)
        nw = norm_l2(w)
        if nw == 0.0:
            return 0.0
        v = Field(spec.grid, w.values / nw)
    return q
