"""Tikhonov objective, adjoint gradient and the iterative thresholding loop.

The update f_{k+1} = (M f_k - int_0^T mu z(f_k) dt) / (M + rho) is the
fixed-point form of the regularized normal equations; it converges whenever
the tuning constant M dominates the squared operator norm of f -> u(f)|_omega,
which :func:`estimate_m` computes by Lanczos on A^T A, to 1e-12 relative in
5-8 steps on the published cases.

:func:`objective`, :func:`gradient` and :func:`iterate` each build one
:class:`forward.NormalOperator` of the observation, whose docstring derives
Phi and A^T (A f - u_obs) in modal coordinates, and call its ``phi``: a step
costs one product of the q time rows above rounding with the mask's modal
Gram matrix (:attr:`ObservationMask.gram`) and forms no space-time history.
Only :func:`estimate_m` runs the forward and adjoint solves (r + 1 batched
transforms each): the benchmark's tracer counts them and forces the
reference LU on each, so its move onto ``ProblemSpec.observe`` and
``ProblemSpec.transpose`` waits for a tracer fix.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field
from typing import Literal

import numpy as np
from numpy.typing import NDArray

from .discretization import (
    Field,
    ObservationMask,
    SpaceTimeField,
    is_a,
    norm_l2,
    splitmix64_uniform,
)
from .forward import NormalOperator, ProblemSpec, dot_plan, dots, run_plan, solve_adjoint, solve_forward

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
        for name in ("rho", "m", "eps"):
            value = getattr(self, name)
            if not (is_a(numbers.Real, value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not (is_a(numbers.Integral, self.max_iter) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not isinstance(self.f0, Field):
            raise ValueError(f"f0 must be a Field, got {type(self.f0).__name__}")
        if not np.all(np.isfinite(self.f0.values)):
            raise ValueError("f0 must have finite values")


@dataclass
class ReconstructionResult:
    """Outcome of :func:`iterate`; ``status`` says why the iteration stopped.

    ``"converged"``: the relative step fell below eps; ``"max_iter"``: the
    step cap came first; ``"diverged"``: Phi grew by 1e12 and the run bailed
    out.  ``converged`` is true for the first only.  ``err`` is
    ||f_K - f_true|| / ||f_true||, or None without f_true or when f_true is
    identically zero.

    Each ``phi_history`` entry is a sum of terms of the size of Phi_0
    (:meth:`forward.NormalOperator.phi`), so it carries absolute rounding of
    order eps Phi_0, eps the float64 machine epsilon: once Phi has fallen far
    below Phi_0 (58.9 to 0.0018 on 5.1a) its last digits are rounding and
    move with any change in the order of the sums.
    """

    f_k: Field
    iterations: int
    err: float | None
    phi_history: list[float] = field(repr=False)
    status: Literal["converged", "max_iter", "diverged"]

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def objective(
    spec: ProblemSpec,
    f: Field,
    u_obs: SpaceTimeField,
    mask: ObservationMask,
    rho: float,
) -> float:
    """Phi(f) = ||u(f) - u_obs||^2 over omega x (0,T) plus rho ||f||^2."""
    return NormalOperator(spec, mask, u_obs, f).phi(rho)[2]


def gradient(
    spec: ProblemSpec,
    f: Field,
    u_obs: SpaceTimeField,
    mask: ObservationMask,
    rho: float,
) -> Field:
    """int_0^T mu z(f) dt + rho f, i.e. half the Frechet derivative of Phi."""
    data_term = NormalOperator(spec, mask, u_obs, f).phi(rho)[0]
    return Field(spec.grid, spec.to_nodal(data_term) + rho * f.values)


def threshold_update(
    f: NDArray[np.float64], data_term: NDArray[np.float64], m: float, rho: float, out=None
) -> NDArray[np.float64]:
    """One thresholding step: (M f - data_term) / (M + rho), into ``out`` if given."""
    out = np.multiply(m, f, out)
    out -= data_term
    out /= m + rho
    return out


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
    out once the objective has grown by 1e12 and reports ``status="diverged"``
    rather than looping to the cap (a run that reaches the cap reports
    ``status="max_iter"``).  The bail-out is tested before the update, so a
    diverged run's K counts that check and is one more than the updates made:
    it returns f_{K-1}, and the last two entries of ``phi_history`` both hold
    Phi(f_{K-1}).

    The iterates stay in the modal coordinates f_hat = P^T W f: each is
    written into the ``f_hat`` of one :class:`forward.NormalOperator`, whose
    ``phi`` evaluates Phi and the data term there with no forward or adjoint solve.
    """
    if f_true is not None and f_true.grid != spec.grid:
        raise ValueError("true source grid does not match the problem grid")
    normal = NormalOperator(spec, mask, u_obs, cfg.f0)  # the arrays and plans every step uses
    f_hat, (f_next, diff) = normal.f_hat, np.empty((2, spec.grid.n_nodes))
    diff_plan, step2 = dot_plan(diff, diff)
    phi_history: list[float] = []
    status = "max_iter"
    k = 0
    for k in range(1, cfg.max_iter + 1):
        data_term, ff, phi = normal.phi(cfg.rho)
        phi_history.append(phi)
        if not math.isfinite(phi) or phi > 1e12 * (phi_history[0] + 1.0):
            logger.warning(
                "iteration diverged at k=%d (phi=%.3e); M is too small for this operator: "
                "it converges only if ||A||^2 < 2M + rho. See docs/decisions.md.",
                k - 1,
                phi,
            )
            status = "diverged"
            break
        threshold_update(f_hat, data_term, cfg.m, cfg.rho, f_next)
        np.subtract(f_next, f_hat, diff)
        run_plan(diff_plan)
        step = math.sqrt(step2[0])
        # stopping ratio ||f_{k+1}-f_k|| / ||f_k|| with a floor at f_k = 0
        f_norm = max(math.sqrt(ff), _ZERO_NORM_FLOOR)
        logger.info("k=%d phi=%.6e step_ratio=%.3e", k - 1, phi, step / f_norm)
        np.copyto(f_hat, f_next)
        if step < cfg.eps * f_norm:
            status = "converged"
            break
    if status != "diverged":  # a diverged run stops before updating f: phi is Phi(f)
        phi = normal.phi(cfg.rho)[2]
    phi_history.append(phi)
    f = Field(spec.grid, spec.to_nodal(f_hat))
    # no relative error against a source that is identically zero
    true_norm = norm_l2(f_true) if f_true is not None else 0.0
    err = None
    if true_norm > 0.0:
        err = norm_l2(Field(spec.grid, f.values - f_true.values)) / true_norm
    return ReconstructionResult(
        f_k=f, iterations=k, err=err, phi_history=phi_history, status=status
    )


def estimate_m(
    spec: ProblemSpec, mask: ObservationMask, iters: int, seed: int = 0
) -> float:
    """Lanczos estimate of ||A||_op^2 for A: f -> u(f)|_{omega x (0,T)}.

    Runs Lanczos on A^T A, which is self-adjoint in the mass-weighted product
    <f, g> = f . W g (W = ``spec.grid.quad_weights``); each step applies it
    as :func:`solve_adjoint` of :func:`solve_forward` and reorthogonalises
    the new vector against all earlier ones in that product (Paige, J. Inst.
    Math. Appl. 10, 1972).  Returns the top Ritz value theta of the k x k
    tridiagonal matrix T_k.  Like a Rayleigh quotient it never exceeds
    ||A||^2, the bound the tuning constant M must dominate, and it does not
    decrease with k.  Stops once the Ritz residual beta_k |s_k| (s_k the last
    entry of theta's unit eigenvector of T_k), which bounds the distance
    from theta to an eigenvalue of A^T A, is at most 1e-12 theta; on a
    breakdown (beta_k = 0, or k = n_nodes, where the Krylov space is the
    whole space); or after ``iters`` steps.  Every published case stops
    after 5-8 steps, one forward and one adjoint solve each.  The start
    vector is the ``seed``'s :func:`splitmix64_uniform` draws.
    """
    if not (is_a(numbers.Integral, iters) and iters >= 1):
        raise ValueError(f"iters must be an integer >= 1, got {iters!r}")
    w = spec.grid.quad_weights
    q = np.empty((min(iters, spec.grid.n_nodes), spec.grid.n_nodes))
    r = splitmix64_uniform(seed, spec.grid.n_nodes)
    beta = math.sqrt(dots(r, w * r)[0])
    diag: list[float] = []
    off: list[float] = []
    for k in range(q.shape[0]):
        q[k] = r / beta
        r = solve_adjoint(spec, solve_forward(spec, Field(spec.grid, q[k])), mask).values
        diag.append(float(dots(q[k], w * r)[0]))
        for _ in range(2):  # twice is enough (Parlett, The Symmetric Eigenvalue Problem)
            r = r - q[: k + 1].T @ dots(q[: k + 1], w * r)
        beta = math.sqrt(dots(r, w * r)[0])
        ritz, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        if beta * abs(vectors[-1, -1]) <= 1e-12 * ritz[-1] or beta == 0.0:
            break
        off.append(beta)
    return float(ritz[-1])
