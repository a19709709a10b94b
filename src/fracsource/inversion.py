"""Tikhonov objective, adjoint gradient and the iterative thresholding loop.

The update f_{k+1} = (M f_k - int_0^T mu z(f_k) dt) / (M + rho) is the
fixed-point form of the regularized normal equations; it converges whenever
the tuning constant M dominates the squared operator norm of f -> u(f)|_omega,
which :func:`estimate_m` computes by Lanczos on A^T A, to 1e-12 relative in
5-8 steps on the published cases.

:func:`objective`, :func:`gradient` and :func:`iterate` share one statement
of Phi and of A^T (A f - u_obs) in modal coordinates on :class:`NormalOperator`,
forming no space-time history.  A^T A is quadratic in the time factor, whose
rows decay geometrically, so the operator applies it through only the leading
q rows above rounding (q of r: 4 of 8 on 5.3a, 7 of 13 on table 2) and folds
the data's share of the other rows into a modal vector and a constant,
computed once per call: a step costs one product of the q rows with the
mask's modal Gram matrix G = P^T W_omega P (:attr:`ObservationMask.gram`,
2 R n^3 multiply-adds per row, R = 1 on every published mask) and passes
for the residual, the misfit and the data term.  Its sums are BLAS dots of at
most 10,000 terms (:func:`forward.dot_plan`), past which OpenBLAS splits a dot
by thread count (7 x 1681 on table 2), and :func:`iterate` builds its plans once.
Only :func:`estimate_m` runs the forward and adjoint solves (r + 1 batched
transforms each): the benchmark's tracer counts them and forces the
reference LU on each, so its move onto the operator waits for a tracer fix.
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
# e . e / Phi above which _phi re-anchors: its misfit's rounding stays near 64 eps Phi
_ANCHOR_SLACK = 64.0


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


@dataclass
class ReconstructionResult:
    """Outcome of :func:`iterate`; ``status`` says why the iteration stopped.

    ``"converged"``: the relative step fell below eps; ``"max_iter"``: the
    step cap came first; ``"diverged"``: Phi grew by 1e12 and the run bailed
    out.  ``converged`` is true for the first only.  ``err`` is
    ||f_K - f_true|| / ||f_true||, or None without f_true or when f_true is
    identically zero.

    Each ``phi_history`` entry is a sum of terms of the size of Phi_0
    (``_phi``), so it carries absolute rounding of order eps Phi_0, eps the
    float64 machine epsilon: once Phi has fallen far below Phi_0 (58.9 to
    0.0018 on 5.1a) its last digits are rounding and move with any change
    in the order of the sums.
    """

    f_k: Field
    iterations: int
    err: float | None
    phi_history: list[float] = field(repr=False)
    status: Literal["converged", "max_iter", "diverged"]

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _phi(
    normal: NormalOperator, projection: tuple, work: tuple, rho: float, c_hat=None
) -> tuple[NDArray[np.float64], float, float, NDArray[np.float64]]:
    """(A^T (A f - u_obs) in modal form, f_hat . f_hat, Phi(f), c_hat) at the f_hat = P^T W f of ``work``.

    ``projection`` = ``normal.project(u_obs)`` = (c_q, t, const) and c_hat is
    c_q's modal form :meth:`NormalOperator.anchor`, anchored at f when None.
    With e = sb_q * f_hat - c_hat and g = G e (:meth:`NormalOperator.gram`),
    ||A f - u_obs||^2 = sum e * g - 2 f_hat . t + const and
    A^T (A f - u_obs) = sum_l sb_l * g_l - t.  sum e * g carries rounding of
    order eps e . e, and e . e grows off omega as f leaves the anchor, so
    past _ANCHOR_SLACK Phi it is recomputed anchored at f (e . e <= 2^dim Phi).
    """
    c, t, const = projection
    sb, ft, ge, data_term, plan, sums = work
    anchored = c_hat is None
    c_hat = normal.anchor(c, ft[0]) if anchored else c_hat
    np.multiply(sb, ft[0], ge[1])
    ge[1] -= c_hat
    run_plan(plan)
    (eg, ee), (ff, f_t) = sums[0].tolist(), sums[1].tolist()
    phi = eg - 2.0 * f_t + const + rho * ff
    if not anchored and ee > _ANCHOR_SLACK * phi:
        return _phi(normal, projection, work, rho)
    np.einsum("ij,ij->j", sb, ge[0], out=data_term)
    data_term -= t
    return data_term, ff, phi, c_hat


def _prepare(spec: ProblemSpec, u_obs: SpaceTimeField, mask: ObservationMask, f: Field) -> tuple:
    """(normal, projection, work) for :func:`_phi` at f, work = (sb_q, ft = [f_hat, t], [G e, e], data term,
    plan, sums): the plan is :meth:`NormalOperator.gram`'s, then :func:`forward.dot_plan`'s for the sums."""
    normal = NormalOperator(spec, mask)
    c, t, _ = projection = normal.project(u_obs)
    ft, ge = np.empty((2,) + t.shape), np.empty((2,) + c.shape)
    ft[0], ft[1] = spec.to_modal(f), t
    (ge_plan, ge_sums), (ft_plan, ft_sums) = dot_plan(ge, ge[1]), dot_plan(ft, ft[0])
    plan = normal.gram(ge[1], ge[0]) + ge_plan + ft_plan
    return normal, projection, (spec.time_factor[1][: len(c)], ft, ge, np.empty_like(t), plan, (ge_sums, ft_sums))


def objective(
    spec: ProblemSpec,
    f: Field,
    u_obs: SpaceTimeField,
    mask: ObservationMask,
    rho: float,
) -> float:
    """Phi(f) = ||u(f) - u_obs||^2 over omega x (0,T) plus rho ||f||^2."""
    return _phi(*_prepare(spec, u_obs, mask, f), rho)[2]


def gradient(
    spec: ProblemSpec,
    f: Field,
    u_obs: SpaceTimeField,
    mask: ObservationMask,
    rho: float,
) -> Field:
    """int_0^T mu z(f) dt + rho f, i.e. half the Frechet derivative of Phi."""
    data_term = _phi(*_prepare(spec, u_obs, mask, f), rho)[0]
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

    The iterates stay in the modal coordinates f_hat = P^T W f, so a step
    costs one product of q rows with the mask's Gram matrix G = P^T W_omega P
    (:attr:`ObservationMask.gram`) instead of a forward and an adjoint solve,
    q <= r the time modes above rounding in A^T A (:attr:`ProblemSpec.normal_rank`).
    """
    if f_true is not None and f_true.grid != spec.grid:
        raise ValueError("true source grid does not match the problem grid")
    c_hat = None  # the first step anchors at f_0
    # the arrays every step writes and its plans, built once per call
    normal, projection, work = _prepare(spec, u_obs, mask, cfg.f0)
    f_hat, (f_next, diff) = work[1][0], np.empty((2, spec.grid.n_nodes))
    diff_plan, step2 = dot_plan(diff, diff)
    phi_history: list[float] = []
    status = "max_iter"
    k = 0
    for k in range(1, cfg.max_iter + 1):
        data_term, ff, phi, c_hat = _phi(normal, projection, work, cfg.rho, c_hat)
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
        phi = _phi(normal, projection, work, cfg.rho, c_hat)[2]
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
